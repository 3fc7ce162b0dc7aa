"""Run telemetry: per-experiment timing, cache status, simulation totals.

The experiment engine wraps every registry entry in an
:class:`ExperimentRecord` (wall time, cache hit/miss, failure capture)
and aggregates them into a :class:`RunReport` — a structured JSON
document written next to the result cache and rendered by
``python -m repro.experiments summary``.

Counters are one process-local tree of named numbers.  The simulator
calls :func:`record_simulation` on every trace it drives (measured-window
totals, per-regime ``flows`` and ``structures``, the sampled tier's
``derived_traces``); other layers :func:`count` one leaf
(``context_cache/<kind>/<hit|miss|store>`` per disk probe of a trace,
bundle, sweep or calibration; ``cache_store_skipped`` per refused cache
write) or :func:`count_numbers` a mapping of them (``fleet/<policy>``
serving totals).  The stage executor resets the tree around each stage
and freezes it with :func:`counters_snapshot`.  Each engine worker is a
separate process, so counters never race and are attributed to exactly
one stage even when workers are reused.  :func:`merge_simulations` is
the one merge: it sums stage snapshots into an experiment's record, and
records into the run through :meth:`RunReport.totals`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Cache-status values an ExperimentRecord may carry.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_REFRESH = "refresh"
CACHE_OFF = "off"


#: The leaves every snapshot carries, zero or not.
_ZEROS: Dict[str, Any] = {
    "traces_run": 0, "events_simulated": 0, "warmup_events": 0, "runs_coalesced": 0,
    "check_cycles": 0.0, "total_cycles": 0.0, "regime_cycles": {}, "regime_events": {},
}

#: The process-local counter tree: nested dicts whose leaves are numbers.
_TREE: Dict[str, Any] = {}


def reset_counters() -> None:
    """Zero the process-local counter tree."""
    global _TREE
    _TREE = {k: {} if isinstance(v, dict) else v for k, v in _ZEROS.items()}


reset_counters()


def _node(path: Sequence[str]) -> Dict[str, Any]:
    """The sub-tree at *path*, created empty where missing."""
    node = _TREE
    for key in path:
        node = node.setdefault(key, {})
    return node


def count(*path: str, n: float = 1) -> None:
    """Add *n* to the counter at *path*; a new counter starts at zero."""
    node = _node(path[:-1])
    leaf = path[-1]
    node[leaf] = node.get(leaf, 0) + n


def _add_numbers(node: Dict[str, Any], mapping: Mapping[str, Any]) -> None:
    for key, value in mapping.items():
        if isinstance(value, (int, float)):
            if not isinstance(value, bool) and not key.endswith("_rate"):
                node[key] = node.get(key, 0) + value
        elif isinstance(value, Mapping):
            _add_numbers(node.setdefault(key, {}), value)


def count_numbers(mapping: Mapping[str, Any], *path: str) -> None:
    """Add every numeric leaf of *mapping* to the counters under *path*.

    Derived ``*_rate`` keys are skipped (recompute them from the sums),
    and so is anything that is not a number."""
    _add_numbers(_node(path), mapping)


def record_simulation(
    regime: str,
    events: int,
    check_cycles: float,
    total_cycles: float,
    warmup_events: int = 0,
    flow_counts: Optional[Mapping[str, int]] = None,
    flow_cycles: Optional[Mapping[str, float]] = None,
    structures: Optional[Mapping[str, Any]] = None,
    runs_coalesced: int = 0,
    derived: bool = False,
    events_extrapolated: int = 0,
    error_estimate: float = 0.0,
) -> None:
    """Account one simulated trace (called by the kernel simulator).

    ``events`` and the cycle totals all cover the measured window;
    warm-up events are reported separately via ``warmup_events``.
    ``flow_counts``/``flow_cycles`` are the trace's per-flow ledger and
    ``structures`` its per-structure counters; all three are optional so
    external callers of the simulator stay source-compatible.
    ``runs_coalesced`` counts the (event, count) pairs the kernel
    consumed, so ``events / runs_coalesced`` is the mean run length.
    ``derived`` marks an analytic sampled run: ``events_extrapolated``
    of its events were accounted without being simulated, with
    ``error_estimate`` as its split-half error bound.
    """
    # Cycle counters are floats even when a caller passes an int zero.
    check_cycles = float(check_cycles)
    total_cycles = float(total_cycles)
    counters: Dict[str, Any] = {
        "traces_run": 1,
        "events_simulated": events,
        "warmup_events": warmup_events,
        "runs_coalesced": runs_coalesced,
        "check_cycles": check_cycles,
        "total_cycles": total_cycles,
        "regime_cycles": {regime: total_cycles},
        "regime_events": {regime: events},
    }
    if flow_counts:
        counters["flows"] = {
            regime: {
                "events": sum(flow_counts.values()),
                "check_cycles": check_cycles,
                "counts": flow_counts,
                "cycles": flow_cycles or {},
            }
        }
    if structures:
        counters["structures"] = {regime: structures}
    if derived:
        counters["derived_traces"] = 1
        counters["events_extrapolated"] = events_extrapolated
        # A worst-case bound: the largest, not the sum.
        _TREE["max_error_estimate"] = max(
            _TREE.get("max_error_estimate", 0.0), error_estimate
        )
    count_numbers(counters)


def merge_simulations(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine counter snapshots (a stage's, an experiment's, or any
    sub-tree of them): numeric leaves are summed recursively, matching
    how the counters would have accumulated in a single process,
    ``max_error_estimate`` merges by max, and a top-level
    ``mean_run_length`` is recomputed from the merged totals."""

    def _merge_into(target: Dict[str, Any], source: Mapping[str, Any]) -> None:
        for key, value in source.items():
            if isinstance(value, Mapping):
                _merge_into(target.setdefault(key, {}), value)
            elif key == "max_error_estimate":
                target[key] = max(target.get(key, 0.0), value)
            elif isinstance(value, bool):
                target.setdefault(key, value)
            elif isinstance(value, (int, float)):
                target[key] = target.get(key, 0) + value
            else:
                target.setdefault(key, value)

    merged: Dict[str, Any] = {}
    for part in parts:
        _merge_into(merged, part)
    if "mean_run_length" in merged:
        runs = merged.get("runs_coalesced", 0)
        merged["mean_run_length"] = (
            round(merged.get("events_simulated", 0) / runs, 3) if runs else 0.0
        )
    return merged


def _frozen(node: Mapping[str, Any]) -> Dict[str, Any]:
    """Key-sorted copy of *node*, float leaves rounded to 3 decimals."""
    out: Dict[str, Any] = {}
    for key in sorted(node):
        value = node[key]
        if isinstance(value, dict):
            value = _frozen(value)
        elif isinstance(value, float):
            value = round(value, 3)
        out[key] = value
    return out


def _snapshot(tree: Mapping[str, Any]) -> Dict[str, Any]:
    runs = tree["runs_coalesced"]
    mean_run_length = tree["events_simulated"] / runs if runs else 0.0
    snapshot = _frozen({**tree, "mean_run_length": mean_run_length})
    if "max_error_estimate" in tree:
        snapshot["max_error_estimate"] = round(tree["max_error_estimate"], 6)
    return snapshot


def counters_snapshot() -> Dict[str, Any]:
    """The counter tree frozen into a record's JSON: keys sorted, float
    leaves rounded to 3 decimals (the error bound to 6), and the mean
    run length derived."""
    return _snapshot(_TREE)


def empty_snapshot() -> Dict[str, Any]:
    """The snapshot of a stage that counted nothing."""
    return _snapshot(_ZEROS)


def _table(title: str, rows: List[Sequence[str]]) -> List[str]:
    """*title*, then *rows* in left-aligned columns, the first row a header."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [title] + ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
    lines.insert(2, "-" * len(lines[1]))
    return lines


@dataclass
class ExperimentRecord:
    """Telemetry for one engine-executed experiment."""

    experiment_id: str
    title: str = ""
    status: str = "ok"  # "ok" | "failed"
    cache: str = CACHE_OFF
    wall_time_s: float = 0.0
    params_digest: str = ""
    error: str = ""
    simulation: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "status": self.status,
            "cache": self.cache,
            "wall_time_s": round(self.wall_time_s, 4),
            "params_digest": self.params_digest,
            "error": self.error,
            "simulation": self.simulation,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ExperimentRecord":
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload.get("title", ""),
            status=payload.get("status", "ok"),
            cache=payload.get("cache", CACHE_OFF),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            params_digest=payload.get("params_digest", ""),
            error=payload.get("error", ""),
            simulation=dict(payload.get("simulation", {})),
        )


@dataclass
class RunReport:
    """One engine invocation: run-level metadata plus per-experiment records."""

    records: List[ExperimentRecord] = field(default_factory=list)
    jobs: int = 1
    events: Optional[int] = None
    seed: Optional[int] = None
    code_fingerprint: str = ""
    cache_dir: str = ""
    started_at: float = 0.0
    finished_at: float = 0.0

    # -- aggregates ----------------------------------------------------

    @property
    def wall_time_s(self) -> float:
        return max(self.finished_at - self.started_at, 0.0)

    @property
    def failures(self) -> List[ExperimentRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache == CACHE_HIT)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.records if r.cache in (CACHE_MISS, CACHE_REFRESH))

    def totals(self, *path: str) -> Any:
        """Every record's counters at *path* merged with
        :func:`merge_simulations`: the whole tree when no path is given,
        else the one sub-tree or leaf asked for (``{}`` when no record
        has it)."""
        if not path:
            return merge_simulations([r.simulation for r in self.records])
        *outer, name = path
        parts = []
        for record in self.records:
            node = record.simulation
            for key in outer:
                node = node.get(key, {})
            if name in node:
                parts.append({name: node[name]})
        return merge_simulations(parts).get(name, {})

    def stage_counters(self) -> Dict[str, int]:
        """Stage-graph hit/exec/dedup/store totals summed across records
        (empty when every experiment was a whole-result cache hit)."""
        return self.totals("stages", "counters")

    def stage_detail(self) -> List[Dict[str, Any]]:
        """Per-stage rows (experiment, kind, label, status, elapsed)
        flattened across records, in record order."""
        rows: List[Dict[str, Any]] = []
        for record in self.records:
            block = record.simulation.get("stages", {})
            for entry in block.get("detail", []):
                row = dict(entry)
                row["experiment_id"] = record.experiment_id
                rows.append(row)
        return rows

    def flows(self) -> Dict[str, Dict[str, Any]]:
        """Per-regime flow ledger totals, ``{regime: {"events",
        "check_cycles", "counts", "cycles"}}`` sorted by regime.

        Cycles are summed from the per-record JSON, which rounds to 3
        decimals — see :meth:`audit_flow_conservation` for the matching
        tolerance.
        """
        flows = self.totals("flows")
        return {regime: flows[regime] for regime in sorted(flows)}

    def audit_flow_conservation(self) -> List[str]:
        """Cross-check every regime's aggregated flow ledger.

        Flow counts must sum exactly to the regime's event total; flow
        cycles must sum to its checking-cycle total within the rounding
        noise the JSON encoding introduces (3 decimals per bucket per
        record).  Returns a list of human-readable drift descriptions —
        empty means the ledger conserves.
        """
        problems: List[str] = []
        traces = self.totals("traces_run") or 1
        # Each (record, flow) bucket contributes up to 5e-4 of rounding
        # error on each side of the comparison.
        tolerance = 1e-3 * traces * 16 + 1e-6
        for regime, block in self.flows().items():
            events = block["events"]
            counted = sum(block["counts"].values())
            if counted != events:
                problems.append(
                    f"{regime}: flow counts sum to {counted} but "
                    f"{events} events were measured"
                )
            want = block["check_cycles"]
            got = sum(block["cycles"][flow] for flow in sorted(block["cycles"]))
            if abs(want - got) > tolerance:
                problems.append(
                    f"{regime}: flow cycles sum to {got:.3f} but "
                    f"check_cycles={want:.3f} (tolerance {tolerance:.3f})"
                )
        return problems

    # -- serialisation -------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.run-report/1",
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_time_s": round(self.wall_time_s, 4),
            "jobs": self.jobs,
            "events": self.events,
            "seed": self.seed,
            "code_fingerprint": self.code_fingerprint,
            "cache_dir": self.cache_dir,
            "totals": {
                "experiments": len(self.records),
                "failed": len(self.failures),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "events_simulated": self.totals("events_simulated") or 0,
            },
            "records": [r.to_json_dict() for r in self.records],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "RunReport":
        return cls(
            records=[ExperimentRecord.from_json_dict(r) for r in payload.get("records", [])],
            jobs=int(payload.get("jobs", 1)),
            events=payload.get("events"),
            seed=payload.get("seed"),
            code_fingerprint=payload.get("code_fingerprint", ""),
            cache_dir=payload.get("cache_dir", ""),
            started_at=float(payload.get("started_at", 0.0)),
            finished_at=float(payload.get("finished_at", 0.0)),
        )

    def write(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))

    @classmethod
    def read(cls, path: Path) -> "RunReport":
        return cls.from_json_dict(json.loads(Path(path).read_text()))

    # -- rendering -----------------------------------------------------

    def format_summary(self) -> str:
        """Fixed-width per-experiment summary (the ``summary`` subcommand)."""
        header = (
            "experiment", "status", "cache", "wall_s", "events", "traces",
            "runs", "run_len", "Mcycles",
        )
        rows = [header]
        for r in self.records:
            sim = r.simulation
            runs = sim.get("runs_coalesced", 0)
            events = sim.get("events_simulated", 0)
            rows.append(
                (
                    r.experiment_id,
                    r.status,
                    r.cache,
                    f"{r.wall_time_s:.2f}",
                    str(events),
                    str(sim.get("traces_run", 0)),
                    str(runs),
                    f"{events / runs:.2f}" if runs else "-",
                    f"{sim.get('total_cycles', 0.0) / 1e6:.1f}",
                )
            )
        lines = _table("== run summary", rows)
        lines.append(
            f"total: {len(self.records)} experiments in {self.wall_time_s:.2f}s "
            f"(jobs={self.jobs}, cache: {self.cache_hits} hit / "
            f"{self.cache_misses} miss, {len(self.failures)} failed)"
        )
        context = self.totals("context_cache")
        if context:
            hits = sum(c.get("hit", 0) for c in context.values())
            misses = sum(c.get("miss", 0) for c in context.values())
            stores = sum(c.get("store", 0) for c in context.values())
            detail = ", ".join(
                f"{kind} {c.get('hit', 0)}/{c.get('hit', 0) + c.get('miss', 0)}"
                for kind, c in sorted(context.items())
            )
            lines.append(
                f"context cache: {hits} hit / {misses} miss / {stores} "
                f"store ({detail})"
            )
        for policy, counters in sorted(self.totals("fleet").items()):
            lines.append(
                f"fleet[{policy}]: {counters.get('invocations', 0):.0f} "
                f"invocations over {counters.get('tenants', 0):.0f} tenants — "
                f"{counters.get('cold_starts', 0):.0f} cold / "
                f"{counters.get('warm_starts', 0):.0f} warm starts, "
                f"{counters.get('evictions', 0):.0f} evicted / "
                f"{counters.get('keepalive_expiries', 0):.0f} expired, "
                f"{counters.get('cold_resume_storms', 0):.0f} cold-resume "
                f"storm(s), peak {counters.get('peak_containers', 0):.0f} "
                f"containers"
            )
        derived = self.totals("derived_traces")
        if derived:
            lines.append(
                f"analytic: {derived} derived trace(s) — "
                f"{self.totals('events_extrapolated')} events accounted by sampled "
                f"extrapolation (REPRO_ANALYTIC=1), max split-half error "
                f"{self.totals('max_error_estimate'):.2%}"
            )
        skipped = self.totals("cache_store_skipped")
        if skipped:
            lines.append(
                f"WARNING: {skipped} cache write(s) skipped — {self.cache_dir or 'the cache'} "
                f"is not writable, so this run was effectively uncached"
            )
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.started_at))
        lines.append(f"started: {when}  code: {self.code_fingerprint or '?'}")
        for record in self.failures:
            # The last line of a captured traceback is the exception
            # itself — the one-line cause — so surface that, truncated.
            last_line = record.error.strip().splitlines()[-1] if record.error else "?"
            if len(last_line) > 160:
                last_line = last_line[:157] + "..."
            lines.append(f"FAILED {record.experiment_id}: {last_line}")
        return "\n".join(lines)

    def format_stages(self, top: int = 15) -> str:
        """Stage-graph telemetry (the ``summary --stages`` rendering).

        Shows the per-kind status counters and the ``top`` slowest
        executed stages — the floor the next perf pass should look at.
        """
        detail = self.stage_detail()
        if not detail:
            return (
                "== stages\n(no stage telemetry recorded — every experiment "
                "was a whole-result cache hit)"
            )
        by_kind: Dict[str, Dict[str, int]] = {}
        for row in detail:
            bucket = by_kind.setdefault(row["kind"], {})
            bucket[row["status"]] = bucket.get(row["status"], 0) + 1
        rows = [("kind", "exec", "hit", "dedup", "failed", "total")]
        for kind in sorted(by_kind):
            bucket = by_kind[kind]
            counts = [bucket.get(status, 0) for status in ("exec", "hit", "dedup", "failed")]
            rows.append((kind, *map(str, counts), str(sum(bucket.values()))))
        lines = _table("== stages", rows)
        counters = self.stage_counters()
        lines.append(
            f"totals: {counters.get('executed', 0)} executed / "
            f"{counters.get('hit', 0)} hit / {counters.get('dedup', 0)} dedup / "
            f"{counters.get('stored', 0)} stored / {counters.get('failed', 0)} failed"
        )
        executed = sorted(
            (row for row in detail if row["status"] == "exec"),
            key=lambda row: row.get("elapsed_s", 0.0),
            reverse=True,
        )[:top]
        if executed:
            lines.append(f"slowest executed stages (top {len(executed)}):")
            for row in executed:
                lines.append(
                    f"  {row.get('elapsed_s', 0.0):7.3f}s  "
                    f"{row['experiment_id']:<8}  {row['label']}"
                )
        return "\n".join(lines)

    def format_flows(self) -> str:
        """Per-regime flow table (the ``summary --flows`` rendering)."""
        flows = self.flows()
        if not flows:
            return "== flows\n(no flow telemetry recorded)"
        rows = [("regime", "flow", "events", "share", "cycles", "cyc/event")]
        for regime, block in flows.items():
            events = block["events"] or 1
            for flow in sorted(block["counts"]):
                n = block["counts"][flow]
                cycles = block["cycles"].get(flow, 0.0)
                per_event = f"{cycles / n:.2f}" if n else "-"
                rows.append(
                    (regime, flow, str(n), f"{n / events:.1%}", f"{cycles:.0f}", per_event)
                )
            rows.append(
                (
                    regime,
                    "total",
                    str(block["events"]),
                    "100.0%",
                    f"{block['check_cycles']:.0f}",
                    (
                        f"{block['check_cycles'] / block['events']:.2f}"
                        if block["events"]
                        else "-"
                    ),
                )
            )
        lines = _table("== flows (measured window, per regime)", rows)
        problems = self.audit_flow_conservation()
        if problems:
            lines.append("CONSERVATION DRIFT:")
            lines.extend(f"  {p}" for p in problems)
        else:
            lines.append("conservation: ok (counts == events; cycles sum to totals)")
        return "\n".join(lines)
