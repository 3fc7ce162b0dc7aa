"""Run telemetry: per-experiment timing, cache status, simulation totals.

The experiment engine wraps every registry entry in an
:class:`ExperimentRecord` (wall time, cache hit/miss, failure capture)
and aggregates them into a :class:`RunReport` — a structured JSON
document written next to the result cache and rendered by
``python -m repro.experiments summary``.

Simulation counters are collected process-locally: the syscall-level
simulator calls :func:`record_simulation` on every trace it drives, and
the engine snapshots/resets the counters around each experiment.  Each
engine worker is a separate process, so counters never race and are
attributed to exactly one experiment even when workers are reused.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

#: Cache-status values an ExperimentRecord may carry.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_REFRESH = "refresh"
CACHE_OFF = "off"


@dataclass
class SimulationCounters:
    """Process-local totals across every simulated trace."""

    traces_run: int = 0
    #: Events in the measured (post-warm-up) window, matching the
    #: cycle totals below; warm-up events are counted separately.
    events_simulated: int = 0
    warmup_events: int = 0
    #: Run-length-encoded (event, count) pairs consumed over the
    #: measured windows; ``events_simulated / runs_coalesced`` is the
    #: mean consecutive-identical run length the bulk kernel exploited.
    runs_coalesced: int = 0
    check_cycles: float = 0.0
    total_cycles: float = 0.0
    #: Per-regime totals over the measured (post-warm-up) window.
    regime_cycles: Dict[str, float] = field(default_factory=dict)
    regime_events: Dict[str, int] = field(default_factory=dict)
    #: Per-regime checking cycles (the per-flow ledger's conservation
    #: reference) and per-(regime, flow) event/cycle buckets.
    regime_check_cycles: Dict[str, float] = field(default_factory=dict)
    regime_flow_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    regime_flow_cycles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-regime structure counters (SLB/STB/VAT/SPT hit/miss/evict,
    #: seccomp execution totals), numeric scalars only.
    regime_structures: Dict[str, Dict[str, Dict[str, float]]] = field(
        default_factory=dict
    )
    #: Analytic-backend provenance: traces whose results were
    #: *extrapolated* from a sample rather than simulated exactly, the
    #: events those results account for beyond what was simulated, and
    #: the worst split-half error estimate among them.
    derived_traces: int = 0
    events_extrapolated: int = 0
    max_error_estimate: float = 0.0
    #: Persistent context-cache activity, per artifact kind ("trace",
    #: "bundle", "sweep", "calibration"): how many disk probes hit,
    #: missed, and how many rebuilt artifacts were stored back.
    context_cache: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Fleet-serving counters, per dispatch policy: cold/warm starts,
    #: evictions, keep-alive expiries, cold-resume storms, pool peaks.
    fleet: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Cache writes skipped because the cache directory refused them
    #: (read-only, full, or not a directory).
    cache_store_skipped: int = 0

    def as_dict(self) -> Dict[str, Any]:
        flows: Dict[str, Any] = {}
        for regime in sorted(self.regime_flow_counts):
            counts = self.regime_flow_counts[regime]
            cycles = self.regime_flow_cycles.get(regime, {})
            flows[regime] = {
                "events": sum(counts.values()),
                "check_cycles": round(self.regime_check_cycles.get(regime, 0.0), 3),
                "counts": dict(sorted(counts.items())),
                "cycles": {k: round(v, 3) for k, v in sorted(cycles.items())},
            }
        structures = {
            regime: {
                name: {k: round(v, 3) for k, v in sorted(counters.items())}
                for name, counters in sorted(per_structure.items())
            }
            for regime, per_structure in sorted(self.regime_structures.items())
        }
        payload = {
            "traces_run": self.traces_run,
            "events_simulated": self.events_simulated,
            "warmup_events": self.warmup_events,
            "runs_coalesced": self.runs_coalesced,
            "mean_run_length": (
                round(self.events_simulated / self.runs_coalesced, 3)
                if self.runs_coalesced
                else 0.0
            ),
            "check_cycles": round(self.check_cycles, 3),
            "total_cycles": round(self.total_cycles, 3),
            "regime_cycles": {k: round(v, 3) for k, v in sorted(self.regime_cycles.items())},
            "regime_events": dict(sorted(self.regime_events.items())),
        }
        if flows:
            payload["flows"] = flows
        if structures:
            payload["structures"] = structures
        if self.derived_traces:
            payload["derived_traces"] = self.derived_traces
            payload["events_extrapolated"] = self.events_extrapolated
            payload["max_error_estimate"] = round(self.max_error_estimate, 6)
        if self.context_cache:
            payload["context_cache"] = {
                kind: dict(sorted(counters.items()))
                for kind, counters in sorted(self.context_cache.items())
            }
        if self.fleet:
            payload["fleet"] = {
                policy: {k: counters[k] for k in sorted(counters)}
                for policy, counters in sorted(self.fleet.items())
            }
        if self.cache_store_skipped:
            payload["cache_store_skipped"] = self.cache_store_skipped
        return payload


_COUNTERS = SimulationCounters()


def _merge_structures(
    target: Dict[str, Dict[str, float]], source: Mapping[str, Any]
) -> None:
    """Accumulate numeric structure counters; rates are derived
    quantities and are dropped (recompute them from the sums)."""
    for name, counters in source.items():
        if not isinstance(counters, Mapping):
            continue
        bucket = target.setdefault(name, {})
        for key, value in counters.items():
            if key.endswith("_rate") or key == "hit_rate":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            bucket[key] = bucket.get(key, 0) + value


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
    ``derived`` marks an analytic sampled run: ``events_extrapolated``
    of its events were accounted without being simulated, with
    ``error_estimate`` as its split-half error bound.
    """
    _COUNTERS.traces_run += 1
    if derived:
        _COUNTERS.derived_traces += 1
        _COUNTERS.events_extrapolated += events_extrapolated
        if error_estimate > _COUNTERS.max_error_estimate:
            _COUNTERS.max_error_estimate = error_estimate
    _COUNTERS.events_simulated += events
    _COUNTERS.warmup_events += warmup_events
    _COUNTERS.runs_coalesced += runs_coalesced
    _COUNTERS.check_cycles += check_cycles
    _COUNTERS.total_cycles += total_cycles
    _COUNTERS.regime_cycles[regime] = _COUNTERS.regime_cycles.get(regime, 0.0) + total_cycles
    _COUNTERS.regime_events[regime] = _COUNTERS.regime_events.get(regime, 0) + events
    _COUNTERS.regime_check_cycles[regime] = (
        _COUNTERS.regime_check_cycles.get(regime, 0.0) + check_cycles
    )
    if flow_counts:
        bucket = _COUNTERS.regime_flow_counts.setdefault(regime, {})
        for flow, count in flow_counts.items():
            bucket[flow] = bucket.get(flow, 0) + count
    if flow_cycles:
        bucket_cycles = _COUNTERS.regime_flow_cycles.setdefault(regime, {})
        for flow, cycles in flow_cycles.items():
            bucket_cycles[flow] = bucket_cycles.get(flow, 0.0) + cycles
    if structures:
        _merge_structures(
            _COUNTERS.regime_structures.setdefault(regime, {}), structures
        )


def record_context_cache(kind: str, outcome: str) -> None:
    """Account one persistent-context-cache event.

    ``kind`` names the artifact family (``trace`` / ``bundle`` /
    ``sweep`` / ``calibration``); ``outcome`` is ``hit`` (served from
    disk), ``miss`` (probed, absent or invalid), or ``store`` (rebuilt
    artifact written back).  Only *disk* activity is recorded —
    in-process memo hits never reach this function.
    """
    bucket = _COUNTERS.context_cache.setdefault(kind, {})
    bucket[outcome] = bucket.get(outcome, 0) + 1


def record_cache_store_skipped() -> None:
    """Account one cache write the cache directory refused."""
    _COUNTERS.cache_store_skipped += 1


def record_fleet(policy: str, counters: Mapping[str, float]) -> None:
    """Account one fleet serving run under *policy*.

    ``counters`` are the numeric pool/churn totals of
    :func:`repro.kernel.fleet.simulate_fleet` (cold/warm starts,
    evictions, keep-alive expiries, cold-resume storms, peaks); they
    accumulate per policy so repeated runs in one process sum, matching
    :func:`merge_simulations` across processes."""
    bucket = _COUNTERS.fleet.setdefault(policy, {})
    for key, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        bucket[key] = bucket.get(key, 0) + value


def merge_simulations(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-stage simulation snapshots into one experiment-level
    snapshot: numeric leaves are summed recursively (matching how the
    counters would have accumulated in a single process) and the
    derived ``mean_run_length`` is recomputed from the merged totals."""

    def _merge_into(target: Dict[str, Any], source: Mapping[str, Any]) -> None:
        for key, value in source.items():
            if isinstance(value, Mapping):
                _merge_into(target.setdefault(key, {}), value)
            elif isinstance(value, bool):
                target.setdefault(key, value)
            elif isinstance(value, (int, float)):
                target[key] = target.get(key, 0) + value
            else:
                target.setdefault(key, value)

    merged: Dict[str, Any] = {}
    for part in parts:
        _merge_into(merged, part)
    runs = merged.get("runs_coalesced", 0)
    if "mean_run_length" in merged:
        merged["mean_run_length"] = (
            round(merged.get("events_simulated", 0) / runs, 3) if runs else 0.0
        )
    # A worst-case bound merges by max, not by sum.
    if "max_error_estimate" in merged:
        merged["max_error_estimate"] = max(
            (part.get("max_error_estimate", 0.0) for part in parts), default=0.0
        )
    return merged


def reset_counters() -> None:
    """Zero the process-local simulation counters."""
    global _COUNTERS
    _COUNTERS = SimulationCounters()


def counters_snapshot() -> Dict[str, Any]:
    """JSON-ready snapshot of the current counters."""
    return _COUNTERS.as_dict()


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

    def events_simulated(self) -> int:
        return sum(r.simulation.get("events_simulated", 0) for r in self.records)

    def derived_traces(self) -> int:
        return sum(r.simulation.get("derived_traces", 0) for r in self.records)

    def events_extrapolated(self) -> int:
        return sum(r.simulation.get("events_extrapolated", 0) for r in self.records)

    def max_error_estimate(self) -> float:
        return max(
            (r.simulation.get("max_error_estimate", 0.0) for r in self.records),
            default=0.0,
        )

    def runs_coalesced(self) -> int:
        return sum(r.simulation.get("runs_coalesced", 0) for r in self.records)

    def cache_store_skipped(self) -> int:
        return sum(r.simulation.get("cache_store_skipped", 0) for r in self.records)

    def context_cache(self) -> Dict[str, Dict[str, int]]:
        """Per-kind context-cache counters summed across every record."""
        merged: Dict[str, Dict[str, int]] = {}
        for record in self.records:
            for kind, counters in record.simulation.get("context_cache", {}).items():
                bucket = merged.setdefault(kind, {})
                for outcome, count in counters.items():
                    bucket[outcome] = bucket.get(outcome, 0) + count
        return {kind: merged[kind] for kind in sorted(merged)}

    def mean_run_length(self) -> float:
        runs = self.runs_coalesced()
        return self.events_simulated() / runs if runs else 0.0

    def stage_counters(self) -> Dict[str, int]:
        """Stage-graph hit/exec/dedup/store totals summed across records
        (empty when every experiment was a whole-result cache hit)."""
        merged: Dict[str, int] = {}
        for record in self.records:
            block = record.simulation.get("stages", {})
            for outcome, count in block.get("counters", {}).items():
                merged[outcome] = merged.get(outcome, 0) + count
        return merged

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

    def regime_cycles(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for record in self.records:
            for regime, cycles in record.simulation.get("regime_cycles", {}).items():
                totals[regime] = totals.get(regime, 0.0) + cycles
        return totals

    def flows(self) -> Dict[str, Dict[str, Any]]:
        """Per-regime flow ledger aggregated across every record.

        Returns ``{regime: {"events", "check_cycles", "counts", "cycles"}}``
        with counts summed exactly and cycles summed from the per-record
        JSON (which rounds to 3 decimals — see
        :meth:`audit_flow_conservation` for the matching tolerance).
        """
        merged: Dict[str, Dict[str, Any]] = {}
        for record in self.records:
            for regime, block in record.simulation.get("flows", {}).items():
                into = merged.setdefault(
                    regime,
                    {"events": 0, "check_cycles": 0.0, "counts": {}, "cycles": {}},
                )
                into["events"] += block.get("events", 0)
                into["check_cycles"] += block.get("check_cycles", 0.0)
                for flow, count in block.get("counts", {}).items():
                    into["counts"][flow] = into["counts"].get(flow, 0) + count
                for flow, cycles in block.get("cycles", {}).items():
                    into["cycles"][flow] = into["cycles"].get(flow, 0.0) + cycles
        return {regime: merged[regime] for regime in sorted(merged)}

    def structures(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-regime structure counters aggregated across every record."""
        merged: Dict[str, Dict[str, Dict[str, float]]] = {}
        for record in self.records:
            for regime, per_structure in record.simulation.get("structures", {}).items():
                _merge_structures(merged.setdefault(regime, {}), per_structure)
        return {regime: merged[regime] for regime in sorted(merged)}

    def fleet(self) -> Dict[str, Dict[str, float]]:
        """Per-policy fleet serving counters aggregated across records."""
        merged: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            for policy, counters in record.simulation.get("fleet", {}).items():
                bucket = merged.setdefault(policy, {})
                for key, value in counters.items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        bucket[key] = bucket.get(key, 0) + value
        return {policy: merged[policy] for policy in sorted(merged)}

    def audit_flow_conservation(self) -> List[str]:
        """Cross-check every regime's aggregated flow ledger.

        Flow counts must sum exactly to the regime's event total; flow
        cycles must sum to its checking-cycle total within the rounding
        noise the JSON encoding introduces (3 decimals per bucket per
        record).  Returns a list of human-readable drift descriptions —
        empty means the ledger conserves.
        """
        problems: List[str] = []
        traces = max(sum(r.simulation.get("traces_run", 0) for r in self.records), 1)
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
                "events_simulated": self.events_simulated(),
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
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = ["== run summary"]
        for index, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
            if index == 0:
                lines.append("-" * len(lines[-1]))
        lines.append(
            f"total: {len(self.records)} experiments in {self.wall_time_s:.2f}s "
            f"(jobs={self.jobs}, cache: {self.cache_hits} hit / "
            f"{self.cache_misses} miss, {len(self.failures)} failed)"
        )
        context = self.context_cache()
        if context:
            hits = sum(c.get("hit", 0) for c in context.values())
            misses = sum(c.get("miss", 0) for c in context.values())
            stores = sum(c.get("store", 0) for c in context.values())
            detail = ", ".join(
                f"{kind} {c.get('hit', 0)}/{c.get('hit', 0) + c.get('miss', 0)}"
                for kind, c in context.items()
            )
            lines.append(
                f"context cache: {hits} hit / {misses} miss / {stores} "
                f"store ({detail}) — REPRO_CONTEXT_CACHE"
            )
        for policy, counters in self.fleet().items():
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
        derived = self.derived_traces()
        if derived:
            lines.append(
                f"analytic: {derived} derived trace(s) — "
                f"{self.events_extrapolated()} events accounted by sampled "
                f"extrapolation (REPRO_ANALYTIC=1), max split-half error "
                f"{self.max_error_estimate():.2%}"
            )
        skipped = self.cache_store_skipped()
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
        header = ("kind", "exec", "hit", "dedup", "failed", "total")
        rows = [header]
        for kind in sorted(by_kind):
            bucket = by_kind[kind]
            rows.append(
                (
                    kind,
                    str(bucket.get("exec", 0)),
                    str(bucket.get("hit", 0)),
                    str(bucket.get("dedup", 0)),
                    str(bucket.get("failed", 0)),
                    str(sum(bucket.values())),
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = ["== stages"]
        for index, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
            if index == 0:
                lines.append("-" * len(lines[-1]))
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
        header = ("regime", "flow", "events", "share", "cycles", "cyc/event")
        rows = [header]
        for regime, block in flows.items():
            events = block["events"] or 1
            for flow in sorted(block["counts"]):
                count = block["counts"][flow]
                cycles = block["cycles"].get(flow, 0.0)
                rows.append(
                    (
                        regime,
                        flow,
                        str(count),
                        f"{count / events:.1%}",
                        f"{cycles:.0f}",
                        f"{cycles / count:.2f}" if count else "-",
                    )
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
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = ["== flows (measured window, per regime)"]
        for index, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
            if index == 0:
                lines.append("-" * len(lines[-1]))
        problems = self.audit_flow_conservation()
        if problems:
            lines.append("CONSERVATION DRIFT:")
            lines.extend(f"  {p}" for p in problems)
        else:
            lines.append("conservation: ok (counts == events; cycles sum to totals)")
        return "\n".join(lines)
