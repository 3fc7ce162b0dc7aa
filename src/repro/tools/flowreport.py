"""Figure-13-style flow breakdown of a run report, as JSON.

Reads a ``repro.run-report/1`` document (written by the experiment
engine next to its result cache), aggregates the per-regime flow ledger
across every experiment, derives the paper's Figure 13 hit-rate
decomposition from the hardware flow counts, and emits a single
machine-readable JSON document — the bench gate parses it to assert
that cycle accounting conserves.

Usage::

    python -m repro.tools.flowreport                 # <cache>/runs/latest.json
    python -m repro.tools.flowreport --report r.json --check
    python -m repro.tools.flowreport --output flows.json

Hit rates are exact functions of the Table I flow counts:

* ``stb_hit_rate``          = (f1+f2+f3+f4) / (f1+..+f6)
* ``slb_preload_hit_rate``  = (f1+f2) / (f1+f2+f3+f4)
* ``slb_access_hit_rate``   = (f1+f3+f5) / (f1+..+f6)

and the VAT/SPT/seccomp rates come from the aggregated structure
counters the simulator records alongside the flows.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.common import ledger
from repro.common.telemetry import RunReport
from repro.experiments import cache as result_cache

SCHEMA = "repro.flow-report/1"


def _rate(hits: float, total: float) -> Optional[float]:
    return round(hits / total, 6) if total else None


def hw_hit_rates(counts: Mapping[str, int]) -> Dict[str, Any]:
    """Figure 13 decomposition from the six Table I flow counts."""
    f = {key: counts.get(key, 0) for key in ledger.FLOW_KEYS}
    flows16 = sum(
        f[key]
        for key in (
            ledger.FLOW_HW_1,
            ledger.FLOW_HW_2,
            ledger.FLOW_HW_3,
            ledger.FLOW_HW_4,
            ledger.FLOW_HW_5,
            ledger.FLOW_HW_6,
        )
    )
    stb_hits = (
        f[ledger.FLOW_HW_1]
        + f[ledger.FLOW_HW_2]
        + f[ledger.FLOW_HW_3]
        + f[ledger.FLOW_HW_4]
    )
    preload_hits = f[ledger.FLOW_HW_1] + f[ledger.FLOW_HW_2]
    access_hits = f[ledger.FLOW_HW_1] + f[ledger.FLOW_HW_3] + f[ledger.FLOW_HW_5]
    return {
        "argument_flows": flows16,
        "stb_hit_rate": _rate(stb_hits, flows16),
        "slb_preload_hit_rate": _rate(preload_hits, stb_hits),
        "slb_access_hit_rate": _rate(access_hits, flows16),
    }


def structure_hit_rates(per_structure: Mapping[str, Mapping[str, float]]) -> Dict[str, Any]:
    """Hit rates recomputed from the aggregated raw counters."""
    rates: Dict[str, Any] = {}
    for name in ("vat", "stb", "spt"):
        counters = per_structure.get(name)
        if counters:
            rates[f"{name}_hit_rate"] = _rate(
                counters.get("hits", 0),
                counters.get("hits", 0) + counters.get("misses", 0),
            )
    slb = per_structure.get("slb")
    if slb:
        rates["slb_access_hit_rate"] = _rate(
            slb.get("access_hits", 0),
            slb.get("access_hits", 0) + slb.get("access_misses", 0),
        )
        rates["slb_preload_hit_rate"] = _rate(
            slb.get("preload_hits", 0),
            slb.get("preload_hits", 0) + slb.get("preload_misses", 0),
        )
    seccomp = per_structure.get("seccomp")
    if seccomp:
        rates["seccomp_memo_hit_rate"] = _rate(
            seccomp.get("memo_hits", 0), seccomp.get("checks", 0)
        )
    return rates


def build_report(report: RunReport) -> Dict[str, Any]:
    """The flow-report JSON document for *report*."""
    flows = report.flows()
    structures = report.totals("structures")
    regimes: Dict[str, Any] = {}
    for regime, block in flows.items():
        entry: Dict[str, Any] = {
            "events": block["events"],
            "check_cycles": round(block["check_cycles"], 3),
            "counts": dict(sorted(block["counts"].items())),
            "cycles": {k: round(v, 3) for k, v in sorted(block["cycles"].items())},
        }
        hw = hw_hit_rates(block["counts"])
        if hw["argument_flows"]:
            # Derived from measured-window flow counts (Figure 13).
            entry["hit_rates"] = hw
        per_structure = structures.get(regime)
        if per_structure:
            entry["structures"] = {
                name: dict(sorted(counters.items()))
                for name, counters in sorted(per_structure.items())
            }
            rates = structure_hit_rates(per_structure)
            if rates:
                # Raw-counter rates cover the whole run, warm-up
                # included, so they are kept apart from the
                # measured-window flow-derived rates above.
                entry["structure_hit_rates"] = rates
        regimes[regime] = entry
    problems = report.audit_flow_conservation()
    events = report.totals("events_simulated") or 0
    runs = report.totals("runs_coalesced") or 0
    return {
        "schema": SCHEMA,
        "code_fingerprint": report.code_fingerprint,
        "experiments": len(report.records),
        "simulation": {
            # Batched-kernel telemetry: how much consecutive-identical
            # locality the RLE fast path had to work with.
            "events_simulated": events,
            "runs_coalesced": runs,
            "mean_run_length": events / runs if runs else 0.0,
        },
        "regimes": regimes,
        "conservation": {"ok": not problems, "problems": problems},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.flowreport",
        description="Emit a Figure-13-style per-regime flow breakdown as JSON.",
    )
    parser.add_argument(
        "--report", type=str, default=None,
        help="run report to read (default: <cache>/runs/latest.json)",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="cache directory to look for runs/latest.json in",
    )
    parser.add_argument(
        "--output", type=str, default=None,
        help="write the JSON here instead of stdout",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when the conservation audit finds drift "
        "or the report carries no flow telemetry",
    )
    args = parser.parse_args(argv)
    if args.cache_dir:
        import os

        os.environ[result_cache.CACHE_DIR_ENV] = args.cache_dir
    path = (
        Path(args.report)
        if args.report
        else result_cache.cache_root() / "runs" / "latest.json"
    )
    if not path.exists():
        print(f"no run report at {path} — run some experiments first", file=sys.stderr)
        return 1
    document = build_report(RunReport.read(path))
    rendered = json.dumps(document, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
    else:
        print(rendered)
    if args.check:
        if not document["regimes"]:
            print(
                "no flow telemetry in the report — cache hits replay results, "
                "not simulations; point --report at a cold or --refresh run",
                file=sys.stderr,
            )
            return 1
        if not document["conservation"]["ok"]:
            for problem in document["conservation"]["problems"]:
                print(f"conservation drift: {problem}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
