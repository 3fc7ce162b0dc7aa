"""Benchmark for the stage-graph orchestrator.

Measures end-to-end suite wall times, each in a fresh subprocess (cold
in-process memos; only the shared on-disk cache carries over):

* ``cold_suite`` — cold run of the full registry on the stage graph;
* ``warm_hit`` — the same run again: every experiment a whole-result hit;
* ``warm_refresh`` — ``--refresh`` on the warm cache: analysis stages
  recompute while trace/calibration/eval stages are served from the
  ``stages/`` tier;
* ``incremental`` — one experiment's ``events`` perturbed: its stage
  subgraph recomputes while every other experiment's intermediates hit.

and writes ``BENCH_stages.json``.  ``--check`` gates on the warm-hit
speedup over the cold suite (an absolute floor, :data:`WARM_HIT_FLOOR`)
and hard-fails if the incremental run re-executed any stage outside
the perturbed experiment's subgraph; ``--update`` refreshes the
baseline in place.

Usage::

    PYTHONPATH=src python benchmarks/bench_stages.py              # measure + write
    PYTHONPATH=src python benchmarks/bench_stages.py --check      # CI gate
    PYTHONPATH=src python benchmarks/bench_stages.py --update     # refresh baseline
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parents[1] / "BENCH_stages.json"

#: The experiment whose ``events`` the incremental phase perturbs, and
#: the experiments that must stay fully cached when it does.
PERTURBED = "fig12"
UNTOUCHED = ("fig13", "flowmix")

_CHILD = """
import json, sys, time
from repro.experiments import engine

config = json.loads(sys.argv[1])
started = time.perf_counter()
run = engine.run_suite(
    config.get("ids"),
    events=config.get("events"),
    jobs=config.get("jobs", 1),
    cache_mode=config["cache_mode"],
    run_overrides=config.get("run_overrides"),
)
wall = time.perf_counter() - started
counters = {}
for outcome in run.outcomes:
    stages = outcome.record.simulation.get("stages")
    if stages:
        counters[outcome.experiment_id] = stages["counters"]
print(json.dumps({
    "wall_s": round(wall, 3),
    "failures": [o.experiment_id for o in run.failures],
    "stage_counters": counters,
}))
"""


def _run_child(cache_dir: str, config: dict) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    env.setdefault("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(config)],
        env=env, capture_output=True, text=True, check=True,
    )
    payload = json.loads(out.stdout.strip().splitlines()[-1])
    if payload["failures"]:
        raise RuntimeError(f"suite failures: {payload['failures']}")
    return payload


def measure(args) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-stages-") as cache_dir:
        base = {"events": args.events, "jobs": args.jobs}
        cold = _run_child(cache_dir, dict(base, cache_mode="on"))
        warm = _run_child(cache_dir, dict(base, cache_mode="on"))
        refresh = _run_child(cache_dir, dict(base, cache_mode="refresh"))
        # Incremental: perturb one experiment's events under --refresh —
        # its subgraph recomputes, everything else's intermediates hit.
        perturbed_events = (args.events or 12_000) + 37
        incremental = _run_child(
            cache_dir,
            dict(
                base,
                cache_mode="refresh",
                run_overrides={PERTURBED: {"events": perturbed_events}},
            ),
        )
    executed = sum(
        c["executed"] for c in cold["stage_counters"].values()
    )
    deduped = sum(c["dedup"] for c in cold["stage_counters"].values())
    payload = {
        "events": args.events,
        "jobs": args.jobs,
        "cold_suite": {
            "wall_s": cold["wall_s"],
            "stages_executed": executed,
            "stages_deduped": deduped,
        },
        "warm_hit": {"wall_s": warm["wall_s"]},
        "warm_refresh": {
            "wall_s": refresh["wall_s"],
            "stage_counters": refresh["stage_counters"],
        },
        "incremental": {
            "wall_s": incremental["wall_s"],
            "perturbed": PERTURBED,
            "stage_counters": incremental["stage_counters"],
        },
        "speedup": {
            "warm_hit_vs_cold": round(cold["wall_s"] / warm["wall_s"], 2),
        },
    }
    return payload


def check_incremental(measured: dict) -> list:
    """The correctness half of the gate: the perturbed experiment must
    re-execute its whole subgraph; untouched ones must only re-run
    their (always-recomputed-under-refresh) analysis stage."""
    failures = []
    counters = measured["incremental"]["stage_counters"]
    perturbed = counters.get(PERTURBED)
    if perturbed is None:
        return [f"incremental: no stage counters for {PERTURBED}"]
    if perturbed["hit"] != 0 or perturbed["executed"] <= 1:
        failures.append(
            f"incremental: {PERTURBED} should recompute its whole subgraph, "
            f"got {perturbed}"
        )
    for eid in UNTOUCHED:
        c = counters.get(eid)
        if c is None:
            failures.append(f"incremental: no stage counters for {eid}")
        elif c["executed"] != 1 or c["hit"] == 0:
            failures.append(
                f"incremental: {eid} should serve intermediates from disk "
                f"and re-run only its analysis, got {c}"
            )
    return failures


#: Absolute floor for the warm-hit speedup.  The measured ratio is in
#: the hundreds but dominated by the ~10ms warm-run denominator, so a
#: baseline-relative tolerance would flake on scheduler noise; any
#: genuine regression (a warm run touching simulations) lands orders of
#: magnitude below this.
WARM_HIT_FLOOR = 50.0


def check_regression(measured: dict, baseline: dict) -> int:
    failures = check_incremental(measured)
    current = measured["speedup"]["warm_hit_vs_cold"]
    reference = baseline.get("speedup", {}).get("warm_hit_vs_cold")
    if reference is None:
        failures.append("speedup.warm_hit_vs_cold: missing from baseline")
    else:
        status = "ok" if current >= WARM_HIT_FLOOR else "REGRESSION"
        print(
            f"speedup.warm_hit_vs_cold {current:8.2f}x  (baseline {reference:.2f}x, "
            f"floor {WARM_HIT_FLOOR:.2f}x)  {status}"
        )
        if current < WARM_HIT_FLOOR:
            failures.append(
                f"speedup.warm_hit_vs_cold: {current:.2f}x < {WARM_HIT_FLOOR:.2f}x "
                f"(baseline {reference:.2f}x)"
            )
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("warm hit above its floor; incremental scoping exact")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events", type=int, default=None,
        help="trace length per workload (default: the registry default)",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the measurement to the baseline file",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    measured = measure(args)
    print(json.dumps(measured, indent=2))

    target = args.output or (args.baseline if args.update else None)
    if target is not None:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {target}")

    if args.check:
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, ValueError):
            print(f"no readable baseline at {args.baseline}; failing --check")
            return 1
        return check_regression(measured, baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
