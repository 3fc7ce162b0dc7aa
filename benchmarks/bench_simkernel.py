"""Benchmark for the batched (run-length-encoded) simulation kernel.

Measures ``run_trace`` throughput per regime in two kernel modes over
the same trace —

* ``per_event`` — ``REPRO_BULK=0``: the literal ``[check; advance]``
  loop for every event;
* ``bulk``      — ``REPRO_BULK=1``: runs of identical events charged
  arithmetically through each regime's steady-state ``check_run``;

asserting byte-identical :class:`RunResult`\\ s between the two (the
differential gate), plus the cold end-to-end wall time of the
experiment suite and the serial-vs-parallel wall of ``fig12``, and
writes ``BENCH_simkernel.json``.  The kernel loop runs on a
run-length-amplified trace (each event repeated ``--run-length``
times), which is the locality regime the fast path exploits — Figure 3
of the paper is the argument that real syscall streams look like this.

``--check`` compares the measured bulk events/sec against a committed
baseline and fails on a >30% regression or on any differential
mismatch (the CI gate); ``--update`` refreshes the baseline in place.

Usage::

    PYTHONPATH=src python benchmarks/bench_simkernel.py              # measure + write
    PYTHONPATH=src python benchmarks/bench_simkernel.py --check      # CI gate
    PYTHONPATH=src python benchmarks/bench_simkernel.py --update     # refresh baseline
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parents[1] / "BENCH_simkernel.json"

#: Allowed fractional events/sec regression before --check fails.
DEFAULT_TOLERANCE = 0.30

#: Regimes the kernel loop measures (one per checking family).
REGIMES = (
    "insecure",
    "syscall-complete",
    "draco-sw-complete",
    "draco-hw-complete",
)

#: Cold wall time of the full registry at ``--suite-events 3000`` on the
#: tree immediately before the batched kernel landed, re-measured on the
#: machine that produced the committed baseline.
PRE_BULK_SUITE_WALL_S = 10.98

#: Same measurement at the registry's default trace length (12 000
#: events), where simulation rather than setup dominates.
PRE_BULK_SUITE_DEFAULT_EVENTS_WALL_S = 30.84

#: The suite wall recorded in ``BENCH_fastpath.json`` when the PR-2
#: compile-once fast path landed (a different, faster machine; kept for
#: cross-reference, not as this baseline's denominator).
PR2_RECORDED_SUITE_WALL_S = 9.24


def _amplified_trace(ctx, events: int, run_length: int):
    """The context trace's distinct prefix, each event repeated
    *run_length* consecutive times (a locality-heavy but fully valid
    syscall stream — profile coverage is unchanged)."""
    from repro.syscalls.events import SyscallTrace

    base = list(ctx.trace)[: max(1, events // run_length)]
    return SyscallTrace([event for event in base for _ in range(run_length)])


def _result_fingerprint(result) -> str:
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def bench_kernel(
    workload: str, events: int, seed: int, run_length: int, repeats: int
) -> dict:
    """Events/sec of ``run_trace`` per regime, per kernel mode, with a
    built-in differential check between the two modes."""
    from repro.experiments.runner import get_context
    from repro.kernel.simulator import run_trace

    ctx = get_context(workload, events=2_000, seed=seed)
    trace = _amplified_trace(ctx, events, run_length)
    n = len(trace)

    rates: dict = {}
    differential_ok = True
    saved = os.environ.get("REPRO_BULK")
    try:
        for regime_name in REGIMES:
            entry = {}
            fingerprints = {}
            for mode, env in (("per_event", "0"), ("bulk", "1")):
                os.environ["REPRO_BULK"] = env
                best = 0.0
                fingerprint = None
                for _ in range(repeats):
                    # Regimes latch REPRO_BULK at construction; a fresh
                    # instance per repeat also makes every measured run
                    # cold-start identical.
                    regime = ctx.make_regime(regime_name)
                    start = time.perf_counter()
                    result = run_trace(
                        trace,
                        regime,
                        work_cycles_per_syscall=ctx.work_cycles,
                        syscall_base_cycles=ctx.syscall_base_cycles,
                        workload_name="bench",
                    )
                    elapsed = time.perf_counter() - start
                    best = max(best, n / elapsed)
                    fingerprint = _result_fingerprint(result)
                entry[mode] = round(best, 1)
                fingerprints[mode] = fingerprint
            identical = fingerprints["per_event"] == fingerprints["bulk"]
            differential_ok = differential_ok and identical
            entry["speedup"] = round(entry["bulk"] / entry["per_event"], 2)
            entry["identical"] = identical
            rates[regime_name] = entry
    finally:
        if saved is None:
            os.environ.pop("REPRO_BULK", None)
        else:
            os.environ["REPRO_BULK"] = saved
    return {"events": n, "run_length": run_length, "regimes": rates,
            "differential_ok": differential_ok}


def bench_cold_suite(events: int) -> dict:
    """Cold wall time of every registry experiment (result cache off)."""
    os.environ["REPRO_CACHE_DISABLE"] = "1"
    from repro.experiments.registry import REGISTRY

    start = time.perf_counter()
    for entry in REGISTRY:
        try:
            entry.run(events=events)
        except TypeError:
            entry.run()
    wall = time.perf_counter() - start
    suite = {
        "experiments": len(REGISTRY),
        "events": events,
        "wall_s": round(wall, 2),
    }
    if events == 3000:
        suite["pre_bulk_wall_s"] = PRE_BULK_SUITE_WALL_S
        suite["speedup"] = round(PRE_BULK_SUITE_WALL_S / wall, 2)
        suite["pr2_recorded_wall_s"] = PR2_RECORDED_SUITE_WALL_S
        suite["speedup_vs_pr2_recorded"] = round(PR2_RECORDED_SUITE_WALL_S / wall, 2)
    return suite


def bench_fig12_sharding(jobs: int) -> dict:
    """fig12 wall time serial vs ``--jobs``, each in a fresh interpreter
    (cold cache and cold in-process memos both times).

    On a single-core host the parallel run pays process spawn for no
    parallel win — the recorded numbers say so honestly; on multi-core
    CI runners the stage graph's per-(workload, regime) eval stages are
    where the ``--jobs`` speedup comes from.
    """
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    walls = {}
    for label, extra in (
        ("serial", ["--serial"]),
        (f"jobs{jobs}", ["--jobs", str(jobs)]),
    ):
        cmd = [
            sys.executable, "-m", "repro.experiments", "fig12",
            "--quiet", "--no-cache", *extra,
        ]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
        walls[label] = round(time.perf_counter() - start, 2)
    walls["sharding_speedup"] = round(walls["serial"] / walls[f"jobs{jobs}"], 2)
    walls["cpu_count"] = os.cpu_count()
    return walls


def measure(args) -> dict:
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "kernel": bench_kernel(
            args.workload, args.events, args.seed, args.run_length, args.repeats
        ),
    }
    if not args.skip_suite:
        payload["cold_suite"] = bench_cold_suite(args.suite_events)
        payload["cold_suite_default_events"] = {
            "pre_bulk_wall_s": PRE_BULK_SUITE_DEFAULT_EVENTS_WALL_S,
        }
        payload["fig12"] = bench_fig12_sharding(args.jobs)
    return payload


def check_regression(measured: dict, baseline: dict, tolerance: float) -> int:
    failures = []
    if not measured["kernel"]["differential_ok"]:
        failures.append("bulk/per-event RunResults differ (differential gate)")
    for regime, reference in baseline.get("kernel", {}).get("regimes", {}).items():
        current = measured["kernel"]["regimes"].get(regime)
        if current is None:
            failures.append(f"{regime}: missing from measurement")
            continue
        floor = reference["bulk"] * (1.0 - tolerance)
        status = "ok" if current["bulk"] >= floor else "REGRESSION"
        print(
            f"{regime:22s} bulk {current['bulk']:12.1f} ev/s  "
            f"(baseline {reference['bulk']:.1f}, floor {floor:.1f})  {status}"
        )
        if current["bulk"] < floor:
            failures.append(
                f"{regime}: {current['bulk']:.1f} ev/s < {floor:.1f} "
                f"(baseline {reference['bulk']:.1f}, tolerance {tolerance:.0%})"
            )
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("bulk kernel within tolerance of the committed baseline; "
          "differential gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="pipe-ipc")
    parser.add_argument("--events", type=int, default=16_000)
    parser.add_argument("--run-length", type=int, default=32)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--suite-events", type=int, default=3000)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--skip-suite", action="store_true",
        help="skip the cold-suite and fig12 timings (CI uses the kernel loop only)",
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on regression "
             "or differential mismatch",
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
        return check_regression(measured, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
