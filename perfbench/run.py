"""Benchmark of the Draco reproduction: one workload and one seed per run.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``suite-cold`` -- the 16-artifact suite, serial, from an empty cache;
* ``suite-cold-j2`` -- the same suite with two pool workers;
* ``suite-warm`` -- stage-scoped ``--refresh`` suites on a primed cache;
* ``sim-exact`` -- the exact kernels over every catalog trace, then a
  two-core multicore system.

Each suite runs in a fresh interpreter (``child.py``) against a private
cache directory under ``.perfbench/`` in the checkout, never
``~/.cache/repro-draco``.  A run makes a fixed number of passes of its
timed phase, scaled by ``--seconds``, so equal ``--seconds`` means equal
work on every commit, and reports the fastest: the fastest pass of a
cold suite, the fastest warm refresh, and on sim-exact the sum over
its operations of each one's fastest time.

``--seed 0`` selects the repository's default seeds and checks every
output against ``golden.json``; any other seed selects one of
:data:`INPUT_SEEDS`, given to every experiment (and to every sim-exact
context), and is checked by invariants.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced repetition
with ``--trace 1``.  The exit status is 1 when an output check failed
and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set

import golden
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "repro" / "__init__.py"
WORK_ROOT = ROOT / ".perfbench"

#: Passes of the timed phase at ``--seconds 10``; other values scale the
#: count, never below one.  A suite-warm pass is one refresh.  Taking
#: the fastest filters host slowdowns shorter than a pass; on sim-exact
#: the minimum is taken per operation, so a slowdown costs only the
#: operations it overlapped, and only in one pass.
PASSES_PER_10S = {"suite-cold": 2, "suite-cold-j2": 2, "suite-warm": 6, "sim-exact": 2}

#: Set-up samples per run; ``setup_s`` is their median.  suite-cold and
#: suite-cold-j2 time this many import-only interpreters besides the
#: suite interpreters' own start-ups; suite-warm primes this many
#: private caches; sim-exact builds its contexts this many times.
STARTUP_SAMPLES = 4
PRIMES = 2
SIM_SETUP_SAMPLES = 2
#: Input seeds among 1-24 on which every operation of every workload
#: succeeds; ``--seed n`` (n > 0) selects entry ``(n - 1) % len``.  On
#: the other nine, software Draco's analytic exact replay sees a VAT
#: eviction (elasticsearch at seed 11, for one) and raises instead of
#: falling back to the exact kernels, so fig11 and fig17 fail.
INPUT_SEEDS = (1, 2, 3, 6, 8, 12, 13, 14, 17, 18, 19, 20, 21, 23, 24)

#: A child still running after this is killed and the run fails.
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def input_seed(seed: int) -> Optional[int]:
    """The program's input seed for ``--seed``: ``None`` (the repository
    defaults) for 0, else an entry of :data:`INPUT_SEEDS`."""
    if seed == 0:
        return None
    return INPUT_SEEDS[(seed - 1) % len(INPUT_SEEDS)]


class Tally:
    """Operations attempted and the ones that failed, with why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: Set[str] = set()
        self.reasons: List[str] = []

    def fail(self, op: str, reason: str) -> None:
        self.failed_ops.add(op)
        self.reasons.append(f"{op}: {reason}")

    def check_digests(
        self, label: str, outputs: Dict[str, str], expected: Dict[str, str], against: str
    ) -> None:
        """Fail every operation whose output digest differs from ``expected``."""
        for key in sorted(set(outputs) | set(expected)):
            if outputs.get(key) != expected.get(key):
                self.fail(f"{label}:{key}", f"output differs from {against}")

    def check_suite(
        self, label: str, result: Dict[str, Any], expected: Optional[Dict[str, str]], against: str
    ) -> None:
        """Tally one suite's experiments: each fails if it raised, if the
        suite's flow ledger drifted, or if its markdown differs."""
        ops = result["operations"]
        self.attempted += len(ops)
        for eid in result["failed"]:
            self.fail(f"{label}:{eid}", "experiment raised")
        for problem in result["audit"]:
            for eid in ops:
                self.fail(f"{label}:{eid}", f"flow ledger drift ({problem})")
        if expected is not None:
            self.check_digests(label, result["outputs"], expected, against)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Bench:
    """One benchmark run: its private work directory, children and samples."""

    def __init__(
        self, workload: str, seed: Optional[int], seconds: float, trace: bool
    ) -> None:
        self.workload = workload
        #: The program's input seed; ``None`` for the repository defaults.
        self.seed = seed
        self.trace = trace
        self.passes = max(1, round(PASSES_PER_10S[workload] * seconds / 10))
        self.tally = Tally()
        self.setup_samples: List[float] = []
        #: Wall seconds of each pass of the timed phase, for the report.
        self.walls: List[float] = []
        #: The wall and CPU seconds the workload derived from its passes.
        self.wall_s = self.cpu_s = 0.0
        #: Peak resident set of each process of the timed phase, in KiB.
        self.rss_kb: List[int] = []
        self.notes: List[str] = []
        self.layers: Optional[Dict[str, float]] = None
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
        self._children = 0

    def expected(self, kind: str) -> Optional[Dict[str, str]]:
        """Golden digests of ``kind``; only the default seeds have them."""
        return golden.load()[kind] if self.seed is None else None

    def fresh_cache(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.work)

    def child(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run ``child.py`` on ``request``; its result plus ``startup_s``
        (spawn to end of imports) and ``lifetime_s`` (spawn to exit)."""
        self._children += 1
        tag = f"child-{self._children}"
        request = dict(
            request,
            workload=self.workload,
            run_id=f"{self.workload}-{self.seed}-{tag}",
            spill_dir=str(self.work / f"{tag}-spans"),
            trace_out=str(WORK_ROOT / "traces" / f"{self.workload}-seed{self.seed}.jsonl"),
        )
        request_path = self.work / f"{tag}.request.json"
        result_path = self.work / f"{tag}.result.json"
        request_path.write_text(json.dumps(request))
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")
        env["TMPDIR"] = str(self.work)
        if request.get("cache_disabled"):
            env["REPRO_CACHE_DISABLE"] = "1"
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(request_path), str(result_path)],
            env=env,
            cwd=str(self.work),
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            _kill_group(proc)
        finished = time.monotonic()
        if code != 0:
            raise ChildFailed(f"{tag} ({request['mode']}) exited with status {code}")
        result = json.loads(result_path.read_text())
        result["startup_s"] = result["ready_at"] - spawned
        result["lifetime_s"] = finished - spawned
        return result

    def suite(self, jobs: int, cache_mode: str, cache_dir: str, trace: bool = False):
        return self.child(
            {
                "mode": "suite",
                "jobs": jobs,
                "cache_mode": cache_mode,
                "cache_dir": cache_dir,
                "seed": self.seed,
                "trace": trace,
            }
        )

    def take_trace(self, traced: Dict[str, Any], untraced_wall: float) -> None:
        """Per-layer metrics of a traced repetition, with its checks.

        ``unattributed_s`` is the traced wall minus the self time of the
        spans of the process that timed it, so on a serial run the
        layers' ``self_s`` plus ``unattributed_s`` equal the wall by
        construction.  What can fail is a span outside the timed window
        or more span time than wall."""
        layers = dict(traced["layers"])
        layers["trace_overhead_ratio"] = traced["traced_wall_s"] / untraced_wall
        for layer in traced["missing_layers"]:
            self.tally.fail(f"trace:{layer}", "expected layer recorded no span")
        for name in traced["stray_spans"]:
            self.tally.fail(f"trace:{name}", "root span outside the timed window")
        if layers["unattributed_s"] < 0:
            self.tally.fail("trace:unattributed_s", f"{layers['unattributed_s']:.6f} s < 0")
        self.layers = layers

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        if self.trace:
            assert self.layers is not None
            return {
                name: {"value": self.layers[name], "unit": unit}
                for name, unit in spans.LAYER_METRICS
            }
        values = {
            "wall_s": self.wall_s,
            "setup_s": statistics.median(self.setup_samples),
            "cpu_s": self.cpu_s,
            "peak_rss_mb": max(self.rss_kb) / 1024.0,
        }
        return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop whatever is left of a child's process group and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def fastest_sum(passes: List[Dict[str, float]]) -> float:
    """Sum over the operations of a pass of each one's fastest time."""
    return sum(min(times[key] for times in passes) for key in passes[0])


# -- workloads -------------------------------------------------------------


def suite_cold(bench: Bench, jobs: int) -> None:
    expected = bench.expected("suite")
    if bench.trace:
        plain = bench.suite(jobs, "on", bench.fresh_cache())
        bench.tally.check_suite("untraced", plain, expected, "golden")
        traced = bench.suite(jobs, "on", bench.fresh_cache(), trace=True)
        bench.tally.check_suite("traced", traced, plain["outputs"], "the untraced run")
        bench.take_trace(traced, plain["wall_s"])
        return
    cpus = []
    for rep in range(bench.passes):
        # Start-ups are sampled between the passes, spread over the run.
        for _ in range(-(-STARTUP_SAMPLES // bench.passes)):
            bench.setup_samples.append(bench.child({"mode": "imports"})["startup_s"])
        result = bench.suite(jobs, "on", bench.fresh_cache())
        bench.setup_samples.append(result["startup_s"])
        bench.walls.append(result["wall_s"])
        cpus.append(result["cpu_s"])
        bench.rss_kb.append(result["rss_kb"])
        bench.tally.check_suite(f"rep{rep}", result, expected, "golden")
    bench.wall_s, bench.cpu_s = min(bench.walls), min(cpus)


def suite_warm(bench: Bench) -> None:
    reference: Dict[str, str] = {}

    def prime() -> str:
        """A fresh private cache, primed by a cold serial suite."""
        cache = bench.fresh_cache()
        result = bench.suite(1, "on", cache)
        label = f"prime{len(bench.setup_samples)}"
        if not bench.setup_samples:
            bench.tally.check_suite(label, result, bench.expected("suite"), "golden")
            reference.update(result["outputs"])
        else:
            bench.tally.check_suite(label, result, reference, "the first priming suite")
        bench.setup_samples.append(result["lifetime_s"])
        return cache

    cache = prime()
    if bench.trace:
        plain = bench.suite(1, "refresh", cache)
        bench.tally.check_suite("untraced", plain, reference, "the priming suite")
        traced = bench.suite(1, "refresh", cache, trace=True)
        bench.tally.check_suite("traced", traced, reference, "the priming suite")
        bench.take_trace(traced, plain["wall_s"])
        return
    # The refreshes are split evenly between the priming suites, so they
    # are spread over the run and their fastest does not hang on one
    # stretch of slow host time.
    per_prime = -(-bench.passes // PRIMES)
    counters = None
    cpus = []
    for rep in range(bench.passes):
        if rep and rep % per_prime == 0:
            cache = prime()
        result = bench.suite(1, "refresh", cache)
        label = f"rep{rep}"
        bench.walls.append(result["wall_s"])
        cpus.append(result["cpu_s"])
        bench.rss_kb.append(result["rss_kb"])
        bench.tally.check_suite(label, result, reference, "the priming suite")
        if counters is None:
            counters = result["stage_counters"]
        elif result["stage_counters"] != counters:
            for eid in result["operations"]:
                bench.tally.fail(f"{label}:{eid}", "stage counters differ from rep0")
    bench.wall_s, bench.cpu_s = min(bench.walls), min(cpus)
    bench.notes.append(
        f"refresh_s {statistics.median(bench.walls):.4f} s (median of {len(bench.walls)})"
    )
    bench.notes.append(f"stage counters per refresh: {counters}")


def sim_exact(bench: Bench) -> None:
    request = {"mode": "sim", "seed": bench.seed, "cache_disabled": True}
    if not bench.trace:
        for _ in range(SIM_SETUP_SAMPLES - 1):
            bench.setup_samples.append(bench.child(dict(request, setup_only=True))["setup_s"])
    result = bench.child(dict(request, reps=bench.passes, trace=bench.trace))
    bench.setup_samples.append(result["setup_s"])
    bench.walls.extend(result["pass_walls"])
    bench.rss_kb.append(result["rss_kb"])
    bench.wall_s = fastest_sum(result["unit_walls"])
    bench.cpu_s = fastest_sum(result["unit_cpus"])
    outputs = result["outputs"]
    bench.tally.attempted += len(outputs) * bench.passes
    expected = bench.expected("sim-exact")
    if expected is not None:
        bench.tally.check_digests("rep0", outputs, expected, "golden")
    for rep, key in result["rep_mismatches"]:
        bench.tally.fail(f"rep{rep}:{key}", "differs from rep0")
    for key in result["analytic_mismatches"]:
        bench.tally.fail(f"rep0:{key}", "exact kernels differ from the analytic replay")
    if bench.trace:
        bench.tally.attempted += len(outputs)
        bench.tally.check_digests("traced", result["traced_outputs"], outputs, "the untraced run")
        bench.take_trace(result, min(result["pass_walls"]))
        return
    bench.notes.append(
        f"sim_events_per_s {result['events'] / bench.wall_s:.1f} events/s"
        f" ({result['events']} events per pass)"
    )


RUNNERS: Dict[str, Callable[[Bench], None]] = {
    "suite-cold": lambda bench: suite_cold(bench, jobs=1),
    "suite-cold-j2": lambda bench: suite_cold(bench, jobs=2),
    "suite-warm": suite_warm,
    "sim-exact": sim_exact,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"perfbench: no program at {PROGRAM.relative_to(ROOT)}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, input_seed(args.seed), args.seconds, bool(args.trace))
    try:
        RUNNERS[args.workload](bench)
        metrics = bench.metrics()
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    tally = bench.tally
    print(
        f"workload {args.workload}  seed {args.seed} (input seed {bench.seed})"
        f"  passes {bench.passes}"
    )
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    if not bench.trace:
        print(f"  pass walls: {bench.walls}")
        print(f"  setup samples: {bench.setup_samples}")
    print(f"  failed_ratio {tally.failed_ratio:.6g} fraction ({tally.failed}/{tally.attempted})")
    for note in bench.notes:
        print(f"  {note}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
