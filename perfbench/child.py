"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py REQUEST.json RESULT.json

``run.py`` writes the request and reads the result back; the child
prints nothing.  ``ready_at`` is read off the monotonic clock right
after the program's imports, so the parent times interpreter start-up
plus imports as ``ready_at`` minus its own spawn time.  ``rss_kb`` is
the child's own peak resident set, pool workers included.

Modes:

* ``imports`` -- start-up only;
* ``suite`` -- one ``engine.run_suite`` over all 16 artifacts, then every
  artifact's markdown;
* ``sim`` -- build the 15 catalog contexts, then run every trace through
  the exact kernels and one two-core multicore system, ``reps`` times,
  timing each of those operations on its own.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import engine  # noqa: E402  (start-up ends here)

READY_AT = time.monotonic()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import spans  # noqa: E402

#: sim-exact regimes, and those the analytic tier replays exactly.
SIM_REGIMES = ("insecure", "syscall-complete", "draco-sw-complete", "draco-hw-complete")
ANALYTIC_REGIMES = SIM_REGIMES[:3]
#: The six tenants of examples/multicore_containers.py.
TENANTS = ("nginx", "redis", "mysql", "httpd", "cassandra", "pwgen")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_json(result, drop=()) -> str:
    """A ``RunResult`` as sorted-key JSON, without the ``drop`` keys."""
    payload = result.to_json_dict()
    for key in drop:
        payload.pop(key)
    return json.dumps(payload, sort_keys=True)


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_kb() -> int:
    """Largest resident set of this process or any child it has waited for."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def traced(request, phase):
    """``phase()`` with every layer entry point wrapped in spans."""
    Path(request["spill_dir"]).mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder(request["run_id"], request["spill_dir"])
    installation = spans.install(recorder)
    try:
        value = phase()
    finally:
        spans.uninstall(installation)
    return value, recorder


def trace_summary(request, recorder, window, stage_counters):
    """Per-layer metrics of the traced phase that ran from ``window[0]``
    to ``window[1]`` on the span clock, with what the parent checks."""
    recorded = recorder.spans + recorder.collect_spilled()
    spans.write_trace(request["trace_out"], recorded)
    wall_s = window[1] - window[0]
    return {
        "traced_wall_s": wall_s,
        "layers": spans.layer_metrics(recorded, recorder.origin_pid, wall_s, stage_counters),
        "missing_layers": spans.missing_layers(request["workload"], recorded),
        "stray_spans": spans.outside_window(recorded, recorder.origin_pid, *window),
    }


def suite(request):
    from repro.experiments import pool
    from repro.experiments.registry import REGISTRY

    # Every experiment gets the seed itself rather than one derived per
    # experiment, so any seed keeps the default suite's shape: contexts
    # shared across experiments and the same stages deduplicated.
    overrides = None
    if request["seed"] is not None:
        overrides = {e.experiment_id: {"seed": request["seed"]} for e in REGISTRY}

    def phase():
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        run = engine.run_suite(
            jobs=request["jobs"],
            cache_mode=request["cache_mode"],
            cache_dir=request["cache_dir"],
            run_overrides=overrides,
        )
        markdown = {
            o.experiment_id: o.result.to_markdown() for o in run.outcomes if o.result is not None
        }
        ended = time.perf_counter()
        # Joins the pool workers, so their CPU time and resident sets
        # land in RUSAGE_CHILDREN.
        pool.shutdown(wait=True)
        return run, markdown, (started, ended), cpu_seconds() - cpu_before

    recorder = None
    if request["trace"]:
        (run, markdown, window, cpu), recorder = traced(request, phase)
    else:
        run, markdown, window, cpu = phase()
    out = {
        "wall_s": window[1] - window[0],
        "cpu_s": cpu,
        "rss_kb": peak_rss_kb(),
        "operations": [o.experiment_id for o in run.outcomes],
        "failed": [o.experiment_id for o in run.failures],
        "outputs": {eid: digest(text) for eid, text in markdown.items()},
        "audit": run.report.audit_flow_conservation(),
        "stage_counters": run.report.stage_counters(),
    }
    if recorder is not None:
        out.update(trace_summary(request, recorder, window, out["stage_counters"]))
    return out


def sim(request):
    from repro.common.rng import DEFAULT_SEED
    from repro.experiments.runner import build_context
    from repro.kernel import simulator
    from repro.kernel.multicore import MultiCoreSystem
    from repro.kernel.scheduler import ScheduledProcess
    from repro.workloads.catalog import CATALOG

    seed = DEFAULT_SEED if request["seed"] is None else request["seed"]
    started = time.perf_counter()
    contexts = [build_context(spec, seed=seed) for spec in CATALOG.values()]
    for ctx in contexts:
        for name in SIM_REGIMES:
            ctx.make_regime(name)  # compiles and memoises the filters
    out = {"setup_s": time.perf_counter() - started}
    if request.get("setup_only"):
        return out
    by_name = {ctx.spec.name: ctx for ctx in contexts}

    def run_one(ctx, name, analytic):
        # Looked up per call, so a traced phase calls the wrapper.
        return simulator.run_trace(
            ctx.trace,
            ctx.make_regime(name),
            work_cycles_per_syscall=ctx.work_cycles,
            syscall_base_cycles=ctx.syscall_base_cycles,
            workload_name=ctx.spec.name,
            analytic=analytic,
        )

    def run_multicore():
        system = MultiCoreSystem(cores=2, quantum_syscalls=250)
        for name in TENANTS:
            ctx = by_name[name]
            system.assign(
                ScheduledProcess(
                    name=name,
                    profile=ctx.bundle.complete,
                    trace=ctx.trace,
                    work_cycles_per_syscall=ctx.work_cycles,
                )
            )
        return system.run(backend="bulk")

    def phase():
        """One pass; the wall and CPU seconds of each operation in it."""
        results, walls, cpus = {}, {}, {}

        def timed(key, call):
            cpu_before, began = time.process_time(), time.perf_counter()
            value = call()
            walls[key] = time.perf_counter() - began
            cpus[key] = time.process_time() - cpu_before
            return value

        began = time.perf_counter()
        for ctx in contexts:
            for name in SIM_REGIMES:
                key = f"{ctx.spec.name}/{name}"
                results[key] = timed(key, lambda: run_one(ctx, name, analytic=False))
        multicore = timed("multicore", run_multicore)
        window = (began, time.perf_counter())
        outputs = {key: digest(result_json(result)) for key, result in results.items()}
        outputs["multicore"] = digest(json.dumps(dataclasses.asdict(multicore), sort_keys=True))
        events = sum(r.events_measured + r.warmup_events for r in results.values())
        return results, outputs, walls, cpus, window, events + multicore.total_syscalls

    out.update(unit_walls=[], unit_cpus=[], pass_walls=[], rep_mismatches=[])
    for rep in range(request["reps"]):
        results, outputs, walls, cpus, window, events = phase()
        out["unit_walls"].append(walls)
        out["unit_cpus"].append(cpus)
        out["pass_walls"].append(window[1] - window[0])
        if rep == 0:
            first, out["outputs"], out["events"] = results, outputs, events
        else:
            out["rep_mismatches"] += [
                [rep, key] for key in outputs if outputs[key] != out["outputs"][key]
            ]
    out["rss_kb"] = peak_rss_kb()
    # Untimed: the analytic tier must replay the history-free regimes
    # byte-identically to the exact kernels (tests/test_analytic.py).
    drop = ("analytic",)
    out["analytic_mismatches"] = [
        f"{ctx.spec.name}/{name}"
        for ctx in contexts
        for name in ANALYTIC_REGIMES
        if result_json(run_one(ctx, name, analytic=True), drop)
        != result_json(first[f"{ctx.spec.name}/{name}"], drop)
    ]
    if request["trace"]:
        (_, outputs, _, _, window, _), recorder = traced(request, phase)
        out["traced_outputs"] = outputs
        out.update(trace_summary(request, recorder, window, {}))
    return out


def main(argv) -> int:
    request = json.loads(Path(argv[1]).read_text())
    if request["mode"] == "suite":
        out = suite(request)
    elif request["mode"] == "sim":
        out = sim(request)
    else:
        out = {}
    out["ready_at"] = READY_AT
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
