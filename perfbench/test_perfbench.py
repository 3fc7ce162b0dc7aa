"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def _span(id, parent, name, start, end, pid=1, **counts):
    return Span(id=id, parent=parent, name=name, start=start, end=end, pid=pid, counts=counts)


# -- self time -------------------------------------------------------------


def test_self_time_of_nested_spans():
    recorded = [
        _span("a", None, "stages", 0.0, 10.0),
        _span("b", "a", "analysis", 1.0, 6.0),
        _span("c", "b", "results", 2.0, 3.0),
        _span("d", "a", "cache.read", 7.0, 8.0),
    ]
    own = spans.self_times(recorded)
    assert own == {"a": 4.0, "b": 4.0, "c": 1.0, "d": 1.0}
    # Self times of a serial tree add up to its root.
    assert sum(own.values()) == 10.0


def test_self_time_with_overlapping_children():
    # Worker spans under one parent overlap each other; one outlives it.
    recorded = [
        _span("p", None, "stages", 0.0, 10.0),
        _span("w1", "p", "simulator.insecure", 1.0, 5.0, pid=2),
        _span("w2", "p", "simulator.seccomp", 3.0, 8.0, pid=3),
        _span("w3", "p", "analysis", 9.0, 12.0, pid=2),
    ]
    assert spans.self_times(recorded)["p"] == 10.0 - (7.0 + 1.0)


def test_layers_and_unattributed_add_up_to_the_wall():
    recorded = [
        _span("a", None, "stages", 1.0, 9.0),
        _span("b", "a", "simulator.draco-hw", 2.0, 5.0, events=300),
        _span("c", None, "results", 9.5, 10.0),
    ]
    recorded[1].tag = "sampled"
    layers = spans.layer_metrics(recorded, origin_pid=1, wall_s=12.0, stage_counters={})
    self_total = sum(v for k, v in layers.items() if k.endswith("self_s"))
    assert self_total + layers["unattributed_s"] == 12.0
    assert layers["unattributed_s"] == 12.0 - 8.5
    assert layers["simulator.draco-hw.events"] == 300
    assert layers["simulator.sampled.calls"] == 1


def test_root_spans_outside_the_timed_window_are_reported():
    recorded = [
        _span("a", None, "stages", 1.0, 9.0),
        _span("b", "a", "analysis", 0.5, 2.0),  # not a root: its parent is checked
        _span("c", None, "results", 9.5, 10.5),
        _span("d", None, "runner.context", 0.0, 3.0, pid=2),  # a worker's
    ]
    assert spans.outside_window(recorded, origin_pid=1, start=1.0, end=10.0) == ["results"]


def test_fastest_sum_takes_each_operation_at_its_fastest():
    passes = [{"a": 2.0, "b": 5.0}, {"a": 3.0, "b": 4.0}, {"a": 2.5, "b": 4.5}]
    assert bench.fastest_sum(passes) == 6.0


def test_pool_self_time_is_waiting_no_worker_covers():
    recorded = [
        _span("s", None, "stages", 0.0, 10.0),
        _span("p", "s", "pool", 0.0, 0.5),
        _span("w", "s", "pool.wait", 1.0, 9.0, tasks=2),
        _span("x", None, "runner.context", 2.0, 4.0, pid=7),
        _span("y", None, "runner.context", 3.0, 6.0, pid=8),
    ]
    layers = spans.layer_metrics(recorded, origin_pid=1, wall_s=10.0, stage_counters={})
    assert layers["pool.self_s"] == 0.5 + (8.0 - 4.0)
    assert layers["pool.tasks"] == 2


def test_span_outside_every_layer_is_rejected():
    recorded = [_span("a", None, "simulator.unclassified", 0.0, 1.0)]
    try:
        spans.layer_metrics(recorded, origin_pid=1, wall_s=1.0, stage_counters={})
    except ValueError:
        return
    raise AssertionError("an unclassified span was silently dropped")


# -- rebinding -------------------------------------------------------------


def _bindings():
    """Identity of every attribute the wrappers could touch."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.registry import REGISTRY
    from repro.experiments.results import ExperimentResult
    from repro.kernel.multicore import MultiCoreSystem

    snapshot = {
        name: {attr: id(value) for attr, value in vars(module).items()}
        for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    }
    for cls in (ResultCache, ExperimentResult, MultiCoreSystem):
        snapshot[cls.__qualname__] = {attr: id(value) for attr, value in vars(cls).items()}
    snapshot["REGISTRY"] = {e.experiment_id: id(e.run) for e in REGISTRY}
    return snapshot


def test_install_wraps_every_reference_and_uninstall_restores_them():
    import repro.experiments.engine  # noqa: F401
    import repro.experiments.seccomp_replay  # noqa: F401  (imported lazily by runner)
    from repro.experiments import fig2_seccomp_overhead, runner
    from repro.experiments.registry import by_id
    from repro.kernel import simulator
    from repro.workloads import generator
    from repro.workloads.catalog import CATALOG

    before = _bindings()
    original = generator.generate_trace
    recorder = spans.Recorder("test")
    installation = spans.install(recorder)
    try:
        # The defining module and a ``from ... import`` binding both moved.
        assert generator.generate_trace is not original
        assert runner.generate_trace is generator.generate_trace
        assert by_id("fig2").run is fig2_seccomp_overhead.run
        assert by_id("fig2").run.__wrapped__ is not None
        trace = runner.generate_trace(CATALOG["pipe-ipc"], 500)
        from repro.kernel.regimes import InsecureRegime

        simulator.run_trace(trace, InsecureRegime(), 10.0, 5.0, analytic=False)
    finally:
        spans.uninstall(installation)
    assert _bindings() == before
    assert [(s.name, s.counts.get("events"), s.tag) for s in recorder.spans] == [
        ("workloads", 500, ""),
        ("simulator.insecure", 500, "exact"),
    ]


# -- metric names ------------------------------------------------------------


def test_metric_names_and_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name) and len(name) <= 64, name
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.RUNNERS)


# -- output checks -----------------------------------------------------------


def test_corrupted_golden_raises_failed_ratio():
    expected = golden.load()["suite"]
    result = {"operations": list(expected), "failed": [], "audit": [], "outputs": dict(expected)}

    clean = bench.Tally()
    clean.check_suite("rep0", result, expected, "golden")
    assert clean.failed_ratio == 0.0

    tally = bench.Tally()
    tally.check_suite("rep0", result, dict(expected, fig12="0" * 64), "golden")
    assert tally.failed == 1
    assert tally.failed_ratio == 1 / len(expected)


# -- tier classification -------------------------------------------------------


def test_run_results_are_classified_by_tier():
    from repro.common.analytic import AnalyticInfo
    from repro.kernel.regimes import InsecureRegime
    from repro.kernel.simulator import run_trace
    from repro.workloads.catalog import CATALOG
    from repro.workloads.generator import generate_trace

    trace = generate_trace(CATALOG["pipe-ipc"], 2000)
    exact = run_trace(trace, InsecureRegime(), 10.0, 5.0, analytic=False)
    replay = run_trace(trace, InsecureRegime(), 10.0, 5.0, analytic=True)
    sampled = dataclasses.replace(
        replay,
        analytic=AnalyticInfo(
            mode="sampled", events_simulated=600, events_accounted=1200, scale=2.0
        ),
    )
    assert spans.result_tier(exact) == "exact"
    assert spans.result_tier(replay) == "analytic"
    assert spans.result_tier(sampled) == "sampled"
    assert spans.regime_family("seccomp-bitmap:nginx") == "bitmap"
    assert spans.regime_family("seccomp:nginx-complete") == "seccomp"
