"""Differential tests for the exact simulation kernel's accelerators.

The contract under test: the simulator consumes run-length-encoded
``(event, count)`` pairs and the regimes take their accelerators (the
Draco steady memos, the order-independent regimes' run shortcuts), yet
every ``RunResult`` — cycles, flows, paths, ledger — is
**byte-identical** to the code those accelerators stand in for, which
the ``reference_kernels`` fixture (``tests/conftest.py``) selects.
These tests pin that equivalence across regimes, workloads, the
scheduler and the multi-core system, plus the supporting pieces:
run-length encoding, pollution credit banking, parallel engine runs and
telemetry aggregation.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.hierarchy import MemoryHierarchy
from repro.syscalls.events import iter_runs, make_event
from repro.workloads.catalog import CATALOG

WORKLOADS = ("nginx", "grep", "pipe-ipc")
REGIMES = (
    "insecure",
    "syscall-complete",
    "draco-sw-complete",
    "draco-hw-complete",
)


def _expand(runs):
    return [event for event, count in runs for _ in range(count)]


# -- run-length encoding ------------------------------------------------


class TestIterRuns:
    def test_coalesces_adjacent_equal_events(self):
        a = make_event("read", (3, 4096))
        b = make_event("write", (1, 128))
        events = [a, a, a, b, a, a]
        assert list(iter_runs(events)) == [(a, 3), (b, 1), (a, 2)]

    def test_empty_and_singleton(self):
        assert list(iter_runs([])) == []
        a = make_event("close", (3,))
        assert list(iter_runs([a])) == [(a, 1)]

    def test_equal_but_distinct_objects_coalesce(self):
        a = make_event("read", (3, 4096))
        b = make_event("read", (3, 4096))
        assert list(iter_runs([a, b])) == [(a, 2)]

    @given(st.lists(st.integers(0, 2), max_size=40))
    def test_roundtrip_and_maximality(self, picks):
        pool = [
            make_event("read", (3, 64)),
            make_event("write", (1, 64)),
            make_event("close", (9,)),
        ]
        events = [pool[i] for i in picks]
        runs = list(iter_runs(events))
        assert _expand(runs) == events
        # Maximality: no two adjacent runs carry the same event value.
        for (left, _), (right, _) in zip(runs, runs[1:]):
            assert left != right

    def test_trace_and_generator_agree_with_events(self):
        from repro.workloads.catalog import CATALOG
        from repro.workloads.generator import TraceGenerator

        # Two generators with one seed: the RNG is stateful per instance.
        runs = TraceGenerator(CATALOG["grep"], seed=11).iter_runs(500)
        events = TraceGenerator(CATALOG["grep"], seed=11).iter_events(500)
        assert _expand(runs) == list(events)


# -- pollution credit banking (satellite bugfix) ------------------------


def _cache_tags(cache):
    return [set(lines) for lines in cache._sets if lines]


def _hierarchy_state(h):
    return (
        dict(h._pollution_credit),
        _cache_tags(h.l1),
        _cache_tags(h.l2),
        _cache_tags(h.l3),
    )


def _warm_hierarchy():
    h = MemoryHierarchy()
    for address in range(0, 64 * 512, 64):
        h.access(address)
    return h


class TestPollutionCredit:
    def test_bulk_quantum_equals_split_quanta(self):
        # The fixed credit banking makes pollution k-linear: one call
        # with k*w cycles evicts exactly as much as k calls with w.
        a, b = _warm_hierarchy(), _warm_hierarchy()
        a.pollute(8 * 40_000)
        for _ in range(8):
            b.pollute(40_000)
        credit_a, *caches_a = _hierarchy_state(a)
        credit_b, *caches_b = _hierarchy_state(b)
        # Evictions (whole sweeps) match exactly; the banked fractional
        # credit agrees up to float summation order.
        assert caches_a == caches_b
        assert credit_a == pytest.approx(credit_b, abs=1e-12)

    def test_small_quanta_still_accumulate_pressure(self):
        # Regression: the pre-fix code zeroed the credit every call, so
        # quanta below one sweep's worth never evicted anything.
        h = _warm_hierarchy()
        before = sum(len(tags) for tags in _cache_tags(h.l1))
        for _ in range(400):
            h.pollute(1_000)
        after = sum(len(tags) for tags in _cache_tags(h.l1))
        assert after < before
        assert h._pollution_credit["L1"] > 0.0


# -- differential: accelerated vs reference kernels ---------------------


def _accelerated_and_reference(request, run):
    """``run()`` on the accelerated kernel, then again under the
    ``reference_kernels`` fixture."""
    fast = run()
    request.getfixturevalue("reference_kernels")
    return fast, run()


def _run_result_json(workload, regime_name, *, events=2_000, trace=None):
    """One (workload, regime) simulation serialized for byte comparison.

    ``run_trace`` on a fresh regime with the analytic tier off, so the
    exact kernel is the one that runs: ``ctx.evaluate`` could serve
    either leg from the context's memo, a shared filter sweep or the
    distinct-event histogram replay.  The conservation audits run
    inside ``run_trace``, so any accounting drift raises there rather
    than comparing.  *trace* replaces the context's own trace when
    given.
    """
    from repro.experiments.runner import get_context
    from repro.kernel.simulator import run_trace

    ctx = get_context(workload, events=events, seed=7)
    result = run_trace(
        ctx.trace if trace is None else trace(ctx),
        ctx.make_regime(regime_name),
        work_cycles_per_syscall=ctx.work_cycles,
        syscall_base_cycles=ctx.syscall_base_cycles,
        workload_name=ctx.spec.name,
        analytic=False,
    )
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("regime", REGIMES)
def test_bulk_run_results_byte_identical(workload, regime, request):
    fast, slow = _accelerated_and_reference(
        request, lambda: _run_result_json(workload, regime)
    )
    assert fast == slow


@pytest.mark.parametrize("workload", sorted(CATALOG))
def test_hw_bulk_byte_identical_on_every_workload(workload, request):
    # The hardware steady memo skips its structure probes while no
    # mutation counter moved; 4 000 events is long enough for a
    # missing counter bump to change a result (nginx, for one, catches
    # an STB update that does not count itself).
    fast, slow = _accelerated_and_reference(
        request,
        lambda: _run_result_json(workload, "draco-hw-complete", events=4_000),
    )
    assert fast == slow


def _amplified(ctx, events=4_096, run_length=32):
    """The context trace's distinct prefix, each event repeated
    *run_length* times: the long-run locality the run shortcuts
    exploit (Figure 3), with unchanged profile coverage."""
    from repro.syscalls.events import SyscallTrace

    base = list(ctx.trace)[: events // run_length]
    return SyscallTrace([event for event in base for _ in range(run_length)])


@pytest.mark.parametrize("regime", REGIMES)
def test_bulk_byte_identical_on_long_runs(regime, request):
    # Runs of 32 identical events send every regime through check_run
    # rather than the runs-of-one fast path.
    fast, slow = _accelerated_and_reference(
        request, lambda: _run_result_json("pipe-ipc", regime, trace=_amplified)
    )
    assert fast == slow


def test_reference_kernels_bypass_every_steady_memo(reference_kernels, monkeypatch):
    """Under the fixture no steady memo is probed or installed, so the
    differentials above compare against code the memos do not touch."""
    from repro.core.hardware import HardwareDraco
    from repro.core.software import SoftwareDraco
    from repro.experiments.runner import get_context
    from repro.kernel.simulator import run_trace

    def refuse(*_):
        raise AssertionError("steady memo used under reference_kernels")

    for name in ("steady_probe", "steady_replay", "_maybe_install_steady"):
        monkeypatch.setattr(HardwareDraco, name, refuse)
    for name in ("check_bulk", "_replay_steady"):
        monkeypatch.setattr(SoftwareDraco, name, refuse)
    ctx = get_context("pipe-ipc", events=2_000, seed=7)
    for regime_name in ("draco-hw-complete", "draco-sw-complete"):
        regime = ctx.make_regime(regime_name)
        run_trace(
            _amplified(ctx),
            regime,
            work_cycles_per_syscall=ctx.work_cycles,
            syscall_base_cycles=ctx.syscall_base_cycles,
            workload_name=ctx.spec.name,
            analytic=False,
        )
        assert regime.draco._steady == {}, regime_name


# -- differential: scheduler and multi-core -----------------------------


def _tenant_processes(events=1_500):
    from repro.kernel.scheduler import ScheduledProcess
    from repro.seccomp.toolkit import generate_complete
    from repro.workloads.catalog import CATALOG
    from repro.workloads.generator import TraceGenerator, profile_trace

    processes = []
    for index, name in enumerate(("nginx", "redis", "grep")):
        spec = CATALOG[name]
        profile = generate_complete(profile_trace(spec), name, table=spec.table)
        processes.append(
            ScheduledProcess(
                name=name,
                profile=profile,
                trace=TraceGenerator(spec, seed=11 + index).events(events),
                work_cycles_per_syscall=50_000.0,
            )
        )
    return processes


def _scheduler_snapshot():
    from repro.kernel.scheduler import RoundRobinScheduler

    scheduler = RoundRobinScheduler(_tenant_processes(), quantum_syscalls=150)
    run = scheduler.run()
    return json.dumps(
        {
            "per_process": run.per_process,
            "context_switches": run.context_switches,
            "flow_cycles": run.per_process_flow_cycles,
        },
        sort_keys=True,
    )


def test_scheduler_bulk_byte_identical(request):
    fast, slow = _accelerated_and_reference(request, _scheduler_snapshot)
    assert fast == slow


def _multicore_snapshot():
    from repro.kernel.multicore import MultiCoreSystem

    system = MultiCoreSystem(cores=2, quantum_syscalls=150)
    for process in _tenant_processes(events=1_000):
        system.assign(process)
    run = system.run()
    return json.dumps(
        {
            "per_process": run.per_process,
            "per_core_switches": list(run.per_core_switches),
            "l3_hit_rate": run.l3_hit_rate,
            "flow_cycles": run.per_process_flow_cycles,
        },
        sort_keys=True,
    )


def test_multicore_bulk_byte_identical(request):
    fast, slow = _accelerated_and_reference(request, _multicore_snapshot)
    assert fast == slow


# -- property: splitting a run through check_run conserves outcomes -----


def _coalesce(segments):
    merged = []
    for outcome, count in segments:
        if merged and merged[-1][0] == outcome:
            merged[-1] = (outcome, merged[-1][1] + count)
        else:
            merged.append((outcome, count))
    return [
        (outcome.path, outcome.flow, outcome.cycles, count)
        for outcome, count in merged
    ]


@st.composite
def _splits(draw):
    total = draw(st.integers(1, 48))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, max(total - 1, 1)), max_size=4, unique=True
            )
        )
    ) if total > 1 else []
    parts, previous = [], 0
    for cut in cuts:
        parts.append(cut - previous)
        previous = cut
    parts.append(total - previous)
    return total, parts


@pytest.mark.parametrize(
    "regime_name", ("insecure", "syscall-complete", "draco-hw-complete")
)
@settings(max_examples=25, deadline=None)
@given(split=_splits(), event_index=st.integers(0, 9), prefix=st.integers(0, 8))
def test_check_run_split_conservation(regime_name, split, event_index, prefix):
    """check_run over any partition of a run yields the same coalesced
    outcome segments — and the same total count — as one whole call,
    and so does the base ``[check; advance]`` loop that a regime's run
    shortcut stands in for."""
    from repro.experiments.runner import get_context
    from repro.kernel.regimes import CheckingRegime

    total, parts = split
    ctx = get_context("grep", events=400, seed=13)
    events = list(ctx.trace)
    event = events[event_index * 7 % len(events)]

    whole = ctx.make_regime(regime_name)
    pieces = ctx.make_regime(regime_name)
    base = ctx.make_regime(regime_name)
    # Drive every regime through an identical prefix so the property
    # also covers warmed steady-state memos, not just cold structures.
    for warm_event in events[:prefix]:
        whole.check(warm_event)
        pieces.check(warm_event)
        base.check(warm_event)

    work = ctx.work_cycles
    reference = list(whole.check_run(event, total, work))
    observed = []
    for part in parts:
        observed.extend(pieces.check_run(event, part, work))
    looped = CheckingRegime.check_run(base, event, total, work)

    assert sum(count for _, count in observed) == total
    assert sum(count for _, count in reference) == total
    assert _coalesce(observed) == _coalesce(reference)
    assert _coalesce(looped) == _coalesce(reference)


# -- parallel engine runs -----------------------------------------------


class TestEngineParallel:
    def test_parallel_results_byte_identical(self, tmp_path):
        from repro.experiments import engine

        from repro.experiments import runner

        serial = engine.run_suite(
            ["fig13"], events=600, seed=5, jobs=1,
            cache_mode=engine.CACHE_OFF, cache_dir=str(tmp_path),
        )
        # The serial pass warms the per-context evaluation memos and
        # fork-based pool workers inherit them; clear so every eval
        # stage actually simulates and contributes telemetry.
        runner._CONTEXTS.clear()
        parallel = engine.run_suite(
            ["fig13"], events=600, seed=5, jobs=4,
            cache_mode=engine.CACHE_OFF, cache_dir=str(tmp_path),
        )
        assert parallel.results["fig13"].to_json() == serial.results["fig13"].to_json()
        record = parallel.report.records[0]
        assert record.ok
        # Merged telemetry spans every eval stage.
        assert record.simulation["traces_run"] >= len(
            serial.results["fig13"].rows
        )

    def test_parallel_run_populates_serial_cache(self, tmp_path):
        from repro.common import telemetry
        from repro.experiments import engine

        first = engine.run_suite(
            ["fig13"], events=500, seed=3, jobs=3,
            cache_mode=engine.CACHE_ON, cache_dir=str(tmp_path),
        )
        assert first.report.records[0].cache == telemetry.CACHE_MISS
        # The result was stored under the whole-experiment digest, so a
        # later *serial* run is a whole-result cache hit...
        serial = engine.run_suite(
            ["fig13"], events=500, seed=3, jobs=1,
            cache_mode=engine.CACHE_ON, cache_dir=str(tmp_path),
        )
        assert serial.report.records[0].cache == telemetry.CACHE_HIT
        assert serial.results["fig13"].to_json() == first.results["fig13"].to_json()
        # ...and so is a later parallel run (the whole result is served
        # without fanning its stages out).
        parallel = engine.run_suite(
            ["fig13"], events=500, seed=3, jobs=3,
            cache_mode=engine.CACHE_ON, cache_dir=str(tmp_path),
        )
        assert parallel.report.records[0].cache == telemetry.CACHE_HIT
        assert parallel.results["fig13"].to_json() == first.results["fig13"].to_json()

    def test_explicit_workloads_override_under_jobs(self, tmp_path):
        from repro.experiments import engine

        run = engine.run_suite(
            ["fig13"], events=400, seed=2, jobs=4,
            cache_mode=engine.CACHE_OFF, cache_dir=str(tmp_path),
            run_overrides={"fig13": {"workloads": ("grep", "redis")}},
        )
        result = run.results["fig13"]
        assert [row[0] for row in result.rows] == ["grep", "redis"]


# -- telemetry ----------------------------------------------------------


def test_merge_simulations_sums_and_rederives_run_length():
    from repro.common.telemetry import merge_simulations

    a = {
        "traces_run": 2, "events_simulated": 100, "warmup_events": 40,
        "runs_coalesced": 80, "mean_run_length": 1.25,
        "check_cycles": 10.5, "flows": {"seccomp": {"events": 60}},
    }
    b = {
        "traces_run": 1, "events_simulated": 50, "warmup_events": 20,
        "runs_coalesced": 20, "mean_run_length": 2.5,
        "check_cycles": 4.5, "flows": {"seccomp": {"events": 30}},
    }
    merged = merge_simulations([a, b])
    assert merged["traces_run"] == 3
    assert merged["events_simulated"] == 150
    assert merged["runs_coalesced"] == 100
    assert merged["check_cycles"] == 15.0
    assert merged["flows"]["seccomp"]["events"] == 90
    # Derived, not summed: recomputed from the merged totals.
    assert merged["mean_run_length"] == 1.5

    # The merge law: one run's records split into stages, their
    # snapshots merged, equal the snapshot of the whole run.
    from repro.common import telemetry
    from repro.experiments.runner import get_context
    from repro.kernel.simulator import run_trace

    ctx = get_context("pipe-ipc", events=1_500, seed=3)
    work = ctx.work_cycles  # solve W before the first snapshot

    def simulate(regime_name):
        return lambda: run_trace(
            ctx.trace,
            ctx.make_regime(regime_name),
            work_cycles_per_syscall=work,
            syscall_base_cycles=ctx.syscall_base_cycles,
            workload_name=ctx.spec.name,
            analytic=False,
        )

    def sampled():
        telemetry.record_simulation(
            "draco-hw:x", events=900, check_cycles=1234.5678, total_cycles=9876.54321,
            derived=True, events_extrapolated=600, error_estimate=0.0123456,
            structures={"vat": {"hits": 7, "misses": 2, "hit_rate": 0.778}},
        )

    steps = [
        simulate("syscall-complete"),
        lambda: telemetry.count("context_cache", "trace", "miss"),
        simulate("draco-sw-complete"),
        sampled,
        lambda: telemetry.count_numbers({"tenants": 3, "cold_starts": 2.0}, "fleet", "rr"),
        simulate("draco-hw-complete"),
        sampled,
        lambda: telemetry.count("cache_store_skipped"),
        simulate("syscall-complete"),
    ]
    stages = [steps[:2], steps[2:5], steps[5:6], steps[6:]]

    def snapshot(chunk):
        telemetry.reset_counters()
        for step in chunk:
            step()
        return telemetry.counters_snapshot()

    whole = snapshot(steps)
    merged = merge_simulations([snapshot(chunk) for chunk in stages])
    telemetry.reset_counters()

    def assert_close(want, got, path=()):
        assert sorted(want) == sorted(got), path
        for key, value in want.items():
            if isinstance(value, dict):
                assert_close(value, got[key], path + (key,))
            elif isinstance(value, int):
                assert got[key] == value and isinstance(got[key], int), path + (key,)
            else:
                # Each stage snapshot rounds its floats to 3 decimals.
                assert abs(got[key] - value) <= 5e-4 * len(stages), path + (key,)

    assert_close(whole, merged)
    assert whole["max_error_estimate"] == merged["max_error_estimate"] == 0.012346
    assert "hit_rate" not in whole["structures"]["draco-hw:x"]["vat"]


def test_run_trace_records_runs_coalesced(request):
    from repro.common import telemetry
    from repro.experiments.runner import get_context
    from repro.kernel.simulator import run_trace

    telemetry.reset_counters()
    ctx = get_context("pipe-ipc", events=1_000, seed=9)
    ctx.evaluate("syscall-complete")
    snapshot = telemetry.counters_snapshot()
    assert 0 < snapshot["runs_coalesced"] <= snapshot["events_simulated"]
    assert snapshot["mean_run_length"] >= 1.0

    # Run-length consumption is the simulator's, not an accelerator's:
    # the reference kernels coalesce the same runs.
    def coalesced():
        telemetry.reset_counters()
        for regime_name in REGIMES:
            run_trace(
                ctx.trace,
                ctx.make_regime(regime_name),
                work_cycles_per_syscall=ctx.work_cycles,
                syscall_base_cycles=ctx.syscall_base_cycles,
                workload_name=ctx.spec.name,
                analytic=False,
            )
        totals = telemetry.counters_snapshot()
        return totals["runs_coalesced"], totals["events_simulated"]

    fast, slow = _accelerated_and_reference(request, coalesced)
    telemetry.reset_counters()
    assert fast == slow
