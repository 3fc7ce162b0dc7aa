"""Differential tests for the batched (run-length-encoded) simulation kernel.

The contract under test: with ``REPRO_BULK=1`` (the default) the
simulator consumes run-length-encoded ``(event, count)`` pairs and the
regimes take steady-state shortcuts, yet every ``RunResult`` — cycles,
flows, paths, ledger — is **byte-identical** to the literal per-event
path (``REPRO_BULK=0``).  These tests pin that equivalence across
regimes, workloads, the BPF fast-path toggle, the scheduler and the
multi-core system, plus the supporting pieces: run-length encoding,
pollution credit banking, parallel engine runs and telemetry aggregation.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bulk import bulk_enabled
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

    def test_pollute_repeat_is_bitwise_per_event(self):
        for work, count in ((37_123, 9), (1_000, 250), (60_000, 3)):
            a, b = _warm_hierarchy(), _warm_hierarchy()
            a.pollute_repeat(work, count)
            for _ in range(count):
                b.pollute(work)
            assert _hierarchy_state(a) == _hierarchy_state(b)

    def test_pollute_repeat_noop_edges(self):
        h = _warm_hierarchy()
        state = _hierarchy_state(h)
        h.pollute_repeat(0, 100)
        h.pollute_repeat(50_000, 0)
        assert _hierarchy_state(h) == state


# -- bulk_enabled parsing -----------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [(None, True), ("1", True), ("yes", True), ("0", False), ("off", False),
     ("FALSE", False), ("no", False)],
)
def test_bulk_enabled_parsing(monkeypatch, value, expected):
    if value is None:
        monkeypatch.delenv("REPRO_BULK", raising=False)
    else:
        monkeypatch.setenv("REPRO_BULK", value)
    assert bulk_enabled() is expected


# -- differential: run_trace under REPRO_BULK=0 vs 1 --------------------


def _run_result_json(
    workload, regime_name, monkeypatch, *, bulk, fastpath=True, events=2_000, trace=None
):
    """One (workload, regime) simulation serialized for byte comparison.

    ``run_trace`` on a fresh regime with the analytic tier off, so the
    kernel the switches name is the one that runs: ``ctx.evaluate``
    could serve either leg from the context's memo, a shared filter
    sweep or the distinct-event histogram replay.  The conservation
    audits run inside ``run_trace``, so any bulk accounting drift raises
    there rather than comparing.  *trace* replaces the context's own
    trace when given.
    """
    from repro.experiments.runner import get_context
    from repro.kernel.simulator import run_trace

    monkeypatch.setenv("REPRO_BULK", "1" if bulk else "0")
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
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
def test_bulk_run_results_byte_identical(workload, regime, monkeypatch):
    slow = _run_result_json(workload, regime, monkeypatch, bulk=False)
    fast = _run_result_json(workload, regime, monkeypatch, bulk=True)
    assert fast == slow


@pytest.mark.parametrize("workload", sorted(CATALOG))
def test_hw_bulk_byte_identical_on_every_workload(workload, monkeypatch):
    # The hardware steady memo skips its structure probes while no
    # mutation counter moved; 4 000 events is long enough for a
    # missing counter bump to change a result (nginx, for one, catches
    # an STB update that does not count itself).
    slow = _run_result_json(
        workload, "draco-hw-complete", monkeypatch, bulk=False, events=4_000
    )
    fast = _run_result_json(
        workload, "draco-hw-complete", monkeypatch, bulk=True, events=4_000
    )
    assert fast == slow


def _amplified(ctx, events=4_096, run_length=32):
    """The context trace's distinct prefix, each event repeated
    *run_length* times: the long-run locality the bulk shortcuts
    exploit (Figure 3), with unchanged profile coverage."""
    from repro.syscalls.events import SyscallTrace

    base = list(ctx.trace)[: events // run_length]
    return SyscallTrace([event for event in base for _ in range(run_length)])


@pytest.mark.parametrize("regime", REGIMES)
def test_bulk_byte_identical_on_long_runs(regime, monkeypatch):
    # Runs of 32 identical events send every regime through its
    # check_run shortcut rather than the runs-of-one fast path.
    slow = _run_result_json(
        "pipe-ipc", regime, monkeypatch, bulk=False, trace=_amplified
    )
    fast = _run_result_json(
        "pipe-ipc", regime, monkeypatch, bulk=True, trace=_amplified
    )
    assert fast == slow


@pytest.mark.parametrize("regime", ("syscall-complete", "draco-sw-complete"))
def test_bulk_identity_survives_fastpath_toggle(regime, monkeypatch):
    # REPRO_BULK and REPRO_FASTPATH are independent axes: the bulk
    # identity must hold with the BPF code generator disabled too.
    slow = _run_result_json("grep", regime, monkeypatch, bulk=False, fastpath=False)
    fast = _run_result_json("grep", regime, monkeypatch, bulk=True, fastpath=False)
    assert fast == slow


def test_kill_switch_reaches_regimes(monkeypatch):
    from repro.experiments.runner import get_context

    monkeypatch.setenv("REPRO_BULK", "0")
    ctx = get_context("grep", events=500, seed=7)
    assert ctx.make_regime("syscall-complete")._bulk is False
    assert ctx.make_regime("draco-hw-complete")._bulk is False
    monkeypatch.setenv("REPRO_BULK", "1")
    assert ctx.make_regime("syscall-complete")._bulk is True
    assert ctx.make_regime("draco-hw-complete")._bulk is True


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


def _scheduler_snapshot(monkeypatch, *, bulk):
    from repro.kernel.scheduler import RoundRobinScheduler

    monkeypatch.setenv("REPRO_BULK", "1" if bulk else "0")
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


def test_scheduler_bulk_byte_identical(monkeypatch):
    slow = _scheduler_snapshot(monkeypatch, bulk=False)
    fast = _scheduler_snapshot(monkeypatch, bulk=True)
    assert fast == slow


def _multicore_snapshot(monkeypatch, *, bulk):
    from repro.kernel.multicore import MultiCoreSystem

    monkeypatch.setenv("REPRO_BULK", "1" if bulk else "0")
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


def test_multicore_bulk_byte_identical(monkeypatch):
    slow = _multicore_snapshot(monkeypatch, bulk=False)
    fast = _multicore_snapshot(monkeypatch, bulk=True)
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
    outcome segments — and the same total count — as one whole call."""
    from repro.experiments.runner import get_context

    total, parts = split
    ctx = get_context("grep", events=400, seed=13)
    events = list(ctx.trace)
    event = events[event_index * 7 % len(events)]

    whole = ctx.make_regime(regime_name)
    pieces = ctx.make_regime(regime_name)
    # Drive both regimes through an identical prefix so the property
    # also covers warmed steady-state memos, not just cold structures.
    for warm_event in events[:prefix]:
        whole.check(warm_event)
        pieces.check(warm_event)

    work = ctx.work_cycles
    reference = list(whole.check_run(event, total, work))
    observed = []
    for part in parts:
        observed.extend(pieces.check_run(event, part, work))

    assert sum(count for _, count in observed) == total
    assert sum(count for _, count in reference) == total
    assert _coalesce(observed) == _coalesce(reference)


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
        runner._cached_context.cache_clear()
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


def test_run_trace_records_runs_coalesced(monkeypatch):
    from repro.common import telemetry
    from repro.experiments.runner import get_context

    monkeypatch.setenv("REPRO_BULK", "1")
    telemetry.reset_counters()
    ctx = get_context("pipe-ipc", events=1_000, seed=9)
    ctx.evaluate("syscall-complete")
    snapshot = telemetry.counters_snapshot()
    assert 0 < snapshot["runs_coalesced"] <= snapshot["events_simulated"]
    assert snapshot["mean_run_length"] >= 1.0
