"""Differential and property tests for the analytic steady-state backend.

The contract under test (see ``docs/PERFORMANCE.md``): with
``REPRO_ANALYTIC=1`` (the default) the simulator computes whole-window
costs from the trace's distinct-event histogram.  For history-free
regimes the result is **value-identical** to the exact kernels; for
hardware Draco the result is extrapolated from a simulated sample, is
flagged ``derived``, and its normalised-time error against the exact
kernel is bounded by the reported ``error_estimate`` (floored at
``HW_ERROR_FLOOR``).  Conservation — flow counts summing exactly to the
measured window — holds on every tier.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import analytic

#: History-free regimes: the analytic tier replays the histogram exactly.
EXACT_REGIMES = ("insecure", "syscall-complete", "draco-sw-complete")
EXACT_WORKLOADS = ("nginx", "grep", "pipe-ipc")

#: Sampled-tier workloads: the paper's worst cachers (elasticsearch,
#: redis), the slow hierarchy warmer (httpd) and a well-behaved server.
SAMPLED_WORKLOADS = ("httpd", "redis", "nginx")

#: Bound asserted on |nt_analytic - nt_exact| for sampled runs at
#: default event counts — the catalog-wide maximum observed is ~0.011.
SAMPLED_NT_TOLERANCE = 0.02


def _result(workload, regime_name, monkeypatch, *, analytic_on, events=2_000):
    from repro.experiments.runner import get_context

    monkeypatch.setenv("REPRO_ANALYTIC", "1" if analytic_on else "0")
    ctx = get_context(workload, events=events, seed=7)
    return ctx.evaluate(regime_name)


def _fresh_run(workload, regime_name, *, analytic_on, events=2_000):
    """``run_trace`` on a fresh regime: unlike ``ctx.evaluate`` this is
    never served from the context's memo or a shared filter sweep, so
    the tier it names is the one that runs."""
    from repro.experiments.runner import get_context
    from repro.kernel.simulator import run_trace

    ctx = get_context(workload, events=events, seed=7)
    return run_trace(
        ctx.trace,
        ctx.make_regime(regime_name),
        work_cycles_per_syscall=ctx.work_cycles,
        syscall_base_cycles=ctx.syscall_base_cycles,
        workload_name=ctx.spec.name,
        analytic=analytic_on,
    )


def _as_json(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


# -- exact tier: value-identical to the RLE bulk kernel -----------------


def test_evaluate_falls_back_to_exact_kernels_on_vat_eviction():
    """On seed 4's elasticsearch trace software Draco's VAT evicts an
    entry, which breaks the analytic replay's no-eviction precondition:
    the replay raises, and ``evaluate`` returns the exact-kernel result
    of a fresh regime instead of failing the experiment."""
    from repro.common.errors import AnalyticPreconditionError
    from repro.experiments.runner import get_context
    from repro.kernel.simulator import run_trace

    ctx = get_context("elasticsearch", seed=4)

    def run(analytic):
        return run_trace(
            ctx.trace,
            ctx.make_regime("draco-sw-complete"),
            work_cycles_per_syscall=ctx.work_cycles,
            syscall_base_cycles=ctx.syscall_base_cycles,
            workload_name=ctx.spec.name,
            analytic=analytic,
        )

    with pytest.raises(AnalyticPreconditionError):
        run(analytic=True)
    exact = run(analytic=False)
    assert exact.normalized_time == pytest.approx(1.0529, abs=1e-4)
    assert _as_json(ctx.evaluate("draco-sw-complete")) == _as_json(exact)


@pytest.mark.parametrize("workload", EXACT_WORKLOADS)
@pytest.mark.parametrize("regime", EXACT_REGIMES)
def test_exact_tier_value_identical(workload, regime, monkeypatch):
    fast = _result(workload, regime, monkeypatch, analytic_on=True)
    assert fast.analytic is not None and fast.analytic.mode == "exact"
    assert not fast.derived
    slow = _result(workload, regime, monkeypatch, analytic_on=False)
    assert slow.analytic is None
    # Strip the provenance field; everything else must match exactly
    # (sort_keys makes the comparison insensitive to dict key order).
    fast_d = dataclasses.asdict(fast)
    slow_d = dataclasses.asdict(slow)
    fast_d.pop("analytic"), slow_d.pop("analytic")
    assert json.dumps(fast_d, sort_keys=True) == json.dumps(slow_d, sort_keys=True)


def test_exact_tier_identical_under_per_event_kernel(monkeypatch):
    # The analytic exact replay must agree with the *per-event* kernel
    # too, not just the RLE bulk kernel it usually displaces.
    monkeypatch.setenv("REPRO_BULK", "0")
    fast = _fresh_run("grep", "syscall-complete", analytic_on=True)
    assert fast.analytic is not None and fast.analytic.mode == "exact"
    slow = _fresh_run("grep", "syscall-complete", analytic_on=False)
    fast_d, slow_d = dataclasses.asdict(fast), dataclasses.asdict(slow)
    fast_d.pop("analytic"), slow_d.pop("analytic")
    assert json.dumps(fast_d, sort_keys=True) == json.dumps(slow_d, sort_keys=True)


def test_bitmap_regime_exact_identity(monkeypatch):
    from repro.experiments.runner import get_context
    from repro.kernel.simulator import run_trace
    from repro.seccomp.bitmap_cache import SeccompBitmapRegime

    ctx = get_context("nginx", events=2_000, seed=7)
    snapshots = {}
    for analytic_on in (True, False):
        monkeypatch.setenv("REPRO_ANALYTIC", "1" if analytic_on else "0")
        regime = SeccompBitmapRegime(ctx.bundle.complete)
        result = run_trace(
            ctx.trace,
            regime,
            work_cycles_per_syscall=ctx.work_cycles,
            syscall_base_cycles=ctx.syscall_base_cycles,
            workload_name="nginx",
        )
        payload = dataclasses.asdict(result)
        payload.pop("analytic")
        snapshots[analytic_on] = (
            json.dumps(payload, sort_keys=True),
            regime.bitmap_hits,
            regime.filter_runs,
        )
    assert snapshots[True] == snapshots[False]


# -- sampled tier: bounded error, honest provenance ---------------------


@pytest.mark.parametrize("workload", SAMPLED_WORKLOADS)
def test_sampled_tier_bounded_error(workload, monkeypatch):
    fast = _result(
        workload, "draco-hw-complete", monkeypatch, analytic_on=True, events=12_000
    )
    slow = _result(
        workload, "draco-hw-complete", monkeypatch, analytic_on=False, events=12_000
    )
    assert fast.analytic is not None and fast.analytic.mode == "sampled"
    assert fast.derived and not slow.derived
    assert fast.analytic.events_simulated < slow.events_measured
    delta = abs(fast.normalized_time - slow.normalized_time)
    assert delta <= SAMPLED_NT_TOLERANCE
    # The reported estimate must bound the realised error — that is
    # what makes the `derived` flag honest.
    assert delta <= fast.analytic.error_estimate
    assert fast.analytic.error_estimate >= analytic.HW_ERROR_FLOOR


@pytest.mark.parametrize("analytic_on", (True, False))
def test_flow_conservation_both_tiers(analytic_on, monkeypatch):
    result = _result(
        "httpd", "draco-hw-complete", monkeypatch,
        analytic_on=analytic_on, events=12_000,
    )
    assert sum(result.flow_counts.values()) == result.events_measured


def test_short_traces_stay_exact(monkeypatch):
    # Below HW_MIN_EVENTS the sampled plan must decline and the exact
    # kernels run: unit-sized traces never see extrapolated numbers.
    result = _result(
        "httpd", "draco-hw-complete", monkeypatch, analytic_on=True, events=3_000
    )
    assert not result.derived
    assert result.analytic is None


# -- kill switch and backend seam ---------------------------------------


def test_kill_switch_disables_backend(monkeypatch):
    monkeypatch.setenv("REPRO_ANALYTIC", "0")
    assert not analytic.analytic_enabled()
    assert analytic.resolve_backend() == "bulk"
    monkeypatch.setenv("REPRO_BULK", "0")
    assert analytic.resolve_backend() == "event"
    monkeypatch.delenv("REPRO_ANALYTIC")
    assert analytic.resolve_backend() == "analytic"


def test_resolve_backend_override_and_validation():
    assert analytic.resolve_backend("bulk") == "bulk"
    assert analytic.resolve_backend("event") == "event"
    assert analytic.resolve_backend("analytic") == "analytic"
    with pytest.raises(ValueError):
        analytic.resolve_backend("quantum")


def test_scheduler_backend_seam_degrades_identically():
    # "analytic" degrades to the exact bulk kernel in the scheduler:
    # both spellings must produce byte-identical accounting.
    from repro.kernel.scheduler import RoundRobinScheduler, ScheduledProcess
    from repro.seccomp.toolkit import generate_complete
    from repro.workloads.catalog import CATALOG
    from repro.workloads.generator import generate_trace

    def snapshot(backend):
        processes = []
        for name in ("grep", "pipe-ipc"):
            trace = list(generate_trace(CATALOG[name], 800, seed=3))
            from repro.syscalls.events import SyscallTrace

            strace = SyscallTrace(trace)
            processes.append(
                ScheduledProcess(
                    name=name,
                    profile=generate_complete(strace, name),
                    trace=strace,
                    work_cycles_per_syscall=200.0,
                )
            )
        sched = RoundRobinScheduler(processes, quantum_syscalls=100)
        result = sched.run(backend=backend)
        return json.dumps(
            {
                "per_process": result.per_process,
                "flows": result.per_process_flows,
                "cycles": result.per_process_flow_cycles,
                "switches": result.context_switches,
            },
            sort_keys=True,
        )

    assert snapshot("analytic") == snapshot("bulk")


def test_result_cache_keyed_on_analytic(monkeypatch, tmp_path):
    # Toggling REPRO_ANALYTIC must never serve a result computed by the
    # other tier from the on-disk cache: the digest carries the tier.
    from repro.experiments import cache

    store = cache.ResultCache(root=tmp_path)
    monkeypatch.setenv("REPRO_ANALYTIC", "1")
    on = store.result_key("fig12", {"events": 100})
    monkeypatch.setenv("REPRO_ANALYTIC", "0")
    off = store.result_key("fig12", {"events": 100})
    assert on != off


# -- RunTrace: the pre-coalesced trace container ------------------------


class TestRunTrace:
    def test_protocol_and_coalescing(self):
        from repro.syscalls.events import RunTrace, make_event

        a = make_event("read", (3, 64))
        b = make_event("write", (1, 64))
        t = RunTrace([(a, 3), (a, 2), (b, 1)])
        assert len(t) == 6
        assert list(t.iter_runs()) == [(a, 5), (b, 1)]
        assert list(t) == [a] * 5 + [b]
        assert t.unique_sids() == tuple(sorted({a.sid, b.sid}))

    def test_rejects_negative_runs(self):
        from repro.syscalls.events import RunTrace, make_event

        with pytest.raises(ValueError):
            RunTrace([(make_event("read", (3, 64)), -1)])

    def test_equivalent_to_expanded_trace(self):
        from repro.experiments.runner import get_context
        from repro.kernel.simulator import run_trace
        from repro.syscalls.events import RunTrace, SyscallTrace, iter_runs

        ctx = get_context("grep", events=1_500, seed=5)
        expanded = SyscallTrace(list(ctx.trace))
        coalesced = RunTrace(iter_runs(list(ctx.trace)))
        results = []
        for trace in (expanded, coalesced):
            regime = ctx.make_regime("syscall-complete")
            result = run_trace(
                trace,
                regime,
                work_cycles_per_syscall=ctx.work_cycles,
                syscall_base_cycles=ctx.syscall_base_cycles,
                workload_name="grep",
            )
            payload = dataclasses.asdict(result)
            payload.pop("analytic")
            results.append(json.dumps(payload, sort_keys=True))
        assert results[0] == results[1]


# -- plan sizing --------------------------------------------------------


def _windows(total, warmup, distinct, cold):
    """Synthetic TraceWindows: `distinct` values in the warm window plus
    `cold` first-seen values in the measured window."""
    warm_count = warmup // distinct
    warm = tuple((f"w{i}", warm_count) for i in range(distinct - 1))
    warm += ((f"w{distinct - 1}", warmup - warm_count * (distinct - 1)),)
    measured_total = total - warmup
    measured = tuple((f"c{i}", 1) for i in range(cold))
    rest = measured_total - cold
    measured += (("w0", rest),)
    return analytic.TraceWindows(
        total=total,
        warmup=warmup,
        warm=warm,
        measured=measured,
        distinct=distinct + cold,
        distinct_new_measured=cold,
    )


class TestPlanSampledWindow:
    def test_declines_short_traces(self):
        w = _windows(total=8_000, warmup=3_200, distinct=10, cold=0)
        assert analytic.plan_sampled_window(w) is None

    def test_plans_long_traces(self):
        w = _windows(total=12_000, warmup=4_800, distinct=10, cold=0)
        plan = analytic.plan_sampled_window(w)
        assert plan is not None and plan.mode == "sampled"
        assert analytic.HW_WARM_MIN <= plan.warm_events <= analytic.HW_WARM_CAP
        assert plan.sample_events <= analytic.HW_SAMPLE_CAP

    def test_declines_cold_dominated_windows(self):
        cold = int(0.3 * 7_200)
        w = _windows(total=12_000, warmup=4_800, distinct=10, cold=cold)
        assert analytic.plan_sampled_window(w) is None

    def test_transient_repeats_deterministic(self):
        w = _windows(total=12_000, warmup=4_800, distinct=10, cold=0)
        plan = analytic.plan_sampled_window(w, switch_period_events=3_800.0)
        assert plan is not None
        assert plan.transient_repeats == 12_000 // 3_800 - 4_800 // 3_800
        assert 0 < plan.transient_events <= analytic.HW_TRANSIENT_CAP

    def test_warm_shrinks_to_fit_tight_quantum(self):
        # A wide working set pushes warm to its cap; a quantum shorter
        # than warm+sample must shrink the warm prefix, not decline.
        w = _windows(total=12_000, warmup=4_800, distinct=2_000, cold=0)
        wide = analytic.plan_sampled_window(w, switch_period_events=30_000.0)
        tight = analytic.plan_sampled_window(w, switch_period_events=3_000.0)
        assert wide is not None and tight is not None
        assert tight.warm_events < wide.warm_events
        assert (
            tight.warm_events + tight.sample_events
            < analytic.HW_PERIOD_HEADROOM * 3_000.0
        )

    def test_declines_quantum_too_small_for_any_warm(self):
        w = _windows(total=12_000, warmup=4_800, distinct=10, cold=0)
        assert analytic.plan_sampled_window(w, switch_period_events=900.0) is None


# -- closed-form machinery: properties ----------------------------------


@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=40),
    st.integers(1, 39),
)
@settings(max_examples=60, deadline=None)
def test_che_occupancy_matches_capacity(weights, capacity):
    total = sum(weights)
    probs = [w / total for w in weights]
    if capacity >= len(probs):
        assert analytic.steady_hit_rate(probs, capacity) == 1.0
        return
    t = analytic.che_characteristic_time(probs, capacity)
    occupancy = sum(1 - math.exp(-p * t) for p in probs)
    assert occupancy == pytest.approx(capacity, rel=1e-4)
    hit = analytic.steady_hit_rate(probs, capacity)
    assert 0.0 <= hit <= 1.0
    # Caching can never beat full residency or lose to random eviction
    # of the capacity share under a skew-free lower bound.
    assert hit >= capacity / len(probs) - 1e-9


@given(
    st.floats(1.0, 50.0),
    st.floats(10.0, 5_000.0),
    st.floats(0.1, 100.0),
)
@settings(max_examples=60, deadline=None)
def test_fixed_point_converges_on_contractions(base, budget, start):
    # q = budget / (base + budget/(1+q)) is a contraction on q > 0.
    f = lambda q: budget / (base + budget / (1.0 + q))
    q, iterations = analytic.fixed_point(f, start)
    assert iterations < 256
    assert f(q) == pytest.approx(q, rel=1e-6, abs=1e-6)


@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
    st.integers(0, 1_000_000),
)
@settings(max_examples=100, deadline=None)
def test_scale_counts_exact_total_and_proportional(counts, target):
    if sum(counts) == 0:
        counts = counts + [1]
    scaled = analytic.scale_counts(counts, target)
    assert sum(scaled) == target
    assert all(s >= 0 for s in scaled)
    total = sum(counts)
    for raw, out in zip(counts, scaled):
        exact = raw * target / total
        # Largest-remainder rounding stays within one unit of exact.
        assert abs(out - exact) < 1.0 + 1e-9


@given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_ledger_conservation_under_tier_toggle(a, b, c):
    # Conservation is arithmetic, not statistical: scaled buckets always
    # re-sum to the target regardless of the mix.
    counts = [a, b, c]
    if sum(counts) == 0:
        counts = [1, 0, 0]
    target = a + 2 * b + 3 * c
    assert sum(analytic.scale_counts(counts, target)) == target
