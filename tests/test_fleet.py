"""Tests for the fleet-scale FaaS serving model and its experiment."""

import hashlib
import json
import time
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import ledger
from repro.common.errors import ConfigError
from repro.experiments.fleet_serving import resolve_params
from repro.kernel.fleet import (
    POLICIES,
    POLICY_ROUND_ROBIN,
    POLICY_SHORTEST,
    FleetParams,
    calibrate_classes,
    generate_load,
    simulate_fleet,
    wait_summary,
)


def _tiny(tenants=40, invocations=1500, **overrides):
    defaults = dict(
        tenants=tenants,
        invocations=invocations,
        function_classes=3,
        workers=12,
        max_containers=30,
        keep_alive_ms=200.0,
    )
    defaults.update(overrides)
    return FleetParams(**defaults)


@pytest.fixture(scope="module")
def tiny_run():
    params = _tiny()
    classes = calibrate_classes(params)
    load = generate_load(params)
    return params, classes, load


class TestLoadGeneration:
    def test_deterministic_and_sorted(self, tiny_run):
        params, _, load = tiny_run
        assert load == generate_load(params)
        assert len(load) == params.invocations
        assert len(load.tenant) == len(load.arrival_ms) == len(load.reps)
        arrivals = load.arrival_ms
        assert all(a <= b for a, b in zip(arrivals, arrivals[1:]))

    def test_popularity_is_skewed(self, tiny_run):
        params, _, load = tiny_run
        hottest = max(Counter(load.tenant).values())
        # Zipf(1.2) over 40 tenants: the head tenant dominates a
        # uniform share (1500/40 = 37.5) by a wide margin.
        assert hottest > 4 * params.invocations / params.tenants

    def test_durations_are_capped(self, tiny_run):
        params, _, load = tiny_run
        assert all(1 <= reps <= params.max_reps for reps in load.reps)

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_load(FleetParams(tenants=0))
        with pytest.raises(ConfigError):
            generate_load(FleetParams(workers=64, max_containers=10))
        with pytest.raises(ConfigError):
            simulate_fleet(_tiny(invocations=10), policy="fifo")
        # A zero burst size would divide by zero; a negative service or
        # spawn time would schedule a finish before its start.
        for bad in (
            dict(burst_size=0),
            dict(ms_per_syscall=-1.0),
            dict(ms_per_syscall=0.0),
            dict(cold_spawn_ms=-100.0),
        ):
            with pytest.raises(ConfigError):
                simulate_fleet(_tiny(invocations=3000, **bad), record_telemetry=False)
        # Without bursts the burst size is never used.
        generate_load(_tiny(invocations=10, burst_every=0, burst_size=0))


class TestConservation:
    """Fleet totals must equal the sum of per-tenant ledger buckets."""

    @settings(max_examples=8, deadline=None)
    @given(
        tenants=st.integers(2, 25),
        invocations=st.integers(10, 400),
        workers=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fleet_equals_sum_of_tenants(self, tenants, invocations, workers, seed):
        params = FleetParams(
            tenants=tenants,
            invocations=invocations,
            seed=seed,
            function_classes=2,
            workers=workers,
            max_containers=workers + 4,
            keep_alive_ms=100.0,
        )
        result = simulate_fleet(params, record_telemetry=False)
        merged = ledger.FlowLedger()
        for tenant in result.per_tenant:
            merged.merge(ledger.FlowLedger(tenant.flow_counts, tenant.flow_cycles))
        assert merged.counts == result.flow_counts
        assert result.syscalls == merged.total_events()
        assert sum(t.syscalls for t in result.per_tenant) == result.syscalls
        want = merged.total_cycles()
        assert result.check_cycles == pytest.approx(want, rel=ledger.CYCLE_RTOL)
        assert sum(t.invocations for t in result.per_tenant) == invocations

    def test_counter_consistency(self, tiny_run):
        params, classes, load = tiny_run
        for policy in POLICIES:
            result = simulate_fleet(
                params, policy, classes=classes, load=load, record_telemetry=False
            )
            counters = result.counters
            assert counters["cold_starts"] + counters["warm_starts"] == len(load)
            assert counters["spawns"] == counters["cold_starts"]
            # Every spawned container is either evicted, expired, or
            # still resident when the simulation drains.
            assert (
                counters["idle_remaining"]
                == counters["spawns"]
                - counters["evictions"]
                - counters["keepalive_expiries"]
            )
            assert 0 <= counters["idle_remaining"] <= params.max_containers
            assert counters["peak_containers"] <= params.max_containers
            assert counters["peak_busy"] <= params.workers
            assert counters["active_tenants"] == len(result.per_tenant)


class TestServing:
    def test_deterministic_under_fixed_seed(self, tiny_run):
        params, classes, load = tiny_run
        first = simulate_fleet(params, classes=classes, load=load, record_telemetry=False)
        second = simulate_fleet(params, record_telemetry=False)  # recompute inputs
        assert first.to_json_dict() == second.to_json_dict()

    def test_shortest_task_cuts_queueing_under_overload(self):
        """The serverless scheduler ablation: with heavy-tailed
        durations and an overloaded pool, shortest-expected-task
        dispatch beats FIFO on mean wait (classic SJF result)."""
        params = _tiny(tenants=30, invocations=2500, workers=4, max_containers=12)
        classes = calibrate_classes(params)
        load = generate_load(params)
        rr = simulate_fleet(
            params, POLICY_ROUND_ROBIN, classes=classes, load=load,
            record_telemetry=False,
        )
        sjf = simulate_fleet(
            params, POLICY_SHORTEST, classes=classes, load=load,
            record_telemetry=False,
        )
        assert rr.wait_ms["mean"] > 0  # genuinely overloaded
        assert sjf.wait_ms["mean"] < rr.wait_ms["mean"]
        assert sjf.wait_ms["p50"] <= rr.wait_ms["p50"]
        # Same arrivals either way.
        assert sjf.invocations == rr.invocations

    def test_keep_alive_expires_idle_containers(self):
        params = _tiny(invocations=800, keep_alive_ms=5.0)
        result = simulate_fleet(params, record_telemetry=False)
        assert result.counters["keepalive_expiries"] > 0

    def test_cold_resume_storms_detected(self):
        # Frequent lulls longer than keep-alive force cold restarts in
        # tight windows.
        params = _tiny(
            invocations=2000,
            keep_alive_ms=50.0,
            lull_every=300,
            storm_window_ms=100.0,
            storm_threshold=5,
        )
        result = simulate_fleet(params, record_telemetry=False)
        assert result.counters["cold_resume_storms"] >= 1
        assert result.counters["max_cold_in_window"] >= params.storm_threshold

    def test_footprint_extrapolation(self, tiny_run):
        params, classes, load = tiny_run
        result = simulate_fleet(
            params, classes=classes, load=load, record_telemetry=False
        )
        per_container = result.footprint["bytes_per_container"]
        assert per_container > 0
        assert result.footprint["extrapolated_gb"] == pytest.approx(
            per_container * params.target_containers / 1024**3
        )
        assert result.footprint["fleet_peak_bytes"] == sum(
            t.footprint_peak_bytes for t in result.per_tenant
        )

    def test_scaling_is_linear_not_quadratic(self):
        """O(N) smoke: 5000 mostly-idle tenants must finish quickly —
        the fleet loops never rescan the whole tenant population."""
        params = FleetParams(
            tenants=5000,
            invocations=10_000,
            function_classes=2,
            workers=32,
            max_containers=64,
            keep_alive_ms=50.0,
        )
        classes = calibrate_classes(params)
        load = generate_load(params)
        started = time.perf_counter()
        result = simulate_fleet(
            params, classes=classes, load=load, record_telemetry=False
        )
        elapsed = time.perf_counter() - started
        assert result.invocations == 10_000
        assert elapsed < 20.0  # generous CI bound; locally ~0.2s

    def test_default_scale_memory(self):
        """At the default scale the load is three machine-word columns
        (2.8 MB; 16.3 MB as one tuple per invocation), and serving one
        policy peaks 3.9 MB above its start (7.2 MB when every wait,
        96% of them exactly zero, was stored)."""
        params = resolve_params()
        classes = calibrate_classes(params)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            load = generate_load(params)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            simulate_fleet(
                params, POLICY_ROUND_ROBIN, classes=classes, load=load,
                record_telemetry=False,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert start - before <= 4 * 2**20
        assert peak - start <= 5 * 2**20


def _full_sort_summary(waits):
    """The wait summary from the sorted list of every wait."""
    waits = sorted(waits)

    def percentile(fraction):
        if not waits:
            return 0.0
        return waits[min(len(waits) - 1, int(fraction * len(waits)))]

    return {
        "mean": sum(waits) / len(waits) if waits else 0.0,
        "p50": percentile(0.50),
        "p95": percentile(0.95),
        "p99": percentile(0.99),
        "max": waits[-1] if waits else 0.0,
    }


_WAITS = st.lists(
    st.one_of(
        st.just(0.0),
        st.sampled_from((0.01, 0.5, 7.25)),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    ),
    max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(waits=_WAITS)
@example(waits=[])
@example(waits=[0.0])
@example(waits=[3.5])
@example(waits=[0.0] * 40)
@example(waits=[0.3, 1e-9, 5.0, 0.1, 0.7])
@example(waits=[2.0, 0.0, 2.0, 0.0, 0.0, 2.0, 0.1, 0.1])
def test_zero_count_summary_equals_full_sort(waits):
    """Counting the zero waits and sorting the rest gives every
    summary float bit for bit as sorting all waits does."""
    zeros = sum(1 for wait in waits if not wait)
    rest = [wait for wait in waits if wait]
    assert wait_summary(zeros, rest) == _full_sort_summary(waits)


def _on_grid(ms):
    """Floor each arrival to a multiple of *ms*."""
    return lambda load: replace(
        load, arrival_ms=array("d", (ms * (t // ms) for t in load.arrival_ms))
    )


def _zero_reps(every):
    """Give every *every*-th invocation zero body repetitions."""
    return lambda load: replace(
        load,
        reps=array("q", (reps if seq % every else 0 for seq, reps in enumerate(load.reps))),
    )


#: ``(params, reshape, digests...)``: SHA-256 of each policy's
#: ``FleetResult.to_json_dict()`` as sorted-key JSON, recorded from the
#: serving loop that charged each start to a per-tenant ledger and kept
#: idle containers in two lazy heaps.  A ``reshape`` maps the generated
#: load's columns before serving: the ``ties`` load lies on a 2 ms grid with
#: integral service times, so containers go idle at equal times and the
#: FIFO's container-id tie rule decides evictions; ``zero-reps`` gives
#: every third invocation ``reps == 0``, which charges its start ledger
#: once and no steady body.
PINNED = {
    "default": (
        resolve_params(),
        None,
        "f54f2a8ed3c043de7095b805f05e678db9507bcbe730e242b870ef5c3bd71e16",
        "1b6dbdb69e2aba9ae44e594376f6f025a6acbd23abcb8d2e267690a3f4aae74d",
    ),
    "events-1200": (
        resolve_params(events=1200),
        None,
        "1d1f3c9cc10d2448bc08f2773760ff6184c4d7fc5d5af4933958ca05c983a5ba",
        "b1b8b60ccd978f4cd34f8abdd77732cb034348eccf96e895cbe266ceb1f91b4d",
    ),
    "tiny": (
        _tiny(),
        None,
        "e6d8c917feeea4e9ca7f9469aa56798f118cdbd1ff9543050ddea61934d6d8d7",
        "1befebdcb84dc6a8a0d4676d0d20e33878b4ac55675e49ce31ffdfaf476f97ff",
    ),
    "overload": (
        _tiny(tenants=30, invocations=2500, workers=4, max_containers=12),
        None,
        "2227bc5f6b6351c69e3b5fbe27db281a3c6661a86af1226302e3837b0281cb55",
        "aeebedf3f7b09bfcd8b49ee6259be92e9fb4bf6fa9cf54416d1058f955c384fd",
    ),
    "storm": (
        _tiny(
            invocations=2000,
            keep_alive_ms=50.0,
            lull_every=300,
            storm_window_ms=100.0,
            storm_threshold=5,
        ),
        None,
        "b3e306491a52b20a0e45bf2ec631caca51f0c89c73dde313c77327db290421f6",
        "180e690df67003c39df88d73921e36ae193efc59b1d00c34e8576e1cab4f3363",
    ),
    "seed7": (
        FleetParams(tenants=500, invocations=30_000, seed=7),
        None,
        "f76f514d5521670ab8315d4ff170ea7062f2fdc5819ec39ff9026515569198d4",
        "97854691c3dabf834b829713f7438952f77d5ee854593b213ff8863acb6029ae",
    ),
    "ties": (
        FleetParams(
            tenants=26,
            invocations=900,
            seed=0,
            function_classes=1,
            workers=4,
            max_containers=6,
            keep_alive_ms=400.0,
            ms_per_syscall=0.25,
            cold_spawn_ms=4.0,
        ),
        _on_grid(2.0),
        "39d4c42a41a152dfddfeac16d9c6b1033967221170a1671513db46f9c9842319",
        "61e324b349c319db83b8f32b71f1f1a126821f017f813f84d93c997c521f2d5b",
    ),
    "zero-reps": (
        _tiny(),
        _zero_reps(3),
        "6a71fe6604fa415243ca9a644e8c0f1210b2dd5cb725305743e6b13a177866a4",
        "30c2c21e61a0b7b5e1a08ec5a9b68b2c686f97a1ac96a2267d4409671ec5b278",
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_results_match_pinned_digests(name):
    params, reshape, *digests = PINNED[name]
    classes = calibrate_classes(params)
    load = generate_load(params)
    if reshape is not None:
        load = reshape(load)
    got = []
    for policy in POLICIES:
        result = simulate_fleet(
            params, policy, classes=classes, load=load, record_telemetry=False
        )
        document = json.dumps(result.to_json_dict(), sort_keys=True)
        got.append(hashlib.sha256(document.encode()).hexdigest())
    assert got == digests


class TestTelemetry:
    def test_fleet_counters_reach_the_snapshot(self):
        from repro.common import telemetry

        telemetry.reset_counters()
        try:
            params = _tiny(invocations=300)
            simulate_fleet(params)
            snapshot = telemetry.counters_snapshot()
            fleet = snapshot["fleet"][POLICY_ROUND_ROBIN]
            assert fleet["invocations"] == 300
            assert fleet["cold_starts"] + fleet["warm_starts"] == 300
            regime = f"fleet-{POLICY_ROUND_ROBIN}"
            assert snapshot["regime_events"][regime] > 0
            flows = snapshot["flows"][regime]
            assert flows["events"] == sum(flows["counts"].values())
        finally:
            telemetry.reset_counters()


class TestExperiment:
    def test_flat_matches_staged_and_stages_dedupe(self, tmp_path):
        """The staged fleet table equals the registry entry's own flat
        (unstaged) ``run()``, and its stages dedupe on disk."""
        from repro.common import storage
        from repro.experiments.engine import run_suite
        from repro.experiments.registry import by_id

        staged = run_suite(["fleet"], events=1200, cache_dir=str(tmp_path))
        record = staged.outcomes[0].record
        stages = record.simulation["stages"]
        assert stages["counters"]["executed"] == 2
        assert stages["counters"]["stored"] == 2
        kinds = [row["kind"] for row in stages["detail"]]
        assert kinds == ["fleet-eval", "analysis"]

        # Refresh: the fleet-eval stage dedupes on disk, only analysis
        # re-runs.
        refreshed = run_suite(
            ["fleet"], events=1200, cache_dir=str(tmp_path), cache_mode="refresh"
        )
        counters = refreshed.outcomes[0].record.simulation["stages"]["counters"]
        assert counters["hit"] == 1
        assert counters["executed"] == 1

        with storage.cache_overrides(disable=True):
            direct = by_id("fleet").run(events=1200)
        assert direct.to_markdown() == staged.results["fleet"].to_markdown()

    def test_staged_run_builds_load_and_calibrations_once(self, tmp_path, monkeypatch):
        """The one fleet-eval stage builds the load and the class
        calibrations once and serves both policies from them."""
        from repro.experiments import fleet_serving
        from repro.experiments.engine import run_suite
        from repro.kernel import fleet

        calls = {"generate_load": 0, "calibrate_classes": 0}

        def counted(name, build):
            def wrapper(params):
                calls[name] += 1
                return build(params)
            return wrapper

        for name, build in (
            ("generate_load", generate_load),
            ("calibrate_classes", calibrate_classes),
        ):
            wrapper = counted(name, build)
            for module in (fleet, fleet_serving):
                monkeypatch.setattr(module, name, wrapper)
        run = run_suite(["fleet"], events=1200, cache_dir=str(tmp_path))
        assert not run.failures
        assert run.outcomes[0].record.simulation["stages"]["counters"]["executed"] == 2
        assert calls == {"generate_load": 1, "calibrate_classes": 1}

    def test_summary_renders_fleet_counters(self):
        from repro.experiments.engine import run_suite

        run = run_suite(["fleet"], events=1200, cache_mode="off")
        summary = run.report.format_summary()
        assert "fleet[round-robin]" in summary
        assert "cold-resume storm" in summary
        assert run.report.totals("fleet")[POLICY_SHORTEST]["invocations"] == 1200

    def test_default_params_meet_fleet_scale(self):
        params = resolve_params()
        assert params.tenants >= 1000
        assert params.invocations >= 100_000
        # Engine smoke runs scale down with the events knob.
        small = resolve_params(events=1200)
        assert small.invocations == 1200
        assert small.tenants < 100
