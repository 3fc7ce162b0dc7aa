"""Tests for the fleet-scale FaaS serving model and its experiment."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ledger
from repro.common.errors import ConfigError
from repro.kernel.fleet import (
    POLICIES,
    POLICY_ROUND_ROBIN,
    POLICY_SHORTEST,
    FleetParams,
    calibrate_classes,
    generate_load,
    simulate_fleet,
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
        assert all(a.arrival_ms <= b.arrival_ms for a, b in zip(load, load[1:]))

    def test_popularity_is_skewed(self, tiny_run):
        params, _, load = tiny_run
        counts = {}
        for inv in load:
            counts[inv.tenant] = counts.get(inv.tenant, 0) + 1
        hottest = max(counts.values())
        # Zipf(1.2) over 40 tenants: the head tenant dominates a
        # uniform share (1500/40 = 37.5) by a wide margin.
        assert hottest > 4 * params.invocations / params.tenants

    def test_durations_are_capped(self, tiny_run):
        params, _, load = tiny_run
        assert all(1 <= inv.reps <= params.max_reps for inv in load)

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_load(FleetParams(tenants=0))
        with pytest.raises(ConfigError):
            generate_load(FleetParams(workers=64, max_containers=10))
        with pytest.raises(ConfigError):
            simulate_fleet(_tiny(invocations=10), policy="fifo")


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
        assert stages["counters"]["executed"] == 5
        assert stages["counters"]["stored"] == 5
        kinds = {row["kind"] for row in stages["detail"]}
        assert {"fleet-load", "fleet-calibration", "fleet-eval", "analysis"} <= kinds

        # Refresh: intermediates dedupe on disk, only analysis re-runs.
        refreshed = run_suite(
            ["fleet"], events=1200, cache_dir=str(tmp_path), cache_mode="refresh"
        )
        counters = refreshed.outcomes[0].record.simulation["stages"]["counters"]
        assert counters["hit"] == 4
        assert counters["executed"] == 1

        with storage.cache_overrides(disable=True):
            direct = by_id("fleet").run(events=1200)
        assert direct.to_markdown() == staged.results["fleet"].to_markdown()

    def test_staged_run_builds_load_and_calibrations_once(self, tmp_path, monkeypatch):
        """The fleet-load and fleet-calibration stages build the inputs
        the fleet-eval stages then reuse from the in-process memo."""
        from repro.experiments import fleet_serving
        from repro.experiments.engine import run_suite
        from repro.kernel import fleet

        calls = {"generate_load": 0, "calibrate_classes": 0}

        def counted(name, build):
            def wrapper(params):
                calls[name] += 1
                return build(params)
            return wrapper

        monkeypatch.setattr(fleet_serving, "_SHARED", {})
        for name, build in (
            ("generate_load", generate_load),
            ("calibrate_classes", calibrate_classes),
        ):
            wrapper = counted(name, build)
            for module in (fleet, fleet_serving):
                monkeypatch.setattr(module, name, wrapper)
        run = run_suite(["fleet"], events=1200, cache_dir=str(tmp_path))
        assert not run.failures
        assert run.outcomes[0].record.simulation["stages"]["counters"]["executed"] == 5
        assert calls == {"generate_load": 1, "calibrate_classes": 1}

    def test_summary_renders_fleet_counters(self):
        from repro.experiments.engine import run_suite

        run = run_suite(["fleet"], events=1200, cache_mode="off")
        summary = run.report.format_summary()
        assert "fleet[round-robin]" in summary
        assert "cold-resume storm" in summary
        assert run.report.totals("fleet")[POLICY_SHORTEST]["invocations"] == 1200

    def test_default_params_meet_fleet_scale(self):
        from repro.experiments.fleet_serving import resolve_params

        params = resolve_params()
        assert params.tenants >= 1000
        assert params.invocations >= 100_000
        # Engine smoke runs scale down with the events knob.
        small = resolve_params(events=1200)
        assert small.invocations == 1200
        assert small.tenants < 100
