"""Tests for the parallel experiment engine, result cache, and telemetry.

Uses the cheap registry entries (tables, small figure subsets via
run_overrides) so the suite stays fast; the CI smoke and benchmarks
exercise the full artifacts.
"""

import json
import os

import pytest

from repro.common.telemetry import RunReport
from repro.experiments import cache as result_cache
from repro.experiments import engine
from repro.experiments import pool as warm_pool
from repro.experiments import stages
from repro.experiments.results import ExperimentResult

FAST_IDS = ("table1", "table2", "table3")


@pytest.fixture(autouse=True)
def _tmp_cache(monkeypatch, tmp_path):
    monkeypatch.setenv(result_cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(result_cache.CACHE_DISABLE_ENV, raising=False)
    yield


def _suite_json(run):
    return [o.result.to_json() for o in run.outcomes]


class TestParallelSerialEquality:
    def test_parallel_matches_serial_byte_for_byte(self):
        serial = engine.run_suite(
            FAST_IDS, jobs=1, cache_mode=engine.CACHE_OFF, events=2000
        )
        parallel = engine.run_suite(
            FAST_IDS, jobs=3, cache_mode=engine.CACHE_OFF, events=2000
        )
        assert _suite_json(serial) == _suite_json(parallel)
        assert [o.experiment_id for o in parallel.outcomes] == list(FAST_IDS)

    def test_derived_seeds_are_stable_and_distinct(self):
        a = engine._task_kwargs("table1", None, 42, None)
        b = engine._task_kwargs("table2", None, 42, None)
        assert a["seed"] == engine._task_kwargs("table1", None, 42, None)["seed"]
        assert a["seed"] != b["seed"]

    def test_no_seed_means_module_defaults(self):
        assert engine._task_kwargs("table1", None, None, None) == {}


class TestResultCache:
    def test_second_run_hits(self):
        first = engine.run_suite(("table3",), jobs=1)
        second = engine.run_suite(("table3",), jobs=1)
        assert first.report.records[0].cache == "miss"
        assert second.report.records[0].cache == "hit"
        assert _suite_json(first) == _suite_json(second)

    def test_param_change_invalidates(self):
        engine.run_suite(("table3",), jobs=1)
        reseeded = engine.run_suite(("table3",), jobs=1, seed=7)
        assert reseeded.report.records[0].cache == "miss"

    def test_refresh_recomputes_and_repopulates(self):
        engine.run_suite(("table3",), jobs=1)
        refreshed = engine.run_suite(("table3",), jobs=1, cache_mode=engine.CACHE_REFRESH)
        assert refreshed.report.records[0].cache == "refresh"
        again = engine.run_suite(("table3",), jobs=1)
        assert again.report.records[0].cache == "hit"

    def test_no_cache_never_touches_disk(self):
        run = engine.run_suite(("table3",), jobs=1, cache_mode=engine.CACHE_OFF)
        assert run.report.records[0].cache == "off"
        assert not (result_cache.cache_root() / "results").exists()

    def test_torn_entry_is_a_miss(self):
        run = engine.run_suite(("table3",), jobs=1)
        digest = run.report.records[0].params_digest
        path = result_cache.ResultCache().result_path("table3", digest)
        path.write_text("{ not json")
        again = engine.run_suite(("table3",), jobs=1)
        assert again.report.records[0].cache == "miss"

    def test_round_trip_preserves_result(self):
        run = engine.run_suite(("table2",), jobs=1)
        loaded = engine.run_suite(("table2",), jobs=1)
        fresh = run.results["table2"]
        cached = loaded.results["table2"]
        assert isinstance(cached, ExperimentResult)
        assert cached == fresh
        assert cached.format_table() == fresh.format_table()


class TestCalibrationCache:
    def test_calibration_persisted_and_reused(self):
        from repro.experiments.runner import _cached_context, build_context
        from repro.workloads.catalog import CATALOG

        _cached_context.cache_clear()
        first = build_context(CATALOG["pipe-ipc"], events=2000)
        calibs = list((result_cache.cache_root() / "calibration").glob("*.json"))
        assert calibs, "calibration value should be written to disk"
        second = build_context(CATALOG["pipe-ipc"], events=2000)
        assert second.work_cycles == first.work_cycles
        # a different trace length must not be served the same value
        other = build_context(CATALOG["pipe-ipc"], events=2500)
        assert len(list((result_cache.cache_root() / "calibration").glob("*.json"))) > len(
            calibs
        ) or other.work_cycles != first.work_cycles

    def test_context_memo_keyed_on_costs(self):
        from repro.cpu.params import DEFAULT_SW_COSTS, OLD_KERNEL_SW_COSTS, SoftwareCostParams
        from repro.experiments.runner import get_context

        base = get_context("pipe-ipc", events=2000)
        assert get_context("pipe-ipc", events=2000, costs=DEFAULT_SW_COSTS) is base
        old = get_context("pipe-ipc", events=2000, old_kernel=True)
        assert old is not base
        assert old is get_context("pipe-ipc", events=2000, costs=OLD_KERNEL_SW_COSTS)
        tweaked = get_context(
            "pipe-ipc", events=2000, costs=SoftwareCostParams(syscall_base_cycles=151)
        )
        assert tweaked is not base


class TestFailureIsolation:
    def test_one_failure_does_not_abort_serial(self):
        run = engine.run_suite(
            ("table2", "fig13"),
            jobs=1,
            cache_mode=engine.CACHE_OFF,
            run_overrides={"fig13": {"events": 0}},  # empty trace: raises
        )
        by_exp = {o.experiment_id: o for o in run.outcomes}
        assert by_exp["table2"].ok and by_exp["table2"].result is not None
        assert not by_exp["fig13"].ok and by_exp["fig13"].result is None
        assert "Traceback" in by_exp["fig13"].record.error
        assert run.failures == [by_exp["fig13"]]

    def test_one_failure_does_not_abort_parallel(self):
        run = engine.run_suite(
            ("table2", "fig13", "table3"),
            jobs=3,
            cache_mode=engine.CACHE_OFF,
            run_overrides={"fig13": {"events": 0}},
        )
        statuses = {o.experiment_id: o.ok for o in run.outcomes}
        assert statuses == {"table2": True, "fig13": False, "table3": True}

    def test_failures_are_not_cached(self):
        engine.run_suite(
            ("fig13",), jobs=1, run_overrides={"fig13": {"events": 0}}
        )
        digest_paths = list((result_cache.cache_root() / "results").rglob("*.json"))
        assert digest_paths == []

    def test_unknown_id_raises_up_front(self):
        with pytest.raises(KeyError):
            engine.run_suite(("fig99",))

    def test_dead_worker_fails_its_experiments_not_the_suite(self, monkeypatch):
        """A pool worker that dies mid-stage fails the experiments whose
        stages it had not finished; the suite still returns a record per
        experiment, and the next suite runs on a freshly forked pool."""
        parent = os.getpid()
        run_trace_stage = stages._run_trace_stage

        def die_in_worker(params):
            if os.getpid() != parent:
                os._exit(1)
            return run_trace_stage(params)

        ids = ("fig13", "table2")
        overrides = {"fig13": {"workloads": ("nginx", "pipe-ipc")}}
        warm_pool.shutdown()  # the pool must fork after the patch
        try:
            with monkeypatch.context() as patch:
                patch.setattr(stages, "_run_trace_stage", die_in_worker)
                run = engine.run_suite(
                    ids, events=600, jobs=2,
                    cache_mode=engine.CACHE_OFF, run_overrides=overrides,
                )
            by_exp = {o.experiment_id: o for o in run.outcomes}
            assert list(by_exp) == list(ids)
            assert not by_exp["fig13"].ok and by_exp["fig13"].result is None
            assert "BrokenProcessPool" in by_exp["fig13"].record.error

            again = engine.run_suite(
                ids, events=600, jobs=2,
                cache_mode=engine.CACHE_OFF, run_overrides=overrides,
            )
            assert not again.failures
        finally:
            warm_pool.shutdown()


class TestUnwritableCache:
    """A cache directory that refuses writes degrades the run to
    uncached, with a warning, instead of failing it.  The cache root
    sits under a regular file: tests run as root, so ``chmod`` cannot
    make a directory unwritable."""

    IDS = ("fig13", "table2")
    OVERRIDES = {"fig13": {"workloads": ("pipe-ipc",)}}

    @pytest.fixture
    def blocked(self, tmp_path):
        (tmp_path / "file").write_text("not a directory")
        return tmp_path / "file" / "cache"

    def test_run_completes_uncached_with_a_warning(self, blocked):
        run = engine.run_suite(
            self.IDS, events=600, cache_dir=str(blocked), run_overrides=self.OVERRIDES
        )
        assert not run.failures
        uncached = engine.run_suite(
            self.IDS, events=600, cache_mode=engine.CACHE_OFF, run_overrides=self.OVERRIDES
        )
        assert [o.result.to_markdown() for o in run.outcomes] == [
            o.result.to_markdown() for o in uncached.outcomes
        ]
        assert run.report.totals("cache_store_skipped") > 0
        assert "cache write(s) skipped" in run.report.format_summary()

    def test_cli_warns_instead_of_raising(self, blocked, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2", "--quiet", "--cache-dir", str(blocked)]) == 0
        captured = capsys.readouterr()
        assert "cache write(s) skipped" in captured.out
        assert "warning: run report not written" in captured.err


class TestTelemetryReport:
    def test_report_records_timing_and_simulation(self):
        run = engine.run_suite(
            ("fig13",),
            jobs=1,
            cache_mode=engine.CACHE_OFF,
            run_overrides={"fig13": {"events": 2000, "workloads": ("pipe-ipc",)}},
        )
        record = run.report.records[0]
        assert record.ok and record.cache == "off"
        assert record.wall_time_s > 0
        sim = record.simulation
        assert sim["traces_run"] >= 1
        # events_simulated covers the measured window only; warm-up
        # events are accounted separately so the two sum to the trace.
        assert sim["events_simulated"] >= 1200
        assert sim["warmup_events"] >= 800
        assert sim["events_simulated"] + sim["warmup_events"] >= 2000
        assert sim["total_cycles"] > 0
        assert any(v > 0 for v in sim["regime_cycles"].values())

    def test_report_round_trip_and_summary(self, tmp_path):
        run = engine.run_suite(("table2",), jobs=1)
        path = engine.write_report(run, str(tmp_path / "report.json"))
        loaded = RunReport.read(path)
        assert [r.experiment_id for r in loaded.records] == ["table2"]
        latest = RunReport.read(result_cache.cache_root() / "runs" / "latest.json")
        assert latest.to_json_dict() == loaded.to_json_dict()
        summary = loaded.format_summary()
        assert "table2" in summary and "hit" in summary or "miss" in summary

    def test_cli_summary(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2", "--quiet"]) == 0
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "run summary" in out and "table2" in out

    def test_cli_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig99"]) == 2


class TestCacheKeying:
    def test_params_digest_order_insensitive(self):
        a = result_cache.params_digest({"x": 1, "y": 2})
        b = result_cache.params_digest({"y": 2, "x": 1})
        assert a == b
        assert a != result_cache.params_digest({"x": 1, "y": 3})

    def test_code_fingerprint_stable(self):
        assert result_cache.code_fingerprint() == result_cache.code_fingerprint()
        assert len(result_cache.code_fingerprint()) == 20
