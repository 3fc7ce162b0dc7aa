"""Stage-graph orchestrator: differential identity, stage-tier
corruption fallback, cross-experiment dedup, and stage-scoped refresh.

The contract under test (docs/ARCHITECTURE.md): the suite runs as a
DAG of content-addressed stages whose markdown output is byte-identical
to each registry entry's own ``run()``; identical stages requested by
several experiments execute exactly once per cold run; a corrupt
``stages/`` entry always reads as a miss and rebuilds identically; and
``--refresh`` recomputes only terminal (analysis) stages while serving
intermediates from disk.
"""

import json

import pytest

from repro.common import storage, telemetry
from repro.experiments import cache as result_cache
from repro.experiments import engine, runner
from repro.experiments.registry import REGISTRY
from repro.experiments.stages import EvalPlan, build_plan, monolithic_plan

EVENTS = 1200
#: Two-workload slice shared by the dedup / incremental tests: enough
#: to prove per-workload stage sharing without full-catalog runtime.
WORKLOADS = ("nginx", "pipe-ipc")
HW_SUITE = ("fig12", "fig13", "flowmix")
HW_OVERRIDES = {eid: {"workloads": WORKLOADS, "events": EVENTS} for eid in HW_SUITE}


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Fresh on-disk cache and clean in-process memos per test."""
    root = tmp_path / "cache"
    monkeypatch.setenv(result_cache.CACHE_DIR_ENV, str(root))
    runner.reset_context_memos()
    telemetry.reset_counters()
    yield root
    runner.reset_context_memos()


def _markdowns(run):
    return {
        o.experiment_id: o.result.to_markdown()
        for o in run.outcomes
        if o.result is not None
    }


def _stage_counters(record):
    return record.simulation["stages"]["counters"]


def _stage_detail(record):
    return record.simulation["stages"]["detail"]


class TestStageTier:
    def test_round_trip(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_stage("eval", "abc123", {"total_cycles": 42})
        assert store.load_stage("eval", "abc123") == {"total_cycles": 42}

    def test_missing_is_a_miss(self, cache_dir):
        assert result_cache.ResultCache().load_stage("eval", "absent") is None

    def test_wrong_kind_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_stage("eval", "abc123", {"x": 1})
        assert store.load_stage("trace", "abc123") is None

    def test_version_mismatch_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_stage("eval", "abc123", {"x": 1})
        path = store.stage_path("eval", "abc123")
        document = json.loads(path.read_text())
        document["version"] = result_cache.STAGE_FORMAT_VERSION + 1
        path.write_text(json.dumps(document))
        assert store.load_stage("eval", "abc123") is None

    def test_garbage_and_truncation_are_misses(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_stage("eval", "abc123", {"x": 1})
        path = store.stage_path("eval", "abc123")
        path.write_text(path.read_text()[:10])
        assert store.load_stage("eval", "abc123") is None
        path.write_text("\x00 not json at all")
        assert store.load_stage("eval", "abc123") is None


class TestPlanner:
    PLAN = EvalPlan(regimes=("draco-hw-complete",))

    def test_unknown_kwarg_falls_back(self):
        assert build_plan("fig13", self.PLAN, {"bogus": 1}, "d") is None

    def test_unknown_workload_falls_back(self):
        assert build_plan("fig13", self.PLAN, {"workloads": ("nope",)}, "d") is None

    def test_insertion_order_is_topological(self):
        plan = build_plan("fig13", self.PLAN, {"workloads": WORKLOADS}, "d")
        seen = set()
        for key, stage in plan.stages.items():
            assert all(dep in seen for dep in stage.deps), stage.label
            seen.add(key)
        assert plan.terminal == key  # analysis stage comes last

    def test_old_kernel_changes_eval_digests_only(self):
        new = build_plan("fig13", self.PLAN, {"workloads": WORKLOADS}, "d")
        old_plan = EvalPlan(regimes=("draco-hw-complete",), old_kernel=True)
        old = build_plan("fig17", old_plan, {"workloads": WORKLOADS}, "d")
        new_by_kind = {k.kind: set() for k in new.stages.values()}
        for stage in new.stages.values():
            new_by_kind[stage.kind].add(stage.key)
        for stage in old.stages.values():
            if stage.kind in ("trace", "calibration"):
                assert stage.key in new_by_kind[stage.kind], stage.label
            elif stage.kind == "eval":
                assert stage.key not in new_by_kind[stage.kind], stage.label

    def test_monolithic_plan_is_single_terminal_stage(self):
        plan = monolithic_plan("table1", {}, "d")
        assert list(plan.stages) == [plan.terminal]
        assert plan.stages[plan.terminal].kind == "experiment"


class TestDifferential:
    def test_full_registry_markdown_identical(self, cache_dir):
        """The acceptance bar: every registry artifact from a parallel
        staged suite byte-identical to the entry's own ``run()``."""
        staged = engine.run_suite(
            events=EVENTS, cache_mode=engine.CACHE_OFF, jobs=4
        )
        assert not staged.failures
        assert all("stages" in o.record.simulation for o in staged.outcomes)
        runner.reset_context_memos()
        with storage.cache_overrides(disable=True):
            direct = {
                entry.experiment_id: entry.run(events=EVENTS).to_markdown()
                for entry in REGISTRY
            }
        assert _markdowns(staged) == direct


class TestDedup:
    def test_shared_stages_execute_once(self, cache_dir):
        """fig12, fig13 and flowmix all consume the per-workload
        ``draco-hw-complete`` evaluation: one execution, two dedups."""
        run = engine.run_suite(
            HW_SUITE,
            cache_mode=engine.CACHE_OFF,
            run_overrides=HW_OVERRIDES,
        )
        assert not run.failures
        by_id = {o.experiment_id: o.record for o in run.outcomes}
        # fig12 owns everything: per workload a trace, a calibration and
        # three hw evals, plus its own analysis stage.
        assert _stage_counters(by_id["fig12"]) == {
            "executed": len(WORKLOADS) * 5 + 1,
            "hit": 0,
            "dedup": 0,
            "stored": 0,  # cache off: nothing lands on disk
            "failed": 0,
        }
        # fig13 / flowmix execute only their analysis; the trace,
        # calibration and shared eval per workload are dedups.
        for eid in ("fig13", "flowmix"):
            assert _stage_counters(by_id[eid]) == {
                "executed": 1,
                "hit": 0,
                "dedup": len(WORKLOADS) * 3,
                "stored": 0,
                "failed": 0,
            }, eid
        # Globally: every stage label executes at most once per run.
        executed = [
            row["label"]
            for record in by_id.values()
            for row in _stage_detail(record)
            if row["status"] == "exec"
        ]
        assert len(executed) == len(set(executed))

    def test_summary_renders_stage_counters(self, cache_dir):
        run = engine.run_suite(
            ("fig13",),
            cache_mode=engine.CACHE_OFF,
            run_overrides={"fig13": {"workloads": WORKLOADS}},
        )
        rendered = run.report.format_stages()
        assert rendered.startswith("== stages\n")
        assert "eval" in rendered
        counters = run.report.stage_counters()
        assert counters["executed"] == len(WORKLOADS) * 3 + 1


class TestCorruptionFallback:
    @pytest.mark.parametrize("mode", ["truncated", "garbage"])
    def test_corrupt_stage_entries_rebuild_identically(self, cache_dir, mode):
        """Every ``stages/`` entry corrupted on disk: a refresh run must
        fall back to re-execution (never crash, never serve wrong
        data) and reproduce the cold result byte-for-byte."""
        cold = engine.run_suite(
            HW_SUITE, cache_mode=engine.CACHE_ON, run_overrides=HW_OVERRIDES
        )
        assert not cold.failures
        paths = list((cache_dir / "stages").rglob("*.json"))
        # Trace, calibration and eval stages must all be on disk.
        assert {p.parent.name for p in paths} == {"trace", "calibration", "eval"}
        for path in paths:
            if mode == "truncated":
                path.write_text(path.read_text()[: len(path.read_text()) // 2])
            else:
                path.write_text("\x00\x01 definitely not JSON {")
        runner.reset_context_memos()
        rebuilt = engine.run_suite(
            HW_SUITE, cache_mode=engine.CACHE_REFRESH, run_overrides=HW_OVERRIDES
        )
        assert not rebuilt.failures
        assert _markdowns(rebuilt) == _markdowns(cold)
        # Every corrupted intermediate was a miss: re-executed, not hit.
        for outcome in rebuilt.outcomes:
            assert _stage_counters(outcome.record)["hit"] == 0


class TestRefreshScoping:
    def test_warm_refresh_serves_intermediates(self, cache_dir):
        """``--refresh`` is stage-scoped: terminals recompute while
        trace/calibration/eval stages come from the ``stages/`` tier."""
        cold = engine.run_suite(
            HW_SUITE, cache_mode=engine.CACHE_ON, run_overrides=HW_OVERRIDES
        )
        assert not cold.failures
        runner.reset_context_memos()
        refreshed = engine.run_suite(
            HW_SUITE, cache_mode=engine.CACHE_REFRESH, run_overrides=HW_OVERRIDES
        )
        assert not refreshed.failures
        assert _markdowns(refreshed) == _markdowns(cold)
        by_id = {o.experiment_id: o.record for o in refreshed.outcomes}
        assert by_id["fig12"].cache == telemetry.CACHE_REFRESH
        # fig12: all ten intermediates served from disk, analysis re-run.
        assert _stage_counters(by_id["fig12"]) == {
            "executed": 1,
            "hit": len(WORKLOADS) * 5,
            "dedup": 0,
            "stored": 1,  # the refreshed terminal result
            "failed": 0,
        }
        for row in _stage_detail(by_id["fig12"]):
            expected = "exec" if row["kind"] == "analysis" else "hit"
            assert row["status"] == expected, row

    def test_warm_rerun_is_a_whole_result_hit(self, cache_dir):
        cold = engine.run_suite(
            ("fig13",), cache_mode=engine.CACHE_ON,
            run_overrides={"fig13": {"workloads": WORKLOADS}},
        )
        runner.reset_context_memos()
        warm = engine.run_suite(
            ("fig13",), cache_mode=engine.CACHE_ON,
            run_overrides={"fig13": {"workloads": WORKLOADS}},
        )
        assert warm.outcomes[0].record.cache == telemetry.CACHE_HIT
        assert _markdowns(warm) == _markdowns(cold)


class TestIncrementalInvalidation:
    def test_param_tweak_recomputes_only_that_subgraph(self, cache_dir):
        """Perturbing one experiment's events re-executes exactly its
        stages; every other experiment's intermediates stay hits."""
        cold = engine.run_suite(
            HW_SUITE, cache_mode=engine.CACHE_ON, run_overrides=HW_OVERRIDES
        )
        assert not cold.failures
        runner.reset_context_memos()
        perturbed = {
            eid: dict(kwargs) for eid, kwargs in HW_OVERRIDES.items()
        }
        perturbed["fig12"]["events"] = EVENTS + 37
        rerun = engine.run_suite(
            HW_SUITE, cache_mode=engine.CACHE_REFRESH, run_overrides=perturbed
        )
        assert not rerun.failures
        by_id = {o.experiment_id: o.record for o in rerun.outcomes}
        # fig12's new events invalidate its whole subgraph.
        assert _stage_counters(by_id["fig12"])["executed"] == len(WORKLOADS) * 5 + 1
        assert _stage_counters(by_id["fig12"])["hit"] == 0
        # fig13 / flowmix are untouched: intermediates all hit, only the
        # (always-recomputed-under-refresh) analysis executes.
        for eid in ("fig13", "flowmix"):
            assert _stage_counters(by_id[eid]) == {
                "executed": 1,
                "hit": len(WORKLOADS) * 3,
                "dedup": 0,
                "stored": 1,
                "failed": 0,
            }, eid


class TestFailureIsolation:
    def test_failed_run_captures_traceback(self, cache_dir):
        run = engine.run_suite(
            ("fig13", "table1"),
            cache_mode=engine.CACHE_OFF,
            run_overrides={"fig13": {"workloads": ("no-such-workload",)}},
        )
        by_id = {o.experiment_id: o for o in run.outcomes}
        assert not by_id["fig13"].ok
        assert by_id["fig13"].result is None
        assert "Traceback" in by_id["fig13"].record.error
        assert by_id["table1"].ok
