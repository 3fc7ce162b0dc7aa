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
from collections import Counter

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
            if stage.kind == "context":
                assert stage.key in new_by_kind[stage.kind], stage.label
            elif stage.kind == "eval":
                assert stage.key not in new_by_kind[stage.kind], stage.label

    def test_monolithic_plan_is_single_terminal_stage(self):
        plan = monolithic_plan("table1", {}, "d")
        assert list(plan.stages) == [plan.terminal]
        assert plan.stages[plan.terminal].kind == "analysis"
        assert plan.stages[plan.terminal].deps == ()

    def test_default_suite_has_four_stage_kinds(self):
        """The default suite's union graph: one context stage per
        workload, the evals, one fleet-eval serving both dispatch
        policies and one analysis per experiment."""
        union = {}
        for entry in REGISTRY:
            plan = None
            if entry.stage_plan is not None:
                plan = build_plan(entry.experiment_id, entry.stage_plan, {}, "d")
            if plan is None:
                plan = monolithic_plan(entry.experiment_id, {}, "d")
            union.update(plan.stages)
        kinds = Counter(stage.kind for stage in union.values())
        assert kinds == {"context": 15, "eval": 240, "fleet-eval": 1, "analysis": 16}
        assert len(union) == 272


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
        # fig12 owns everything: per workload a context and two hw
        # evals (the complete walk also prices complete-2x), plus its
        # own analysis stage.
        assert _stage_counters(by_id["fig12"]) == {
            "executed": len(WORKLOADS) * 3 + 1,
            "hit": 0,
            "dedup": 0,
            "stored": 0,  # cache off: nothing lands on disk
            "failed": 0,
        }
        # fig13 / flowmix execute only their analysis; the context and
        # shared eval per workload are dedups.
        for eid in ("fig13", "flowmix"):
            assert _stage_counters(by_id[eid]) == {
                "executed": 1,
                "hit": 0,
                "dedup": len(WORKLOADS) * 2,
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

    def test_bitmap_waits_for_shared_evals_on_two_workers(self, cache_dir):
        """bitmap's Seccomp and Draco evaluations are stages of fig11 and
        fig12, so on two workers its analysis waits for them instead of
        walking them itself: it simulates only the bitmap regime."""
        ids = ("fig11", "fig12", "bitmap")
        run = engine.run_suite(
            ids,
            jobs=2,
            cache_mode=engine.CACHE_OFF,
            run_overrides={eid: {"workloads": WORKLOADS, "events": EVENTS} for eid in ids},
        )
        assert not run.failures
        record = next(o.record for o in run.outcomes if o.experiment_id == "bitmap")
        regimes = record.simulation["regime_events"]
        assert regimes and all(name.startswith("seccomp-bitmap:") for name in regimes), regimes

    def test_downstream_stages_never_recalibrate(self, cache_dir, monkeypatch):
        """Every stage after a context stage runs as if in a worker that
        never built the context, with the cache off: it rebuilds the
        context from the W the context stage solved, so each workload is
        calibrated once and the results match a plain run."""
        from repro.experiments import stages

        ids = ("fig11", "fig12", "bitmap")
        overrides = {eid: {"workloads": WORKLOADS, "events": EVENTS} for eid in ids}
        plain = engine.run_suite(ids, cache_mode=engine.CACHE_OFF, run_overrides=overrides)
        runner.reset_context_memos()

        calibrated = []
        calibrate = runner.calibrate_work_cycles

        def counting_calibrate(spec, *args, **kwargs):
            calibrated.append(spec.name)
            return calibrate(spec, *args, **kwargs)

        execute = stages._execute_stage

        def fresh_worker(kind, *args):
            if kind != stages.KIND_CONTEXT:
                runner.reset_context_memos()
            return execute(kind, *args)

        monkeypatch.setattr(runner, "calibrate_work_cycles", counting_calibrate)
        monkeypatch.setattr(stages, "_execute_stage", fresh_worker)
        run = engine.run_suite(ids, cache_mode=engine.CACHE_OFF, run_overrides=overrides)
        assert not run.failures
        assert sorted(calibrated) == sorted(WORKLOADS)
        assert _markdowns(run) == _markdowns(plain)
        record = next(o.record for o in run.outcomes if o.experiment_id == "bitmap")
        regimes = record.simulation["regime_events"]
        assert regimes and all(name.startswith("seccomp-bitmap:") for name in regimes), regimes

    def test_trace_and_bundle_analyses_never_calibrate(self, cache_dir, monkeypatch):
        """fig3 and fig14 read each context's trace only, fig15 and vat
        its bundle only: on cleared context memos with the cache off
        they build their contexts and solve no W."""
        calibrated = []
        monkeypatch.setattr(
            runner, "calibrate_work_cycles", lambda spec, *a, **k: calibrated.append(spec.name)
        )
        ids = ("fig3", "fig14", "fig15", "vat")
        overrides = {eid: {"workloads": WORKLOADS} for eid in ids if eid != "fig3"}
        run = engine.run_suite(
            ids, events=EVENTS, cache_mode=engine.CACHE_OFF, run_overrides=overrides
        )
        assert not run.failures
        assert calibrated == []

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
        assert counters["executed"] == len(WORKLOADS) * 2 + 1


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
        # Context and eval stages must both be on disk.
        assert {p.parent.name for p in paths} == {"context", "eval"}
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
        context and eval stages come from the ``stages/`` tier."""
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
        # fig12: all six intermediates served from disk, analysis re-run.
        assert _stage_counters(by_id["fig12"]) == {
            "executed": 1,
            "hit": len(WORKLOADS) * 3,
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
        assert _stage_counters(by_id["fig12"])["executed"] == len(WORKLOADS) * 3 + 1
        assert _stage_counters(by_id["fig12"])["hit"] == 0
        # fig13 / flowmix are untouched: intermediates all hit, only the
        # (always-recomputed-under-refresh) analysis executes.
        for eid in ("fig13", "flowmix"):
            assert _stage_counters(by_id[eid]) == {
                "executed": 1,
                "hit": len(WORKLOADS) * 2,
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
