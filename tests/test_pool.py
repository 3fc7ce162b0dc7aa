"""Warm pool: pool lifecycle and explicit cache threading.

The contract under test (docs/PERFORMANCE.md): one preloaded worker
pool stays alive across suites; the pool recycles when its identity
(jobs, source fingerprint, any ``REPRO_*`` variable) changes;
``run_suite`` never mutates ``os.environ``; and a fully-cached parallel
run never pays pool dispatch.
"""

import os

import pytest

from repro.common import telemetry
from repro.experiments import cache as result_cache
from repro.experiments import engine, runner
from repro.experiments import pool as warm_pool

EVENTS = 1200
WORKLOADS = ("nginx", "pipe-ipc")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Fresh on-disk cache and clean in-process memos per test."""
    root = tmp_path / "cache"
    monkeypatch.setenv(result_cache.CACHE_DIR_ENV, str(root))
    runner.reset_context_memos()
    telemetry.reset_counters()
    yield root
    runner.reset_context_memos()


@pytest.fixture(autouse=True)
def _shutdown_pool():
    """Tear the warm pool down between tests."""
    yield
    warm_pool.shutdown(wait=False)


def _markdowns(run):
    return {
        o.experiment_id: o.result.to_markdown()
        for o in run.outcomes
        if o.result is not None
    }


class TestWarmPool:
    def test_pool_persists_across_suites(self, cache_dir):
        overrides = {"fig13": {"workloads": WORKLOADS, "events": EVENTS}}
        before = warm_pool.stats()["created"]
        # CACHE_OFF so both suites schedule the full DAG over the pool
        # (warm hits would shrink the second to a serial analysis pass).
        engine.run_suite(["fig13"], jobs=2, cache_mode=engine.CACHE_OFF,
                         run_overrides=overrides)
        engine.run_suite(["fig13"], jobs=2, cache_mode=engine.CACHE_OFF,
                         run_overrides=overrides)
        stats = warm_pool.stats()
        assert stats["created"] == before + 1
        assert stats["active"]

    def test_env_knob_flip_recycles_pool(self, cache_dir, monkeypatch):
        overrides = {"fig13": {"workloads": WORKLOADS, "events": EVENTS}}
        engine.run_suite(["fig13"], jobs=2, cache_mode=engine.CACHE_OFF,
                         run_overrides=overrides)
        first_key = warm_pool.pool_key(2)
        monkeypatch.setenv("REPRO_BULK", "0")
        assert warm_pool.pool_key(2) != first_key
        recycled_before = warm_pool.stats()["recycled"]
        engine.run_suite(["fig13"], jobs=2, cache_mode=engine.CACHE_OFF,
                         run_overrides=overrides)
        stats = warm_pool.stats()
        assert stats["recycled"] == recycled_before + 1
        assert stats["active"]

    def test_jobs_change_recycles(self, cache_dir):
        assert warm_pool.pool_key(2) != warm_pool.pool_key(4)


class TestCacheThreading:
    """run_suite must not mutate os.environ, and a fully cached suite
    must not pay pool dispatch."""

    def test_run_suite_leaves_environ_alone(self, cache_dir, tmp_path, monkeypatch):
        other = tmp_path / "other-cache"
        monkeypatch.delenv(result_cache.CACHE_DISABLE_ENV, raising=False)
        run = engine.run_suite(
            ["fig13"], jobs=1, cache_mode=engine.CACHE_ON,
            cache_dir=str(other),
            run_overrides={"fig13": {"workloads": WORKLOADS, "events": EVENTS}},
        )
        assert not run.failures
        # The env still points at the fixture cache; the explicit
        # cache_dir won and was never written back to the environment.
        assert os.environ[result_cache.CACHE_DIR_ENV] == str(cache_dir)
        assert result_cache.CACHE_DISABLE_ENV not in os.environ
        assert run.report.cache_dir == str(other)
        assert (other / "results").exists()
        assert not (cache_dir / "results").exists()

    def test_cache_off_does_not_set_disable_env(self, cache_dir):
        run = engine.run_suite(
            ["fig13"], jobs=1, cache_mode=engine.CACHE_OFF,
            run_overrides={"fig13": {"workloads": WORKLOADS, "events": EVENTS}},
        )
        assert not run.failures
        assert result_cache.CACHE_DISABLE_ENV not in os.environ
        assert not (cache_dir / "results").exists()

    def test_fully_cached_parallel_run_skips_the_pool(self, cache_dir, monkeypatch):
        overrides = {
            eid: {"workloads": WORKLOADS, "events": EVENTS}
            for eid in ("fig12", "fig13")
        }
        cold = engine.run_suite(
            ["fig12", "fig13"], jobs=1, cache_mode=engine.CACHE_ON,
            run_overrides=overrides,
        )
        assert not cold.failures

        def _no_pool(jobs):
            raise AssertionError("fully-cached suite must not start a pool")

        monkeypatch.setattr(warm_pool, "get_pool", _no_pool)
        warm = engine.run_suite(
            ["fig12", "fig13"], jobs=4, cache_mode=engine.CACHE_ON,
            run_overrides=overrides,
        )
        assert not warm.failures
        assert all(r.cache == telemetry.CACHE_HIT for r in warm.report.records)
        assert _markdowns(cold) == _markdowns(warm)
