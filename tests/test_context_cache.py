"""Persistent context cache: disk round-trips, corruption fallback,
sound memo keys, the one context memo, and byte-identical Seccomp
replay differentials.

The contract under test (docs/EXPERIMENT_GUIDE.md): traces, profile
bundles and calibration values persist across processes keyed by
content digests; a corrupt or stale entry always reads as a miss and
the caller rebuilds; filter sweeps stay in an in-process memo; and
every replayed Seccomp evaluation is byte-identical to the exact-kernel
run it replaces — with ``REPRO_ANALYTIC=0`` forcing the real path.
"""

import gc
import json
import os
import threading
from dataclasses import replace

import pytest

from repro.common import telemetry
from repro.common.analytic import ANALYTIC_ENV
from repro.common.memo import memo_insert
from repro.common.rng import DEFAULT_SEED
from repro.cpu.params import DEFAULT_SW_COSTS, OLD_KERNEL_SW_COSTS
from repro.experiments import cache as result_cache
from repro.experiments import fig2_seccomp_overhead, runner, seccomp_replay
from repro.kernel.regimes import SeccompRegime
from repro.seccomp.toolkit import bundle_from_payload, bundle_to_payload
from repro.workloads.catalog import (
    CATALOG,
    REGIME_COMPLETE,
    REGIME_INSECURE,
    SECCOMP_REGIMES,
)

EVENTS = 1500
WORKLOAD = "nginx"
ALL_REGIMES = (REGIME_INSECURE,) + SECCOMP_REGIMES


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Fresh on-disk cache and clean in-process memos per test."""
    root = tmp_path / "cache"
    monkeypatch.setenv(result_cache.CACHE_DIR_ENV, str(root))
    runner.reset_context_memos()
    telemetry.reset_counters()
    yield root
    runner.reset_context_memos()


def _evaluate_all(workload=WORKLOAD, events=EVENTS):
    ctx = runner.get_context(workload, events=events)
    return {regime: ctx.evaluate(regime) for regime in ALL_REGIMES}


class TestMemoInsert:
    def test_oldest_first_eviction(self):
        memo = {}
        for key in range(6):
            memo_insert(memo, key, key, limit=4)
        assert list(memo) == [2, 3, 4, 5]

    def test_refresh_does_not_evict_at_limit(self):
        """The old ``.clear()``-at-limit policy wiped a full memo on the
        next insert; refreshing an existing key must never evict."""
        memo = {}
        for key in range(3):
            memo_insert(memo, key, key, limit=3)
        memo_insert(memo, 1, "refreshed", limit=3)
        assert list(memo) == [0, 1, 2]
        assert memo[1] == "refreshed"

    def test_new_key_at_limit_evicts_exactly_one(self):
        memo = {}
        for key in range(3):
            memo_insert(memo, key, key, limit=3)
        memo_insert(memo, 99, 99, limit=3)
        assert list(memo) == [1, 2, 99]

    def test_docker_profile_shared_per_table(self, cache_dir):
        table = CATALOG[WORKLOAD].table
        assert runner._docker_profile_for(table) is runner._docker_profile_for(table)


class TestContextDocuments:
    def test_round_trip(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_context("sweep", "abc123", {"returns": [0, 1]})
        assert store.load_context("sweep", "abc123") == {"returns": [0, 1]}

    def test_wrong_kind_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_context("sweep", "abc123", {"x": 1})
        assert store.load_context("bundle", "abc123") is None

    def test_version_mismatch_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_context("sweep", "abc123", {"x": 1})
        path = store.context_path("sweep", "abc123")
        document = json.loads(path.read_text())
        document["version"] = result_cache.CONTEXT_FORMAT_VERSION + 1
        path.write_text(json.dumps(document))
        assert store.load_context("sweep", "abc123") is None

    def test_missing_data_key_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        path = store.context_path("sweep", "abc123")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps(
                {
                    "format": "repro-context",
                    "version": result_cache.CONTEXT_FORMAT_VERSION,
                    "kind": "sweep",
                }
            )
        )
        assert store.load_context("sweep", "abc123") is None

    def test_garbage_and_truncation_are_misses(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_context("sweep", "abc123", {"x": 1})
        path = store.context_path("sweep", "abc123")
        path.write_text(path.read_text()[:10])
        assert store.load_context("sweep", "abc123") is None
        path.write_text("\x00 not json at all")
        assert store.load_context("sweep", "abc123") is None

    def test_trace_corruption_is_a_miss(self, cache_dir):
        from repro.workloads.generator import generate_trace

        store = result_cache.ResultCache()
        trace = generate_trace(CATALOG[WORKLOAD], 200, seed=DEFAULT_SEED)
        store.store_trace_context("t1", trace)
        loaded = store.load_trace_context("t1")
        assert loaded is not None and len(loaded) == 200
        path = store.context_path("trace", "t1", suffix=".jsonl")
        text = path.read_text()
        path.write_text(text.splitlines()[0] + "\n")  # header only
        assert store.load_trace_context("t1") is None
        path.write_text("garbage\n" + text)
        assert store.load_trace_context("t1") is None
        assert store.load_trace_context("absent") is None

    def test_calibration_garbage_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_calibration("c1", 512.5)
        assert store.load_calibration("c1") == 512.5
        store.calibration_path("c1").write_text('"oops"')
        assert store.load_calibration("c1") is None


def _corrupt(path, mode):
    text = path.read_text()
    if mode == "truncated":
        path.write_text(text[: len(text) // 2])
    elif mode == "garbage":
        path.write_text("\x00\x01 definitely not JSON {")
    else:  # "partial": a structurally valid but incomplete document
        if path.suffix == ".jsonl":
            path.write_text(text.splitlines()[0] + "\n")
        else:
            path.write_text(
                json.dumps(
                    {
                        "format": "repro-context",
                        "version": result_cache.CONTEXT_FORMAT_VERSION,
                        "kind": path.parent.name,
                    }
                )
            )


def test_two_threads_store_one_trace_digest(cache_dir, monkeypatch):
    """Two threads of one process store the same trace digest, both
    temp files written before either is published (a barrier in front
    of ``os.replace`` forces that order).  Each writer has its own temp
    file, so both stores succeed, the entry loads and no temp file is
    left; with one temp path per process the second publish found its
    file gone and the first could publish a half-written one."""
    from repro.workloads.generator import generate_trace

    trace = generate_trace(CATALOG[WORKLOAD], 300, seed=DEFAULT_SEED)
    barrier = threading.Barrier(2, timeout=10)
    real_replace = os.replace

    def replace_after_both_wrote(src, dst):
        barrier.wait()
        real_replace(src, dst)

    stored = []

    def store():
        stored.append(result_cache.ResultCache().store_trace_context("race", trace))

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", replace_after_both_wrote)
        threads = [threading.Thread(target=store) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
            assert not thread.is_alive()
    assert stored == [True, True]
    loaded = result_cache.ResultCache().load_trace_context("race")
    assert loaded is not None and list(loaded) == list(trace)
    assert list(cache_dir.rglob("*.tmp")) == []


def test_failed_store_leaves_no_temp_file(cache_dir, monkeypatch):
    def refuse(src, dst):
        raise PermissionError("read-only entry")

    monkeypatch.setattr(os, "replace", refuse)
    assert result_cache.ResultCache().store_calibration("refused", 1.5) is False
    assert list(cache_dir.rglob("*.tmp")) == []


class TestCorruptionFallback:
    @pytest.mark.parametrize("mode", ["truncated", "garbage", "partial"])
    def test_corrupt_entries_rebuild_identically(self, cache_dir, mode):
        """Every context artifact corrupted on disk: the next run must
        fall back to a rebuild (never crash, never serve wrong data)."""
        reference = _evaluate_all()
        paths = [
            p
            for p in cache_dir.rglob("*")
            if p.is_file() and p.suffix in (".json", ".jsonl")
        ]
        # Trace and bundle context entries plus the calibration value
        # must all be on disk before the corruption pass.
        assert {p.parent.name for p in paths} >= {
            "trace",
            "bundle",
            "calibration",
        }
        for path in paths:
            if mode == "truncated" and path.parent.name == "calibration":
                # A truncated bare JSON number can still parse as a
                # (wrong) number; atomic writes are the guard there.
                continue
            _corrupt(path, mode)
        runner.reset_context_memos()
        assert _evaluate_all() == reference


class TestCalibrationMemoKey:
    """Regression: an in-process calibration memo once keyed on
    ``id(costs)`` while the hit guard pinned only spec and trace, so a
    different cost set landing on a recycled id was served a stale W.
    That memo is gone (contexts are memoised once, in ``get_context``);
    W must still follow the cost values."""

    @pytest.fixture
    def inputs(self, cache_dir, monkeypatch):
        # Disk tiers off: every call solves W afresh.
        monkeypatch.setenv(result_cache.CACHE_DISABLE_ENV, "1")
        spec = CATALOG[WORKLOAD]
        trace = runner._trace_for(spec, 800, DEFAULT_SEED)
        bundle = runner._bundle_for(spec)
        return spec, trace, bundle

    def test_recycled_cost_id_recalibrates(self, inputs):
        spec, trace, bundle = inputs
        costs_a = replace(DEFAULT_SW_COSTS, cycles_per_bpf_insn_jit=5.0)
        w_a = runner.calibrate_work_cycles(spec, trace, bundle, costs_a, "binary_tree")
        recycled_id = id(costs_a)
        del costs_a
        gc.collect()
        # CPython routinely hands the freed slot to the next same-sized
        # allocation; land on it if we can (the assertion below holds
        # either way — the key is the cost *values*, never the id).
        costs_b = replace(DEFAULT_SW_COSTS, cycles_per_bpf_insn_jit=9.0)
        for _ in range(256):
            if id(costs_b) == recycled_id:
                break
            costs_b = replace(DEFAULT_SW_COSTS, cycles_per_bpf_insn_jit=9.0)
        w_b = runner.calibrate_work_cycles(spec, trace, bundle, costs_b, "binary_tree")
        assert w_b != w_a  # a pricier per-insn cost must re-solve W


class TestContextMemo:
    def test_old_kernel_context_derives_from_the_default(self, cache_dir, monkeypatch):
        """An old-kernel context shares the modern context's trace,
        bundle and W but keeps its own evaluation memo; building it
        generates no trace and runs no calibration."""
        modern = runner.get_context(WORKLOAD, events=EVENTS)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(runner, "generate_trace", lambda *a, **k: calls.append("trace"))
            patch.setattr(
                runner, "calibrate_work_cycles", lambda *a, **k: calls.append("calibrate")
            )
            old = runner.get_context(WORKLOAD, events=EVENTS, old_kernel=True)
        assert calls == []
        assert old is runner.get_context(WORKLOAD, events=EVENTS, old_kernel=True)
        assert old.trace is modern.trace
        assert old.bundle is modern.bundle
        assert old.work_cycles == modern.work_cycles
        assert old.costs == OLD_KERNEL_SW_COSTS
        assert old._eval_memo is not modern._eval_memo
        assert old.evaluate(REGIME_COMPLETE) != modern.evaluate(REGIME_COMPLETE)


class TestReplayDifferential:
    @pytest.mark.parametrize("workload", ["nginx", "pipe-ipc"])
    def test_replay_matches_exact_kernels(self, cache_dir, monkeypatch, workload):
        """The acceptance bar: results byte-identical with the analytic
        backend on (replay path) and off (exact kernels) for every
        regime, up to the ``analytic`` field that names the tier."""
        replayed = _evaluate_all(workload)
        assert seccomp_replay.replays_served > 0
        runner.reset_context_memos()
        monkeypatch.setenv(ANALYTIC_ENV, "0")
        # Disk tiers off too, so the calibration probe reruns rather
        # than reading back the W the replay solved.
        monkeypatch.setenv(result_cache.CACHE_DISABLE_ENV, "1")
        exact = _evaluate_all(workload)
        assert seccomp_replay.replays_served == 0
        assert all(result.analytic is None for result in exact.values())
        assert {name: replace(r, analytic=None) for name, r in replayed.items()} == exact


class TestDiskRoundTrip:
    def test_second_process_loads_instead_of_building(self, cache_dir):
        first = _evaluate_all()
        # 3 sweeps (docker / noargs / complete) serve 5 replays: four
        # figure bars plus the calibration probe.
        assert seccomp_replay.sweeps_built == 3
        assert seccomp_replay.replays_served == 5

        runner.reset_context_memos()  # "new process": only disk survives
        telemetry.reset_counters()
        second = _evaluate_all()
        assert second == first
        # The calibration is read back, so only the four bars replay,
        # from sweeps rebuilt in memory (sweeps never go to disk).
        assert seccomp_replay.sweeps_built == 3
        assert seccomp_replay.replays_served == 4
        counters = telemetry.counters_snapshot()["context_cache"]
        assert set(counters) == {"trace", "bundle", "calibration"}
        for kind in counters:
            assert counters[kind]["hit"] > 0, kind
            assert "store" not in counters[kind], kind

    def test_summary_renders_context_cache_line(self, cache_dir):
        _evaluate_all()
        record = telemetry.ExperimentRecord(
            experiment_id="fig2", simulation=telemetry.counters_snapshot()
        )
        report = telemetry.RunReport(records=[record])
        assert report.totals("context_cache")["trace"]["store"] == 1
        summary = report.format_summary()
        assert "context cache: " in summary
        assert "trace 0/1" in summary


class TestBundlePayload:
    def test_round_trip_through_json(self, cache_dir):
        spec = CATALOG[WORKLOAD]
        bundle = runner._bundle_for(spec)
        payload = json.loads(json.dumps(bundle_to_payload(bundle)))
        rebuilt = bundle_from_payload(payload, spec.name)
        assert rebuilt is not None
        assert rebuilt.noargs.name == bundle.noargs.name
        assert rebuilt.complete.name == bundle.complete.name
        assert rebuilt.noargs.rules == bundle.noargs.rules
        assert rebuilt.complete.rules == bundle.complete.rules

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {"noargs": 1, "complete": []},
            {"noargs": [0], "complete": [["x", []]]},
            {"noargs": [10**9], "complete": []},  # unknown sid
        ],
    )
    def test_malformed_payload_is_a_miss(self, payload):
        assert bundle_from_payload(payload, "w") is None


class TestFig2SharedReplay:
    def test_no_exact_seccomp_evaluations(self, cache_dir, monkeypatch):
        """fig2's Seccomp bars all replay shared sweeps: zero full-trace
        exact Seccomp runs (was 4 per workload + 1 calibration probe),
        well under the <=20-evaluation budget for the full catalog."""
        seccomp_runs = []
        real_run_trace = runner.run_trace

        def spy(trace, regime, **kwargs):
            if isinstance(regime, SeccompRegime):
                seccomp_runs.append(regime.name)
            return real_run_trace(trace, regime, **kwargs)

        monkeypatch.setattr(runner, "run_trace", spy)
        workloads = ("nginx", "pipe-ipc")
        replayed = fig2_seccomp_overhead.run(events=EVENTS, workloads=workloads)
        assert seccomp_runs == []
        assert seccomp_replay.sweeps_built == 3 * len(workloads)
        assert seccomp_replay.replays_served == 5 * len(workloads)

        runner.reset_context_memos()
        monkeypatch.setenv(ANALYTIC_ENV, "0")
        # Disk tiers off too, so the calibration probes rerun exactly.
        monkeypatch.setenv(result_cache.CACHE_DISABLE_ENV, "1")
        exact = fig2_seccomp_overhead.run(events=EVENTS, workloads=workloads)
        assert seccomp_replay.replays_served == 0
        # repr-compare: the paper-target columns carry NaN placeholders,
        # which never compare equal to themselves.
        assert repr(replayed.rows) == repr(exact.rows)
