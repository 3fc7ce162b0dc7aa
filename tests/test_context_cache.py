"""Persistent context cache: disk round-trips, corruption fallback,
sound memo keys, and byte-identical Seccomp replay differentials.

The contract under test (docs/EXPERIMENT_GUIDE.md): traces, profile
bundles, filter sweeps, and calibration values persist across processes
keyed by content digests; a corrupt or stale entry always reads as a
miss and the caller rebuilds; and every replayed Seccomp evaluation is
byte-identical to the exact-kernel run it replaces — with
``REPRO_CACHE_DISABLE=1`` forcing the real path, as ``--no-cache`` does.
"""

import gc
import json
from dataclasses import replace

import pytest

from repro.common import telemetry
from repro.common.memo import memo_insert
from repro.common.rng import DEFAULT_SEED
from repro.cpu.params import DEFAULT_SW_COSTS
from repro.experiments import cache as result_cache
from repro.experiments import fig2_seccomp_overhead, runner, seccomp_replay
from repro.kernel.regimes import SeccompRegime
from repro.seccomp.toolkit import bundle_from_payload, bundle_to_payload
from repro.workloads.catalog import (
    CATALOG,
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
        # Trace, bundle, and sweep context entries plus the calibration
        # value must all be on disk before the corruption pass.
        assert {p.parent.name for p in paths} >= {
            "trace",
            "bundle",
            "sweep",
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
    """Regression: the memo once keyed on ``id(costs)`` while the hit
    guard pinned only spec and trace, so a different cost set landing on
    a recycled id was served a stale W."""

    @pytest.fixture
    def inputs(self, cache_dir, monkeypatch):
        # Disk tiers off: isolate the in-process memo under test.
        monkeypatch.setenv(result_cache.CACHE_DISABLE_ENV, "1")
        spec = CATALOG[WORKLOAD]
        trace = runner._trace_for(spec, 800, DEFAULT_SEED)
        bundle = runner._bundle_for(spec, DEFAULT_SEED)
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

    def test_equal_costs_hit_across_identities(self, inputs, monkeypatch):
        spec, trace, bundle = inputs
        probes = []
        real_run_trace = runner.run_trace

        def spy(trace_arg, regime, **kwargs):
            probes.append(regime)
            return real_run_trace(trace_arg, regime, **kwargs)

        monkeypatch.setattr(runner, "run_trace", spy)
        w_1 = runner.calibrate_work_cycles(
            spec, trace, bundle, replace(DEFAULT_SW_COSTS), "binary_tree"
        )
        w_2 = runner.calibrate_work_cycles(
            spec, trace, bundle, replace(DEFAULT_SW_COSTS), "binary_tree"
        )
        assert w_1 == w_2
        assert len(probes) == 1  # second distinct-identity object: memo hit


class TestReplayDifferential:
    @pytest.mark.parametrize("workload", ["nginx", "pipe-ipc"])
    def test_replay_matches_exact_kernels(self, cache_dir, monkeypatch, workload):
        """The acceptance bar: results byte-identical with the cache on
        (replay path) and off (exact kernels) for every regime."""
        with_cache = _evaluate_all(workload)
        assert seccomp_replay.replays_served > 0
        runner.reset_context_memos()
        monkeypatch.setenv(result_cache.CACHE_DISABLE_ENV, "1")
        without_cache = _evaluate_all(workload)
        assert seccomp_replay.replays_served == 0
        assert with_cache == without_cache


class TestDiskRoundTrip:
    def test_second_process_loads_instead_of_building(self, cache_dir):
        first = _evaluate_all()
        # 3 sweeps (docker / noargs / complete) serve 5 replays: four
        # figure bars plus the calibration probe.
        assert seccomp_replay.sweeps_built == 3
        assert seccomp_replay.sweeps_loaded == 0
        assert seccomp_replay.replays_served == 5

        runner.reset_context_memos()  # "new process": only disk survives
        telemetry.reset_counters()
        second = _evaluate_all()
        assert second == first
        assert seccomp_replay.sweeps_built == 0
        assert seccomp_replay.sweeps_loaded == 3
        counters = telemetry.counters_snapshot()["context_cache"]
        for kind in ("trace", "bundle", "sweep", "calibration"):
            assert counters[kind]["hit"] > 0, kind
            assert "store" not in counters[kind], kind

    def test_summary_renders_context_cache_line(self, cache_dir):
        _evaluate_all()
        record = telemetry.ExperimentRecord(
            experiment_id="fig2", simulation=telemetry.counters_snapshot()
        )
        report = telemetry.RunReport(records=[record])
        assert report.totals("context_cache")["sweep"]["store"] == 3
        summary = report.format_summary()
        assert "context cache: " in summary
        assert "sweep 0/3" in summary


class TestBundlePayload:
    def test_round_trip_through_json(self, cache_dir):
        spec = CATALOG[WORKLOAD]
        bundle = runner._bundle_for(spec, DEFAULT_SEED)
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
        with_cache = fig2_seccomp_overhead.run(events=EVENTS, workloads=workloads)
        assert seccomp_runs == []
        assert seccomp_replay.sweeps_built == 3 * len(workloads)
        assert seccomp_replay.replays_served == 5 * len(workloads)

        runner.reset_context_memos()
        monkeypatch.setenv(result_cache.CACHE_DISABLE_ENV, "1")
        without_cache = fig2_seccomp_overhead.run(events=EVENTS, workloads=workloads)
        # repr-compare: the paper-target columns carry NaN placeholders,
        # which never compare equal to themselves.
        assert repr(with_cache.rows) == repr(without_cache.rows)
