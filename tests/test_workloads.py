"""Tests for workload models, trace generation, and the catalog."""

import pytest

from repro.common.errors import ConfigError
from repro.syscalls.table import LINUX_X86_64
from repro.workloads.catalog import (
    CATALOG,
    MACRO_WORKLOADS,
    MICRO_WORKLOADS,
    REGIME_COMPLETE,
    SECCOMP_REGIMES,
)
from repro.workloads.generator import (
    TraceGenerator,
    callsite_pc,
    coverage_trace,
    generate_trace,
    profile_trace,
)
from repro.workloads.model import ArgSetSpec, SyscallSpec, WorkloadSpec


class TestModelValidation:
    def test_argset_width_checked(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(
                name="bad",
                kind="micro",
                description="",
                syscalls=(
                    SyscallSpec("read", 1, (ArgSetSpec(values=(1,)),)),  # needs 2
                ),
            )

    def test_pointer_only_syscall_needs_empty_sets(self):
        spec = WorkloadSpec(
            name="ok",
            kind="micro",
            description="",
            syscalls=(SyscallSpec("stat", 1, ()),),
        )
        assert spec.num_distinct_arg_sets == 1

    def test_duplicate_syscall_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(
                name="bad",
                kind="micro",
                description="",
                syscalls=(
                    SyscallSpec("getpid", 1, ()),
                    SyscallSpec("getpid", 1, ()),
                ),
            )

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(name="bad", kind="mini", description="", syscalls=(SyscallSpec("getpid", 1, ()),))

    def test_weights_positive(self):
        with pytest.raises(ConfigError):
            SyscallSpec("read", 0, ())

    def test_stickiness_bounds(self):
        with pytest.raises(ConfigError):
            SyscallSpec("read", 1, (), stickiness=1.5)


class TestCatalog:
    def test_fifteen_workloads(self):
        assert len(CATALOG) == 15
        assert len(MACRO_WORKLOADS) == 8
        assert len(MICRO_WORKLOADS) == 7

    def test_paper_names_present(self):
        for name in ("httpd", "nginx", "elasticsearch", "mysql", "cassandra",
                     "redis", "grep", "pwgen", "sysbench-fio", "hpcc",
                     "unixbench-syscall", "fifo-ipc", "pipe-ipc", "domain-ipc",
                     "mq-ipc"):
            assert name in CATALOG

    def test_all_have_fig2_targets(self):
        for spec in CATALOG.values():
            for regime in SECCOMP_REGIMES:
                assert spec.fig2_targets[regime] > 1.0

    def test_target_averages_match_paper(self):
        """The calibration targets average to the paper's reported
        numbers (within reading-off-the-plot tolerance)."""
        for kind, expectations in (
            ("macro", {"docker-default": 1.05, "syscall-noargs": 1.04,
                       "syscall-complete": 1.14, "syscall-complete-2x": 1.21}),
            ("micro", {"docker-default": 1.12, "syscall-noargs": 1.09,
                       "syscall-complete": 1.25, "syscall-complete-2x": 1.42}),
        ):
            group = [w for w in CATALOG.values() if w.kind == kind]
            for regime, paper in expectations.items():
                avg = sum(w.fig2_targets[regime] for w in group) / len(group)
                assert abs(avg - paper) < 0.035, (kind, regime, avg)

    def test_complete_targets_exceed_noargs(self):
        for spec in CATALOG.values():
            assert spec.fig2_targets[REGIME_COMPLETE] > spec.fig2_targets["syscall-noargs"]

    def test_all_syscalls_resolve(self):
        for spec in CATALOG.values():
            for syscall in spec.syscalls:
                assert syscall.name in LINUX_X86_64


class TestCallsitePcs:
    def test_stable(self):
        assert callsite_pc("a", "read", 0) == callsite_pc("a", "read", 0)

    def test_distinct_sites(self):
        pcs = {callsite_pc("a", "read", i) for i in range(100)}
        assert len(pcs) == 100

    def test_aligned(self):
        assert callsite_pc("a", "read", 0) % 4 == 0


class TestTraceGeneration:
    def test_deterministic(self):
        spec = CATALOG["nginx"]
        a = generate_trace(spec, 500, seed=42)
        b = generate_trace(spec, 500, seed=42)
        assert [e.key for e in a] == [e.key for e in b]

    def test_seed_changes_trace(self):
        spec = CATALOG["nginx"]
        a = generate_trace(spec, 500, seed=1)
        b = generate_trace(spec, 500, seed=2)
        assert [e.key for e in a] != [e.key for e in b]

    def test_only_declared_syscalls(self):
        spec = CATALOG["pwgen"]
        declared = {LINUX_X86_64.by_name(s.name).sid for s in spec.syscalls}
        trace = generate_trace(spec, 1000)
        assert set(trace.unique_sids()) <= declared

    def test_weights_respected(self):
        spec = CATALOG["grep"]
        trace = generate_trace(spec, 5000)
        from collections import Counter

        counts = Counter(e.name() for e in trace)
        assert counts["read"] > counts["write"]

    def test_pcs_belong_to_syscall_callsites(self):
        spec = CATALOG["fifo-ipc"]
        trace = generate_trace(spec, 300)
        valid = set()
        for syscall in spec.syscalls:
            for i in range(syscall.callsites):
                valid.add(callsite_pc(spec.name, syscall.name, i))
        assert {e.pc for e in trace} <= valid


class TestCoverage:
    def test_coverage_trace_has_every_argset(self):
        spec = CATALOG["mysql"]
        cov = coverage_trace(spec)
        expected = sum(max(1, len(s.arg_sets)) for s in spec.syscalls)
        assert len(cov) == expected

    def test_profile_trace_covers_measurement_trace(self):
        """The coverage guarantee: a profile from profile_trace() allows
        every event of any measurement trace (no spurious kills)."""
        from repro.seccomp.toolkit import generate_complete

        spec = CATALOG["redis"]
        profile = generate_complete(profile_trace(spec, count=500), "redis")
        measurement = generate_trace(spec, 2000, seed=777)
        for event in measurement:
            assert profile.allows(event)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_coverage_bundle_equals_full_recording(self, name):
        """The runner derives each bundle from the start-up tail and the
        coverage pass alone; for every seed, that bundle is the one the
        full 20 000-event profiling recording yields, rule for rule and
        in the same order."""
        from repro.common.rng import DEFAULT_SEED
        from repro.experiments import runner
        from repro.seccomp.toolkit import bundle_to_payload, generate_bundle

        spec = CATALOG[name]
        derived = bundle_to_payload(runner._bundle_for(spec))
        assert derived == bundle_to_payload(
            generate_bundle(profile_trace(spec, count=0), name)
        )
        for seed in (DEFAULT_SEED, 1, 7, 12345):
            recorded = generate_bundle(profile_trace(spec, seed=seed), name)
            assert bundle_to_payload(recorded) == derived
