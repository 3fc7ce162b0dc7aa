"""Tests for the seccomp action-cache bitmap regime (Linux 5.11 legacy)."""

import pytest

from repro.bpf.abstract import constant_action_for
from repro.kernel.simulator import run_trace
from repro.kernel.regimes import DracoSwRegime, SeccompRegime, _attach
from repro.seccomp.actions import SECCOMP_RET_ALLOW, action_of
from repro.seccomp.bitmap_cache import SeccompActionCache, SeccompBitmapRegime
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.compiler import compile_linear
from repro.seccomp.toolkit import generate_complete, generate_noargs
from repro.syscalls.events import SyscallTrace, make_event
from repro.syscalls.table import LINUX_X86_64, sid


@pytest.fixture
def training_trace():
    events = []
    for i in range(200):
        events.append(make_event("read", (3 + i % 4, 100), pc=0x100))
        events.append(make_event("getppid", pc=0x104))
    return SyscallTrace(events)


class TestActionCache:
    def test_noargs_profile_fully_cacheable(self, training_trace):
        profile = generate_noargs(training_trace, "t")
        module = SeccompKernelModule()
        module.attach(compile_linear(profile))
        cache = SeccompActionCache(module)
        assert cache.hit(sid("read"))
        assert cache.hit(sid("getppid"))
        assert not cache.hit(sid("mount"))  # kill, not allow: no bit

    def test_complete_profile_arg_checked_not_cacheable(self, training_trace):
        profile = generate_complete(training_trace, "t")
        module = SeccompKernelModule()
        module.attach(compile_linear(profile))
        cache = SeccompActionCache(module)
        assert not cache.hit(sid("read"))      # argument-dependent
        assert cache.hit(sid("getppid"))       # no checkable args

    @pytest.mark.parametrize("times", [1, 2])
    @pytest.mark.parametrize("compiler", ["linear", "binary_tree"])
    def test_bitmap_equals_per_number_emulation(self, training_trace, times, compiler):
        """One pass per filter sets exactly the bits the kernel's
        per-number emulation of every attached filter sets, for a stack
        of the complete profile (once or twice) under a noargs filter."""
        module = _attach(generate_complete(training_trace, "t"), times, compiler)
        for attached in _attach(generate_noargs(training_trace, "n"), 1, compiler).filters:
            module.attach(attached.program)
        expected = {
            entry.sid
            for entry in LINUX_X86_64
            if all(
                (action := constant_action_for(f.program, entry.sid)) is not None
                and action_of(action) == SECCOMP_RET_ALLOW
                for f in module.filters
            )
        }
        cache = SeccompActionCache(module)
        assert {e.sid for e in LINUX_X86_64 if cache.hit(e.sid)} == expected
        assert expected

    def test_no_filters_caches_nothing(self):
        cache = SeccompActionCache(SeccompKernelModule())
        assert not cache.hit(0)

    def test_stats(self, training_trace):
        profile = generate_noargs(training_trace, "t")
        module = SeccompKernelModule()
        module.attach(compile_linear(profile))
        stats = SeccompActionCache(module).stats
        assert stats.cacheable_syscalls == 2
        assert 0 < stats.coverage < 0.05  # 2 of the whole table


class TestBitmapRegime:
    def test_decisions_match_seccomp(self, training_trace):
        profile = generate_complete(training_trace, "t")
        bitmap = SeccompBitmapRegime(profile)
        plain = SeccompRegime(profile)
        probes = [
            make_event("read", (3, 100)),
            make_event("read", (9, 9)),
            make_event("getppid"),
            make_event("mount"),
        ]
        for event in probes:
            assert bitmap.check(event).allowed == plain.check(event).allowed

    def test_bitmap_matches_draco_on_noargs(self, training_trace):
        """ID-only profiles: the bitmap removes filter cost, like Draco."""
        profile = generate_noargs(training_trace, "t")
        bitmap = SeccompBitmapRegime(profile)
        plain = SeccompRegime(profile)
        bitmap_result = run_trace(training_trace, bitmap, 400.0, 150.0)
        plain_result = run_trace(training_trace, plain, 400.0, 150.0)
        assert bitmap_result.mean_check_cycles < plain_result.mean_check_cycles
        assert bitmap.bitmap_hits > 0
        assert bitmap.filter_runs == 0

    def test_bitmap_useless_on_argument_checks(self):
        """The Draco-vs-bitmap gap: argument-checking profiles defeat the
        bitmap (every arg-checked syscall runs the full filter) while
        Draco's VAT still caches them.  A realistic server-like argument
        population (dozens of client fds) makes the filter scans long.
        """
        events = []
        for i in range(600):
            events.append(make_event("read", (8 + i % 48, 4096), pc=0x100))
        trace = SyscallTrace(events)
        profile = generate_complete(trace, "server")
        bitmap = SeccompBitmapRegime(profile)
        draco = DracoSwRegime(profile)
        bitmap_result = run_trace(trace, bitmap, 400.0, 150.0)
        draco_result = run_trace(trace, draco, 400.0, 150.0)
        # The bitmap never helps: every read is argument-checked.
        assert bitmap.bitmap_hits == 0
        assert bitmap.filter_runs == len(trace)
        assert draco_result.mean_check_cycles < bitmap_result.mean_check_cycles

    def test_draco_vs_bitmap_crossover_on_tiny_filters(self, training_trace):
        """Honest flip side: when the argument-checking filter is tiny
        (a couple of argument sets), running it can undercut Draco's
        hash-and-probe hit path — the same near-crossover the paper's
        lightest workloads show in Figure 11."""
        profile = generate_complete(training_trace, "t")
        bitmap = SeccompBitmapRegime(profile)
        draco = DracoSwRegime(profile)
        bitmap_result = run_trace(training_trace, bitmap, 400.0, 150.0)
        draco_result = run_trace(training_trace, draco, 400.0, 150.0)
        assert bitmap.filter_runs >= len(training_trace) // 2
        # Both are within a few tens of cycles of each other here.
        assert abs(
            draco_result.mean_check_cycles - bitmap_result.mean_check_cycles
        ) < 40

    def test_regime_name(self, training_trace):
        profile = generate_noargs(training_trace, "t")
        assert "seccomp-bitmap" in SeccompBitmapRegime(profile).name
