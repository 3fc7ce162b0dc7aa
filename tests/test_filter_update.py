"""Tests for runtime filter tightening (the coherence corner).

seccomp(2) lets a process attach additional filters at any time; every
cached validation must be flushed or the old, looser verdicts would
bypass the new filter — a security bug the flush prevents.  That holds
for Draco's SPT/VAT/SLB and equally for the Seccomp regimes' decision
memos and the 5.11 action-cache bitmap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hardware import HardwareDraco
from repro.core.software import SoftwareDraco, build_process_tables
from repro.kernel.regimes import SeccompRegime
from repro.seccomp.bitmap_cache import SeccompBitmapRegime
from repro.seccomp.compiler import compile_linear, compile_profile_chunked
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.profile import SeccompProfile
from repro.seccomp.toolkit import generate_complete
from repro.syscalls.events import SyscallEvent, SyscallTrace, make_event
from tests.test_seccomp_compiler import mini_docker_events, mini_docker_profiles

PC = 0x100


def _loose_profile():
    trace = SyscallTrace(
        [
            make_event("read", (3, 100), pc=PC),
            make_event("read", (4, 100), pc=PC),
            make_event("getpid", pc=PC),
        ]
    )
    return generate_complete(trace, "loose")


def _strict_program():
    """A second filter allowing only read(3, 100): read(4, ...) and
    getpid die."""
    trace = SyscallTrace([make_event("read", (3, 100), pc=PC)])
    return compile_linear(generate_complete(trace, "strict"))


class TestSoftwareFlush:
    def test_stale_validation_never_survives_attach(self):
        profile = _loose_profile()
        module = SeccompKernelModule()
        module.attach(compile_linear(profile))
        draco = SoftwareDraco(build_process_tables(profile), module)

        victim = make_event("read", (4, 100), pc=PC)
        assert draco.check(victim).allowed          # validated and cached
        assert draco.check(victim).path == "vat_hit"

        draco.attach_additional_filter(_strict_program())
        assert not draco.check(victim).allowed      # no stale allow!

    def test_still_allowed_combinations_revalidate(self):
        profile = _loose_profile()
        module = SeccompKernelModule()
        module.attach(compile_linear(profile))
        draco = SoftwareDraco(build_process_tables(profile), module)
        survivor = make_event("read", (3, 100), pc=PC)
        draco.check(survivor)
        draco.attach_additional_filter(_strict_program())
        first = draco.check(survivor)
        assert first.allowed
        assert first.path == "filter_run"           # re-validated fresh
        assert draco.check(survivor).path == "vat_hit"

    def test_without_flush_would_be_a_bug(self):
        """Demonstrate the bug the flush prevents: attaching a filter
        directly to the module (bypassing the Draco-aware path) leaves a
        stale VAT entry that contradicts the module's own decision."""
        profile = _loose_profile()
        module = SeccompKernelModule()
        module.attach(compile_linear(profile))
        draco = SoftwareDraco(build_process_tables(profile), module)
        victim = make_event("read", (4, 100), pc=PC)
        draco.check(victim)
        module.attach(_strict_program())            # raw attach: no flush
        stale = draco.check(victim)
        assert stale.allowed                        # the cache lies...
        assert not module.check(victim).allowed     # ...the filter knows


class TestHardwareFlush:
    def test_stale_slb_and_vat_flushed(self):
        profile = _loose_profile()
        module = SeccompKernelModule()
        module.attach(compile_linear(profile))
        draco = HardwareDraco(build_process_tables(profile), module)

        victim = make_event("read", (4, 100), pc=PC)
        draco.on_syscall(victim)
        assert draco.on_syscall(victim).stall_cycles <= 10  # SLB-warm

        draco.attach_additional_filter(_strict_program())
        result = draco.on_syscall(victim)
        assert not result.allowed
        assert result.os_invoked

    def test_survivors_recover_through_os_path(self):
        profile = _loose_profile()
        module = SeccompKernelModule()
        module.attach(compile_linear(profile))
        draco = HardwareDraco(build_process_tables(profile), module)
        survivor = make_event("read", (3, 100), pc=PC)
        draco.on_syscall(survivor)
        draco.attach_additional_filter(_strict_program())
        first = draco.on_syscall(survivor)
        assert first.allowed and first.os_invoked   # revalidated by the OS
        warm = draco.on_syscall(survivor)
        assert warm.allowed and not warm.os_invoked


def _allowed(outcomes):
    """Whether every segment of a ``check_run`` result was allowed."""
    verdicts = {outcome.allowed for outcome, _ in outcomes}
    assert len(verdicts) == 1, outcomes
    return verdicts.pop()


@pytest.mark.parametrize("regime_type", [SeccompRegime, SeccompBitmapRegime])
class TestSeccompRegimesTighten:
    """A filter attached to a regime's module mid-run is obeyed by the
    very next ``check`` and ``check_run``: no decision memo or bitmap
    bit built for the looser stack survives the attach.  getpid is
    argument-free, so the loose stack's action cache holds its bit;
    read(4, 100) is decided by the filter and memoized."""

    VICTIMS = (make_event("read", (4, 100), pc=PC), make_event("getpid", pc=PC))
    SURVIVOR = make_event("read", (3, 100), pc=PC)

    def test_check_obeys_stacked_filter(self, regime_type):
        regime = regime_type(_loose_profile())
        for event in self.VICTIMS + (self.SURVIVOR,):
            assert regime.check(event).allowed
            assert regime.check(event).allowed
        regime.module.attach(_strict_program())
        for victim in self.VICTIMS:
            assert not regime.module.check(victim).allowed
            assert not regime.check(victim).allowed
        assert regime.check(self.SURVIVOR).allowed

    def test_check_run_obeys_stacked_filter(self, regime_type):
        regime = regime_type(_loose_profile())
        for event in self.VICTIMS + (self.SURVIVOR,):
            assert _allowed(regime.check_run(event, 4))
        regime.module.attach(_strict_program())
        for victim in self.VICTIMS:
            assert not _allowed(regime.check_run(victim, 4))
        assert _allowed(regime.check_run(self.SURVIVOR, 4))


def test_bitmap_dropped_after_attach():
    regime = SeccompBitmapRegime(_loose_profile())
    getpid = make_event("getpid", pc=PC)
    assert regime.check(getpid).path == "bitmap_hit"
    regime.module.attach(_strict_program())
    outcome = regime.check(getpid)
    assert outcome.path == "denied"
    assert not regime.cache.hit(getpid.sid)


def _allowed_event(rule, table):
    """An event *rule* allows: its first argument set, or zeros."""
    args = [0] * table.by_sid(rule.sid).nargs
    if rule.arg_rules:
        for cmp_ in rule.arg_rules[0].comparisons:
            args[cmp_.arg_index] = cmp_.value
    return SyscallEvent(rule.sid, tuple(args), PC)


@st.composite
def tightening_pairs(draw):
    """A Mini-Docker container profile and a tighter one: the same
    whitelist with at least one of its syscalls dropped."""
    loose = draw(mini_docker_profiles())
    rules = loose.rules
    kept = draw(st.lists(st.sampled_from(rules), unique=True, max_size=len(rules) - 1))
    strict = SeccompProfile(
        "mini-docker-tight", kept, default_action=loose.default_action, table=loose.table
    )
    return loose, strict


@pytest.mark.parametrize("regime_type", [SeccompRegime, SeccompBitmapRegime])
@settings(max_examples=25, deadline=None)
@given(
    pair=tightening_pairs(),
    trace=st.lists(mini_docker_events(), max_size=8),
    layout=st.sampled_from(["linear", "binary_tree"]),
)
def test_mini_docker_tightening(regime_type, pair, trace, layout):
    """Warm every memo and bitmap bit on the loose container profile,
    stack the tighter one, and every verdict is the stacked one: the
    syscalls the tighter profile dropped die, on ``check`` and on
    ``check_run`` alike."""
    loose, strict = pair
    events = [_allowed_event(rule, loose.table) for rule in loose.rules] + trace
    regime = regime_type(loose, compiler=layout)
    for event in events:
        assert regime.check(event).allowed == loose.allows(event)
        assert _allowed(regime.check_run(event, 3)) == loose.allows(event)
    for program in compile_profile_chunked(strict, layout):
        regime.module.attach(program)
    for event in events:
        expected = loose.allows(event) and strict.allows(event)
        assert _allowed(regime.check_run(event, 3)) == expected, event
        assert regime.check(event).allowed == expected, event
