"""TOCTOU-immunity properties (Section II-B).

"Seccomp does not check the values of arguments that are pointers ...
a malicious user could change the contents of the location pointed to
by the pointer after the check."  Accordingly, no layer of this stack
may let a pointer argument's *value* influence a decision or a cache
key — pointer contents are out of scope by construction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpf.interpreter import run
from repro.bpf.seccomp_data import SeccompData
from repro.core.hardware import HardwareDraco
from repro.core.software import SoftwareDraco, build_process_tables
from repro.core.vat import VAT
from repro.core.software import bitmask_for_arg_indices
from repro.seccomp.compiler import compile_linear
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.toolkit import generate_complete
from repro.syscalls.events import SyscallEvent, SyscallTrace, make_event
from repro.syscalls.table import LINUX_X86_64, sid


def _with_pointer_noise(event: SyscallEvent, noise: int) -> SyscallEvent:
    """Overwrite the pointer slots of *event* with attacker values."""
    sdef = LINUX_X86_64.by_sid(event.sid)
    args = list(event.args)
    for index in range(sdef.nargs):
        if sdef.pointer_mask >> index & 1:
            args[index] = noise
    return SyscallEvent(sid=event.sid, args=tuple(args), pc=event.pc)


@pytest.fixture(scope="module")
def stack():
    trace = SyscallTrace(
        [
            make_event("read", (3, 100), pc=0x100),
            make_event("openat", (0xFFFFFF9C, 0, 0), pc=0x104),
            make_event("futex", (128, 1, 0), pc=0x108),
        ]
    )
    profile = generate_complete(trace, "t")
    program = compile_linear(profile)

    def module():
        m = SeccompKernelModule()
        m.attach(program)
        return m

    return profile, program, module


class TestPointerValuesNeverMatter:
    @settings(max_examples=50, deadline=None)
    @given(noise=st.integers(0, 2**64 - 1))
    def test_filter_decision_ignores_pointers(self, stack, noise):
        profile, program, _ = stack
        for name, args in (("read", (3, 100)), ("openat", (0xFFFFFF9C, 0, 0)),
                           ("futex", (128, 1, 0))):
            clean = make_event(name, args)
            noisy = _with_pointer_noise(clean, noise)
            clean_ret = run(program, SeccompData.from_event(clean)).return_value
            noisy_ret = run(program, SeccompData.from_event(noisy)).return_value
            assert clean_ret == noisy_ret

    @settings(max_examples=30, deadline=None)
    @given(noise=st.integers(1, 2**64 - 1))
    def test_vat_key_ignores_pointers(self, stack, noise):
        """The VAT key is built from the Argument Bitmask, which never
        covers pointer slots — attacker-controlled pointer values cannot
        create (or dodge) cache entries."""
        sdef = LINUX_X86_64.by_name("read")
        bitmask = bitmask_for_arg_indices(sdef.checkable_args)
        clean = make_event("read", (3, 100))
        noisy = _with_pointer_noise(clean, noise)
        assert VAT.hashed_key(clean.args, bitmask) == VAT.hashed_key(noisy.args, bitmask)

    def test_software_draco_hit_across_pointer_churn(self, stack):
        profile, _, module = stack
        draco = SoftwareDraco(build_process_tables(profile), module())
        first = draco.check(make_event("read", (3, 100)))
        assert first.allowed
        for noise in (0xDEAD, 0xBEEF, 0x7FFF_FFFF_0000):
            noisy = _with_pointer_noise(make_event("read", (3, 100)), noise)
            outcome = draco.check(noisy)
            assert outcome.allowed
            assert outcome.path == "vat_hit"  # same cache entry every time

    def test_hardware_draco_hit_across_pointer_churn(self, stack):
        profile, _, module = stack
        draco = HardwareDraco(build_process_tables(profile), module())
        base = make_event("futex", (128, 1, 0), pc=0x108)
        draco.on_syscall(base)
        for noise in (0x1111, 0x2222):
            noisy = _with_pointer_noise(base, noise)
            result = draco.on_syscall(noisy)
            assert result.allowed
            assert result.stall_cycles <= 10  # SLB-warm despite churn
