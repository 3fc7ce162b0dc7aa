"""Security tests for the Section IX side-channel defenses.

The attack the paper shields against: "An adversary could trigger SLB
preloading followed by a squash, which could then speed-up a subsequent
benign access that uses the same SLB entry and reveal a secret."  The
hardened design (a) defers preload fills to the Temporary Buffer until
the non-speculative access, and (b) never updates SLB LRU state on a
speculative probe.
"""

import pytest

from repro.core.flows import Flow
from repro.core.hardware import HardwareDraco, hash_id_for
from repro.core.software import build_process_tables
from repro.seccomp.compiler import compile_linear
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.toolkit import generate_complete
from repro.syscalls.events import SyscallTrace, make_event

PC = 0x400100


def _draco(speculation_safe: bool) -> HardwareDraco:
    training = SyscallTrace(
        [
            make_event("read", (3, 100), pc=PC),
            make_event("read", (4, 100), pc=PC),
        ]
    )
    profile = generate_complete(training, "victim")
    module = SeccompKernelModule()
    module.attach(compile_linear(profile))
    return HardwareDraco(
        build_process_tables(profile), module, speculation_safe=speculation_safe
    )


def _prime_and_squash(draco: HardwareDraco) -> None:
    """Attacker gadget: validate both argsets, retrain the STB to point
    at the victim argset, clear the SLB, trigger a *speculative* preload
    for the victim entry, then squash."""
    draco.on_syscall(make_event("read", (3, 100), pc=PC))   # validate A
    draco.on_syscall(make_event("read", (4, 100), pc=PC))   # validate B (STB -> B)
    draco.slb.invalidate_all()                              # attacker-controlled reset
    draco._preload(make_event("read", (4, 100), pc=PC))     # speculative preload of B
    draco.on_squash()                                       # transient path squashed


class TestSquashLeavesNoState:
    def test_hardened_design_leaks_nothing(self):
        """After a squashed speculative preload, no SLB or temp-buffer
        state remains: architecturally indistinguishable from 'no
        preload ever happened' (the Section IX requirement)."""
        draco = _draco(speculation_safe=True)
        _prime_and_squash(draco)
        assert draco.slb.subtable(3).occupancy == 0
        assert len(draco.temp) == 0

    def test_naive_design_leaks(self):
        """The naive design (direct speculative SLB fill) leaves the
        entry resident after the squash — the residue an attacker can
        time."""
        draco = _draco(speculation_safe=False)
        _prime_and_squash(draco)
        assert draco.slb.subtable(3).occupancy > 0  # residue!

    def test_timing_difference_between_designs(self):
        """The observable channel: a benign access whose own preload has
        not completed (it checks the SLB at the ROB head) is faster on
        the naive design after the squashed speculative preload."""
        safe = _draco(speculation_safe=True)
        naive = _draco(speculation_safe=False)
        probe_event = make_event("read", (4, 100), pc=PC)
        stalls = {}
        for label, draco in (("safe", safe), ("naive", naive)):
            _prime_and_squash(draco)
            draco.preload_enabled = False  # probe reaches ROB head first
            stalls[label] = draco.on_syscall(probe_event).stall_cycles
        assert stalls["naive"] < stalls["safe"]


class TestPreloadProbeSideEffects:
    def test_probe_does_not_refresh_lru(self):
        """Speculative probes must not promote entries: otherwise an
        attacker could keep a victim's entry alive (or evict others)
        transiently."""
        draco = _draco(speculation_safe=True)
        subtable = draco.slb.subtable(2)
        key_a, key_b = b"entry-a", b"entry-b"
        hid_a, hid_b = hash_id_for(key_a, 0), hash_id_for(key_b, 0)
        subtable.fill(0, hid_a, (1, 1))
        clock_before = subtable.clock
        for _ in range(10):
            subtable.preload_probe(0, hid_a)
        assert subtable.clock == clock_before  # no LRU clock movement

    def test_temp_buffer_cleared_on_context_switch(self):
        draco = _draco(speculation_safe=True)
        draco.on_syscall(make_event("read", (3, 100), pc=PC))
        draco.slb.invalidate_all()
        draco._preload(make_event("read", (3, 100), pc=PC))
        assert len(draco.temp) > 0
        draco.context_switch(same_process=False)
        assert len(draco.temp) == 0

    def test_structures_invalidated_across_processes(self):
        """Section IX: 'when a core performs a context switch to a
        different process, the SLB, STB, and SPT are invalidated.'"""
        draco = _draco(speculation_safe=True)
        draco.on_syscall(make_event("read", (3, 100), pc=PC))
        draco.context_switch(same_process=False)
        assert draco.slb.subtable(3).occupancy == 0
        assert draco.stb.occupancy == 0
        assert draco.spt.occupancy == 0
