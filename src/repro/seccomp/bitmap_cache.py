"""The Linux seccomp action-cache bitmap — the paper's upstream legacy.

Linux 5.11 added a per-filter bitmap (``SECCOMP_ARCH_NATIVE``) marking
syscall numbers whose filter result is *always allow*, regardless of
argument values; those syscalls skip filter execution.  The feature was
motivated by the same locality observation as Draco, but it caches only
argument-**independent** allows: any syscall whose verdict depends on
arguments still runs the full filter every time.

This module builds the bitmap the kernel's per-number emulation builds
(the filter run with ``nr`` pinned and unknown arguments), computed in
one abstract pass per attached filter over the whole syscall table
(:func:`repro.bpf.abstract.constant_actions`), and exposes it as a
checking regime, so the Draco-vs-bitmap comparison the paper implies
can be measured:

* on ``syscall-noargs``-style profiles, the bitmap is as good as Draco;
* on ``syscall-complete`` profiles, the bitmap degenerates to plain
  Seccomp while Draco's VAT keeps caching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.bpf.abstract import constant_actions
from repro.common import analytic as analytic_backend
from repro.common.bulk import bulk_enabled
from repro.core.software import CheckOutcome
from repro.kernel.regimes import (
    CheckingRegime,
    _attach,
    _merge_segment,
    _shared_outcome_memo,
)
from repro.cpu.params import DEFAULT_SW_COSTS, SoftwareCostParams
from repro.seccomp.actions import SECCOMP_RET_ALLOW, action_of
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.profile import SeccompProfile
from repro.syscalls.events import SyscallEvent
from repro.syscalls.table import LINUX_X86_64, SyscallTable


@dataclass(frozen=True)
class BitmapStats:
    cacheable_syscalls: int
    checked_syscalls: int

    @property
    def coverage(self) -> float:
        total = self.cacheable_syscalls + self.checked_syscalls
        return self.cacheable_syscalls / total if total else 0.0


class SeccompActionCache:
    """Per-process allow-bitmap over syscall numbers (kernel 5.11+)."""

    def __init__(
        self,
        module: SeccompKernelModule,
        table: SyscallTable = LINUX_X86_64,
    ) -> None:
        numbers = [entry.sid for entry in table]
        self._considered = len(numbers)
        # The kernel prepares the cache at filter-attach time by
        # emulating the filters for every native syscall number; a
        # number keeps its bit only while every filter, in attach
        # order, always allows it, so later filters see only survivors.
        allowed: Set[int] = set(numbers) if module.filters else set()
        for attached in module.filters:
            actions = constant_actions(attached.program, allowed)
            allowed = {
                nr
                for nr, action in actions.items()
                if action is not None and action_of(action) == SECCOMP_RET_ALLOW
            }
        self._allow_bitmap = allowed

    def hit(self, sid: int) -> bool:
        return sid in self._allow_bitmap

    @property
    def stats(self) -> BitmapStats:
        return BitmapStats(
            cacheable_syscalls=len(self._allow_bitmap),
            checked_syscalls=self._considered - len(self._allow_bitmap),
        )


class SeccompBitmapRegime(CheckingRegime):
    """Seccomp with the 5.11 action-cache bitmap in front of the filter."""

    #: Cost of a bitmap test at syscall entry (a bit test in hot kernel
    #: text — a handful of cycles).
    BITMAP_HIT_CYCLES = 15

    def __init__(
        self,
        profile: SeccompProfile,
        times: int = 1,
        compiler: str = "linear",
        use_jit: bool = True,
        costs: SoftwareCostParams = DEFAULT_SW_COSTS,
        name: Optional[str] = None,
    ) -> None:
        self.name = name or f"seccomp-bitmap:{profile.name}" + (
            "" if times == 1 else f"x{times}"
        )
        self.profile = profile
        self.costs = costs
        self.use_jit = use_jit
        self.module = _attach(profile, times, compiler)
        self.cache = SeccompActionCache(self.module, table=profile.table)
        self.bitmap_hits = 0
        self.filter_runs = 0
        self._hit_outcome = CheckOutcome(
            allowed=True, cycles=self.BITMAP_HIT_CYCLES, path="bitmap_hit"
        )
        #: Filter outcomes are pure functions of the masked argument
        #: bytes (same argument as SeccompRegime's memo), shared across
        #: instances with the same configuration.
        self._outcome_memo = _shared_outcome_memo(
            profile, times, compiler, use_jit, costs, kind="bitmap"
        )
        self._bulk = bulk_enabled()

    def check(self, event: SyscallEvent) -> CheckOutcome:
        if self.cache.hit(event.sid):
            self.bitmap_hits += 1
            return self._hit_outcome
        self.filter_runs += 1
        decision = self.module.check(event)
        per_insn = (
            self.costs.cycles_per_bpf_insn_jit
            if self.use_jit
            else self.costs.cycles_per_bpf_insn_interpreted
        )
        cycles = (
            self.BITMAP_HIT_CYCLES
            + self.costs.seccomp_fixed_cycles
            + decision.instructions_executed * per_insn
        )
        return CheckOutcome(
            allowed=decision.allowed,
            cycles=cycles,
            path="filter_run" if decision.allowed else "denied",
        )

    def check_run(
        self, event: SyscallEvent, count: int, work_cycles: float = 0.0
    ) -> List[Tuple[CheckOutcome, int]]:
        """The bitmap is static after attach and the filter decision is
        a pure function of the masked argument bytes, so a run collapses
        to one counter bump on the cached outcome."""
        if not self._bulk or count <= 1:
            return super().check_run(event, count, work_cycles)
        if self.cache.hit(event.sid):
            self.bitmap_hits += count
            return [(self._hit_outcome, count)]
        key = self.module.memo_key(event)
        if key is None:
            return super().check_run(event, count, work_cycles)
        segments: List[Tuple[CheckOutcome, int]] = []
        remaining = count
        if key not in self._outcome_memo:
            # Cold first check runs the filter and installs the memo.
            outcome = self.check(event)
            self._outcome_memo[key] = outcome
            _merge_segment(segments, outcome, 1)
            remaining -= 1
        cached = self._outcome_memo[key]
        self.filter_runs += remaining
        _merge_segment(segments, cached, remaining)
        return segments

    def analytic_plan(self, windows, work_cycles: float = 0.0):
        # The bitmap never changes after attach, decisions are pure
        # functions of the event value, and advance() is a no-op —
        # histogram replay is value-identical.
        return analytic_backend.EXACT_PLAN
