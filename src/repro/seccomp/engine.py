"""The in-kernel Seccomp checking engine.

Models the kernel side of Seccomp: filters are verified when attached
(``seccomp(2)`` semantics: once attached they cannot be removed, and
every syscall runs *all* attached filters, keeping the most restrictive
result).  The engine also accounts for executed BPF instructions, which
the OS cost model converts into cycles.

Two simulation fast paths ride on the statelessness property Draco's
caching relies on (Section V):

* attached programs are **decoded once** into a flat table
  (:mod:`repro.bpf.compile`), so repeated executions skip instruction
  decode and ``seccomp_data`` packing;
* decisions are **memoized** keyed by the SID plus the masked argument
  bytes the attached filters can actually observe (the union of their
  statically-derived ``seccomp_data`` reads — the simulator analogue of
  the paper's VAT keyed on Selector-masked bytes).  Events that agree on
  every observable word are guaranteed the same decision, so keying on
  the mask is exact; in particular a filter that inspects the
  instruction pointer or architecture words gets those folded into the
  key rather than silently aliased (the old ``(sid, args)`` key ignored
  them).

The paper's ``syscall-complete-2x`` configuration — "running the
syscall-complete profile twice in a row" (Section IV-A) — is expressed
here by attaching the same program twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bpf.compile import (
    CompiledFilter,
    build_key_fn,
    compile_program,
    event_words,
)
from repro.bpf.insn import Insn
from repro.common.errors import SimulationError
from repro.seccomp.actions import (
    SECCOMP_RET_ALLOW,
    action_of,
    is_allow,
    most_restrictive,
)
from repro.syscalls.events import SyscallEvent


@dataclass(frozen=True)
class SeccompDecision:
    """Result of running the attached filters on one syscall."""

    return_value: int
    instructions_executed: int
    filters_run: int

    @property
    def action(self) -> int:
        return action_of(self.return_value)

    @property
    def allowed(self) -> bool:
        return is_allow(self.return_value)


@dataclass(frozen=True)
class AttachedFilter:
    name: str
    program: Tuple[Insn, ...]
    compiled: CompiledFilter


class SeccompKernelModule:
    """Per-process stack of attached seccomp filters."""

    def __init__(self, memoize: bool = True) -> None:
        self._filters: List[AttachedFilter] = []
        self._memoize = memoize
        self._memo: Dict[Any, SeccompDecision] = {}
        self._key_fn: Optional[Callable[[SyscallEvent], Any]] = None
        #: Bumped by every attach, so a regime that caches what the
        #: stack decided can tell that the stack changed.
        self.generation = 0
        #: Execution accounting (ledger observability layer): how often
        #: the filter stack was consulted, how often the decision memo
        #: short-circuited it, and how many BPF instructions actually
        #: ran (memo hits model instruction cost without executing).
        self.checks = 0
        self.memo_hits = 0
        self.instructions_executed = 0

    @property
    def filters(self) -> Tuple[AttachedFilter, ...]:
        return tuple(self._filters)

    @property
    def enabled(self) -> bool:
        return bool(self._filters)

    @property
    def total_instructions(self) -> int:
        """Static size of all attached programs."""
        return sum(len(f.program) for f in self._filters)

    def attach(self, program: Sequence[Insn], name: str = "") -> None:
        """Verify and attach a filter; attached filters are permanent."""
        program = tuple(program)
        self._filters.append(
            AttachedFilter(name=name, program=program, compiled=compile_program(program))
        )
        # A new filter may observe words earlier ones did not: rebuild
        # the memo key over the union and drop now-stale decisions.
        observed = frozenset().union(*(f.compiled.read_words for f in self._filters))
        self._key_fn = build_key_fn(observed)
        self._memo.clear()
        self.generation += 1

    def memo_key(self, event: SyscallEvent) -> Optional[Any]:
        """The masked-argument-bytes memo key for *event* (None when
        memoization is off or nothing is attached).  Regimes reuse this
        key to memoize their own per-decision outcomes."""
        if not self._memoize or self._key_fn is None:
            return None
        return self._key_fn(event)

    def execution_stats(self) -> Dict[str, int]:
        """Filter-execution counters for the run ledger."""
        return {
            "checks": self.checks,
            "memo_hits": self.memo_hits,
            "instructions_executed": self.instructions_executed,
        }

    def check(self, event: SyscallEvent) -> SeccompDecision:
        """Run every attached filter on *event*, kernel-style."""
        filters = self._filters
        self.checks += 1
        if not filters:
            return SeccompDecision(
                return_value=SECCOMP_RET_ALLOW, instructions_executed=0, filters_run=0
            )
        memo_key = self._key_fn(event) if self._memoize else None
        if memo_key is not None:
            cached = self._memo.get(memo_key)
            if cached is not None:
                self.memo_hits += 1
                return cached
        combined: Optional[int] = None
        executed = 0
        words = event_words(event)
        for attached in filters:
            value, count = attached.compiled.run_words(words)
            executed += count
            combined = value if combined is None else most_restrictive(combined, value)
        if combined is None:  # pragma: no cover - guarded by the early return
            raise SimulationError("no filter produced a result")
        self.instructions_executed += executed
        decision = SeccompDecision(
            return_value=combined,
            instructions_executed=executed,
            filters_run=len(filters),
        )
        if memo_key is not None:
            self._memo[memo_key] = decision
        return decision
