"""Dynamic system call events.

A :class:`SyscallEvent` is one executed ``syscall`` instruction: the SID,
the concrete argument values, and the program counter of the instruction
(the STB of Section VI-B is indexed by this PC).  Traces — sequences of
events — are what the workload models emit and what every checking
regime consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.syscalls.table import LINUX_X86_64, SyscallDef, SyscallTable


@dataclass(frozen=True, slots=True)
class SyscallEvent:
    """One dynamic system call instance."""

    sid: int
    args: Tuple[int, ...]
    pc: int = 0
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sid < 0:
            raise ValueError("sid must be non-negative")
        if len(self.args) > 6:
            raise ValueError("at most 6 syscall arguments")
        object.__setattr__(self, "args", tuple(int(a) for a in self.args))
        # Events are hashed and compared on every simulated syscall
        # (steady-state memos, outcome memos, run coalescing); the
        # fields are frozen, so hash once at construction.
        object.__setattr__(self, "_hash", hash((self.sid, self.args, self.pc)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object):
        if self is other:
            return True
        if other.__class__ is SyscallEvent:
            return (
                self._hash == other._hash
                and self.sid == other.sid
                and self.pc == other.pc
                and self.args == other.args
            )
        return NotImplemented

    @property
    def key(self) -> Tuple[int, Tuple[int, ...]]:
        """The (SID, argument set) identity Draco caches on."""
        return (self.sid, self.args)

    def name(self, table: SyscallTable = LINUX_X86_64) -> str:
        return table.by_sid(self.sid).name


def make_event(
    ident,
    args: Sequence[int] = (),
    pc: int = 0,
    table: SyscallTable = LINUX_X86_64,
) -> SyscallEvent:
    """Build an event from a syscall name or SID, padding checkable args.

    Argument values are taken positionally over the syscall's *checkable*
    (non-pointer) argument slots, because neither Seccomp profiles nor
    Draco inspect pointer arguments.  Pointer slots are recorded as 0.
    """
    sdef: SyscallDef = table.lookup(ident)
    checkable = sdef.checkable_args
    if len(args) > len(checkable):
        raise ValueError(
            f"{sdef.name} has {len(checkable)} checkable args, got {len(args)}"
        )
    full = [0] * sdef.nargs
    for value, slot in zip(args, checkable):
        full[slot] = int(value)
    return SyscallEvent(sid=sdef.sid, args=tuple(full), pc=pc)


def iter_runs(events: Iterable[SyscallEvent]) -> Iterator[Tuple[SyscallEvent, int]]:
    """Run-length encode *events*: yield ``(event, count)`` pairs for
    maximal blocks of consecutive identical events.

    Identity is checked first (trace generators reuse frozen instances,
    making the common case one pointer comparison) with value equality
    as the fallback, so re-parsed or hand-built traces coalesce too.
    Concatenating ``count`` copies of each yielded event reproduces the
    input exactly.
    """
    iterator = iter(events)
    try:
        prev = next(iterator)
    except StopIteration:
        return
    count = 1
    for event in iterator:
        if event is prev or event == prev:
            count += 1
            continue
        yield prev, count
        prev = event
        count = 1
    yield prev, count


class SyscallTrace:
    """An ordered sequence of syscall events with convenience analytics."""

    def __init__(self, events: Iterable[SyscallEvent] = ()) -> None:
        self._events: List[SyscallEvent] = list(events)

    def append(self, event: SyscallEvent) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[SyscallEvent]) -> None:
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SyscallEvent]:
        return iter(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SyscallTrace(self._events[index])
        return self._events[index]

    def iter_runs(self) -> Iterator[Tuple[SyscallEvent, int]]:
        """Run-length-encoded view of the trace (see :func:`iter_runs`)."""
        return iter_runs(self._events)

    def unique_sids(self) -> Tuple[int, ...]:
        return tuple(sorted({e.sid for e in self._events}))

    def unique_keys(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        return tuple(sorted({e.key for e in self._events}))

    def argument_sets_for(self, sid: int) -> Tuple[Tuple[int, ...], ...]:
        return tuple(sorted({e.args for e in self._events if e.sid == sid}))


class RunTrace:
    """A trace stored directly as run-length-encoded ``(event, count)``
    runs — the native input of the exact and analytic kernels.

    Fleet-scale syscall streams are dominated by long repeats; storing
    them expanded just to re-coalesce inside the simulator is wasted
    memory and wasted time.  A :class:`RunTrace` keeps the runs and
    satisfies the trace protocol the kernels use (``__len__`` is the
    total event count, ``iter_runs`` yields the runs, ``__iter__``
    expands to individual events for per-event consumers such as the
    scheduler):

    >>> e = make_event("read", (3, 100))
    >>> t = RunTrace([(e, 5)])
    >>> len(t)
    5
    >>> list(t.iter_runs()) == [(e, 5)]
    True
    >>> sum(1 for _ in t)
    5
    """

    def __init__(self, runs: Iterable[Tuple[SyscallEvent, int]] = ()) -> None:
        self._runs: List[Tuple[SyscallEvent, int]] = []
        self._total = 0
        for event, count in runs:
            self.append_run(event, count)

    def append_run(self, event: SyscallEvent, count: int) -> None:
        if count < 0:
            raise ValueError("run count must be non-negative")
        if not count:
            return
        if self._runs and (
            self._runs[-1][0] is event or self._runs[-1][0] == event
        ):
            prev, prev_count = self._runs[-1]
            self._runs[-1] = (prev, prev_count + count)
        else:
            self._runs.append((event, count))
        self._total += count

    def __len__(self) -> int:
        return self._total

    def __iter__(self) -> Iterator[SyscallEvent]:
        for event, count in self._runs:
            for _ in range(count):
                yield event

    def iter_runs(self) -> Iterator[Tuple[SyscallEvent, int]]:
        return iter(self._runs)

    def unique_sids(self) -> Tuple[int, ...]:
        return tuple(sorted({e.sid for e, _ in self._runs}))

    def unique_keys(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        return tuple(sorted({e.key for e, _ in self._runs}))

    def argument_sets_for(self, sid: int) -> Tuple[Tuple[int, ...], ...]:
        return tuple(sorted({e.args for e, _ in self._runs if e.sid == sid}))
