"""Software implementation of Draco (Section V-C).

A Linux-kernel-component model: at the syscall entry point, Draco reads
the SID and argument values, consults the per-process SPT and VAT, and
only falls back to executing the Seccomp filter on a miss — after which
the VAT is updated so the validation is never repeated.

Correctness rests on Seccomp profiles being *stateless* (Section V):
the filter's output depends only on the (SID, argument set) input, so a
cached positive validation remains valid.

:meth:`SoftwareDraco._check_slow` is that workflow, the reference
semantics.  A steady-state memo sits in front of it: while the VAT is
unchanged, a VAT hit or an SPT-only check repeats without walking the
tables, and :meth:`SoftwareDraco.check_bulk` replays the rest of a run
of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common import ledger
from repro.core.spt import SoftwareSPT, SptEntry
from repro.core.vat import VAT
from repro.cpu.params import DEFAULT_SW_COSTS, SoftwareCostParams
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.profile import SeccompProfile
from repro.syscalls.events import SyscallEvent
from repro.syscalls.table import LINUX_X86_64, SyscallTable


def bitmask_for_arg_indices(indices: Tuple[int, ...]) -> int:
    """Argument Bitmask with all 8 bytes of each listed argument set."""
    mask = 0
    for index in indices:
        if not 0 <= index < 6:
            raise ValueError(f"argument index out of range: {index}")
        mask |= 0xFF << (index * 8)
    return mask


@dataclass
class ProcessTables:
    """The per-process Draco state the OS kernel maintains."""

    spt: SoftwareSPT
    vat: VAT
    profile: SeccompProfile


def build_process_tables(
    profile: SeccompProfile, table: SyscallTable = LINUX_X86_64
) -> ProcessTables:
    """Populate the SPT and size the VAT from a Seccomp profile.

    Section VII-A: "The OS kernel is responsible for filling the VAT of
    each process ... The OS sizes each table based on the number of
    argument sets used by [the] corresponding system call (e.g., based
    on the given Seccomp profile)."
    """
    spt = SoftwareSPT()
    vat = VAT()
    for rule in profile.rules:
        sdef = table.by_sid(rule.sid)
        if rule.checks_args and sdef.checkable_args:
            bitmask = bitmask_for_arg_indices(sdef.checkable_args)
            vat_table = vat.ensure_table(rule.sid, estimated_arg_sets=len(rule.arg_rules))
            spt.set_entry(
                SptEntry(
                    sid=rule.sid,
                    valid=True,
                    base=vat_table.base_address,
                    arg_bitmask=bitmask,
                )
            )
        else:
            spt.set_entry(SptEntry(sid=rule.sid, valid=True, base=0, arg_bitmask=0))
    return ProcessTables(spt=spt, vat=vat, profile=profile)


@dataclass(frozen=True)
class FilterCost:
    """The price of one Seccomp filter run, kept in its parts so the
    same run can be priced under a deeper filter stack.

    A Draco checker adds ``lookup + (entry + insns × per_insn) +
    insert``, in that association.  Attaching the stack *copies* times
    runs every attached program *copies* times over the same words, so
    only the instruction count scales: :meth:`cycles` at one copy is
    the walked price, and at two copies exactly what a checker built
    with the stack attached twice adds for the same run.
    """

    #: Software Draco's table lookup before the filter ran (hardware
    #: Draco folds its stall into ``entry`` and passes 0).
    lookup: float
    #: The instruction-independent part: Seccomp's fixed and
    #: slow-entry cycles, plus hardware Draco's stall so far.
    entry: float
    #: BPF instructions the walked filter stack executed.
    insns: int
    per_insn: float
    #: The VAT insert after an allowed run, or 0.
    insert: float

    def cycles(self, copies: int = 1) -> float:
        return self.lookup + (self.entry + copies * self.insns * self.per_insn) + self.insert


@dataclass(frozen=True)
class CheckOutcome:
    """Result of checking one syscall under a Draco regime."""

    allowed: bool
    cycles: float
    path: str  # "spt_only" | "vat_hit" | "filter_run" | "denied"
    #: Full seccomp return value when a denial's disposition matters
    #: (SECCOMP_RET_ERRNO returns -1 to the caller; KILL terminates).
    #: None means "no filter result to report" (allowed fast paths).
    action: Optional[int] = None
    #: Canonical ledger key (``repro.common.ledger.FLOW_KEYS``); empty
    #: for outcomes produced before the accounting layer existed, in
    #: which case consumers fall back to ``path``.
    flow: str = ""
    #: The parts of ``cycles`` when a Draco checker ran the filter;
    #: ``None`` for every outcome that ran none (see :meth:`priced`).
    filter_cost: Optional[FilterCost] = None

    def __post_init__(self) -> None:
        # Outcomes key the simulator's per-event grouping dict; the
        # fields are frozen, so hash once at construction.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (self.allowed, self.cycles, self.path, self.action, self.flow, self.filter_cost)
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object):
        if self is other:
            return True
        if other.__class__ is CheckOutcome:
            return (
                self._hash == other._hash
                and self.cycles == other.cycles
                and self.path == other.path
                and self.flow == other.flow
                and self.allowed == other.allowed
                and self.action == other.action
                and self.filter_cost == other.filter_cost
            )
        return NotImplemented

    def priced(self, copies: int) -> "CheckOutcome":
        """This outcome as a result under *copies* times the walked
        filter stack reports it: a filter run re-priced from its
        :class:`FilterCost`, which is dropped so that equal prices
        compare equal.  An outcome that ran no filter is returned as is.
        """
        if self.filter_cost is None:
            return self
        return CheckOutcome(
            self.allowed, self.filter_cost.cycles(copies), self.path, self.action, self.flow
        )


def _merge_segment(
    segments: List[Tuple[CheckOutcome, int]], outcome: CheckOutcome, count: int
) -> None:
    """Append (outcome, count), coalescing with an equal-valued tail."""
    if segments:
        tail_outcome, tail_count = segments[-1]
        if tail_outcome is outcome or tail_outcome == outcome:
            segments[-1] = (tail_outcome, tail_count + count)
            return
    segments.append((outcome, count))


@dataclass
class SoftwareDracoStats:
    spt_only: int = 0
    vat_hits: int = 0
    filter_runs: int = 0
    denials: int = 0
    spt_only_cycles: float = 0.0
    vat_hit_cycles: float = 0.0
    filter_run_cycles: float = 0.0
    denial_cycles: float = 0.0

    @property
    def total(self) -> int:
        return self.spt_only + self.vat_hits + self.filter_runs + self.denials

    @property
    def vat_hit_rate(self) -> float:
        checked = self.vat_hits + self.filter_runs
        return self.vat_hits / checked if checked else 0.0

    def ledger(self) -> ledger.FlowLedger:
        """The stats as a flow ledger, keyed by the canonical taxonomy."""
        snapshot = ledger.FlowLedger()
        for key, count, cycles in (
            (ledger.FLOW_SW_SPT_ONLY, self.spt_only, self.spt_only_cycles),
            (ledger.FLOW_SW_VAT_HIT, self.vat_hits, self.vat_hit_cycles),
            (ledger.FLOW_SW_FILTER, self.filter_runs, self.filter_run_cycles),
            (ledger.FLOW_SW_DENIED, self.denials, self.denial_cycles),
        ):
            if count:
                snapshot.counts[key] = count
                snapshot.cycles[key] = cycles
        return snapshot


class SoftwareDraco:
    """The software Draco checker for one process.

    Like ``HardwareDraco._result``, it builds each distinct allowed
    outcome once per instance (never per class: another checker may
    price with other costs), so the simulator groups them by identity.
    """

    def __init__(
        self,
        tables: ProcessTables,
        seccomp: SeccompKernelModule,
        costs: SoftwareCostParams = DEFAULT_SW_COSTS,
        use_jit: bool = True,
    ) -> None:
        self.tables = tables
        self.seccomp = seccomp
        self.costs = costs
        self.use_jit = use_jit
        self.stats = SoftwareDracoStats()
        #: Steady-state memo: event -> (epoch, outcome) for the two pure
        #: fast paths (VAT hit, SPT-only).  The epoch is the VAT's
        #: mutation counter — any insert (cuckoo relocations may evict)
        #: or flush lazily invalidates every entry.
        self._steady: Dict[SyscallEvent, Tuple[int, CheckOutcome]] = {}
        #: Interned outcomes: the fast paths' are constants of ``costs``;
        #: a filter run's depends only on its instruction count, which
        #: the filter stack's length bounds.
        self._spt_only = CheckOutcome(
            allowed=True, cycles=costs.sw_draco_spt_only_cycles, path="spt_only",
            flow=ledger.FLOW_SW_SPT_ONLY,
        )
        self._vat_hit = CheckOutcome(
            allowed=True, cycles=costs.sw_draco_hit_cycles, path="vat_hit",
            flow=ledger.FLOW_SW_VAT_HIT,
        )
        self._filter_outcomes: Dict[int, CheckOutcome] = {}
        #: The module's filter-stack generation the VAT was filled under.
        self._generation = seccomp.generation

    #: Steady-memo size cap (safety valve, as in the hardware model).
    _STEADY_LIMIT = 1 << 14

    def attach_additional_filter(self, program) -> None:
        """Tighten the sandbox at runtime (seccomp(2) semantics: filters
        can only be added, and results only become more restrictive).

        Section VII-B assumes filters are static, which lets Draco skip
        coherence machinery; the one mutation the kernel does allow —
        attaching another filter — therefore must flush every cached
        validation, since the new filter may deny previously validated
        (SID, argument set) combinations.
        """
        self.seccomp.attach(program)
        self._restack()

    def _restack(self) -> None:
        """A filter was attached to the module, through
        :meth:`attach_additional_filter` or straight to the module:
        flush every validation the looser stack made.  The VAT flush
        moves its mutation epoch, which retires the steady memo too."""
        self._generation = self.seccomp.generation
        self.tables.vat.clear_all()

    def _filter_cost(self, lookup: float, instructions: int, insert: float = 0) -> FilterCost:
        per_insn = (
            self.costs.cycles_per_bpf_insn_jit
            if self.use_jit
            else self.costs.cycles_per_bpf_insn_interpreted
        )
        # The slow-entry-path surcharge applies only when the filter
        # machinery actually runs (Draco's entry hook takes the fast
        # path on cache hits).
        return FilterCost(
            lookup=lookup,
            entry=self.costs.seccomp_slow_path_cycles + self.costs.seccomp_fixed_cycles,
            insns=instructions,
            per_insn=per_insn,
            insert=insert,
        )

    def check(self, event: SyscallEvent) -> CheckOutcome:
        """Figure 4's workflow: table check, then filter on a miss
        (:meth:`_check_slow`, the reference semantics), with a
        steady-state memo in front."""
        if self._generation != self.seccomp.generation:
            self._restack()
        memo = self._steady.get(event)
        if memo is not None and memo[0] == self.tables.vat.mutations:
            self._replay_steady(memo[1], 1)
            return memo[1]
        outcome = self._check_slow(event)
        if outcome.path == "vat_hit" or outcome.path == "spt_only":
            # Neither fast path mutated the VAT, so the epoch read here
            # is the one the walk ran under.
            if len(self._steady) >= self._STEADY_LIMIT:
                self._steady.clear()
            self._steady[event] = (self.tables.vat.mutations, outcome)
        return outcome

    def _replay_steady(self, outcome: CheckOutcome, count: int) -> None:
        """Apply the side effects of *count* steady-state checks of a
        memoized outcome, bit-identical to running them one by one (the
        fast paths touch only counters; ``cycles * count`` is exact for
        ``count == 1`` and audit-tolerance-equal beyond)."""
        if outcome.path == "vat_hit":
            self.tables.vat.record_hit_bulk(count)
            self.stats.vat_hits += count
            self.stats.vat_hit_cycles += outcome.cycles * count
        else:  # "spt_only"
            self.stats.spt_only += count
            self.stats.spt_only_cycles += outcome.cycles * count

    def check_bulk(self, event: SyscallEvent, count: int) -> List[Tuple[CheckOutcome, int]]:
        """Check *event* ``count`` times, returning chronological
        ``(outcome, n)`` segments.  Once the walk reaches a steady fast
        path the remainder of the run is replayed arithmetically (a
        steady replay mutates nothing, so it stays steady)."""
        if self._generation != self.seccomp.generation:
            self._restack()
        segments: List[Tuple[CheckOutcome, int]] = []
        remaining = count
        while remaining:
            memo = self._steady.get(event)
            if memo is not None and memo[0] == self.tables.vat.mutations:
                outcome = memo[1]
                self._replay_steady(outcome, remaining)
                _merge_segment(segments, outcome, remaining)
                break
            outcome = self.check(event)
            _merge_segment(segments, outcome, 1)
            remaining -= 1
        return segments

    def _check_slow(self, event: SyscallEvent) -> CheckOutcome:
        spt = self.tables.spt
        entry = spt.lookup(event.sid)

        if entry is None or not entry.valid:
            # Unknown syscall: the filter runs and (for whitelist
            # profiles) rejects it.  Nothing is cached.
            decision = self.seccomp.check(event)
            cost = self._filter_cost(
                self.costs.sw_draco_spt_only_cycles, decision.instructions_executed
            )
            cycles = cost.cycles()
            self.stats.denials += 1
            self.stats.denial_cycles += cycles
            return CheckOutcome(
                allowed=decision.allowed,
                cycles=cycles,
                path="denied",
                action=decision.return_value,
                flow=ledger.FLOW_SW_DENIED,
                filter_cost=cost,
            )

        if not entry.checks_arguments:
            outcome = self._spt_only
            self.stats.spt_only += 1
            self.stats.spt_only_cycles += outcome.cycles
            return outcome

        key, hashes = VAT.hashed_key(event.args, entry.arg_bitmask)
        probe = self.tables.vat.lookup(event.sid, key, hashes)
        if probe is not None and probe.hit:
            outcome = self._vat_hit
            self.stats.vat_hits += 1
            self.stats.vat_hit_cycles += outcome.cycles
            return outcome

        # VAT miss: execute the Seccomp filter, then cache the validation.
        # (fall through)
        decision = self.seccomp.check(event)
        if decision.allowed:
            self.tables.vat.insert(event.sid, key, event.args)
            instructions = decision.instructions_executed
            outcome = self._filter_outcomes.get(instructions)
            if outcome is None:
                cost = self._filter_cost(
                    self.costs.sw_draco_hit_cycles,
                    instructions,
                    self.costs.sw_draco_insert_cycles,
                )
                outcome = self._filter_outcomes[instructions] = CheckOutcome(
                    allowed=True, cycles=cost.cycles(), path="filter_run",
                    flow=ledger.FLOW_SW_FILTER, filter_cost=cost,
                )
            self.stats.filter_runs += 1
            self.stats.filter_run_cycles += outcome.cycles
            return outcome
        cost = self._filter_cost(self.costs.sw_draco_hit_cycles, decision.instructions_executed)
        cycles = cost.cycles()
        self.stats.denials += 1
        self.stats.denial_cycles += cycles
        return CheckOutcome(
            allowed=False, cycles=cycles, path="denied",
            action=decision.return_value, flow=ledger.FLOW_SW_DENIED, filter_cost=cost,
        )
