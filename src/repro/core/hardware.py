"""Hardware implementation of Draco (Section VI).

Per-core SPT + SLB + STB + Temporary Buffer, driven per syscall in two
phases that mirror the pipeline:

1. **Dispatch** (speculative, Figure 9): the instruction's PC probes the
   STB; on a hit the predicted SID walks the SPT and the predicted hash
   probes the SLB.  On a preload miss the predicted VAT slot is fetched
   through the cache hierarchy into the Temporary Buffer.  All of this
   happens while the syscall drains the ROB, so its latency is hidden up
   to the dispatch-to-head window.

2. **ROB head** (non-speculative, Figure 7): the real SID and argument
   values access the SLB (after claiming any matching Temporary Buffer
   entry).  On a miss the two cuckoo ways of the VAT are walked in
   parallel; if the VAT also misses, ``SWCheckNeeded`` is set and the OS
   runs the Seccomp filter (Section VII-B), then updates the VAT.

The outcome of each syscall is classified into the Table I flows.

:meth:`HardwareDraco._walk` is that pipeline, the reference semantics.
:meth:`HardwareDraco.on_syscall` puts a steady memo in front of it: a
walk that mutated no structure is replayed, side effect for side
effect, while the entries it hit stay resident (see
:meth:`HardwareDraco.steady_probe`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common import ledger as common_ledger
from repro.core.flows import Flow, classify
from repro.core.slb import HashId, Slb, SlbEntry, SlbSubtable
from repro.core.software import FilterCost, ProcessTables
from repro.core.spt import HardwareSPT, SptEntry
from repro.core.stb import Stb, StbEntry
from repro.core.temp_buffer import TemporaryBuffer
from repro.core.vat import VAT
from repro.cpu.hierarchy import MemoryHierarchy
from repro.cpu.params import (
    DEFAULT_DRACO_HW,
    DEFAULT_PROCESSOR,
    DEFAULT_SW_COSTS,
    DracoHwParams,
    ProcessorParams,
    SoftwareCostParams,
)
from repro.hashing.crc import CRC64_ECMA, CRC64_NOT_ECMA
from repro.seccomp.engine import SeccompKernelModule
from repro.syscalls.events import SyscallEvent

_HASHES = (CRC64_ECMA, CRC64_NOT_ECMA)


def hash_id_for(key: bytes, which: int) -> HashId:
    """The (function, value) hash identity stored in SLB/STB entries."""
    return which, _HASHES[which](key)


@dataclass(frozen=True)
class HwCheckResult:
    """Per-syscall outcome of the hardware pipeline."""

    allowed: bool
    stall_cycles: float
    flow: Flow
    os_invoked: bool = False
    stb_hit: bool = False
    preload_hit: Optional[bool] = None
    access_hit: Optional[bool] = None
    #: The parts of ``stall_cycles`` when the OS ran the filter.
    filter_cost: Optional[FilterCost] = None


@dataclass
class HardwareDracoStats:
    flows: Dict[Flow, int] = field(default_factory=dict)
    #: Per-flow stall-cycle totals, keeping the same buckets as ``flows``
    #: so the simulator-side ledger can be cross-checked against them.
    flow_cycles: Dict[Flow, float] = field(default_factory=dict)
    os_invocations: int = 0
    total_stall_cycles: float = 0.0
    syscalls: int = 0

    def record(self, result: HwCheckResult) -> None:
        flow = result.flow
        stall = result.stall_cycles
        flows = self.flows
        flows[flow] = flows.get(flow, 0) + 1
        flow_cycles = self.flow_cycles
        flow_cycles[flow] = flow_cycles.get(flow, 0.0) + stall
        if result.os_invoked:
            self.os_invocations += 1
        self.total_stall_cycles += stall
        self.syscalls += 1

    @property
    def mean_stall_cycles(self) -> float:
        return self.total_stall_cycles / self.syscalls if self.syscalls else 0.0

    def ledger(self) -> common_ledger.FlowLedger:
        """The stats as a flow ledger, keyed by the canonical taxonomy."""
        return common_ledger.FlowLedger(
            counts={flow.ledger_key: count for flow, count in self.flows.items()},
            cycles={flow.ledger_key: c for flow, c in self.flow_cycles.items()},
        )


class SteadyMemo:
    """A replayable walk of one event (see
    :meth:`HardwareDraco._maybe_install_steady`): its result, the
    structure entries it hit, and the mutation epoch at which those
    entries were last verified."""

    __slots__ = (
        "epoch", "result", "flow1", "stb_entry", "spt_slot",
        "subtable", "slb_entry", "hash_pair",
    )

    def __init__(
        self,
        epoch: int,
        result: HwCheckResult,
        stb_entry: StbEntry,
        spt_slot: SptEntry,
        subtable: Optional[SlbSubtable] = None,
        slb_entry: Optional[SlbEntry] = None,
        hash_pair: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.epoch = epoch
        self.result = result
        #: A flow-1 walk (it also hit the SLB); otherwise SPT-only.
        self.flow1 = slb_entry is not None
        self.stb_entry = stb_entry
        self.spt_slot = spt_slot
        self.subtable = subtable
        self.slb_entry = slb_entry
        self.hash_pair = hash_pair


class HardwareDraco:
    """One core's Draco hardware, bound to one process's tables."""

    def __init__(
        self,
        tables: ProcessTables,
        seccomp: SeccompKernelModule,
        processor: ProcessorParams = DEFAULT_PROCESSOR,
        hw: DracoHwParams = DEFAULT_DRACO_HW,
        costs: SoftwareCostParams = DEFAULT_SW_COSTS,
        hierarchy: Optional[MemoryHierarchy] = None,
        preload_enabled: bool = True,
        use_jit: bool = True,
        speculation_safe: bool = True,
    ) -> None:
        self.tables = tables
        self.seccomp = seccomp
        self.processor = processor
        self.hw = hw
        self.costs = costs
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy(processor)
        self.preload_enabled = preload_enabled
        self.use_jit = use_jit
        #: Section IX hardening.  When False, speculative preloads write
        #: straight into the SLB (the naive design the paper rejects),
        #: so a squashed preload leaves observable state — kept only so
        #: tests can demonstrate the side channel being closed.
        self.speculation_safe = speculation_safe
        #: Dispatch-to-head cycles a preload's latency can hide in.
        self._window = processor.dispatch_to_head_cycles

        self.spt = HardwareSPT(hw)
        self.slb = Slb(hw)
        self.stb = Stb(hw)
        self.temp = TemporaryBuffer(hw)
        self.stats = HardwareDracoStats()
        self._saved_spt: Tuple[SptEntry, ...] = ()
        #: SLB access cycles per argument count (Table II subtables).
        self._slb_cycles: Dict[int, int] = {
            sub.arg_count: sub.access_cycles for sub in hw.slb_subtables
        }
        #: Interned walk outcomes: equal-valued results are one object,
        #: so a walk builds no result and consumers can key on identity.
        self._results: Dict[tuple, HwCheckResult] = {}
        #: Steady-state memo.  An entry stays valid while the exact
        #: structure entries its walk touched remain resident — see
        #: :meth:`steady_probe`.
        self._steady: Dict[SyscallEvent, SteadyMemo] = {}
        #: The module's filter-stack generation the structures were
        #: filled under.
        self._generation = seccomp.generation
        self._populate_spt()

    #: Steady-memo size cap (events are few in practice; this is a
    #: safety valve against adversarially wide traces).
    _STEADY_LIMIT = 1 << 14

    #: Interned-result cap; a run has a few dozen distinct outcomes.
    _RESULTS_LIMIT = 1 << 12

    def _result(
        self,
        allowed: bool,
        stall_cycles: float,
        flow: Flow,
        os_invoked: bool = False,
        stb_hit: bool = False,
        preload_hit: Optional[bool] = None,
        access_hit: Optional[bool] = None,
        filter_cost: Optional[FilterCost] = None,
    ) -> HwCheckResult:
        """The interned :class:`HwCheckResult` with these fields."""
        key = (
            allowed, stall_cycles, flow, os_invoked, stb_hit, preload_hit, access_hit,
            filter_cost,
        )
        result = self._results.get(key)
        if result is None:
            if len(self._results) >= self._RESULTS_LIMIT:
                self._results.clear()
            result = self._results[key] = HwCheckResult(*key)
        return result

    def _populate_spt(self) -> None:
        """OS populates the per-core SPT from the process profile (§VIII)."""
        for entry in self.tables.spt.entries():
            self.spt.install(
                SptEntry(
                    sid=entry.sid,
                    valid=entry.valid,
                    base=entry.base,
                    arg_bitmask=entry.arg_bitmask,
                )
            )

    # ------------------------------------------------------------------
    # Dispatch phase (speculative preload, Figure 9)
    # ------------------------------------------------------------------

    def _preload(
        self, event: SyscallEvent
    ) -> Tuple[bool, Optional[bool], float, Optional[int]]:
        """Returns (stb_hit, preload_hit, preload_latency, predicted_sid)."""
        latency = float(self.hw.stb_access_cycles)
        stb_entry = self.stb.lookup(event.pc)
        if stb_entry is None:
            return False, None, latency, None

        spt_entry = self.spt.lookup(stb_entry.sid)
        latency += self.hw.spt_access_cycles
        if spt_entry is None or not spt_entry.checks_arguments:
            # Nothing to preload: either the SPT lacks the SID (the OS
            # path will run) or the Valid bit alone decides.
            return True, None, latency, stb_entry.sid

        arg_count = spt_entry.arg_count
        preload_hit = self.slb.preload_probe(stb_entry.sid, arg_count, stb_entry.hash_id)
        latency += self._slb_cycles[arg_count]
        if preload_hit:
            return True, True, latency, stb_entry.sid

        # Preload miss: fetch the predicted VAT slot into the temp buffer.
        vat_table = self.tables.vat.table_for(stb_entry.sid)
        if vat_table is not None:
            which, value = stb_entry.hash_id
            slot_index = value % vat_table.num_slots
            address = vat_table.address_of_slot(slot_index)
            hierarchy = self.hierarchy
            latency += hierarchy.level_cycles[hierarchy.load(address)]
            slot = vat_table.table.slot_at(slot_index)
            if slot is not None:
                slot_hash = hash_id_for(slot.key, slot.which_hash)
                if self.speculation_safe:
                    self.temp.stash(
                        sid=stb_entry.sid, hash_id=slot_hash, args=slot.value
                    )
                else:
                    # Naive design: speculative fill lands in the SLB
                    # immediately and survives a squash (Section IX's
                    # attack surface).
                    self.slb.fill(stb_entry.sid, arg_count, slot_hash, slot.value)
        return True, False, latency, stb_entry.sid

    # ------------------------------------------------------------------
    # ROB-head phase (non-speculative check, Figure 7)
    # ------------------------------------------------------------------

    def on_syscall(self, event: SyscallEvent) -> HwCheckResult:
        """One syscall through the pipeline.

        :meth:`steady_probe` first looks for a replayable memo entry; a
        hit replays the exact per-structure side effects of the original
        walk (clock ticks, LRU refreshes, hit counters, Accessed bits) —
        see :meth:`steady_replay` — so the memo is an accelerator, not
        an approximation.  Otherwise the full walk (:meth:`_walk`, the
        reference semantics) runs, and a walk that mutated no structure
        is memoized for later replays (see
        :meth:`_maybe_install_steady`).  A filter attached to the module
        since the last syscall first flushes every cached validation
        (:meth:`_restack`).
        """
        if self._generation != self.seccomp.generation:
            self._restack()
        memo = self.steady_probe(event)
        if memo is not None:
            self.steady_replay(memo)
            return memo.result
        epoch = self._epoch()
        result = self._walk(event)
        if self._epoch() == epoch:
            self._maybe_install_steady(event, result, epoch)
        return result

    def _epoch(self) -> int:
        """Monotonic mutation epoch over every structure a steady-state
        walk depends on.  All the counters only ever increase, so their
        sum strictly increases on any mutation: equal epochs mean no
        structure changed in between."""
        return (
            self.slb.mutations
            + self.stb.mutations
            + self.spt.mutations
            + self.temp.mutations
            + self.tables.vat.mutations
        )

    def steady_probe(self, event: SyscallEvent) -> Optional[SteadyMemo]:
        """The memo entry for *event* iff its walk is still replayable.

        Each entry is stamped with the mutation epoch (:meth:`_epoch`)
        at which it was last validated.  While the epoch is unchanged no
        structure has mutated, so the entry is returned without looking
        at any structure.

        Otherwise validity is re-checked per entry, not globally: the
        memo holds the exact structure entries its walk touched, and
        stays live while those same objects remain resident
        (side-effect-free ``peek`` probes) — unrelated fills and
        evictions elsewhere in the structures cannot change this
        event's walk.  Because STB and SLB entries are retrained *in
        place* (a PC shared by several argument sets rewrites one
        ``StbEntry``), object identity alone is not enough: the probe
        re-verifies the fields the walk reads — the STB entry still
        predicts this event's SID, the speculative preload still hits
        under the STB's current fetching hash, and the temporary buffer
        holds no entry the walk would claim.  An entry that passes is
        re-stamped with the current epoch; one that fails is left in
        place and overwritten by the next install.
        """
        memo = self._steady.get(event)
        if memo is None:
            return None
        epoch = self._epoch()
        if memo.epoch == epoch:
            return memo
        stb_entry = self.stb.peek(event.pc)
        if (
            stb_entry is not memo.stb_entry
            or stb_entry.sid != event.sid
            or self.spt.peek(event.sid) is not memo.spt_slot
        ):
            return None
        if memo.flow1:
            subtable = memo.subtable
            if (
                subtable.peek(event.sid, event.args, memo.hash_pair) is not memo.slb_entry
                or not subtable.preload_probe(event.sid, stb_entry.hash_id)
                or self.temp.peek_match(event.sid, event.args) is not None
            ):
                return None
        memo.epoch = epoch
        return memo

    def _maybe_install_steady(
        self, event: SyscallEvent, result: HwCheckResult, epoch: int
    ) -> None:
        """Memoize *result*, valid at mutation *epoch*, when the walk it
        came from is replayable.

        Eligible walks mutate nothing (the caller verified the mutation
        epoch is unchanged) and touch only structures whose per-event
        effects can be applied arithmetically:

        * **Flow 1** (STB hit / preload hit / SLB access hit): one STB
          hit, two SPT hits, one preload-probe hit, one SLB access hit.
        * **SPT-only with an STB hit**: two STB hits (the second from
          ``_maybe_update_stb``'s probe) and two SPT hits.

        Everything else (fills, VAT walks, OS checks, mispredictions)
        re-runs the full walk every time.
        """
        if result.flow is Flow.FLOW_1:
            stb_entry = self.stb.peek(event.pc)
            spt_slot = self.spt.peek(event.sid)
            if stb_entry is None or spt_slot is None:
                return
            subtable = self.slb.subtable(spt_slot.arg_count)
            hash_pair = VAT.hashed_key(event.args, spt_slot.arg_bitmask)[1]
            slb_entry = subtable.peek(event.sid, event.args, hash_pair)
            if slb_entry is None:
                return
            memo = SteadyMemo(
                epoch, result, stb_entry, spt_slot, subtable, slb_entry, hash_pair
            )
        elif result.flow is Flow.SPT_ONLY and result.stb_hit:
            stb_entry = self.stb.peek(event.pc)
            spt_slot = self.spt.peek(event.sid)
            if stb_entry is None or spt_slot is None:
                return
            memo = SteadyMemo(epoch, result, stb_entry, spt_slot)
        else:
            return
        if len(self._steady) >= self._STEADY_LIMIT:
            self._steady.clear()
        self._steady[event] = memo

    def steady_replay(self, memo: SteadyMemo) -> None:
        """Apply the side effects of one steady-state walk of the
        memoized event, bit-identical to running the walk:

        * the STB entry: one lookup, two for SPT-only (the second is
          ``_maybe_update_stb``'s), each a clock tick and a hit;
        * the SPT slot: two lookups; its Accessed bit is idempotent;
        * flow 1 only, the SLB entry: one preload-probe hit, which
          touches counters only (a preload leaves no LRU state), and
          one non-speculative access hit.
        """
        stb = self.stb
        stb_hits = 1 if memo.flow1 else 2
        stb.clock += stb_hits
        memo.stb_entry.last_used = stb.clock
        stb.hits += stb_hits
        memo.spt_slot.accessed = True
        self.spt.hits += 2
        if memo.flow1:
            subtable = memo.subtable
            subtable.clock += 1
            memo.slb_entry.last_used = subtable.clock
            slb = self.slb
            slb.preload_hits += 1
            slb.access_hits += 1
        self.stats.record(memo.result)

    def _walk(self, event: SyscallEvent) -> HwCheckResult:
        stb_hit, preload_hit, preload_latency, predicted_sid = (
            self._preload(event) if self.preload_enabled else (False, None, 0.0, None)
        )
        if stb_hit and predicted_sid != event.sid:
            # The STB predicted a different syscall for this PC (the PC
            # was reused).  The preload was useless; at the ROB head the
            # real SID proceeds as on an STB miss, and the resolution
            # path retrains the STB entry.
            stb_hit = False
            preload_hit = None
        hidden_residual = max(0.0, preload_latency - self._window)

        spt_entry = self.spt.lookup(event.sid)
        if spt_entry is None:
            result = self._os_check(event, stall_so_far=self.hw.spt_access_cycles)
            self.stats.record(result)
            return result

        if not spt_entry.checks_arguments:
            result = self._result(
                True, self.hw.spt_access_cycles, Flow.SPT_ONLY, stb_hit=stb_hit
            )
            self._maybe_update_stb(event, spt_entry, key=None, which_hash=None)
            self.stats.record(result)
            return result

        arg_count = spt_entry.arg_count
        key, hash_pair = VAT.hashed_key(event.args, spt_entry.arg_bitmask)

        # Claim any matching speculative preload first (Section IX: the
        # temp-buffer entry moves into the SLB at the non-speculative
        # access).
        claimed = self.temp.take_match(event.sid, event.args)
        if claimed is not None:
            self.slb.fill(event.sid, arg_count, claimed.hash_id, claimed.args, hash_pair)

        slb_entry = self.slb.access(event.sid, arg_count, event.args, hash_pair)
        slb_cycles = self._slb_cycles[arg_count]

        if slb_entry is not None:
            flow = classify(stb_hit, preload_hit, access_hit=True)
            stall = slb_cycles + hidden_residual
            if not stb_hit:
                # Flow 5: fill the STB with the correct SID and hash.
                self.stb.update(event.pc, event.sid, slb_entry.hash_id)
            result = self._result(
                True, stall, flow, stb_hit=stb_hit, preload_hit=preload_hit,
                access_hit=True,
            )
            self.stats.record(result)
            return result

        # SLB access miss: walk the VAT's two cuckoo ways in parallel.
        stall = slb_cycles + self.hw.crc_cycles
        probe = self.tables.vat.lookup(event.sid, key, hash_pair)
        if probe is not None:
            stall += self.hierarchy.access_parallel(probe.addresses)
        if probe is not None and probe.hit:
            hash_id = (probe.which_hash, hash_pair[probe.which_hash])
            self.slb.fill(event.sid, arg_count, hash_id, event.args, hash_pair)
            self.stb.update(event.pc, event.sid, hash_id)
            flow = classify(stb_hit, preload_hit, access_hit=False)
            result = self._result(
                True, stall, flow, stb_hit=stb_hit, preload_hit=preload_hit,
                access_hit=False,
            )
            self.stats.record(result)
            return result

        # VAT miss too: SWCheckNeeded — the OS runs the Seccomp filter.
        result = self._os_check(
            event,
            stall_so_far=stall,
            stb_hit=stb_hit,
            preload_hit=preload_hit,
            spt_entry=spt_entry,
            key=key,
            hash_pair=hash_pair,
        )
        self.stats.record(result)
        return result

    # ------------------------------------------------------------------

    def _os_check(
        self,
        event: SyscallEvent,
        stall_so_far: float,
        stb_hit: bool = False,
        preload_hit: Optional[bool] = None,
        spt_entry: Optional[SptEntry] = None,
        key: Optional[bytes] = None,
        hash_pair: Optional[Tuple[int, int]] = None,
    ) -> HwCheckResult:
        """Invoke the OS: execute Seccomp, then update the VAT and SLB."""
        decision = self.seccomp.check(event)
        per_insn = (
            self.costs.cycles_per_bpf_insn_jit
            if self.use_jit
            else self.costs.cycles_per_bpf_insn_interpreted
        )
        allowed = decision.allowed
        insert = 0

        if allowed and spt_entry is not None and key is not None:
            which = self.tables.vat.insert(event.sid, key, event.args)
            hash_id = (which, hash_pair[which])
            arg_count = spt_entry.arg_count
            self.slb.fill(event.sid, arg_count, hash_id, event.args)
            self.stb.update(event.pc, event.sid, hash_id)
            insert = self.costs.sw_draco_insert_cycles
        elif allowed and spt_entry is None:
            # Hardware SPT alias/miss for an allowed syscall: reinstall
            # the entry from the OS-side SPT so future checks are fast.
            backing = self.tables.spt.lookup(event.sid)
            if backing is not None:
                self.spt.install(
                    SptEntry(
                        sid=backing.sid,
                        valid=backing.valid,
                        base=backing.base,
                        arg_bitmask=backing.arg_bitmask,
                    )
                )

        flow = Flow.OS_CHECK if spt_entry is None else classify(
            stb_hit, preload_hit, access_hit=False
        )
        # The filter's price feeds no structure, so it is kept in its
        # parts and a walk can be priced under a deeper filter stack.
        cost = FilterCost(
            lookup=0,
            entry=stall_so_far + self.costs.seccomp_fixed_cycles,
            insns=decision.instructions_executed,
            per_insn=per_insn,
            insert=insert,
        )
        return self._result(
            allowed, cost.cycles(), flow, os_invoked=True, stb_hit=stb_hit,
            preload_hit=preload_hit, access_hit=False, filter_cost=cost,
        )

    def structure_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-structure hit/miss/evict/preload counters (Figure 13's
        raw material), one block per hardware structure."""
        return {
            "slb": self.slb.structure_stats(),
            "stb": self.stb.structure_stats(),
            "vat": self.tables.vat.structure_stats(),
            "spt": {"hits": self.spt.hits, "misses": self.spt.misses},
        }

    def _maybe_update_stb(
        self,
        event: SyscallEvent,
        spt_entry: SptEntry,
        key: Optional[bytes],
        which_hash: Optional[int],
    ) -> None:
        """Keep the STB warm for SPT-only syscalls so the SID prediction
        stays correct (their hash field is unused)."""
        if self.stb.lookup(event.pc) is None:
            self.stb.update(event.pc, event.sid, (0, 0))

    # ------------------------------------------------------------------
    # Context switches and squashes (Sections VII-B and IX)
    # ------------------------------------------------------------------

    def on_squash(self) -> None:
        """A squashed syscall clears speculative preload state only."""
        self.temp.clear()

    def attach_additional_filter(self, program) -> None:
        """Tighten the sandbox at runtime: attach one more filter and
        flush every cached validation — the VAT and the per-core
        structures ("Draco only provides a fast way to clear all these
        structures in one shot", Section VII-B).  Stale SLB/VAT entries
        would otherwise bypass the new, stricter filter."""
        self.seccomp.attach(program)
        self._restack()

    def _restack(self) -> None:
        """A filter was attached to the module, through
        :meth:`attach_additional_filter` or straight to the module:
        flush the VAT, the SLB, the STB and the Temporary Buffer.  Each
        flush moves the mutation epoch, and the emptied STB fails every
        steady memo's re-verification."""
        self._generation = self.seccomp.generation
        self.tables.vat.clear_all()
        self.slb.invalidate_all()
        self.stb.invalidate_all()
        self.temp.clear()

    def context_switch(self, same_process: bool = False) -> None:
        """Invalidate per-core structures unless the same process resumes."""
        if same_process:
            return
        self._saved_spt = self.spt.save_accessed_entries()
        self.spt.invalidate_all()
        self.slb.invalidate_all()
        self.stb.invalidate_all()
        self.temp.clear()

    def resume_process(self) -> None:
        """Restore the saved Accessed-bit SPT entries (Section VII-B)."""
        self.spt.restore(self._saved_spt)
        self._saved_spt = ()
        # Anything not saved reloads lazily via the OS path; repopulate
        # the rest eagerly as the OS would on the next SPT fault batch.
        self._populate_spt()
