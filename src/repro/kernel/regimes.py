"""System-call checking regimes — the OS entry-point variants.

A regime is what sits at the kernel's syscall entry point and decides,
per syscall, whether it may proceed and how many cycles the decision
cost.  The paper evaluates four families:

* **insecure** — Seccomp disabled, no checking;
* **seccomp** — conventional filter execution (linear or binary-tree
  compiled, JIT'd or interpreted, attached 1x or 2x);
* **draco-sw** — the Section V-C kernel component (SPT + VAT cache in
  front of the filter);
* **draco-hw** — the Section VI microarchitecture (SPT + SLB + STB +
  Temporary Buffer), where the only visible cost is ROB-head stall.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Tuple

from repro.common import analytic as analytic_backend
from repro.common import ledger as common_ledger
from repro.common.bulk import bulk_enabled
from repro.common.errors import AnalyticPreconditionError
from repro.common.memo import memo_insert
from repro.core.hardware import HardwareDraco
from repro.core.software import (
    CheckOutcome,
    SoftwareDraco,
    _merge_segment,
    build_process_tables,
)
from repro.cpu.hierarchy import MemoryHierarchy
from repro.cpu.params import (
    DEFAULT_DRACO_HW,
    DEFAULT_PROCESSOR,
    DEFAULT_SW_COSTS,
    DracoHwParams,
    ProcessorParams,
    SoftwareCostParams,
)
from repro.seccomp.compiler import compile_profile_chunked
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.profile import SeccompProfile
from repro.syscalls.events import SyscallEvent


class CheckingRegime(abc.ABC):
    """One syscall-checking configuration under test."""

    name: str

    @abc.abstractmethod
    def check(self, event: SyscallEvent) -> CheckOutcome:
        """Check one syscall; returns permission and cycle cost."""

    def check_run(
        self, event: SyscallEvent, count: int, work_cycles: float = 0.0
    ) -> List[Tuple[CheckOutcome, int]]:
        """Check a run of *count* identical events, interleaving
        ``advance(work_cycles)`` after each check — semantically the
        per-event sequence ``[check; advance] × count`` — and return its
        outcomes as chronological ``(outcome, n)`` segments.

        This default performs the sequence literally; regimes override
        it with provably-equivalent steady-state shortcuts (the bulk
        fast path).  Callers that consume runs must *not* also call
        :meth:`advance` for the covered events.
        """
        segments: List[Tuple[CheckOutcome, int]] = []
        for _ in range(count):
            _merge_segment(segments, self.check(event), 1)
            self.advance(work_cycles)
        return segments

    def advance(self, work_cycles: float) -> None:
        """Account for *work_cycles* of application execution between
        syscalls (cache pollution, context-switch clocks)."""

    def on_context_switch(self) -> None:
        """The scheduler preempted this process and later resumed it."""

    def ledger_snapshot(self) -> Optional[common_ledger.FlowLedger]:
        """A copy of this regime's own per-flow accounting, or ``None``
        when the regime keeps none.  The simulator snapshots it around
        the measured window and cross-checks the delta against its own
        ledger (conservation audit)."""
        return None

    def structure_stats(self) -> Optional[Dict[str, Any]]:
        """Per-structure hit/miss/evict counters, or ``None``."""
        return None

    def analytic_plan(
        self, windows: "analytic_backend.TraceWindows", work_cycles: float = 0.0
    ) -> Optional["analytic_backend.AnalyticPlan"]:
        """How the analytic backend may drive this regime, or ``None``
        to decline (the simulator then falls back to the exact RLE bulk
        or per-event kernels).

        Order-independent regimes with a no-op :meth:`advance` return
        :data:`repro.common.analytic.EXACT_PLAN` — histogram replay is
        value-identical for them.  History-dependent regimes may return
        a sampled plan for long traces, or ``None``.  The base regime
        declines: analytic execution is strictly opt-in per regime.
        """
        return None

    def analytic_verify(self) -> None:
        """Post-run hook for exact analytic replays: raise
        :class:`~repro.common.errors.AnalyticPreconditionError` if a
        precondition the plan relied on turned out not to hold."""

    def analytic_context_switch(self) -> None:
        """Fire one context switch by hand (the sampled plan's transient
        segment).  Only regimes that return plans with
        ``transient_repeats > 0`` need a real implementation; the base
        regime has no quantum timer, so this is a no-op."""


class InsecureRegime(CheckingRegime):
    """Seccomp disabled — the paper's normalisation baseline."""

    def __init__(self) -> None:
        self.name = "insecure"
        self._ledger = common_ledger.FlowLedger()
        self._outcome = CheckOutcome(
            allowed=True, cycles=0.0, path="none", flow=common_ledger.FLOW_NONE
        )

    def check(self, event: SyscallEvent) -> CheckOutcome:
        self._ledger.record(common_ledger.FLOW_NONE, 0.0)
        return self._outcome

    def _pristine(self) -> bool:
        # The bulk shortcut and the exact plan both bake in what
        # check() returns; a subclass that overrides check() must get
        # the literal per-event semantics instead.
        return type(self).check is InsecureRegime.check

    def check_run(
        self, event: SyscallEvent, count: int, work_cycles: float = 0.0
    ) -> List[Tuple[CheckOutcome, int]]:
        # No checking and no advance() side effects: a run collapses to
        # one ledger bump (count is an int and cycles are 0.0, so the
        # bulk update is exact).
        if not self._pristine():
            return super().check_run(event, count, work_cycles)
        self._ledger.record_bulk(common_ledger.FLOW_NONE, 0.0, count)
        return [(self._outcome, count)]

    def analytic_plan(self, windows, work_cycles: float = 0.0):
        # No state at all: trivially order-independent.
        if not self._pristine():
            return None
        return analytic_backend.EXACT_PLAN

    def ledger_snapshot(self) -> common_ledger.FlowLedger:
        return self._ledger.snapshot()


#: Assembled-program memo: profiles are immutable and regimes are built
#: fresh per evaluation, so the same (profile, strategy) pair is lowered
#: to cBPF hundreds of times per suite.  Keyed by profile identity with
#: a strong reference to the profile so the id cannot be recycled.
_PROGRAM_MEMO: Dict[tuple, tuple] = {}
_PROGRAM_MEMO_LIMIT = 256


def _programs_for(profile: SeccompProfile, compiler: str):
    key = (id(profile), compiler)
    hit = _PROGRAM_MEMO.get(key)
    if hit is not None and hit[0] is profile:
        return hit[1]
    programs = compile_profile_chunked(profile, strategy=compiler)
    memo_insert(_PROGRAM_MEMO, key, (profile, programs), _PROGRAM_MEMO_LIMIT)
    return programs


#: Shared outcome memos: a filter decision — and therefore the whole
#: CheckOutcome — is a pure function of (profile, times, compiler,
#: use_jit, costs) and the masked argument bytes, while regimes are
#: rebuilt fresh for every evaluation.  Sharing the memo across regime
#: instances means each distinct event value runs the filter once per
#: process rather than once per evaluation.  Keyed like _PROGRAM_MEMO,
#: with strong references so ids cannot be recycled.
_OUTCOME_MEMO: Dict[tuple, tuple] = {}
_OUTCOME_MEMO_LIMIT = 256


def _shared_outcome_memo(
    profile: SeccompProfile,
    times: int,
    compiler: str,
    use_jit: bool,
    costs: SoftwareCostParams,
    kind: str,
    fastpath: Optional[bool] = None,
) -> Dict[object, CheckOutcome]:
    key = (kind, id(profile), times, compiler, use_jit, id(costs), fastpath)
    hit = _OUTCOME_MEMO.get(key)
    if hit is not None and hit[0] is profile and hit[1] is costs:
        return hit[2]
    memo: Dict[object, CheckOutcome] = {}
    memo_insert(_OUTCOME_MEMO, key, (profile, costs, memo), _OUTCOME_MEMO_LIMIT)
    return memo


def _attach(
    profile: SeccompProfile,
    times: int,
    compiler: str,
    fastpath: Optional[bool] = None,
) -> SeccompKernelModule:
    module = SeccompKernelModule(compile_filters=fastpath)
    programs = _programs_for(profile, compiler)
    for index in range(times):
        for chunk, program in enumerate(programs):
            module.attach(program, name=f"{profile.name}#{index}.{chunk}")
    return module


class SeccompRegime(CheckingRegime):
    """Conventional Seccomp checking (Figure 1)."""

    def __init__(
        self,
        profile: SeccompProfile,
        times: int = 1,
        compiler: str = "linear",
        use_jit: bool = True,
        costs: SoftwareCostParams = DEFAULT_SW_COSTS,
        name: Optional[str] = None,
        fastpath: Optional[bool] = None,
    ) -> None:
        self.name = name or f"seccomp:{profile.name}" + ("" if times == 1 else f"x{times}")
        self.profile = profile
        self.costs = costs
        self.use_jit = use_jit
        self.module = _attach(profile, times, compiler, fastpath=fastpath)
        # Outcomes are pure functions of the module's decision, which is
        # itself keyed on the masked argument bytes — memoize the whole
        # CheckOutcome so repeat syscalls are a single dict probe.  The
        # memo stays per-instance (unlike the bitmap regime's) because
        # this regime exposes the module's raw execution counters via
        # structure_stats(): sharing would make those depend on what ran
        # earlier in the process and break RunResult byte-identity.
        self._outcome_memo: Dict[object, CheckOutcome] = {}
        self._ledger = common_ledger.FlowLedger()
        self._bulk = bulk_enabled()

    def check(self, event: SyscallEvent) -> CheckOutcome:
        key = self.module.memo_key(event)
        if key is not None:
            cached = self._outcome_memo.get(key)
            if cached is not None:
                self._ledger.record(cached.flow, cached.cycles)
                return cached
        decision = self.module.check(event)
        per_insn = (
            self.costs.cycles_per_bpf_insn_jit
            if self.use_jit
            else self.costs.cycles_per_bpf_insn_interpreted
        )
        cycles = (
            self.costs.seccomp_slow_path_cycles
            + self.costs.seccomp_fixed_cycles
            + decision.instructions_executed * per_insn
        )
        outcome = CheckOutcome(
            allowed=decision.allowed,
            cycles=cycles,
            path="filter_run" if decision.allowed else "denied",
            action=decision.return_value,
            flow=(
                common_ledger.FLOW_SECCOMP_FILTER
                if decision.allowed
                else common_ledger.FLOW_SECCOMP_DENIED
            ),
        )
        if key is not None:
            self._outcome_memo[key] = outcome
        self._ledger.record(outcome.flow, outcome.cycles)
        return outcome

    def check_run(
        self, event: SyscallEvent, count: int, work_cycles: float = 0.0
    ) -> List[Tuple[CheckOutcome, int]]:
        """A filter decision is a pure function of the masked argument
        bytes, so once the outcome memo holds the decision the rest of
        the run is a single ledger bump — the memo-hit path in
        :meth:`check` touches nothing else."""
        if not self._bulk or count <= 1:
            return super().check_run(event, count, work_cycles)
        key = self.module.memo_key(event)
        if key is None:
            return super().check_run(event, count, work_cycles)
        segments: List[Tuple[CheckOutcome, int]] = []
        remaining = count
        if key not in self._outcome_memo:
            # Cold first check runs the filter and installs the memo.
            _merge_segment(segments, self.check(event), 1)
            remaining -= 1
        cached = self._outcome_memo[key]
        self._ledger.record_bulk(cached.flow, cached.cycles, remaining)
        _merge_segment(segments, cached, remaining)
        return segments

    def analytic_plan(self, windows, work_cycles: float = 0.0):
        # A filter decision is a pure function of the event value and
        # advance() is a no-op, so outcomes are order-independent.
        return analytic_backend.EXACT_PLAN

    def ledger_snapshot(self) -> common_ledger.FlowLedger:
        return self._ledger.snapshot()

    def structure_stats(self) -> Dict[str, Dict[str, int]]:
        return {"seccomp": self.module.execution_stats()}


class DracoSwRegime(CheckingRegime):
    """Software Draco (Section V-C) in front of the Seccomp filter."""

    def __init__(
        self,
        profile: SeccompProfile,
        times: int = 1,
        compiler: str = "linear",
        use_jit: bool = True,
        costs: SoftwareCostParams = DEFAULT_SW_COSTS,
        name: Optional[str] = None,
        fastpath: Optional[bool] = None,
    ) -> None:
        self.name = name or f"draco-sw:{profile.name}" + ("" if times == 1 else f"x{times}")
        self.profile = profile
        tables = build_process_tables(profile, table=profile.table)
        self.draco = SoftwareDraco(
            tables,
            _attach(profile, times, compiler, fastpath=fastpath),
            costs=costs,
            use_jit=use_jit,
        )

    def check(self, event: SyscallEvent) -> CheckOutcome:
        return self.draco.check(event)

    def check_run(
        self, event: SyscallEvent, count: int, work_cycles: float = 0.0
    ) -> List[Tuple[CheckOutcome, int]]:
        # advance() is a no-op for the software regime, so the run
        # delegates wholly to the checker's steady-state bulk path.
        return self.draco.check_bulk(event, count)

    def analytic_plan(self, windows, work_cycles: float = 0.0):
        """Exact, under one precondition: the VAT suffers no cuckoo
        evictions, making it an insert-only value-keyed map whose
        outcomes do not depend on event interleaving.  The OS sizes each
        per-syscall table at twice the profile's argument-set count
        (load factor <= 0.5), which makes evictions rare but not
        impossible; when one happens, :meth:`analytic_verify` fails the
        replay loudly.
        """
        self._analytic_evictions_before = self.draco.tables.vat.structure_stats()[
            "evictions"
        ]
        return analytic_backend.EXACT_PLAN

    def analytic_verify(self) -> None:
        evictions = self.draco.tables.vat.structure_stats()["evictions"]
        before = getattr(self, "_analytic_evictions_before", 0)
        if evictions != before:
            raise AnalyticPreconditionError(
                f"{self.name}: VAT evicted {evictions - before} entries during "
                "an analytic exact replay — the no-eviction precondition is "
                "violated; rerun on the exact kernels (analytic=False)"
            )

    def ledger_snapshot(self) -> common_ledger.FlowLedger:
        return self.draco.stats.ledger()

    def structure_stats(self) -> Dict[str, Any]:
        return {
            "vat": self.draco.tables.vat.structure_stats(),
            "seccomp": self.draco.seccomp.execution_stats(),
        }

    @property
    def stats(self):
        return self.draco.stats


class DracoHwRegime(CheckingRegime):
    """Hardware Draco (Section VI); checking cost is ROB-head stall."""

    def __init__(
        self,
        profile: SeccompProfile,
        times: int = 1,
        compiler: str = "linear",
        use_jit: bool = True,
        costs: SoftwareCostParams = DEFAULT_SW_COSTS,
        processor: ProcessorParams = DEFAULT_PROCESSOR,
        hw: DracoHwParams = DEFAULT_DRACO_HW,
        preload_enabled: bool = True,
        context_switch_interval_cycles: Optional[float] = 4_000_000.0,
        name: Optional[str] = None,
        fastpath: Optional[bool] = None,
    ) -> None:
        self.name = name or f"draco-hw:{profile.name}" + ("" if times == 1 else f"x{times}")
        self.profile = profile
        tables = build_process_tables(profile, table=profile.table)
        self.hierarchy = MemoryHierarchy(processor)
        self.draco = HardwareDraco(
            tables,
            _attach(profile, times, compiler, fastpath=fastpath),
            processor=processor,
            hw=hw,
            costs=costs,
            hierarchy=self.hierarchy,
            preload_enabled=preload_enabled,
            use_jit=use_jit,
        )
        self._cs_interval = context_switch_interval_cycles
        self._cycles_since_switch = 0.0
        self._bulk = bulk_enabled()
        #: Dedup cache for the CheckOutcome wrappers around hardware
        #: results; outcomes are frozen, so reuse is observationally
        #: identical to building a fresh instance per event.
        self._outcome_cache: Dict[tuple, CheckOutcome] = {}

    _OUTCOME_CACHE_LIMIT = 4096

    def _outcome_for(self, result) -> CheckOutcome:
        key = (result.flow, result.stall_cycles, result.allowed)
        outcome = self._outcome_cache.get(key)
        if outcome is None:
            if len(self._outcome_cache) >= self._OUTCOME_CACHE_LIMIT:
                self._outcome_cache.clear()
            outcome = CheckOutcome(
                allowed=result.allowed,
                cycles=result.stall_cycles,
                path="hw:" + result.flow.value,
                flow=result.flow.ledger_key,
            )
            self._outcome_cache[key] = outcome
        return outcome

    def check(self, event: SyscallEvent) -> CheckOutcome:
        return self._outcome_for(self.draco.on_syscall(event))

    def _advance_span(self, work_cycles: float, limit: int):
        """How many ``[check; advance]`` iterations fit before the
        context-switch timer fires, replaying the per-event float
        accumulation exactly (repeated ``+=`` is not ``n * w`` in
        IEEE-754).  Returns ``(span, residual_accumulator, fired)``.
        """
        if self._cs_interval is None or work_cycles == 0.0:
            # advance() never accumulates (or adds zero): the whole run
            # fits and the accumulator is untouched.
            return limit, self._cycles_since_switch, False
        acc = self._cycles_since_switch
        interval = self._cs_interval
        span = 0
        while span < limit:
            acc += work_cycles
            span += 1
            if acc >= interval:
                return span, acc, True
        return span, acc, False

    def check_run(
        self, event: SyscallEvent, count: int, work_cycles: float = 0.0
    ) -> List[Tuple[CheckOutcome, int]]:
        """Steady-state bulk path: while the hardware walk for *event*
        is memoized (pure hit flow, no structure mutation since it was
        installed), a span of the run is replayed arithmetically.  The
        span is cut where the context-switch timer fires, because the
        switch invalidates Draco state and ends the steady regime.

        Reordering within a span — ``span`` replayed checks, then
        ``span`` pollution advances — is sound because steady replays
        never touch the memory hierarchy and pollution never touches
        the Draco structures.
        """
        if not self._bulk:
            return super().check_run(event, count, work_cycles)
        segments: List[Tuple[CheckOutcome, int]] = []
        remaining = count
        while remaining:
            memo = self.draco.steady_probe(event)
            if memo is None:
                _merge_segment(segments, self.check(event), 1)
                remaining -= 1
                self.advance(work_cycles)
                continue
            span, residual, fired = self._advance_span(work_cycles, remaining)
            self.draco.steady_replay(memo, span)
            _merge_segment(segments, self._outcome_for(memo[0]), span)
            remaining -= span
            self.hierarchy.pollute_repeat(int(work_cycles), span)
            if fired:
                self._cycles_since_switch = 0.0
                self.on_context_switch()
            else:
                self._cycles_since_switch = residual
        return segments

    def analytic_plan(self, windows, work_cycles: float = 0.0):
        """Hardware Draco is history-dependent (STB retraining, SLB
        conflicts, hierarchy pollution), so there is no exact closed
        form; long steady-state traces use the sampled-extrapolation
        plan instead.  The quantum timer accumulates exactly
        ``work_cycles`` per event, so the context-switch period (in
        events) is handed to the planner, which carves each expiry's
        re-warm transient into its own scaled segment — or declines when
        the simulated prefix cannot fit inside one quantum.  Declined
        outright mid-quantum (a fresh regime instance starts at zero)."""
        if self._cycles_since_switch:
            return None
        period = None
        if self._cs_interval is not None and work_cycles > 0.0:
            period = self._cs_interval / work_cycles
        return analytic_backend.plan_sampled_window(
            windows, switch_period_events=period
        )

    def analytic_context_switch(self) -> None:
        self._cycles_since_switch = 0.0
        self.on_context_switch()

    def ledger_snapshot(self) -> common_ledger.FlowLedger:
        return self.draco.stats.ledger()

    def structure_stats(self) -> Dict[str, Any]:
        stats = self.draco.structure_stats()
        stats["seccomp"] = self.draco.seccomp.execution_stats()
        stats["counters"] = {
            "syscalls": self.draco.stats.syscalls,
            "os_invocations": self.draco.stats.os_invocations,
        }
        return stats

    def advance(self, work_cycles: float) -> None:
        self.hierarchy.pollute(int(work_cycles))
        if self._cs_interval is None:
            return
        self._cycles_since_switch += work_cycles
        if self._cycles_since_switch >= self._cs_interval:
            self._cycles_since_switch = 0.0
            self.on_context_switch()

    def on_context_switch(self) -> None:
        """Quantum expired: another process runs, then we resume."""
        self.draco.context_switch(same_process=False)
        # The other process evicts a sizeable chunk of our cache state.
        self.hierarchy.pollute(500_000)
        self.draco.resume_process()

    @property
    def stats(self):
        return self.draco.stats
