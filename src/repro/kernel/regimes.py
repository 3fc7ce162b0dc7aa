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

The two Draco families run the filter only on a miss, and what a run
costs feeds back into no structure, so their outcomes carry the
filter's price in parts (:class:`~repro.core.software.FilterCost`) and
:meth:`CheckingRegime.priced_name` names the same regime with a deeper
stack: :func:`repro.kernel.simulator.price_walk` prices a ``times=1``
walk as the ``times=2`` regime.  A ``times=2`` regime still walks for
itself; it is the reference the pricing is tested against.

There is one exact kernel.  :meth:`CheckingRegime.check_run` is the
literal ``[check; advance] × count`` loop; the order-independent
regimes override it with run shortcuts (a filter decision or a cache
hit repeats without re-running), and hardware Draco keeps the base
loop, with its steady memo behind each ``check``
(:meth:`repro.core.hardware.HardwareDraco.on_syscall`).  The code each
shortcut stands in for stays as its miss path, and tests reach it
through the ``reference_kernels`` fixture.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common import analytic as analytic_backend
from repro.common import ledger as common_ledger
from repro.common.errors import AnalyticPreconditionError, SimulationError
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
from repro.seccomp.compiler import programs_for
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.profile import SeccompProfile
from repro.syscalls.events import SyscallEvent


class CheckingRegime(abc.ABC):
    """One syscall-checking configuration under test."""

    name: str
    #: The pricer of this regime's last walk, left by
    #: :func:`repro.kernel.simulator.run_trace` for
    #: :func:`~repro.kernel.simulator.price_walk`.
    last_walk: Optional[Callable[[int, str], Any]] = None

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

        This default performs the sequence literally and is the
        reference semantics.  Order-independent regimes (Seccomp, the
        bitmap cache, software Draco, insecure) override it with
        provably-equivalent shortcuts that keep the analytic exact
        window linear in distinct events.  Callers that consume runs
        must *not* also call :meth:`advance` for the covered events.
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
        to decline (the simulator then falls back to the exact
        kernel).

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
        precondition the plan relied on turned out not to hold, after
        putting the regime back in its state before the replay; the
        simulator then reruns the trace on the exact kernels."""

    def analytic_context_switch(self) -> None:
        """Fire one context switch by hand (the sampled plan's transient
        segment).  Only regimes that return plans with
        ``transient_repeats > 0`` need a real implementation; the base
        regime has no quantum timer, so this is a no-op."""

    def priced_name(self, copies: int) -> str:
        """The name of this regime with its filter stack attached
        *copies* times, for a result priced from its walk
        (:func:`repro.kernel.simulator.price_walk`).  Only regimes whose
        filter runs carry a :class:`~repro.core.software.FilterCost` can
        be priced; the rest raise."""
        raise SimulationError(f"{self.name} does not price its filter runs")


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
        # The run shortcut and the exact plan both bake in what
        # check() returns; a subclass that overrides check() must get
        # the literal per-event semantics instead.
        return type(self).check is InsecureRegime.check

    def check_run(
        self, event: SyscallEvent, count: int, work_cycles: float = 0.0
    ) -> List[Tuple[CheckOutcome, int]]:
        # No checking and no advance() side effects: a run collapses to
        # one ledger bump (count is an int and cycles are 0.0, so a
        # single update is exact).
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


def _stack_name(family: str, profile: SeccompProfile, times: int) -> str:
    return f"{family}:{profile.name}" + ("" if times == 1 else f"x{times}")


def _attach(profile: SeccompProfile, times: int, compiler: str) -> SeccompKernelModule:
    module = SeccompKernelModule()
    programs = programs_for(profile, compiler)
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
    ) -> None:
        self.name = name or _stack_name("seccomp", profile, times)
        self.profile = profile
        self.costs = costs
        self.use_jit = use_jit
        self.module = _attach(profile, times, compiler)
        # Outcomes are pure functions of the module's decision, which is
        # itself keyed on the masked argument bytes — memoize the whole
        # CheckOutcome so repeat syscalls are a single dict probe.  The
        # memo stays per-instance because this regime exposes the
        # module's raw execution counters via structure_stats(): a memo
        # shared across instances would skip filter runs, making those
        # counters depend on what ran earlier in the process and
        # breaking RunResult byte-identity.
        self._outcome_memo: Dict[object, CheckOutcome] = {}
        self._generation = self.module.generation
        self._ledger = common_ledger.FlowLedger()

    def _restack(self) -> None:
        """A filter was attached since the memo was filled: forget the
        looser stack's outcomes, which the new filter may overrule."""
        self._generation = self.module.generation
        self._outcome_memo.clear()

    def check(self, event: SyscallEvent) -> CheckOutcome:
        if self._generation != self.module.generation:
            self._restack()
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
        if count <= 1:
            return super().check_run(event, count, work_cycles)
        key = self.module.memo_key(event)
        if key is None:
            return super().check_run(event, count, work_cycles)
        segments: List[Tuple[CheckOutcome, int]] = []
        remaining = count
        if self._generation != self.module.generation or key not in self._outcome_memo:
            # A cold (or restacked) first check runs the filter and
            # installs the memo.
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
    ) -> None:
        self.name = name or _stack_name("draco-sw", profile, times)
        self.profile = profile
        self.times = times
        self._checker_inputs = (compiler, use_jit, costs)
        self.draco = self._fresh_checker()

    def _fresh_checker(self) -> SoftwareDraco:
        compiler, use_jit, costs = self._checker_inputs
        return SoftwareDraco(
            build_process_tables(self.profile, table=self.profile.table),
            _attach(self.profile, self.times, compiler),
            costs=costs,
            use_jit=use_jit,
        )

    def check(self, event: SyscallEvent) -> CheckOutcome:
        return self.draco.check(event)

    def check_run(
        self, event: SyscallEvent, count: int, work_cycles: float = 0.0
    ) -> List[Tuple[CheckOutcome, int]]:
        # advance() is a no-op for the software regime, so the run
        # delegates wholly to the checker's steady-state run path.
        return self.draco.check_bulk(event, count)

    def analytic_plan(self, windows, work_cycles: float = 0.0):
        """Exact for a checker that has checked nothing yet, under one
        precondition: the VAT suffers no cuckoo evictions, making it an
        insert-only value-keyed map whose outcomes do not depend on
        event interleaving.  The OS sizes each per-syscall table at
        twice the profile's argument-set count (load factor <= 0.5),
        which makes evictions rare but not impossible; when one happens,
        :meth:`analytic_verify` puts a fresh checker back, so the exact
        kernels can rerun the trace.  A checker with history declines:
        nothing could restore it.
        """
        if self.draco.stats.total:
            return None
        return analytic_backend.EXACT_PLAN

    def analytic_verify(self) -> None:
        evictions = self.draco.tables.vat.structure_stats()["evictions"]
        if evictions:
            self.draco = self._fresh_checker()
            raise AnalyticPreconditionError(
                f"{self.name}: VAT evicted {evictions} entries during an "
                "analytic exact replay — the no-eviction precondition is violated"
            )

    def priced_name(self, copies: int) -> str:
        return _stack_name("draco-sw", self.profile, self.times * copies)

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
    ) -> None:
        self.name = name or _stack_name("draco-hw", profile, times)
        self.profile = profile
        self.times = times
        tables = build_process_tables(profile, table=profile.table)
        self.hierarchy = MemoryHierarchy(processor)
        self.draco = HardwareDraco(
            tables,
            _attach(profile, times, compiler),
            processor=processor,
            hw=hw,
            costs=costs,
            hierarchy=self.hierarchy,
            preload_enabled=preload_enabled,
            use_jit=use_jit,
        )
        self._cs_interval = context_switch_interval_cycles
        self._cycles_since_switch = 0.0
        #: The CheckOutcome wrapper of each hardware result, keyed by
        #: the result's identity (``HardwareDraco`` interns results).
        #: Each entry holds its result, so the key cannot be recycled
        #: while it is cached.  Outcomes are frozen, so reuse is
        #: observationally identical to building one per event.
        self._outcome_cache: Dict[int, Tuple[Any, CheckOutcome]] = {}

    _OUTCOME_CACHE_LIMIT = 4096

    def _outcome_for(self, result) -> CheckOutcome:
        cached = self._outcome_cache.get(id(result))
        if cached is not None:
            return cached[1]
        if len(self._outcome_cache) >= self._OUTCOME_CACHE_LIMIT:
            self._outcome_cache.clear()
        outcome = CheckOutcome(
            allowed=result.allowed,
            cycles=result.stall_cycles,
            path="hw:" + result.flow.value,
            flow=result.flow.ledger_key,
            filter_cost=result.filter_cost,
        )
        self._outcome_cache[id(result)] = (result, outcome)
        return outcome

    def check(self, event: SyscallEvent) -> CheckOutcome:
        return self._outcome_for(self.draco.on_syscall(event))

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

    def priced_name(self, copies: int) -> str:
        return _stack_name("draco-hw", self.profile, self.times * copies)

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
