"""Multi-process scheduling over Draco-equipped cores.

Exercises the context-switch machinery of Section VII-B under realistic
conditions: several sandboxed processes time-share a core, each switch
invalidating the per-core Draco structures (and saving/restoring the
Accessed-bit SPT entries), while each process keeps its own VAT.

The scheduler interleaves the processes' syscall streams round-robin in
quantum-sized slices and reports per-process checking cost, so the
cost of multi-tenancy (cold SLB/STB after each resume) is measurable
against the single-tenant numbers of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common import analytic as analytic_backend
from repro.common import ledger
from repro.common.errors import ConfigError, SimulationError
from repro.core.hardware import HardwareDraco
from repro.core.software import build_process_tables
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
from repro.syscalls.events import SyscallTrace


@dataclass(frozen=True)
class QuantumRecord:
    """One scheduling quantum of a process (ledger observability layer)."""

    syscalls: int
    check_cycles: float
    #: True when the quantum started on freshly invalidated per-core
    #: structures (another process — or nothing — ran here before us).
    cold: bool


@dataclass
class ScheduledProcess:
    """One tenant: its profile, trace, and per-syscall application work."""

    name: str
    profile: SeccompProfile
    trace: SyscallTrace
    work_cycles_per_syscall: float
    # Filled by the scheduler:
    cursor: int = 0
    check_cycles: float = 0.0
    syscalls_run: int = 0
    #: Per-flow attribution of ``check_cycles`` (Table I flow keys).
    flow_counts: Dict[str, int] = field(default_factory=dict)
    flow_cycles: Dict[str, float] = field(default_factory=dict)
    #: One record per quantum this process ran.
    quanta: List[QuantumRecord] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.trace)

    @property
    def mean_check_cycles(self) -> float:
        return self.check_cycles / self.syscalls_run if self.syscalls_run else 0.0

    def account(self, flow: str, cycles: float) -> None:
        """Attribute one checked syscall to *flow*."""
        self.check_cycles += cycles
        self.syscalls_run += 1
        self.flow_counts[flow] = self.flow_counts.get(flow, 0) + 1
        self.flow_cycles[flow] = self.flow_cycles.get(flow, 0.0) + cycles

    def account_bulk(self, flow: str, cycles: float, count: int) -> None:
        """Attribute *count* checked syscalls of identical cost to
        *flow* in one update.  ``check_cycles`` and the per-flow bucket
        receive the same ``cycles * count`` term, so the conservation
        audit stays exact."""
        self.check_cycles += cycles * count
        self.syscalls_run += count
        self.flow_counts[flow] = self.flow_counts.get(flow, 0) + count
        self.flow_cycles[flow] = self.flow_cycles.get(flow, 0.0) + cycles * count

    def flow_ledger(self) -> ledger.FlowLedger:
        return ledger.FlowLedger(self.flow_counts, self.flow_cycles)


def audit_process_flows(process: ScheduledProcess, scope: str) -> None:
    """Conservation audit for one scheduled process: flow counts must
    equal syscalls run, and the per-flow cycle buckets must sum to the
    running ``check_cycles`` total (within FP reassociation noise)."""
    led = process.flow_ledger()
    led.audit_totals(process.syscalls_run, led.total_cycles(), scope=scope)
    want = led.total_cycles()
    got = process.check_cycles
    if abs(want - got) > ledger.CYCLE_RTOL * max(abs(want), abs(got), 1.0):
        raise ledger.ConservationError(
            f"[{scope}] per-flow cycles sum to {want!r} but the process "
            f"accumulated check_cycles={got!r}"
        )


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one multi-tenant run on one core."""

    per_process: Dict[str, float]          # mean check cycles
    context_switches: int
    total_syscalls: int
    #: Per-process per-flow event counts and cycle totals.
    per_process_flows: Dict[str, Dict[str, int]] = field(default_factory=dict)
    per_process_flow_cycles: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _drive_quantum(
    pipeline: HardwareDraco,
    hierarchy: MemoryHierarchy,
    process: ScheduledProcess,
    end: int,
    strict: bool,
    bulk: bool,
) -> int:
    """Run *process* from its cursor up to trace index *end*.

    Consecutive equal-valued results are accumulated and flushed to the
    process ledger as one :meth:`ScheduledProcess.account_bulk` update.
    The flush sequence is a pure function of the per-event result
    *values*, so the bulk fast path (steady-state replays over runs of
    identical events) and the literal per-event path produce
    bit-identical accounting.  Deferring a span's cache pollution until
    after its replayed checks is sound because steady replays never
    touch the memory hierarchy and pollution never touches the Draco
    structures.
    """
    trace = process.trace
    work = int(process.work_cycles_per_syscall)
    executed = 0
    pending_flow = ""
    pending_cycles = 0.0
    pending_count = 0
    while process.cursor < end:
        event = trace[process.cursor]
        if bulk:
            memo = pipeline.steady_probe(event)
            if memo is not None:
                base = process.cursor
                span = 1
                while base + span < end:
                    candidate = trace[base + span]
                    if candidate is event or candidate == event:
                        span += 1
                    else:
                        break
                result = memo.result
                pipeline.steady_replay(memo, span)
                hierarchy.pollute_repeat(work, span)
                flow = result.flow.ledger_key
                cycles = result.stall_cycles
                if pending_count and pending_flow == flow and pending_cycles == cycles:
                    pending_count += span
                else:
                    if pending_count:
                        process.account_bulk(pending_flow, pending_cycles, pending_count)
                    pending_flow, pending_cycles, pending_count = flow, cycles, span
                process.cursor = base + span
                executed += span
                continue
            result = pipeline.walk_and_install(event)
        else:
            result = pipeline.on_syscall(event)
        if strict and not result.allowed:
            raise SimulationError(
                f"{process.name}: denied syscall {event.sid} {event.args}"
            )
        hierarchy.pollute(work)
        flow = result.flow.ledger_key
        cycles = result.stall_cycles
        if pending_count and pending_flow == flow and pending_cycles == cycles:
            pending_count += 1
        else:
            if pending_count:
                process.account_bulk(pending_flow, pending_cycles, pending_count)
            pending_flow, pending_cycles, pending_count = flow, cycles, 1
        process.cursor += 1
        executed += 1
    if pending_count:
        process.account_bulk(pending_flow, pending_cycles, pending_count)
    return executed


class DracoCore:
    """One core: a single set of Draco hardware structures, re-bound to
    whichever process is currently scheduled."""

    def __init__(
        self,
        processor: ProcessorParams = DEFAULT_PROCESSOR,
        hw: DracoHwParams = DEFAULT_DRACO_HW,
        costs: SoftwareCostParams = DEFAULT_SW_COSTS,
    ) -> None:
        self.processor = processor
        self.hw = hw
        self.costs = costs
        self.hierarchy = MemoryHierarchy(processor)
        self._pipelines: Dict[str, HardwareDraco] = {}
        self._current: Optional[str] = None
        self.context_switches = 0
        #: Whether the most recent :meth:`schedule` call handed the
        #: process freshly invalidated per-core structures.
        self.last_schedule_cold = True

    def _pipeline_for(self, process: ScheduledProcess) -> HardwareDraco:
        pipeline = self._pipelines.get(process.name)
        if pipeline is None:
            module = SeccompKernelModule()
            for program in programs_for(process.profile):
                module.attach(program)
            pipeline = HardwareDraco(
                build_process_tables(process.profile, table=process.profile.table),
                module,
                processor=self.processor,
                hw=self.hw,
                costs=self.costs,
                hierarchy=self.hierarchy,  # the cache hierarchy is shared
            )
            self._pipelines[process.name] = pipeline
        return pipeline

    def schedule(self, process: ScheduledProcess) -> HardwareDraco:
        """Make *process* current; models the Section VII-B switch."""
        self.last_schedule_cold = self._current != process.name
        if self._current == process.name:
            return self._pipelines[process.name]
        if self._current is not None:
            # The outgoing process's per-core state is invalidated (its
            # Accessed-bit SPT entries saved), and it will be restored
            # when it runs again.
            outgoing = self._pipelines[self._current]
            outgoing.context_switch(same_process=False)
            self.context_switches += 1
        pipeline = self._pipeline_for(process)
        pipeline.resume_process()
        self._current = process.name
        return pipeline


class RoundRobinScheduler:
    """Round-robin multi-tenancy on one Draco core."""

    def __init__(
        self,
        processes: Sequence[ScheduledProcess],
        quantum_syscalls: int = 200,
        core: Optional[DracoCore] = None,
    ) -> None:
        if not processes:
            raise ConfigError("need at least one process")
        if quantum_syscalls < 1:
            raise ConfigError("quantum must be at least one syscall")
        names = [p.name for p in processes]
        if len(names) != len(set(names)):
            raise ConfigError("process names must be unique")
        self.processes = list(processes)
        self.quantum = quantum_syscalls
        self.core = core if core is not None else DracoCore()

    def run(
        self, strict: bool = True, backend: Optional[str] = None
    ) -> ScheduleResult:
        """Interleave every process's trace to completion.

        *backend* is the kernel-tier override (``"analytic"``,
        ``"bulk"`` or ``"event"``); ``None`` follows the environment
        (see :func:`repro.common.analytic.resolve_backend`).  Quantum
        boundaries are exactly the transients the analytic tier
        excludes, so ``"analytic"`` degrades to the exact RLE bulk
        kernel here.
        """
        total = 0
        bulk = analytic_backend.resolve_backend(backend) != "event"
        # Fleet-capable bookkeeping: keep only unfinished processes on
        # the active list (order preserved) instead of rescanning the
        # whole population each round — O(total quanta), not O(N²).
        # The visit sequence is identical to the historical
        # ``while any(not done): for p in processes`` loop, which a
        # differential test gates byte-for-byte.
        active = [p for p in self.processes if not p.done]
        while active:
            still_running = []
            for process in active:
                pipeline = self.core.schedule(process)
                cold = self.core.last_schedule_cold
                quantum_start = process.syscalls_run
                cycles_start = process.check_cycles
                end = min(process.cursor + self.quantum, len(process.trace))
                total += _drive_quantum(
                    pipeline, self.core.hierarchy, process, end, strict, bulk
                )
                process.quanta.append(
                    QuantumRecord(
                        syscalls=process.syscalls_run - quantum_start,
                        check_cycles=process.check_cycles - cycles_start,
                        cold=cold,
                    )
                )
                if not process.done:
                    still_running.append(process)
            active = still_running
        for process in self.processes:
            audit_process_flows(process, scope=f"scheduler/{process.name}")
        return ScheduleResult(
            per_process={p.name: p.mean_check_cycles for p in self.processes},
            context_switches=self.core.context_switches,
            total_syscalls=total,
            per_process_flows={p.name: dict(p.flow_counts) for p in self.processes},
            per_process_flow_cycles={
                p.name: dict(p.flow_cycles) for p in self.processes
            },
        )
