"""Multicore system model: Table II's 10-core chip running many tenants.

Each core owns private L1/L2 caches and its own Draco structures
(Figure 10); all cores share the L3.  Processes are assigned to cores
and time-share them under round-robin quanta; the system interleaves
quanta across cores so shared-L3 interference between tenants on
different cores is modelled.  Quanta run on the single-core
scheduler's exact kernel (:func:`repro.kernel.scheduler._drive_quantum`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.hierarchy import MemoryHierarchy
from repro.cpu.params import (
    DEFAULT_DRACO_HW,
    DEFAULT_PROCESSOR,
    DEFAULT_SW_COSTS,
    DracoHwParams,
    ProcessorParams,
    SoftwareCostParams,
)
from repro.kernel.scheduler import (
    DracoCore,
    QuantumRecord,
    ScheduledProcess,
    _drive_quantum,
    audit_process_flows,
)


@dataclass(frozen=True)
class MultiCoreResult:
    """System-wide outcome of a multicore run."""

    per_process: Dict[str, float]       # mean check (stall) cycles
    per_core_switches: Tuple[int, ...]
    total_syscalls: int
    l3_hit_rate: float
    #: Per-process per-flow event counts and cycle totals.
    per_process_flows: Dict[str, Dict[str, int]] = field(default_factory=dict)
    per_process_flow_cycles: Dict[str, Dict[str, float]] = field(default_factory=dict)


class MultiCoreSystem:
    """N Draco cores with private L1/L2 and a shared L3."""

    def __init__(
        self,
        cores: Optional[int] = None,
        processor: ProcessorParams = DEFAULT_PROCESSOR,
        hw: DracoHwParams = DEFAULT_DRACO_HW,
        costs: SoftwareCostParams = DEFAULT_SW_COSTS,
        quantum_syscalls: int = 200,
    ) -> None:
        num_cores = cores if cores is not None else processor.cores
        if num_cores < 1:
            raise ConfigError("need at least one core")
        if quantum_syscalls < 1:
            raise ConfigError("quantum must be at least one syscall")
        self.processor = processor
        self.quantum = quantum_syscalls
        self.shared_l3 = SetAssociativeCache(processor.l3)
        self.cores: List[DracoCore] = []
        for _ in range(num_cores):
            core = DracoCore(processor=processor, hw=hw, costs=costs)
            core.hierarchy = MemoryHierarchy(processor, shared_l3=self.shared_l3)
            self.cores.append(core)
        self._run_queues: List[List[ScheduledProcess]] = [[] for _ in range(num_cores)]
        self._names: set = set()  # O(1) duplicate detection across queues

    # -- placement -------------------------------------------------------

    def assign(self, process: ScheduledProcess, core: Optional[int] = None) -> int:
        """Place a process on a core (least-loaded when unspecified)."""
        if process.name in self._names:
            raise ConfigError(f"duplicate process name {process.name!r}")
        if core is None:
            core = min(range(len(self.cores)), key=lambda i: len(self._run_queues[i]))
        if not 0 <= core < len(self.cores):
            raise ConfigError(f"no core {core}")
        self._run_queues[core].append(process)
        self._names.add(process.name)
        return core

    @property
    def processes(self) -> Tuple[ScheduledProcess, ...]:
        return tuple(p for queue in self._run_queues for p in queue)

    # -- execution ---------------------------------------------------------

    def _run_quantum(
        self, core: DracoCore, process: ScheduledProcess, strict: bool
    ) -> int:
        pipeline = core.schedule(process)
        cold = core.last_schedule_cold
        cycles_start = process.check_cycles
        end = min(process.cursor + self.quantum, len(process.trace))
        executed = _drive_quantum(pipeline, core.hierarchy, process, end, strict)
        process.quanta.append(
            QuantumRecord(
                syscalls=executed,
                check_cycles=process.check_cycles - cycles_start,
                cold=cold,
            )
        )
        return executed

    def run(
        self, strict: bool = True, backend: Optional[str] = None
    ) -> MultiCoreResult:
        """Interleave quanta round-robin across cores until all traces
        complete.

        *backend* is kept for callers that pass ``"bulk"``: it accepts
        ``None`` and ``"bulk"``, selects nothing (there is one kernel),
        and raises :class:`ValueError` on anything else.
        """
        if backend not in (None, "bulk"):
            raise ValueError(f"unknown simulation backend {backend!r}")
        if not any(self._run_queues):
            raise ConfigError("no processes assigned")
        total = 0
        # Fleet-capable bookkeeping: each core rotates a deque holding
        # only its unfinished processes (popleft, run one quantum,
        # append while unfinished), and a running count of unfinished
        # processes replaces the old ``while any(not p.done for p in
        # self.processes)`` condition — which rebuilt the full process
        # tuple and scanned it on every round, and then rescanned each
        # queue from a cursor to skip finished entries.  A process
        # becomes done only by running, so the rotation selects exactly
        # the candidate the cursor scan did; a differential test gates
        # MultiCoreResult byte-for-byte.
        rotations: List[deque] = [
            deque(p for p in queue if not p.done) for queue in self._run_queues
        ]
        remaining = sum(len(rotation) for rotation in rotations)
        while remaining:
            for core_index, core in enumerate(self.cores):
                rotation = rotations[core_index]
                if not rotation:
                    continue
                candidate = rotation.popleft()
                total += self._run_quantum(core, candidate, strict)
                if candidate.done:
                    remaining -= 1
                else:
                    rotation.append(candidate)
        processes = self.processes  # bind the tuple once for the result
        for process in processes:
            audit_process_flows(process, scope=f"multicore/{process.name}")
        l3_total = self.shared_l3.hits + self.shared_l3.misses
        return MultiCoreResult(
            per_process={p.name: p.mean_check_cycles for p in processes},
            per_core_switches=tuple(core.context_switches for core in self.cores),
            total_syscalls=total,
            l3_hit_rate=self.shared_l3.hits / l3_total if l3_total else 0.0,
            per_process_flows={p.name: dict(p.flow_counts) for p in processes},
            per_process_flow_cycles={
                p.name: dict(p.flow_cycles) for p in processes
            },
        )
