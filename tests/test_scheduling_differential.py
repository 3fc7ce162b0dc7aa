"""Differential gate for the fleet-capable scheduling-loop refactor.

PR 9 replaced the O(N²) ``while any(not p.done …)`` + full-queue
rescans in :meth:`RoundRobinScheduler.run` and
:meth:`MultiCoreSystem.run` (and the O(N) duplicate-name probe in
:meth:`MultiCoreSystem.assign`) with done-set / rotation bookkeeping.
These tests re-run the *historical* loop bodies — copied verbatim from
the pre-refactor code, driving the same public quantum machinery — and
assert the :class:`ScheduleResult` / :class:`MultiCoreResult` payloads
are byte-identical on the existing test fleets.
"""

from repro.common import analytic as analytic_backend
from repro.kernel.multicore import MultiCoreSystem
from repro.kernel.scheduler import (
    DracoCore,
    QuantumRecord,
    RoundRobinScheduler,
    ScheduledProcess,
    ScheduleResult,
    _drive_quantum,
)
from repro.seccomp.toolkit import generate_complete
from repro.syscalls.events import SyscallTrace, make_event


def _process(name, fds=(3, 4), events=400, work=500.0):
    trace = SyscallTrace(
        [make_event("read", (fds[i % len(fds)], 100), pc=0x100) for i in range(events)]
    )
    profile = generate_complete(trace, name)
    return ScheduledProcess(
        name=name, profile=profile, trace=trace, work_cycles_per_syscall=work
    )


def _mixed_fleet():
    """Uneven trace lengths (staggered completion) plus an already-done
    process — the shapes where loop bookkeeping can drift."""
    return [
        _process("a", events=400),
        _process("b", fds=(7, 8), events=150),
        _process("c", fds=(5, 6), events=730),
        _process("empty", events=0),
        _process("d", fds=(9, 10), events=95),
    ]


def _reference_round_robin(
    processes, quantum, strict=True, backend=None
) -> ScheduleResult:
    """The pre-refactor RoundRobinScheduler.run loop, verbatim except
    that quanta are always recorded, as they now are in the code."""
    core = DracoCore()
    total = 0
    bulk = analytic_backend.resolve_backend(backend) != "event"
    while any(not p.done for p in processes):
        for process in processes:
            if process.done:
                continue
            pipeline = core.schedule(process)
            cold = core.last_schedule_cold
            quantum_start = process.syscalls_run
            cycles_start = process.check_cycles
            end = min(process.cursor + quantum, len(process.trace))
            total += _drive_quantum(
                pipeline, core.hierarchy, process, end, strict, bulk
            )
            process.quanta.append(
                QuantumRecord(
                    syscalls=process.syscalls_run - quantum_start,
                    check_cycles=process.check_cycles - cycles_start,
                    cold=cold,
                )
            )
    return ScheduleResult(
        per_process={p.name: p.mean_check_cycles for p in processes},
        context_switches=core.context_switches,
        total_syscalls=total,
        per_process_flows={p.name: dict(p.flow_counts) for p in processes},
        per_process_flow_cycles={p.name: dict(p.flow_cycles) for p in processes},
    )


def _reference_multicore_run(system, strict=True, backend=None):
    """The pre-refactor MultiCoreSystem.run loop, verbatim (cursor scan
    over the full queue, tuple-rebuilding loop condition)."""
    total = 0
    bulk = analytic_backend.resolve_backend(backend) != "event"
    cursors = [0] * len(system.cores)
    while any(not p.done for p in system.processes):
        progressed = False
        for core_index, core in enumerate(system.cores):
            queue = system._run_queues[core_index]
            if not queue:
                continue
            for offset in range(len(queue)):
                candidate = queue[(cursors[core_index] + offset) % len(queue)]
                if not candidate.done:
                    cursors[core_index] = (
                        cursors[core_index] + offset + 1
                    ) % len(queue)
                    total += system._run_quantum(core, candidate, strict, bulk)
                    progressed = True
                    break
        if not progressed:
            break
    from repro.kernel.multicore import MultiCoreResult

    l3_total = system.shared_l3.hits + system.shared_l3.misses
    return MultiCoreResult(
        per_process={p.name: p.mean_check_cycles for p in system.processes},
        per_core_switches=tuple(core.context_switches for core in system.cores),
        total_syscalls=total,
        l3_hit_rate=system.shared_l3.hits / l3_total if l3_total else 0.0,
        per_process_flows={p.name: dict(p.flow_counts) for p in system.processes},
        per_process_flow_cycles={
            p.name: dict(p.flow_cycles) for p in system.processes
        },
    )


class TestRoundRobinDifferential:
    def test_byte_identical_on_mixed_fleet(self):
        for backend in ("bulk", "event"):
            reference = _reference_round_robin(
                _mixed_fleet(), quantum=100, backend=backend
            )
            refactored = RoundRobinScheduler(
                _mixed_fleet(), quantum_syscalls=100
            ).run(backend=backend)
            assert refactored == reference

    def test_byte_identical_quantum_sweep(self):
        for quantum in (1, 37, 200, 10_000):
            reference = _reference_round_robin(_mixed_fleet(), quantum=quantum)
            refactored = RoundRobinScheduler(
                _mixed_fleet(), quantum_syscalls=quantum
            ).run()
            assert refactored == reference

    def test_quantum_timelines_match(self):
        fleet_a, fleet_b = _mixed_fleet(), _mixed_fleet()
        _reference_round_robin(fleet_a, quantum=64)
        RoundRobinScheduler(fleet_b, quantum_syscalls=64).run()
        for left, right in zip(fleet_a, fleet_b):
            assert left.quanta == right.quanta
            assert left.check_cycles == right.check_cycles


def _mixed_system(cores=3, quantum=100):
    system = MultiCoreSystem(cores=cores, quantum_syscalls=quantum)
    system.assign(_process("a", events=300))
    system.assign(_process("b", fds=(7, 8), events=120))
    system.assign(_process("c", fds=(5, 6), events=470))
    system.assign(_process("empty", events=0))
    system.assign(_process("d", fds=(9, 10), events=45))
    system.assign(_process("e", fds=(11, 12), events=210))
    return system


class TestMultiCoreDifferential:
    def test_byte_identical_on_mixed_system(self):
        for backend in ("bulk", "event"):
            reference = _reference_multicore_run(_mixed_system(), backend=backend)
            refactored = _mixed_system().run(backend=backend)
            assert refactored == reference

    def test_byte_identical_single_core_contention(self):
        system = MultiCoreSystem(cores=1, quantum_syscalls=33)
        for name, events in (("a", 200), ("b", 77), ("c", 0), ("d", 310)):
            system.assign(_process(name, fds=(3 + len(name), 4), events=events))
        reference_system = MultiCoreSystem(cores=1, quantum_syscalls=33)
        for name, events in (("a", 200), ("b", 77), ("c", 0), ("d", 310)):
            reference_system.assign(
                _process(name, fds=(3 + len(name), 4), events=events)
            )
        assert system.run() == _reference_multicore_run(reference_system)
