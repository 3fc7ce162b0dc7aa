"""Tests for the multicore system model."""

import pytest

from repro.common.errors import ConfigError
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.hierarchy import MemoryHierarchy
from repro.cpu.params import ProcessorParams
from repro.kernel.multicore import MultiCoreSystem
from repro.kernel.scheduler import ScheduledProcess
from repro.seccomp.toolkit import generate_complete
from repro.syscalls.events import SyscallTrace, make_event


def _process(name, fd_base=3, events=300):
    trace = SyscallTrace(
        [
            make_event("read", (fd_base + i % 3, 100), pc=0x100 + fd_base)
            for i in range(events)
        ]
    )
    profile = generate_complete(trace, name)
    return ScheduledProcess(
        name=name, profile=profile, trace=trace, work_cycles_per_syscall=400.0
    )


class TestSharedL3:
    def test_hierarchies_share_one_l3(self):
        shared = SetAssociativeCache(ProcessorParams().l3)
        a = MemoryHierarchy(shared_l3=shared)
        b = MemoryHierarchy(shared_l3=shared)
        a.access(0x1234)       # DRAM fill through a
        a.l1.invalidate(0x1234)
        a.l2.invalidate(0x1234)
        assert b.access(0x1234).level == "L3"  # b sees a's fill

    def test_private_l1_l2(self):
        shared = SetAssociativeCache(ProcessorParams().l3)
        a = MemoryHierarchy(shared_l3=shared)
        b = MemoryHierarchy(shared_l3=shared)
        a.access(0x40)
        assert not b.l1.probe(0x40)
        assert not b.l2.probe(0x40)


class TestPlacement:
    def test_least_loaded_assignment(self):
        system = MultiCoreSystem(cores=2)
        assert system.assign(_process("a")) == 0
        assert system.assign(_process("b", fd_base=10)) == 1
        assert system.assign(_process("c", fd_base=20)) in (0, 1)

    def test_explicit_core(self):
        system = MultiCoreSystem(cores=3)
        assert system.assign(_process("a"), core=2) == 2

    def test_bad_core(self):
        system = MultiCoreSystem(cores=2)
        with pytest.raises(ConfigError):
            system.assign(_process("a"), core=5)

    def test_duplicate_name_rejected(self):
        system = MultiCoreSystem(cores=2)
        system.assign(_process("a"))
        with pytest.raises(ConfigError):
            system.assign(_process("a"), core=1)

    def test_needs_processes(self):
        with pytest.raises(ConfigError):
            MultiCoreSystem(cores=1).run()

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            MultiCoreSystem(cores=0)
        with pytest.raises(ConfigError):
            MultiCoreSystem(quantum_syscalls=0)


class TestExecution:
    def test_all_traces_complete(self):
        system = MultiCoreSystem(cores=2, quantum_syscalls=50)
        for index, name in enumerate("abcd"):
            system.assign(_process(name, fd_base=3 + 8 * index))
        result = system.run()
        assert result.total_syscalls == 4 * 300
        for process in system.processes:
            assert process.done

    def test_own_core_no_switches_when_one_process_per_core(self):
        system = MultiCoreSystem(cores=2, quantum_syscalls=50)
        system.assign(_process("a"), core=0)
        system.assign(_process("b", fd_base=10), core=1)
        result = system.run()
        assert result.per_core_switches == (0, 0)

    def test_sharing_a_core_switches(self):
        system = MultiCoreSystem(cores=1, quantum_syscalls=50)
        system.assign(_process("a"))
        system.assign(_process("b", fd_base=10))
        result = system.run()
        assert result.per_core_switches[0] > 0

    def test_dedicated_cores_cheaper_than_shared_core(self):
        """Giving each tenant its own core avoids the invalidation cost
        of time-sharing — Draco's per-core state stays warm."""
        dedicated = MultiCoreSystem(cores=2, quantum_syscalls=25)
        dedicated.assign(_process("a"), core=0)
        dedicated.assign(_process("b", fd_base=10), core=1)
        dedicated_result = dedicated.run()

        shared = MultiCoreSystem(cores=1, quantum_syscalls=25)
        shared.assign(_process("a"))
        shared.assign(_process("b", fd_base=10))
        shared_result = shared.run()

        dedicated_mean = sum(dedicated_result.per_process.values()) / 2
        shared_mean = sum(shared_result.per_process.values()) / 2
        assert dedicated_mean <= shared_mean

    def test_ten_core_default(self):
        system = MultiCoreSystem()
        assert len(system.cores) == 10

    def test_l3_stats_reported(self):
        system = MultiCoreSystem(cores=2, quantum_syscalls=100)
        system.assign(_process("a"))
        system.assign(_process("b", fd_base=10))
        result = system.run()
        assert 0.0 <= result.l3_hit_rate <= 1.0

    def test_backend_keyword_selects_nothing(self):
        def run(backend):
            system = MultiCoreSystem(cores=2, quantum_syscalls=50)
            system.assign(_process("a"))
            system.assign(_process("b", fd_base=10))
            return system.run(backend=backend)

        assert run("bulk") == run(None)
        for backend in ("event", "analytic"):
            with pytest.raises(ValueError, match="unknown simulation backend"):
                run(backend)
