"""Tests for the software implementation of Draco (Section V-C)."""

from dataclasses import replace

import pytest

from repro.core.software import (
    SoftwareDraco,
    bitmask_for_arg_indices,
    build_process_tables,
)
from repro.cpu.params import DEFAULT_SW_COSTS, OLD_KERNEL_SW_COSTS
from repro.seccomp.compiler import compile_linear
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.toolkit import generate_complete, generate_noargs
from repro.syscalls.events import SyscallTrace, make_event
from repro.syscalls.table import sid


@pytest.fixture
def training_trace():
    return SyscallTrace(
        [
            make_event("read", (3, 100)),
            make_event("read", (4, 100)),
            make_event("write", (1, 64)),
            make_event("getppid"),
        ]
    )


def _draco(profile, times=1, costs=DEFAULT_SW_COSTS):
    tables = build_process_tables(profile)
    module = SeccompKernelModule()
    program = compile_linear(profile)
    for _ in range(times):
        module.attach(program)
    return SoftwareDraco(tables, module, costs=costs)


class TestBitmaskHelper:
    def test_selected_indices(self):
        mask = bitmask_for_arg_indices((0, 2))
        assert mask == 0xFF | (0xFF << 16)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bitmask_for_arg_indices((6,))


class TestBuildProcessTables:
    def test_spt_entries_for_all_rules(self, training_trace):
        profile = generate_complete(training_trace, "t")
        tables = build_process_tables(profile)
        assert len(tables.spt) == profile.num_syscalls

    def test_vat_sized_from_profile(self, training_trace):
        """Section VII-A: tables sized from the profile's argument sets."""
        profile = generate_complete(training_trace, "t")
        tables = build_process_tables(profile)
        read_table = tables.vat.table_for(sid("read"))
        assert read_table.num_slots == 2 * 2  # two argument sets x2

    def test_noargs_profile_has_no_vat(self, training_trace):
        profile = generate_noargs(training_trace, "t")
        tables = build_process_tables(profile)
        assert tables.vat.num_tables == 0

    def test_base_pointers_match_vat(self, training_trace):
        profile = generate_complete(training_trace, "t")
        tables = build_process_tables(profile)
        entry = tables.spt.lookup(sid("read"))
        assert entry.base == tables.vat.table_for(sid("read")).base_address


class TestCheckPaths:
    def test_first_check_runs_filter_then_caches(self, training_trace):
        draco = _draco(generate_complete(training_trace, "t"))
        event = make_event("read", (3, 100))
        first = draco.check(event)
        second = draco.check(event)
        assert first.path == "filter_run"
        assert second.path == "vat_hit"
        assert second.cycles < first.cycles

    def test_spt_only_for_zero_arg_syscalls(self, training_trace):
        draco = _draco(generate_complete(training_trace, "t"))
        outcome = draco.check(make_event("getppid"))
        assert outcome.path == "spt_only"
        assert outcome.allowed

    def test_denied_unknown_syscall(self, training_trace):
        draco = _draco(generate_complete(training_trace, "t"))
        outcome = draco.check(make_event("mount"))
        assert not outcome.allowed
        assert outcome.path == "denied"

    def test_denied_wrong_args(self, training_trace):
        draco = _draco(generate_complete(training_trace, "t"))
        outcome = draco.check(make_event("read", (9, 9)))
        assert not outcome.allowed
        # A denial is never cached.
        assert not draco.check(make_event("read", (9, 9))).allowed

    def test_noargs_profile_all_spt_only(self, training_trace):
        draco = _draco(generate_noargs(training_trace, "t"))
        outcome = draco.check(make_event("read", (77, 77)))
        assert outcome.path == "spt_only"
        assert outcome.cycles == DEFAULT_SW_COSTS.sw_draco_spt_only_cycles

    def test_stats_accumulate(self, training_trace):
        draco = _draco(generate_complete(training_trace, "t"))
        for _ in range(3):
            draco.check(make_event("read", (3, 100)))
        draco.check(make_event("mount"))
        assert draco.stats.vat_hits == 2
        assert draco.stats.filter_runs == 1
        assert draco.stats.denials == 1
        assert draco.stats.total == 4
        assert draco.stats.vat_hit_rate == pytest.approx(2 / 3)


class TestEquivalenceWithSeccomp:
    def test_decisions_match_reference(self, training_trace):
        """Draco caching must never change allow/deny decisions."""
        profile = generate_complete(training_trace, "t")
        draco = _draco(profile)
        probes = [
            make_event("read", (3, 100)),
            make_event("read", (4, 100)),
            make_event("read", (4, 100)),
            make_event("read", (5, 100)),
            make_event("write", (1, 64)),
            make_event("getppid"),
            make_event("mount"),
        ]
        for event in probes:
            assert draco.check(event).allowed == profile.allows(event)

    def test_2x_hit_cost_unchanged(self, training_trace):
        """A VAT hit skips both attached filters: the Draco hit cost is
        independent of the 2x doubling (the paper's key scaling claim)."""
        profile = generate_complete(training_trace, "t")
        once = _draco(profile, times=1)
        twice = _draco(profile, times=2)
        event = make_event("read", (3, 100))
        once.check(event)
        twice.check(event)
        assert once.check(event).cycles == twice.check(event).cycles

    def test_2x_miss_cost_doubles_filter_share(self, training_trace):
        profile = generate_complete(training_trace, "t")
        once = _draco(profile, times=1)
        twice = _draco(profile, times=2)
        event = make_event("read", (3, 100))
        assert twice.check(event).cycles > once.check(event).cycles


class TestInternedOutcomes:
    def test_repeat_outcomes_are_one_object(self, training_trace):
        draco = _draco(generate_complete(training_trace, "t"))
        read = make_event("read", (3, 100))
        filter_run = draco.check(read)
        assert draco.check(read) is draco.check(read)  # VAT hits
        getppid = make_event("getppid")
        assert draco.check(getppid) is draco.check(getppid)  # SPT-only
        # After a flush the same check runs the filter again, with the
        # same instruction count, and gets the same outcome object.
        draco.tables.vat.clear_all()
        assert draco.check(read) is filter_run

    def test_each_checker_prices_with_its_own_costs(self, training_trace):
        """Outcomes are interned per checker, never class-wide: checkers
        built one after another under two cost models each price every
        path with their own, in either order."""
        profile = generate_complete(training_trace, "t")
        # The old kernel's SPT-only check costs what the modern one's
        # does; make it dearer so that every path's price differs.
        old = replace(OLD_KERNEL_SW_COSTS, sw_draco_spt_only_cycles=31)
        events = (
            make_event("read", (3, 100)),
            make_event("read", (3, 100)),
            make_event("getppid"),
        )
        for order in ((DEFAULT_SW_COSTS, old), (old, DEFAULT_SW_COSTS)):
            for costs in order:
                draco = _draco(profile, costs=costs)
                filter_run, vat_hit, spt_only = (draco.check(e) for e in events)
                assert filter_run.path == "filter_run"
                insns = filter_run.filter_cost.insns
                assert filter_run.cycles == costs.sw_draco_hit_cycles + (
                    costs.seccomp_slow_path_cycles
                    + costs.seccomp_fixed_cycles
                    + insns * costs.cycles_per_bpf_insn_jit
                ) + costs.sw_draco_insert_cycles
                assert vat_hit.path == "vat_hit"
                assert vat_hit.cycles == costs.sw_draco_hit_cycles
                assert spt_only.path == "spt_only"
                assert spt_only.cycles == costs.sw_draco_spt_only_cycles
