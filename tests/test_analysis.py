"""Tests for the analysis layer: locality, security, hardware cost."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hwcost import (
    PAPER_TABLE3,
    SramGeometry,
    draco_hardware_costs,
    sram_cost,
)
from repro.analysis.locality import (
    LocalityReport,
    SyscallLocality,
    analyze_locality,
    merge_reports,
    reuse_distances,
)
from repro.analysis.security import (
    CONTAINER_RUNTIME_SYSCALLS,
    analyze_profile,
    argument_slots_checked,
)
from repro.common.stats import mean
from repro.cpu.params import DracoHwParams, SlbSubtableParams
from repro.seccomp.profiles import build_docker_default, build_firecracker
from repro.seccomp.toolkit import generate_complete
from repro.syscalls.events import SyscallEvent, SyscallTrace, make_event
from repro.syscalls.table import LINUX_X86_64
from repro.workloads.catalog import CATALOG, MACRO_WORKLOADS
from repro.workloads.generator import generate_trace


@pytest.fixture
def trace():
    events = []
    for _ in range(10):
        events.append(make_event("read", (3, 100)))
        events.append(make_event("read", (3, 100)))
        events.append(make_event("write", (1, 64)))
        events.append(make_event("getppid"))
    return SyscallTrace(events)


class TestReuseDistances:
    def test_immediate_reuse_distance_zero(self):
        trace = SyscallTrace([make_event("read", (3, 1))] * 3)
        distances = reuse_distances(trace)
        assert distances[(0, (3, 0, 1))] == [0, 0]

    def test_interleaved_distance(self):
        trace = SyscallTrace(
            [
                make_event("read", (3, 1)),
                make_event("write", (1, 1)),
                make_event("write", (1, 2)),
                make_event("read", (3, 1)),
            ]
        )
        distances = reuse_distances(trace)
        assert distances[(0, (3, 0, 1))] == [2]

    def test_never_reused(self):
        trace = SyscallTrace([make_event("read", (3, 1)), make_event("read", (4, 1))])
        assert reuse_distances(trace) == {}


class TestLocalityReport:
    def test_fractions_sum_to_one(self, trace):
        report = analyze_locality(trace)
        assert sum(s.fraction for s in report.syscalls) == pytest.approx(1.0)

    def test_sorted_by_frequency(self, trace):
        report = analyze_locality(trace)
        assert report.syscalls[0].name == "read"
        fractions = [s.fraction for s in report.syscalls]
        assert fractions == sorted(fractions, reverse=True)

    def test_top_fraction(self, trace):
        report = analyze_locality(trace)
        assert report.top_fraction(1) == pytest.approx(0.5)
        assert report.top_fraction(10) == pytest.approx(1.0)

    def test_arg_set_fractions(self, trace):
        report = analyze_locality(trace)
        read = next(s for s in report.syscalls if s.name == "read")
        assert read.arg_set_fractions == (1.0,)

    def test_empty_trace(self):
        report = analyze_locality(SyscallTrace())
        assert report.total_calls == 0
        assert report.syscalls == ()

    def test_merge(self, trace):
        merged = merge_reports({"a": analyze_locality(trace), "b": analyze_locality(trace)})
        assert merged.total_calls == 2 * len(trace)
        assert sum(s.fraction for s in merged.syscalls) == pytest.approx(1.0)


def _per_event_locality(trace):
    """Figure 3 counted event by event, each syscall's mean taken by
    ``stats.mean`` over its per-use distances: the reference the
    per-distinct-event :func:`analyze_locality` must equal exactly."""
    total = len(trace)
    call_counts, arg_set_counts = {}, {}
    for event in trace:
        call_counts[event.sid] = call_counts.get(event.sid, 0) + 1
        per_sid = arg_set_counts.setdefault(event.sid, {})
        per_sid[event.args] = per_sid.get(event.args, 0) + 1
    per_sid_distances = {}
    for (sid, _args), dists in reuse_distances(trace).items():
        per_sid_distances.setdefault(sid, []).extend(dists)
    entries = []
    for sid, count in sorted(call_counts.items(), key=lambda kv: -kv[1]):
        distances = per_sid_distances.get(sid)
        entries.append(
            SyscallLocality(
                name=LINUX_X86_64.by_sid(sid).name if sid in LINUX_X86_64 else f"sys_{sid}",
                sid=sid,
                fraction=count / total,
                arg_set_fractions=tuple(
                    sorted((c / count for c in arg_set_counts[sid].values()), reverse=True)
                ),
                mean_reuse_distance=mean(distances) if distances else None,
            )
        )
    return LocalityReport(total_calls=total, syscalls=tuple(entries))


#: Events from a small pool: three syscalls (one never in the table),
#: two argument sets each and three pcs, so one (SID, argument set)
#: recurs from several pcs and frequencies tie.
_POOL_EVENTS = st.builds(
    SyscallEvent,
    sid=st.sampled_from([0, 1, 439]),
    args=st.sampled_from([(3, 0, 100), (4, 0, 100)]),
    pc=st.sampled_from([0x100, 0x104, 2**63]),
)


class TestClosedFormLocality:
    """The per-distinct-event Figure 3 equals the per-event count and
    the per-use mean, compared with ``==`` on floats."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_POOL_EVENTS, min_size=1, max_size=60))
    def test_property_equals_per_event(self, events):
        trace = SyscallTrace(events)
        assert analyze_locality(trace) == _per_event_locality(trace)

    def test_key_spanning_pcs(self):
        """read(3, 0, 100) from two pcs is one key: distances 1 and 0."""
        trace = SyscallTrace(
            [
                SyscallEvent(0, (3, 0, 100), 0x100),
                SyscallEvent(1, (1, 0, 64), 0x200),
                SyscallEvent(0, (3, 0, 100), 0x104),
                SyscallEvent(0, (3, 0, 100), 0x100),
            ]
        )
        read = analyze_locality(trace).syscalls[0]
        assert read.name == "read"
        assert read.mean_reuse_distance == mean([1, 0]) == 0.5

    @pytest.mark.parametrize("name", [spec.name for spec in MACRO_WORKLOADS])
    def test_macro_traces(self, name):
        trace = generate_trace(CATALOG[name], 4000)
        assert analyze_locality(trace) == _per_event_locality(trace)


class TestSecurityAnalysis:
    def test_docker_metrics(self):
        metrics = analyze_profile(build_docker_default())
        assert metrics.num_syscalls > 250
        assert metrics.num_argument_slots_checked == 2  # personality, clone
        assert metrics.num_argument_values_allowed == 6

    def test_app_profile_much_smaller(self, trace):
        app = analyze_profile(generate_complete(trace, "app"))
        docker = analyze_profile(build_docker_default())
        assert app.num_syscalls < docker.num_syscalls / 10

    def test_runtime_split(self, trace):
        metrics = analyze_profile(generate_complete(trace, "app"))
        assert metrics.num_runtime_syscalls >= 2  # read, write
        assert (
            metrics.num_application_syscalls
            == metrics.num_syscalls - metrics.num_runtime_syscalls
        )

    def test_argument_slots_distinct(self):
        profile = build_firecracker()
        assert argument_slots_checked(profile) == 5  # 5 distinct (sid, arg) slots

    def test_runtime_set_is_sane(self):
        assert "read" in CONTAINER_RUNTIME_SYSCALLS
        assert "mount" not in CONTAINER_RUNTIME_SYSCALLS


class TestHwCost:
    def test_matches_paper_at_design_point(self):
        costs = draco_hardware_costs()
        for name, paper in PAPER_TABLE3.items():
            ours = costs[name]
            assert ours.area_mm2 == pytest.approx(paper.area_mm2, rel=0.01)
            assert ours.access_time_ps == pytest.approx(paper.access_time_ps, rel=0.01)
            assert ours.dynamic_read_energy_pj == pytest.approx(
                paper.dynamic_read_energy_pj, rel=0.01
            )

    def test_all_sram_under_150ps(self):
        """The paper's 2-cycle access-time argument (Section XI-C)."""
        costs = draco_hardware_costs()
        for name in ("SPT", "STB", "SLB"):
            assert costs[name].access_time_ps < 150

    def test_scaling_with_size(self):
        """A doubled SLB must cost more area and leakage."""
        base = draco_hardware_costs()
        doubled = DracoHwParams(
            slb_subtables=tuple(
                SlbSubtableParams(s.arg_count, s.entries * 2, s.ways)
                for s in DracoHwParams().slb_subtables
            )
        )
        bigger = draco_hardware_costs(doubled)
        assert bigger["SLB"].area_mm2 > base["SLB"].area_mm2
        assert bigger["SLB"].leakage_power_mw > base["SLB"].leakage_power_mw

    def test_sram_cost_monotone_in_bits(self):
        small = sram_cost(SramGeometry("s", 64, 64))
        large = sram_cost(SramGeometry("l", 256, 64))
        assert large.area_mm2 > small.area_mm2
        assert large.access_time_ps > small.access_time_ps
