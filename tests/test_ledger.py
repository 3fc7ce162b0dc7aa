"""Tests for the per-flow cycle-accounting ledger and its audits.

Covers the ledger primitives (`repro.common.ledger`), the simulator's
conservation invariant across every regime, the per-process
attribution in the scheduler/multicore models, the telemetry flows
block and its renderers, and regressions for the warm-up,
summary-rendering, and SLB-fill bugfixes.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common import ledger, telemetry
from repro.common.errors import SimulationError
from repro.common.telemetry import ExperimentRecord, RunReport
from repro.core.slb import SlbSubtable
from repro.cpu.params import SlbSubtableParams
from repro.kernel.multicore import MultiCoreSystem
from repro.kernel.regimes import (
    DracoHwRegime,
    DracoSwRegime,
    InsecureRegime,
    SeccompRegime,
)
from repro.kernel.scheduler import RoundRobinScheduler, ScheduledProcess
from repro.kernel.simulator import run_trace
from repro.seccomp.toolkit import generate_complete
from repro.syscalls.events import SyscallTrace, make_event
from repro.tools import flowreport


def _trace(events=300, fd_base=3):
    out = []
    for i in range(events):
        out.append(make_event("read", (fd_base + i % 8, 100), pc=0x100))
        out.append(make_event("write", (1, 64 + 8 * (i % 6)), pc=0x200))
        out.append(make_event("epoll_wait", (4, 512, 100), pc=0x300))
    return SyscallTrace(out)


# ---------------------------------------------------------------------------
# FlowLedger primitives


class TestFlowLedger:
    def test_record_and_totals(self):
        led = ledger.FlowLedger()
        led.record(ledger.FLOW_HW_1, 2.0)
        led.record(ledger.FLOW_HW_1, 2.0)
        led.record(ledger.FLOW_HW_6, 7.5)
        assert led.total_events() == 3
        assert led.total_cycles() == 11.5
        assert led.counts[ledger.FLOW_HW_1] == 2

    def test_merge_and_snapshot_are_independent(self):
        a = ledger.FlowLedger()
        a.record(ledger.FLOW_NONE, 0.0)
        snap = a.snapshot()
        a.record(ledger.FLOW_NONE, 1.0)
        assert snap.total_events() == 1
        b = ledger.FlowLedger()
        b.merge(a)
        b.merge(snap)
        assert b.total_events() == 3

    def test_roundtrip_dict(self):
        led = ledger.FlowLedger({"hw.flow1": 2}, {"hw.flow1": 4.125})
        again = ledger.FlowLedger.from_dict(led.as_dict())
        assert again.counts == led.counts and again.cycles == led.cycles

    def test_audit_totals_passes_exactly(self):
        led = ledger.FlowLedger()
        for i in range(100):
            led.record(ledger.FLOW_SW_VAT_HIT, 0.1 * i)
        led.audit_totals(100, led.total_cycles(), scope="t")

    def test_audit_totals_count_drift_raises(self):
        led = ledger.FlowLedger({"none": 3}, {"none": 0.0})
        with pytest.raises(ledger.ConservationError, match="flow counts sum to 3"):
            led.audit_totals(4, 0.0, scope="t")

    def test_audit_totals_cycle_drift_raises(self):
        led = ledger.FlowLedger({"none": 1}, {"none": 2.0})
        with pytest.raises(ledger.ConservationError, match="per-flow cycles"):
            led.audit_totals(1, 3.0, scope="t")

    def test_audit_against_regime_delta(self):
        before = ledger.FlowLedger({"none": 5}, {"none": 10.0})
        after = ledger.FlowLedger({"none": 8}, {"none": 16.0})
        mine = ledger.FlowLedger({"none": 3}, {"none": 6.0})
        mine.audit_against(before, after, scope="t")
        liar = ledger.FlowLedger({"none": 2}, {"none": 6.0})
        with pytest.raises(ledger.ConservationError, match="counted 2 times"):
            liar.audit_against(before, after, scope="t")


# ---------------------------------------------------------------------------
# Simulator warm-up bugfixes (satellite regressions)


class TestWarmupRegressions:
    def test_warmup_consuming_all_events_raises(self):
        trace = _trace(events=5)  # 15 events
        stream = iter(list(trace)[:6])  # int(15 * 0.4) = 6: all warm-up
        with pytest.raises(SimulationError, match="warm-up consumed all 6 events"):
            run_trace(
                stream,
                InsecureRegime(),
                100.0,
                150.0,
                warmup_fraction=0.4,
                events_total=15,
            )

    def test_stream_ending_inside_warmup_raises(self):
        trace = _trace(events=5)
        stream = iter(list(trace)[:4])
        with pytest.raises(SimulationError, match="inside the warm-up window"):
            run_trace(
                stream,
                InsecureRegime(),
                100.0,
                150.0,
                warmup_fraction=0.4,
                events_total=15,
            )

    def test_short_stream_after_warmup_raises(self):
        trace = _trace(events=5)
        stream = iter(list(trace)[:10])
        with pytest.raises(SimulationError, match="ended after 10 events"):
            run_trace(
                stream,
                InsecureRegime(),
                100.0,
                150.0,
                warmup_fraction=0.4,
                events_total=15,
            )

    def test_exact_length_stream_is_fine(self):
        trace = _trace(events=5)
        result = run_trace(
            iter(list(trace)),
            InsecureRegime(),
            100.0,
            150.0,
            warmup_fraction=0.4,
            events_total=15,
        )
        assert result.events_measured == 9
        assert result.warmup_events == 6


# ---------------------------------------------------------------------------
# RunReport.format_summary bugfix (satellite regression)


class TestSummaryRendering:
    def test_failure_shows_last_traceback_line(self):
        error = (
            "Traceback (most recent call last):\n"
            '  File "x.py", line 1, in <module>\n'
            "ValueError: boom"
        )
        record = ExperimentRecord(experiment_id="exp", status="failed", error=error)
        out = RunReport(records=[record]).format_summary()
        last = out.splitlines()[-1]
        assert last == "FAILED exp: ValueError: boom"
        assert "Traceback" not in last

    def test_long_error_lines_are_truncated(self):
        record = ExperimentRecord(
            experiment_id="exp", status="failed", error="E" * 400
        )
        last = RunReport(records=[record]).format_summary().splitlines()[-1]
        assert last.endswith("...")
        assert len(last) <= len("FAILED exp: ") + 160


# ---------------------------------------------------------------------------
# SlbSubtable.fill ordered-candidate bugfix (satellite regression)


class TestSlbFillOrder:
    def _subtable(self):
        return SlbSubtable(SlbSubtableParams(arg_count=2, entries=8, ways=2))

    def test_fill_updates_in_place_whatever_the_fetching_hash(self):
        sub = self._subtable()
        args = (3, 100)
        pair = (11, 22)
        sub.fill(7, (0, pair[0]), args, hash_pair=pair)
        sub.fill(7, (1, pair[1]), args, hash_pair=pair)
        entries = [e for s in sub._sets for e in s]
        assert len(entries) == 1
        assert entries[0].hash_id == (1, pair[1])

    def test_fetching_hash_set_is_probed_first(self):
        sub = self._subtable()
        args = (3, 100)
        pair = (1, 2)  # distinct sets for sid 0: 1 % 4 and 2 % 4
        # Plant matching entries in *both* candidate sets.
        sub.fill(0, (0, pair[0]), args)
        sub.fill(0, (1, pair[1]), args)
        assert sum(len(s) for s in sub._sets) == 2
        # A refill must deterministically update the fetching hash's
        # copy (the old set-based probe order depended on hash values).
        sub.fill(0, (1, pair[1]), args, hash_pair=pair)
        updated = [e for s in sub._sets for e in s if e.hash_id == (1, pair[1])]
        assert len(updated) == 1

    def test_eviction_is_counted(self):
        sub = SlbSubtable(SlbSubtableParams(arg_count=1, entries=2, ways=2))
        for i in range(3):  # one set, two ways: third fill evicts
            sub.fill(0, (0, 0), (i,), hash_pair=(0, 0))
        assert sub.evictions == 1


# ---------------------------------------------------------------------------
# Conservation across regimes (tentpole invariant)

_SYSCALL_TEMPLATES = (
    ("read", lambda a, b: (3 + a, 100)),
    ("write", lambda a, b: (1, 64 + 8 * b)),
    ("epoll_wait", lambda a, b: (4, 512, 100)),
    ("close", lambda a, b: (3 + a,)),
)


def _trace_of(picks):
    events = []
    for index, a, b in picks:
        name, build = _SYSCALL_TEMPLATES[index]
        events.append(make_event(name, build(a, b), pc=0x100 + index))
    return SyscallTrace(events)


@st.composite
def _random_traces(draw):
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(_SYSCALL_TEMPLATES) - 1),
                st.integers(0, 4),
                st.integers(0, 3),
            ),
            min_size=40,
            max_size=120,
        )
    )
    return _trace_of(picks)


def _assert_conserves(result):
    assert sum(result.flow_counts.values()) == result.events_measured
    derived = sum(result.flow_cycles[key] for key in sorted(result.flow_cycles))
    assert derived == result.total_check_cycles  # exact, by construction
    assert sum(result.path_counts.values()) == result.events_measured
    result.flow_ledger().audit_totals(
        result.events_measured, result.total_check_cycles, scope="test"
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(trace=_random_traces())
# close(7) and close(5) take turns evicting each other from software
# Draco's VAT, which breaks the analytic replay's precondition.
@example(trace=_trace_of([(3, 4, 0), (3, 2, 0)] * 20))
def test_conservation_across_regimes(trace):
    profile = generate_complete(trace, "t")
    regimes = (
        InsecureRegime(),
        SeccompRegime(profile),
        DracoSwRegime(profile),
        DracoHwRegime(profile),
    )
    for regime in regimes:
        result = run_trace(trace, regime, 100.0, 150.0, workload_name="w")
        _assert_conserves(result)


def test_flow_tags_cover_every_event():
    trace = _trace()
    profile = generate_complete(trace, "t")
    result = run_trace(trace, DracoHwRegime(profile), 100.0, 150.0)
    assert set(result.flow_counts) <= set(ledger.FLOW_KEYS)
    hw_flows = [k for k in result.flow_counts if k.startswith("hw.flow")]
    assert hw_flows  # argument syscalls actually exercised Table I flows


def test_untagged_outcomes_fall_back_to_path():
    class BareRegime(InsecureRegime):
        def __init__(self):
            super().__init__()
            self.name = "bare"

        def check(self, event):
            from repro.core.software import CheckOutcome

            return CheckOutcome(allowed=True, cycles=1.0, path="legacy")

        def ledger_snapshot(self):
            return None

    result = run_trace(_trace(events=20), BareRegime(), 100.0, 150.0)
    assert result.flow_counts == {"legacy": result.events_measured}
    _assert_conserves(result)


# ---------------------------------------------------------------------------
# Scheduler / multicore attribution


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


class TestScheduledAttribution:
    def test_multicore_flow_counts_survive_context_switches(self):
        procs = [_process("a", 3), _process("b", 7)]
        system = MultiCoreSystem(cores=1, quantum_syscalls=50)
        for process in procs:
            system.assign(process)
        result = system.run()
        assert result.per_core_switches[0] > 0
        for process in procs:
            counts = result.per_process_flows[process.name]
            assert sum(counts.values()) == process.syscalls_run == len(process.trace)
            cycles = result.per_process_flow_cycles[process.name]
            derived = sum(cycles[key] for key in sorted(cycles))
            assert derived == pytest.approx(process.check_cycles, rel=1e-9)
        # Two tenants on one core: every quantum resumes cold.
        assert procs[0].quanta and all(q.cold for q in procs[0].quanta)
        assert sum(q.syscalls for q in procs[0].quanta) == procs[0].syscalls_run

    def test_single_tenant_quanta_are_warm_after_first(self):
        process = _process("solo", events=200)
        scheduler = RoundRobinScheduler([process], quantum_syscalls=50)
        result = scheduler.run()
        assert result.context_switches == 0
        assert process.quanta[0].cold
        assert not any(q.cold for q in process.quanta[1:])
        counts = result.per_process_flows["solo"]
        assert sum(counts.values()) == result.total_syscalls


# ---------------------------------------------------------------------------
# Telemetry flows block, report aggregation, flowreport tool


@pytest.fixture
def _fresh_counters():
    telemetry.reset_counters()
    yield
    telemetry.reset_counters()


class TestTelemetryFlows:
    def test_snapshot_carries_flows_and_structures(self, _fresh_counters):
        trace = _trace()
        profile = generate_complete(trace, "t")
        run_trace(trace, DracoHwRegime(profile), 100.0, 150.0, workload_name="w")
        snap = telemetry.counters_snapshot()
        assert "flows" in snap and "structures" in snap
        ((regime, block),) = snap["flows"].items()
        assert regime.startswith("draco-hw")
        assert block["events"] == sum(block["counts"].values())
        assert "slb" in snap["structures"][regime]

    def test_report_flows_aggregate_and_conserve(self, _fresh_counters):
        trace = _trace()
        profile = generate_complete(trace, "t")
        run_trace(trace, SeccompRegime(profile), 100.0, 150.0)
        record = ExperimentRecord(
            experiment_id="e", simulation=telemetry.counters_snapshot()
        )
        report = RunReport(records=[record, record])  # two experiments
        flows = report.flows()
        ((_, block),) = flows.items()
        assert block["events"] == 2 * record.simulation["flows"][
            next(iter(record.simulation["flows"]))
        ]["events"]
        assert report.audit_flow_conservation() == []
        assert "conservation: ok" in report.format_flows()

    def test_count_drift_is_detected(self):
        simulation = {
            "traces_run": 1,
            "flows": {
                "r": {
                    "events": 10,
                    "check_cycles": 5.0,
                    "counts": {"none": 9},
                    "cycles": {"none": 5.0},
                }
            },
        }
        report = RunReport(records=[ExperimentRecord("e", simulation=simulation)])
        problems = report.audit_flow_conservation()
        assert problems and "9" in problems[0]
        assert "CONSERVATION DRIFT" in report.format_flows()

    def test_empty_report_renders_hint(self):
        out = RunReport(records=[]).format_flows()
        assert "no flow telemetry" in out


class TestFlowReportTool:
    def test_hw_hit_rates_formulas(self):
        counts = {
            ledger.FLOW_HW_1: 50,
            ledger.FLOW_HW_2: 10,
            ledger.FLOW_HW_3: 20,
            ledger.FLOW_HW_4: 5,
            ledger.FLOW_HW_5: 10,
            ledger.FLOW_HW_6: 5,
        }
        rates = flowreport.hw_hit_rates(counts)
        assert rates["argument_flows"] == 100
        assert rates["stb_hit_rate"] == pytest.approx(0.85)
        assert rates["slb_preload_hit_rate"] == pytest.approx(60 / 85)
        assert rates["slb_access_hit_rate"] == pytest.approx(0.80)

    def _write_report(self, tmp_path, _fresh=None):
        telemetry.reset_counters()
        trace = _trace()
        profile = generate_complete(trace, "t")
        run_trace(trace, DracoHwRegime(profile), 100.0, 150.0, workload_name="w")
        record = ExperimentRecord(
            experiment_id="e", simulation=telemetry.counters_snapshot()
        )
        telemetry.reset_counters()
        report = RunReport(records=[record])
        path = tmp_path / "latest.json"
        report.write(path)
        return report, path

    def test_build_report_document(self, tmp_path):
        report, _ = self._write_report(tmp_path)
        document = flowreport.build_report(report)
        assert document["schema"] == flowreport.SCHEMA
        assert document["conservation"]["ok"]
        ((_, entry),) = document["regimes"].items()
        assert entry["hit_rates"]["argument_flows"] > 0
        assert "slb" in entry["structures"]
        assert 0.0 <= entry["structure_hit_rates"]["vat_hit_rate"] <= 1.0

    def test_cli_check_passes_and_writes(self, tmp_path, capsys):
        _, path = self._write_report(tmp_path)
        out_path = tmp_path / "flows.json"
        code = flowreport.main(
            ["--report", str(path), "--check", "--output", str(out_path)]
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["conservation"]["ok"]

    def test_cli_check_fails_on_drift(self, tmp_path, capsys):
        report = RunReport(
            records=[
                ExperimentRecord(
                    "e",
                    simulation={
                        "traces_run": 1,
                        "flows": {
                            "r": {
                                "events": 2,
                                "check_cycles": 1.0,
                                "counts": {"none": 1},
                                "cycles": {"none": 1.0},
                            }
                        },
                    },
                )
            ]
        )
        path = tmp_path / "bad.json"
        report.write(path)
        assert flowreport.main(["--report", str(path), "--check"]) == 1
        assert "conservation drift" in capsys.readouterr().err

    def test_cli_check_fails_without_flow_telemetry(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        RunReport(records=[ExperimentRecord("e")]).write(path)
        assert flowreport.main(["--report", str(path), "--check"]) == 1
        assert "no flow telemetry" in capsys.readouterr().err
