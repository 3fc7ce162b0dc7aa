"""Tests for the extension experiments (flow mix, bitmap, sweeps) and
remaining experiment modules at small scale."""

import pytest

from repro.experiments import (
    bitmap_comparison,
    fig3_locality,
    fig14_arg_distribution,
    flow_mix,
    vat_footprint,
)
from repro.experiments.runner import DEFAULT_EVENTS
from repro.syscalls.table import LINUX_X86_64
from repro.workloads.catalog import CATALOG
from repro.workloads.generator import generate_trace

EVENTS = 2500
WORKLOADS = ("pipe-ipc", "pwgen")


class TestFlowMix:
    def test_fractions_sum_to_one(self):
        result = flow_mix.run(events=EVENTS, workloads=WORKLOADS)
        for row in result.rows:
            entry = dict(zip(result.columns, row))
            total = sum(
                v for k, v in entry.items() if k.startswith(("FLOW", "SPT", "OS"))
            )
            assert total == pytest.approx(1.0, abs=0.01)

    def test_fast_fraction_consistent(self):
        result = flow_mix.run(events=EVENTS, workloads=WORKLOADS)
        for row in result.rows:
            entry = dict(zip(result.columns, row))
            fast = (
                entry["FLOW_1"] + entry["FLOW_3"] + entry["FLOW_5"] + entry["SPT_ONLY"]
            )
            assert entry["fast_fraction"] == pytest.approx(fast, abs=0.01)


class TestBitmapExperiment:
    def test_small_run_shape(self):
        result = bitmap_comparison.run(events=EVENTS, workloads=("pipe-ipc",))
        rows = {(r[0], r[1]): dict(zip(result.columns, r)) for r in result.rows}
        noargs = rows[("pipe-ipc", "noargs")]
        complete = rows[("pipe-ipc", "complete")]
        assert noargs["bitmap_hit_rate"] > 0.95
        assert complete["bitmap_hit_rate"] < 0.5
        assert complete["draco-hw"] < complete["seccomp"]


class TestFig3Small:
    def test_report_structure(self):
        result = fig3_locality.run(events=EVENTS, top_n=10)
        assert len(result.rows) == 10
        fractions = result.column("fraction_of_calls")
        assert all(0 < f <= 1 for f in fractions)
        assert list(fractions) == sorted(fractions, reverse=True)


class TestFig14Small:
    def test_linux_row_counts_table(self):
        from repro.syscalls.table import LINUX_X86_64

        result = fig14_arg_distribution.run(events=EVENTS, workloads=WORKLOADS)
        linux = result.row_dict("linux")
        total = sum(linux[f"args={n}"] for n in range(7))
        assert total == len(LINUX_X86_64)

    def test_workload_rows_count_events(self):
        result = fig14_arg_distribution.run(events=EVENTS, workloads=("pwgen",))
        row = result.row_dict("pwgen")
        assert sum(row[f"args={n}"] for n in range(7)) == EVENTS


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fig14_distribution_per_distinct_event(name):
    """The histogram counted per distinct event equals the one counted
    event by event, on every catalog trace."""
    trace = generate_trace(CATALOG[name], DEFAULT_EVENTS)
    per_event = [0] * 7
    for event in trace:
        per_event[LINUX_X86_64.by_sid(event.sid).num_checkable_args] += 1
    assert fig14_arg_distribution.trace_distribution(trace) == tuple(per_event)


class TestVatSmall:
    def test_geomean_row_present(self):
        result = vat_footprint.run(events=EVENTS, workloads=WORKLOADS)
        names = result.column("workload")
        assert "geomean" in names
        for row in result.rows:
            entry = dict(zip(result.columns, row))
            if entry["workload"] == "geomean":
                assert entry["kilobytes"] > 0
