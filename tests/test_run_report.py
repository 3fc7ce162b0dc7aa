"""A run report written before the counter tree reads and renders as before.

``data/run_report.json`` was written by the engine when each counter
family had its own typed field and its own ``RunReport`` merge: a
``fig12`` run on pipe-ipc at 12 000 events (flows, structures, the
context cache and a ``derived`` block from the sampled tier) and a small
``fleet`` run, both with stage telemetry.  ``data/run_report.txt`` and
``data/run_report.flows.json`` are what that code rendered from it:
``summary --flows --stages`` and ``python -m repro.tools.flowreport``.
The ``started:`` line, which renders local time, is masked; the context
cache line has since dropped the suffix that named the context tier's
deleted kill switch.
"""

import json
import re
from pathlib import Path

from repro.common.telemetry import RunReport
from repro.tools import flowreport

DATA = Path(__file__).resolve().parent / "data"


def _report() -> RunReport:
    return RunReport.read(DATA / "run_report.json")


def test_renders_match_the_recorded_text():
    report = _report()
    text = "\n\n".join(
        [report.format_summary(), report.format_stages(), report.format_flows()]
    )
    text = re.sub(r"^started: .*?  code:", "started: *  code:", text, flags=re.M)
    assert text + "\n" == (DATA / "run_report.txt").read_text()


def test_flowreport_matches_the_recorded_document():
    document = flowreport.build_report(_report())
    rendered = json.dumps(document, indent=1, sort_keys=True) + "\n"
    assert rendered == (DATA / "run_report.flows.json").read_text()


def test_totals_merge_the_requested_subtree():
    report = _report()
    assert report.totals("context_cache")["sweep"] == {"miss": 1, "store": 1}
    assert report.totals("fleet", "round-robin")["invocations"] == 40
    assert report.totals("derived_traces") == 3
    assert report.totals("max_error_estimate") == 0.02
    assert report.totals("cache_store_skipped") == {}
    assert report.stage_counters() == report.totals()["stages"]["counters"]
    assert report.totals("events_simulated") == sum(
        record.simulation["events_simulated"] for record in report.records
    )
