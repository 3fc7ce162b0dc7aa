"""Tests for trace serialisation (JSONL save/replay)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import DEFAULT_EVENTS
from repro.syscalls.events import SyscallEvent, SyscallTrace, make_event
from repro.syscalls.serialize import (
    FORMAT_VERSION_RLE,
    TraceFormatError,
    dumps,
    load,
    loads,
    save,
)
from repro.workloads.catalog import CATALOG
from repro.workloads.generator import generate_trace


@pytest.fixture
def trace():
    return SyscallTrace(
        [
            make_event("read", (3, 100), pc=0x100),
            make_event("getppid", pc=0x104),
            make_event("mmap", (4096, 3, 0x22, 0xFFFFFFFF, 0), pc=0x108),
        ]
    )


class TestRoundTrip:
    def test_text_round_trip(self, trace):
        restored = loads(dumps(trace))
        assert len(restored) == len(trace)
        assert [e.key for e in restored] == [e.key for e in trace]
        assert [e.pc for e in restored] == [e.pc for e in trace]

    def test_file_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save(trace, path)
        assert [e.key for e in load(path)] == [e.key for e in trace]

    def test_workload_trace_round_trip(self):
        original = generate_trace(CATALOG["fifo-ipc"], 400)
        restored = loads(dumps(original))
        assert [e.key for e in restored] == [e.key for e in original]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 450),
                st.lists(st.integers(0, 2**63), max_size=6),
                st.integers(0, 2**40),
            ),
            max_size=16,
        )
    )
    def test_property_round_trip(self, raw):
        trace = SyscallTrace(
            SyscallEvent(sid=sid, args=tuple(args), pc=pc) for sid, args, pc in raw
        )
        restored = loads(dumps(trace)) if len(trace) else trace
        assert [e.key for e in restored] == [e.key for e in trace]


def _reference_dumps_v2(trace):
    """Version 2 written with one ``json.dumps`` call per record, the
    encoding :func:`dumps` must reproduce byte for byte."""
    index_of, table, runs = {}, [], []
    for event, count in trace.iter_runs():
        if event not in index_of:
            index_of[event] = len(table)
            table.append(event)
        runs.append([index_of[event], count])
    header = {
        "format": "repro-trace",
        "version": 2,
        "count": len(trace),
        "distinct": len(table),
    }
    lines = [json.dumps(header)]
    lines += [
        json.dumps({"sid": e.sid, "args": list(e.args), "pc": e.pc}) for e in table
    ]
    lines += [json.dumps(run) for run in runs]
    return "\n".join(lines) + "\n"


def _assert_same_text(written, reference):
    """Equal texts, compared line by line: on a difference pytest then
    reports one short line pair instead of diffing whole traces."""
    written_lines = written.split("\n")
    reference_lines = reference.split("\n")
    for number, (got, want) in enumerate(zip(written_lines, reference_lines), 1):
        assert got == want, f"first difference on line {number}"
    assert len(written_lines) == len(reference_lines)


_WORDS = st.integers(-(2**63), 2**64 - 1)


class TestRleWriterBytes:
    """The version-2 writer formats run records itself; its text must be
    exactly what per-record ``json.dumps`` wrote."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 450),
                st.lists(_WORDS, max_size=6),
                st.integers(0, 2**64 - 1),
                st.integers(1, 50),
            ),
            max_size=24,
        )
    )
    def test_property_matches_per_record_json(self, raw):
        events = []
        for sid, args, pc, run in raw:
            events.extend([SyscallEvent(sid=sid, args=tuple(args), pc=pc)] * run)
        trace = SyscallTrace(events)
        _assert_same_text(
            dumps(trace, version=FORMAT_VERSION_RLE), _reference_dumps_v2(trace)
        )

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_traces_match_per_record_json(self, name):
        trace = generate_trace(CATALOG[name], DEFAULT_EVENTS)
        _assert_same_text(
            dumps(trace, version=FORMAT_VERSION_RLE), _reference_dumps_v2(trace)
        )


class TestRleFormat:
    """Version 2: run-length encoding with an interned event table."""

    def test_round_trip(self, trace):
        restored = loads(dumps(trace, version=FORMAT_VERSION_RLE))
        assert [e.key for e in restored] == [e.key for e in trace]
        assert [e.pc for e in restored] == [e.pc for e in trace]

    def test_workload_round_trip(self):
        original = generate_trace(CATALOG["fifo-ipc"], 400)
        restored = loads(dumps(original, version=FORMAT_VERSION_RLE))
        assert [e.key for e in restored] == [e.key for e in original]

    def test_interning_preserves_identity_runs(self):
        """Re-loaded traces intern one instance per distinct event, so
        iter_runs coalesces with pointer comparisons as for generated
        traces."""
        original = generate_trace(CATALOG["fifo-ipc"], 400)
        restored = loads(dumps(original, version=FORMAT_VERSION_RLE))
        seen = {}
        for event in restored:
            assert seen.setdefault((event.sid, event.args, event.pc), event) is event
        assert list(c for _e, c in restored.iter_runs()) == list(
            c for _e, c in original.iter_runs()
        )

    def test_rle_is_smaller_for_repetitive_traces(self):
        trace = SyscallTrace([make_event("getppid")] * 500)
        assert len(dumps(trace, version=FORMAT_VERSION_RLE)) < len(dumps(trace))

    def test_unknown_write_version_rejected(self, trace):
        with pytest.raises(TraceFormatError):
            dumps(trace, version=3)

    def _header(self, count, distinct):
        return (
            '{"format": "repro-trace", "version": 2, '
            f'"count": {count}, "distinct": {distinct}}}\n'
        )

    def test_bad_distinct_count(self):
        with pytest.raises(TraceFormatError):
            loads('{"format": "repro-trace", "version": 2, "count": 0, "distinct": -1}\n')
        with pytest.raises(TraceFormatError):
            loads(self._header(1, 5) + '{"sid": 0, "args": [], "pc": 0}\n')

    def test_bad_event_line(self):
        with pytest.raises(TraceFormatError):
            loads(self._header(1, 1) + '{"sid": "x"}\n[0, 1]\n')

    def test_run_index_out_of_range(self):
        # -1 would otherwise name the table's last event, through
        # Python's negative indexing.
        for index in (7, 1, -1):
            text = (
                self._header(2, 1)
                + '{"sid": 0, "args": [], "pc": 0}\n'
                + f"[0, 1]\n[{index}, 1]\n"
            )
            with pytest.raises(TraceFormatError):
                loads(text)

    @pytest.mark.parametrize(
        "run",
        ["[0.0, 1]", "[true, 1]", '["0", 1]', "[0, 1.9]", "[0, true]", '[0, "1"]'],
        ids=[
            "float-index",
            "bool-index",
            "string-index",
            "float-count",
            "bool-count",
            "string-count",
        ],
    )
    def test_run_fields_must_be_ints(self, run):
        """A float, bool or string never coerces into a run: each of
        these once loaded as a one-event run."""
        text = (
            self._header(1, 2)
            + '{"sid": 0, "args": [], "pc": 0}\n{"sid": 1, "args": [], "pc": 0}\n'
            + run
            + "\n"
        )
        with pytest.raises(TraceFormatError):
            loads(text)

    @pytest.mark.parametrize(
        "run",
        ["[0]", "[0, 1, 1]", "7", '{"a": 0, "b": 1}'],
        ids=["short", "long", "scalar", "object"],
    )
    def test_run_record_shape(self, run):
        text = self._header(1, 1) + '{"sid": 0, "args": [], "pc": 0}\n' + run + "\n"
        with pytest.raises(TraceFormatError):
            loads(text)

    def test_run_overrunning_the_declared_total(self):
        """A corrupt count fails before its run is expanded: this one
        would need terabytes, and raised ``MemoryError`` instead."""
        text = self._header(1, 1) + '{"sid": 0, "args": [], "pc": 0}\n[0, 1000000000000]\n'
        with pytest.raises(TraceFormatError):
            loads(text)

    @pytest.mark.parametrize(
        "header, body",
        [
            ('"version": 2, "count": true, "distinct": 1', "[0, 1]\n"),
            ('"version": 2, "count": 1.0, "distinct": 1', "[0, 1]\n"),
            ('"version": 2, "count": 1, "distinct": true', "[0, 1]\n"),
            ('"version": 1, "count": true', ""),
        ],
        ids=["bool-count", "float-count", "bool-distinct", "v1-bool-count"],
    )
    def test_header_counts_must_be_ints(self, header, body):
        """Each of these loaded as a one-event trace."""
        text = (
            '{"format": "repro-trace", ' + header + "}\n"
            + '{"sid": 0, "args": [], "pc": 0}\n' + body
        )
        with pytest.raises(TraceFormatError):
            loads(text)

    def test_non_positive_run_count(self):
        text = self._header(0, 1) + '{"sid": 0, "args": [], "pc": 0}\n[0, 0]\n'
        with pytest.raises(TraceFormatError):
            loads(text)

    def test_count_mismatch(self):
        text = self._header(9, 1) + '{"sid": 0, "args": [], "pc": 0}\n[0, 3]\n'
        with pytest.raises(TraceFormatError):
            loads(text)


class TestErrors:
    def test_empty_file(self):
        with pytest.raises(TraceFormatError):
            loads("")

    def test_bad_header(self):
        with pytest.raises(TraceFormatError):
            loads("not json\n")

    def test_wrong_format(self):
        with pytest.raises(TraceFormatError):
            loads('{"format": "other", "version": 1}\n')

    def test_wrong_version(self):
        with pytest.raises(TraceFormatError):
            loads('{"format": "repro-trace", "version": 99}\n')

    def test_bad_record(self):
        text = '{"format": "repro-trace", "version": 1, "count": 1}\n{"sid": "x"}\n'
        with pytest.raises(TraceFormatError):
            loads(text)

    def test_count_mismatch(self):
        text = '{"format": "repro-trace", "version": 1, "count": 5}\n'
        text += '{"sid": 0, "args": [], "pc": 0}\n'
        with pytest.raises(TraceFormatError):
            loads(text)
