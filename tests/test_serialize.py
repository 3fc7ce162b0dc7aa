"""Tests for trace serialisation (JSONL save/replay)."""

import base64
import json
import struct
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import DEFAULT_EVENTS
from repro.syscalls import serialize
from repro.syscalls.events import SyscallEvent, SyscallTrace, make_event
from repro.syscalls.serialize import (
    FORMAT_VERSION_COLUMN,
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


def _column_text(indices):
    """The index-column line for *indices*, built with ``struct``."""
    raw = struct.pack(f"<{len(indices)}I", *indices)
    return json.dumps(base64.b64encode(raw).decode("ascii"))


def _reference_dumps_column(trace):
    """Version 3 written with one ``json.dumps`` call per record and a
    ``struct``-packed column, the encoding :func:`dumps` must reproduce
    byte for byte."""
    index_of, table, indices = {}, [], []
    for event in trace:
        if event not in index_of:
            index_of[event] = len(table)
            table.append(event)
        indices.append(index_of[event])
    header = {
        "format": "repro-trace",
        "version": 3,
        "count": len(trace),
        "distinct": len(table),
    }
    lines = [json.dumps(header)]
    lines += [
        json.dumps({"sid": e.sid, "args": list(e.args), "pc": e.pc}) for e in table
    ]
    lines.append(_column_text(indices))
    return "\n".join(lines) + "\n"


def _assert_same_text(written, reference):
    """Equal texts, compared line by line: on a difference pytest then
    reports one short line pair instead of diffing whole traces."""
    written_lines = written.split("\n")
    reference_lines = reference.split("\n")
    for number, (got, want) in enumerate(zip(written_lines, reference_lines), 1):
        assert got == want, f"first difference on line {number}"
    assert len(written_lines) == len(reference_lines)


@lru_cache(maxsize=None)
def _catalog_trace(name):
    return generate_trace(CATALOG[name], DEFAULT_EVENTS)


_WORDS = st.integers(-(2**63), 2**64 - 1)

_EVENTS = st.builds(
    SyscallEvent,
    sid=st.integers(0, 450),
    args=st.lists(_WORDS, max_size=6).map(tuple),
    pc=st.integers(0, 2**64 - 1),
)


@st.composite
def _traces(draw):
    """Runs of events over 0–6 arguments, negative and 64-bit words and
    64-bit pcs, drawn from a pool of a few values so that a value also
    recurs away from its run, sometimes as an equal but distinct
    instance."""
    pool = draw(st.lists(_EVENTS, min_size=1, max_size=6))
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.integers(1, 50), st.booleans()),
            max_size=24,
        )
    )
    events = []
    for event, run, copy in runs:
        if copy:
            event = SyscallEvent(event.sid, event.args, event.pc)
        events.extend([event] * run)
    return SyscallTrace(events)


def _assert_interned_equal(restored, original):
    """Event-for-event equal, with one instance per distinct value."""
    assert list(restored) == list(original)
    assert len({id(event) for event in restored}) == len(set(restored))


class TestRleWriterBytes:
    """The version-3 writer's text is exactly what per-record
    ``json.dumps`` and a ``struct``-packed column write.  (The class
    is named for the run-length version 2 whose text it pinned before
    version 3 replaced it.)"""

    @settings(max_examples=60, deadline=None)
    @given(_traces())
    def test_property_matches_per_record_json(self, trace):
        _assert_same_text(
            dumps(trace, version=FORMAT_VERSION_COLUMN), _reference_dumps_column(trace)
        )

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_traces_match_per_record_json(self, name):
        trace = _catalog_trace(name)
        _assert_same_text(
            dumps(trace, version=FORMAT_VERSION_COLUMN), _reference_dumps_column(trace)
        )


class TestColumnRoundTrip:
    """Version 3 loads back event for event, one instance per value."""

    @settings(max_examples=80, deadline=None)
    @given(_traces())
    def test_property_round_trip(self, trace):
        _assert_interned_equal(loads(dumps(trace, version=FORMAT_VERSION_COLUMN)), trace)

    def test_empty_trace(self):
        text = dumps(SyscallTrace(), version=FORMAT_VERSION_COLUMN)
        assert text.splitlines()[-1] == '""'
        assert len(loads(text)) == 0

    def test_single_distinct_event(self):
        trace = SyscallTrace([make_event("getppid", pc=2**64 - 1)] * 7)
        text = dumps(trace, version=FORMAT_VERSION_COLUMN)
        assert len(text.splitlines()) == 3
        _assert_interned_equal(loads(text), trace)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_round_trip(self, name):
        trace = _catalog_trace(name)
        _assert_interned_equal(loads(dumps(trace, version=FORMAT_VERSION_COLUMN)), trace)


class TestRleFormat:
    """Version 3's reader: an interned event table and one index column.
    Every corruption fails one of its own checks; a version-2 text
    fails as an unsupported version before any of them runs, so each
    case here is written in version 3.  (The class is named for the
    run-length version 2 these cases checked before.)"""

    EVENT = '{"sid": 0, "args": [], "pc": 0}\n'

    def _header(self, count, distinct):
        return (
            '{"format": "repro-trace", "version": 3, '
            f'"count": {count}, "distinct": {distinct}}}\n'
        )

    def _text(self, count, distinct, indices, events=1):
        return (
            self._header(count, distinct)
            + self.EVENT * events
            + _column_text(indices)
            + "\n"
        )

    def test_round_trip(self, trace):
        restored = loads(dumps(trace, version=FORMAT_VERSION_COLUMN))
        assert [e.key for e in restored] == [e.key for e in trace]
        assert [e.pc for e in restored] == [e.pc for e in trace]

    def test_workload_round_trip(self):
        original = generate_trace(CATALOG["fifo-ipc"], 400)
        restored = loads(dumps(original, version=FORMAT_VERSION_COLUMN))
        assert [e.key for e in restored] == [e.key for e in original]

    def test_well_formed_text_loads(self):
        """The corruption cases below start from this text."""
        restored = loads(self._text(3, 1, [0, 0, 0]))
        assert [e.key for e in restored] == [(0, ())] * 3

    def test_interning_preserves_identity_runs(self):
        """Re-loaded traces intern one instance per distinct event, so
        iter_runs coalesces with pointer comparisons as for generated
        traces."""
        original = generate_trace(CATALOG["fifo-ipc"], 400)
        restored = loads(dumps(original, version=FORMAT_VERSION_COLUMN))
        seen = {}
        for event in restored:
            assert seen.setdefault((event.sid, event.args, event.pc), event) is event
        assert list(c for _e, c in restored.iter_runs()) == list(
            c for _e, c in original.iter_runs()
        )

    def test_rle_is_smaller_for_repetitive_traces(self):
        trace = SyscallTrace([make_event("getppid")] * 500)
        assert len(dumps(trace, version=FORMAT_VERSION_COLUMN)) < len(dumps(trace))

    def test_unknown_write_version_rejected(self, trace):
        for version in (2, 4):
            with pytest.raises(TraceFormatError):
                dumps(trace, version=version)

    def test_index_overflow_rejected(self, monkeypatch):
        """Indices that do not fit the column's type fail as a format
        error; one-byte entries stand in for four here."""
        monkeypatch.setattr(serialize, "_COLUMN_TYPE", "B")
        trace = SyscallTrace(make_event("getppid", pc=pc) for pc in range(300))
        with pytest.raises(TraceFormatError, match="overflow"):
            dumps(trace, version=FORMAT_VERSION_COLUMN)

    def test_version_2_text_is_unsupported(self):
        text = (
            '{"format": "repro-trace", "version": 2, "count": 1, "distinct": 1}\n'
            + self.EVENT
            + "[0, 1]\n"
        )
        with pytest.raises(TraceFormatError, match="unsupported version"):
            loads(text)

    def test_bad_distinct_count(self):
        # Negative; more event lines declared than present; fewer.
        for text in (
            self._text(1, -1, [0]),
            self._text(1, 5, [0]),
            self._text(1, 1, [0], events=2),
        ):
            with pytest.raises(TraceFormatError, match="distinct"):
                loads(text)

    def test_missing_column_line(self):
        with pytest.raises(TraceFormatError, match="index column"):
            loads(self._header(1, 1) + self.EVENT)

    def test_bad_event_line(self):
        text = self._header(1, 1) + '{"sid": "x"}\n' + _column_text([0]) + "\n"
        with pytest.raises(TraceFormatError, match="bad event on line 2"):
            loads(text)

    @pytest.mark.parametrize(
        "column", ['"AAAA*AAA"', '"AAAAAA"', '"AAAA AAA="', '"\u00e9AAA"'],
        ids=["bad-char", "bad-padding", "whitespace", "non-ascii"],
    )
    def test_column_not_strict_base64(self, column):
        text = self._header(1, 1) + self.EVENT + column + "\n"
        with pytest.raises(TraceFormatError, match="bad index column"):
            loads(text)

    def test_run_index_out_of_range(self):
        # 0xFFFFFFFF is -1 written unsigned: it would otherwise name
        # the table's last event, through Python's negative indexing.
        for index in (7, 1, 0xFFFFFFFF):
            with pytest.raises(TraceFormatError, match="outside the 1-event table"):
                loads(self._text(2, 1, [0, index]))

    @pytest.mark.parametrize(
        "column",
        ["[0.0]", "[true]", '["0"]', "1.0", "true", '"1"'],
        ids=[
            "float-index",
            "bool-index",
            "string-index",
            "float-count",
            "bool-count",
            "string-count",
        ],
    )
    def test_run_fields_must_be_ints(self, column):
        """Only a base64 JSON string carries the column: indices written
        as a JSON list (``-index``) or a bare JSON scalar (``-count``;
        ``"1"`` is a string but not base64) never coerce into one."""
        text = self._header(1, 1) + self.EVENT + column + "\n"
        with pytest.raises(TraceFormatError, match="bad index column"):
            loads(text)

    @pytest.mark.parametrize(
        "column",
        ['"AAAA"', '"AAAAAAA="', "7", '{"a": 0, "b": 1}'],
        ids=["short", "long", "scalar", "object"],
    )
    def test_run_record_shape(self, column):
        """The column is whole 4-byte entries in a JSON string: 3 and 5
        bytes are torn entries, a number or an object is no column."""
        text = self._header(1, 1) + self.EVENT + column + "\n"
        with pytest.raises(TraceFormatError, match="index column"):
            loads(text)

    def test_run_overrunning_the_declared_total(self):
        """A column longer than the declared count fails; so does a
        count no column matches, before anything is expanded."""
        for text in (self._text(1, 1, [0, 0]), self._text(10**12, 1, [0])):
            with pytest.raises(TraceFormatError, match="header declares"):
                loads(text)

    @pytest.mark.parametrize(
        "header, body",
        [
            ('"version": 3, "count": true, "distinct": 1', _column_text([0])),
            ('"version": 3, "count": 1.0, "distinct": 1', _column_text([0])),
            ('"version": 3, "count": 1, "distinct": true', _column_text([0])),
            ('"version": 1, "count": true', ""),
        ],
        ids=["bool-count", "float-count", "bool-distinct", "v1-bool-count"],
    )
    def test_header_counts_must_be_ints(self, header, body):
        """Each of these would otherwise load as a one-event trace."""
        text = (
            '{"format": "repro-trace", ' + header + "}\n" + self.EVENT + body + "\n"
        )
        with pytest.raises(TraceFormatError):
            loads(text)

    def test_header_count_required(self):
        text = (
            '{"format": "repro-trace", "version": 3, "distinct": 1}\n'
            + self.EVENT
            + _column_text([0])
            + "\n"
        )
        with pytest.raises(TraceFormatError, match="bad event count"):
            loads(text)

    def test_non_positive_run_count(self):
        """A negative count, or a zero count beside a non-empty column."""
        for text in (self._text(-1, 1, []), self._text(0, 1, [0])):
            with pytest.raises(TraceFormatError):
                loads(text)

    def test_count_mismatch(self):
        with pytest.raises(TraceFormatError, match="header declares 9 events"):
            loads(self._text(9, 1, [0, 0, 0]))


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
