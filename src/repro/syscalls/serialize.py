"""Trace serialisation: save and replay syscall traces as JSON Lines.

Recorded traces (synthetic or strace-derived) can be persisted and
replayed deterministically — the substrate for regression corpora, for
sharing workloads between machines, and for the on-disk context cache
(``repro.experiments.cache``).

Two on-disk versions exist.  Every line of either is one JSON value,
and the first line is a header:

* **version 1** — one JSON object per event, ``{"sid": int,
  "args": [int...], "pc": int}``, preceded by ``{"format":
  "repro-trace", "version": 1, "count": N}``.  Simple and grep-able.
* **version 3** — an interned table plus one index column: a
  ``{"format": "repro-trace", "version": 3, "count": N, "distinct":
  D}`` header, then ``D`` event objects (the distinct-event table, in
  first-occurrence order), then one JSON string: the base64 of the
  ``N`` per-event table indices as 4-byte little-endian unsigned ints.
  Catalog traces repeat a few thousand distinct events in runs that
  average about one event, so the column is per event rather than run
  length encoded, and both ends of it are C-level ``array`` and
  ``base64`` calls.  Loading expands the column through the table, so
  every event of one value is one interned :class:`SyscallEvent`
  instance and the identity fast path in
  :func:`repro.syscalls.events.iter_runs` stays a pointer comparison
  for re-loaded traces, exactly as it is for generated ones.

:func:`loads` accepts either version; :func:`dumps` writes version 1
unless asked for 3.
"""

from __future__ import annotations

import base64
import json
import sys
from array import array
from pathlib import Path
from typing import Union

from repro.common.errors import ReproError
from repro.syscalls.events import SyscallEvent, SyscallTrace

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1
#: An interned distinct-event table and one per-event index column.
FORMAT_VERSION_COLUMN = 3

#: The column's ``array`` type code: unsigned ints, 4 bytes wide.
_COLUMN_TYPE = "I"
_COLUMN_WIDTH = 4
if array(_COLUMN_TYPE).itemsize != _COLUMN_WIDTH:  # pragma: no cover
    raise ImportError(f"array({_COLUMN_TYPE!r}) is not {_COLUMN_WIDTH} bytes wide here")


class TraceFormatError(ReproError):
    """The file is not a valid repro trace."""


def _event_record(event: SyscallEvent) -> str:
    return json.dumps({"sid": event.sid, "args": list(event.args), "pc": event.pc})


def _header(version: int, **fields: int) -> str:
    return json.dumps({"format": FORMAT_NAME, "version": version, **fields})


def dumps(trace: SyscallTrace, version: int = FORMAT_VERSION) -> str:
    """Serialise a trace to JSONL text (version 1 or 3)."""
    if version == FORMAT_VERSION:
        lines = [_header(FORMAT_VERSION, count=len(trace))]
        lines.extend(_event_record(event) for event in trace)
        return "\n".join(lines) + "\n"
    if version != FORMAT_VERSION_COLUMN:
        raise TraceFormatError(f"cannot write version {version}")
    # First occurrence assigns the next index: ``len`` is read before
    # ``setdefault`` inserts, and dict order is the table's order.
    index_of: dict = {}
    indices = [index_of.setdefault(event, len(index_of)) for event in trace]
    try:
        column = array(_COLUMN_TYPE, indices)
    except OverflowError as error:
        raise TraceFormatError(f"{len(index_of)} distinct events overflow the column") from error
    if sys.byteorder == "big":
        column.byteswap()
    lines = [_header(FORMAT_VERSION_COLUMN, count=len(trace), distinct=len(index_of))]
    lines.extend(_event_record(event) for event in index_of)
    lines.append(json.dumps(base64.b64encode(column.tobytes()).decode("ascii")))
    return "\n".join(lines) + "\n"


def _parse_event(record) -> SyscallEvent:
    # The event converts each argument with ``int`` itself.
    return SyscallEvent(
        sid=int(record["sid"]), args=tuple(record["args"]), pc=int(record.get("pc", 0))
    )


def _iter_records(lines, start):
    """Yield ``(line number, parsed value)`` for standalone-JSON lines.

    A trace file is thousands of tiny JSON values; parsing them with one
    batched C-level ``json.loads`` is several times faster than a call
    per line, and the context-cache load path sits on every warm run.
    When the batch parse fails (some line is not valid JSON) the
    per-line loop reparses purely to point the error at the offending
    line.
    """
    try:
        values = json.loads("[" + ",".join(lines) + "]")
    except ValueError:
        values = None
    if isinstance(values, list) and len(values) == len(lines):
        yield from enumerate(values, start=start)
        return
    for number, line in enumerate(lines, start=start):
        try:
            yield number, json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"bad record on line {number}: {error}") from error


def _loads_v1(lines, declared) -> SyscallTrace:
    events = []
    for number, record in _iter_records(lines, start=2):
        try:
            events.append(_parse_event(record))
        except (KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(f"bad record on line {number}: {error}") from error
    if declared is not None and declared != len(events):
        raise TraceFormatError(
            f"header declares {declared} events, file has {len(events)}"
        )
    return SyscallTrace(events)


def _read_column(line: str, number: int) -> array:
    """The index column stored on *line*: a JSON string of strict
    base64 over whole 4-byte little-endian entries."""
    try:
        # ``b64decode`` refuses every JSON value but a string.
        raw = base64.b64decode(json.loads(line), validate=True)
    except (TypeError, ValueError) as error:
        raise TraceFormatError(f"bad index column on line {number}: {error}") from error
    if len(raw) % _COLUMN_WIDTH:
        raise TraceFormatError(
            f"index column on line {number} is {len(raw)} bytes, "
            f"not whole {_COLUMN_WIDTH}-byte entries"
        )
    column = array(_COLUMN_TYPE, raw)
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _loads_column(lines, declared, distinct) -> SyscallTrace:
    if type(declared) is not int or declared < 0:
        raise TraceFormatError(f"bad event count {declared!r}")
    if type(distinct) is not int or distinct < 0:
        raise TraceFormatError(f"bad distinct-event count {distinct!r}")
    if len(lines) != distinct + 1:
        raise TraceFormatError(
            f"header declares {distinct} distinct events and an index column, "
            f"file has {len(lines)} lines after it"
        )
    table = []
    for number, record in _iter_records(lines[:-1], start=2):
        try:
            table.append(_parse_event(record))
        except (KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(f"bad event on line {number}: {error}") from error
    column = _read_column(lines[-1], distinct + 2)
    if len(column) != declared:
        raise TraceFormatError(
            f"header declares {declared} events, index column has {len(column)}"
        )
    if column and max(column) >= distinct:
        raise TraceFormatError(
            f"index {max(column)} outside the {distinct}-event table"
        )
    # Every event of one value is the table's one instance, keeping run
    # coalescing an identity comparison downstream.
    return SyscallTrace(map(table.__getitem__, column))


def loads(text: str) -> SyscallTrace:
    """Parse JSONL text (either format version) back into a trace."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceFormatError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        raise TraceFormatError(f"bad header: {error}") from error
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceFormatError("not a repro trace file")
    version = header.get("version")
    declared = header.get("count")
    if version == FORMAT_VERSION:
        if declared is not None and type(declared) is not int:
            raise TraceFormatError(f"bad event count {declared!r}")
        return _loads_v1(lines[1:], declared)
    if version == FORMAT_VERSION_COLUMN:
        return _loads_column(lines[1:], declared, header.get("distinct"))
    raise TraceFormatError(f"unsupported version {version}")


def save(trace: SyscallTrace, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps(trace))


def load(path: Union[str, Path]) -> SyscallTrace:
    return loads(Path(path).read_text())
