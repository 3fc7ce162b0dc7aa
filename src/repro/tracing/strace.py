"""Parse real ``strace`` output into syscall traces.

The paper's toolkit "attach[es] strace onto a running application to
collect the system call traces" (Section X-B).  This module is the
equivalent front-end for *real* logs: it parses the common strace text
formats into :class:`SyscallEvent` streams that feed directly into
:mod:`repro.seccomp.toolkit`.

Supported line shapes::

    openat(AT_FDCWD, "/etc/passwd", O_RDONLY|O_CLOEXEC) = 3
    read(3, "root:x:0:0..."..., 4096)     = 512
    [pid  1234] close(3)                  = 0
    12:34:56.789 futex(0x7f..., FUTEX_WAIT_PRIVATE, 2, NULL) = 0
    1677000000.123456 getpid()            = 77
    mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3, 0) = 0x7f...
    exit_group(0)                         = ?
    --- SIGCHLD {si_signo=SIGCHLD, ...} ---          (ignored)
    read(3, ...) = -1 EAGAIN (Resource temporarily unavailable)

Arguments are mapped onto the syscall's *checkable* slots: numeric
literals (decimal, hex, octal) are taken as values; symbolic constants
are resolved through a table of common flag names (extensible by the
caller); quoted strings and struct/array literals are pointer payloads
and recorded as 0, exactly as Seccomp would never inspect them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.syscalls.events import SyscallEvent, SyscallTrace, iter_runs
from repro.syscalls.table import LINUX_X86_64, SyscallTable


class StraceParseError(ReproError):
    """A line looked like a syscall record but could not be parsed."""


#: Common symbolic constants seen in strace output.  Callers can pass
#: extra mappings for application-specific constants.
DEFAULT_CONSTANTS: Dict[str, int] = {
    # open flags
    "O_RDONLY": 0o0, "O_WRONLY": 0o1, "O_RDWR": 0o2, "O_CREAT": 0o100,
    "O_EXCL": 0o200, "O_TRUNC": 0o1000, "O_APPEND": 0o2000,
    "O_NONBLOCK": 0o4000, "O_DIRECTORY": 0o200000, "O_CLOEXEC": 0o2000000,
    "AT_FDCWD": 0xFFFFFF9C,  # -100 as unsigned 32-bit
    # protections / mmap
    "PROT_NONE": 0, "PROT_READ": 1, "PROT_WRITE": 2, "PROT_EXEC": 4,
    "MAP_SHARED": 0x1, "MAP_PRIVATE": 0x2, "MAP_FIXED": 0x10,
    "MAP_ANONYMOUS": 0x20, "MAP_STACK": 0x20000, "MAP_NORESERVE": 0x4000,
    "MAP_DENYWRITE": 0x800,
    # futex ops
    "FUTEX_WAIT": 0, "FUTEX_WAKE": 1, "FUTEX_REQUEUE": 3,
    "FUTEX_WAIT_PRIVATE": 128, "FUTEX_WAKE_PRIVATE": 129,
    "FUTEX_WAIT_BITSET_PRIVATE": 137,
    # seek
    "SEEK_SET": 0, "SEEK_CUR": 1, "SEEK_END": 2,
    # socket
    "AF_UNIX": 1, "AF_INET": 2, "AF_INET6": 10, "AF_NETLINK": 16,
    "SOCK_STREAM": 1, "SOCK_DGRAM": 2, "SOCK_RAW": 3, "SOCK_SEQPACKET": 5,
    "SOCK_CLOEXEC": 0x80000, "SOCK_NONBLOCK": 0x800,
    "SOL_SOCKET": 1, "IPPROTO_TCP": 6, "MSG_NOSIGNAL": 0x4000,
    "MSG_DONTWAIT": 0x40, "SHUT_RD": 0, "SHUT_WR": 1, "SHUT_RDWR": 2,
    # epoll
    "EPOLL_CTL_ADD": 1, "EPOLL_CTL_DEL": 2, "EPOLL_CTL_MOD": 3,
    "EPOLL_CLOEXEC": 0x80000,
    # fcntl
    "F_DUPFD": 0, "F_GETFD": 1, "F_SETFD": 2, "F_GETFL": 3, "F_SETFL": 4,
    "F_DUPFD_CLOEXEC": 1030, "FD_CLOEXEC": 1,
    # misc
    "NULL": 0, "CLOCK_REALTIME": 0, "CLOCK_MONOTONIC": 1,
    "SIGCHLD": 17, "GRND_NONBLOCK": 1, "GRND_RANDOM": 2,
    "MADV_DONTNEED": 4, "MADV_FREE": 8, "MADV_WILLNEED": 3,
    "EPOLLIN": 1, "EPOLLOUT": 4,
}

# A syscall record: optional pid / timestamp prefix, name, "(args) = ret".
_LINE_RE = re.compile(
    r"""^
    (?:\[pid\s+(?P<pid>\d+)\]\s*)?            # [pid 1234]
    (?:\d{2}:\d{2}:\d{2}(?:\.\d+)?\s+)?        # 12:34:56.789
    (?:\d{9,10}\.\d+\s+)?                      # epoch timestamp
    (?P<name>[a-z_][a-z0-9_]*)
    \((?P<args>.*)\)
    \s*=\s*
    (?P<ret>\?|-?\d+|0x[0-9a-fA-F]+)
    (?P<errno>\s+E[A-Z]+\s+\(.*\))?
    \s*$""",
    re.VERBOSE,
)

#: strace's tail for a call another thread's line interrupted, as in
#: ``read(3,  <unfinished ...>``.
_UNFINISHED = "<unfinished ...>"

_NUMBER_RE = re.compile(r"^-?(?:0x[0-9a-fA-F]+|0[0-7]+|\d+)$")
_IDENT_RE = re.compile(r"^[A-Z_][A-Z0-9_]*$")

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class StraceRecord:
    """One parsed strace line."""

    name: str
    raw_args: Tuple[str, ...]
    return_value: Optional[int]
    pid: Optional[int] = None


def _ends_unfinished(line: str) -> bool:
    """True when *line* ends in the ``<unfinished ...>`` marker outside
    any quoted argument; a quoted payload may spell the marker too."""
    if not line.endswith(_UNFINISHED):
        return False
    in_string = escaped = False
    for char in line[: -len(_UNFINISHED)]:
        if escaped:
            escaped = False
        elif in_string and char == "\\":
            escaped = True
        elif char == '"':
            in_string = not in_string
    return not in_string


def split_arguments(text: str) -> Tuple[str, ...]:
    """Split an strace argument list at top-level commas.

    Handles nested braces/brackets/parens and quoted strings (with
    escapes), e.g. ``{st_mode=S_IFREG|0644, st_size=3}``.
    """
    args: List[str] = []
    depth = 0
    current: List[str] = []
    in_string = False
    escaped = False
    for char in text:
        if in_string:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
            current.append(char)
        elif char in "([{":
            depth += 1
            current.append(char)
        elif char in ")]}":
            depth -= 1
            current.append(char)
        elif char == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        args.append(tail)
    return tuple(args)


def parse_value(token: str, constants: Dict[str, int]) -> Optional[int]:
    """Resolve one argument token to a numeric value, or None if it is a
    pointer-like payload (string, struct, address, unknown symbol)."""
    token = token.strip()
    if not token or token.startswith(('"', "{", "[")):
        return None
    if token == "...":
        return None
    # OR-ed flag expressions: O_RDONLY|O_CLOEXEC, S_IFREG|0644
    if "|" in token:
        total = 0
        for part in token.split("|"):
            value = parse_value(part, constants)
            if value is None:
                return None
            total |= value
        return total
    if _NUMBER_RE.match(token):
        negative = token.startswith("-")
        body = token[1:] if negative else token
        if body.lower().startswith("0x"):
            value = int(body, 16)
        elif body.startswith("0") and len(body) > 1:
            value = int(body, 8)
        else:
            value = int(body, 10)
        return (-value if negative else value) & _U64
    if _IDENT_RE.match(token):
        return constants.get(token)
    # fd annotations like 3</etc/passwd>
    fd_match = re.match(r"^(\d+)<", token)
    if fd_match:
        return int(fd_match.group(1))
    return None


class StraceParser:
    """Streaming strace-log parser producing syscall events."""

    def __init__(
        self,
        table: SyscallTable = LINUX_X86_64,
        constants: Optional[Dict[str, int]] = None,
        synthesize_pcs: bool = True,
    ) -> None:
        self.table = table
        self.constants = dict(DEFAULT_CONSTANTS)
        if constants:
            self.constants.update(constants)
        self.synthesize_pcs = synthesize_pcs
        self.skipped_lines = 0
        self.unknown_syscalls: Dict[str, int] = {}

    # -- record level ----------------------------------------------------

    def parse_line(self, line: str) -> Optional[StraceRecord]:
        """Parse one line; returns None for non-syscall lines (signals,
        exits, resumed markers, blank lines)."""
        line = line.strip()
        if not line or line.startswith(("---", "+++", "<...")):
            return None
        if _ends_unfinished(line):
            return None  # completed later by a "resumed" line we skip
        match = _LINE_RE.match(line)
        if match is None:
            self.skipped_lines += 1
            return None
        ret_text = match.group("ret")
        if ret_text == "?":
            ret: Optional[int] = None
        elif ret_text.lower().startswith("0x"):
            ret = int(ret_text, 16)
        else:
            ret = int(ret_text)
        return StraceRecord(
            name=match.group("name"),
            raw_args=split_arguments(match.group("args")),
            return_value=ret,
            pid=int(match.group("pid")) if match.group("pid") else None,
        )

    def record_to_event(self, record: StraceRecord) -> Optional[SyscallEvent]:
        """Convert a record into an event over the checkable slots."""
        if record.name not in self.table:
            self.unknown_syscalls[record.name] = (
                self.unknown_syscalls.get(record.name, 0) + 1
            )
            return None
        sdef = self.table.by_name(record.name)
        args = [0] * sdef.nargs
        for index in range(min(len(record.raw_args), sdef.nargs)):
            if sdef.pointer_mask >> index & 1:
                continue  # pointer slot: never checked, keep 0
            value = parse_value(record.raw_args[index], self.constants)
            if value is not None:
                args[index] = value
        pc = self._pc_for(record) if self.synthesize_pcs else 0
        return SyscallEvent(sid=sdef.sid, args=tuple(args), pc=pc)

    def _pc_for(self, record: StraceRecord) -> int:
        """strace does not log PCs; synthesize one call site per
        syscall name so STB behaviour remains meaningful."""
        import hashlib

        digest = hashlib.sha256(record.name.encode()).digest()
        return 0x7000_0000 + (int.from_bytes(digest[:3], "little") & 0xFFFFFC)

    # -- stream level ------------------------------------------------------

    def iter_events(self, lines: Iterable[str]) -> Iterator[SyscallEvent]:
        for line in lines:
            record = self.parse_line(line)
            if record is None:
                continue
            event = self.record_to_event(record)
            if event is not None:
                yield event

    def iter_runs(self, lines: Iterable[str]) -> Iterator[Tuple[SyscallEvent, int]]:
        """Run-length-encoded view of :meth:`iter_events` — identical
        event sequence, coalesced into ``(event, count)`` pairs (real
        logs repeat lines byte-for-byte in tight loops, so value
        equality coalesces them even though instances differ)."""
        return iter_runs(self.iter_events(lines))

    def parse(self, text: str) -> SyscallTrace:
        """Parse a whole log into a trace."""
        return SyscallTrace(self.iter_events(text.splitlines()))


def parse_strace(text: str, **kwargs) -> SyscallTrace:
    """One-shot convenience wrapper around :class:`StraceParser`."""
    return StraceParser(**kwargs).parse(text)
