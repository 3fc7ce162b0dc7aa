"""System-call locality analysis (Section IV-C, Figure 3).

Computes, from a trace: per-syscall frequency, the breakdown of each
syscall's calls across its argument sets, and the *reuse distance* —
"the number of other system calls between two system calls with the
same ID and argument set".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.syscalls.events import SyscallTrace
from repro.syscalls.table import LINUX_X86_64, SyscallTable


@dataclass(frozen=True)
class SyscallLocality:
    """Figure 3 data for one syscall."""

    name: str
    sid: int
    fraction: float
    #: Fraction of this syscall's calls issued with each argument set,
    #: most popular first.
    arg_set_fractions: Tuple[float, ...]
    #: Mean number of other syscalls between reuses of the same
    #: (SID, argument set); None if never reused.
    mean_reuse_distance: Optional[float]


@dataclass(frozen=True)
class LocalityReport:
    total_calls: int
    syscalls: Tuple[SyscallLocality, ...]  # sorted by frequency, descending

    def top(self, n: int) -> Tuple[SyscallLocality, ...]:
        return self.syscalls[:n]

    def top_fraction(self, n: int) -> float:
        """Fraction of all calls covered by the top *n* syscalls.

        The paper: "20 system calls account for 86% of all the calls."
        """
        return sum(s.fraction for s in self.top(n))


def reuse_distances(trace: SyscallTrace) -> Dict[Tuple[int, Tuple[int, ...]], List[int]]:
    """Per (SID, argument set): the distances between successive uses."""
    last_seen: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    distances: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
    for position, event in enumerate(trace):
        key = event.key
        if key in last_seen:
            distances.setdefault(key, []).append(position - last_seen[key] - 1)
        last_seen[key] = position
    return distances


def analyze_locality(
    trace: SyscallTrace, table: SyscallTable = LINUX_X86_64
) -> LocalityReport:
    """Produce the Figure 3 view of a trace.

    Every quantity depends only on distinct events, so the work is done
    per distinct event.  A (SID, argument set) used ``n >= 2`` times,
    first at position ``f`` and last at ``l``, has ``n - 1`` reuse
    distances summing to ``l - f - (n - 1)``.  Each syscall's mean is
    then one integer sum over one integer count: exactly what
    :func:`repro.common.stats.mean` makes of the per-use distances
    :func:`reuse_distances` lists.
    """
    total = len(trace)
    if total == 0:
        return LocalityReport(total_calls=0, syscalls=())

    events = list(trace)
    counts = Counter(events)
    # A later pair overwrites an earlier one: forward gives each event's
    # last position, backward its first.
    last = dict(zip(events, range(total)))
    first = dict(zip(reversed(events), range(total - 1, -1, -1)))
    # Per (SID, argument set): [uses, first position, last position].
    # One key spans every pc that made the call.
    uses: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
    for event, n in counts.items():
        slot = uses.get(event.key)
        if slot is None:
            uses[event.key] = [n, first[event], last[event]]
        else:
            slot[0] += n
            slot[1] = min(slot[1], first[event])
            slot[2] = max(slot[2], last[event])

    # Counter order, and so ``uses`` order, is order of first use: ties
    # in the frequency sort below keep it, as a per-event count does.
    call_counts: Dict[int, int] = {}
    arg_set_counts: Dict[int, List[int]] = {}
    distance_sums: Dict[int, List[int]] = {}
    for (sid, _args), (n, start, end) in uses.items():
        call_counts[sid] = call_counts.get(sid, 0) + n
        arg_set_counts.setdefault(sid, []).append(n)
        if n > 1:
            sums = distance_sums.setdefault(sid, [0, 0])
            sums[0] += end - start - (n - 1)
            sums[1] += n - 1

    entries = []
    for sid, count in sorted(call_counts.items(), key=lambda kv: -kv[1]):
        arg_fracs = tuple(sorted((c / count for c in arg_set_counts[sid]), reverse=True))
        sums = distance_sums.get(sid)
        entries.append(
            SyscallLocality(
                name=table.by_sid(sid).name if sid in table else f"sys_{sid}",
                sid=sid,
                fraction=count / total,
                arg_set_fractions=arg_fracs,
                mean_reuse_distance=sums[0] / sums[1] if sums else None,
            )
        )
    return LocalityReport(total_calls=total, syscalls=tuple(entries))


def merge_reports(reports: Mapping[str, LocalityReport]) -> LocalityReport:
    """Aggregate several workloads' locality into one Figure-3-style view
    (each workload contributes in proportion to its call count)."""
    total = sum(r.total_calls for r in reports.values())
    if total == 0:
        return LocalityReport(total_calls=0, syscalls=())
    by_sid: Dict[int, Dict[str, object]] = {}
    for report in reports.values():
        weight = report.total_calls
        for entry in report.syscalls:
            slot = by_sid.setdefault(
                entry.sid,
                {"name": entry.name, "calls": 0.0, "dist_sum": 0.0, "dist_n": 0.0,
                 "arg_fracs": []},
            )
            slot["calls"] += entry.fraction * weight
            if entry.mean_reuse_distance is not None:
                slot["dist_sum"] += entry.mean_reuse_distance * weight
                slot["dist_n"] += weight
            slot["arg_fracs"].append(entry.arg_set_fractions)
    entries = []
    for sid, slot in sorted(by_sid.items(), key=lambda kv: -kv[1]["calls"]):
        longest = max(slot["arg_fracs"], key=len)
        entries.append(
            SyscallLocality(
                name=slot["name"],
                sid=sid,
                fraction=slot["calls"] / total,
                arg_set_fractions=longest,
                mean_reuse_distance=(
                    slot["dist_sum"] / slot["dist_n"] if slot["dist_n"] else None
                ),
            )
        )
    return LocalityReport(total_calls=total, syscalls=tuple(entries))
