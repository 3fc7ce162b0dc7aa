"""Figure 14 — number of arguments of system calls.

The violin plot's underlying data: the distribution of (checkable)
argument counts for the complete Linux interface and for the syscalls
each workload's Draco configuration actually checks.  The paper sizes
the SLB subtables from the Linux-wide distribution.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import get_context
from repro.syscalls.table import LINUX_X86_64
from repro.workloads.catalog import CATALOG


def _histogram(weighted: Iterable[Tuple[int, int]]) -> Tuple[int, ...]:
    """Histogram over argument counts 0..6 from ``(count, weight)`` pairs."""
    hist = [0] * 7
    for count, weight in weighted:
        hist[count] += weight
    return tuple(hist)


def linux_distribution() -> Tuple[int, ...]:
    """Checkable-argument counts across the whole syscall table."""
    return _histogram((d.num_checkable_args, 1) for d in LINUX_X86_64)


def trace_distribution(trace) -> Tuple[int, ...]:
    """Checkable-argument counts weighted by dynamic occurrence: each
    syscall instance contributes its count (that is what the SLB sees),
    so each distinct event adds its number of occurrences."""
    return _histogram(
        (LINUX_X86_64.by_sid(event.sid).num_checkable_args, n)
        for event, n in Counter(trace).items()
    )


def run(
    events: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    workloads: Optional[Tuple[str, ...]] = None,
) -> ExperimentResult:
    names = workloads or tuple(CATALOG)
    columns = ("subject",) + tuple(f"args={n}" for n in range(7)) + ("median",)
    rows = []

    linux = linux_distribution()
    rows.append(("linux",) + linux + (_median(linux),))

    for name in names:
        kwargs = dict(seed=seed)
        if events is not None:
            kwargs["events"] = events
        hist = trace_distribution(get_context(name, **kwargs).trace)
        rows.append((name,) + hist + (_median(hist),))
    return ExperimentResult(
        experiment_id="Fig 14",
        title="Distribution of (checkable) argument counts",
        columns=columns,
        rows=tuple(rows),
        notes=(
            "the paper sizes the SLB subtables from the Linux-wide distribution",
            "pointers are never checked, so counts are over non-pointer arguments",
        ),
    )


def _median(hist: Tuple[int, ...]) -> int:
    total = sum(hist)
    if total == 0:
        return 0
    acc = 0
    for value, count in enumerate(hist):
        acc += count
        if acc * 2 >= total:
            return value
    return len(hist) - 1


def main() -> None:
    print(run().format_table())


if __name__ == "__main__":
    main()
