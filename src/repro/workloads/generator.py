"""Trace generation from workload models.

Produces :class:`SyscallTrace` streams whose locality matches the
paper's characterisation (Section IV-C): skewed syscall popularity,
few argument sets per syscall with sticky per-call-site preferences,
and short reuse distances.
"""

from __future__ import annotations

import hashlib
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, List, Optional, Tuple

from repro.common.rng import DEFAULT_SEED, make_rng
from repro.syscalls.events import SyscallEvent, SyscallTrace, iter_runs, make_event
from repro.workloads.model import ArgSetSpec, SyscallSpec, WorkloadSpec

#: Synthetic text segment base for generated call-site PCs.
TEXT_BASE = 0x0000_5555_5555_0000


def _preferred_set(workload: str, syscall: str, site: int, num_sets: int) -> int:
    """Stable hash-spread preferred argument set for one call site."""
    digest = hashlib.sha256(f"{workload}/{syscall}/pref{site}".encode()).digest()
    return int.from_bytes(digest[4:8], "little") % num_sets


def callsite_pc(workload: str, syscall: str, site_index: int) -> int:
    """A stable, 4-byte-aligned synthetic PC for one call site."""
    digest = hashlib.sha256(f"{workload}/{syscall}/{site_index}".encode()).digest()
    offset = int.from_bytes(digest[:4], "little") & 0x00FF_FFFC
    return TEXT_BASE + offset


@dataclass
class _SyscallSampler:
    spec: SyscallSpec
    pcs: Tuple[int, ...]
    arg_sets: Tuple[ArgSetSpec, ...]
    arg_weights: Tuple[float, ...]
    #: Preferred argument-set index per call site (locality anchor).
    preferred: Tuple[int, ...]
    # Derived sampling state, precomputed so the per-event loop does no
    # repeated weight accumulation (see ``iter_events``).
    callsites: int = 1
    stickiness: float = 0.0
    #: ``random.choices`` internals, replicated: cumulative weights,
    #: their float total, and the bisect ``hi`` bound.  Drawing with
    #: ``bisect(cum, random() * total, 0, hi)`` consumes the RNG and
    #: selects indices exactly as ``rng.choices(..., k=1)`` does.
    cum_weights: List[float] = field(default_factory=list)
    total_weight: float = 0.0
    hi: int = 0
    #: ``[site][set_index]`` -> reusable frozen event (filled lazily).
    grid: List[List[Optional[SyscallEvent]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.callsites = self.spec.callsites
        self.stickiness = self.spec.stickiness
        self.cum_weights = list(accumulate(self.arg_weights))
        self.total_weight = self.cum_weights[-1] + 0.0
        self.hi = len(self.arg_sets) - 1
        self.grid = [[None] * len(self.arg_sets) for _ in range(self.callsites)]


class TraceGenerator:
    """Deterministic trace generator for one workload model."""

    def __init__(self, workload: WorkloadSpec, seed: int = DEFAULT_SEED) -> None:
        self.workload = workload
        self._rng = make_rng(seed, f"trace:{workload.name}")
        self._samplers: List[_SyscallSampler] = []
        self._weights: List[float] = []
        for spec in workload.syscalls:
            pcs = tuple(
                callsite_pc(workload.name, spec.name, i) for i in range(spec.callsites)
            )
            arg_sets = spec.arg_sets or (ArgSetSpec(values=()),)
            # Each call site anchors on a hash-spread argument set, so
            # preferences cover the whole population (a server's accept
            # loop sees whichever fds the kernel handed it, not the
            # numerically first ones).
            preferred = tuple(
                _preferred_set(workload.name, spec.name, i, len(arg_sets))
                for i in range(spec.callsites)
            )
            self._samplers.append(
                _SyscallSampler(
                    spec=spec,
                    pcs=pcs,
                    arg_sets=arg_sets,
                    arg_weights=tuple(s.weight for s in arg_sets),
                    preferred=preferred,
                )
            )
            self._weights.append(spec.weight)

    def events(self, count: int) -> SyscallTrace:
        """Generate *count* syscall events."""
        return SyscallTrace(self.iter_events(count))

    def iter_runs(self, count: int) -> Iterator[Tuple[SyscallEvent, int]]:
        """Stream *count* events as run-length-encoded ``(event, n)``
        pairs.  Same RNG draw order as :meth:`iter_events`, so the
        expansion is exactly the sequence :meth:`events` produces; the
        identity check in the coalescer is nearly free because the
        generator reuses frozen event instances."""
        return iter_runs(self.iter_events(count))

    def iter_events(self, count: int) -> Iterator[SyscallEvent]:
        """Stream *count* syscall events lazily.

        Yields the same event sequence :meth:`events` materializes (the
        RNG draw order is identical), so regimes can consume a trace as
        it is produced without holding the whole list.  Events are
        frozen dataclasses, so each distinct (syscall, argument set,
        call site) combination is built once and the instance reused —
        event construction dominated generation time before.
        """
        rng = self._rng
        rng_random = rng.random
        rng_randrange = rng.randrange
        samplers = self._samplers
        chosen = rng.choices(range(len(samplers)), weights=self._weights, k=count)
        for sampler_index in chosen:
            sampler = samplers[sampler_index]
            site = (
                rng_randrange(sampler.callsites) if sampler.callsites > 1 else 0
            )
            if sampler.hi == 0:
                set_index = 0
            elif rng_random() < sampler.stickiness:
                set_index = sampler.preferred[site]
            else:
                # Inlined rng.choices(range(n), weights=..., k=1)[0]:
                # same single random() draw, same bisect over the same
                # cumulative weights, so the stream is bit-identical.
                set_index = bisect(
                    sampler.cum_weights,
                    rng_random() * sampler.total_weight,
                    0,
                    sampler.hi,
                )
            row = sampler.grid[site]
            event = row[set_index]
            if event is None:
                event = make_event(
                    sampler.spec.name,
                    sampler.arg_sets[set_index].values,
                    pc=sampler.pcs[site],
                    table=self.workload.table,
                )
                row[set_index] = event
            yield event


def generate_trace(
    workload: WorkloadSpec, count: int, seed: int = DEFAULT_SEED
) -> SyscallTrace:
    """Convenience wrapper: one-shot trace for *workload*."""
    return TraceGenerator(workload, seed=seed).events(count)


def coverage_trace(workload: WorkloadSpec) -> SyscallTrace:
    """One event per (syscall, argument set): a full-coverage profiling
    pass.  The paper's toolkit assumes the profiling run observes every
    combination the application will issue in production (otherwise the
    production process would be killed); this makes that coverage
    explicit and deterministic."""
    trace = SyscallTrace()
    for spec in workload.syscalls:
        pc = callsite_pc(workload.name, spec.name, 0)
        arg_sets = spec.arg_sets or (ArgSetSpec(values=()),)
        for arg_set in arg_sets:
            trace.append(
                make_event(spec.name, arg_set.values, pc=pc, table=workload.table)
            )
    return trace


def profile_trace(
    workload: WorkloadSpec,
    seed: int = DEFAULT_SEED,
    count: int = 20_000,
    include_startup: bool = True,
) -> SyscallTrace:
    """The trace the strace-based toolkit records to build profiles.

    An independent RNG stream models a separate profiling execution; the
    coverage pass is prepended so the generated profile whitelists every
    argument set the application can produce.  Like a real strace
    session, the recording includes the process *start-up* tail (dynamic
    linker, runtime init) — those syscalls end up in every application's
    profile even though steady-state measurement never re-issues them
    (the runtime-required share of Figure 15a).

    The random draws pick only argument sets the coverage pass lists,
    and the profile generators sort rules, so ``count=0`` yields the
    same profiles for every seed; the experiment runner's bundles skip
    the draws that way.
    """
    from repro.workloads.startup import startup_events

    trace = SyscallTrace(startup_events() if include_startup else ())
    trace.extend(coverage_trace(workload))
    trace.extend(TraceGenerator(workload, seed=seed ^ 0x5EED).events(count))
    return trace
