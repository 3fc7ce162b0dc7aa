"""Analytic steady-state simulation backend (the second kernel tier).

The simulator has two ways to drive a trace through a checking regime
(see ``docs/PERFORMANCE.md``):

1. **exact** — run-length-encoded consumption through each regime's
   ``check``/``check_run``, with the regimes' steady memos and run
   shortcuts always on;
2. **analytic** — this module: whole-window costs computed in closed
   form from the trace's *distinct-event histogram* wherever the
   regime's structure state reaches a steady fixed point.

For the history-free regimes (insecure, seccomp, software Draco) the
outcome of every check is a pure function of the event value and the
set of previously seen events — not of their interleaving — so the
whole measured window collapses to one ``check_run(event, count)`` per
distinct event, in first-seen order.  That reordering is *exact*: the
produced :class:`repro.kernel.simulator.RunResult` is value-identical
to the exact kernel (see the differential suite in
``tests/test_analytic.py``).

Preconditions for exactness (stated here, verified by the regimes):

* the regime's ``advance()`` is a no-op (no clocks, no cache pollution
  coupled to event order);
* any caching structure the regime consults is insert-only over the
  run and keyed by event value — for software Draco this means the VAT
  suffers **zero cuckoo evictions**, which holds by construction
  because the OS sizes each table at twice the profile's argument-set
  count (load factor <= 0.5); the simulator still verifies the eviction
  counter after every exact run and fails loudly if it moved.

Hardware Draco is history-*dependent* (STB retraining, SLB conflicts,
hierarchy pollution), so no exact closed form exists.  Above
:data:`HW_MIN_EVENTS` the backend instead simulates a shortened warm-up
plus a measured sample and extrapolates: the full window is modelled as
``C`` cold first-occurrence checks (known exactly from the histogram)
plus ``T - C`` steady-mix checks scaled from the sample by
largest-remainder rounding, so flow-count conservation stays exact.
Such results are flagged ``derived`` and carry a split-half error
estimate; the differential tests assert its bound.

The warm-up sample is sized by the trace's *characteristic time* — the
Che approximation applied to the empirical event probabilities.  For an
LRU-like structure of capacity ``C`` serving independent references
with probabilities ``p_i``, the Che characteristic time ``T`` solves::

    sum_i (1 - exp(-p_i * T)) = C

>>> probs = [0.4, 0.3, 0.2, 0.1]
>>> t = che_characteristic_time(probs, capacity=2)
>>> round(sum(1 - math.exp(-p * t) for p in probs), 6)  # occupancy == C
2.0

Everything here lives in ``repro.common`` so the kernel layer, the
experiment runner and the benchmarks can consult it without import
cycles.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common import storage
from repro.common.memo import memo_insert

#: Environment variable: set to ``0``/``off`` to disable the analytic
#: backend (every run falls back to the exact kernel).
ANALYTIC_ENV = "REPRO_ANALYTIC"

#: Version of the analytic backend's numerical contract.  Bumped when
#: the closed forms, the sampling plan, or the scaling arithmetic
#: change, so on-disk result caches keyed on it are invalidated rather
#: than silently mixing incompatible numbers.
ANALYTIC_VERSION = 1

#: Below this trace length the sampled hardware path never engages:
#: short traces are transient-dominated and the exact kernels are
#: already fast.  (Unit tests at 3000 events and the benchmark suite at
#: 8000 events therefore always see exact hardware results.)
HW_MIN_EVENTS = 10_000

#: Bounds on the sampled hardware plan (events).
HW_WARM_MIN = 768
HW_WARM_CAP = 2048
HW_SAMPLE_MIN = 768
HW_SAMPLE_CAP = 1024

#: Longest simulated post-context-switch re-warm segment (events).
HW_TRANSIENT_CAP = 768

#: The simulated prefix must fit inside one context-switch period with
#: this much headroom, so the quantum timer cannot fire mid-sample (the
#: plan fires switches itself, at segment boundaries).
HW_PERIOD_HEADROOM = 0.95

#: At least this fraction of the measured window must remain for the
#: steady mix after the cold and transient segments are carved out —
#: below it the trace is transient-dominated and extrapolation is
#: declined in favour of the exact kernels.
HW_MIN_STEADY_FRACTION = 0.3

#: The sampled plan is declined when the exactly-known cold events
#: exceed this fraction of the measured window (transient-dominated
#: traces extrapolate poorly) or when the plan would simulate most of
#: the trace anyway.
HW_MAX_COLD_FRACTION = 0.25
HW_MAX_SIM_FRACTION = 0.75

#: Floor on the reported error estimate of sampled hardware results, on
#: the normalised-execution-time scale.  The split-half drift inside the
#: sample cannot see slow transients (the cache hierarchy keeps warming
#: over the whole trace on some workloads), so the reported estimate is
#: never allowed below the bound the differential suite validates
#: catalog-wide (max observed |Δnt| ≈ 0.011 at 12k events; see
#: ``tests/test_analytic.py`` and ``docs/PERFORMANCE.md``).
HW_ERROR_FLOOR = 0.02


def analytic_enabled() -> bool:
    """True unless ``REPRO_ANALYTIC`` disables the analytic backend.

    >>> os.environ.pop("REPRO_ANALYTIC", None) and None
    >>> analytic_enabled()
    True
    >>> os.environ["REPRO_ANALYTIC"] = "0"
    >>> analytic_enabled()
    False
    >>> os.environ.pop("REPRO_ANALYTIC")
    '0'
    """
    return storage._truthy(ANALYTIC_ENV)


# ---------------------------------------------------------------------------
# Trace windows: per-(trace, warm-up split) distinct-event histograms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceWindows:
    """First-seen-ordered distinct-event histograms of one trace split.

    ``warm`` and ``measured`` list ``(event, count)`` pairs grouped by
    event *value* in order of first occurrence within each window;
    concatenating ``count`` copies of each event is a permutation of the
    window that preserves per-value first-occurrence order.
    """

    total: int
    warmup: int
    warm: Tuple[Tuple[Any, int], ...]
    measured: Tuple[Tuple[Any, int], ...]
    #: Distinct event values over the whole trace.
    distinct: int
    #: Distinct values whose first occurrence falls in the measured
    #: window — the exactly-known cold-event count ``C``.
    distinct_new_measured: int

    def event_probabilities(self) -> List[float]:
        """Empirical stationary probabilities over the whole trace."""
        totals: Dict[Any, int] = {}
        for event, count in self.warm:
            totals[event] = totals.get(event, 0) + count
        for event, count in self.measured:
            totals[event] = totals.get(event, 0) + count
        n = float(self.total)
        return [count / n for count in totals.values()]


#: Identity-keyed memo (strong refs so ids cannot be recycled): the
#: suite evaluates each trace ~20 times under the same warm-up split.
_WINDOW_MEMO: Dict[Tuple[int, int], Tuple[Any, TraceWindows]] = {}
_WINDOW_MEMO_LIMIT = 32


def trace_windows(trace: Any, warmup: int) -> Optional[TraceWindows]:
    """Histogram *trace* around the *warmup* boundary, or ``None`` for
    streaming iterables (no length, not replayable)."""
    try:
        total = len(trace)
    except TypeError:
        return None
    runs = getattr(trace, "iter_runs", None)
    if runs is None:
        return None
    key = (id(trace), warmup)
    hit = _WINDOW_MEMO.get(key)
    if hit is not None and hit[0] is trace:
        return hit[1]
    warm: Dict[Any, int] = {}
    measured: Dict[Any, int] = {}
    position = 0
    for event, count in runs():
        if position < warmup:
            take = min(count, warmup - position)
            warm[event] = warm.get(event, 0) + take
            count -= take
            position += take
        if count:
            measured[event] = measured.get(event, 0) + count
            position += count
    new = sum(1 for event in measured if event not in warm)
    windows = TraceWindows(
        total=total,
        warmup=warmup,
        warm=tuple(warm.items()),
        measured=tuple(measured.items()),
        distinct=len(warm) + new,
        distinct_new_measured=new,
    )
    memo_insert(_WINDOW_MEMO, key, (trace, windows), _WINDOW_MEMO_LIMIT)
    return windows


# ---------------------------------------------------------------------------
# Plans and provenance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticPlan:
    """How the analytic backend will drive one run."""

    mode: str  # "exact" | "sampled"
    warm_events: int = 0
    sample_events: int = 0
    #: Post-context-switch re-warm segment: the simulator fires one
    #: switch by hand, simulates ``transient_events`` of re-warm, and
    #: scales that segment by ``transient_repeats`` — the exactly-known
    #: number of quantum expiries inside the measured window.
    transient_events: int = 0
    transient_repeats: int = 0


#: Shared instance for the history-free regimes.
EXACT_PLAN = AnalyticPlan(mode="exact")


@dataclass(frozen=True)
class AnalyticInfo:
    """Provenance of an analytic run, attached to its RunResult."""

    mode: str  # "exact" | "sampled"
    #: Events actually driven through the regime.
    events_simulated: int
    #: Events the result accounts for (the full measured window).
    events_accounted: int
    #: ``events_accounted / events_simulated`` (1.0 when exact).
    scale: float
    #: Split-half relative deviation of the sampled mean check cost;
    #: ``None`` for exact runs (there is nothing to estimate).
    error_estimate: Optional[float] = None

    @property
    def derived(self) -> bool:
        """True when the result is extrapolated rather than exact."""
        return self.mode == "sampled"


def plan_sampled_window(
    windows: TraceWindows,
    min_events: int = HW_MIN_EVENTS,
    switch_period_events: Optional[float] = None,
) -> Optional[AnalyticPlan]:
    """Size a sampled-extrapolation plan for a history-dependent regime.

    The warm window is the trace's characteristic time for 90% working-
    set coverage (:func:`che_characteristic_time` over the empirical
    event probabilities), clamped to ``[HW_WARM_MIN, HW_WARM_CAP]`` and
    never longer than the real warm-up; the measured sample covers at
    least the distinct-event population within its own bounds.

    *switch_period_events* is the regime's context-switch period (quantum
    cycles over per-event work) when it has one.  Quantum expiries are
    deterministic in this model — the timer accumulates exactly
    ``work_cycles`` per event — so the number of expiries inside the
    measured window is known up front, and each one is modelled by a
    single simulated re-warm segment scaled by that count:

    >>> w = TraceWindows(total=12000, warmup=4800, warm=(("a", 4800),),
    ...                  measured=(("a", 7200),), distinct=1,
    ...                  distinct_new_measured=0)
    >>> plan = plan_sampled_window(w, switch_period_events=3800.0)
    >>> plan.transient_repeats      # floor(12000/3800) - floor(4800/3800)
    2
    >>> plan_sampled_window(w, switch_period_events=1500.0) is None
    True

    Returns ``None`` when sampling cannot pay for itself, the cold
    fraction makes extrapolation unreliable, or the simulated prefix
    cannot fit inside one quantum.
    """
    total, warmup = windows.total, windows.warmup
    if total < min_events or warmup <= 0:
        return None
    measured_total = total - warmup
    if measured_total <= 0:
        return None
    if windows.distinct_new_measured > HW_MAX_COLD_FRACTION * measured_total:
        return None
    target = max(1, math.ceil(0.9 * windows.distinct))
    if target < windows.distinct:
        coverage_time = che_characteristic_time(
            windows.event_probabilities(), target
        )
    else:
        coverage_time = float(windows.distinct)
    warm = int(min(warmup, HW_WARM_CAP, max(HW_WARM_MIN, math.ceil(coverage_time))))
    sample = int(
        min(measured_total, HW_SAMPLE_CAP, max(HW_SAMPLE_MIN, windows.distinct))
    )
    repeats = 0
    transient = 0
    if switch_period_events is not None and switch_period_events > 0:
        if warm + sample >= HW_PERIOD_HEADROOM * switch_period_events:
            # The quantum timer would fire mid-sample.  Shrink the warm
            # prefix to fit inside one quantum before giving up — a
            # shorter warm-up trades some steady-state fidelity for
            # keeping the workload on the sampled path at all.
            fitted = int(HW_PERIOD_HEADROOM * switch_period_events) - sample - 1
            if fitted < HW_WARM_MIN:
                return None
            warm = min(warm, fitted)
        repeats = int(total // switch_period_events) - int(
            warmup // switch_period_events
        )
        if repeats > 0:
            transient = int(min(warm, HW_TRANSIENT_CAP))
    steady_floor = (
        windows.distinct_new_measured + repeats * transient
        + HW_MIN_STEADY_FRACTION * measured_total
    )
    if steady_floor > measured_total:
        return None
    if warm + sample + transient >= HW_MAX_SIM_FRACTION * total:
        return None
    return AnalyticPlan(
        mode="sampled",
        warm_events=warm,
        sample_events=sample,
        transient_events=transient,
        transient_repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Exact integer scaling
# ---------------------------------------------------------------------------


def scale_counts(counts: Sequence[int], target: int) -> List[int]:
    """Scale non-negative *counts* so they sum exactly to *target*.

    Largest-remainder (Hamilton) rounding: each count gets the floor of
    its proportional share, and the leftover units go to the largest
    fractional remainders in order — deterministic, and the output sums
    to *target* exactly, which is what keeps the flow-count conservation
    audit intact on extrapolated runs.

    >>> scale_counts([2, 1, 1], 8)
    [4, 2, 2]
    >>> scale_counts([1, 1, 1], 10)
    [4, 3, 3]
    >>> sum(scale_counts([7, 3, 2, 1], 1000))
    1000
    >>> scale_counts([], 0)
    []
    """
    if target < 0:
        raise ValueError("target must be non-negative")
    source = sum(counts)
    if not counts or source == 0:
        if target:
            raise ValueError("cannot scale empty counts to a non-zero target")
        return [0 for _ in counts]
    floors: List[int] = []
    remainders: List[Tuple[float, int]] = []
    for index, count in enumerate(counts):
        if count < 0:
            raise ValueError("counts must be non-negative")
        share = count * target / source
        floor = int(share)
        floors.append(floor)
        remainders.append((share - floor, index))
    leftover = target - sum(floors)
    # Largest remainder first; ties broken by first-seen position.
    remainders.sort(key=lambda pair: (-pair[0], pair[1]))
    for _, index in remainders[:leftover]:
        floors[index] += 1
    return floors


# ---------------------------------------------------------------------------
# Structure-counter extrapolation (sampled runs)
# ---------------------------------------------------------------------------

#: Derived hit-rate keys recomputed from their extrapolated counters.
_RATE_RULES = {
    "hit_rate": ("hits", "misses"),
    "access_hit_rate": ("access_hits", "access_misses"),
    "preload_hit_rate": ("preload_hits", "preload_misses"),
}


def extrapolate_structures(
    warm: Mapping[str, Mapping[str, Any]],
    end: Mapping[str, Mapping[str, Any]],
    sample_events: int,
    extra_events: int,
) -> Dict[str, Dict[str, Any]]:
    """Project sampled structure counters onto the full trace.

    Each numeric counter is modelled as a cold transient (its value at
    the warm boundary) plus a steady per-event rate measured over the
    sample: ``full = warm + (end - warm) / sample * (sample + extra)``.
    Derived ``*hit_rate`` keys are recomputed from the projected
    counters.
    """
    projected: Dict[str, Dict[str, Any]] = {}
    for name, counters in end.items():
        if not isinstance(counters, Mapping):
            continue
        base = warm.get(name, {})
        block: Dict[str, Any] = {}
        for key, value in counters.items():
            if key in _RATE_RULES:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            start = base.get(key, 0)
            if not isinstance(start, (int, float)) or isinstance(start, bool):
                start = 0
            steady = value - start
            full = start + steady + (
                steady * extra_events / sample_events if sample_events else 0
            )
            block[key] = int(round(full)) if isinstance(value, int) else full
        for rate, (hit_key, miss_key) in _RATE_RULES.items():
            if rate in counters and hit_key in block and miss_key in block:
                denom = block[hit_key] + block[miss_key]
                block[rate] = round(block[hit_key] / denom, 6) if denom else 0.0
        projected[name] = block
    return projected


# ---------------------------------------------------------------------------
# Che characteristic time (the module docstring states the formula)
# ---------------------------------------------------------------------------


def che_characteristic_time(probs: Sequence[float], capacity: float) -> float:
    """Solve ``sum_i (1 - exp(-p_i * T)) = capacity`` for ``T``.

    Preconditions: every ``p_i > 0`` and ``0 < capacity < len(probs)``
    (a structure that fits the whole population has no finite
    characteristic time — callers handle that case as hit rate 1).

    >>> round(che_characteristic_time([0.5, 0.5], 1.0), 3)
    1.386
    >>> che_characteristic_time([0.25] * 4, 5)
    Traceback (most recent call last):
        ...
    ValueError: capacity must be within (0, len(probs))
    """
    if not probs or any(p <= 0 for p in probs):
        raise ValueError("probabilities must be positive")
    if not 0 < capacity < len(probs):
        raise ValueError("capacity must be within (0, len(probs))")

    def occupancy(t: float) -> float:
        return sum(1.0 - math.exp(-p * t) for p in probs)

    lo, hi = 0.0, 1.0
    while occupancy(hi) < capacity:
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - numerically unreachable
            return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if occupancy(mid) < capacity:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
