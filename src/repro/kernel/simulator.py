"""Syscall-level execution simulator.

Drives a workload trace through a checking regime and produces the
paper's headline metric: execution time normalised to the insecure
baseline.  The model is::

    time_insecure  = N * (W + S)
    time_regime    = N * (W + S) + sum(check_cycles)
    normalised     = time_regime / time_insecure

where ``W`` is the workload's application work per syscall (calibrated
once against the paper's Figure 2 Seccomp bars — see
``repro.experiments.runner``) and ``S`` the base syscall cost.

A warm-up fraction is excluded from the measured statistics, mirroring
the paper's methodology of warming architectural state before measuring
(Section X-C).

Three execution tiers drive the trace (see ``docs/PERFORMANCE.md``):

* **per-event** (``REPRO_BULK=0``) — the literal ``[check; advance]``
  loop;
* **RLE bulk** (``REPRO_BULK=1``, default) — run-length-encoded
  consumption with regime steady-state shortcuts, byte-identical to
  per-event;
* **analytic** (``REPRO_ANALYTIC=1``, default) — whole-window replay
  over the trace's distinct-event histogram (``repro.common.analytic``).
  For order-independent regimes the replay is value-identical to the
  other tiers; for hardware Draco on long traces a shortened warm-up
  plus a measured sample is extrapolated, flagged ``derived`` and
  carrying an explicit error estimate.

Regimes opt into the analytic tier via
:meth:`repro.kernel.regimes.CheckingRegime.analytic_plan`; anything
without a plan falls back to the exact kernels, so transients, warm-up
windows and scheduler quantum boundaries are always simulated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.common import analytic as analytic_backend
from repro.common import ledger, telemetry
from repro.common.analytic import AnalyticInfo, AnalyticPlan, TraceWindows
from repro.common.errors import SimulationError
from repro.core.software import CheckOutcome
from repro.kernel.regimes import CheckingRegime
from repro.syscalls.events import SyscallEvent, SyscallTrace, iter_runs

#: Version of the simulation kernel's numerical contract.  Bumped when
#: the arithmetic that produces :class:`RunResult` changes (event-order
#: summation vs. outcome-grouped summation, etc.), so on-disk result
#: caches keyed on it are invalidated rather than silently mixing
#: incompatible floats.  Version 2: run-length-encoded consumption with
#: outcome-value grouping (identical under ``REPRO_BULK=0`` and ``=1``).
SIM_KERNEL_VERSION = 2

#: Fraction of a trace excluded as warm-up by default.  Exposed so
#: out-of-band replayers (the persistent filter-sweep cache) can window
#: a trace exactly as :func:`run_trace` would.
DEFAULT_WARMUP_FRACTION = 0.4


@dataclass(frozen=True)
class RunResult:
    """Measured outcome of one (workload, regime) simulation."""

    workload: str
    regime: str
    events_measured: int
    work_cycles_per_syscall: float
    syscall_base_cycles: float
    mean_check_cycles: float
    normalized_time: float
    path_counts: Dict[str, int]
    #: Per-flow ledger over the measured window.  ``total_check_cycles``
    #: is *derived* from ``flow_cycles`` (summed in sorted-key order),
    #: so ``sum(flow_cycles.values()) == total_check_cycles`` holds
    #: exactly — the conservation invariant the ledger audits.
    flow_counts: Dict[str, int] = field(default_factory=dict)
    flow_cycles: Dict[str, float] = field(default_factory=dict)
    total_check_cycles: float = 0.0
    warmup_events: int = 0
    #: Per-structure counters (numeric scalars) of the regime at the end
    #: of the run, from every tier.  Extrapolated — and flagged via
    #: :attr:`analytic` — on sampled runs; ``None`` only for regimes
    #: that have no structures, such as insecure.
    structures: Optional[Dict[str, Dict[str, float]]] = None
    #: Provenance of the analytic backend, or ``None`` when the exact
    #: kernels ran.
    analytic: Optional[AnalyticInfo] = None

    @property
    def overhead_percent(self) -> float:
        return (self.normalized_time - 1.0) * 100.0

    @property
    def derived(self) -> bool:
        """True when the result was extrapolated from a sample rather
        than measured exactly (see :class:`AnalyticInfo`)."""
        return self.analytic is not None and self.analytic.derived

    def flow_ledger(self) -> ledger.FlowLedger:
        return ledger.FlowLedger(self.flow_counts, self.flow_cycles)

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-ready payload that round-trips **exactly**.

        Every field is an int, str, float, or a flat dict of them, and
        JSON encodes Python floats with shortest-round-trip repr, so
        ``from_json_dict(json.loads(json.dumps(to_json_dict())))``
        reconstructs an equal :class:`RunResult` bit for bit — the
        property the per-stage result cache
        (:mod:`repro.experiments.stages`) relies on.
        """
        payload: Dict[str, Any] = {
            "workload": self.workload,
            "regime": self.regime,
            "events_measured": self.events_measured,
            "work_cycles_per_syscall": self.work_cycles_per_syscall,
            "syscall_base_cycles": self.syscall_base_cycles,
            "mean_check_cycles": self.mean_check_cycles,
            "normalized_time": self.normalized_time,
            "path_counts": dict(self.path_counts),
            "flow_counts": dict(self.flow_counts),
            "flow_cycles": dict(self.flow_cycles),
            "total_check_cycles": self.total_check_cycles,
            "warmup_events": self.warmup_events,
            "structures": self.structures,
            "analytic": (
                None
                if self.analytic is None
                else {
                    "mode": self.analytic.mode,
                    "events_simulated": self.analytic.events_simulated,
                    "events_accounted": self.analytic.events_accounted,
                    "scale": self.analytic.scale,
                    "error_estimate": self.analytic.error_estimate,
                }
            ),
        }
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "RunResult":
        analytic = payload.get("analytic")
        structures = payload.get("structures")
        return cls(
            workload=payload["workload"],
            regime=payload["regime"],
            events_measured=payload["events_measured"],
            work_cycles_per_syscall=payload["work_cycles_per_syscall"],
            syscall_base_cycles=payload["syscall_base_cycles"],
            mean_check_cycles=payload["mean_check_cycles"],
            normalized_time=payload["normalized_time"],
            path_counts=dict(payload["path_counts"]),
            flow_counts=dict(payload.get("flow_counts", {})),
            flow_cycles=dict(payload.get("flow_cycles", {})),
            total_check_cycles=payload.get("total_check_cycles", 0.0),
            warmup_events=payload.get("warmup_events", 0),
            structures=(
                {name: dict(counters) for name, counters in structures.items()}
                if structures is not None
                else None
            ),
            analytic=(
                None
                if analytic is None
                else AnalyticInfo(
                    mode=analytic["mode"],
                    events_simulated=analytic["events_simulated"],
                    events_accounted=analytic["events_accounted"],
                    scale=analytic["scale"],
                    error_estimate=analytic.get("error_estimate"),
                )
            ),
        )


def _deny(regime: CheckingRegime, event: SyscallEvent) -> None:
    raise SimulationError(
        f"{regime.name} denied {event.sid} {event.args} — the profile "
        "does not cover the workload (coverage bug)"
    )


def _expand_groups(
    groups: Dict[CheckOutcome, int],
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, float]]:
    """Expand outcome-value groups into path and flow tallies.

    Within each flow bucket the accumulation order is the groups'
    insertion (first-seen) order, which every tier produces identically
    per flow — that is what keeps the per-flow float sums byte-identical
    across backends (dict *key* order may differ; comparisons must be
    order-insensitive, as dict equality and sorted-key JSON both are).
    """
    paths: Dict[str, int] = {}
    flow_counts: Dict[str, int] = {}
    flow_cycles: Dict[str, float] = {}
    for outcome, grouped in groups.items():
        path = outcome.path
        paths[path] = paths.get(path, 0) + grouped
        flow = outcome.flow or path
        flow_counts[flow] = flow_counts.get(flow, 0) + grouped
        flow_cycles[flow] = flow_cycles.get(flow, 0.0) + outcome.cycles * grouped
    return paths, flow_counts, flow_cycles


def _build_result(
    *,
    regime: CheckingRegime,
    workload_name: str,
    work_cycles_per_syscall: float,
    syscall_base_cycles: float,
    groups: Dict[CheckOutcome, int],
    measured: int,
    warmed: int,
    runs_coalesced: int,
    regime_before: Optional[ledger.FlowLedger],
    structures: Optional[Dict[str, Dict[str, float]]],
    analytic_info: Optional[AnalyticInfo],
) -> RunResult:
    """Common tail of every tier: expand groups, derive the totals,
    audit conservation, record telemetry, freeze the result."""
    paths, flow_counts, flow_cycles = _expand_groups(groups)
    run_ledger = ledger.FlowLedger(flow_counts, flow_cycles)
    # The total is *derived* from the per-flow buckets (sorted-key sum),
    # so conservation holds exactly by construction; the audits below
    # then cross-check the counts against the events measured and the
    # whole ledger against the regime's own independent accounting.
    total_check = run_ledger.total_cycles()
    mean_check = total_check / measured
    baseline = work_cycles_per_syscall + syscall_base_cycles
    normalized = (baseline + mean_check) / baseline

    scope = f"{workload_name or '?'}/{regime.name}"
    run_ledger.audit_totals(measured, total_check, scope=scope)
    # Sampled runs scale their buckets to the full window, so the
    # regime's own ledger (which only saw the sample) is no longer
    # the conservation reference: they pass no ``regime_before``, the
    # cross-audit is skipped, and the result is flagged ``derived``
    # instead.  Sweep replays pass none either: no regime ran.
    if regime_before is not None:
        regime_after = regime.ledger_snapshot()
        if regime_after is not None:
            run_ledger.audit_against(regime_before, regime_after, scope=scope)

    derived = analytic_info is not None and analytic_info.derived
    telemetry.record_simulation(
        regime=regime.name,
        events=measured,
        check_cycles=total_check,
        total_cycles=measured * baseline + total_check,
        warmup_events=warmed,
        flow_counts=flow_counts,
        flow_cycles=flow_cycles,
        structures=structures,
        runs_coalesced=runs_coalesced,
        derived=derived,
        events_extrapolated=(
            measured - analytic_info.events_simulated if derived else 0
        ),
        error_estimate=(
            analytic_info.error_estimate or 0.0 if derived else 0.0
        ),
    )
    return RunResult(
        workload=workload_name,
        regime=regime.name,
        events_measured=measured,
        work_cycles_per_syscall=work_cycles_per_syscall,
        syscall_base_cycles=syscall_base_cycles,
        mean_check_cycles=mean_check,
        normalized_time=normalized,
        path_counts=paths,
        flow_counts=flow_counts,
        flow_cycles=flow_cycles,
        total_check_cycles=total_check,
        warmup_events=warmed,
        structures=structures,
        analytic=analytic_info,
    )


def _run_exact_window(
    windows: TraceWindows,
    regime: CheckingRegime,
    work_cycles_per_syscall: float,
    syscall_base_cycles: float,
    workload_name: str,
    strict: bool,
) -> RunResult:
    """Analytic exact tier: replay the distinct-event histograms.

    Sound only for regimes whose plan is :data:`~repro.common.analytic.
    EXACT_PLAN` — order-independent checks and a no-op ``advance()`` —
    where per-value first-occurrence order (which the histograms
    preserve) fully determines every outcome.  The produced result is
    value-identical to the per-event and bulk tiers.
    """
    check_run = regime.check_run
    for event, count in windows.warm:
        for outcome, _ in check_run(event, count, work_cycles_per_syscall):
            if strict and not outcome.allowed:
                _deny(regime, event)

    regime_before = regime.ledger_snapshot()

    groups: Dict[CheckOutcome, int] = {}
    groups_get = groups.get
    measured = 0
    for event, count in windows.measured:
        for outcome, seg in check_run(event, count, work_cycles_per_syscall):
            grouped = groups_get(outcome)
            if grouped is None:
                if strict and not outcome.allowed:
                    _deny(regime, event)
                groups[outcome] = seg
            else:
                groups[outcome] = grouped + seg
        measured += count

    regime.analytic_verify()
    return _build_result(
        regime=regime,
        workload_name=workload_name,
        work_cycles_per_syscall=work_cycles_per_syscall,
        syscall_base_cycles=syscall_base_cycles,
        groups=groups,
        measured=measured,
        warmed=windows.warmup,
        runs_coalesced=len(windows.measured),
        regime_before=regime_before,
        structures=regime.structure_stats(),
        analytic_info=AnalyticInfo(
            mode="exact",
            events_simulated=measured,
            events_accounted=measured,
            scale=1.0,
        ),
    )


class _ReplayRegime:
    """Stand-in regime for out-of-band exact replays: carries only the
    name (for telemetry and result labelling) and keeps no ledger."""

    def __init__(self, name: str) -> None:
        self.name = name


def build_exact_replay_result(
    *,
    regime_name: str,
    workload_name: str,
    work_cycles_per_syscall: float,
    syscall_base_cycles: float,
    groups: Dict[CheckOutcome, int],
    measured: int,
    warmup_events: int,
    runs_coalesced: int,
    structures: Dict[str, Dict[str, float]],
) -> RunResult:
    """Freeze an exact-replay :class:`RunResult` from outcome groups.

    The seam the persistent filter-sweep cache uses
    (:mod:`repro.experiments.seccomp_replay`): the caller reproduces the
    outcome-value groups an exact analytic window would have produced —
    byte-identity is the caller's contract, proven by differential
    tests — and this function runs the common result tail
    (:func:`_build_result`): flow expansion, conservation audit,
    telemetry, result freezing.  The cross-audit against a live regime
    ledger is skipped (there is no live regime), as for sampled
    windows.
    """
    return _build_result(
        regime=_ReplayRegime(regime_name),
        workload_name=workload_name,
        work_cycles_per_syscall=work_cycles_per_syscall,
        syscall_base_cycles=syscall_base_cycles,
        groups=groups,
        measured=measured,
        warmed=warmup_events,
        runs_coalesced=runs_coalesced,
        regime_before=None,
        structures=structures,
        analytic_info=AnalyticInfo(
            mode="exact",
            events_simulated=measured,
            events_accounted=measured,
            scale=1.0,
        ),
    )


def _run_sampled_window(
    trace,
    windows: TraceWindows,
    plan: AnalyticPlan,
    regime: CheckingRegime,
    work_cycles_per_syscall: float,
    syscall_base_cycles: float,
    workload_name: str,
    strict: bool,
) -> RunResult:
    """Analytic sampled tier for history-dependent regimes.

    Simulates the trace prefix exactly — ``plan.warm_events`` of warm-up
    plus ``plan.sample_events`` of measurement — then models the full
    measured window as ``C`` cold first-occurrence checks (``C`` is
    known exactly from the histogram) plus ``T - C`` steady-mix checks
    scaled from the sample by largest-remainder rounding, so the flow
    counts sum to the window exactly and ``audit_totals`` still holds.

    When the plan carries a transient segment (``transient_repeats > 0``)
    the quantum timer expires inside the measured window: the simulator
    fires one context switch by hand, simulates ``transient_events`` of
    re-warm, and scales that segment by the (exactly-known) expiry
    count, carving it out of the steady-mix target.

    Structure counters are projected onto the full window; the result is
    flagged ``derived`` with a split-half error estimate.
    """
    check_run = regime.check_run
    work = work_cycles_per_syscall
    seen = set()
    warmed = 0
    pending: Optional[Tuple[SyscallEvent, int]] = None
    runs = trace.iter_runs()
    for event, count in runs:
        seen.add(event)
        remaining = plan.warm_events - warmed
        take = count if count <= remaining else remaining
        for outcome, _ in check_run(event, take, work):
            if strict and not outcome.allowed:
                _deny(regime, event)
        warmed += take
        if take < count:
            pending = (event, count - take)
        if warmed >= plan.warm_events:
            break
    if warmed < plan.warm_events:
        raise SimulationError(
            f"trace ended after {warmed} events, inside the sampled "
            f"warm-up window of {plan.warm_events}"
        )
    warm_stats = regime.structure_stats() or {}

    #: Cold (first-occurrence) outcomes vs. steady-mix outcomes are
    #: scaled to different targets, so they accumulate separately.
    cold_groups: Dict[CheckOutcome, int] = {}
    steady_groups: Dict[CheckOutcome, int] = {}
    cycles_half = [0.0, 0.0]
    events_half = [0, 0]
    half = plan.sample_events // 2
    sampled = 0
    cold_sampled = 0
    runs_coalesced = 0
    stream = chain((pending,), runs) if pending is not None else runs
    for event, count in stream:
        take = count if count <= plan.sample_events - sampled else (
            plan.sample_events - sampled
        )
        if event not in seen:
            # The first-ever check of this value is a cold transient;
            # keep it out of the steady mix so scaling cannot multiply
            # one-off costs.
            seen.add(event)
            runs_coalesced += 1
            for outcome, seg in check_run(event, 1, work):
                if strict and not outcome.allowed:
                    _deny(regime, event)
                cold_groups[outcome] = cold_groups.get(outcome, 0) + seg
            sampled += 1
            cold_sampled += 1
            take -= 1
        while take > 0:
            # Split steady runs at the half-sample boundary so a single
            # long run cannot leave one half empty and zero the
            # split-half drift estimate.
            bucket = 0 if sampled < half else 1
            boundary = half - sampled if bucket == 0 else take
            part = take if take <= boundary else boundary
            runs_coalesced += 1
            for outcome, seg in check_run(event, part, work):
                if strict and not outcome.allowed:
                    _deny(regime, event)
                steady_groups[outcome] = steady_groups.get(outcome, 0) + seg
                cycles_half[bucket] += outcome.cycles * seg
            events_half[bucket] += part
            sampled += part
            take -= part
        if sampled >= plan.sample_events:
            break
    if sampled < plan.sample_events:
        raise SimulationError(
            f"trace ended after {sampled} sampled events of "
            f"{plan.sample_events} planned"
        )
    end_stats = regime.structure_stats() or {}

    # Transient segment: the quantum timer expires plan.transient_repeats
    # times inside the measured window (deterministic — the timer adds
    # exactly work_cycles per event).  Fire one switch by hand and
    # simulate a single re-warm; it is scaled by the expiry count below.
    transient_groups: Dict[CheckOutcome, int] = {}
    transient_sim = 0
    if plan.transient_repeats and plan.transient_events:
        regime.analytic_context_switch()
        for event, count in stream:
            remaining = plan.transient_events - transient_sim
            take = count if count <= remaining else remaining
            seen.add(event)
            runs_coalesced += 1
            for outcome, seg in check_run(event, take, work):
                if strict and not outcome.allowed:
                    _deny(regime, event)
                transient_groups[outcome] = transient_groups.get(outcome, 0) + seg
            transient_sim += take
            if transient_sim >= plan.transient_events:
                break

    total_measured = windows.total - windows.warmup
    cold_full = windows.distinct_new_measured
    accounted_cold = cold_full if (cold_groups and cold_full > 0) else 0
    transient_target = (
        plan.transient_repeats * transient_sim if transient_groups else 0
    )
    steady_target = total_measured - accounted_cold - transient_target
    cold_scaled = (
        analytic_backend.scale_counts(list(cold_groups.values()), accounted_cold)
        if cold_groups
        else []
    )
    steady_scaled = analytic_backend.scale_counts(
        list(steady_groups.values()), steady_target
    )
    transient_scaled = (
        analytic_backend.scale_counts(
            list(transient_groups.values()), transient_target
        )
        if transient_groups
        else []
    )
    groups: Dict[CheckOutcome, int] = {}
    for bucket, scaled_counts in (
        (steady_groups, steady_scaled),
        (cold_groups, cold_scaled),
        (transient_groups, transient_scaled),
    ):
        for outcome, scaled in zip(bucket, scaled_counts):
            if scaled:
                groups[outcome] = groups.get(outcome, 0) + scaled

    # Split-half drift, expressed on the *run-time* scale: the absolute
    # per-event check-cost difference between the two sample halves,
    # multiplied by the events it is extrapolated over, relative to the
    # run's total cycle cost.  This is directly comparable to an error
    # on normalised execution time, which is what the figures report.
    total_cost = sum(o.cycles * c for o, c in groups.items()) + (
        syscall_base_cycles + work
    ) * total_measured
    steady_events = events_half[0] + events_half[1]
    if events_half[0] and events_half[1] and total_cost > 0:
        drift = abs(
            cycles_half[0] / events_half[0] - cycles_half[1] / events_half[1]
        )
        # Assume the per-half drift continues linearly across the
        # extrapolated span (steady_target / steady_events half-sample
        # lengths), then floor at the catalog-validated bound — the
        # sample cannot observe transients slower than itself.
        error = (
            drift * steady_target * steady_target
            / (steady_events * total_cost)
        )
    else:
        error = 0.0
    error = max(error, analytic_backend.HW_ERROR_FLOOR)

    structures = analytic_backend.extrapolate_structures(
        warm_stats, end_stats, sampled, total_measured - sampled
    )
    simulated = sampled + transient_sim
    info = AnalyticInfo(
        mode="sampled",
        events_simulated=simulated,
        events_accounted=total_measured,
        scale=total_measured / simulated,
        error_estimate=error,
    )
    return _build_result(
        regime=regime,
        workload_name=workload_name,
        work_cycles_per_syscall=work_cycles_per_syscall,
        syscall_base_cycles=syscall_base_cycles,
        groups=groups,
        measured=total_measured,
        warmed=windows.warmup,
        runs_coalesced=runs_coalesced,
        regime_before=None,
        structures=structures,
        analytic_info=info,
    )


def run_trace(
    trace: Union[SyscallTrace, Iterable[SyscallEvent]],
    regime: CheckingRegime,
    work_cycles_per_syscall: float,
    syscall_base_cycles: float,
    workload_name: str = "",
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    strict: bool = True,
    events_total: Optional[int] = None,
    analytic: Optional[bool] = None,
) -> RunResult:
    """Execute *trace* under *regime* and compute normalised time.

    *trace* may be any iterable of events — a materialized
    :class:`SyscallTrace`, a pre-coalesced
    :class:`repro.syscalls.events.RunTrace`, or a streaming generator
    such as :meth:`repro.workloads.generator.TraceGenerator.iter_events`.
    For iterables without a length, pass ``events_total`` so the warm-up
    window can be sized up front.

    The trace is consumed as run-length-encoded ``(event, count)``
    pairs and outcomes are accumulated *grouped by value* — one integer
    per distinct :class:`CheckOutcome` — then expanded into the path
    and flow tallies once at the end.  Grouping makes the result
    independent of how regimes segment a run, so the bulk fast path
    (``REPRO_BULK=1``, the default) and the literal per-event path
    (``REPRO_BULK=0``) produce byte-identical :class:`RunResult`\\ s.

    ``analytic`` is the per-run opt-in/out seam for the analytic tier:
    ``None`` follows ``REPRO_ANALYTIC`` (default on), ``False`` forces
    the exact kernels, ``True`` requests the analytic tier (which still
    falls back to the exact kernels when the regime declines a plan).
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise SimulationError("warmup_fraction must be within [0, 1)")
    n = events_total if events_total is not None else len(trace)
    if n <= 0:
        raise SimulationError("empty trace")
    warmup = int(n * warmup_fraction)

    use_analytic = (
        analytic_backend.analytic_enabled() if analytic is None else bool(analytic)
    )
    if use_analytic and events_total is None:
        windows = analytic_backend.trace_windows(trace, warmup)
        if windows is not None:
            plan = regime.analytic_plan(windows, work_cycles_per_syscall)
            if plan is not None:
                if plan.mode == "exact":
                    return _run_exact_window(
                        windows,
                        regime,
                        work_cycles_per_syscall,
                        syscall_base_cycles,
                        workload_name,
                        strict,
                    )
                return _run_sampled_window(
                    trace,
                    windows,
                    plan,
                    regime,
                    work_cycles_per_syscall,
                    syscall_base_cycles,
                    workload_name,
                    strict,
                )

    # The run loop is the simulator's hottest code: bound methods are
    # hoisted and the warm-up window is split out so the measured loop
    # carries no per-run index comparison.
    check = regime.check
    check_run = regime.check_run
    advance = regime.advance

    def _consume(event: SyscallEvent, count: int):
        """``[check; advance] × count`` via the regime, returning
        chronological (outcome, n) segments.  Runs of one — the common
        case — skip the segment machinery."""
        if count == 1:
            outcome = check(event)
            advance(work_cycles_per_syscall)
            return ((outcome, 1),)
        return check_run(event, count, work_cycles_per_syscall)

    runs_method = getattr(trace, "iter_runs", None)
    runs = runs_method() if runs_method is not None else iter_runs(trace)
    warmed = 0
    measured = 0
    runs_coalesced = 0
    #: Distinct outcome value -> events, in first-seen (chronological)
    #: order.  CheckOutcome is frozen, hence hashable.
    groups: Dict[CheckOutcome, int] = {}
    pending: Optional[Tuple[SyscallEvent, int]] = None
    if warmup:
        for event, count in runs:
            remaining = warmup - warmed
            take = count if count <= remaining else remaining
            for outcome, _ in _consume(event, take):
                if strict and not outcome.allowed:
                    _deny(regime, event)
            warmed += take
            if take < count:
                pending = (event, count - take)
            if warmed >= warmup:
                break
        if warmed < warmup:
            raise SimulationError(
                f"events_total={n} but the stream ended after {warmed} events, "
                "inside the warm-up window"
            )

    regime_before = regime.ledger_snapshot()

    measured_runs = chain((pending,), runs) if pending is not None else runs
    groups_get = groups.get
    for event, count in measured_runs:
        runs_coalesced += 1
        # Runs of one — the common case — are inlined past the segment
        # machinery; outcome grouping makes both arms arithmetically
        # identical (one integer bump per distinct outcome value).
        if count == 1:
            outcome = check(event)
            advance(work_cycles_per_syscall)
            grouped = groups_get(outcome)
            if grouped is None:
                # Group creation is the outcome's first occurrence, so
                # a strict denial raises at the same event the
                # per-event loop would have raised at.
                if strict and not outcome.allowed:
                    _deny(regime, event)
                groups[outcome] = 1
            else:
                groups[outcome] = grouped + 1
            measured += 1
            continue
        for outcome, seg in check_run(event, count, work_cycles_per_syscall):
            grouped = groups_get(outcome)
            if grouped is None:
                if strict and not outcome.allowed:
                    _deny(regime, event)
                groups[outcome] = seg
            else:
                groups[outcome] = grouped + seg
        measured += count

    if measured == 0:
        short = (
            f"; the stream ended after {warmed} of events_total={n} events"
            if events_total is not None and warmed < n
            else ""
        )
        raise SimulationError(
            f"warm-up consumed all {warmed} events"
            f" (warmup_fraction={warmup_fraction}){short} — nothing left to "
            "measure; lower warmup_fraction or lengthen the trace"
        )
    if events_total is not None and warmed + measured < n:
        raise SimulationError(
            f"events_total={n} but the stream ended after "
            f"{warmed + measured} events"
        )

    return _build_result(
        regime=regime,
        workload_name=workload_name,
        work_cycles_per_syscall=work_cycles_per_syscall,
        syscall_base_cycles=syscall_base_cycles,
        groups=groups,
        measured=measured,
        warmed=warmed,
        runs_coalesced=runs_coalesced,
        regime_before=regime_before,
        structures=regime.structure_stats(),
        analytic_info=None,
    )


def mean_check_cycles(
    trace: SyscallTrace,
    regime: CheckingRegime,
    warmup_fraction: float = 0.2,
    work_cycles_per_syscall: float = 0.0,
) -> float:
    """Steady-state mean checking cost of *regime* over *trace*."""
    result = run_trace(
        trace,
        regime,
        work_cycles_per_syscall=max(work_cycles_per_syscall, 1.0),
        syscall_base_cycles=1.0,
        warmup_fraction=warmup_fraction,
    )
    return result.mean_check_cycles
