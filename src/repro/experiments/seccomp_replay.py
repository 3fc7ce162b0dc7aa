"""Shared Seccomp filter sweeps: run each distinct event once, replay everywhere.

A Seccomp filter decision is a pure function of the masked argument
bytes, so evaluating one workload under ``docker-default``,
``syscall-noargs``, ``syscall-complete``, and ``syscall-complete-2x``
repeats almost all of its work: fig2 alone used to perform 75
independent exact evaluations (60 regime runs + 15 calibration probes),
each Θ(distinct events) filter executions.

This module materialises the expensive part once per (trace, profile,
compiler) as a :class:`FilterSweep` — for every distinct memo key in
the trace's warm/measured histograms, the filter's return value and
single-attachment instruction count — and *replays* it for any variant
(attachment count, JIT/interpreter, cost model, work cycles).  The
replay reproduces, value for value, the outcome groups the analytic
exact window (:func:`repro.kernel.simulator._run_exact_window`) would
have produced for a :class:`repro.kernel.regimes.SeccompRegime`, so the
frozen :class:`RunResult` is byte-identical — proven by the
differential tests in ``tests/test_context_cache.py``.

Sweeps live in one bounded in-process memo keyed by (trace, profile,
compiler) identity: ``syscall-complete``, ``syscall-complete-2x``, the
calibration probe and fig16's old-kernel bars all share the single
``complete`` sweep per (trace, profile).  Nothing goes to disk: the
memo serves every reuse within a process, and the 45 sweeps of a
default suite take about 0.13 s to build.

Replays are only served when the analytic backend (``REPRO_ANALYTIC``)
is enabled; the cache switches do not gate them, because sweeps never
touch the cache.  With the backend off, every run goes through the
exact kernels, as ``docs/PERFORMANCE.md`` promises, which is what the
differential tests compare replays against.  Callers gate; this module
assumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common import analytic as analytic_backend
from repro.common import ledger
from repro.common.errors import SimulationError
from repro.common.memo import memo_insert
from repro.core.software import CheckOutcome
from repro.cpu.params import SoftwareCostParams
from repro.kernel.regimes import _attach
from repro.kernel.simulator import (
    DEFAULT_WARMUP_FRACTION,
    RunResult,
    build_exact_replay_result,
)
from repro.seccomp.actions import is_allow
from repro.seccomp.profile import SeccompProfile
from repro.syscalls.events import SyscallTrace
from repro.workloads.model import WorkloadSpec


@dataclass(frozen=True)
class FilterSweep:
    """One filter pass over a trace's distinct events, variant-free.

    ``returns``/``insns`` hold, per distinct memo key (in first-seen
    order over the warm then measured histograms), the filter's return
    value and its *single-attachment* instruction count.
    ``warm_keys``/``measured_keys`` align positionally with the
    ``TraceWindows`` histogram entries the sweep was built from.
    """

    warm_keys: Tuple[int, ...]
    measured_keys: Tuple[int, ...]
    returns: Tuple[int, ...]
    insns: Tuple[int, ...]


#: In-process sweep memo, keyed by (trace, profile, compiler) identity
#: with strong references pinning the ids (oldest-first eviction).
_SWEEP_MEMO: Dict[tuple, tuple] = {}
_SWEEP_MEMO_LIMIT = 64

#: Test-visible counters: how many sweeps were built by running the
#: real filter, and how many replays were served.
sweeps_built = 0
replays_served = 0


def reset_memos() -> None:
    """Drop the in-process sweep memo and zero the counters (tests)."""
    global sweeps_built, replays_served
    _SWEEP_MEMO.clear()
    sweeps_built = 0
    replays_served = 0


def _build_sweep(
    windows: "analytic_backend.TraceWindows",
    profile: SeccompProfile,
    compiler: str,
) -> Optional[FilterSweep]:
    """Run the real filter once per distinct event; ``None`` when any
    event has no memo key (memoization off — nothing to share)."""
    module = _attach(profile, 1, compiler)
    index_of: Dict[Any, int] = {}
    returns: List[int] = []
    insns: List[int] = []

    def key_index(event) -> Optional[int]:
        key = module.memo_key(event)
        if key is None:
            return None
        index = index_of.get(key)
        if index is None:
            decision = module.check(event)
            index = len(returns)
            index_of[key] = index
            returns.append(decision.return_value)
            insns.append(decision.instructions_executed)
        return index

    warm_keys: List[int] = []
    for event, _count in windows.warm:
        index = key_index(event)
        if index is None:
            return None
        warm_keys.append(index)
    measured_keys: List[int] = []
    for event, _count in windows.measured:
        index = key_index(event)
        if index is None:
            return None
        measured_keys.append(index)
    return FilterSweep(
        warm_keys=tuple(warm_keys),
        measured_keys=tuple(measured_keys),
        returns=tuple(returns),
        insns=tuple(insns),
    )


def sweep_for(
    trace: SyscallTrace,
    windows: "analytic_backend.TraceWindows",
    profile: SeccompProfile,
    compiler: str,
) -> Optional[FilterSweep]:
    """The memoised filter sweep for (trace, profile, compiler)."""
    global sweeps_built
    memo_key = (id(trace), id(profile), compiler)
    hit = _SWEEP_MEMO.get(memo_key)
    if hit is not None and hit[0] is trace and hit[1] is profile:
        return hit[2]
    sweep = _build_sweep(windows, profile, compiler)
    if sweep is None:
        return None
    sweeps_built += 1
    memo_insert(_SWEEP_MEMO, memo_key, (trace, profile, sweep), _SWEEP_MEMO_LIMIT)
    return sweep


def replay_result(
    sweep: FilterSweep,
    windows: "analytic_backend.TraceWindows",
    profile: SeccompProfile,
    *,
    times: int,
    use_jit: bool,
    costs: SoftwareCostParams,
    work_cycles: float,
    base_cycles: float,
    workload_name: str,
) -> RunResult:
    """Replay a sweep under one variant's cost model.

    Reproduces the analytic exact window for a ``SeccompRegime``
    arithmetic step by arithmetic step: per distinct key, cycles are
    ``(slow_path + fixed) + (insns × times) × per_insn`` — the same
    association order as :meth:`SeccompRegime.check` — and the outcome
    groups accumulate in measured-histogram order with first-occurrence
    strict-deny checks, so the frozen result is byte-identical.
    """
    global replays_served
    regime_name = f"seccomp:{profile.name}" + ("" if times == 1 else f"x{times}")
    per_insn = (
        costs.cycles_per_bpf_insn_jit
        if use_jit
        else costs.cycles_per_bpf_insn_interpreted
    )
    fixed = costs.seccomp_slow_path_cycles + costs.seccomp_fixed_cycles
    outcomes: List[Optional[CheckOutcome]] = [None] * len(sweep.returns)

    def outcome_for(index: int) -> CheckOutcome:
        outcome = outcomes[index]
        if outcome is None:
            return_value = sweep.returns[index]
            allowed = is_allow(return_value)
            outcome = CheckOutcome(
                allowed=allowed,
                cycles=fixed + (sweep.insns[index] * times) * per_insn,
                path="filter_run" if allowed else "denied",
                action=return_value,
                flow=(
                    ledger.FLOW_SECCOMP_FILTER
                    if allowed
                    else ledger.FLOW_SECCOMP_DENIED
                ),
            )
            outcomes[index] = outcome
        return outcome

    def deny(event) -> None:
        raise SimulationError(
            f"{regime_name} denied {event.sid} {event.args} — the profile "
            "does not cover the workload (coverage bug)"
        )

    for (event, _count), index in zip(windows.warm, sweep.warm_keys):
        if not outcome_for(index).allowed:
            deny(event)

    groups: Dict[CheckOutcome, int] = {}
    groups_get = groups.get
    measured = 0
    for (event, count), index in zip(windows.measured, sweep.measured_keys):
        outcome = outcome_for(index)
        grouped = groups_get(outcome)
        if grouped is None:
            if not outcome.allowed:
                deny(event)
            groups[outcome] = count
        else:
            groups[outcome] = grouped + count
        measured += count

    replays_served += 1
    return build_exact_replay_result(
        regime_name=regime_name,
        workload_name=workload_name,
        work_cycles_per_syscall=work_cycles,
        syscall_base_cycles=base_cycles,
        groups=groups,
        measured=measured,
        warmup_events=windows.warmup,
        runs_coalesced=len(windows.measured),
        # What the live module would have counted: one filter execution
        # per distinct key (the outcome memo absorbs every repeat), each
        # running all `times` attachments.
        structures={
            "seccomp": {
                "checks": len(sweep.returns),
                "memo_hits": 0,
                "instructions_executed": times * sum(sweep.insns),
            }
        },
    )


def replay_evaluation(
    spec: WorkloadSpec,
    trace: SyscallTrace,
    profile: SeccompProfile,
    compiler: str,
    *,
    times: int,
    costs: SoftwareCostParams,
    work_cycles: float,
    base_cycles: float,
    use_jit: bool = True,
) -> Optional[RunResult]:
    """Sweep (memoised) then replay, or ``None`` to fall back to a real
    :func:`repro.kernel.simulator.run_trace` evaluation."""
    windows = analytic_backend.trace_windows(
        trace, int(len(trace) * DEFAULT_WARMUP_FRACTION)
    )
    if windows is None:
        return None
    sweep = sweep_for(trace, windows, profile, compiler)
    if sweep is None:
        return None
    return replay_result(
        sweep,
        windows,
        profile,
        times=times,
        use_jit=use_jit,
        costs=costs,
        work_cycles=work_cycles,
        base_cycles=base_cycles,
        workload_name=spec.name,
    )
