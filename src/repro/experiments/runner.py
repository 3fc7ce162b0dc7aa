"""Experiment runner: workload contexts, calibration, regime evaluation.

The calibration contract (DESIGN.md §4): each workload has exactly one
free performance parameter — its application work per syscall, ``W`` —
which is solved **once** from the paper's Figure 2 ``syscall-complete``
Seccomp bar::

    target = (W + S + C_complete) / (W + S)   =>   W = C_complete / (target - 1) - S

where ``C_complete`` is *measured* by executing the real compiled filter
over the workload's trace, and ``S`` is the base syscall cost.  Every
other number the experiments produce (other Seccomp profiles, software
Draco, hardware Draco) is emergent.

Each artifact is kept in one place per process: :func:`get_context` is
the one in-process context memo, and a context's trace, profile bundle
and W load from (or store to) the persistent context cache
(:mod:`repro.experiments.cache`) only when that memo misses.  W is
solved the first time it is read, so an analysis that reads only a
trace or a bundle never calibrates.  A caller that already holds the
solved W (the stage graph's context stage returns it) passes it to
:func:`get_context`, so a process that never built the context skips
the calibration probe.

:meth:`WorkloadContext.evaluate` memoises each no-override evaluation
per context.  Either regime of a Draco ``complete``/``complete-2x``
pair walks the ``1x`` regime once and memoises both results, the
``-2x`` one priced from that walk
(:func:`repro.kernel.simulator.price_walk`); :func:`walk_serves` names
the regimes one walk produces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.common import telemetry
from repro.common.analytic import analytic_enabled
from repro.common.errors import ConfigError
from repro.common.memo import memo_insert
from repro.common.rng import DEFAULT_SEED
from repro.cpu.params import (
    DEFAULT_SW_COSTS,
    OLD_KERNEL_SW_COSTS,
    SoftwareCostParams,
)
from repro.experiments import cache as result_cache
from repro.kernel.regimes import (
    CheckingRegime,
    DracoHwRegime,
    DracoSwRegime,
    InsecureRegime,
    SeccompRegime,
)
from repro.kernel.simulator import RunResult, price_walk, run_trace
from repro.seccomp.profile import SeccompProfile
from repro.seccomp.profiles import build_docker_default
from repro.seccomp.toolkit import (
    ProfileBundle,
    bundle_from_payload,
    bundle_to_payload,
    generate_bundle,
)
from repro.syscalls import serialize
from repro.syscalls.events import SyscallTrace
from repro.workloads.catalog import (
    CATALOG,
    REGIME_COMPLETE,
    REGIME_COMPLETE_2X,
    REGIME_DOCKER,
    REGIME_INSECURE,
    REGIME_NOARGS,
)
from repro.workloads.generator import generate_trace, profile_trace
from repro.workloads.model import WorkloadSpec

#: Default trace length for experiments; long enough for steady state,
#: short enough to keep the full suite fast.
DEFAULT_EVENTS = 12_000

#: Minimum application work per syscall, so micro benchmarks stay
#: syscall-bound but the model remains well-posed.
MIN_WORK_CYCLES = 20.0


@lru_cache(maxsize=64)
def _docker_profile_for(table):
    """docker-default is a pure function of the syscall table, but
    regimes are instantiated fresh per evaluation; share one profile
    object per table so downstream program-assembly memos hit.
    ``SyscallTable`` hashes by identity."""
    return build_docker_default(table)


def _bundle_for(spec: WorkloadSpec) -> ProfileBundle:
    """Load-or-build the profile bundle from the profiling trace's
    start-up tail and coverage pass alone (``count=0``): a full
    recording's random draws add no rule and change no order (see
    :func:`profile_trace`), so a bundle depends on the spec alone."""
    bundle = None
    digest = None
    if result_cache.cache_enabled():
        digest = result_cache.context_digest("bundle", spec)
        payload = result_cache.ResultCache().load_context("bundle", digest)
        if payload is not None:
            bundle = bundle_from_payload(payload, spec.name)
        telemetry.count("context_cache", "bundle", "hit" if bundle is not None else "miss")
    if bundle is None:
        bundle = generate_bundle(profile_trace(spec, count=0), spec.name)
        if digest is not None and result_cache.ResultCache().store_context(
            "bundle", digest, bundle_to_payload(bundle)
        ):
            telemetry.count("context_cache", "bundle", "store")
    return bundle


#: Seccomp regimes that can be served by replaying a shared filter
#: sweep (repro.experiments.seccomp_replay): regime name -> (profile
#: role, attachment count).  ``syscall-complete`` and its 2x variant
#: share the "complete" sweep — so does the calibration probe.
_SECCOMP_REPLAY_VARIANTS: Dict[str, Tuple[str, int]] = {
    REGIME_DOCKER: ("docker", 1),
    REGIME_NOARGS: ("noargs", 1),
    REGIME_COMPLETE: ("complete", 1),
    REGIME_COMPLETE_2X: ("complete", 2),
}

#: fig2's Seccomp bars grouped by the backing profile: variants within
#: a group differ only in attachment count and therefore share one
#: filter sweep / histogram replay per (workload, profile) pair.
SECCOMP_BAR_GROUPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("docker", (REGIME_DOCKER,)),
    ("noargs", (REGIME_NOARGS,)),
    ("complete", (REGIME_COMPLETE, REGIME_COMPLETE_2X)),
)

#: Draco regimes priced from another regime's walk
#: (:func:`repro.kernel.simulator.price_walk`): regime name -> (walked
#: regime, filter-stack copies).  A ``-2x`` run differs from its ``1x``
#: run only in what its filter runs cost.
_PRICED_VARIANTS: Dict[str, Tuple[str, int]] = {
    "draco-sw-complete-2x": ("draco-sw-complete", 2),
    "draco-hw-complete-2x": ("draco-hw-complete", 2),
}


def walk_serves(regime_name: str) -> Tuple[str, ...]:
    """The regimes whose no-override evaluations one walk produces when
    *regime_name* is evaluated, the walked regime first: a priced
    variant and its walked regime serve each other, any other regime
    only itself."""
    walked = _PRICED_VARIANTS.get(regime_name, (regime_name, 1))[0]
    return (walked,) + tuple(
        name for name, (base, _) in _PRICED_VARIANTS.items() if base == walked
    )


@dataclass
class WorkloadContext:
    """Everything needed to evaluate one workload under any regime.

    W is solved the first time :attr:`work_cycles` is read, so a caller
    that reads only the trace or the bundle never runs the calibration
    probe.
    """

    spec: WorkloadSpec
    trace: SyscallTrace
    bundle: ProfileBundle
    costs: SoftwareCostParams
    compiler: str
    seed: int
    #: ``[W]``, or ``[None]`` until W is solved.  Every cost-model
    #: variant of a context shares this one list (see :func:`get_context`).
    _work_cycles: List[Optional[float]] = field(
        default_factory=lambda: [None], repr=False, compare=False
    )
    #: Per-context memo of no-override evaluations (see :meth:`evaluate`).
    _eval_memo: Dict[tuple, RunResult] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def work_cycles(self) -> float:
        """W, solved against ``DEFAULT_SW_COSTS`` (see :func:`build_context`)."""
        cell = self._work_cycles
        if cell[0] is None:
            cell[0] = calibrate_work_cycles(
                self.spec, self.trace, self.bundle, DEFAULT_SW_COSTS, self.compiler, self.seed
            )
        return cell[0]

    @property
    def syscall_base_cycles(self) -> float:
        return float(self.costs.syscall_base_cycles)

    # -- regime factory ------------------------------------------------

    def make_regime(self, name: str, **overrides) -> CheckingRegime:
        """Instantiate a fresh checking regime by experiment name."""
        costs = overrides.pop("costs", self.costs)
        compiler = overrides.pop("compiler", self.compiler)
        docker = _docker_profile_for(self.spec.table)
        base_kwargs = dict(costs=costs, compiler=compiler, **overrides)
        # Every profile is compiled with the same strategy; the default
        # tree layout reflects docker-default's measured near-noargs
        # dispatch cost (the ablation bench compares the linear layout).
        docker_kwargs = dict(base_kwargs)
        factories = {
            REGIME_INSECURE: lambda: InsecureRegime(),
            REGIME_DOCKER: lambda: SeccompRegime(docker, **docker_kwargs),
            REGIME_NOARGS: lambda: SeccompRegime(self.bundle.noargs, **base_kwargs),
            REGIME_COMPLETE: lambda: SeccompRegime(self.bundle.complete, **base_kwargs),
            REGIME_COMPLETE_2X: lambda: SeccompRegime(
                self.bundle.complete, times=2, **base_kwargs
            ),
            "draco-sw-noargs": lambda: DracoSwRegime(self.bundle.noargs, **base_kwargs),
            "draco-sw-complete": lambda: DracoSwRegime(self.bundle.complete, **base_kwargs),
            "draco-sw-complete-2x": lambda: DracoSwRegime(
                self.bundle.complete, times=2, **base_kwargs
            ),
            "draco-hw-noargs": lambda: DracoHwRegime(self.bundle.noargs, **base_kwargs),
            "draco-hw-complete": lambda: DracoHwRegime(self.bundle.complete, **base_kwargs),
            "draco-hw-complete-2x": lambda: DracoHwRegime(
                self.bundle.complete, times=2, **base_kwargs
            ),
        }
        try:
            factory = factories[name]
        except KeyError:
            raise ConfigError(f"unknown regime {name!r}") from None
        return factory()

    def profile_for_role(self, role: str) -> SeccompProfile:
        """The profile backing one Seccomp sweep role (see
        :data:`_SECCOMP_REPLAY_VARIANTS`)."""
        if role == "docker":
            return _docker_profile_for(self.spec.table)
        if role == "noargs":
            return self.bundle.noargs
        if role == "complete":
            return self.bundle.complete
        raise ConfigError(f"unknown sweep role {role!r}")

    def _replay(self, regime_name: str) -> Optional[RunResult]:
        """Serve a Seccomp evaluation from the shared filter sweep, or
        ``None`` to run the trace for real.

        Sweeps live in :mod:`~repro.experiments.seccomp_replay`'s
        in-process memo, never on disk, so the cache switches do not
        gate them.  ``REPRO_ANALYTIC=0`` does: it means "exact kernels",
        the reference the differential tests hold replayed results to,
        byte for byte.
        """
        variant = _SECCOMP_REPLAY_VARIANTS.get(regime_name)
        if variant is None:
            return None
        if not analytic_enabled():
            return None
        from repro.experiments import seccomp_replay

        role, times = variant
        return seccomp_replay.replay_evaluation(
            self.spec,
            self.trace,
            self.profile_for_role(role),
            self.compiler,
            times=times,
            costs=self.costs,
            work_cycles=self.work_cycles,
            base_cycles=self.syscall_base_cycles,
        )

    def evaluate(self, regime_name: str, **overrides) -> RunResult:
        """Run the workload trace under a fresh instance of a regime.

        Several experiments measure the same (workload, regime) pair —
        fig2 and fig11 both evaluate ``syscall-complete``, for example.
        A no-override evaluation is a pure function of this context and
        of ``REPRO_ANALYTIC`` (every other switch picks between
        byte-identical paths), so its frozen :class:`RunResult` is
        memoised per context on ``(regime, analytic_enabled())``;
        overrides (unhashable cost objects) always run their own regime
        fresh.  Seccomp regimes are additionally served by replaying
        the shared per-(trace, profile) filter sweep when the analytic
        backend is on (see :meth:`_replay`).

        Either regime of a Draco ``complete``/``complete-2x`` pair walks
        the ``1x`` regime once and memoises both results, the ``-2x``
        one priced from the walk (:func:`walk_serves`); a ``-2x``
        evaluation walks no structure of its own.
        """
        if overrides:
            return self._walk(regime_name, overrides)[regime_name]
        analytic = analytic_enabled()
        hit = self._eval_memo.get((regime_name, analytic))
        if hit is not None:
            return hit
        replayed = self._replay(regime_name)
        if replayed is not None:
            results = {regime_name: replayed}
        else:
            results = self._walk(walk_serves(regime_name)[0], {})
        for name, result in results.items():
            self._eval_memo[(name, analytic)] = result
        return results[regime_name]

    def _walk(self, regime_name: str, overrides: Dict[str, object]) -> Dict[str, RunResult]:
        """One walk under *regime_name*: its result and, without
        overrides, the result of every variant priced from it."""
        regime = self.make_regime(regime_name, **overrides)
        results = {
            regime_name: run_trace(
                self.trace,
                regime,
                work_cycles_per_syscall=self.work_cycles,
                syscall_base_cycles=self.syscall_base_cycles,
                workload_name=self.spec.name,
            )
        }
        if not overrides:
            for name, (walked, copies) in _PRICED_VARIANTS.items():
                if walked == regime_name:
                    results[name] = price_walk(regime, copies)
        return results

    def seed_evaluation(self, regime_name: str, result: RunResult) -> None:
        """Inject a precomputed no-override evaluation into the memo.

        The stage-graph orchestrator (:mod:`repro.experiments.stages`)
        computes per-(workload, regime) evaluations as standalone
        stages, then replays each experiment's analysis code unchanged;
        seeding the memo makes ``ctx.evaluate(regime)`` serve the staged
        result, so row assembly is byte-identical to a direct run.
        Keyed like :meth:`evaluate`.
        """
        self._eval_memo[(regime_name, analytic_enabled())] = result


def _trace_for(spec: WorkloadSpec, events: int, seed: int) -> SyscallTrace:
    """Load-or-build the workload trace."""
    trace = None
    digest = None
    if result_cache.cache_enabled():
        digest = result_cache.context_digest(
            "trace",
            spec,
            events=events,
            seed=seed,
            trace_format=serialize.FORMAT_VERSION_COLUMN,
        )
        trace = result_cache.ResultCache().load_trace_context(digest)
        if trace is not None and len(trace) != events:
            trace = None  # digest collision or stale entry: rebuild
        telemetry.count("context_cache", "trace", "hit" if trace is not None else "miss")
    if trace is None:
        trace = generate_trace(spec, events, seed=seed)
        if digest is not None and result_cache.ResultCache().store_trace_context(
            digest, trace
        ):
            telemetry.count("context_cache", "trace", "store")
    return trace


def _complete_target(spec: WorkloadSpec) -> float:
    """The Figure 2 ``syscall-complete`` bar that W is solved from."""
    target = spec.fig2_targets.get(REGIME_COMPLETE)
    if target is None or target <= 1.0:
        raise ConfigError(f"{spec.name}: needs a syscall-complete target > 1.0")
    return target


def calibrate_work_cycles(
    spec: WorkloadSpec,
    trace: SyscallTrace,
    bundle: ProfileBundle,
    costs: SoftwareCostParams,
    compiler: str,
    seed: int = DEFAULT_SEED,
) -> float:
    """Solve W from the Figure 2 syscall-complete target (see module doc).

    The probe run (a full filter execution over the trace) dominates
    context-build time, so the solved value is memoised on disk, keyed
    by *every* input that shapes it: the complete workload spec, trace
    length and seed, cost params, compiler strategy, and the source
    fingerprint.  A change to any of them recalibrates.
    """
    target = _complete_target(spec)
    digest = None
    if result_cache.cache_enabled():
        digest = result_cache.params_digest(
            {
                "kind": "calibration",
                "spec": result_cache.spec_payload(spec),
                "events": len(trace),
                "seed": seed,
                "costs": asdict(costs),
                "compiler": compiler,
                "code": result_cache.code_fingerprint(),
                "bpf_compiler": result_cache.COMPILER_VERSION,
                "sim_kernel": result_cache.SIM_KERNEL_VERSION,
                # No "analytic" key on purpose: the probe regime below is
                # seccomp, which the analytic backend replays exactly
                # (byte-identical by contract, enforced by the
                # differential tests), so the solved W is shared across
                # REPRO_ANALYTIC settings.
            }
        )
        cached = result_cache.ResultCache().load_calibration(digest)
        telemetry.count(
            "context_cache", "calibration", "hit" if cached is not None else "miss"
        )
        if cached is not None:
            return cached

    probe = None
    if analytic_enabled():
        # The probe is a plain syscall-complete evaluation at W = S = 1,
        # so it replays the same shared filter sweep the syscall-complete
        # bars use (byte-identical mean_check_cycles by contract).
        from repro.experiments import seccomp_replay

        probe = seccomp_replay.replay_evaluation(
            spec,
            trace,
            bundle.complete,
            compiler,
            times=1,
            costs=costs,
            work_cycles=1.0,
            base_cycles=1.0,
        )
    if probe is None:
        regime = SeccompRegime(bundle.complete, costs=costs, compiler=compiler)
        probe = run_trace(
            trace,
            regime,
            work_cycles_per_syscall=1.0,
            syscall_base_cycles=1.0,
            workload_name=spec.name,
        )
    c_complete = probe.mean_check_cycles
    baseline = c_complete / (target - 1.0)
    work = max(baseline - costs.syscall_base_cycles, MIN_WORK_CYCLES)
    if digest is not None and result_cache.ResultCache().store_calibration(digest, work):
        telemetry.count("context_cache", "calibration", "store")
    return work


def build_context(
    spec: WorkloadSpec,
    events: int = DEFAULT_EVENTS,
    seed: int = DEFAULT_SEED,
    costs: SoftwareCostParams = DEFAULT_SW_COSTS,
    compiler: str = "binary_tree",
    work_cycles: Optional[float] = None,
) -> WorkloadContext:
    """Generate traces and derive profiles for one workload, whose W
    is calibrated when first read.

    Calibration always solves W against the *modern-kernel* cost model
    (the Figure 2 targets were measured on Linux 5.3); the application
    work per syscall is a property of the application, not the kernel,
    so old-kernel contexts reuse the same W with their own cost model.
    ``work_cycles`` is W already solved for these inputs; it replaces
    the calibration probe.  A spec without a calibration target fails
    here, not at the first read of W.
    """
    _complete_target(spec)
    return WorkloadContext(
        spec=spec,
        trace=_trace_for(spec, events, seed),
        bundle=_bundle_for(spec),
        costs=costs,
        compiler=compiler,
        seed=seed,
        _work_cycles=[work_cycles],
    )


#: The one in-process context memo (see :func:`get_context`).
_CONTEXTS: Dict[tuple, WorkloadContext] = {}
_CONTEXT_LIMIT = 64


def get_context(
    workload: str,
    events: int = DEFAULT_EVENTS,
    seed: int = DEFAULT_SEED,
    old_kernel: bool = False,
    compiler: str = "binary_tree",
    costs: Optional[SoftwareCostParams] = None,
    work_cycles: Optional[float] = None,
) -> WorkloadContext:
    """Cached context for a catalog workload (contexts are immutable
    but for W, solved once; regimes are created fresh per evaluation).

    ``old_kernel`` is a convenience alias for the Appendix A cost set;
    pass ``costs`` explicitly to evaluate any other cost model without
    fear of stale cache entries.  ``work_cycles`` is W already solved
    for this workload, trace and compiler (the stage graph's context
    stage returns it): the context, new or memoised, then never runs
    the calibration probe.

    The memo is keyed on *every* context input.  Trace, bundle and W do
    not depend on the cost model (:func:`build_context` always
    calibrates against ``DEFAULT_SW_COSTS``), so a context for any other
    cost model is the default-cost context with its own ``costs`` and an
    empty evaluation memo, sharing the default context's W.  Sharing the
    trace and profile objects keeps the identity-keyed filter-sweep memo
    hitting across cost models.  ``costs`` is a frozen dataclass: two
    parameter sets hash equal exactly when every cost constant matches.
    """
    if costs is None:
        costs = OLD_KERNEL_SW_COSTS if old_kernel else DEFAULT_SW_COSTS
    key = (workload, events, seed, costs, compiler)
    context = _CONTEXTS.get(key)
    if context is None:
        if costs != DEFAULT_SW_COSTS:
            base = get_context(workload, events, seed, compiler=compiler, work_cycles=work_cycles)
            context = replace(base, costs=costs, _eval_memo={})
        else:
            spec = CATALOG[workload]
            context = build_context(spec, events, seed, compiler=compiler, work_cycles=work_cycles)
        memo_insert(_CONTEXTS, key, context, _CONTEXT_LIMIT)
    elif work_cycles is not None and context._work_cycles[0] is None:
        context._work_cycles[0] = work_cycles
    return context


def reset_context_memos() -> None:
    """Drop every in-process context memo (tests and long-lived
    services that need to observe disk-cache behaviour afresh)."""
    from repro.experiments import seccomp_replay

    _docker_profile_for.cache_clear()
    _CONTEXTS.clear()
    seccomp_replay.reset_memos()
