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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.common import telemetry
from repro.common.analytic import analytic_enabled
from repro.common.errors import AnalyticPreconditionError, ConfigError
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
from repro.kernel.simulator import RunResult, run_trace
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

#: docker-default is a pure function of the syscall table, but regimes
#: are instantiated fresh per evaluation; share one profile object per
#: table so downstream program-assembly memos hit.  Keyed by identity
#: with a strong table reference so the id cannot be recycled; bounded
#: with oldest-first eviction like every other context memo.
_DOCKER_MEMO: dict = {}
_DOCKER_MEMO_LIMIT = 64


def _docker_profile_for(table):
    hit = _DOCKER_MEMO.get(id(table))
    if hit is not None and hit[0] is table:
        return hit[1]
    profile = build_docker_default(table)
    memo_insert(_DOCKER_MEMO, id(table), (table, profile), _DOCKER_MEMO_LIMIT)
    return profile


#: Profile bundles depend only on (workload spec, seed) — not on the
#: trace length — so contexts with different ``events`` share them.
_BUNDLE_MEMO: dict = {}
_BUNDLE_MEMO_LIMIT = 64


def _bundle_for(spec: WorkloadSpec, seed: int) -> ProfileBundle:
    key = (id(spec), seed)
    hit = _BUNDLE_MEMO.get(key)
    if hit is not None and hit[0] is spec:
        return hit[1]
    bundle = None
    digest = None
    if result_cache.cache_enabled():
        digest = result_cache.context_digest("bundle", spec, seed=seed)
        payload = result_cache.ResultCache().load_context("bundle", digest)
        if payload is not None:
            bundle = bundle_from_payload(payload, spec.name)
        telemetry.count("context_cache", "bundle", "hit" if bundle is not None else "miss")
    if bundle is None:
        bundle = generate_bundle(profile_trace(spec, seed=seed), spec.name)
        if digest is not None and result_cache.ResultCache().store_context(
            "bundle", digest, bundle_to_payload(bundle)
        ):
            telemetry.count("context_cache", "bundle", "store")
    memo_insert(_BUNDLE_MEMO, key, (spec, bundle), _BUNDLE_MEMO_LIMIT)
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


@dataclass
class WorkloadContext:
    """Everything needed to evaluate one workload under any regime."""

    spec: WorkloadSpec
    trace: SyscallTrace
    bundle: ProfileBundle
    work_cycles: float
    costs: SoftwareCostParams
    compiler: str
    seed: int
    #: Per-context memo of no-override evaluations (see :meth:`evaluate`).
    _eval_memo: Dict[tuple, RunResult] = field(
        default_factory=dict, repr=False, compare=False
    )

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

        Gated on both the cache, which holds the sweeps, and the
        analytic backend: with ``REPRO_ANALYTIC=0`` every run must go
        through the exact kernels (the kill-switch contract), and
        replayed results are byte-identical to those by the
        differential tests.
        """
        variant = _SECCOMP_REPLAY_VARIANTS.get(regime_name)
        if variant is None:
            return None
        if not (result_cache.cache_enabled() and analytic_enabled()):
            return None
        from repro.experiments import seccomp_replay

        role, times = variant
        return seccomp_replay.replay_evaluation(
            self.spec,
            self.trace,
            self.profile_for_role(role),
            role,
            self.compiler,
            self.seed,
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
        overrides (unhashable cost objects) always run fresh.  Seccomp
        regimes are additionally served by replaying the persistent
        per-(trace, profile) filter sweep when the context cache allows
        it.  When an analytic replay finds its precondition broken (a
        VAT eviction under software Draco), the exact kernels rerun the
        trace on a fresh regime.
        """
        key = None
        if not overrides:
            key = (regime_name, analytic_enabled())
            hit = self._eval_memo.get(key)
            if hit is not None:
                return hit
        result = self._replay(regime_name) if not overrides else None
        if result is None:
            try:
                result = self._run(regime_name, overrides)
            except AnalyticPreconditionError:
                result = self._run(regime_name, overrides, analytic=False)
        if key is not None:
            self._eval_memo[key] = result
        return result

    def _run(
        self,
        regime_name: str,
        overrides: Dict[str, object],
        analytic: Optional[bool] = None,
    ) -> RunResult:
        return run_trace(
            self.trace,
            self.make_regime(regime_name, **overrides),
            work_cycles_per_syscall=self.work_cycles,
            syscall_base_cycles=self.syscall_base_cycles,
            workload_name=self.spec.name,
            analytic=analytic,
        )

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

    def evaluate_with_regime(
        self, regime: CheckingRegime
    ) -> Tuple[RunResult, CheckingRegime]:
        """Run with a caller-built regime (for hit-rate inspection)."""
        result = run_trace(
            self.trace,
            regime,
            work_cycles_per_syscall=self.work_cycles,
            syscall_base_cycles=self.syscall_base_cycles,
            workload_name=self.spec.name,
        )
        return result, regime


#: Traces are pure functions of (spec, events, seed); old-kernel
#: contexts rebuild the same trace the modern-kernel context already
#: generated, so share the frozen events.  Keyed by spec identity with
#: a strong reference so the id cannot be recycled.
_TRACE_MEMO: dict = {}
_TRACE_MEMO_LIMIT = 64


def _trace_for(spec: WorkloadSpec, events: int, seed: int) -> SyscallTrace:
    key = (id(spec), events, seed)
    hit = _TRACE_MEMO.get(key)
    if hit is not None and hit[0] is spec:
        return hit[1]
    trace = None
    digest = None
    if result_cache.cache_enabled():
        digest = result_cache.context_digest(
            "trace",
            spec,
            events=events,
            seed=seed,
            trace_format=serialize.FORMAT_VERSION_RLE,
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
    memo_insert(_TRACE_MEMO, key, (spec, trace), _TRACE_MEMO_LIMIT)
    return trace


#: Calibration solves one float from a (spec, trace, costs, compiler)
#: probe run; old-kernel contexts calibrate against the *same* inputs
#: (W is a property of the application — see :func:`build_context`), so
#: memoise in-process as well as on disk.
_CALIBRATION_MEMO: dict = {}
_CALIBRATION_MEMO_LIMIT = 256


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
    target = spec.fig2_targets.get(REGIME_COMPLETE)
    if target is None or target <= 1.0:
        raise ConfigError(f"{spec.name}: needs a syscall-complete target > 1.0")

    # Keyed on the cost *values* (a frozen, hashable dataclass), not
    # id(costs): ids get recycled after garbage collection, and the old
    # identity guard only pinned spec and trace, so a different cost set
    # landing on a recycled id could be served a stale W.
    memo_key = (id(spec), id(trace), costs, compiler, seed)
    memo_hit = _CALIBRATION_MEMO.get(memo_key)
    if memo_hit is not None and memo_hit[0] is spec and memo_hit[1] is trace:
        return memo_hit[2]

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
            memo_insert(
                _CALIBRATION_MEMO,
                memo_key,
                (spec, trace, cached),
                _CALIBRATION_MEMO_LIMIT,
            )
            return cached

    probe = None
    if result_cache.cache_enabled() and analytic_enabled():
        # The probe is a plain syscall-complete evaluation at W = S = 1,
        # so it replays the same shared filter sweep the syscall-complete
        # bars use (byte-identical mean_check_cycles by contract).
        from repro.experiments import seccomp_replay

        probe = seccomp_replay.replay_evaluation(
            spec,
            trace,
            bundle.complete,
            "complete",
            compiler,
            seed,
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
    memo_insert(
        _CALIBRATION_MEMO, memo_key, (spec, trace, work), _CALIBRATION_MEMO_LIMIT
    )
    return work


def build_context(
    spec: WorkloadSpec,
    events: int = DEFAULT_EVENTS,
    seed: int = DEFAULT_SEED,
    costs: SoftwareCostParams = DEFAULT_SW_COSTS,
    compiler: str = "binary_tree",
) -> WorkloadContext:
    """Generate traces, derive profiles, and calibrate one workload.

    Calibration always solves W against the *modern-kernel* cost model
    (the Figure 2 targets were measured on Linux 5.3); the application
    work per syscall is a property of the application, not the kernel,
    so old-kernel contexts reuse the same W with their own cost model.
    """
    trace = _trace_for(spec, events, seed)
    bundle = _bundle_for(spec, seed)
    work = calibrate_work_cycles(spec, trace, bundle, DEFAULT_SW_COSTS, compiler, seed=seed)
    return WorkloadContext(
        spec=spec,
        trace=trace,
        bundle=bundle,
        work_cycles=work,
        costs=costs,
        compiler=compiler,
        seed=seed,
    )


@lru_cache(maxsize=64)
def _cached_context(
    workload: str,
    events: int,
    seed: int,
    costs: SoftwareCostParams,
    compiler: str,
) -> WorkloadContext:
    """In-process memo keyed on *every* context input.

    ``costs`` is a frozen dataclass, so two parameter sets hash equal
    exactly when every cost constant matches — changing any parameter
    (not just the ``old_kernel`` flag) yields a fresh calibration.
    """
    spec = CATALOG[workload]
    return build_context(spec, events=events, seed=seed, costs=costs, compiler=compiler)


def get_context(
    workload: str,
    events: int = DEFAULT_EVENTS,
    seed: int = DEFAULT_SEED,
    old_kernel: bool = False,
    compiler: str = "binary_tree",
    costs: Optional[SoftwareCostParams] = None,
) -> WorkloadContext:
    """Cached context for a catalog workload (contexts are immutable;
    regimes are created fresh per evaluation).

    ``old_kernel`` is a convenience alias for the Appendix A cost set;
    pass ``costs`` explicitly to evaluate any other cost model without
    fear of stale cache entries.
    """
    if costs is None:
        costs = OLD_KERNEL_SW_COSTS if old_kernel else DEFAULT_SW_COSTS
    return _cached_context(workload, events, seed, costs, compiler)


def reset_context_memos() -> None:
    """Drop every in-process context memo (tests and long-lived
    services that need to observe disk-cache behaviour afresh)."""
    from repro.experiments import seccomp_replay

    _DOCKER_MEMO.clear()
    _TRACE_MEMO.clear()
    _BUNDLE_MEMO.clear()
    _CALIBRATION_MEMO.clear()
    _cached_context.cache_clear()
    seccomp_replay.reset_memos()
