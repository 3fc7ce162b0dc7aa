"""Stage-graph orchestrator: experiments as DAGs of cacheable stages.

Treating each registry entry as one opaque task would mean a change
that only affects an experiment's *analysis* still re-runs its
simulations, and two experiments that consume the same evaluation
(fig13 and the flow-mix extension both read ``draco-hw-complete``)
would each recompute it.  This module decomposes the catalog-loop
experiments into a DAG of **stages** of four kinds::

    context ──► eval (one per workload × walk) ──► analysis
    fleet-eval (every dispatch policy) ─────────► analysis

An experiment the planner cannot decompose is a single ``analysis``
stage without dependencies, which runs its whole ``run()``.

Each stage is content-addressed: its digest folds the stage kind and
parameters, the digests of its upstream stages, the source
fingerprint, the compiler / simulation-kernel / analytic format
versions, and ``STAGE_FORMAT_VERSION``.  Identical stages requested by
several experiments execute **once** per suite run (and dedupe on
disk); a parameter change invalidates exactly the affected stages and
their descendants.

Stage payloads are plain JSON: a ``context`` stage builds the
workload context through :func:`~repro.experiments.runner.get_context`
and returns a tiny manifest (``events`` and ``work_cycles``; the trace
and profile bundle land in the persistent context cache, and every
eval and analysis stage downstream builds the context from the
manifest's W, so no worker re-runs the calibration probe), an ``eval``
stage returns ``{regime: RunResult JSON}`` with one exact
:meth:`~repro.kernel.simulator.RunResult.to_json_dict` payload per
regime its walk serves (:func:`~repro.experiments.runner.walk_serves`:
a Draco ``complete`` walk also carries its ``-2x`` variant, priced from
the same walk, so a ``-2x`` regime has no eval stage of its own), the
``fleet-eval`` stage one
:meth:`~repro.kernel.fleet.FleetResult.to_json_dict` per policy, and
``analysis`` stages return the experiment's
:class:`~repro.experiments.results.ExperimentResult`.  Intermediate
payloads persist in the ``stages/<kind>/<digest>.json`` tier of
:class:`repro.experiments.cache.ResultCache`; terminal payloads are
stored in the ``results/`` tier under the whole-experiment digest
(:meth:`~repro.experiments.cache.ResultCache.result_key`), so warm
runs, ``summary`` and every cache tool read one entry per experiment.

Byte-identity with the experiment's own ``run()`` is structural, not
incidental: the analysis stage rebuilds each workload context and
**seeds** every staged evaluation into its memo
(:meth:`~repro.experiments.runner.WorkloadContext.seed_evaluation`),
then calls the experiment's unmodified ``run()`` — the same row
assembly, rounding and note text as a direct call.  A differential
test asserts the full-registry markdown matches each entry's direct
``run()``.

``--refresh`` is stage-scoped here: terminal stages always recompute
(and restore the ``results/`` entry) while intermediate stages are
served from the ``stages/`` tier, so a warm refresh re-renders every
table without re-simulating.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common import storage, telemetry
from repro.common.analytic import ANALYTIC_VERSION, analytic_enabled
from repro.common.rng import DEFAULT_SEED
from repro.experiments import cache as result_cache
from repro.experiments import pool as warm_pool
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import DEFAULT_EVENTS, get_context, walk_serves
from repro.kernel.simulator import RunResult
from repro.workloads.catalog import CATALOG

#: Cache modes, string-compatible with :mod:`repro.experiments.engine`
#: (not imported from there: the engine imports this module).
CACHE_ON = "on"
CACHE_OFF = "off"
CACHE_REFRESH = "refresh"

#: Stage kinds, in pipeline order.  Every kind but ``analysis`` is
#: intermediate and persists in the ``stages/`` tier; ``analysis`` is
#: the one terminal kind, whose ExperimentResult is stored in the
#: ``results/`` tier under the whole-experiment digest instead.  The
#: one ``fleet-eval`` stage (see :class:`FleetPlan`) carries a full
#: :meth:`~repro.kernel.fleet.FleetResult.to_json_dict` per policy.
KIND_CONTEXT = "context"
KIND_EVAL = "eval"
KIND_FLEET_EVAL = "fleet-eval"
KIND_ANALYSIS = "analysis"

#: Stage kinds :func:`execute_suite` dispatches before every other
#: stage; none of them has dependencies.
_DISPATCH_FIRST = frozenset({KIND_FLEET_EVAL})

#: run() keyword arguments the DAG planner understands.  Anything else
#: (unknown overrides) falls back to a monolithic analysis stage.
_PLANNABLE_KWARGS = frozenset({"events", "seed", "workloads", "old_kernel"})


@dataclass(frozen=True)
class EvalPlan:
    """Declarative stage plan for a catalog-loop experiment.

    Experiments whose ``run()`` is "for each workload, evaluate these
    regimes, then assemble rows" declare one of these (module-level
    ``STAGE_PLAN``) and the planner derives the full DAG.  ``old_kernel``
    is the fixed default for wrappers like fig16/fig17 whose ``run()``
    hard-codes the Appendix A cost model, and ``workloads`` the default
    workload set of a ``run()`` that loops over less than the catalog
    (``None``: the whole catalog); a ``run_kwargs`` override still wins
    for either when the experiment accepts one.
    """

    regimes: Tuple[str, ...]
    old_kernel: bool = False
    workloads: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class FleetPlan:
    """Declarative stage plan for the fleet-serving experiment.

    Expands to one ``fleet-eval`` stage, feeding the terminal analysis,
    that builds the scenario's load and class calibrations once and
    serves every policy from them, so the plan has no fields.
    Parameter resolution is delegated to
    :func:`repro.experiments.fleet_serving.resolve_params` so staged
    and direct ``run()`` calls derive identical
    :class:`~repro.kernel.fleet.FleetParams`.
    """


#: ``run()`` kwargs the fleet planner understands.
_FLEET_PLANNABLE_KWARGS = frozenset({"events", "seed", "tenants", "invocations"})


@dataclass(frozen=True)
class Stage:
    """One content-addressed unit of work in the suite DAG."""

    key: str  # content digest; the identity used for dedup and storage
    kind: str
    label: str  # human-readable, e.g. "eval:redis:draco-hw-complete"
    params: Mapping[str, Any]
    deps: Tuple[str, ...]


@dataclass
class ExperimentPlan:
    """One experiment's stages plus its terminal (result-producing) stage."""

    experiment_id: str
    run_kwargs: Dict[str, Any]
    result_digest: str  # ResultCache.result_key, for the results/ tier
    stages: Dict[str, Stage]  # insertion order is topological
    terminal: str


def _stage_digest(kind: str, params: Mapping[str, Any], deps: Sequence[str]) -> str:
    payload = {
        "stage_kind": kind,
        "params": dict(params),
        "deps": list(deps),
        "code": result_cache.code_fingerprint(),
        "stage_format": result_cache.STAGE_FORMAT_VERSION,
        "bpf_compiler": result_cache.COMPILER_VERSION,
        "sim_kernel": result_cache.SIM_KERNEL_VERSION,
        "analytic": ANALYTIC_VERSION if analytic_enabled() else 0,
    }
    return result_cache.params_digest(payload)


def build_plan(
    experiment_id: str,
    plan: "EvalPlan | FleetPlan",
    run_kwargs: Mapping[str, Any],
    result_digest: str,
) -> Optional[ExperimentPlan]:
    """Expand a declarative :class:`EvalPlan` into a concrete DAG.

    Returns ``None`` when ``run_kwargs`` carries overrides the planner
    does not understand — the caller then falls back to a monolithic
    analysis stage, which runs the experiment's whole ``run()``.
    """
    if isinstance(plan, FleetPlan):
        return _build_fleet_plan(experiment_id, run_kwargs, result_digest)
    if not _PLANNABLE_KWARGS.issuperset(run_kwargs):
        return None
    names = tuple(run_kwargs.get("workloads") or plan.workloads or tuple(CATALOG))
    if any(name not in CATALOG for name in names):
        return None  # let run() raise its own error, monolithically
    events = run_kwargs.get("events")
    events = DEFAULT_EVENTS if events is None else int(events)
    seed = int(run_kwargs.get("seed", DEFAULT_SEED))
    old_kernel = bool(run_kwargs.get("old_kernel", plan.old_kernel))

    stages: Dict[str, Stage] = {}

    def add(kind: str, label: str, params: Dict[str, Any], deps: Tuple[str, ...] = ()) -> str:
        key = _stage_digest(kind, params, deps)
        stages.setdefault(
            key, Stage(key=key, kind=kind, label=label, params=params, deps=deps)
        )
        return key

    eval_keys: Dict[str, None] = {}  # insertion-ordered set
    for name in names:
        # The context (trace, bundle and W) is cost-model independent
        # (calibration always solves W against the modern-kernel costs
        # — see runner.build_context), so modern and old-kernel
        # experiments share this stage; only evals key on ``old_kernel``.
        context_key = add(
            KIND_CONTEXT,
            f"context:{name}",
            {"workload": name, "events": events, "seed": seed, "compiler": "binary_tree"},
        )
        for regime in plan.regimes:
            # A priced variant shares the stage of the regime it is
            # priced from: that walk's payload carries both results.
            walked = walk_serves(regime)[0]
            key = add(
                KIND_EVAL,
                f"eval:{name}:{walked}" + (":old-kernel" if old_kernel else ""),
                {
                    "workload": name,
                    "events": events,
                    "seed": seed,
                    "regime": walked,
                    "old_kernel": old_kernel,
                },
                (context_key,),
            )
            eval_keys[key] = None
    terminal = add(
        KIND_ANALYSIS,
        f"analysis:{experiment_id}",
        {"experiment_id": experiment_id, "run_kwargs": dict(run_kwargs)},
        tuple(eval_keys),
    )
    return ExperimentPlan(
        experiment_id=experiment_id,
        run_kwargs=dict(run_kwargs),
        result_digest=result_digest,
        stages=stages,
        terminal=terminal,
    )


def _build_fleet_plan(
    experiment_id: str,
    run_kwargs: Mapping[str, Any],
    result_digest: str,
) -> Optional[ExperimentPlan]:
    """Expand a :class:`FleetPlan` into its fleet-eval and analysis stages."""
    if not _FLEET_PLANNABLE_KWARGS.issuperset(run_kwargs):
        return None
    from repro.experiments import fleet_serving

    params = fleet_serving.resolve_params(
        run_kwargs.get("events"),
        seed=int(run_kwargs.get("seed", DEFAULT_SEED)),
        tenants=run_kwargs.get("tenants"),
        invocations=run_kwargs.get("invocations"),
    )
    fleet = {
        "tenants": params.tenants,
        "invocations": params.invocations,
        "seed": params.seed,
    }
    stages: Dict[str, Stage] = {}

    def add(kind: str, label: str, params: Dict[str, Any], deps: Tuple[str, ...] = ()) -> str:
        key = _stage_digest(kind, params, deps)
        stages.setdefault(
            key, Stage(key=key, kind=kind, label=label, params=params, deps=deps)
        )
        return key

    eval_key = add(KIND_FLEET_EVAL, "fleet-eval", {"fleet": fleet})
    terminal = add(
        KIND_ANALYSIS,
        f"analysis:{experiment_id}",
        {"experiment_id": experiment_id, "run_kwargs": dict(run_kwargs)},
        (eval_key,),
    )
    return ExperimentPlan(
        experiment_id=experiment_id,
        run_kwargs=dict(run_kwargs),
        result_digest=result_digest,
        stages=stages,
        terminal=terminal,
    )


def monolithic_plan(
    experiment_id: str, run_kwargs: Mapping[str, Any], result_digest: str
) -> ExperimentPlan:
    """Single-stage plan: an analysis stage without dependencies, which
    runs the whole ``run()`` (non-DAG experiments)."""
    params = {"experiment_id": experiment_id, "run_kwargs": dict(run_kwargs)}
    key = _stage_digest(KIND_ANALYSIS, params, ())
    stage = Stage(
        key=key, kind=KIND_ANALYSIS, label=f"analysis:{experiment_id}", params=params, deps=()
    )
    return ExperimentPlan(
        experiment_id=experiment_id,
        run_kwargs=dict(run_kwargs),
        result_digest=result_digest,
        stages={key: stage},
        terminal=key,
    )


# -- stage executors (run in workers; must stay module-top-level) -------


def _run_context_stage(params: Mapping[str, Any]) -> Dict[str, Any]:
    ctx = get_context(
        params["workload"],
        events=params["events"],
        seed=params["seed"],
        compiler=params["compiler"],
    )
    # The trace and bundle themselves live in the context memo and the
    # persistent context cache; the stage payload is a manifest.
    return {"events": len(ctx.trace), "work_cycles": ctx.work_cycles}


def _build_staged_context(params: Mapping[str, Any], payload: Mapping[str, Any]) -> None:
    """Build a context stage's context from the W that stage solved, so a
    worker that never built it does not re-run the calibration probe."""
    get_context(
        params["workload"],
        events=params["events"],
        seed=params["seed"],
        compiler=params["compiler"],
        work_cycles=payload["work_cycles"],
    )


def _run_eval_stage(
    params: Mapping[str, Any], dep_info: Sequence[Tuple[str, Dict[str, Any], Any]]
) -> Dict[str, Any]:
    for _, dep_params, payload in dep_info:
        _build_staged_context(dep_params, payload)
    ctx = get_context(
        params["workload"],
        events=params["events"],
        seed=params["seed"],
        old_kernel=params["old_kernel"],
    )
    return {
        name: ctx.evaluate(name).to_json_dict() for name in walk_serves(params["regime"])
    }


def _run_fleet_eval_stage(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.experiments import fleet_serving
    from repro.kernel.fleet import FleetParams

    fleet = params["fleet"]
    scenario = FleetParams(
        tenants=int(fleet["tenants"]),
        invocations=int(fleet["invocations"]),
        seed=int(fleet["seed"]),
    )
    return fleet_serving.eval_payload(scenario)


def _run_analysis_stage(
    params: Mapping[str, Any], dep_info: Sequence[Tuple[str, Dict[str, Any], Any]]
) -> Dict[str, Any]:
    from repro.experiments.registry import by_id

    for kind, dep_params, payload in dep_info:
        if kind == KIND_CONTEXT:
            _build_staged_context(dep_params, payload)
            continue
        if kind == KIND_FLEET_EVAL:
            from repro.experiments import fleet_serving

            fleet_serving.seed_eval(dep_params, payload)
            continue
        ctx = get_context(
            dep_params["workload"],
            events=dep_params["events"],
            seed=dep_params["seed"],
            old_kernel=dep_params["old_kernel"],
        )
        for regime, result in payload.items():
            ctx.seed_evaluation(regime, RunResult.from_json_dict(result))
    result = by_id(params["experiment_id"]).run(**params["run_kwargs"])
    return result.to_json_dict()


def _execute_stage(
    kind: str,
    key: str,
    params: Dict[str, Any],
    dep_info: List[Tuple[str, Dict[str, Any], Any]],
    cache_mode: str,
    result_digest: Optional[str],
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Worker entry point: run one stage, capture failure + telemetry.

    ``cache_dir`` is the suite's resolved cache root, re-applied here
    because warm-pool workers outlive any single suite and must not
    trust environment inherited at fork time; context-local overrides
    do not cross the ``fork`` boundary either.

    Returns a JSON/pickle-safe envelope; never raises.  Intermediate
    payloads are written to the ``stages/`` tier here (in the worker,
    which already holds the payload); terminal payloads go to the
    ``results/`` tier.
    """
    with storage.cache_overrides(
        cache_dir=cache_dir, disable=(cache_mode == CACHE_OFF)
    ):
        return _execute_stage_inner(
            kind, key, params, dep_info, cache_mode, result_digest
        )


def _execute_stage_inner(
    kind: str,
    key: str,
    params: Dict[str, Any],
    dep_info: List[Tuple[str, Dict[str, Any], Any]],
    cache_mode: str,
    result_digest: Optional[str],
) -> Dict[str, Any]:
    telemetry.reset_counters()
    started = time.perf_counter()
    out: Dict[str, Any] = {"key": key, "error": None, "payload": None, "stored": False}
    try:
        if kind == KIND_CONTEXT:
            payload = _run_context_stage(params)
        elif kind == KIND_EVAL:
            payload = _run_eval_stage(params, dep_info)
        elif kind == KIND_FLEET_EVAL:
            payload = _run_fleet_eval_stage(params)
        elif kind == KIND_ANALYSIS:
            payload = _run_analysis_stage(params, dep_info)
        else:
            raise RuntimeError(f"unknown stage kind {kind!r}")
    except Exception:
        out["error"] = traceback.format_exc()
    else:
        out["payload"] = payload
        if kind != KIND_ANALYSIS:
            if cache_mode != CACHE_OFF and result_cache.cache_enabled():
                out["stored"] = result_cache.ResultCache().store_stage(kind, key, payload)
        elif cache_mode in (CACHE_ON, CACHE_REFRESH):
            out["stored"] = result_cache.ResultCache().store_result(
                params["experiment_id"],
                result_digest,
                ExperimentResult.from_json_dict(payload),
            )
    out["elapsed_s"] = time.perf_counter() - started
    out["simulation"] = telemetry.counters_snapshot()
    return out


# -- scheduler ----------------------------------------------------------


def execute_suite(
    tasks: Sequence[Tuple[str, Dict[str, Any]]],
    *,
    jobs: int = 1,
    cache_mode: str = CACHE_ON,
    cache_dir: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run ``[(experiment_id, run_kwargs), ...]`` through the stage graph.

    Returns one ``{"result", "record"}`` payload per task, in task
    order, which :func:`repro.experiments.engine.run_suite` assembles
    into outcomes.  Must be called with the cache overrides already
    applied (run_suite does this); ``cache_dir`` is the resolved root,
    forwarded to pool workers as a task argument.  A pool worker that
    dies fails the stages it had not finished, and their dependents,
    instead of the whole suite.
    """
    from repro.experiments.registry import by_id

    store = result_cache.ResultCache()
    prebuilt: Dict[int, Dict[str, Any]] = {}
    plans: List[Tuple[int, ExperimentPlan]] = []

    for index, (experiment_id, run_kwargs) in enumerate(tasks):
        experiment = by_id(experiment_id)
        result_digest = store.result_key(experiment_id, run_kwargs)
        if cache_mode == CACHE_ON:
            probe_started = time.perf_counter()
            cached = store.load_result(experiment_id, result_digest)
            if cached is not None:
                # Whole result cached: serve it without touching the
                # subgraph.
                record = telemetry.ExperimentRecord(
                    experiment_id=experiment_id,
                    title=experiment.title,
                    cache=telemetry.CACHE_HIT,
                    wall_time_s=time.perf_counter() - probe_started,
                    params_digest=result_digest,
                    simulation=telemetry.empty_snapshot(),
                )
                prebuilt[index] = {
                    "result": cached.to_json_dict(),
                    "record": record.to_json_dict(),
                }
                continue
        plan = None
        if getattr(experiment, "stage_plan", None) is not None:
            plan = build_plan(experiment_id, experiment.stage_plan, run_kwargs, result_digest)
        if plan is None:
            plan = monolithic_plan(experiment_id, run_kwargs, result_digest)
        plans.append((index, plan))

    # Union graph.  Stage insertion order is topological: a stage's
    # deps are created before it within each plan, and setdefault keeps
    # the earliest position for shared stages.
    stages: Dict[str, Stage] = {}
    owner: Dict[str, int] = {}  # stage key -> first requesting task index
    for index, plan in plans:
        for key, stage in plan.stages.items():
            stages.setdefault(key, stage)
            owner.setdefault(key, index)
    terminal_digest = {plan.terminal: plan.result_digest for _, plan in plans}

    payloads: Dict[str, Any] = {}
    status: Dict[str, str] = {}  # key -> "hit" | "exec"
    meta: Dict[str, Dict[str, Any]] = {}  # key -> executed-stage envelope
    failed: Dict[str, str] = {}  # key -> originating traceback
    done: set = set()

    # Probe the stages/ tier for intermediates (terminals live in the
    # results/ tier and were probed per experiment above; under
    # --refresh they must recompute, which is exactly what falls out of
    # never probing them here).
    if cache_mode != CACHE_OFF:
        for key, stage in stages.items():
            if stage.kind != KIND_ANALYSIS:
                cached = store.load_stage(stage.kind, key)
                if cached is not None:
                    payloads[key] = cached
                    status[key] = "hit"
                    done.add(key)

    # Prune to the stages actually needed: the transitive dependency
    # closure of unsatisfied terminals.  (A context stage whose evals all
    # hit has no reason to run.)
    needed: set = set()
    stack = [plan.terminal for _, plan in plans if plan.terminal not in done]
    while stack:
        key = stack.pop()
        if key in needed or key in done:
            continue
        needed.add(key)
        stack.extend(d for d in stages[key].deps if d not in done and d not in needed)

    order = [key for key in stages if key in needed]
    # Fleet-eval stages first.  The fleet stage's transient allocations
    # are the largest of any stage and it keeps nothing resident but its
    # payload: run first, they sit on the post-import base instead of on
    # the contexts and filters the other stages leave held, which set a
    # cold suite's peak RSS.  On workers it is also the longest stage.
    # It has no dependencies, so the stable sort stays topological.
    order.sort(key=lambda key: stages[key].kind not in _DISPATCH_FIRST)
    dependents: Dict[str, List[str]] = {}
    unmet: Dict[str, int] = {}
    for key in order:
        missing = [d for d in stages[key].deps if d not in done]
        unmet[key] = len(missing)
        for dep in missing:
            dependents.setdefault(dep, []).append(key)

    def _propagate_failure(key: str, error: str) -> None:
        stack = [key]
        while stack:
            current = stack.pop()
            if current in failed:
                continue
            failed[current] = error
            stack.extend(dependents.get(current, ()))

    def _finish(out: Dict[str, Any]) -> List[str]:
        """Record one executed stage; return its newly-ready dependents."""
        key = out["key"]
        meta[key] = out
        if out["error"] is not None:
            _propagate_failure(key, out["error"])
            return []
        payloads[key] = out["payload"]
        status[key] = "exec"
        done.add(key)
        ready: List[str] = []
        for dependent in dependents.get(key, ()):
            unmet[dependent] -= 1
            if unmet[dependent] == 0 and dependent not in failed:
                ready.append(dependent)
        return ready

    def _submit_args(key: str):
        stage = stages[key]
        deps = list(stage.deps)
        if stage.kind == KIND_ANALYSIS:
            # The contexts behind its evaluations come first, so the
            # worker builds each from its solved W, as an eval stage
            # does from its one dependency.
            contexts = [c for d in deps for c in stages[d].deps if c in payloads]
            deps = list(dict.fromkeys(contexts)) + deps
        dep_info = [(stages[d].kind, dict(stages[d].params), payloads[d]) for d in deps]
        return (
            stage.kind,
            key,
            dict(stage.params),
            dep_info,
            cache_mode,
            terminal_digest.get(key),
            cache_dir,
        )

    if jobs == 1 or len(order) <= 1:
        # The order is topological, so a single pass suffices.
        for key in order:
            if key in failed:
                continue
            _finish(_execute_stage(*_submit_args(key)))
    elif order:
        executor = warm_pool.get_pool(jobs).executor
        futures: Dict[Any, str] = {}
        ready = [key for key in order if unmet[key] == 0]
        try:
            while ready or futures:
                for key in ready:
                    futures[executor.submit(_execute_stage, *_submit_args(key))] = key
                ready = []
                if not futures:
                    break
                completed, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                for future in completed:
                    futures.pop(future)
                    ready.extend(_finish(future.result()))
        except BrokenProcessPool:
            # A worker died mid-stage (killed, out of memory,
            # os._exit) and the executor is unusable.  Fail every
            # stage in flight or not yet run, and their dependents,
            # and retire the pool so the next suite forks a fresh one.
            error = traceback.format_exc()
            for key in order:
                if key not in done:
                    _propagate_failure(key, error)
            warm_pool.discard(executor)

    # Assemble per-task payloads in task order.
    out: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    for index, payload in prebuilt.items():
        out[index] = payload
    if cache_mode == CACHE_OFF:
        suite_cache_status = telemetry.CACHE_OFF
    elif cache_mode == CACHE_REFRESH:
        suite_cache_status = telemetry.CACHE_REFRESH
    else:
        suite_cache_status = telemetry.CACHE_MISS

    for index, plan in plans:
        experiment = by_id(plan.experiment_id)
        error = failed.get(plan.terminal, "")
        counters = {"executed": 0, "hit": 0, "dedup": 0, "stored": 0, "failed": 0}
        detail: List[Dict[str, Any]] = []
        owned_sims: List[Dict[str, Any]] = []
        owned_elapsed = 0.0
        for key, stage in plan.stages.items():
            if key in failed:
                stage_status = "failed"
                counters["failed"] += 1
            elif status.get(key) == "hit":
                stage_status = "hit"
                counters["hit"] += 1
            elif owner[key] != index:
                # Executed this run, but on behalf of an earlier
                # experiment — the cross-experiment dedup win.
                stage_status = "dedup"
                counters["dedup"] += 1
            else:
                stage_status = "exec"
                counters["executed"] += 1
            elapsed = 0.0
            if stage_status == "exec" and key in meta:
                elapsed = meta[key]["elapsed_s"]
                owned_elapsed += elapsed
                owned_sims.append(meta[key]["simulation"])
                if meta[key].get("stored"):
                    counters["stored"] += 1
            detail.append(
                {
                    "kind": stage.kind,
                    "label": stage.label,
                    "status": stage_status,
                    "elapsed_s": round(elapsed, 4),
                }
            )
        simulation = (
            telemetry.merge_simulations(owned_sims)
            if owned_sims
            else telemetry.empty_snapshot()
        )
        simulation["stages"] = {"counters": counters, "detail": detail}
        record = telemetry.ExperimentRecord(
            experiment_id=plan.experiment_id,
            title=experiment.title,
            status="failed" if error else "ok",
            cache=suite_cache_status,
            wall_time_s=owned_elapsed,
            params_digest=plan.result_digest,
            error=error,
            simulation=simulation,
        )
        out[index] = {
            "result": payloads.get(plan.terminal) if not error else None,
            "record": record.to_json_dict(),
        }
    return out  # type: ignore[return-value]
