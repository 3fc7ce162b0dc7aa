"""Stage-graph orchestrator: experiments as DAGs of cacheable stages.

The flat engine treats each registry entry as one opaque task, so a
change that only affects an experiment's *analysis* still re-runs its
simulations, and two experiments that consume the same evaluation
(fig13 and the flow-mix extension both read ``draco-hw-complete``)
each recompute it.  This module decomposes the catalog-loop
experiments into a DAG of **stages**::

    trace ──► calibration ──► eval (one per workload × regime) ──► analysis

Each stage is content-addressed: its digest folds the stage kind and
parameters, the digests of its upstream stages, the source
fingerprint, the compiler / simulation-kernel / analytic format
versions, ``STAGE_FORMAT_VERSION``, and the runtime knobs that change
what a stage records.  Identical stages requested by several
experiments execute **once** per suite run (and dedupe on disk); a
parameter change invalidates exactly the affected stages and their
descendants.

Stage payloads are plain JSON: ``trace`` and ``calibration`` stages
return tiny manifests (their real output lands in the persistent
context cache, which downstream stages read), ``eval`` stages return
the exact :meth:`~repro.kernel.simulator.RunResult.to_json_dict`
payload, and terminal stages return the experiment's
:class:`~repro.experiments.results.ExperimentResult`.  Intermediate
payloads persist in the ``stages/<kind>/<digest>.json`` tier of
:class:`repro.experiments.cache.ResultCache`; terminal payloads are
stored in the existing ``results/`` tier under the flat per-experiment
digest, so warm runs, ``summary`` and every existing cache tool keep
working unchanged.

Byte-identity with the flat engine is structural, not incidental: the
analysis stage rebuilds each workload context and **seeds** the staged
evaluations into its memo
(:meth:`~repro.experiments.runner.WorkloadContext.seed_evaluation`),
then calls the experiment's unmodified ``run()`` — the same row
assembly, rounding and note text as a flat run.  A differential test
asserts the full-registry markdown matches under
``REPRO_STAGE_GRAPH=0`` and ``=1``.

``--refresh`` is stage-scoped here: terminal stages always recompute
(and restore the ``results/`` entry) while intermediate stages are
served from the ``stages/`` tier, so a warm refresh re-renders every
table without re-simulating.  ``REPRO_STAGE_GRAPH=0`` falls back to
the flat engine.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common import storage, telemetry
from repro.common.analytic import ANALYTIC_VERSION, analytic_enabled
from repro.common.rng import DEFAULT_SEED
from repro.cpu.params import DEFAULT_SW_COSTS
from repro.experiments import cache as result_cache
from repro.experiments import pool as warm_pool
from repro.experiments import runner
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import DEFAULT_EVENTS, get_context
from repro.kernel.simulator import RunResult
from repro.workloads.catalog import CATALOG

#: Cache modes, string-compatible with :mod:`repro.experiments.engine`
#: (not imported from there: the engine imports this module).
CACHE_ON = "on"
CACHE_OFF = "off"
CACHE_REFRESH = "refresh"

#: Stage kinds, in pipeline order.
KIND_TRACE = "trace"
KIND_CALIBRATION = "calibration"
KIND_EVAL = "eval"
KIND_ANALYSIS = "analysis"
KIND_EXPERIMENT = "experiment"  # monolithic fallback: the whole run()
#: Fleet-serving stage kinds (see :class:`FleetPlan`): load and
#: calibration are provenance manifests (their outputs are pure
#: functions of the stage params, kept in the in-process memo of
#: :mod:`repro.experiments.fleet_serving` that the eval stages read,
#: and rebuilt only by a process that has not built them), one
#: ``fleet-eval`` per dispatch policy carries the full
#: :meth:`~repro.kernel.fleet.FleetResult.to_json_dict` payload.
KIND_FLEET_LOAD = "fleet-load"
KIND_FLEET_CALIBRATION = "fleet-calibration"
KIND_FLEET_EVAL = "fleet-eval"

#: Kinds persisted in the ``stages/`` tier.  Terminal kinds
#: (analysis / experiment) store their ExperimentResult in the
#: ``results/`` tier under the flat per-experiment digest instead.
_INTERMEDIATE_KINDS = frozenset(
    {KIND_TRACE, KIND_CALIBRATION, KIND_EVAL,
     KIND_FLEET_LOAD, KIND_FLEET_CALIBRATION, KIND_FLEET_EVAL}
)

#: Runtime knobs folded into every stage digest.  These change what a
#: stage payload *contains* (per-flow ledgers, structure counters) or
#: which execution tier produced it, so a payload computed under one
#: setting must never be served under another — the same contract as
#: the per-context evaluation memo key in :mod:`repro.experiments.runner`.
_STAGE_ENV_KNOBS = (
    "REPRO_BULK",
    "REPRO_FASTPATH",
    "REPRO_LEDGER",
    "REPRO_LEDGER_AUDIT",
)

#: run() keyword arguments the DAG planner understands.  Anything else
#: (unknown overrides) falls back to a monolithic experiment stage.
_PLANNABLE_KWARGS = frozenset({"events", "seed", "workloads", "old_kernel"})


@dataclass(frozen=True)
class EvalPlan:
    """Declarative stage plan for a catalog-loop experiment.

    Experiments whose ``run()`` is "for each workload, evaluate these
    regimes, then assemble rows" declare one of these (module-level
    ``STAGE_PLAN``) and the planner derives the full DAG.  ``old_kernel``
    is the fixed default for wrappers like fig16/fig17 whose ``run()``
    hard-codes the Appendix A cost model; a ``run_kwargs`` override
    still wins when the experiment accepts one.
    """

    regimes: Tuple[str, ...]
    old_kernel: bool = False


@dataclass(frozen=True)
class FleetPlan:
    """Declarative stage plan for the fleet-serving experiment.

    Expands to load + calibration provenance stages shared by one
    ``fleet-eval`` stage per dispatch policy, feeding the terminal
    analysis.  Parameter resolution is delegated to
    :func:`repro.experiments.fleet_serving.resolve_params` so staged
    and flat runs derive identical :class:`~repro.kernel.fleet.FleetParams`.
    """

    policies: Tuple[str, ...]


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
    flat_digest: str  # the flat engine's result_key, for the results/ tier
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
        "env": {name: os.environ.get(name) for name in _STAGE_ENV_KNOBS},
    }
    return result_cache.params_digest(payload)


def build_plan(
    experiment_id: str,
    plan: "EvalPlan | FleetPlan",
    run_kwargs: Mapping[str, Any],
    flat_digest: str,
) -> Optional[ExperimentPlan]:
    """Expand a declarative :class:`EvalPlan` into a concrete DAG.

    Returns ``None`` when ``run_kwargs`` carries overrides the planner
    does not understand — the caller then falls back to a monolithic
    experiment stage, which executes the exact flat-engine semantics.
    """
    if isinstance(plan, FleetPlan):
        return _build_fleet_plan(experiment_id, plan, run_kwargs, flat_digest)
    if not _PLANNABLE_KWARGS.issuperset(run_kwargs):
        return None
    names = tuple(run_kwargs.get("workloads") or tuple(CATALOG))
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

    eval_keys: List[str] = []
    for name in names:
        # Trace and calibration are cost-model independent (calibration
        # always solves W against the modern-kernel costs — see
        # runner.build_context), so modern and old-kernel experiments
        # share these stages; only evals key on ``old_kernel``.
        trace_key = add(
            KIND_TRACE,
            f"trace:{name}",
            {"workload": name, "events": events, "seed": seed},
        )
        calib_key = add(
            KIND_CALIBRATION,
            f"calibration:{name}",
            {"workload": name, "events": events, "seed": seed, "compiler": "binary_tree"},
            (trace_key,),
        )
        for regime in plan.regimes:
            eval_keys.append(
                add(
                    KIND_EVAL,
                    f"eval:{name}:{regime}" + (":old-kernel" if old_kernel else ""),
                    {
                        "workload": name,
                        "events": events,
                        "seed": seed,
                        "regime": regime,
                        "old_kernel": old_kernel,
                    },
                    (trace_key, calib_key),
                )
            )
    terminal = add(
        KIND_ANALYSIS,
        f"analysis:{experiment_id}",
        {"experiment_id": experiment_id, "run_kwargs": dict(run_kwargs)},
        tuple(eval_keys),
    )
    return ExperimentPlan(
        experiment_id=experiment_id,
        run_kwargs=dict(run_kwargs),
        flat_digest=flat_digest,
        stages=stages,
        terminal=terminal,
    )


def _build_fleet_plan(
    experiment_id: str,
    plan: FleetPlan,
    run_kwargs: Mapping[str, Any],
    flat_digest: str,
) -> Optional[ExperimentPlan]:
    """Expand a :class:`FleetPlan` into load/calibration/eval stages."""
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

    load_key = add(KIND_FLEET_LOAD, "fleet-load", {"fleet": fleet})
    calib_key = add(KIND_FLEET_CALIBRATION, "fleet-calibration", {"fleet": fleet})
    eval_keys = tuple(
        add(
            KIND_FLEET_EVAL,
            f"fleet-eval:{policy}",
            {"fleet": fleet, "policy": policy},
            (load_key, calib_key),
        )
        for policy in plan.policies
    )
    terminal = add(
        KIND_ANALYSIS,
        f"analysis:{experiment_id}",
        {"experiment_id": experiment_id, "run_kwargs": dict(run_kwargs)},
        eval_keys,
    )
    return ExperimentPlan(
        experiment_id=experiment_id,
        run_kwargs=dict(run_kwargs),
        flat_digest=flat_digest,
        stages=stages,
        terminal=terminal,
    )


def monolithic_plan(
    experiment_id: str, run_kwargs: Mapping[str, Any], flat_digest: str
) -> ExperimentPlan:
    """Single-stage plan wrapping the whole ``run()`` (non-DAG experiments)."""
    params = {"experiment_id": experiment_id, "run_kwargs": dict(run_kwargs)}
    key = _stage_digest(KIND_EXPERIMENT, params, ())
    stage = Stage(
        key=key, kind=KIND_EXPERIMENT, label=f"run:{experiment_id}", params=params, deps=()
    )
    return ExperimentPlan(
        experiment_id=experiment_id,
        run_kwargs=dict(run_kwargs),
        flat_digest=flat_digest,
        stages={key: stage},
        terminal=key,
    )


# -- in-memory stage tier ----------------------------------------------
#
# A small LRU of hot stage payloads sitting *above* the ``stages/``
# disk tier: a repeat hit is served without a stat, file read, or JSON
# parse.  Safe because stage digests are fully content-addressed (code
# fingerprint, format versions, env knobs, dep digests) — a payload
# valid on disk under a digest is equally valid in memory under it.
# Disabled by default (limit 0): batch CLI runs gain little, and tests
# that corrupt the disk tier to force re-execution must keep seeing
# the disk as the source of truth.  The experiment service turns it on.

_STAGE_MEMORY_LOCK = threading.Lock()
_STAGE_MEMORY: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
_STAGE_MEMORY_LIMIT = 0
_STAGE_MEMORY_STATS = {"hits": 0, "misses": 0, "stored": 0, "evicted": 0}


def configure_stage_memory(limit: int) -> None:
    """Set the in-memory tier's capacity (entries); 0 disables it."""
    global _STAGE_MEMORY_LIMIT
    with _STAGE_MEMORY_LOCK:
        _STAGE_MEMORY_LIMIT = max(0, int(limit))
        while len(_STAGE_MEMORY) > _STAGE_MEMORY_LIMIT:
            _STAGE_MEMORY.popitem(last=False)
            _STAGE_MEMORY_STATS["evicted"] += 1


def reset_stage_memory() -> None:
    """Drop all entries and zero the counters (tests, code drift)."""
    with _STAGE_MEMORY_LOCK:
        _STAGE_MEMORY.clear()
        for name in _STAGE_MEMORY_STATS:
            _STAGE_MEMORY_STATS[name] = 0


def stage_memory_stats() -> Dict[str, int]:
    with _STAGE_MEMORY_LOCK:
        snapshot = dict(_STAGE_MEMORY_STATS)
        snapshot["entries"] = len(_STAGE_MEMORY)
        snapshot["limit"] = _STAGE_MEMORY_LIMIT
    return snapshot


def _stage_memory_get(kind: str, key: str) -> Any:
    with _STAGE_MEMORY_LOCK:
        if _STAGE_MEMORY_LIMIT <= 0:
            return None
        entry = _STAGE_MEMORY.get((kind, key))
        if entry is None:
            _STAGE_MEMORY_STATS["misses"] += 1
            return None
        _STAGE_MEMORY.move_to_end((kind, key))
        _STAGE_MEMORY_STATS["hits"] += 1
        return entry


def _stage_memory_put(kind: str, key: str, payload: Any) -> None:
    with _STAGE_MEMORY_LOCK:
        if _STAGE_MEMORY_LIMIT <= 0:
            return
        _STAGE_MEMORY[(kind, key)] = payload
        _STAGE_MEMORY.move_to_end((kind, key))
        _STAGE_MEMORY_STATS["stored"] += 1
        while len(_STAGE_MEMORY) > _STAGE_MEMORY_LIMIT:
            _STAGE_MEMORY.popitem(last=False)
            _STAGE_MEMORY_STATS["evicted"] += 1


# -- stage executors (run in workers; must stay module-top-level) -------


def _run_trace_stage(params: Mapping[str, Any]) -> Dict[str, Any]:
    spec = CATALOG[params["workload"]]
    trace = runner._trace_for(spec, params["events"], params["seed"])
    # The trace itself lands in the persistent context cache (or the
    # in-process memo); the stage payload is just a manifest.
    return {"events": len(trace)}


def _run_calibration_stage(params: Mapping[str, Any]) -> Dict[str, Any]:
    spec = CATALOG[params["workload"]]
    trace = runner._trace_for(spec, params["events"], params["seed"])
    bundle = runner._bundle_for(spec, params["seed"])
    work = runner.calibrate_work_cycles(
        spec, trace, bundle, DEFAULT_SW_COSTS, params["compiler"], seed=params["seed"]
    )
    return {"work_cycles": work}


def _run_eval_stage(params: Mapping[str, Any]) -> Dict[str, Any]:
    ctx = get_context(
        params["workload"],
        events=params["events"],
        seed=params["seed"],
        old_kernel=params["old_kernel"],
    )
    return ctx.evaluate(params["regime"]).to_json_dict()


def _run_fleet_params(params: Mapping[str, Any]):
    from repro.kernel.fleet import FleetParams

    fleet = params["fleet"]
    return FleetParams(
        tenants=int(fleet["tenants"]),
        invocations=int(fleet["invocations"]),
        seed=int(fleet["seed"]),
    )


def _run_fleet_load_stage(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.experiments import fleet_serving

    load = fleet_serving.fleet_load(_run_fleet_params(params))
    # Provenance manifest only: the eval stages read the load itself
    # from fleet_serving's in-process memo.
    return {
        "invocations": len(load),
        "last_arrival_ms": round(load[-1].arrival_ms, 3),
    }


def _run_fleet_calibration_stage(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.experiments import fleet_serving

    classes = fleet_serving.fleet_classes(_run_fleet_params(params))
    return {
        "classes": len(classes),
        "footprint_bytes": [c.footprint_bytes for c in classes],
    }


def _run_fleet_eval_stage(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.experiments import fleet_serving

    return fleet_serving.eval_payload(_run_fleet_params(params), params["policy"])


def _run_analysis_stage(
    params: Mapping[str, Any], dep_info: Sequence[Tuple[str, Dict[str, Any], Any]]
) -> Dict[str, Any]:
    from repro.experiments.registry import by_id

    for kind, dep_params, payload in dep_info:
        if kind == KIND_FLEET_EVAL:
            from repro.experiments import fleet_serving

            fleet_serving.seed_eval(dep_params, payload)
            continue
        if kind != KIND_EVAL:
            continue
        ctx = get_context(
            dep_params["workload"],
            events=dep_params["events"],
            seed=dep_params["seed"],
            old_kernel=dep_params["old_kernel"],
        )
        ctx.seed_evaluation(dep_params["regime"], RunResult.from_json_dict(payload))
    result = by_id(params["experiment_id"]).run(**params["run_kwargs"])
    return result.to_json_dict()


def _run_experiment_stage(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.experiments.registry import by_id

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
    trust environment inherited at fork time (see
    :func:`repro.experiments.engine._execute_one`).

    Returns a JSON/pickle-safe envelope; never raises.  Intermediate
    payloads are written to the ``stages/`` tier here (in the worker,
    which already holds the payload); terminal payloads go to the flat
    ``results/`` tier exactly like the flat engine's workers.
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
        if kind == KIND_TRACE:
            payload = _run_trace_stage(params)
        elif kind == KIND_CALIBRATION:
            payload = _run_calibration_stage(params)
        elif kind == KIND_EVAL:
            payload = _run_eval_stage(params)
        elif kind == KIND_FLEET_LOAD:
            payload = _run_fleet_load_stage(params)
        elif kind == KIND_FLEET_CALIBRATION:
            payload = _run_fleet_calibration_stage(params)
        elif kind == KIND_FLEET_EVAL:
            payload = _run_fleet_eval_stage(params)
        elif kind == KIND_ANALYSIS:
            payload = _run_analysis_stage(params, dep_info)
        elif kind == KIND_EXPERIMENT:
            payload = _run_experiment_stage(params)
        else:
            raise RuntimeError(f"unknown stage kind {kind!r}")
    except Exception:
        out["error"] = traceback.format_exc()
    else:
        out["payload"] = payload
        if kind in _INTERMEDIATE_KINDS:
            if cache_mode != CACHE_OFF and result_cache.cache_enabled():
                result_cache.ResultCache().store_stage(kind, key, payload)
                out["stored"] = True
        elif cache_mode in (CACHE_ON, CACHE_REFRESH):
            result_cache.ResultCache().store_result(
                params["experiment_id"],
                result_digest,
                ExperimentResult.from_json_dict(payload),
            )
            out["stored"] = True
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
    order — the same envelope the flat engine's workers produce, so
    :func:`repro.experiments.engine.run_suite` assembles outcomes
    identically on both paths.  Must be called with the cache
    overrides already applied (run_suite does this); ``cache_dir`` is
    the resolved root, forwarded to pool workers as a task argument.
    """
    from repro.experiments.registry import by_id

    store = result_cache.ResultCache()
    prebuilt: Dict[int, Dict[str, Any]] = {}
    plans: List[Tuple[int, ExperimentPlan]] = []

    for index, (experiment_id, run_kwargs) in enumerate(tasks):
        experiment = by_id(experiment_id)
        flat_digest = store.result_key(experiment_id, run_kwargs)
        if cache_mode == CACHE_ON:
            probe_started = time.perf_counter()
            cached = store.load_result(experiment_id, flat_digest)
            if cached is not None:
                # Whole result cached: serve it without touching the
                # subgraph, same as the flat engine's warm path.
                record = telemetry.ExperimentRecord(
                    experiment_id=experiment_id,
                    title=experiment.title,
                    cache=telemetry.CACHE_HIT,
                    wall_time_s=time.perf_counter() - probe_started,
                    params_digest=flat_digest,
                    simulation=telemetry.SimulationCounters().as_dict(),
                )
                prebuilt[index] = {
                    "result": cached.to_json_dict(),
                    "record": record.to_json_dict(),
                }
                continue
        plan = None
        if getattr(experiment, "stage_plan", None) is not None:
            plan = build_plan(experiment_id, experiment.stage_plan, run_kwargs, flat_digest)
        if plan is None:
            plan = monolithic_plan(experiment_id, run_kwargs, flat_digest)
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
    terminal_digest = {plan.terminal: plan.flat_digest for _, plan in plans}

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
            if stage.kind in _INTERMEDIATE_KINDS:
                # Memory tier first (service hot path: no stat, no JSON
                # parse), then the stages/ disk tier, which backfills
                # the memory tier on a hit.
                cached = _stage_memory_get(stage.kind, key)
                if cached is None:
                    cached = store.load_stage(stage.kind, key)
                    if cached is not None:
                        _stage_memory_put(stage.kind, key, cached)
                if cached is not None:
                    payloads[key] = cached
                    status[key] = "hit"
                    done.add(key)

    # Prune to the stages actually needed: the transitive dependency
    # closure of unsatisfied terminals.  (A trace stage whose evals all
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
        if stages[key].kind in _INTERMEDIATE_KINDS and cache_mode != CACHE_OFF:
            _stage_memory_put(stages[key].kind, key, out["payload"])
        ready: List[str] = []
        for dependent in dependents.get(key, ()):
            unmet[dependent] -= 1
            if unmet[dependent] == 0 and dependent not in failed:
                ready.append(dependent)
        return ready

    def _submit_args(key: str):
        stage = stages[key]
        dep_info: List[Tuple[str, Dict[str, Any], Any]] = []
        if stage.kind == KIND_ANALYSIS:
            dep_info = [
                (stages[d].kind, dict(stages[d].params), payloads[d])
                for d in stage.deps
            ]
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
        # Insertion order is topological, so a single pass suffices.
        for key in order:
            if key in failed:
                continue
            _finish(_execute_stage(*_submit_args(key)))
    elif order:
        with warm_pool.suite_executor(jobs, len(order)) as executor:
            futures: Dict[Any, str] = {}
            ready = [key for key in order if unmet[key] == 0]
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
            else telemetry.SimulationCounters().as_dict()
        )
        simulation["stages"] = {"counters": counters, "detail": detail}
        record = telemetry.ExperimentRecord(
            experiment_id=plan.experiment_id,
            title=experiment.title,
            status="failed" if error else "ok",
            cache=suite_cache_status,
            wall_time_s=owned_elapsed,
            cpu_time_s=owned_elapsed,
            params_digest=plan.flat_digest,
            error=error,
            simulation=simulation,
        )
        out[index] = {
            "result": payloads.get(plan.terminal) if not error else None,
            "record": record.to_json_dict(),
        }
    return out  # type: ignore[return-value]
