"""Experiment engine: runs a suite through the stage graph.

Runs registry entries through the stage-graph orchestrator
(:mod:`repro.experiments.stages`), serially when ``jobs=1`` or across
a process pool otherwise, with:

* **deterministic seeding** — with a root ``seed``, every experiment
  gets ``derive_seed(seed, experiment_id)``, so results depend only on
  the root seed and the experiment's identity, never on scheduling
  order or worker assignment.  Without a root seed each experiment
  keeps its module default, matching historical output exactly;
* **result ordering** — outcomes are collected in request order
  regardless of completion order, so ``--jobs N`` output is
  byte-identical to ``--serial``;
* **failure isolation** — an experiment that raises, or whose worker
  dies, produces a ``failed`` record carrying the traceback; the rest
  of the suite completes normally;
* **on-disk caching** — results are served from
  :class:`repro.experiments.cache.ResultCache` when the experiment's
  code fingerprint and parameters match a previous run.

Cache coordination is explicit: ``run_suite`` resolves the cache
directory and mode once, applies them context-locally through
:func:`repro.common.storage.cache_overrides` (never by mutating
``os.environ``), and threads them to every worker as task arguments —
the worker entry point re-applies them, since context variables do
not survive ``fork`` into pool workers.  The environment variables
remain the outer defaults for callers that set nothing.

Parallel suites run on the persistent warm pool
(:mod:`repro.experiments.pool`): workers are forked once per process
lifetime with preloaded memos and reused across calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.common import storage, telemetry
from repro.common.rng import derive_seed
from repro.experiments import cache as result_cache
from repro.experiments import stages as stage_graph
from repro.experiments.registry import REGISTRY, by_id
from repro.experiments.results import ExperimentResult

#: Cache behaviour modes for one engine run.
CACHE_ON = "on"
CACHE_OFF = "off"
CACHE_REFRESH = "refresh"  # recompute everything, then repopulate


@dataclass
class ExperimentOutcome:
    """Result + telemetry for one executed (or cache-served) experiment."""

    experiment_id: str
    result: Optional[ExperimentResult]
    record: telemetry.ExperimentRecord

    @property
    def ok(self) -> bool:
        return self.record.ok


@dataclass
class SuiteRun:
    """Everything one engine invocation produced, in registry order."""

    outcomes: List[ExperimentOutcome] = field(default_factory=list)
    report: telemetry.RunReport = field(default_factory=telemetry.RunReport)

    @property
    def results(self) -> Dict[str, ExperimentResult]:
        return {o.experiment_id: o.result for o in self.outcomes if o.result is not None}

    @property
    def failures(self) -> List[ExperimentOutcome]:
        return [o for o in self.outcomes if not o.ok]


def _task_kwargs(
    experiment_id: str,
    events: Optional[int],
    seed: Optional[int],
    run_overrides: Optional[Mapping[str, Mapping[str, Any]]],
) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    if events is not None:
        kwargs["events"] = events
    if seed is not None:
        kwargs["seed"] = derive_seed(seed, experiment_id)
    if run_overrides and experiment_id in run_overrides:
        kwargs.update(run_overrides[experiment_id])
    return kwargs


def run_suite(
    experiment_ids: Optional[Sequence[str]] = None,
    *,
    events: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    cache_mode: str = CACHE_ON,
    cache_dir: Optional[str] = None,
    run_overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> SuiteRun:
    """Run a set of registry experiments, parallel when ``jobs > 1``.

    ``run_overrides`` maps experiment id to extra keyword arguments for
    its ``run()`` (e.g. a workload subset), applied after the shared
    ``events``/``seed``; unknown ids raise ``KeyError`` up front.
    """
    ids = list(experiment_ids) if experiment_ids else [e.experiment_id for e in REGISTRY]
    for experiment_id in ids:
        by_id(experiment_id)  # fail fast on unknown ids
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    # Cache settings are context-local, never process-global; workers
    # get the resolved root as an explicit task argument.
    with storage.cache_overrides(
        cache_dir=cache_dir, disable=(cache_mode == CACHE_OFF)
    ):
        resolved_root = str(result_cache.cache_root())
        report = telemetry.RunReport(
            jobs=jobs,
            events=events,
            seed=seed,
            code_fingerprint=result_cache.code_fingerprint(),
            cache_dir=resolved_root,
            started_at=time.time(),
        )
        payloads = stage_graph.execute_suite(
            [
                (experiment_id, _task_kwargs(experiment_id, events, seed, run_overrides))
                for experiment_id in ids
            ],
            jobs=jobs,
            cache_mode=cache_mode,
            cache_dir=resolved_root,
        )
        return _assemble_run(report, payloads)


def _assemble_run(
    report: telemetry.RunReport, payloads: List[Dict[str, Any]]
) -> SuiteRun:
    """Deserialize worker payloads into a SuiteRun, in payload order."""
    run = SuiteRun(report=report)
    for payload in payloads:
        record = telemetry.ExperimentRecord.from_json_dict(payload["record"])
        result = (
            ExperimentResult.from_json_dict(payload["result"])
            if payload["result"] is not None
            else None
        )
        run.outcomes.append(
            ExperimentOutcome(
                experiment_id=record.experiment_id, result=result, record=record
            )
        )
        report.records.append(record)
    report.finished_at = time.time()
    return run


def write_report(run: SuiteRun, path: Optional[str] = None) -> str:
    """Persist the run report; default under the cache's ``runs/`` dir.

    The report is written both to the requested path and to
    ``runs/latest.json`` so ``summary`` has a stable default to read.
    The runs dir lives under the cache root the *suite* resolved (the
    report's ``cache_dir``), not whatever the environment says now.
    """
    cache_base = run.report.cache_dir or str(result_cache.cache_root())
    runs_dir = Path(cache_base) / "runs"
    if path is None:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(run.report.started_at))
        path = str(runs_dir / f"run-{stamp}.json")
    run.report.write(path)
    run.report.write(runs_dir / "latest.json")
    return path
