"""Span recorder and the entry-point wrappers that feed it.

Spans are recorded from outside the program: :func:`install` rebinds
every reference to each layer entry point -- module globals bound by
``from ... import``, class attributes, and the ``run`` held by each
frozen registry ``Experiment`` -- to a wrapper that opens a span around
the call, and :func:`uninstall` puts every original back.  Nothing under
``src/`` changes.

A span carries a name (its layer), start and end on the system-wide
monotonic clock, its parent span, the process id, one id per suite run
and a few counters.  Spans stay in memory.  A forked pool worker
inherits the wrappers; it appends its spans to
``<spill_dir>/spans-<pid>.jsonl`` each time one of its root spans
closes, and the parent reads them back once the pool is shut down
(:meth:`Recorder.collect_spilled`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Regime-name prefix -> simulator family.  ``seccomp-bitmap`` must be
#: tried before ``seccomp``.
_FAMILIES = (
    ("insecure", "insecure"),
    ("seccomp-bitmap", "bitmap"),
    ("seccomp", "seccomp"),
    ("draco-sw", "draco-sw"),
    ("draco-hw", "draco-hw"),
)

SIM_FAMILIES = ("insecure", "seccomp", "draco-sw", "draco-hw", "bitmap")
SIM_TIERS = ("analytic", "sampled", "exact")
CACHE_TIERS = ("results", "stages", "contexts", "calibration")


@dataclass
class Span:
    id: str
    parent: Optional[str]
    name: str
    start: float
    end: float = 0.0
    pid: int = 0
    run: str = ""
    tag: str = ""
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store for one process and the workers it forks."""

    def __init__(self, run_id: str, spill_dir: Optional[str] = None) -> None:
        self.run_id = run_id
        self.spill_dir = spill_dir
        self.origin_pid = os.getpid()
        self._pid = self.origin_pid
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next = 0

    def open(self, name: str) -> Span:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: drop the parent's copies.
            self._pid = pid
            self.spans = []
            self._stack = []
        self._next += 1
        span = Span(
            id=f"{pid}:{self._next}",
            parent=self._stack[-1].id if self._stack else None,
            name=name,
            start=time.perf_counter(),
            pid=pid,
            run=self.run_id,
        )
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        while self._stack:
            if self._stack.pop() is span:
                break
        self.spans.append(span)
        if not self._stack and self._pid != self.origin_pid and self.spill_dir:
            with (Path(self.spill_dir) / f"spans-{self._pid}.jsonl").open("a") as handle:
                for done in self.spans:
                    handle.write(json.dumps(asdict(done)) + "\n")
            self.spans = []

    def collect_spilled(self) -> List[Span]:
        """Spans that forked workers appended to the spill directory."""
        if not self.spill_dir:
            return []
        return [
            Span(**json.loads(line))
            for path in sorted(Path(self.spill_dir).glob("spans-*.jsonl"))
            for line in path.read_text().splitlines()
            if line.strip()
        ]


def write_trace(path: str, spans: Sequence[Span]) -> None:
    """Write spans out as JSON lines, in start order."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        for span in sorted(spans, key=lambda s: s.start):
            handle.write(json.dumps(asdict(span)) + "\n")


# -- self time -------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    low = high = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if high is None or start > high:
            if high is not None:
                total += high - low
            low, high = start, end
        elif end > high:
            high = end
    if high is not None:
        total += high - low
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> its duration minus the part its children cover.

    Children may overlap one another (work in several processes under
    one parent); the union of their intervals, clipped to the parent,
    is what is subtracted.
    """
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {
        span.id: span.duration
        - covered(
            (max(kid.start, span.start), min(kid.end, span.end))
            for kid in children.get(span.id, ())
        )
        for span in spans
    }


# -- classification --------------------------------------------------------


def regime_family(regime_name: str) -> str:
    """Simulator family of a regime, or ``"unclassified"``, which
    :func:`layer_metrics` rejects rather than drop the span."""
    for prefix, family in _FAMILIES:
        if regime_name.startswith(prefix):
            return family
    return "unclassified"


def result_tier(result: Any) -> str:
    """Kernel tier that produced a ``RunResult``: ``exact`` when the exact
    kernels ran, ``sampled`` when the analytic tier extrapolated from a
    sample, ``analytic`` when it replayed the whole window."""
    info = result.analytic
    if info is None:
        return "exact"
    return "sampled" if info.mode == "sampled" else "analytic"


# -- wrappers --------------------------------------------------------------


def _wrap(recorder: Recorder, name: Any, func: Callable, annotate: Any = None) -> Callable:
    """``func`` inside a span named ``name``, or ``name(args, kwargs)``
    when ``name`` is callable.  ``annotate(span, args, result)`` fills
    the counters after the span's end is taken."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.open(name if isinstance(name, str) else name(args, kwargs))
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            span.end = time.perf_counter()
            if annotate is not None:
                annotate(span, args, result)
            recorder.close(span)

    return wrapper


def _count_events(span: Span, args, result) -> None:
    if result is not None:
        span.counts["events"] = len(result)


def _sim_name(args, kwargs) -> str:
    regime = args[1] if len(args) > 1 else kwargs["regime"]
    return "simulator." + regime_family(regime.name)


def _sim_annotate(span: Span, args, result) -> None:
    if result is not None:
        span.tag = result_tier(result)
        span.counts["events"] = result.events_measured + result.warmup_events


def _multicore_annotate(span: Span, args, result) -> None:
    if result is not None:
        span.counts["syscalls"] = result.total_syscalls


def _fleet_annotate(span: Span, args, result) -> None:
    if result is not None:
        span.counts["invocations"] = result.invocations


def _wait_annotate(span: Span, args, result) -> None:
    if result is not None:
        span.counts["tasks"] = len(result.done)


def _cache_annotate(tier: str, path_of: Callable, read: bool) -> Callable:
    """Cache loads return ``None`` on a miss: a miss is a read of its
    tier with no hit and no bytes."""

    def annotate(span: Span, args, result) -> None:
        span.tag = tier
        if read and result is None:
            return
        span.counts["hit"] = 1
        try:
            span.counts["bytes"] = path_of(*args).stat().st_size
        except OSError:
            pass

    return annotate


#: ``(span name, module, function, annotate)`` for module functions.
FUNCTIONS: Tuple[Tuple[Any, str, str, Any], ...] = (
    ("workloads", "repro.workloads.generator", "generate_trace", _count_events),
    ("workloads", "repro.workloads.generator", "profile_trace", _count_events),
    ("seccomp", "repro.seccomp.toolkit", "generate_bundle", None),
    ("seccomp", "repro.seccomp.profiles.docker_default", "build_docker_default", None),
    ("bpf", "repro.bpf.compile", "compile_program", None),
    ("runner.context", "repro.experiments.runner", "build_context", None),
    ("runner.calibrate", "repro.experiments.runner", "calibrate_work_cycles", None),
    ("seccomp_replay", "repro.experiments.seccomp_replay", "replay_evaluation", None),
    (_sim_name, "repro.kernel.simulator", "run_trace", _sim_annotate),
    ("fleet.load", "repro.kernel.fleet", "generate_load", None),
    ("fleet.calibrate", "repro.kernel.fleet", "calibrate_classes", None),
    ("fleet.serve", "repro.kernel.fleet", "simulate_fleet", _fleet_annotate),
    ("serialize", "repro.syscalls.serialize", "dumps", None),
    ("serialize", "repro.syscalls.serialize", "loads", None),
    ("stages", "repro.experiments.stages", "execute_suite", None),
    ("pool", "repro.experiments.pool", "get_pool", None),
    # The stage scheduler's ``concurrent.futures.wait``: the parent
    # blocked on pool futures.
    ("pool.wait", "repro.experiments.stages", "wait", _wait_annotate),
)

#: ``ResultCache`` method -> (tier, is a read, path of the entry).
CACHE_METHODS: Dict[str, Tuple[str, bool, Callable]] = {
    "load_result": ("results", True, lambda c, eid, d, *_: c.result_path(eid, d)),
    "store_result": ("results", False, lambda c, eid, d, *_: c.result_path(eid, d)),
    "load_stage": ("stages", True, lambda c, kind, d, *_: c.stage_path(kind, d)),
    "store_stage": ("stages", False, lambda c, kind, d, *_: c.stage_path(kind, d)),
    "load_context": ("contexts", True, lambda c, kind, d, *_: c.context_path(kind, d)),
    "store_context": ("contexts", False, lambda c, kind, d, *_: c.context_path(kind, d)),
    "load_trace_context": (
        "contexts", True, lambda c, d, *_: c.context_path("trace", d, suffix=".jsonl")
    ),
    "store_trace_context": (
        "contexts", False, lambda c, d, *_: c.context_path("trace", d, suffix=".jsonl")
    ),
    "load_calibration": ("calibration", True, lambda c, d, *_: c.calibration_path(d)),
    "store_calibration": ("calibration", False, lambda c, d, *_: c.calibration_path(d)),
}

#: ``ExperimentResult`` JSON round-trips and rendering.
RESULT_METHODS = ("to_json_dict", "from_json_dict", "to_json", "to_markdown")


class Installation:
    """Every rebinding :func:`install` made, undone by :func:`uninstall`."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def rebind(self, target: Any, name: str, value: Any) -> None:
        # A class's own __dict__ entry keeps classmethod objects intact.
        original = vars(target)[name]
        setattr(target, name, value)
        self._undo.append(lambda: setattr(target, name, original))

    def rebind_frozen(self, target: Any, name: str, value: Any) -> None:
        original = getattr(target, name)
        object.__setattr__(target, name, value)
        self._undo.append(lambda: object.__setattr__(target, name, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _rebind_everywhere(installation: Installation, original: Any, wrapper: Any) -> int:
    """Point every ``repro`` module global bound to ``original`` at
    ``wrapper``; returns how many bindings moved."""
    moved = 0
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                installation.rebind(module, attr, wrapper)
                moved += 1
    return moved


def install(recorder: Recorder) -> Installation:
    """Wrap every layer entry point of the imported program."""
    installation = Installation()
    try:
        for name, module_name, attr, annotate in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = _wrap(recorder, name, original, annotate)
            if not _rebind_everywhere(installation, original, wrapper):
                raise RuntimeError(f"{module_name}.{attr}: nothing to rebind")

        from repro.experiments.cache import ResultCache
        from repro.experiments.registry import REGISTRY
        from repro.experiments.results import ExperimentResult
        from repro.kernel.multicore import MultiCoreSystem

        for method, (tier, read, path_of) in CACHE_METHODS.items():
            wrapper = _wrap(
                recorder,
                "cache.read" if read else "cache.write",
                vars(ResultCache)[method],
                _cache_annotate(tier, path_of, read),
            )
            installation.rebind(ResultCache, method, wrapper)

        for method in RESULT_METHODS:
            original = vars(ExperimentResult)[method]
            if isinstance(original, classmethod):
                wrapper = classmethod(_wrap(recorder, "results", original.__func__))
            else:
                wrapper = _wrap(recorder, "results", original)
            installation.rebind(ExperimentResult, method, wrapper)

        installation.rebind(
            MultiCoreSystem,
            "run",
            _wrap(recorder, "multicore", vars(MultiCoreSystem)["run"], _multicore_annotate),
        )

        # Each experiment's run(): the frozen registry entry and every
        # module global bound to the same function (fig16 calls fig2's).
        for experiment in REGISTRY:
            wrapper = _wrap(recorder, "analysis", experiment.run)
            _rebind_everywhere(installation, experiment.run, wrapper)
            installation.rebind_frozen(experiment, "run", wrapper)
    except BaseException:
        installation.undo()
        raise
    return installation


def uninstall(installation: Installation) -> None:
    installation.undo()


# -- per-layer metrics -----------------------------------------------------

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("workloads.self_s", "s"), ("workloads.calls", "count"), ("workloads.events", "events"),
    ("seccomp.self_s", "s"), ("seccomp.calls", "count"),
    ("bpf.self_s", "s"), ("bpf.calls", "count"),
    ("runner.context.self_s", "s"), ("runner.context.calls", "count"),
    ("runner.calibrate.self_s", "s"), ("runner.calibrate.calls", "count"),
    ("seccomp_replay.self_s", "s"), ("seccomp_replay.calls", "count"),
    *(
        (f"simulator.{family}.{metric}", unit)
        for family in SIM_FAMILIES
        for metric, unit in (("self_s", "s"), ("events", "events"))
    ),
    *((f"simulator.{tier}.calls", "count") for tier in SIM_TIERS),
    ("multicore.self_s", "s"), ("multicore.syscalls", "count"),
    ("fleet.load.self_s", "s"), ("fleet.load.calls", "count"),
    ("fleet.calibrate.self_s", "s"), ("fleet.calibrate.calls", "count"),
    ("fleet.serve.self_s", "s"), ("fleet.invocations", "count"),
    ("cache.read.self_s", "s"), ("cache.read.calls", "count"), ("cache.read.bytes", "bytes"),
    ("cache.write.self_s", "s"), ("cache.write.calls", "count"), ("cache.write.bytes", "bytes"),
    *((f"cache.{tier}.hit_ratio", "ratio") for tier in CACHE_TIERS),
    ("serialize.self_s", "s"),
    ("stages.self_s", "s"), ("stages.executed", "count"), ("stages.hit", "count"),
    ("stages.dedup", "count"),
    ("pool.self_s", "s"), ("pool.tasks", "count"),
    ("analysis.self_s", "s"), ("analysis.calls", "count"),
    ("results.self_s", "s"),
    ("unattributed_s", "s"), ("trace_overhead_ratio", "ratio"),
)

#: Span names whose self time is a layer's ``self_s`` (and whose spans
#: are its ``calls``, where the layer has that metric).
LAYERS = (
    "workloads", "seccomp", "bpf", "runner.context", "runner.calibrate",
    "seccomp_replay", *(f"simulator.{family}" for family in SIM_FAMILIES),
    "multicore", "fleet.load", "fleet.calibrate", "fleet.serve",
    "cache.read", "cache.write", "serialize", "stages", "analysis", "results",
)


def layer_metrics(
    spans: Sequence[Span], origin_pid: int, wall_s: float, stage_counters: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer metrics of one traced timed phase.

    ``unattributed_s`` is ``wall_s`` minus what the origin process's
    spans cover, so on a serial run the layers' ``self_s`` plus
    ``unattributed_s`` add up to ``wall_s``.  ``pool.self_s`` is pool
    start-up plus the part of the parent's waits on pool futures that
    no worker span covers.  ``trace_overhead_ratio`` needs the untraced
    wall, which the caller holds; it is left at 0 here.
    """
    unknown = sorted({s.name for s in spans} - set(LAYERS) - {"pool", "pool.wait"})
    if unknown:
        raise ValueError(f"spans outside every layer: {unknown}")
    own = self_times(spans)
    out: Dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
    reads = {tier: [0, 0] for tier in CACHE_TIERS}  # tier -> [loads, hits]
    worker_roots = [
        (s.start, s.end) for s in spans if s.pid != origin_pid and s.parent is None
    ]
    for span in spans:
        if span.name in LAYERS:
            out[f"{span.name}.self_s"] += own[span.id]
            if f"{span.name}.calls" in out:
                out[f"{span.name}.calls"] += 1
        counts = span.counts
        if span.name == "workloads":
            out["workloads.events"] += counts.get("events", 0)
        elif span.name.startswith("simulator."):
            out[f"{span.name}.events"] += counts.get("events", 0)
            if span.tag:
                out[f"simulator.{span.tag}.calls"] += 1
        elif span.name == "multicore":
            out["multicore.syscalls"] += counts.get("syscalls", 0)
        elif span.name == "fleet.serve":
            out["fleet.invocations"] += counts.get("invocations", 0)
        elif span.name in ("cache.read", "cache.write"):
            out[f"{span.name}.bytes"] += counts.get("bytes", 0)
            if span.name == "cache.read":
                reads[span.tag][0] += 1
                reads[span.tag][1] += int(counts.get("hit", 0))
        elif span.name == "pool":
            out["pool.self_s"] += own[span.id]
        elif span.name == "pool.wait":
            busy = covered(
                (max(start, span.start), min(end, span.end)) for start, end in worker_roots
            )
            out["pool.self_s"] += span.duration - busy
            out["pool.tasks"] += counts.get("tasks", 0)
    for tier, (loads, hits) in reads.items():
        out[f"cache.{tier}.hit_ratio"] = hits / loads if loads else 0.0
    for outcome in ("executed", "hit", "dedup"):
        out[f"stages.{outcome}"] = float(stage_counters.get(outcome, 0))
    out["unattributed_s"] = wall_s - sum(own[s.id] for s in spans if s.pid == origin_pid)
    return out


#: Layers each workload must record at least one span for when traced.
EXPECTED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "suite-cold": (
        "workloads", "seccomp", "bpf", "runner.context", "runner.calibrate",
        "seccomp_replay", "simulator", "fleet.load", "fleet.calibrate", "fleet.serve",
        "cache.read", "cache.write", "serialize", "stages", "analysis", "results",
    ),
    "suite-warm": ("runner.context", "cache.read", "serialize", "stages", "analysis", "results"),
    "sim-exact": ("simulator", "multicore"),
}
EXPECTED_LAYERS["suite-cold-j2"] = EXPECTED_LAYERS["suite-cold"] + ("pool", "pool.wait")


def missing_layers(workload: str, spans: Sequence[Span]) -> List[str]:
    """Layers the workload should exercise that recorded no span."""
    seen = {span.name for span in spans} | {span.name.split(".")[0] for span in spans}
    return [layer for layer in EXPECTED_LAYERS[workload] if layer not in seen]


def outside_window(
    spans: Sequence[Span], origin_pid: int, start: float, end: float
) -> List[str]:
    """Names of the origin process's root spans that are not inside the
    timed window ``[start, end]``: time :func:`layer_metrics` would
    attribute to a layer although the wall never covered it."""
    return [
        span.name
        for span in spans
        if span.pid == origin_pid
        and span.parent is None
        and not (start <= span.start and span.end <= end)
    ]
