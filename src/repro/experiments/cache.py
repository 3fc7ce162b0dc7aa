"""Content-addressed on-disk cache for experiment artifacts.

Draco's thesis is that repeated checking work should be validated once
and then served from a cache; this module applies the same discipline to
the experiment pipeline itself.  Two artifact kinds are cached:

* **experiment results** — the full :class:`ExperimentResult` of a
  registry entry, keyed by ``(experiment id, code fingerprint, params
  digest)``, so an unchanged experiment is instant on re-run;
* **calibration values** — the solved application work per syscall
  ``W`` from :func:`repro.experiments.runner.calibrate_work_cycles`,
  keyed by the full calibration input (workload spec, events, seed,
  cost params, compiler, code fingerprint), so rebuilding contexts
  skips the expensive filter-probe run.

The *code fingerprint* is a SHA-256 over every ``.py`` file under
``src/repro`` — any source edit invalidates the whole cache, which is
the safe direction for a research repo.  The *params digest* is a
SHA-256 of the canonical-JSON encoding of the run parameters.

A third tier is the **context cache**: the expensive inputs a
simulation consumes — materialised traces and derived profile bundles
— persisted so ``--refresh`` (or a regime-only change) re-runs
simulation without re-deriving contexts.  (Filter sweeps stay in
:mod:`repro.experiments.seccomp_replay`'s in-process memo.)
Context entries are versioned JSON documents keyed by
:func:`context_digest` (spec payload + parameters + code fingerprint +
``CONTEXT_FORMAT_VERSION``); traces use the index-column trace format from
:mod:`repro.syscalls.serialize`.  A corrupt, truncated, or
schema-drifted entry always reads as a miss and the caller rebuilds.

A fourth tier is the **stage cache** (``stages/``): intermediate
payloads of the stage-graph orchestrator
(:mod:`repro.experiments.stages`) — context manifests and full
evaluation ``RunResult`` / ``FleetResult`` JSON — keyed by content
digests that fold each stage's parameters, its upstream stage digests,
the code fingerprint, and ``STAGE_FORMAT_VERSION``.  Terminal analysis
results do *not* live here: they store in ``results/`` under the
whole-experiment digest, so a warm rerun is one read per experiment.

Layout (under :func:`cache_root`, default ``~/.cache/repro-draco`` or
``$REPRO_CACHE_DIR``)::

    results/<experiment_id>/<digest>.json    cached ExperimentResult
    stages/<kind>/<digest>.json              intermediate stage payloads
    calibration/<digest>.json                cached work-cycle value
    contexts/trace/<digest>.jsonl            index-column traces
    contexts/bundle/<digest>.json            derived profile bundles
    runs/latest.json                         most recent run report
    runs/run-<timestamp>.json                archived run reports

Set ``REPRO_CACHE_DISABLE=1`` (or pass ``--no-cache`` to the CLI) to
bypass every tier: a suite then runs as ``cache_mode="off"``.  All
writes are atomic (temp-file-then-rename) so concurrent engine workers
never observe a torn entry.  A write the cache directory refuses (read-only,
full, or not a directory) is skipped and counted in the run's
telemetry, so an unwritable cache degrades the run to uncached instead
of failing it.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.bpf.compile import COMPILER_VERSION
from repro.common import telemetry
from repro.common.analytic import ANALYTIC_VERSION, analytic_enabled
from repro.common.storage import (
    CACHE_DIR_ENV,
    CACHE_DISABLE_ENV,
    cache_enabled,
    cache_root,
)
from repro.common.storage import atomic_write_text as _atomic_write
from repro.common.storage import read_json as _read_json
from repro.kernel.simulator import SIM_KERNEL_VERSION
from repro.experiments.results import ExperimentResult
from repro.syscalls import serialize
from repro.syscalls.events import SyscallTrace

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_DISABLE_ENV",
    "CONTEXT_FORMAT_VERSION",
    "COMPILER_VERSION",
    "SIM_KERNEL_VERSION",
    "STAGE_FORMAT_VERSION",
    "ResultCache",
    "cache_enabled",
    "cache_root",
    "code_fingerprint",
    "context_digest",
    "params_digest",
    "spec_payload",
]

#: Version of the context-cache serialisation contract.  Bumped when
#: the on-disk shape of any context artifact changes, so stale entries
#: read as misses instead of deserialising into the wrong shape.
CONTEXT_FORMAT_VERSION = 1

#: Wrapper format marker on every generic context document.
_CONTEXT_FORMAT_NAME = "repro-context"

#: Version of the per-stage cache serialisation contract
#: (:mod:`repro.experiments.stages`).  Folded into every stage digest,
#: so bumping it invalidates the whole ``stages/`` tier at once.
#: Version 2: eval payloads are ``{regime: RunResult JSON}``.
STAGE_FORMAT_VERSION = 2

#: Wrapper format marker on every stage document.
_STAGE_FORMAT_NAME = "repro-stage"


@lru_cache(maxsize=1)
def _fingerprint_of_tree(package_root: str) -> str:
    digest = hashlib.sha256()
    root = Path(package_root)
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:20]


def code_fingerprint() -> str:
    """Fingerprint of the ``repro`` package source (any edit invalidates)."""
    return _fingerprint_of_tree(str(Path(__file__).resolve().parents[1]))


def params_digest(params: Mapping[str, Any]) -> str:
    """Digest of canonical-JSON-encoded parameters (order-insensitive)."""
    encoded = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(encoded.encode()).hexdigest()[:20]


def _store(path: Path, text: str) -> bool:
    """Write one cache entry; False (and counted) when the cache
    directory refuses it, so the run carries on uncached."""
    try:
        _atomic_write(path, text)
    except OSError:
        telemetry.count("cache_store_skipped")
        return False
    return True


class ResultCache:
    """On-disk store for :class:`ExperimentResult` payloads.

    Every ``store_*`` method returns whether the entry was written.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else cache_root()

    # -- experiment results --------------------------------------------

    def result_key(self, experiment_id: str, run_params: Mapping[str, Any]) -> str:
        payload = dict(run_params)
        payload["experiment_id"] = experiment_id
        payload["code"] = code_fingerprint()
        # The BPF filter compiler sits under every simulated check; a
        # semantics change there must invalidate cached results even if
        # it ships without a source diff (e.g. a vendored build).
        payload["bpf_compiler"] = COMPILER_VERSION
        # Likewise the simulation kernel's numerical contract: grouping
        # or summation-order changes alter result floats without any
        # experiment parameter changing.
        payload["sim_kernel"] = SIM_KERNEL_VERSION
        # The analytic backend extrapolates some hardware-Draco results,
        # so its results are keyed separately from exact-kernel results
        # (0 when disabled) and on its own numerical-contract version.
        payload["analytic"] = ANALYTIC_VERSION if analytic_enabled() else 0
        return params_digest(payload)

    def result_path(self, experiment_id: str, digest: str) -> Path:
        return self.root / "results" / experiment_id / f"{digest}.json"

    def load_result(self, experiment_id: str, digest: str) -> Optional[ExperimentResult]:
        payload = _read_json(self.result_path(experiment_id, digest))
        if payload is None:
            return None
        try:
            return ExperimentResult.from_json_dict(payload)
        except (KeyError, TypeError):
            return None  # schema drifted under an unchanged fingerprint

    def store_result(
        self, experiment_id: str, digest: str, result: ExperimentResult
    ) -> bool:
        return _store(self.result_path(experiment_id, digest), result.to_json())

    # -- calibration values --------------------------------------------

    def calibration_path(self, digest: str) -> Path:
        return self.root / "calibration" / f"{digest}.json"

    def load_calibration(self, digest: str) -> Optional[float]:
        payload = _read_json(self.calibration_path(digest))
        if isinstance(payload, (int, float)):
            return float(payload)
        return None

    def store_calibration(self, digest: str, value: float) -> bool:
        return _store(self.calibration_path(digest), json.dumps(value))

    # -- context artifacts ---------------------------------------------

    def context_path(self, kind: str, digest: str, suffix: str = ".json") -> Path:
        return self.root / "contexts" / kind / f"{digest}{suffix}"

    def load_context(self, kind: str, digest: str) -> Optional[Any]:
        """The ``data`` payload of a stored context document, or ``None``
        on any miss: absent file, torn write, bad JSON, wrong wrapper
        format/kind, or a ``CONTEXT_FORMAT_VERSION`` mismatch."""
        payload = _read_json(self.context_path(kind, digest))
        if not isinstance(payload, Mapping):
            return None
        if (
            payload.get("format") != _CONTEXT_FORMAT_NAME
            or payload.get("version") != CONTEXT_FORMAT_VERSION
            or payload.get("kind") != kind
            or "data" not in payload
        ):
            return None
        return payload["data"]

    def store_context(self, kind: str, digest: str, data: Any) -> bool:
        document = {
            "format": _CONTEXT_FORMAT_NAME,
            "version": CONTEXT_FORMAT_VERSION,
            "kind": kind,
            "data": data,
        }
        return _store(
            self.context_path(kind, digest),
            json.dumps(document, sort_keys=True, separators=(",", ":")),
        )

    def load_trace_context(self, digest: str) -> Optional[SyscallTrace]:
        """A stored trace, or ``None`` on any miss or corruption (the
        trace parser validates the header, every record, and the
        declared event count)."""
        path = self.context_path("trace", digest, suffix=".jsonl")
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return serialize.loads(text)
        except serialize.TraceFormatError:
            return None

    def store_trace_context(self, digest: str, trace: SyscallTrace) -> bool:
        return _store(
            self.context_path("trace", digest, suffix=".jsonl"),
            serialize.dumps(trace, version=serialize.FORMAT_VERSION_COLUMN),
        )

    # -- stage payloads -------------------------------------------------

    def stage_path(self, kind: str, digest: str) -> Path:
        return self.root / "stages" / kind / f"{digest}.json"

    def load_stage(self, kind: str, digest: str) -> Optional[Any]:
        """The ``data`` payload of a stored stage document, or ``None``
        on any miss: absent file, torn write, bad JSON, wrong wrapper
        format/kind, or a ``STAGE_FORMAT_VERSION`` mismatch."""
        payload = _read_json(self.stage_path(kind, digest))
        if not isinstance(payload, Mapping):
            return None
        if (
            payload.get("format") != _STAGE_FORMAT_NAME
            or payload.get("version") != STAGE_FORMAT_VERSION
            or payload.get("kind") != kind
            or "data" not in payload
        ):
            return None
        return payload["data"]

    def store_stage(self, kind: str, digest: str, data: Any) -> bool:
        document = {
            "format": _STAGE_FORMAT_NAME,
            "version": STAGE_FORMAT_VERSION,
            "kind": kind,
            "data": data,
        }
        return _store(
            self.stage_path(kind, digest),
            json.dumps(document, sort_keys=True, separators=(",", ":")),
        )


def context_digest(kind: str, spec, **params: Any) -> str:
    """Content digest for one context artifact.

    Folds the full workload-spec payload, the artifact kind and its
    parameters, the source fingerprint, and the context serialisation
    version — the same keying discipline as results, so a context entry
    can never outlive a code or parameter change.
    """
    payload: Dict[str, Any] = {
        "context_kind": kind,
        "spec": spec_payload(spec),
        "code": code_fingerprint(),
        "context_format": CONTEXT_FORMAT_VERSION,
    }
    payload.update(params)
    return params_digest(payload)


def spec_payload(spec) -> Mapping[str, Any]:
    """Stable JSON-ready description of a WorkloadSpec for digesting.

    Deliberately hand-rolled rather than ``dataclasses.asdict``: the
    spec's syscall table is a large non-dataclass object whose repr is
    not stable across processes, so it is summarised by its entries.
    """
    return {
        "name": spec.name,
        "kind": spec.kind,
        "syscalls": [
            {
                "name": s.name,
                "weight": s.weight,
                "callsites": s.callsites,
                "stickiness": s.stickiness,
                "arg_sets": [[list(a.values), a.weight] for a in s.arg_sets],
            }
            for s in spec.syscalls
        ],
        "fig2_targets": dict(spec.fig2_targets),
        "table": sorted(
            (d.sid, d.name, d.nargs, d.pointer_mask) for d in spec.table
        ),
    }
