"""Warm process pool: persistent, preloaded workers for the engine.

Draco's discipline — validate once, serve repeats from a cache next to
the hot path — applied to the experiment engine's own processes.  A
throwaway :class:`~concurrent.futures.ProcessPoolExecutor` per suite
makes every run pay process startup and every worker rebuild its
in-process memos (compiled filters, syscall tables, interned traces,
contexts) from scratch.  This module keeps **one** pool alive across
``run_suite``/``execute_suite`` calls:

* workers run :func:`warm_worker` at startup, which imports the full
  experiment registry, so the first task a worker receives does not
  pay the imports;
* the pool is keyed on ``(max_workers, code fingerprint, every
  REPRO_* variable)``: a forked worker inherits the whole environment,
  so changing any ``REPRO_*`` variable — or editing the source —
  retires the old pool and forks a fresh one, and a worker never runs
  under settings the parent no longer has.  The per-run cache location
  and mode are threaded through every task explicitly
  (:func:`repro.common.storage.cache_overrides`), so one pool serves
  requests against different cache directories.

The pool only changes *where* tasks run, never what they compute: a
``--jobs 2`` suite renders the same markdown as a serial one
(``tests/test_bulk_kernel.py::TestEngineParallel``).  A scheduler that
sees :class:`~concurrent.futures.process.BrokenProcessPool` must
:func:`discard` the executor, so the next suite forks a fresh pool
instead of failing forever on dead workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional


def warm_worker() -> None:
    """Worker initializer: import what every experiment task touches.

    Runs once per worker process, before its first task.  Importing
    :mod:`repro.experiments.registry` pulls in every experiment module,
    the kernel regimes and the BPF toolchain, which is a pure function
    of the source tree, so it cannot bias any result — it only moves
    work off the first task's critical path.
    """
    import repro.experiments.registry  # noqa: F401  (imports the world)


@dataclass
class WarmPool:
    """One persistent executor plus the identity it was started under."""

    key: tuple
    max_workers: int
    executor: ProcessPoolExecutor


_LOCK = threading.Lock()
_CURRENT: Optional[WarmPool] = None

#: Lifetime counters, read through :func:`stats`.
_STATS = {"created": 0, "recycled": 0, "broken": 0}


def pool_key(max_workers: int) -> tuple:
    from repro.experiments import cache as result_cache

    return (
        int(max_workers),
        result_cache.code_fingerprint(),
        tuple(sorted((k, v) for k, v in os.environ.items() if k.startswith("REPRO_"))),
    )


def get_pool(max_workers: int) -> WarmPool:
    """The current warm pool, recycling it if its identity drifted.

    Thread-safe; the caller must not shut the returned executor down
    (use :func:`shutdown` or let the interpreter reap it at exit).
    """
    global _CURRENT
    key = pool_key(max_workers)
    with _LOCK:
        if _CURRENT is not None and _CURRENT.key == key:
            return _CURRENT
        if _CURRENT is not None:
            _CURRENT.executor.shutdown(wait=False, cancel_futures=True)
            _STATS["recycled"] += 1
        executor = ProcessPoolExecutor(
            max_workers=max(1, int(max_workers)), initializer=warm_worker
        )
        _CURRENT = WarmPool(
            key=key, max_workers=max(1, int(max_workers)), executor=executor
        )
        _STATS["created"] += 1
        return _CURRENT


def discard(executor: Optional[ProcessPoolExecutor] = None) -> None:
    """Retire the current pool (after a BrokenProcessPool).

    With ``executor`` given, only discards if the current pool owns that
    executor — a later pool created by another thread is left alone.
    """
    global _CURRENT
    with _LOCK:
        if _CURRENT is None:
            return
        if executor is not None and _CURRENT.executor is not executor:
            return
        _CURRENT.executor.shutdown(wait=False, cancel_futures=True)
        _CURRENT = None
        _STATS["broken"] += 1


def shutdown(wait: bool = True) -> None:
    """Tear the warm pool down (tests, benchmarks)."""
    global _CURRENT
    with _LOCK:
        if _CURRENT is not None:
            _CURRENT.executor.shutdown(wait=wait, cancel_futures=True)
            _CURRENT = None


def stats() -> dict:
    """Lifetime pool counters plus the current pool's vitals."""
    with _LOCK:
        snapshot = dict(_STATS)
        snapshot["active"] = _CURRENT is not None
        if _CURRENT is not None:
            snapshot["max_workers"] = _CURRENT.max_workers
    return snapshot
