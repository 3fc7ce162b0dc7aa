"""Low-level persistent-cache plumbing shared across layers.

The experiment-level cache (:mod:`repro.experiments.cache`) and the
lower layers that read switches (:mod:`repro.common.analytic`,
:mod:`repro.common.bulk`) sit at opposite ends of the import graph, but
they must agree on where the cache lives and how a switch is read — one
``REPRO_CACHE_DIR``, one ``REPRO_CACHE_DISABLE``.  This module owns
those decisions plus the atomic write discipline, and depends on nothing
above ``repro.common``.

All writes are temp-file-then-``os.replace`` so concurrent workers
never observe a torn entry; all reads treat a missing, truncated, or
unparseable file as a cache miss.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator, Optional

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the cache entirely (any non-empty value).
CACHE_DISABLE_ENV = "REPRO_CACHE_DISABLE"


def _truthy(name: str) -> bool:
    return os.environ.get(name, "1").lower() not in ("0", "off", "false", "no")


#: Context-local overrides for the cache directory and disable flag.
#: The environment variables stay the *outer defaults*; the engine
#: applies per-run settings through :func:`cache_overrides` instead of
#: mutating ``os.environ``, which is process-global.  ContextVars are
#: per-thread (and per-task), so two threads can run with different
#: cache modes without racing.  Worker processes do NOT inherit these
#: reliably across ``fork`` — the stage worker entry point receives the
#: settings as explicit task arguments and re-applies them.
_CACHE_DIR_OVERRIDE: ContextVar[Optional[str]] = ContextVar(
    "repro_cache_dir_override", default=None
)
_CACHE_DISABLE_OVERRIDE: ContextVar[Optional[bool]] = ContextVar(
    "repro_cache_disable_override", default=None
)


@contextmanager
def cache_overrides(
    cache_dir: Optional[str] = None, disable: Optional[bool] = None
) -> Iterator[None]:
    """Apply context-local cache settings for the duration of a block.

    ``cache_dir=None`` / ``disable=None`` leave the corresponding
    setting untouched (falling through to the environment); any other
    value overrides the environment until the block exits.  Nested
    blocks restore the previous override on exit.
    """
    tokens = []
    if cache_dir is not None:
        tokens.append((_CACHE_DIR_OVERRIDE, _CACHE_DIR_OVERRIDE.set(str(cache_dir))))
    if disable is not None:
        tokens.append((_CACHE_DISABLE_OVERRIDE, _CACHE_DISABLE_OVERRIDE.set(bool(disable))))
    try:
        yield
    finally:
        for var, token in reversed(tokens):
            var.reset(token)


def cache_enabled() -> bool:
    """True unless disabled by an active override or, absent one,
    ``REPRO_CACHE_DISABLE`` set to a non-empty value."""
    override = _CACHE_DISABLE_OVERRIDE.get()
    if override is not None:
        return not override
    return not os.environ.get(CACHE_DISABLE_ENV)


def cache_root() -> Path:
    """The cache directory (not created until first write).

    Resolution order: active :func:`cache_overrides` block, then
    ``REPRO_CACHE_DIR``, then the ``~/.cache/repro-draco`` default.
    """
    local = _CACHE_DIR_OVERRIDE.get()
    if local:
        return Path(local)
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-draco"


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def read_json(path: Path) -> Optional[Any]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None  # missing or torn entry: treat as a miss
