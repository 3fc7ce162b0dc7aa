"""Kill switch for the batched (bulk-check) simulation kernel.

The bulk fast path — run-length-encoded trace consumption plus
steady-state bulk checking in the regimes (see
``docs/ARCHITECTURE.md``, "Batched simulation kernel") — is designed to
be bit-identical to the per-event path and is on by default.  Setting
``REPRO_BULK=0`` forces every layer back to per-event execution; the
differential tests and the benchmark harness flip this switch to prove
equivalence and measure the speedup.

This lives in ``repro.common`` so the core structures, the regimes and
the simulator can all consult it without import cycles (the same
pattern as ``repro.common.analytic.analytic_enabled``).
"""

from __future__ import annotations

import os

from repro.common import storage

#: Environment variable: set to ``0``/``off`` to disable the bulk
#: fast path (run coalescing still happens; every run is re-expanded
#: into per-event checks).
BULK_ENV = "REPRO_BULK"


def bulk_enabled() -> bool:
    """True unless ``REPRO_BULK`` disables the bulk fast path.

    Unset, or any value other than ``0``/``off``/``false``/``no``
    (case-insensitive), leaves the fast path on:

    >>> os.environ.pop("REPRO_BULK", None) and None
    >>> bulk_enabled()
    True
    >>> os.environ["REPRO_BULK"] = "0"
    >>> bulk_enabled()
    False
    >>> os.environ["REPRO_BULK"] = "off"
    >>> bulk_enabled()
    False
    >>> os.environ["REPRO_BULK"] = "1"
    >>> bulk_enabled()
    True
    >>> os.environ.pop("REPRO_BULK")
    '1'
    """
    return storage._truthy(BULK_ENV)
