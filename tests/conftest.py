"""Shared test configuration.

Redirects the experiment engine's on-disk cache into a per-session
scratch directory so tests neither read stale entries from nor write
into the user's real cache (individual tests may still override
``REPRO_CACHE_DIR`` via monkeypatch), and provides the
``reference_kernels`` fixture the kernel differentials compare against.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    if os.environ.get("REPRO_CACHE_DIR"):
        yield
        return
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    try:
        yield
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture
def reference_kernels(monkeypatch):
    """Run every regime on the code its accelerators stand in for.

    Hardware Draco walks every event (no steady memo), software Draco
    checks every event on its slow path (no steady memo), and the
    insecure, Seccomp, bitmap-cache and software-Draco regimes check
    runs with the base-class ``[check; advance] × count`` loop.
    Differential tests compare the accelerated kernel with this
    reference.
    """
    from repro.core.hardware import HardwareDraco
    from repro.core.software import SoftwareDraco
    from repro.kernel.regimes import (
        CheckingRegime,
        DracoSwRegime,
        InsecureRegime,
        SeccompRegime,
    )
    from repro.seccomp.bitmap_cache import SeccompBitmapRegime

    monkeypatch.setattr(HardwareDraco, "on_syscall", HardwareDraco._walk)
    monkeypatch.setattr(SoftwareDraco, "check", SoftwareDraco._check_slow)
    for regime in (InsecureRegime, SeccompRegime, SeccompBitmapRegime, DracoSwRegime):
        monkeypatch.setattr(regime, "check_run", CheckingRegime.check_run)
