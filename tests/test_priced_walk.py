"""Priced ``-2x`` Draco runs: one structure walk, two filter-stack depths.

Draco's hit path never runs the Seccomp filter and the filter's price
feeds no structure, so a ``complete-2x`` run differs from its ``1x`` run
only in what its filter runs cost.  :func:`price_walk` builds the
``-2x`` :class:`RunResult` from the ``1x`` walk; the contract is that it
equals :func:`run_trace` on a fresh ``times=2`` regime as sorted-key
JSON, regime name included, on every tier and under both cost models,
and that pricing leaves the walk's own ``1x`` result, a plain ``1x``
run, as it was.
"""

import json

import pytest

from repro.common.errors import SimulationError
from repro.experiments.runner import get_context
from repro.kernel.simulator import price_walk, run_trace
from repro.workloads.catalog import CATALOG

PAIRS = (
    ("draco-hw-complete", "draco-hw-complete-2x"),
    ("draco-sw-complete", "draco-sw-complete-2x"),
)


def _json(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def _run(ctx, regime, analytic):
    return run_trace(
        ctx.trace,
        regime,
        work_cycles_per_syscall=ctx.work_cycles,
        syscall_base_cycles=ctx.syscall_base_cycles,
        workload_name=ctx.spec.name,
        analytic=analytic,
    )


def _tier(result) -> str:
    return "kernels" if result.analytic is None else result.analytic.mode


@pytest.mark.parametrize(
    "events, analytic, reference, names, tiers",
    [
        # Sampled hardware Draco, exact-replay software Draco.
        pytest.param(
            12_000, None, False, tuple(CATALOG), ("sampled", "exact"), id="analytic"
        ),
        pytest.param(
            3_000, False, False, tuple(CATALOG), ("kernels", "kernels"), id="exact"
        ),
        # The exact kernels without their accelerators.
        pytest.param(
            3_000, False, True, ("redis", "pipe-ipc", "nginx"), ("kernels", "kernels"),
            id="per-event",
        ),
    ],
)
def test_priced_2x_equals_direct_run(request, events, analytic, reference, names, tiers):
    if reference:
        request.getfixturevalue("reference_kernels")
    for name in names:
        for old_kernel in (False, True):
            ctx = get_context(name, events=events, old_kernel=old_kernel)
            for (walked, twin), tier in zip(PAIRS, tiers):
                where = (name, old_kernel, twin)
                regime = ctx.make_regime(walked)
                one = _run(ctx, regime, analytic)
                plain = _json(one)
                two = price_walk(regime, 2)
                direct = _run(ctx, ctx.make_regime(twin), analytic)
                assert _tier(direct) == tier, where
                assert _json(two) == _json(direct), where
                # The walk is a plain 1x run; pricing must not touch it.
                assert _json(one) == plain, where


def test_regimes_that_cannot_be_priced_raise():
    ctx = get_context("pipe-ipc", events=3_000)
    seccomp = ctx.make_regime("syscall-complete")
    _run(ctx, seccomp, None)
    with pytest.raises(SimulationError, match="does not price"):
        price_walk(seccomp, 2)
    with pytest.raises(SimulationError, match="has not walked"):
        price_walk(ctx.make_regime("draco-hw-complete"), 2)
