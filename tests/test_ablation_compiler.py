"""Ablation: linear vs binary-tree filter compilation (Section XII).

Quantifies Hromatka's libseccomp optimisation within our substrate: the
tree layout shrinks the docker-default dispatch from O(n) to O(log n)
executed instructions, but does not touch argument-checking cost — the
gap Draco exists to close.
"""

from repro.experiments.runner import get_context
from repro.kernel.regimes import SeccompRegime
from repro.kernel.simulator import run_trace
from repro.seccomp.profiles import build_docker_default

EVENTS = 8000


def _overheads(workload: str):
    ctx = get_context(workload, events=EVENTS)
    docker = build_docker_default()
    out = {}
    for strategy in ("linear", "binary_tree"):
        regime = SeccompRegime(docker, compiler=strategy)
        result = run_trace(
            ctx.trace, regime, ctx.work_cycles, ctx.syscall_base_cycles,
            workload_name=workload,
        )
        out[strategy] = result.mean_check_cycles
    # And the app-specific complete profile under both layouts.
    for strategy in ("linear", "binary_tree"):
        regime = SeccompRegime(ctx.bundle.complete, compiler=strategy)
        result = run_trace(
            ctx.trace, regime, ctx.work_cycles, ctx.syscall_base_cycles,
            workload_name=workload,
        )
        out[f"complete-{strategy}"] = result.mean_check_cycles
    return out


def test_tree_dispatch_ablation():
    costs = _overheads("nginx")

    # Tree dispatch is far cheaper over the 290-rule docker whitelist.
    assert costs["binary_tree"] < 0.8 * costs["linear"]
    # But argument checking dominates app-specific complete profiles, so
    # the layout matters much less there (Hromatka's fix "does not
    # fundamentally address the overhead" — Section XII).
    complete_gap = abs(costs["complete-linear"] - costs["complete-binary_tree"])
    docker_gap = costs["linear"] - costs["binary_tree"]
    assert complete_gap < docker_gap
