"""Ablation: peephole-optimised filters vs raw compiler output.

Jump threading and dead-code elimination shrink the generated filters
and reduce executed instructions without changing any decision —
another software-only mitigation that, like the binary tree, helps but
does not remove the argument-checking cost Draco targets.
"""

from repro.bpf.interpreter import run
from repro.bpf.optimizer import optimize
from repro.bpf.seccomp_data import SeccompData
from repro.experiments.runner import get_context
from repro.seccomp.compiler import compile_binary_tree
from repro.seccomp.profiles import build_docker_default

EVENTS = 8000


def _costs(workload: str):
    ctx = get_context(workload, events=EVENTS)
    docker = build_docker_default()
    raw = compile_binary_tree(docker)
    optimized = optimize(raw)

    raw_insns = 0
    optimized_insns = 0
    sample = list(ctx.trace[:2000])
    for event in sample:
        data = SeccompData.from_event(event)
        raw_insns += run(raw, data).instructions_executed
        optimized_insns += run(optimized, data).instructions_executed
    return {
        "static_raw": len(raw),
        "static_optimized": len(optimized),
        "dyn_raw": raw_insns / len(sample),
        "dyn_optimized": optimized_insns / len(sample),
    }


def test_optimizer_ablation():
    costs = _costs("nginx")

    # Static shrink and dynamic improvement (or at worst parity).
    assert costs["static_optimized"] <= costs["static_raw"]
    assert costs["dyn_optimized"] <= costs["dyn_raw"]
    # But the executed path stays well above zero — checking still
    # costs; caching (Draco), not compilation, removes it.
    assert costs["dyn_optimized"] > 5
