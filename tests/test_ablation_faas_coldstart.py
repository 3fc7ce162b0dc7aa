"""Ablation: FaaS cold-start vs warm-pool deployment under Draco.

Per-process caching means fresh processes revalidate everything; warm
pools recover the paper's steady-state numbers.  The sweep over
invocation lengths locates where amortisation makes cold acceptable.
"""

from repro.experiments.runner import get_context
from repro.kernel.faas import FaaSRunner
from repro.syscalls.events import SyscallTrace


def _measure():
    ctx = get_context("pwgen", events=6000)
    runner = FaaSRunner(ctx.bundle.complete)
    out = {}
    for length in (100, 1000):
        trace = SyscallTrace(list(ctx.trace[:length]))
        for mode in ("cold", "warm"):
            stats = runner.run(trace, invocations=4, mode=mode)
            out[(length, mode)] = stats.mean_check_cycles
    return out


def test_faas_coldstart_ablation():
    costs = _measure()

    # Warm pools always beat per-invocation processes.
    for length in (100, 1000):
        assert costs[(length, "warm")] < costs[(length, "cold")]
    # Amortisation: the cold/warm ratio shrinks as invocations lengthen.
    short_ratio = costs[(100, "cold")] / costs[(100, "warm")]
    long_ratio = costs[(1000, "cold")] / costs[(1000, "warm")]
    assert long_ratio < short_ratio
