"""Ablation: SLB preloading on vs off (Section VI-B / XI-B).

The paper recommends preloading because it converts SLB misses into
fast flows ("SLB preloading is successful in bringing most of the
needed entries into the SLB on time ... we recommend the use of SLB
preloading").
"""

from repro.experiments.runner import get_context
from repro.kernel.simulator import run_trace

EVENTS = 8000


def _stall_cycles(workload: str):
    ctx = get_context(workload, events=EVENTS)
    out = {}
    for preload in (True, False):
        regime = ctx.make_regime("draco-hw-complete", preload_enabled=preload)
        run_trace(
            ctx.trace, regime, ctx.work_cycles, ctx.syscall_base_cycles,
            workload_name=workload,
        )
        out[preload] = regime.draco.stats.mean_stall_cycles
    return out


def test_preload_reduces_stall():
    # HTTPD is one of the SLB-pressured workloads where preloading
    # matters most (Figure 13).
    stalls = _stall_cycles("httpd")
    assert stalls[True] < stalls[False]
