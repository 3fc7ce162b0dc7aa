"""Ablation: context-switch frequency vs hardware Draco overhead
(Section VII-B).

Each switch invalidates the SLB/STB/SPT; more frequent switches mean
more cold misses after resume.  The paper's Accessed-bit SPT
save/restore keeps the SPT warm, so recovery goes through the VAT
rather than the OS.
"""

from repro.experiments.runner import get_context
from repro.kernel.simulator import run_trace

EVENTS = 8000


def _stalls_by_interval(workload: str):
    ctx = get_context(workload, events=EVENTS)
    out = {}
    for label, interval in (("none", None), ("rare", 8_000_000.0), ("frequent", 400_000.0)):
        regime = ctx.make_regime(
            "draco-hw-complete", context_switch_interval_cycles=interval
        )
        run_trace(
            ctx.trace, regime, ctx.work_cycles, ctx.syscall_base_cycles,
            workload_name=workload,
        )
        out[label] = {
            "stall": regime.draco.stats.mean_stall_cycles,
            "os": regime.draco.stats.os_invocations,
        }
    return out


def test_context_switch_cost():
    stalls = _stalls_by_interval("mysql")

    assert stalls["none"]["stall"] <= stalls["frequent"]["stall"]
    # Even under frequent switching, recovery goes through the VAT, not
    # the Seccomp filter: OS invocations stay in the same ballpark.
    assert stalls["frequent"]["os"] < 3 * max(stalls["none"]["os"], 1) + 50
