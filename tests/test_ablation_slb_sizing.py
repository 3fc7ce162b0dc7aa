"""Ablation: SLB subtable sizing sweep (Section XI-C, Figure 14).

The paper sizes subtables from the Linux argument-count distribution.
This sweep quarters and quadruples the subtables and shows hit rates
respond monotonically, while the area model prices each point.
"""

from repro.analysis.hwcost import draco_hardware_costs
from repro.cpu.params import DracoHwParams, SlbSubtableParams
from repro.experiments.runner import get_context
from repro.kernel.simulator import run_trace

EVENTS = 8000


def _scaled_hw(scale: float) -> DracoHwParams:
    return DracoHwParams(
        slb_subtables=tuple(
            SlbSubtableParams(
                arg_count=sub.arg_count,
                entries=max(sub.ways, int(sub.entries * scale) // sub.ways * sub.ways),
                ways=sub.ways,
            )
            for sub in DracoHwParams().slb_subtables
        )
    )


def _sweep(workload: str):
    ctx = get_context(workload, events=EVENTS)
    out = {}
    for scale in (0.25, 1.0, 4.0):
        hw = _scaled_hw(scale)
        regime = ctx.make_regime("draco-hw-complete", hw=hw)
        run_trace(
            ctx.trace, regime, ctx.work_cycles, ctx.syscall_base_cycles,
            workload_name=workload,
        )
        out[scale] = {
            "access_hit_rate": regime.draco.slb.access_hit_rate,
            "slb_area_mm2": draco_hardware_costs(hw)["SLB"].area_mm2,
        }
    return out


def test_slb_sizing_sweep():
    sweep = _sweep("redis")

    # Hit rate grows with capacity...
    assert sweep[0.25]["access_hit_rate"] <= sweep[1.0]["access_hit_rate"]
    assert sweep[1.0]["access_hit_rate"] <= sweep[4.0]["access_hit_rate"] + 0.01
    # ...and so does silicon area.
    assert sweep[0.25]["slb_area_mm2"] < sweep[1.0]["slb_area_mm2"] < sweep[4.0]["slb_area_mm2"]
    # The paper's design point already captures most of the benefit.
    assert sweep[1.0]["access_hit_rate"] > 0.6
