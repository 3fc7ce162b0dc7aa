"""Figure 13 — STB and SLB hit rates under hardware Draco.

Per workload: STB hit rate, SLB access hit rate (at the ROB head) and
SLB preload hit rate (at ROB insertion), under the syscall-complete
profile.  The paper: STB is over 93% everywhere except Elasticsearch
and Redis; SLB preload is near 99% except for HTTPD, Elasticsearch,
MySQL and Redis, whose SLB access rates are 75-93%.

The rates are read from the shared ``draco-hw-complete`` evaluation
(the same one Figure 12 and the flow-mix extension consume), whose
:class:`~repro.kernel.simulator.RunResult` carries the per-structure
counters when the analytic backend ran.  On sampled (``derived``)
runs the counters are extrapolated projections — see
``docs/PERFORMANCE.md``.  When the evaluation carries no structure
payload (``REPRO_ANALYTIC=0`` or ``REPRO_LEDGER=0``) the figure falls
back to driving a fresh regime and reading its counters directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import get_context
from repro.experiments.stages import EvalPlan
from repro.kernel.simulator import run_trace
from repro.workloads.catalog import CATALOG

#: Stage-graph DAG: one shared ``draco-hw-complete`` evaluation per
#: workload (the same stage fig12 and flow-mix consume); the hit rates
#: are read from its structure counters, with the fresh-run fallback
#: below when the payload carries none.
STAGE_PLAN = EvalPlan(regimes=("draco-hw-complete",))

#: The four applications the paper singles out for lower SLB rates.
PAPER_LOW_SLB = ("httpd", "elasticsearch", "mysql", "redis")
#: The two the paper singles out for lower STB rates.
PAPER_LOW_STB = ("elasticsearch", "redis")


def _rates_from_structures(structures) -> Optional[Tuple[float, float, float, int]]:
    """(stb, slb access, slb preload, os invocations) or ``None``."""
    try:
        return (
            structures["stb"]["hit_rate"],
            structures["slb"]["access_hit_rate"],
            structures["slb"]["preload_hit_rate"],
            int(structures["counters"]["os_invocations"]),
        )
    except (KeyError, TypeError):
        return None


def _rates_from_fresh_run(ctx, name: str) -> Tuple[float, float, float, int]:
    """Fallback: drive a fresh regime and read its counters directly."""
    regime = ctx.make_regime("draco-hw-complete")
    run_trace(
        ctx.trace,
        regime,
        work_cycles_per_syscall=ctx.work_cycles,
        syscall_base_cycles=ctx.syscall_base_cycles,
        workload_name=name,
    )
    draco = regime.draco
    return (
        draco.stb.hit_rate,
        draco.slb.access_hit_rate,
        draco.slb.preload_hit_rate,
        draco.stats.os_invocations,
    )


def run(
    events: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    workloads: Optional[Tuple[str, ...]] = None,
) -> ExperimentResult:
    names = workloads or tuple(CATALOG)
    rows = []
    for name in names:
        kwargs = dict(seed=seed)
        if events is not None:
            kwargs["events"] = events
        ctx = get_context(name, **kwargs)
        result = ctx.evaluate("draco-hw-complete")
        rates = (
            _rates_from_structures(result.structures)
            if result.structures is not None
            else None
        )
        if rates is None:
            rates = _rates_from_fresh_run(ctx, name)
        stb, access, preload, os_invocations = rates
        rows.append(
            (
                name,
                CATALOG[name].kind,
                round(stb, 4),
                round(access, 4),
                round(preload, 4),
                os_invocations,
            )
        )
    return ExperimentResult(
        experiment_id="Fig 13",
        title="STB and SLB hit rates (syscall-complete, hardware Draco)",
        columns=(
            "workload",
            "kind",
            "stb_hit_rate",
            "slb_access_hit_rate",
            "slb_preload_hit_rate",
            "os_invocations",
        ),
        rows=tuple(rows),
        notes=(
            f"paper: STB > 93% except {PAPER_LOW_STB}",
            f"paper: SLB access 75-93% for {PAPER_LOW_SLB}, higher elsewhere",
        ),
    )


def main() -> None:
    print(run().format_table())


if __name__ == "__main__":
    main()
