"""Figure 13 — STB and SLB hit rates under hardware Draco.

Per workload: STB hit rate, SLB access hit rate (at the ROB head) and
SLB preload hit rate (at ROB insertion), under the syscall-complete
profile.  The paper: STB is over 93% everywhere except Elasticsearch
and Redis; SLB preload is near 99% except for HTTPD, Elasticsearch,
MySQL and Redis, whose SLB access rates are 75-93%.

The rates are read from the per-structure counters of the shared
``draco-hw-complete`` evaluation (the same one Figure 12 and the
flow-mix extension consume), which every kernel tier attaches to its
:class:`~repro.kernel.simulator.RunResult`.  On sampled (``derived``)
runs the counters are extrapolated projections — see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import get_context
from repro.experiments.stages import EvalPlan
from repro.workloads.catalog import CATALOG

#: Stage-graph DAG: one shared ``draco-hw-complete`` evaluation per
#: workload (the same stage fig12 and flow-mix consume); the hit rates
#: are read from its structure counters.
STAGE_PLAN = EvalPlan(regimes=("draco-hw-complete",))

#: The four applications the paper singles out for lower SLB rates.
PAPER_LOW_SLB = ("httpd", "elasticsearch", "mysql", "redis")
#: The two the paper singles out for lower STB rates.
PAPER_LOW_STB = ("elasticsearch", "redis")


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
        structures = get_context(name, **kwargs).evaluate("draco-hw-complete").structures
        rows.append(
            (
                name,
                CATALOG[name].kind,
                round(structures["stb"]["hit_rate"], 4),
                round(structures["slb"]["access_hit_rate"], 4),
                round(structures["slb"]["preload_hit_rate"], 4),
                int(structures["counters"]["os_invocations"]),
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
