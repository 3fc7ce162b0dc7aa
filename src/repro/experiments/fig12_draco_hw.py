"""Figure 12 — hardware Draco performance.

All fifteen workloads under hardware Draco with the three
application-specific profiles, normalised to insecure.  The paper's
claim: "the average overhead of hardware Draco over insecure is 1%"
for every profile, including the double-size checks.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.experiments.results import ExperimentResult, average_rows_by_kind
from repro.experiments.runner import get_context
from repro.experiments.stages import EvalPlan
from repro.workloads.catalog import CATALOG

REGIMES: Tuple[str, ...] = (
    "draco-hw-noargs",
    "draco-hw-complete",
    "draco-hw-complete-2x",
)

#: Stage-graph DAG: the ``draco-hw-complete`` evaluation is shared
#: with fig13 and the flow-mix extension, so it executes once per
#: suite run and all three read the same stage payload.
STAGE_PLAN = EvalPlan(regimes=REGIMES)

PAPER_AVERAGE_OVERHEAD = 0.01

#: Rounding applied to every value row (averages are computed from the
#: rounded rows).
ROW_DECIMALS = 4


def run(
    events: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    workloads: Optional[Tuple[str, ...]] = None,
) -> ExperimentResult:
    names = workloads or tuple(CATALOG)
    columns = ("workload", "kind") + REGIMES
    rows = []
    for name in names:
        spec = CATALOG[name]
        kwargs = dict(seed=seed)
        if events is not None:
            kwargs["events"] = events
        ctx = get_context(name, **kwargs)
        rows.append(
            (name, spec.kind)
            + tuple(
                round(ctx.evaluate(r).normalized_time, ROW_DECIMALS) for r in REGIMES
            )
        )
    rows.extend(average_rows_by_kind(rows, ROW_DECIMALS))
    return ExperimentResult(
        experiment_id="Fig 12",
        title="Hardware Draco, normalised to insecure",
        columns=columns,
        rows=tuple(rows),
        notes=("paper: average overhead is ~1% for all three profiles",),
    )


def main() -> None:
    print(run().format_table())


if __name__ == "__main__":
    main()
