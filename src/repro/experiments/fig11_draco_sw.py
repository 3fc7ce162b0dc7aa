"""Figure 11 — software Draco versus conventional Seccomp.

For each workload and each of the three application-specific profiles
(noargs, complete, complete-2x), compares the Seccomp regime to the
software-Draco regime, normalised to insecure.  The paper: with
syscall-complete, macro/micro averages drop from 1.14/1.25 (Seccomp) to
1.10/1.18 (software Draco); with 2x, from 1.21/1.42 to 1.10/1.23.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.experiments.results import ExperimentResult, average_rows_by_kind
from repro.experiments.runner import get_context
from repro.experiments.stages import EvalPlan
from repro.workloads.catalog import CATALOG

PAIRS: Tuple[Tuple[str, str], ...] = (
    ("syscall-noargs", "draco-sw-noargs"),
    ("syscall-complete", "draco-sw-complete"),
    ("syscall-complete-2x", "draco-sw-complete-2x"),
)

PAPER_AVERAGES = {
    ("macro", "syscall-complete"): 1.14,
    ("macro", "draco-sw-complete"): 1.10,
    ("micro", "syscall-complete"): 1.25,
    ("micro", "draco-sw-complete"): 1.18,
    ("macro", "syscall-complete-2x"): 1.21,
    ("macro", "draco-sw-complete-2x"): 1.10,
    ("micro", "syscall-complete-2x"): 1.42,
    ("micro", "draco-sw-complete-2x"): 1.23,
}

#: Rounding applied to every value row (averages are computed from the
#: rounded rows).
ROW_DECIMALS = 3

#: Stage-graph DAG: the six Seccomp/software-Draco regimes per
#: workload.  The three Seccomp evaluations are shared with fig2, and
#: trace/calibration stages with every other catalog experiment.
STAGE_PLAN = EvalPlan(regimes=tuple(r for pair in PAIRS for r in pair))


def run(
    events: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    old_kernel: bool = False,
    workloads: Optional[Tuple[str, ...]] = None,
) -> ExperimentResult:
    names = workloads or tuple(CATALOG)
    regimes = tuple(r for pair in PAIRS for r in pair)
    columns = ("workload", "kind") + regimes
    rows = []
    for name in names:
        spec = CATALOG[name]
        kwargs = dict(seed=seed, old_kernel=old_kernel)
        if events is not None:
            kwargs["events"] = events
        ctx = get_context(name, **kwargs)
        rows.append(
            (name, spec.kind)
            + tuple(
                round(ctx.evaluate(r).normalized_time, ROW_DECIMALS) for r in regimes
            )
        )
    rows.extend(average_rows_by_kind(rows, ROW_DECIMALS))
    fig = "Fig 17" if old_kernel else "Fig 11"
    return ExperimentResult(
        experiment_id=fig,
        title="Software Draco vs Seccomp, normalised to insecure",
        columns=columns,
        rows=tuple(rows),
        notes=tuple(
            f"paper {kind} {regime}: {value}"
            for (kind, regime), value in sorted(PAPER_AVERAGES.items())
        ),
    )


def main() -> None:
    print(run().format_table())


if __name__ == "__main__":
    main()
