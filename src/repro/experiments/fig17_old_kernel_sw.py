"""Figure 17 (Appendix) — software Draco on the older kernel.

Repeats the Figure 11 comparison with the Linux 3.10 cost model.  The
paper: software Draco's improvement over Seccomp shrinks on the older
kernel but remains significant, especially for syscall-complete-2x.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.experiments import fig11_draco_sw
from repro.experiments.results import ExperimentResult
from repro.experiments.stages import EvalPlan

#: Stage-graph DAG: fig11's regime set under the Appendix A cost
#: model, sharing context stages with fig11 (the evaluations
#: differ — the old-kernel cost model changes every simulated check).
STAGE_PLAN = EvalPlan(
    regimes=tuple(r for pair in fig11_draco_sw.PAIRS for r in pair), old_kernel=True
)


def run(
    events: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    workloads: Optional[Tuple[str, ...]] = None,
) -> ExperimentResult:
    result = fig11_draco_sw.run(
        events=events, seed=seed, old_kernel=True, workloads=workloads
    )
    return ExperimentResult(
        experiment_id="Fig 17",
        title=result.title + " (Linux 3.10, interpreted BPF)",
        columns=result.columns,
        rows=result.rows,
        notes=(
            "paper appendix: software Draco still reduces overhead on Linux 3.10",
        ),
    )


def main() -> None:
    print(run().format_table())


if __name__ == "__main__":
    main()
