"""Figure 16 (Appendix) — Seccomp overhead on the older kernel.

Repeats the Figure 2 measurement with the CentOS 7.6 / Linux 3.10 cost
model: KPTI and Spectre mitigations enabled (slower syscall entry) and
Seccomp not using the BPF JIT (interpreted filters).  The paper's
appendix shows several pathological cases (2.2-4.3x) on this kernel.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.experiments import fig2_seccomp_overhead
from repro.experiments.results import ExperimentResult
from repro.experiments.stages import EvalPlan

#: Stage-graph DAG: fig2's regimes under the Appendix A cost model.
#: Context stages are shared with the modern-kernel
#: experiments (W is a property of the application, not the kernel);
#: only the evaluations key on ``old_kernel``.
STAGE_PLAN = EvalPlan(regimes=fig2_seccomp_overhead.REGIMES, old_kernel=True)


def run(
    events: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    workloads: Optional[Tuple[str, ...]] = None,
) -> ExperimentResult:
    result = fig2_seccomp_overhead.run(
        events=events, seed=seed, old_kernel=True, workloads=workloads
    )
    return ExperimentResult(
        experiment_id="Fig 16",
        title=result.title + " (Linux 3.10, interpreted BPF)",
        columns=result.columns,
        rows=result.rows,
        notes=result.notes
        + ("paper appendix: pathological cases up to 4.3x on this kernel",),
    )


def main() -> None:
    print(run().format_table())


if __name__ == "__main__":
    main()
