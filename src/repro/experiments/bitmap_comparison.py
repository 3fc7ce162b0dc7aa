"""Extension: Draco versus the Linux 5.11 seccomp action-cache bitmap.

The bitmap (this paper's upstream legacy) caches argument-independent
ALLOW verdicts per syscall number.  This experiment measures, per
workload, normalised execution time under:

* plain Seccomp,
* Seccomp + action-cache bitmap,
* software Draco, and
* hardware Draco,

for both the ID-only (``noargs``) and argument-checking (``complete``)
profiles.  Expected shape: the bitmap ties Draco on ID-only checking
but reverts to plain-Seccomp cost once arguments are checked — the gap
that motivates Draco's VAT.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import get_context
from repro.experiments.stages import EvalPlan
from repro.kernel.simulator import run_trace
from repro.seccomp.bitmap_cache import SeccompBitmapRegime

#: A representative subset of the catalog.  Any workload works: the
#: bitmap build costs one abstract pass per attached filter.
DEFAULT_WORKLOADS = ("nginx", "redis", "pwgen", "pipe-ipc", "unixbench-syscall")

#: (profile label, Seccomp regime, software-Draco regime, hardware-Draco
#: regime) per table row.
PROFILES = (
    ("noargs", "syscall-noargs", "draco-sw-noargs", "draco-hw-noargs"),
    ("complete", "syscall-complete", "draco-sw-complete", "draco-hw-complete"),
)

#: Stage-graph DAG: the six Seccomp and Draco evaluations per workload
#: are stages of fig2, fig11 and fig12, so the analysis stage waits for
#: them instead of walking them itself; only the bitmap regime, which
#: no other experiment runs, is simulated in the analysis.
STAGE_PLAN = EvalPlan(
    regimes=tuple(regime for row in PROFILES for regime in row[1:]),
    workloads=DEFAULT_WORKLOADS,
)


def run(
    events: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    workloads: Optional[Tuple[str, ...]] = None,
) -> ExperimentResult:
    names = workloads or DEFAULT_WORKLOADS
    columns = (
        "workload",
        "profile",
        "seccomp",
        "seccomp+bitmap",
        "draco-sw",
        "draco-hw",
        "bitmap_hit_rate",
    )
    rows = []
    for name in names:
        kwargs = dict(seed=seed)
        if events is not None:
            kwargs["events"] = events
        ctx = get_context(name, **kwargs)
        for label, seccomp_regime, sw_regime, hw_regime in PROFILES:
            bitmap = SeccompBitmapRegime(ctx.profile_for_role(label), costs=ctx.costs)
            bitmap_result = run_trace(
                ctx.trace, bitmap, ctx.work_cycles, ctx.syscall_base_cycles,
                workload_name=name,
            )
            hits = bitmap.bitmap_hits
            total = hits + bitmap.filter_runs
            rows.append(
                (
                    name,
                    label,
                    round(ctx.evaluate(seccomp_regime).normalized_time, 4),
                    round(bitmap_result.normalized_time, 4),
                    round(ctx.evaluate(sw_regime).normalized_time, 4),
                    round(ctx.evaluate(hw_regime).normalized_time, 4),
                    round(hits / total, 4) if total else 0.0,
                )
            )
    return ExperimentResult(
        experiment_id="Bitmap",
        title="Draco vs the Linux 5.11 seccomp action-cache bitmap",
        columns=columns,
        rows=tuple(rows),
        notes=(
            "the bitmap caches only argument-independent allows; Draco caches (ID, argument set)",
            "expected: bitmap ~ Draco on noargs; bitmap ~ plain Seccomp on complete",
        ),
    )


def main() -> None:
    print(run().format_table())


if __name__ == "__main__":
    main()
