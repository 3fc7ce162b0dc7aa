"""Experiment registry: every table and figure, with its regenerator.

Maps each of the paper's evaluation artifacts to the module that
regenerates it, so ``python -m repro.experiments`` can reproduce the
whole evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.experiments import (
    bitmap_comparison,
    fig2_seccomp_overhead,
    fig3_locality,
    flow_mix,
    fig11_draco_sw,
    fig12_draco_hw,
    fig13_hit_rates,
    fig14_arg_distribution,
    fig15_security,
    fig16_old_kernel,
    fig17_old_kernel_sw,
    fleet_serving,
    table1_flows,
    table2_config,
    table3_hwcost,
    vat_footprint,
)
from repro.experiments.results import ExperimentResult


@dataclass(frozen=True)
class Experiment:
    """One regenerable paper artifact."""

    experiment_id: str
    title: str
    run: Callable[..., ExperimentResult]
    #: Declarative DAG plan (:class:`repro.experiments.stages.EvalPlan`)
    #: for the stage-graph orchestrator; ``None`` runs the experiment
    #: monolithically as a single analysis stage.
    stage_plan: Optional[Any] = None


REGISTRY: Tuple[Experiment, ...] = (
    Experiment("fig2", "Seccomp checking overhead", fig2_seccomp_overhead.run,
               stage_plan=fig2_seccomp_overhead.STAGE_PLAN),
    Experiment("fig3", "System call locality", fig3_locality.run),
    Experiment("table1", "Draco execution flows", table1_flows.run),
    Experiment("table2", "Architectural configuration", table2_config.run),
    Experiment("fig11", "Software Draco vs Seccomp", fig11_draco_sw.run,
               stage_plan=fig11_draco_sw.STAGE_PLAN),
    Experiment("fig12", "Hardware Draco", fig12_draco_hw.run,
               stage_plan=fig12_draco_hw.STAGE_PLAN),
    Experiment("fig13", "STB/SLB hit rates", fig13_hit_rates.run,
               stage_plan=fig13_hit_rates.STAGE_PLAN),
    Experiment("fig14", "Argument count distribution", fig14_arg_distribution.run),
    Experiment("fig15", "Profile security metrics", fig15_security.run),
    Experiment("table3", "Hardware area/energy", table3_hwcost.run),
    Experiment("vat", "VAT memory consumption", vat_footprint.run),
    Experiment("fig16", "Old-kernel Seccomp overhead", fig16_old_kernel.run,
               stage_plan=fig16_old_kernel.STAGE_PLAN),
    Experiment("fig17", "Old-kernel software Draco", fig17_old_kernel_sw.run,
               stage_plan=fig17_old_kernel_sw.STAGE_PLAN),
    Experiment("flowmix", "Table I flow occupancy (extension)", flow_mix.run,
               stage_plan=flow_mix.STAGE_PLAN),
    Experiment("bitmap", "Draco vs 5.11 action-cache bitmap (extension)",
               bitmap_comparison.run, stage_plan=bitmap_comparison.STAGE_PLAN),
    Experiment("fleet", "Fleet-scale FaaS serving (extension)", fleet_serving.run,
               stage_plan=fleet_serving.STAGE_PLAN),
)


def by_id(experiment_id: str) -> Experiment:
    for experiment in REGISTRY:
        if experiment.experiment_id == experiment_id:
            return experiment
    raise KeyError(experiment_id)


def ids() -> Tuple[str, ...]:
    return tuple(experiment.experiment_id for experiment in REGISTRY)
