"""Extension analysis: fleet-scale multi-tenant FaaS serving.

Section II-C motivates Draco with serverless platforms ("invocations
exceed a million per day"; MicroVMs churn so fast that per-process
state is born cold), and Section VIII sizes the VAT for one process.
This experiment extrapolates both to the fleet: it drives the
:mod:`repro.kernel.fleet` container-churn model with a deterministic
Azure-Functions-style load (Zipf tenant popularity, heavy-tailed
durations, bursts and lulls) and compares two serverless dispatch
policies — FIFO ``round-robin`` and ``shortest-task`` (shortest
expected duration first) — over the same worker pool.

Per policy the table reports the syscall-checking totals (derived from
the exact per-tenant flow-ledger merge), the container churn
(cold/warm starts, evictions, keep-alive expiries), cold-resume-storm
windows, queueing percentiles, and the per-container VAT+SPT footprint
extrapolated to a million containers.  Both policies serve one load
over one set of class calibrations, built once by :func:`eval_payload`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.experiments.results import ExperimentResult
from repro.experiments.stages import FleetPlan
from repro.kernel.fleet import (
    POLICIES,
    FleetParams,
    calibrate_classes,
    generate_load,
    simulate_fleet,
)

#: Stage-graph DAG: one ``fleet-eval`` stage serving every dispatch
#: policy feeds the analysis.
STAGE_PLAN = FleetPlan()

#: Default fleet scale (the paper's motivation is ~10⁶ containers; the
#: simulated slice is 10³ tenants over 1.2×10⁵ invocations).
DEFAULT_INVOCATIONS = 120_000
DEFAULT_TENANTS = 1000


def resolve_params(
    events: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    tenants: Optional[int] = None,
    invocations: Optional[int] = None,
) -> FleetParams:
    """Map engine-level knobs onto a :class:`FleetParams`.

    ``events`` (the suite-wide trace-length knob) scales the invocation
    count when no explicit ``invocations`` override is given, so
    ``--events 2000`` smoke runs stay fast; the tenant population
    scales with it (≈1 tenant per 120 invocations, capped at the
    default 1000).  Both a direct ``run()`` and the stage planner
    derive parameters through this one function, which is what keeps
    staged and direct results byte-identical.
    """
    if invocations is None:
        invocations = DEFAULT_INVOCATIONS if events is None else int(events)
    if tenants is None:
        tenants = max(20, min(DEFAULT_TENANTS, invocations // 120))
    return FleetParams(tenants=tenants, invocations=invocations, seed=seed)


#: Staged ``fleet-eval`` payloads awaiting :func:`run`, keyed by
#: scenario ``(tenants, invocations, seed)``.
_SEEDED: Dict[Tuple[int, int, int], Dict[str, Any]] = {}


def seed_eval(dep_params: Mapping[str, Any], payload: Dict[str, Any]) -> None:
    """Install a staged ``fleet-eval`` payload for :func:`run` to consume
    (the fleet analogue of ``WorkloadContext.seed_evaluation``)."""
    fleet = dep_params["fleet"]
    key = (int(fleet["tenants"]), int(fleet["invocations"]), int(fleet["seed"]))
    _SEEDED[key] = payload


def eval_payload(params: FleetParams) -> Dict[str, Dict[str, Any]]:
    """Serve the scenario under every dispatch policy:
    ``{policy: FleetResult.to_json_dict()}``.

    The load and the class calibrations are built once and shared by
    the policies.  This is the ``fleet-eval`` stage executor and the
    fallback of a direct :func:`run`; staged payloads are consumed by
    :func:`run` only.
    """
    classes = calibrate_classes(params)
    load = generate_load(params)
    return {
        policy: simulate_fleet(params, policy, classes=classes, load=load).to_json_dict()
        for policy in POLICIES
    }


def run(
    events: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    tenants: Optional[int] = None,
    invocations: Optional[int] = None,
) -> ExperimentResult:
    params = resolve_params(events, seed=seed, tenants=tenants, invocations=invocations)
    columns = (
        "policy", "tenants", "invocations", "syscalls", "Mcycles",
        "cyc/sys", "cold", "warm", "evicted", "expired", "storms",
        "peak_ctr", "wait_mean_ms", "wait_p95_ms", "fleet_gb@1M",
    )
    # Stage-graph analysis runs consume the staged payload — once;
    # telemetry was recorded when the fleet-eval stage executed.  Direct
    # runs (and any later run of the same params in this process)
    # compute it here.
    payloads = _SEEDED.pop((params.tenants, params.invocations, params.seed), None)
    if payloads is None:
        payloads = eval_payload(params)
    rows = []
    for policy in POLICIES:
        payload = payloads[policy]
        counters = payload["counters"]
        rows.append(
            (
                policy,
                payload["tenants"],
                payload["invocations"],
                payload["syscalls"],
                round(payload["check_cycles"] / 1e6, 3),
                round(payload["mean_check_cycles"], 3),
                int(counters["cold_starts"]),
                int(counters["warm_starts"]),
                int(counters["evictions"]),
                int(counters["keepalive_expiries"]),
                int(counters["cold_resume_storms"]),
                int(counters["peak_containers"]),
                round(payload["wait_ms"]["mean"], 3),
                round(payload["wait_ms"]["p95"], 3),
                round(payload["footprint"]["extrapolated_gb"], 3),
            )
        )
    return ExperimentResult(
        experiment_id="Fleet serving",
        title="Multi-tenant FaaS fleet under Draco: dispatch-policy ablation",
        columns=columns,
        rows=tuple(rows),
        notes=(
            "load: Zipf tenant popularity, Pareto durations, bursts + keep-alive-lapsing lulls",
            "cold = fresh container (startup + cold-VAT first pass); warm = resumed container (SLB/STB transient)",
            "storms = 1s windows with >= 20 cold starts (the cold-resume storms of fleet churn)",
            "fleet_gb@1M: mean per-container VAT+SPT bytes extrapolated to 10^6 containers",
            "syscall totals derive from the exact merge of per-tenant flow ledgers",
        ),
    )


def main() -> None:
    print(run().format_table())


if __name__ == "__main__":
    main()
