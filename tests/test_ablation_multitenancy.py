"""Ablation: multi-tenant scheduling cost on one Draco core.

Quantifies Section VII-B under load: several sandboxed tenants
round-robin on a core, each switch invalidating SLB/STB/SPT.  Because
each process's VAT survives in memory, recovery is VAT walks — not
Seccomp filter runs — so multi-tenancy degrades Draco gracefully.
"""

from repro.experiments.runner import get_context
from repro.kernel.scheduler import RoundRobinScheduler, ScheduledProcess


def _tenants(events: int):
    tenants = []
    for name in ("nginx", "redis", "mysql"):
        ctx = get_context(name, events=events)
        tenants.append(
            ScheduledProcess(
                name=name,
                profile=ctx.bundle.complete,
                trace=ctx.trace[:events],
                work_cycles_per_syscall=ctx.work_cycles,
            )
        )
    return tenants


def _run(events: int = 4000):
    solo = {}
    for tenant in _tenants(events):
        result = RoundRobinScheduler([tenant], quantum_syscalls=400).run()
        solo.update(result.per_process)
    shared = RoundRobinScheduler(_tenants(events), quantum_syscalls=400).run()
    return solo, shared


def test_multitenancy_degrades_gracefully():
    solo, shared = _run()

    assert shared.context_switches > 0
    for name, shared_cost in shared.per_process.items():
        # Multi-tenancy stays in the same ballpark as solo occupancy.
        # (It can even be slightly cheaper: the switch-induced VAT walks
        # keep those lines cache-resident, while a solo tenant's rare
        # walks fall to DRAM.)
        assert 0.5 * solo[name] <= shared_cost <= 3.0 * solo[name], (name, shared_cost)
        # Bounded: cold structures refill from the VAT, so mean checking
        # cost remains tens of cycles, far below a filter execution.
        assert shared_cost < 120, (name, shared_cost)
