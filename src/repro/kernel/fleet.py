"""Fleet-scale multi-tenant FaaS serving under Draco.

The paper motivates Draco with serverless runtimes (Firecracker,
gVisor) where per-process VATs are born empty and warmth dies with the
container.  :mod:`repro.kernel.faas` models one worker; this module
models the *fleet*: thousands of tenants, ~10⁵ invocations, warm pools
with keep-alive windows, capacity eviction, and the SLB/STB cold-resume
storms the churn produces.

The model has three layers:

* **Calibration** — each function class drives a real
  :class:`~repro.core.hardware.HardwareDraco` pipeline once and
  snapshots three per-flow ledgers: ``cold_first`` (process startup +
  first body on a fresh VAT), ``resume`` (the body after a context
  switch invalidated the per-core SLB/STB — the price every warm start
  on a resumed container pays), and ``steady`` (the body on fully warm
  structures).  Like :class:`~repro.kernel.faas.FaaSRunner`, the
  recorded startup sequence's trailing ``exit_group`` is dropped — a
  serving worker never exits.
* **Load generation** — a deterministic Azure-Functions-style stream:
  Zipf tenant popularity, exponential interarrivals with occasional
  same-tenant bursts (scale-out surges) and fleet-wide lulls (long
  enough for keep-alive windows to lapse), and heavy-tailed (Pareto)
  invocation durations expressed as body-repetition multipliers.
* **Serving simulation** — a discrete-event loop over container pools:
  warm starts pop the tenant's most-recently-idled container, cold
  starts spawn (evicting the globally least-recently-idled container
  at capacity), keep-alive expiry retires idle containers.  Every
  invocation's checking cost is charged to its tenant's flow ledger as
  an integer combination of the calibrated ledgers — cold is
  ``cold_first + (reps-1)·steady``, warm is ``resume +
  (reps-1)·steady`` — so fleet totals equal the sum of per-tenant
  buckets *exactly* (integer counts) and conservation is auditable.

Two dispatch policies make the serverless scheduler ablation:
``round-robin`` (FIFO arrival order) and ``shortest-task``
(shortest-expected-duration first), both over the same worker pool.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common import ledger, telemetry
from repro.common.errors import ConfigError
from repro.common.rng import DEFAULT_SEED, make_rng, zipf_weights
from repro.core.hardware import HardwareDraco
from repro.core.software import build_process_tables
from repro.cpu.params import (
    DEFAULT_DRACO_HW,
    DEFAULT_PROCESSOR,
    DEFAULT_SW_COSTS,
    DracoHwParams,
    ProcessorParams,
    SoftwareCostParams,
)
from repro.seccomp.compiler import compile_profile_chunked
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.toolkit import generate_complete
from repro.syscalls.events import SyscallTrace, make_event
from repro.workloads.startup import startup_events

#: Dispatch policies (the serverless scheduler ablation).
POLICY_ROUND_ROBIN = "round-robin"
POLICY_SHORTEST = "shortest-task"
POLICIES: Tuple[str, ...] = (POLICY_ROUND_ROBIN, POLICY_SHORTEST)

#: Modelled bytes per SPT entry: syscall id + Valid/Accessed bits plus
#: the VAT base pointer and argument-count metadata of Section VIII's
#: per-process SPT (the software side has no packed representation to
#: measure, so the footprint model fixes one).
SPT_ENTRY_BYTES = 24


@dataclass(frozen=True)
class FleetParams:
    """Knobs of one fleet scenario (all deterministic given ``seed``)."""

    tenants: int = 1000
    invocations: int = 120_000
    seed: int = DEFAULT_SEED
    #: Distinct function classes; tenant ``t`` runs class ``t % classes``.
    function_classes: int = 6
    #: Zipf skew of tenant popularity (heavier -> hotter head).
    popularity_skew: float = 1.2
    #: Mean gap between consecutive fleet-wide arrivals.
    mean_interarrival_ms: float = 0.25
    #: Warm containers are retired this long after going idle.
    keep_alive_ms: float = 10_000.0
    #: Concurrent executor slots (busy containers).
    workers: int = 128
    #: Total container budget, busy + idle; at the cap a cold start
    #: evicts the globally least-recently-idled container.
    max_containers: int = 320
    #: Extra latency a cold start pays before the function body runs.
    cold_spawn_ms: float = 50.0
    #: Pareto shape of the duration (body repetition) distribution.
    duration_alpha: float = 1.6
    max_reps: int = 50
    #: Modelled wall time per body syscall per repetition.
    ms_per_syscall: float = 0.05
    #: Mean arrivals between same-tenant burst surges / fleet lulls.
    burst_every: int = 2_000
    burst_size: int = 40
    lull_every: int = 30_000
    #: Cold-resume storm detector: a window of this width with at least
    #: ``storm_threshold`` cold starts counts as one storm.
    storm_window_ms: float = 1_000.0
    storm_threshold: int = 20
    #: Extrapolation target for the memory-footprint aggregate.
    target_containers: int = 1_000_000

    def validate(self) -> None:
        if self.tenants < 1:
            raise ConfigError("need at least one tenant")
        if self.invocations < 1:
            raise ConfigError("need at least one invocation")
        if self.function_classes < 1:
            raise ConfigError("need at least one function class")
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.max_containers < self.workers:
            raise ConfigError("max_containers must cover the worker pool")
        if self.keep_alive_ms <= 0 or self.mean_interarrival_ms <= 0:
            raise ConfigError("keep-alive and interarrival must be positive")
        if self.max_reps < 1 or self.duration_alpha <= 0:
            raise ConfigError("duration distribution is degenerate")
        if self.storm_threshold < 1 or self.storm_window_ms <= 0:
            raise ConfigError("storm detector needs a positive window/threshold")


# -- calibration ---------------------------------------------------------

#: ``(flow, count, cycles)`` triples — a frozen FlowLedger.
LedgerItems = Tuple[Tuple[str, int, float], ...]


def _freeze(led: ledger.FlowLedger) -> LedgerItems:
    return tuple(
        (flow, led.counts[flow], led.cycles.get(flow, 0.0))
        for flow in sorted(led.counts)
    )


@dataclass(frozen=True)
class ClassCost:
    """Calibrated per-flow cost model of one function class."""

    index: int
    body_syscalls: int
    #: Startup + first body on a fresh process (a cold start).
    cold_first: LedgerItems
    #: Body after a context switch + resume (a warm start's transient).
    resume: LedgerItems
    #: Body on fully warm structures (every further repetition).
    steady: LedgerItems
    #: Per-container VAT bytes + modelled SPT entry bytes.
    footprint_bytes: int
    #: Modelled service time of one body repetition.
    service_ms: float

    @staticmethod
    def events(items: LedgerItems) -> int:
        return sum(count for _, count, _ in items)


def _class_body(index: int, params: FleetParams) -> List:
    """Deterministic function body for class *index*: a per-class mix
    of distinct (syscall, argument-set) pairs, sized so classes differ
    in both length and table footprint."""
    combos = 3 + index % 4
    length = 32 + 8 * index
    pc_base = 0x4000_0000 + 0x1000 * index
    events = []
    for i in range(length):
        combo = i % combos
        kind = combo % 3
        if kind == 0:
            events.append(
                make_event("read", (3 + index + combo, 4096), pc=pc_base)
            )
        elif kind == 1:
            events.append(
                make_event("write", (1, 64 + index + combo), pc=pc_base + 4)
            )
        else:
            events.append(
                make_event("getrandom", (16 + combo, 0), pc=pc_base + 8)
            )
    return events


def calibrate_classes(
    params: FleetParams,
    processor: ProcessorParams = DEFAULT_PROCESSOR,
    hw: DracoHwParams = DEFAULT_DRACO_HW,
    costs: SoftwareCostParams = DEFAULT_SW_COSTS,
) -> Tuple[ClassCost, ...]:
    """Drive each function class through a real Draco pipeline once and
    snapshot the three ledgers the fleet replays analytically."""
    # The recorded startup sequence ends with the traced exit_group; a
    # serving worker never executes it (same rule as FaaSRunner).
    startup = startup_events()[:-1]
    out = []
    for index in range(params.function_classes):
        body = _class_body(index, params)
        recording = SyscallTrace(list(startup_events()) + body)
        profile = generate_complete(recording, f"fleet-class-{index}")
        module = SeccompKernelModule()
        for program in compile_profile_chunked(profile):
            module.attach(program)
        tables = build_process_tables(profile, table=profile.table)
        pipeline = HardwareDraco(
            tables, module, processor=processor, hw=hw, costs=costs
        )

        def measure(events: Sequence) -> ledger.FlowLedger:
            before = pipeline.stats.ledger()
            for event in events:
                pipeline.on_syscall(event)
            after = pipeline.stats.ledger()
            delta = ledger.FlowLedger()
            for flow, count in after.counts.items():
                diff = count - before.counts.get(flow, 0)
                if diff:
                    delta.counts[flow] = diff
                    delta.cycles[flow] = after.cycles.get(
                        flow, 0.0
                    ) - before.cycles.get(flow, 0.0)
            return delta

        cold_first = measure(list(startup) + body)
        measure(body)  # settle: second pass fills the remaining warmth
        steady = measure(body)
        pipeline.context_switch(same_process=False)
        pipeline.resume_process()
        resume = measure(body)
        footprint = tables.vat.size_bytes + len(tables.spt) * SPT_ENTRY_BYTES
        out.append(
            ClassCost(
                index=index,
                body_syscalls=len(body),
                cold_first=_freeze(cold_first),
                resume=_freeze(resume),
                steady=_freeze(steady),
                footprint_bytes=footprint,
                service_ms=len(body) * params.ms_per_syscall,
            )
        )
    return tuple(out)


# -- load generation -----------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One arrival in the fleet stream."""

    seq: int
    tenant: int
    arrival_ms: float
    #: Duration multiplier: the function body repeats this many times.
    reps: int


def generate_load(params: FleetParams) -> Tuple[Invocation, ...]:
    """Deterministic per-tenant invocation streams, merged by arrival.

    Tenants are picked per arrival from a Zipf popularity distribution
    (cumulative-weight bisection, O(log N) per draw); durations are
    capped Pareto.  Burst surges hit one tenant with near-simultaneous
    arrivals; lulls insert a gap longer than the keep-alive window.
    """
    params.validate()
    rng = make_rng(params.seed, "fleet/load")
    weights = zipf_weights(params.tenants, params.popularity_skew)
    cumulative: List[float] = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)

    def pick_tenant() -> int:
        return bisect.bisect_left(cumulative, rng.random() * total)

    def pick_reps() -> int:
        return min(params.max_reps, int(rng.paretovariate(params.duration_alpha)))

    out: List[Invocation] = []
    t = 0.0
    while len(out) < params.invocations:
        if params.lull_every and rng.random() < 1.0 / params.lull_every:
            # A fleet-wide lull: long enough that keep-alive windows
            # lapse, so the traffic after it restarts cold (a storm).
            t += params.keep_alive_ms * (1.0 + 2.0 * rng.random())
        if params.burst_every and rng.random() < 1.0 / params.burst_every:
            tenant = pick_tenant()
            size = min(
                1 + int(rng.expovariate(1.0 / params.burst_size)),
                params.invocations - len(out),
            )
            for _ in range(size):
                t += 0.01
                out.append(Invocation(len(out), tenant, t, pick_reps()))
            continue
        t += rng.expovariate(1.0 / params.mean_interarrival_ms)
        out.append(Invocation(len(out), pick_tenant(), t, pick_reps()))
    return tuple(out)


# -- serving simulation --------------------------------------------------


class _TenantState:
    """Mutable per-tenant accounting (slots keep 5k tenants cheap)."""

    __slots__ = (
        "klass", "invocations", "cold_starts", "warm_starts",
        "syscalls", "flow_counts", "flow_cycles", "live", "peak_live",
        "idle",
    )

    def __init__(self, klass: int) -> None:
        self.klass = klass
        self.invocations = 0
        self.cold_starts = 0
        self.warm_starts = 0
        self.syscalls = 0
        self.flow_counts: Dict[str, int] = {}
        self.flow_cycles: Dict[str, float] = {}
        self.live = 0
        self.peak_live = 0
        self.idle: List[int] = []  # LIFO stack of container ids

    def charge(self, items: LedgerItems, times: int) -> None:
        if times <= 0:
            return
        counts, cycles = self.flow_counts, self.flow_cycles
        for flow, count, cyc in items:
            counts[flow] = counts.get(flow, 0) + count * times
            cycles[flow] = cycles.get(flow, 0.0) + cyc * times
            self.syscalls += count * times

    def flow_ledger(self) -> ledger.FlowLedger:
        return ledger.FlowLedger(self.flow_counts, self.flow_cycles)


@dataclass(frozen=True)
class TenantAggregate:
    """Immutable per-tenant summary carried by :class:`FleetResult`."""

    tenant: int
    klass: int
    invocations: int
    cold_starts: int
    warm_starts: int
    syscalls: int
    check_cycles: float
    flow_counts: Dict[str, int]
    flow_cycles: Dict[str, float]
    peak_containers: int
    footprint_peak_bytes: int


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet serving run under one dispatch policy."""

    policy: str
    tenants: int
    invocations: int
    #: Checked syscalls charged across the fleet (== ledger count sum).
    syscalls: int
    #: Fleet checking cycles, derived from the merged flow ledger.
    check_cycles: float
    horizon_ms: float
    wait_ms: Dict[str, float]
    counters: Dict[str, float]
    footprint: Dict[str, float]
    flow_counts: Dict[str, int]
    flow_cycles: Dict[str, float]
    per_tenant: Tuple[TenantAggregate, ...] = field(repr=False)

    def fleet_ledger(self) -> ledger.FlowLedger:
        return ledger.FlowLedger(self.flow_counts, self.flow_cycles)

    @property
    def mean_check_cycles(self) -> float:
        return self.check_cycles / self.syscalls if self.syscalls else 0.0

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "tenants": self.tenants,
            "invocations": self.invocations,
            "syscalls": self.syscalls,
            "check_cycles": self.check_cycles,
            "mean_check_cycles": self.mean_check_cycles,
            "horizon_ms": round(self.horizon_ms, 3),
            "wait_ms": {k: round(v, 4) for k, v in sorted(self.wait_ms.items())},
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "footprint": {k: self.footprint[k] for k in sorted(self.footprint)},
            "flows": {
                "counts": dict(sorted(self.flow_counts.items())),
                "cycles": {k: v for k, v in sorted(self.flow_cycles.items())},
            },
            # Compact per-tenant aggregate rows (active tenants only):
            # [tenant, class, invocations, cold, warm, syscalls,
            #  check_cycles, peak_containers, footprint_peak_bytes]
            "per_tenant": [
                [
                    t.tenant, t.klass, t.invocations, t.cold_starts,
                    t.warm_starts, t.syscalls, t.check_cycles,
                    t.peak_containers, t.footprint_peak_bytes,
                ]
                for t in self.per_tenant
            ],
        }


def simulate_fleet(
    params: FleetParams,
    policy: str = POLICY_ROUND_ROBIN,
    classes: Optional[Tuple[ClassCost, ...]] = None,
    load: Optional[Tuple[Invocation, ...]] = None,
    record_telemetry: bool = True,
) -> FleetResult:
    """Serve the generated load through the container-pool model.

    ``classes``/``load`` accept precomputed calibration and load so
    several policies (or stage-graph stages) can share them; both are
    pure functions of ``params``, so passing them changes nothing but
    wall time.
    """
    params.validate()
    if policy not in POLICIES:
        raise ConfigError(f"unknown dispatch policy {policy!r}")
    if classes is None:
        classes = calibrate_classes(params)
    if load is None:
        load = generate_load(params)

    tenants: Dict[int, _TenantState] = {}

    def tenant_state(tenant: int) -> _TenantState:
        state = tenants.get(tenant)
        if state is None:
            state = tenants[tenant] = _TenantState(tenant % len(classes))
        return state

    # Container bookkeeping.  state: 1 busy, 2 idle, 0 dead.
    container_state: List[int] = []
    container_tenant: List[int] = []
    container_expire: List[float] = []
    container_idle_since: List[float] = []
    container_count = 0  # live (busy + idle)
    idle_order: List[Tuple[float, int]] = []  # eviction heap (lazy)
    expiry_heap: List[Tuple[float, int]] = []

    counters: Dict[str, float] = {
        "cold_starts": 0, "warm_starts": 0, "spawns": 0,
        "evictions": 0, "keepalive_expiries": 0,
        "cold_resume_storms": 0, "max_cold_in_window": 0,
        "peak_containers": 0, "peak_busy": 0, "queue_peak": 0,
    }
    storm_windows: Dict[int, int] = {}
    busy = 0
    waits: List[float] = []
    queue_fifo: deque = deque()
    queue_sjf: List[Tuple[float, int, Invocation]] = []
    finish_heap: List[Tuple[float, int, int, int]] = []  # (t, seq, cid, tenant)
    last_finish_ms = 0.0

    def expire_idle(now: float) -> None:
        nonlocal container_count
        while expiry_heap and expiry_heap[0][0] <= now:
            expire_ms, cid = heapq.heappop(expiry_heap)
            if container_state[cid] != 2 or container_expire[cid] != expire_ms:
                continue  # re-idled or already gone; stale heap entry
            container_state[cid] = 0
            container_count -= 1
            tenants[container_tenant[cid]].live -= 1
            counters["keepalive_expiries"] += 1

    def evict_lru_idle(now: float) -> None:
        """Free one container slot by retiring the least-recently-idled
        container anywhere in the fleet (capacity pressure)."""
        nonlocal container_count
        while idle_order:
            idle_since, cid = heapq.heappop(idle_order)
            if container_state[cid] != 2 or container_idle_since[cid] != idle_since:
                continue
            container_state[cid] = 0
            container_count -= 1
            tenants[container_tenant[cid]].live -= 1
            counters["evictions"] += 1
            return
        raise ConfigError(
            "container cap reached with no idle container to evict"
        )  # pragma: no cover - workers <= max_containers forbids this

    def start(invocation: Invocation, now: float) -> None:
        nonlocal busy, container_count, last_finish_ms
        state = tenant_state(invocation.tenant)
        klass = classes[state.klass]
        state.invocations += 1
        # Warm start: most recently idled container of this tenant.
        cid = None
        while state.idle:
            candidate = state.idle.pop()
            if container_state[candidate] == 2:
                cid = candidate
                break
        begin = now
        if cid is not None:
            container_state[cid] = 1
            state.warm_starts += 1
            counters["warm_starts"] += 1
            # A resumed container's per-core SLB/STB are cold: the
            # first body pays the resume transient, the rest replay
            # steady.
            state.charge(klass.resume, 1)
            state.charge(klass.steady, invocation.reps - 1)
        else:
            if container_count >= params.max_containers:
                evict_lru_idle(now)
            cid = len(container_state)
            container_state.append(1)
            container_tenant.append(invocation.tenant)
            container_expire.append(0.0)
            container_idle_since.append(0.0)
            container_count += 1
            state.live += 1
            if state.live > state.peak_live:
                state.peak_live = state.live
            state.cold_starts += 1
            counters["cold_starts"] += 1
            counters["spawns"] += 1
            window = int(now // params.storm_window_ms)
            storm_windows[window] = storm_windows.get(window, 0) + 1
            state.charge(klass.cold_first, 1)
            state.charge(klass.steady, invocation.reps - 1)
            begin = now + params.cold_spawn_ms
        busy += 1
        if busy > counters["peak_busy"]:
            counters["peak_busy"] = busy
        if container_count > counters["peak_containers"]:
            counters["peak_containers"] = container_count
        waits.append(now - invocation.arrival_ms)
        finish = begin + klass.service_ms * invocation.reps
        if finish > last_finish_ms:
            last_finish_ms = finish
        heapq.heappush(
            finish_heap, (finish, invocation.seq, cid, invocation.tenant)
        )

    def enqueue(invocation: Invocation) -> None:
        if policy == POLICY_ROUND_ROBIN:
            queue_fifo.append(invocation)
        else:
            klass = classes[invocation.tenant % len(classes)]
            expected = klass.service_ms * invocation.reps
            heapq.heappush(queue_sjf, (expected, invocation.seq, invocation))
        depth = len(queue_fifo) + len(queue_sjf)
        if depth > counters["queue_peak"]:
            counters["queue_peak"] = depth

    def dequeue() -> Optional[Invocation]:
        if queue_fifo:
            return queue_fifo.popleft()
        if queue_sjf:
            return heapq.heappop(queue_sjf)[2]
        return None

    arrival_index = 0
    while arrival_index < len(load) or finish_heap:
        run_finish = bool(finish_heap) and (
            arrival_index >= len(load)
            or finish_heap[0][0] <= load[arrival_index].arrival_ms
        )
        if run_finish:
            now, _seq, cid, tenant = heapq.heappop(finish_heap)
            expire_idle(now)
            busy -= 1
            container_state[cid] = 2
            container_expire[cid] = now + params.keep_alive_ms
            container_idle_since[cid] = now
            tenants[tenant].idle.append(cid)
            heapq.heappush(idle_order, (now, cid))
            heapq.heappush(expiry_heap, (container_expire[cid], cid))
            if busy < params.workers:
                queued = dequeue()
                if queued is not None:
                    start(queued, now)
        else:
            invocation = load[arrival_index]
            arrival_index += 1
            now = invocation.arrival_ms
            expire_idle(now)
            if busy < params.workers:
                start(invocation, now)
            else:
                enqueue(invocation)

    # Storm windows: any window with >= threshold cold starts.
    if storm_windows:
        counters["max_cold_in_window"] = max(storm_windows.values())
        counters["cold_resume_storms"] = sum(
            1 for count in storm_windows.values()
            if count >= params.storm_threshold
        )
    counters["active_tenants"] = len(tenants)
    counters["idle_remaining"] = (
        counters["spawns"] - counters["evictions"] - counters["keepalive_expiries"]
    )

    # Fleet ledger: the exact merge of the per-tenant buckets.
    fleet = ledger.FlowLedger()
    aggregates: List[TenantAggregate] = []
    for tenant in sorted(tenants):
        state = tenants[tenant]
        tenant_ledger = state.flow_ledger()
        fleet.merge(tenant_ledger)
        klass = classes[state.klass]
        aggregates.append(
            TenantAggregate(
                tenant=tenant,
                klass=state.klass,
                invocations=state.invocations,
                cold_starts=state.cold_starts,
                warm_starts=state.warm_starts,
                syscalls=state.syscalls,
                check_cycles=tenant_ledger.total_cycles(),
                flow_counts=dict(state.flow_counts),
                flow_cycles=dict(state.flow_cycles),
                peak_containers=state.peak_live,
                footprint_peak_bytes=state.peak_live * klass.footprint_bytes,
            )
        )
    syscalls = fleet.total_events()
    check_cycles = fleet.total_cycles()
    fleet.audit_totals(syscalls, check_cycles, scope=f"fleet/{policy}")

    waits.sort()

    def percentile(fraction: float) -> float:
        if not waits:
            return 0.0
        return waits[min(len(waits) - 1, int(fraction * len(waits)))]

    wait_ms = {
        "mean": sum(waits) / len(waits) if waits else 0.0,
        "p50": percentile(0.50),
        "p95": percentile(0.95),
        "p99": percentile(0.99),
        "max": waits[-1] if waits else 0.0,
    }

    # Footprint: per-tenant peaks (concurrent containers x per-container
    # VAT+SPT bytes) and the mean-per-container extrapolation.
    fleet_peak_bytes = sum(t.footprint_peak_bytes for t in aggregates)
    spawns = max(int(counters["spawns"]), 1)
    spawn_bytes = sum(
        t.cold_starts * classes[t.klass].footprint_bytes for t in aggregates
    )
    bytes_per_container = spawn_bytes / spawns
    tenant_peaks_kb = [t.footprint_peak_bytes / 1024.0 for t in aggregates]
    footprint = {
        "fleet_peak_bytes": float(fleet_peak_bytes),
        "bytes_per_container": bytes_per_container,
        "mean_tenant_peak_kb": (
            sum(tenant_peaks_kb) / len(tenant_peaks_kb) if tenant_peaks_kb else 0.0
        ),
        "max_tenant_peak_kb": max(tenant_peaks_kb, default=0.0),
        "target_containers": float(params.target_containers),
        "extrapolated_gb": (
            bytes_per_container * params.target_containers / (1024.0**3)
        ),
    }

    result = FleetResult(
        policy=policy,
        tenants=params.tenants,
        invocations=len(load),
        syscalls=syscalls,
        check_cycles=check_cycles,
        horizon_ms=last_finish_ms,
        wait_ms=wait_ms,
        counters=counters,
        footprint=footprint,
        flow_counts=dict(fleet.counts),
        flow_cycles=dict(fleet.cycles),
        per_tenant=tuple(aggregates),
    )
    if record_telemetry:
        telemetry.record_simulation(
            regime=f"fleet-{policy}",
            events=syscalls,
            check_cycles=check_cycles,
            total_cycles=check_cycles,
            flow_counts=result.flow_counts,
            flow_cycles=result.flow_cycles,
        )
        telemetry.count_numbers(
            {
                "tenants": params.tenants,
                "invocations": len(load),
                **{k: float(v) for k, v in counters.items()},
            },
            "fleet",
            policy,
        )
    return result
