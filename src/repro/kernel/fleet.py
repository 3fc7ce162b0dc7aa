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
  invocation durations expressed as body-repetition multipliers, held
  as three columns indexed by sequence number (:class:`FleetLoad`).
* **Serving simulation** — a discrete-event loop over container pools:
  warm starts pop the tenant's most-recently-idled container, cold
  starts spawn (evicting the globally least-recently-idled container
  at capacity), keep-alive expiry retires idle containers.  Simulated
  time never runs backwards and keep-alive is one constant, so one
  FIFO of idle containers, oldest first, serves both expiry and
  eviction.  Each start only logs its repetition count; after the loop
  every tenant's log is folded into its flow ledger as the calibrated
  ledgers — cold is ``cold_first + (reps-1)·steady``, warm is
  ``resume + (reps-1)·steady`` — added in invocation order, so fleet
  totals equal the sum of per-tenant buckets *exactly* (integer
  counts) and conservation is auditable.

Two dispatch policies make the serverless scheduler ablation:
``round-robin`` (FIFO arrival order) and ``shortest-task``
(shortest-expected-duration first), both over the same worker pool.
"""

from __future__ import annotations

import bisect
import heapq
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
        if self.burst_every and self.burst_size < 1:
            raise ConfigError("bursts need a positive burst_size")
        # Service takes time and a spawn cannot finish before it starts:
        # the serving loop relies on simulated time never decreasing.
        if self.ms_per_syscall <= 0 or self.cold_spawn_ms < 0:
            raise ConfigError("ms_per_syscall must be positive, cold_spawn_ms not negative")


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
class FleetLoad:
    """The fleet stream in arrival order, as three columns indexed by
    sequence number: ``tenant`` and ``reps`` (the duration multiplier:
    the body repeats this often) in ``array("q")``, ``arrival_ms`` in
    ``array("d")``."""

    tenant: array
    arrival_ms: array
    reps: array

    def __len__(self) -> int:
        return len(self.tenant)


def generate_load(params: FleetParams) -> FleetLoad:
    """Deterministic per-tenant invocation streams, merged by arrival,
    as three columns (:class:`FleetLoad`).

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

    random, pareto, expovariate = rng.random, rng.paretovariate, rng.expovariate
    count, alpha, max_reps = params.invocations, params.duration_alpha, params.max_reps
    lull_every, burst_every = params.lull_every, params.burst_every
    arrival_rate = 1.0 / params.mean_interarrival_ms
    tenants, arrivals, durations = array("q"), array("d"), array("q")
    t = 0.0
    while len(tenants) < count:
        if lull_every and random() < 1.0 / lull_every:
            # A fleet-wide lull: long enough that keep-alive windows
            # lapse, so the traffic after it restarts cold (a storm).
            t += params.keep_alive_ms * (1.0 + 2.0 * random())
        if burst_every and random() < 1.0 / burst_every:
            tenant = bisect.bisect_left(cumulative, random() * total)
            size = min(1 + int(expovariate(1.0 / params.burst_size)), count - len(tenants))
            for _ in range(size):
                t += 0.01
                tenants.append(tenant)
                arrivals.append(t)
                durations.append(min(max_reps, int(pareto(alpha))))
            continue
        t += expovariate(arrival_rate)
        tenants.append(bisect.bisect_left(cumulative, random() * total))
        arrivals.append(t)
        durations.append(min(max_reps, int(pareto(alpha))))
    return FleetLoad(tenants, arrivals, durations)


# -- serving simulation --------------------------------------------------


def _fold(starts: List[int], klass: ClassCost) -> Tuple[ledger.FlowLedger, int]:
    """One tenant's flow ledger and syscall count from its start log:
    ``~reps`` per cold start (negative even for ``reps == 0``), ``reps``
    per warm start, in invocation order.

    Each start adds its start ledger, then ``steady`` times the further
    repetitions, if any.  ``cold_first`` holds fractional cycles, so the
    additions follow invocation order: every float total is then the
    running sum that charging each start as it happened would give.
    The syscall count is summed from the class's per-ledger event
    totals, apart from the ledger, so the two can be checked against
    each other.
    """
    led = ledger.FlowLedger()
    counts, cycles = led.counts, led.cycles
    cold_events = ClassCost.events(klass.cold_first)
    resume_events = ClassCost.events(klass.resume)
    steady_events = ClassCost.events(klass.steady)
    syscalls = 0
    for entry in starts:
        if entry < 0:
            items, reps = klass.cold_first, ~entry
            syscalls += cold_events
        else:
            items, reps = klass.resume, entry
            syscalls += resume_events
        for flow, count, cyc in items:
            counts[flow] = counts.get(flow, 0) + count
            cycles[flow] = cycles.get(flow, 0.0) + cyc
        times = reps - 1
        if times > 0:
            syscalls += steady_events * times
            for flow, count, cyc in klass.steady:
                counts[flow] = counts.get(flow, 0) + count * times
                cycles[flow] = cycles.get(flow, 0.0) + cyc * times
    return led, syscalls


def wait_summary(zeros: int, waits: List[float]) -> Dict[str, float]:
    """Mean, p50, p95, p99 and max of *zeros* waits of exactly ``0.0``
    and the other *waits* (sorted here, in place).

    No wait is negative, so the sorted list of all waits is the zeros
    followed by the sorted *waits*: each percentile indexes that list,
    and the mean sums it in that order, where adding ``0.0`` changes no
    float.  Every value is bit for bit the one the full list gives.
    """
    total = zeros + len(waits)
    if not total:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    waits.sort()

    def percentile(fraction: float) -> float:
        index = min(total - 1, int(fraction * total)) - zeros
        return waits[index] if index >= 0 else 0.0

    return {
        "mean": sum(waits) / total,
        "p50": percentile(0.50),
        "p95": percentile(0.95),
        "p99": percentile(0.99),
        "max": waits[-1] if waits else 0.0,
    }


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
    load: Optional[FleetLoad] = None,
    record_telemetry: bool = True,
) -> FleetResult:
    """Serve the generated load through the container-pool model.

    ``classes``/``load`` accept precomputed calibration and load so
    several policies can share them (the ``fleet-eval`` stage does);
    both are pure functions of ``params``, so passing them changes
    nothing but wall time.  The loop reads the load's columns by
    sequence number, and keeps only the waits that are not ``0.0``.
    """
    params.validate()
    if policy not in POLICIES:
        raise ConfigError(f"unknown dispatch policy {policy!r}")
    if classes is None:
        classes = calibrate_classes(params)
    if load is None:
        load = generate_load(params)

    n_classes = len(classes)
    service_ms = [klass.service_ms for klass in classes]
    keep_alive_ms = params.keep_alive_ms
    workers = params.workers
    shortest = policy == POLICY_SHORTEST

    # Per tenant: its start log (~reps per cold start, reps per warm
    # start, folded into its flow ledger after the loop), its idle
    # containers (most recently idled last), and its live and peak
    # container counts.
    starts: Dict[int, List[int]] = defaultdict(list)
    tenant_idle: Dict[int, List[int]] = defaultdict(list)
    live: Dict[int, int] = defaultdict(int)
    peak_live: Dict[int, int] = defaultdict(int)

    # Container bookkeeping.  state: 1 busy, 2 idle, 0 dead.
    container_state: List[int] = []
    container_tenant: List[int] = []
    container_idle_since: List[float] = []
    container_count = 0  # live (busy + idle)
    # (idle_since, cid) per idling, oldest first; an entry is stale once
    # its container is busy again or dead.  Time never decreases and
    # keep-alive is one constant, so the oldest valid entry is both the
    # next to expire and the least recently idled.
    idle: deque = deque()

    evictions = expiries = peak_containers = peak_busy = queue_peak = 0
    storm_windows: Dict[int, int] = {}
    busy = 0
    waits: List[float] = []  # the waits that are not zero
    queue: Any = [] if shortest else deque()  # (expected, seq) heap or FIFO of seqs
    finish_heap: List[Tuple[float, int, int, int]] = []  # (t, seq, cid, tenant)
    last_finish_ms = 0.0

    heappop, heappush = heapq.heappop, heapq.heappush
    tenant_of, arrival_of, reps_of = load.tenant, load.arrival_ms, load.reps
    arrivals = len(load)
    arrived = 0  # seq of the next arrival
    while arrived < arrivals or finish_heap:
        # Finishes go before arrivals at the same time.
        if finish_heap and (arrived == arrivals or finish_heap[0][0] <= arrival_of[arrived]):
            now, _seq, cid, tenant = heappop(finish_heap)
            seq = -1
        else:
            seq, now = arrived, arrival_of[arrived]
            arrived += 1
        while idle and idle[0][0] + keep_alive_ms <= now:
            since, victim = idle.popleft()
            if container_state[victim] == 2 and container_idle_since[victim] == since:
                container_state[victim] = 0
                container_count -= 1
                live[container_tenant[victim]] -= 1
                expiries += 1
        if seq < 0:
            busy -= 1
            container_state[cid] = 2
            container_idle_since[cid] = now
            tenant_idle[tenant].append(cid)
            # Equal idle times keep a heap's order: lowest container id first.
            if idle and (now, cid) < idle[-1]:
                bisect.insort(idle, (now, cid))
            else:
                idle.append((now, cid))
            if not queue:
                continue
            seq = heappop(queue)[1] if shortest else queue.popleft()
        elif busy >= workers:
            if shortest:
                expected = service_ms[tenant_of[seq] % n_classes] * reps_of[seq]
                heappush(queue, (expected, seq))
            else:
                queue.append(seq)
            if len(queue) > queue_peak:
                queue_peak = len(queue)
            continue

        # Start the invocation.  Warm start: the most recently idled
        # container of its tenant.
        tenant = tenant_of[seq]
        reps = reps_of[seq]
        mine = tenant_idle[tenant]
        while mine and container_state[mine[-1]] != 2:
            mine.pop()
        begin = now
        if mine:
            cid = mine.pop()
            container_state[cid] = 1
            # A resumed container's per-core SLB/STB are cold: the
            # first body pays the resume transient, the rest replay
            # steady.
            starts[tenant].append(reps)
        else:
            if container_count >= params.max_containers:
                # Capacity: retire the least recently idled container
                # anywhere in the fleet.  One is idle, because workers
                # <= max_containers and a worker is free.
                since, victim = idle.popleft()
                while container_state[victim] != 2 or container_idle_since[victim] != since:
                    since, victim = idle.popleft()
                container_state[victim] = 0
                container_count -= 1
                live[container_tenant[victim]] -= 1
                evictions += 1
            cid = len(container_state)
            container_state.append(1)
            container_tenant.append(tenant)
            container_idle_since.append(0.0)
            container_count += 1
            if container_count > peak_containers:
                peak_containers = container_count
            live[tenant] += 1
            if live[tenant] > peak_live[tenant]:
                peak_live[tenant] = live[tenant]
            window = int(now // params.storm_window_ms)
            storm_windows[window] = storm_windows.get(window, 0) + 1
            starts[tenant].append(~reps)
            begin = now + params.cold_spawn_ms
        busy += 1
        if busy > peak_busy:
            peak_busy = busy
        if now > arrival_of[seq]:  # else it waits exactly 0.0
            waits.append(now - arrival_of[seq])
        finish = begin + service_ms[tenant % n_classes] * reps
        if finish > last_finish_ms:
            last_finish_ms = finish
        heappush(finish_heap, (finish, seq, cid, tenant))

    # Fleet ledger: the exact merge of the per-tenant buckets.
    fleet = ledger.FlowLedger()
    aggregates: List[TenantAggregate] = []
    for tenant in sorted(starts):
        log = starts[tenant]
        klass = classes[tenant % n_classes]
        tenant_ledger, tenant_syscalls = _fold(log, klass)
        fleet.merge(tenant_ledger)
        cold = sum(1 for entry in log if entry < 0)
        aggregates.append(
            TenantAggregate(
                tenant=tenant,
                klass=tenant % n_classes,
                invocations=len(log),
                cold_starts=cold,
                warm_starts=len(log) - cold,
                syscalls=tenant_syscalls,
                check_cycles=tenant_ledger.total_cycles(),
                flow_counts=tenant_ledger.counts,
                flow_cycles=tenant_ledger.cycles,
                peak_containers=peak_live[tenant],
                footprint_peak_bytes=peak_live[tenant] * klass.footprint_bytes,
            )
        )
    cold_starts = sum(t.cold_starts for t in aggregates)
    counters: Dict[str, float] = {
        "cold_starts": cold_starts,
        "warm_starts": sum(t.warm_starts for t in aggregates),
        "spawns": cold_starts,
        "evictions": evictions,
        "keepalive_expiries": expiries,
        "cold_resume_storms": 0,
        "max_cold_in_window": 0,
        "peak_containers": peak_containers,
        "peak_busy": peak_busy,
        "queue_peak": queue_peak,
    }
    # Storm windows: any window with >= threshold cold starts.
    if storm_windows:
        counters["max_cold_in_window"] = max(storm_windows.values())
        counters["cold_resume_storms"] = sum(
            1 for count in storm_windows.values()
            if count >= params.storm_threshold
        )
    counters["active_tenants"] = len(starts)
    counters["idle_remaining"] = cold_starts - evictions - expiries

    syscalls = fleet.total_events()
    check_cycles = fleet.total_cycles()
    fleet.audit_totals(syscalls, check_cycles, scope=f"fleet/{policy}")

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
        # Every invocation starts once: those not in waits waited 0.0.
        wait_ms=wait_summary(len(load) - len(waits), waits),
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
