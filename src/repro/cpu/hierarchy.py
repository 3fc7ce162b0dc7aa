"""L1/L2/L3/DRAM memory hierarchy timing model.

VAT accesses (software probes, hardware preloads, and ROB-head walks)
go through this hierarchy; Table I's "Slow cases can have different
latency, depending on whether the VAT accesses hit or miss in the
caches" is exactly what this module computes.

Application code running between system calls evicts VAT lines; the
regimes model that with :meth:`MemoryHierarchy.pollute`, which ages the
LRU stacks in proportion to the cycles of unrelated work executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cpu.cache import SetAssociativeCache
from repro.cpu.params import ProcessorParams


#: Levels a load can be served from, in walk order; index ``i`` pairs
#: with ``MemoryHierarchy.level_cycles[i]``.
LEVELS = ("L1", "L2", "L3", "DRAM")


@dataclass(frozen=True)
class AccessResult:
    """Latency and servicing level of one memory access."""

    cycles: int
    level: str  # "L1" | "L2" | "L3" | "DRAM"


def _sweep(cache: SetAssociativeCache, credit: float) -> float:
    """Spend *credit* on whole LRU sweeps of *cache*; returns the
    fractional residue to bank."""
    while credit >= 1.0:
        cache.evict_lru_fraction(1.0)
        credit -= 1.0
    return credit


class MemoryHierarchy:
    """Three-level inclusive cache hierarchy backed by DRAM."""

    #: Fraction of each cache's LRU stack evicted per 100k cycles of
    #: application work (calibrated pollution pressure).
    POLLUTION_PER_100K_CYCLES = {"L1": 0.45, "L2": 0.15, "L3": 0.03}

    #: Work sizes whose per-level credit increments are kept; a trace
    #: uses one work size per regime, the cap only bounds the memo.
    _INCREMENTS_LIMIT = 64

    def __init__(
        self,
        params: ProcessorParams = ProcessorParams(),
        shared_l3: "SetAssociativeCache" = None,
    ) -> None:
        self.params = params
        self.l1 = SetAssociativeCache(params.l1d)
        self.l2 = SetAssociativeCache(params.l2)
        # The L3 is shared between the chip's cores (Table II); pass the
        # same instance to every core's hierarchy to model that.
        self.l3 = shared_l3 if shared_l3 is not None else SetAssociativeCache(params.l3)
        #: Load latency by serving level (indexed like :data:`LEVELS`):
        #: each level adds its access time to the ones walked before it.
        l1 = params.l1d.access_cycles
        l2 = l1 + params.l2.access_cycles
        l3 = l2 + params.l3.access_cycles
        self.level_cycles = (l1, l2, l3, l3 + params.dram_cycles)
        self._pollution_credit = {"L1": 0.0, "L2": 0.0, "L3": 0.0}
        self._increments: Dict[int, Tuple[float, float, float]] = {}

    def load(self, address: int) -> int:
        """Load *address*, filling every level on the way in (each
        cache allocates on its own miss); returns the index into
        :data:`LEVELS` and :attr:`level_cycles` of the level that
        served it."""
        if self.l1.access(address):
            return 0
        if self.l2.access(address):
            return 1
        if self.l3.access(address):
            return 2
        return 3

    def access(self, address: int) -> AccessResult:
        """Load *address* and report its latency and serving level."""
        level = self.load(address)
        return AccessResult(cycles=self.level_cycles[level], level=LEVELS[level])

    def access_parallel(self, addresses: Tuple[int, ...]) -> int:
        """Latency of issuing several accesses in parallel (the VAT's two
        cuckoo ways are fetched concurrently — Section V-B)."""
        level_cycles = self.level_cycles
        latency = 0
        for address in addresses:
            cycles = level_cycles[self.load(address)]
            if cycles > latency:
                latency = cycles
        return latency

    def _increments_for(self, work_cycles: int) -> Tuple[float, float, float]:
        """Per-level pollution credit that *work_cycles* of application
        code adds, computed once per work size."""
        increments = self._increments.get(work_cycles)
        if increments is None:
            rates = self.POLLUTION_PER_100K_CYCLES
            increments = (
                work_cycles * rates["L1"] / 100_000,
                work_cycles * rates["L2"] / 100_000,
                work_cycles * rates["L3"] / 100_000,
            )
            if len(self._increments) >= self._INCREMENTS_LIMIT:
                self._increments.clear()
            self._increments[work_cycles] = increments
        return increments

    def pollute(self, work_cycles: int) -> None:
        """Model eviction pressure from *work_cycles* of application code.

        Pollution credit accrues across calls and is spent in *whole*
        LRU sweeps only, with the fractional residue banked for the next
        call.  That makes pollution k-linear: ``pollute(k*w)`` evicts
        exactly as much as k calls of ``pollute(w)`` (the old code
        clamped the credit at 1.0 and then zeroed it, silently dropping
        pressure whenever more than one sweep's worth accumulated — and
        dropping *all* pressure from small work quanta, whose fractional
        evictions rounded down to zero lines before the credit reset).
        """
        if work_cycles <= 0:
            return
        inc_l1, inc_l2, inc_l3 = self._increments_for(work_cycles)
        banked = self._pollution_credit
        l1 = banked["L1"] + inc_l1
        l2 = banked["L2"] + inc_l2
        l3 = banked["L3"] + inc_l3
        if l1 >= 1.0 or l2 >= 1.0 or l3 >= 1.0:
            l1 = _sweep(self.l1, l1)
            l2 = _sweep(self.l2, l2)
            l3 = _sweep(self.l3, l3)
        banked["L1"] = l1
        banked["L2"] = l2
        banked["L3"] = l3

    def invalidate_all(self) -> None:
        self.l1.invalidate_all()
        self.l2.invalidate_all()
        self.l3.invalidate_all()

    def reset_stats(self) -> None:
        for cache in (self.l1, self.l2, self.l3):
            cache.reset_stats()
