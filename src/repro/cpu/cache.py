"""Set-associative cache with true-LRU replacement.

Used to model the L1/L2/L3 data hierarchy the VAT lives in, and reused
(with small entry counts) for the Draco hardware tables, which are also
set-associative LRU structures.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ConfigError
from repro.cpu.params import CacheParams


class SetAssociativeCache:
    """Tag-only set-associative cache: tracks presence, not data."""

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        # Geometry as plain ints: every access maps an address, and
        # ``CacheParams.num_sets`` is a computed property.
        self._line_bytes = params.line_bytes
        self._num_sets = params.num_sets
        self._ways = params.ways
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self._num_sets)]
        # Indices of non-empty sets.  The simulated working set touches
        # a tiny fraction of the sets of a realistically-sized cache, so
        # pollution sweeps walk this instead of every set.
        self._occupied: set = set()
        self._clock = 0
        self.hits = 0
        self.misses = 0

    # -- address mapping ----------------------------------------------------

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self._line_bytes
        return line % self._num_sets, line // self._num_sets

    # -- operations -----------------------------------------------------------

    def access(self, address: int) -> bool:
        """Access *address*: returns hit/miss and allocates on miss (LRU)."""
        self._clock += 1
        line = address // self._line_bytes
        set_index = line % self._num_sets
        tag = line // self._num_sets
        lines = self._sets[set_index]
        if tag in lines:
            lines[tag] = self._clock
            self.hits += 1
            return True
        self.misses += 1
        if len(lines) >= self._ways:
            victim = min(lines, key=lines.get)  # true LRU
            del lines[victim]
        lines[tag] = self._clock
        self._occupied.add(set_index)
        return False

    def probe(self, address: int) -> bool:
        """Check presence without updating LRU or allocating."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def invalidate(self, address: int) -> bool:
        set_index, tag = self._locate(address)
        lines = self._sets[set_index]
        removed = lines.pop(tag, None) is not None
        if removed and not lines:
            self._occupied.discard(set_index)
        return removed

    def invalidate_all(self) -> None:
        for set_index in self._occupied:
            self._sets[set_index].clear()
        self._occupied.clear()

    def evict_lru_fraction(self, fraction: float) -> int:
        """Evict the LRU *fraction* of each set — models pollution by
        unrelated application traffic between syscalls."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError("fraction must be within [0, 1]")
        # A set holds at most ``ways`` lines and evicts int(len * fraction)
        # of them; if even a full set rounds to zero, no set can evict.
        if int(self._ways * fraction) == 0:
            return 0
        evicted = 0
        emptied = []
        for set_index in self._occupied:
            lines = self._sets[set_index]
            count = int(len(lines) * fraction)
            for _ in range(count):
                victim = min(lines, key=lines.get)
                del lines[victim]
                evicted += 1
            if not lines:
                emptied.append(set_index)
        for set_index in emptied:
            self._occupied.discard(set_index)
        return evicted

    # -- statistics -------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(len(lines) for lines in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
