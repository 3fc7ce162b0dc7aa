"""System Call Target Buffer (STB).

Section VI-B: "The STB is inspired by the Branch Target Buffer.  While
the BTB predicts the target location that the upcoming branch will jump
to, the STB predicts the location in the VAT that stores the validated
argument set that the upcoming system call will require."

Each entry maps a syscall instruction's PC to its SID and the Hash that
last fetched its argument set from the VAT.  256 entries, 2-way (Table
II), LRU within a set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.cpu.params import DracoHwParams

HashId = Tuple[int, int]


@dataclass
class StbEntry:
    pc: int
    sid: int
    hash_id: HashId
    last_used: int = 0


class Stb:
    """PC-indexed, set-associative System Call Target Buffer."""

    def __init__(self, params: DracoHwParams = DracoHwParams()) -> None:
        if params.stb_entries % params.stb_ways != 0:
            raise ConfigError("STB entries must divide into ways")
        self.params = params
        self.num_sets = params.stb_entries // params.stb_ways
        self._sets: List[List[StbEntry]] = [[] for _ in range(self.num_sets)]
        #: LRU clock: one tick per lookup or update.
        self.clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Bumped on every state-changing operation (update, invalidate);
        #: folded into the steady memo's epoch.
        self.mutations = 0

    def _set_for(self, pc: int) -> List[StbEntry]:
        # Instructions are 4+ bytes apart; drop the low bits before
        # indexing so adjacent call sites spread over sets.
        return self._sets[(pc >> 2) % self.num_sets]

    def lookup(self, pc: int) -> Optional[StbEntry]:
        """A hit means this PC is a known syscall instruction."""
        self.clock += 1
        for entry in self._set_for(pc):
            if entry.pc == pc:
                entry.last_used = self.clock
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def peek(self, pc: int) -> Optional[StbEntry]:
        """Side-effect-free probe: no counters, no LRU, no clock.  Used
        by the steady memo to capture replay references."""
        for entry in self._set_for(pc):
            if entry.pc == pc:
                return entry
        return None

    def update(self, pc: int, sid: int, hash_id: HashId) -> None:
        """Install or refresh the entry for a syscall site."""
        self.mutations += 1
        self.clock += 1
        entries = self._set_for(pc)
        for entry in entries:
            if entry.pc == pc:
                entry.sid = sid
                entry.hash_id = hash_id
                entry.last_used = self.clock
                return
        if len(entries) >= self.params.stb_ways:
            lru = min(range(len(entries)), key=lambda i: entries[i].last_used)
            entries.pop(lru)
            self.evictions += 1
        entries.append(StbEntry(pc=pc, sid=sid, hash_id=hash_id, last_used=self.clock))

    def invalidate_all(self) -> None:
        self.mutations += 1
        self._sets = [[] for _ in range(self.num_sets)]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def structure_stats(self) -> Dict[str, object]:
        """Hit/miss/evict counters and the hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "evictions": self.evictions,
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
