"""System Call Lookaside Buffer (SLB).

Section VI-A: a cache of recently-validated (SID, argument set) pairs,
"indexed with the system call's SID and number of arguments", built from
one set-associative subtable per argument count so each subtable can be
sized individually (Table II).  Each entry holds the SID, a Valid bit,
the Hash that fetched the argument set from the VAT, and the argument
set itself.

Set selection folds the entry's Hash value into the index alongside the
SID.  A syscall-ID-only index would put every argument set of one hot
syscall (e.g. a server's ``read`` across dozens of client fds) into a
single set; hashing spreads them across the whole subtable.  Every
consumer can reproduce the index: a preload probe carries the predicted
hash from the STB, a fill carries the hash that fetched the entry from
the VAT, and a non-speculative access computes both candidate hashes
from the actual argument bytes and probes both candidate sets.

Security note (Section IX): a *preload* probe must leave no side effect
— :meth:`Slb.preload_probe` does not update LRU state; only the
non-speculative :meth:`Slb.access` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.cpu.params import DracoHwParams, SlbSubtableParams

#: A hash identity: (which hash function, 64-bit CRC value).
HashId = Tuple[int, int]


@dataclass
class SlbEntry:
    sid: int
    hash_id: HashId
    args: Tuple[int, ...]
    last_used: int = 0


class SlbSubtable:
    """One set-associative subtable for syscalls of a given arg count."""

    def __init__(self, params: SlbSubtableParams) -> None:
        if params.entries % params.ways != 0:
            raise ConfigError("SLB entries must divide into ways")
        self.params = params
        self.num_sets = params.entries // params.ways
        self._sets: List[List[SlbEntry]] = [[] for _ in range(self.num_sets)]
        #: LRU clock: one tick per non-speculative access or fill.
        self.clock = 0
        self.evictions = 0

    def _index(self, sid: int, hash_value: int) -> int:
        return (sid ^ hash_value) % self.num_sets

    def access(
        self, sid: int, args: Tuple[int, ...], hash_pair: Tuple[int, int]
    ) -> Optional[SlbEntry]:
        """Non-speculative lookup: probe both candidate sets (one per
        hash function) for a (SID, argument set) match; updates LRU."""
        self.clock += 1
        entry = self.peek(sid, args, hash_pair)
        if entry is not None:
            entry.last_used = self.clock
        return entry

    def preload_probe(self, sid: int, hash_id: HashId) -> bool:
        """Speculative probe by (SID, hash).  No LRU update and no
        counters (Section IX: "if an SLB preload request hits in the
        SLB, the LRU state of the SLB is not updated until the
        corresponding non-speculative SLB access"), so the steady memo
        also uses it to re-verify a memoized walk's preload hit."""
        for entry in self._sets[(sid ^ hash_id[1]) % self.num_sets]:
            if entry.sid == sid and entry.hash_id == hash_id:
                return True
        return False

    def peek(
        self, sid: int, args: Tuple[int, ...], hash_pair: Tuple[int, int]
    ) -> Optional[SlbEntry]:
        """Side-effect-free :meth:`access` probe (no clock, no LRU);
        used by the steady memo to capture replay references."""
        sets = self._sets
        num_sets = self.num_sets
        for value in hash_pair:
            for entry in sets[(sid ^ value) % num_sets]:
                if entry.sid == sid and entry.args == args:
                    return entry
        return None

    def fill(
        self,
        sid: int,
        hash_id: HashId,
        args: Tuple[int, ...],
        hash_pair: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Install an entry in the set its fetching hash selects,
        evicting that set's LRU entry if full.  When the full hash pair
        is known, an existing copy under the *other* hash is updated in
        place instead of creating a duplicate.

        The candidate sets are probed in a fixed order — the fetching
        hash first, then the remaining pair hash(es) — so eviction and
        update traces are deterministic rather than dependent on the
        hash values' ordering within a set.
        """
        self.clock += 1
        candidates = [hash_id[1]]
        if hash_pair is not None:
            for value in hash_pair:
                if value not in candidates:
                    candidates.append(value)
        for value in candidates:
            for entry in self._sets[self._index(sid, value)]:
                if entry.sid == sid and entry.args == args:
                    entry.hash_id = hash_id
                    entry.last_used = self.clock
                    return
        entries = self._sets[self._index(sid, hash_id[1])]
        if len(entries) >= self.params.ways:
            lru = min(range(len(entries)), key=lambda i: entries[i].last_used)
            entries.pop(lru)
            self.evictions += 1
        entries.append(SlbEntry(sid=sid, hash_id=hash_id, args=args, last_used=self.clock))

    def invalidate_all(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)


class Slb:
    """The full SLB: a subtable per argument count (Figure 6)."""

    def __init__(self, params: DracoHwParams = DracoHwParams()) -> None:
        self.params = params
        self._subtables: Dict[int, SlbSubtable] = {
            sub.arg_count: SlbSubtable(sub) for sub in params.slb_subtables
        }
        self.access_hits = 0
        self.access_misses = 0
        self.preload_hits = 0
        self.preload_misses = 0
        #: Bumped on every state-changing operation (fill, invalidate);
        #: the steady memo folds this into its epoch, so memoized walk
        #: results never survive a mutation.
        self.mutations = 0

    def subtable(self, arg_count: int) -> SlbSubtable:
        try:
            return self._subtables[arg_count]
        except KeyError:
            raise ConfigError(f"no SLB subtable for {arg_count} arguments") from None

    def access(
        self,
        sid: int,
        arg_count: int,
        args: Tuple[int, ...],
        hash_pair: Tuple[int, int],
    ) -> Optional[SlbEntry]:
        entry = self.subtable(arg_count).access(sid, args, hash_pair)
        if entry is not None:
            self.access_hits += 1
        else:
            self.access_misses += 1
        return entry

    def preload_probe(self, sid: int, arg_count: int, hash_id: HashId) -> bool:
        hit = self.subtable(arg_count).preload_probe(sid, hash_id)
        if hit:
            self.preload_hits += 1
        else:
            self.preload_misses += 1
        return hit

    def fill(
        self,
        sid: int,
        arg_count: int,
        hash_id: HashId,
        args: Tuple[int, ...],
        hash_pair: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.mutations += 1
        self.subtable(arg_count).fill(sid, hash_id, args, hash_pair)

    def invalidate_all(self) -> None:
        self.mutations += 1
        for subtable in self._subtables.values():
            subtable.invalidate_all()

    @property
    def access_hit_rate(self) -> float:
        total = self.access_hits + self.access_misses
        return self.access_hits / total if total else 0.0

    @property
    def preload_hit_rate(self) -> float:
        total = self.preload_hits + self.preload_misses
        return self.preload_hits / total if total else 0.0

    @property
    def evictions(self) -> int:
        return sum(sub.evictions for sub in self._subtables.values())

    def structure_stats(self) -> Dict[str, object]:
        """Hit/miss/evict/preload counters and their hit rates."""
        return {
            "access_hits": self.access_hits,
            "access_misses": self.access_misses,
            "access_hit_rate": round(self.access_hit_rate, 6),
            "preload_hits": self.preload_hits,
            "preload_misses": self.preload_misses,
            "preload_hit_rate": round(self.preload_hit_rate, 6),
            "evictions": self.evictions,
        }

    def reset_stats(self) -> None:
        self.access_hits = self.access_misses = 0
        self.preload_hits = self.preload_misses = 0
        for subtable in self._subtables.values():
            subtable.evictions = 0
