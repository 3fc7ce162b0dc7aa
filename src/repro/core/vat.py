"""Validated Argument Table (VAT).

Section V-B / VII-A: the VAT is a per-process software structure with
one 2-ary cuckoo hash table per allowed system call, holding argument
sets that have been validated by the Seccomp filter.  The OS sizes each
table at twice the number of argument sets estimated from the profile,
and evicts an entry when a cuckoo insertion exceeds its relocation
threshold.

The VAT lives in kernel virtual memory; every slot maps to an address so
the cache-hierarchy model can time hardware VAT walks.  Entries are one
cache line (64 B) wide: up to 48 B of argument bytes plus metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.common.errors import ConfigError, CuckooInsertError
from repro.hashing.crc import CRC64_ECMA, CRC64_NOT_ECMA, hash_pair
from repro.hashing.cuckoo import CuckooTable, LookupResult
from repro.syscalls.abi import select_bytes

#: Bytes per VAT entry — one cache line.
VAT_ENTRY_BYTES = 64

#: Over-provisioning factor (Section VII-A: "the size of each table is
#: over-provisioned two times the number of estimated argument sets").
OVERPROVISION_FACTOR = 2

#: Smallest table (2-ary cuckoo needs at least two slots).
MIN_TABLE_SLOTS = 4


@dataclass(frozen=True)
class VatProbe:
    """Result of a VAT lookup, including the probed memory addresses."""

    hit: bool
    which_hash: Optional[int]
    addresses: Tuple[int, int]
    args: Optional[Tuple[int, ...]] = None


class VatTable:
    """The per-syscall cuckoo hash table plus its address range."""

    def __init__(self, sid: int, base_address: int, num_slots: int) -> None:
        if num_slots < MIN_TABLE_SLOTS:
            num_slots = MIN_TABLE_SLOTS
        self.sid = sid
        self.base_address = base_address
        self.table: CuckooTable[Tuple[int, ...]] = CuckooTable(
            num_slots, h1=CRC64_ECMA, h2=CRC64_NOT_ECMA
        )
        self.evictions = 0

    @property
    def num_slots(self) -> int:
        return self.table.num_slots

    @property
    def size_bytes(self) -> int:
        return self.num_slots * VAT_ENTRY_BYTES

    def address_of_slot(self, slot_index: int) -> int:
        return self.base_address + slot_index * VAT_ENTRY_BYTES

    def probe_addresses(self, hashes: Tuple[int, int]) -> Tuple[int, int]:
        """The two slot addresses a walk fetches for a key whose (H1, H2)
        values are *hashes*."""
        num_slots = self.table.num_slots
        return (
            self.address_of_slot(hashes[0] % num_slots),
            self.address_of_slot(hashes[1] % num_slots),
        )

    def lookup(self, key: bytes, hashes: Tuple[int, int]) -> VatProbe:
        """Probe both cuckoo ways for *key*, whose (H1, H2) values the
        caller already holds (see :meth:`VAT.hashed_key`)."""
        addresses = self.probe_addresses(hashes)
        result: Optional[LookupResult[Tuple[int, ...]]] = self.table.lookup(key, hashes)
        if result is None:
            return VatProbe(hit=False, which_hash=None, addresses=addresses)
        return VatProbe(
            hit=True,
            which_hash=result.which_hash,
            addresses=addresses,
            args=result.value,
        )

    def insert(self, key: bytes, args: Tuple[int, ...]) -> int:
        """Insert a validated argument set, evicting on cuckoo failure.

        Section VII-A: "if the cuckoo hashing fails after a threshold
        number of attempts, the OS makes room by evicting one entry."
        The cuckoo table drops one entry per failed relocation round, so
        a few retries always converge; a direct eviction breaks the
        pathological all-cycles case.
        """
        for _ in range(4):
            try:
                return self.table.insert(key, args)
            except CuckooInsertError:
                self.evictions += 1
        return self.table.force_place(key, args)


class VAT:
    """Per-process Validated Argument Table."""

    #: Kernel virtual address where the first table is placed; tables are
    #: packed one after another, line-aligned.
    BASE_VADDR = 0xFFFF_8880_4000_0000

    def __init__(self) -> None:
        self._tables: Dict[int, VatTable] = {}
        self._next_address = self.BASE_VADDR
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        #: Bumped on every operation that can remove or replace an entry
        #: (insert — cuckoo relocation may evict — and clear_all); folded
        #: into the steady memos' epochs so memoized hit outcomes never
        #: survive a mutation.
        self.mutations = 0

    # -- construction -----------------------------------------------------

    def ensure_table(self, sid: int, estimated_arg_sets: int) -> VatTable:
        """Create (or return) the table for *sid*, sized per Section VII-A."""
        existing = self._tables.get(sid)
        if existing is not None:
            return existing
        if estimated_arg_sets < 0:
            raise ConfigError("estimated_arg_sets must be non-negative")
        slots = max(MIN_TABLE_SLOTS, OVERPROVISION_FACTOR * estimated_arg_sets)
        table = VatTable(sid=sid, base_address=self._next_address, num_slots=slots)
        self._next_address += table.size_bytes
        self._tables[sid] = table
        return table

    def table_for(self, sid: int) -> Optional[VatTable]:
        return self._tables.get(sid)

    # -- operations -----------------------------------------------------------

    #: Shared memo for Selector key derivation: the key and its CRC pair
    #: are pure functions of (args, bitmask), and the simulator derives
    #: the same handful of keys for every one of millions of events.
    _key_memo: Dict[Tuple[Tuple[int, ...], int], Tuple[bytes, Tuple[int, int]]] = {}
    _KEY_MEMO_LIMIT = 1 << 16

    @staticmethod
    def hashed_key(
        args: Iterable[int], arg_bitmask: int
    ) -> Tuple[bytes, Tuple[int, int]]:
        """Selector-masked argument bytes (Figure 5) with their (H1, H2)
        CRC values, derived once per distinct argument set."""
        memo = VAT._key_memo
        probe = (tuple(args), arg_bitmask)
        hashed = memo.get(probe)
        if hashed is None:
            key = select_bytes(probe[0], arg_bitmask)
            hashed = (key, hash_pair(key))
            if len(memo) >= VAT._KEY_MEMO_LIMIT:
                memo.clear()
            memo[probe] = hashed
        return hashed

    def lookup(
        self, sid: int, key: bytes, hashes: Tuple[int, int]
    ) -> Optional[VatProbe]:
        """Walk *sid*'s table for *key*; *hashes* is its (H1, H2) pair."""
        table = self._tables.get(sid)
        if table is None:
            self.misses += 1
            return None
        probe = table.lookup(key, hashes)
        if probe.hit:
            self.hits += 1
        else:
            self.misses += 1
        return probe

    def record_hit_bulk(self, count: int) -> None:
        """Account *count* replayed steady-state hits (the steady memo)."""
        self.hits += count

    def insert(self, sid: int, key: bytes, args: Tuple[int, ...]) -> int:
        table = self._tables.get(sid)
        if table is None:
            table = self.ensure_table(sid, estimated_arg_sets=MIN_TABLE_SLOTS)
        self.inserts += 1
        self.mutations += 1
        return table.insert(key, args)

    def clear_all(self) -> None:
        """Drop every cached validation (table geometry is kept).

        Required when the process's filter stack changes: newly attached
        filters can deny combinations the old stack validated.
        """
        self.mutations += 1
        for table in self._tables.values():
            table.table.clear()

    # -- metrics (Section XI-C, "VAT Memory Consumption") --------------------

    @property
    def size_bytes(self) -> int:
        return sum(table.size_bytes for table in self._tables.values())

    @property
    def num_tables(self) -> int:
        return len(self._tables)

    @property
    def total_entries(self) -> int:
        return sum(len(table.table) for table in self._tables.values())

    @property
    def total_evictions(self) -> int:
        return sum(table.evictions for table in self._tables.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def structure_stats(self) -> Dict[str, object]:
        """Lookup hit/miss, insert, and eviction counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "inserts": self.inserts,
            "evictions": self.total_evictions,
            "entries": self.total_entries,
            "size_bytes": self.size_bytes,
        }
