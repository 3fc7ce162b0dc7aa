"""2-ary cuckoo hash table, the VAT's per-syscall structure.

Section V-B: "each VAT structure uses 2-ary cuckoo hashing ... it needs
to use two hash functions to perform two accesses to the target VAT
structure in parallel.  On a read, the resulting two entries are checked
for a match.  On an insertion, the cuckoo hashing algorithm is used to
find a spot."

Keys are byte strings (the Selector-masked argument bytes of Figure 5);
each occupied slot remembers which hash function placed it — the "Hash"
the SLB and STB cache (Sections VI-A/VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Tuple, TypeVar

from repro.common.errors import ConfigError, CuckooInsertError
from repro.hashing.crc import CRC64_ECMA, CRC64_NOT_ECMA

V = TypeVar("V")

#: Relocation attempts before insertion is declared failed (Section VII-A
#: responds to failure by evicting an entry).
DEFAULT_MAX_KICKS = 32

HashFn = Callable[[bytes], int]


@dataclass
class Slot(Generic[V]):
    """One occupied table slot."""

    key: bytes
    value: V
    which_hash: int  # 0 -> H1 placed it, 1 -> H2 placed it

    @property
    def hash_id(self) -> int:
        return self.which_hash


@dataclass(frozen=True)
class LookupResult(Generic[V]):
    """Outcome of a read: the value plus which hash function matched."""

    value: V
    which_hash: int
    slot_index: int


class CuckooTable(Generic[V]):
    """A fixed-capacity 2-ary cuckoo hash table with one slot per bucket."""

    def __init__(
        self,
        num_slots: int,
        h1: HashFn = CRC64_ECMA,
        h2: HashFn = CRC64_NOT_ECMA,
        max_kicks: int = DEFAULT_MAX_KICKS,
    ) -> None:
        if num_slots < 2:
            raise ConfigError("a cuckoo table needs at least 2 slots")
        self._slots: List[Optional[Slot[V]]] = [None] * num_slots
        self._hashes: Tuple[HashFn, HashFn] = (h1, h2)
        self._max_kicks = max_kicks
        self._size = 0

    # -- geometry ----------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return len(self._slots)

    def __len__(self) -> int:
        return self._size

    @property
    def load_factor(self) -> float:
        return self._size / len(self._slots)

    def index_for(self, key: bytes, which_hash: int) -> int:
        """Slot index the given hash function maps *key* to."""
        return self._hashes[which_hash](key) % len(self._slots)

    def candidate_indices(self, key: bytes) -> Tuple[int, int]:
        """The two probe locations for *key* (fetched in parallel in HW)."""
        return self.index_for(key, 0), self.index_for(key, 1)

    def slot_at(self, index: int) -> Optional[Slot[V]]:
        """Direct slot read — hardware preloads address a slot by hash
        value without knowing the key (Figure 9, step 4)."""
        if not 0 <= index < len(self._slots):
            raise ConfigError(f"slot index out of range: {index}")
        return self._slots[index]

    # -- operations ---------------------------------------------------------

    def lookup(
        self, key: bytes, hashes: Optional[Tuple[int, int]] = None
    ) -> Optional[LookupResult[V]]:
        """Probe both candidate slots; return the match, if any.

        *hashes* are the key's (H1, H2) values when the caller already
        holds them; otherwise both hash functions run.
        """
        if hashes is None:
            hashes = (self._hashes[0](key), self._hashes[1](key))
        slots = self._slots
        for which in (0, 1):
            index = hashes[which] % len(slots)
            slot = slots[index]
            if slot is not None and slot.key == key:
                return LookupResult(value=slot.value, which_hash=which, slot_index=index)
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.lookup(key) is not None

    def insert(self, key: bytes, value: V) -> int:
        """Insert (or update) *key*; returns the hash id that placed it.

        Raises :class:`CuckooInsertError` after ``max_kicks`` failed
        relocations; the caller (the OS VAT layer) then evicts a victim.
        """
        existing = self.lookup(key)
        if existing is not None:
            slot = self._slots[existing.slot_index]
            assert slot is not None
            slot.value = value
            return existing.which_hash

        carried = Slot(key=key, value=value, which_hash=0)
        for _ in range(self._max_kicks + 1):
            index = self.index_for(carried.key, carried.which_hash)
            resident = self._slots[index]
            if resident is None:
                self._slots[index] = carried
                self._size += 1
                final = self.lookup(key)
                assert final is not None
                return final.which_hash
            # Kick the resident to its alternate location.
            self._slots[index] = carried
            resident.which_hash ^= 1
            carried = resident
        # Relocation budget exhausted: the new key was placed on the
        # first kick, and the entry still being carried is dropped.
        # Occupancy is unchanged (one in, one out), so _size stands.
        raise CuckooInsertError(
            f"insertion of {key!r} dropped resident {carried.key!r} after "
            f"{self._max_kicks} kicks",
            dropped_key=carried.key,
        )

    def force_place(self, key: bytes, value: V) -> int:
        """Deterministically place *key* at its H1 slot, evicting any
        resident — the guaranteed-progress fallback for cuckoo cycles."""
        existing = self.lookup(key)
        if existing is not None:
            slot = self._slots[existing.slot_index]
            assert slot is not None
            slot.value = value
            return existing.which_hash
        index = self.index_for(key, 0)
        if self._slots[index] is None:
            self._size += 1
        self._slots[index] = Slot(key=key, value=value, which_hash=0)
        return 0

    def evict_any(self) -> Optional[bytes]:
        """Drop one occupied slot (lowest index); returns the evicted key."""
        for index, slot in enumerate(self._slots):
            if slot is not None:
                self._slots[index] = None
                self._size -= 1
                return slot.key
        return None

    def remove(self, key: bytes) -> bool:
        found = self.lookup(key)
        if found is None:
            return False
        self._slots[found.slot_index] = None
        self._size -= 1
        return True

    def items(self) -> List[Tuple[bytes, V]]:
        return [(slot.key, slot.value) for slot in self._slots if slot is not None]

    def clear(self) -> None:
        self._slots = [None] * len(self._slots)
        self._size = 0
