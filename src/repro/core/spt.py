"""System Call Permissions Table (SPT).

Section V: "It uses a table called System Call Permissions Table (SPT),
with as many entries as different system calls.  Each entry stores a
single Valid bit ... An entry now includes, in addition to the Valid
bit, a Base and an Argument Bitmask field."

Two variants are provided:

* :class:`SoftwareSPT` — the kernel data structure of the software
  implementation (one per process, unbounded);
* :class:`HardwareSPT` — the per-core 384-entry direct-mapped table of
  Table II, with the Accessed bits used by the context-switch
  save/restore optimisation (Section VII-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.cpu.params import DracoHwParams
from repro.syscalls.abi import bitmask_arg_count


@dataclass
class SptEntry:
    """One SPT entry: Valid bit, VAT Base pointer, Argument Bitmask."""

    sid: int
    valid: bool = True
    base: int = 0
    arg_bitmask: int = 0
    accessed: bool = False

    @property
    def arg_count(self) -> int:
        """Argument count derived from the bitmask (Figure 7, step 2)."""
        return bitmask_arg_count(self.arg_bitmask)

    @property
    def checks_arguments(self) -> bool:
        return self.arg_bitmask != 0


class SoftwareSPT:
    """Per-process SPT kept in kernel memory (software Draco)."""

    def __init__(self) -> None:
        self._entries: Dict[int, SptEntry] = {}

    def set_entry(self, entry: SptEntry) -> None:
        self._entries[entry.sid] = entry

    def lookup(self, sid: int) -> Optional[SptEntry]:
        return self._entries.get(sid)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Tuple[SptEntry, ...]:
        return tuple(self._entries[sid] for sid in sorted(self._entries))


class HardwareSPT:
    """Per-core direct-mapped SPT (384 entries, 1 way — Table II).

    Entries are tagged with the SID so that high syscall numbers (e.g.
    the 424+ range) that alias low slots are detected as misses rather
    than false hits.
    """

    def __init__(self, params: DracoHwParams = DracoHwParams()) -> None:
        if params.spt_ways != 1:
            raise ConfigError("the paper's SPT is direct-mapped (1 way)")
        self._num_entries = params.spt_entries
        self._slots: List[Optional[SptEntry]] = [None] * params.spt_entries
        self.access_cycles = params.spt_access_cycles
        self.hits = 0
        self.misses = 0
        #: Bumped on every state-changing operation (install, invalidate);
        #: folded into the steady memo's epoch.  The Accessed bit set by
        #: ``lookup`` is deliberately excluded — it is idempotent and the
        #: steady replay re-applies it.
        self.mutations = 0

    @property
    def num_entries(self) -> int:
        return self._num_entries

    def _index(self, sid: int) -> int:
        return sid % self._num_entries

    def install(self, entry: SptEntry) -> Optional[SptEntry]:
        """Install an entry, returning any displaced (aliasing) entry."""
        self.mutations += 1
        index = self._index(entry.sid)
        displaced = self._slots[index]
        self._slots[index] = entry
        if displaced is not None and displaced.sid == entry.sid:
            return None
        return displaced

    def lookup(self, sid: int) -> Optional[SptEntry]:
        """Tag-checked lookup; sets the Accessed bit on a hit."""
        slot = self._slots[self._index(sid)]
        if slot is not None and slot.sid == sid and slot.valid:
            slot.accessed = True
            self.hits += 1
            return slot
        self.misses += 1
        return None

    def peek(self, sid: int) -> Optional[SptEntry]:
        """Side-effect-free :meth:`lookup` probe (no counters, no
        Accessed bit); used by the steady memo."""
        slot = self._slots[self._index(sid)]
        if slot is not None and slot.sid == sid and slot.valid:
            return slot
        return None

    def clear_accessed_bits(self) -> None:
        """Periodic clearing (every ~500 us — Section VII-B)."""
        for slot in self._slots:
            if slot is not None:
                slot.accessed = False

    def save_accessed_entries(self) -> Tuple[SptEntry, ...]:
        """Context-switch save: only entries with the Accessed bit set."""
        return tuple(
            replace(slot) for slot in self._slots if slot is not None and slot.accessed
        )

    def restore(self, entries: Tuple[SptEntry, ...]) -> None:
        for entry in entries:
            self.install(entry)

    def invalidate_all(self) -> None:
        self.mutations += 1
        self._slots = [None] * self._num_entries

    @property
    def occupancy(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)
