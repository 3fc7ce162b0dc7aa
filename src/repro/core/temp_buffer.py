"""The speculation-safe Temporary Buffer.

Section IX: "if an SLB preload request misses, the requested VAT entry
is not immediately loaded into the SLB; instead, it is stored in a
Temporary Buffer.  When the non-speculative SLB access is performed, the
entry is moved into the SLB.  If, instead, the system call instruction
is squashed, the temporary buffer is cleared."

Eight entries suffice because few syscall instructions are in flight at
once (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cpu.params import DracoHwParams

HashId = Tuple[int, int]


@dataclass
class TempEntry:
    sid: int
    hash_id: HashId
    args: Tuple[int, ...]


class TemporaryBuffer:
    """A small FIFO holding speculatively-preloaded VAT entries."""

    def __init__(self, params: DracoHwParams = DracoHwParams()) -> None:
        self.capacity = params.temp_buffer_entries
        self._entries: List[TempEntry] = []
        #: Bumped whenever the buffer's contents change (stash, a
        #: successful take, clear); folded into the steady memo's epoch
        #: — a stashed entry could match a memoized event's (sid, args)
        #: and change its walk.
        self.mutations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stash(self, sid: int, hash_id: HashId, args: Tuple[int, ...]) -> None:
        """Hold a preloaded VAT entry until its non-speculative access."""
        self.mutations += 1
        if len(self._entries) >= self.capacity:
            self._entries.pop(0)  # oldest in-flight entry is stale
        self._entries.append(TempEntry(sid=sid, hash_id=hash_id, args=args))

    def take_match(self, sid: int, args: Tuple[int, ...]) -> Optional[TempEntry]:
        """At the ROB head, claim (and remove) a matching preloaded entry."""
        for index, entry in enumerate(self._entries):
            if entry.sid == sid and entry.args == args:
                self.mutations += 1
                return self._entries.pop(index)
        return None

    def peek_match(self, sid: int, args: Tuple[int, ...]) -> Optional[TempEntry]:
        """Side-effect-free :meth:`take_match` probe (steady memo):
        a steady-state memo is only valid while no stashed entry would
        be claimed by the memoized event's walk."""
        for entry in self._entries:
            if entry.sid == sid and entry.args == args:
                return entry
        return None

    def clear(self) -> None:
        """Squash or context switch: discard all speculative state."""
        if self._entries:
            self.mutations += 1
        self._entries.clear()
