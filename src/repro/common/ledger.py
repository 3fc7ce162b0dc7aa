"""Per-flow cycle-accounting ledger with conservation audits.

The paper's headline evidence is *where each system call's cycles go* —
the six Table I execution flows plus the SPT-only and OS-check paths —
but a simulator that only reports lump-sum check cycles can hide
accounting bugs indefinitely.  This module makes the cost model
self-checking:

* every :class:`~repro.core.software.CheckOutcome` carries a canonical
  **flow tag** (see :data:`FLOW_KEYS`);
* the simulator accumulates a :class:`FlowLedger` — per-flow event
  counts and cycle totals — over the measured window, and *derives* the
  total check cycles from it, so ``sum(per-flow cycles) == total check
  cycles`` holds exactly by construction;
* an audit cross-checks the simulator-side ledger against the regime's
  own internal statistics (two independent accounting routes): flow
  **counts must match exactly**, cycles to within floating-point
  reassociation noise.  Any path that records cycles without tagging a
  flow — or vice versa — fails loudly.

The ledger and its audits are always on: the per-flow buckets cost one
dict update per event, and the total is derived from them.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.common.errors import ReproError

#: Canonical flow-tag taxonomy (the ledger keys).  Hardware Draco's
#: six Table I flows plus its two off-lattice paths, software Draco's
#: four paths, plain Seccomp's two, and the insecure baseline.
FLOW_HW_1 = "hw.flow1"            # stb hit / preload hit / access hit
FLOW_HW_2 = "hw.flow2"            # stb hit / preload hit / access miss
FLOW_HW_3 = "hw.flow3"            # stb hit / preload miss / access hit
FLOW_HW_4 = "hw.flow4"            # stb hit / preload miss / access miss
FLOW_HW_5 = "hw.flow5"            # stb miss / access hit
FLOW_HW_6 = "hw.flow6"            # stb miss / access miss
FLOW_HW_SPT_ONLY = "hw.spt_only"  # Valid bit alone decides
FLOW_HW_OS_CHECK = "hw.os_check"  # SPT had no entry: filter executed
FLOW_SW_SPT_ONLY = "sw.spt_only"
FLOW_SW_VAT_HIT = "sw.vat_hit"
FLOW_SW_FILTER = "sw.filter_run"
FLOW_SW_DENIED = "sw.denied"
FLOW_SECCOMP_FILTER = "seccomp.filter_run"
FLOW_SECCOMP_DENIED = "seccomp.denied"
FLOW_NONE = "none"                # insecure baseline: no checking

FLOW_KEYS: Tuple[str, ...] = (
    FLOW_HW_1,
    FLOW_HW_2,
    FLOW_HW_3,
    FLOW_HW_4,
    FLOW_HW_5,
    FLOW_HW_6,
    FLOW_HW_SPT_ONLY,
    FLOW_HW_OS_CHECK,
    FLOW_SW_SPT_ONLY,
    FLOW_SW_VAT_HIT,
    FLOW_SW_FILTER,
    FLOW_SW_DENIED,
    FLOW_SECCOMP_FILTER,
    FLOW_SECCOMP_DENIED,
    FLOW_NONE,
)

#: Relative tolerance for cycle cross-checks between the simulator-side
#: ledger and a regime's internal statistics.  Both sides add the same
#: IEEE-754 values, but the regime's buckets also contain the warm-up
#: window, so the measured-window delta is computed by subtraction and
#: may differ by reassociation noise — never by a whole event.
CYCLE_RTOL = 1e-9


class ConservationError(ReproError):
    """The per-flow ledger disagrees with an independent cycle total."""


class FlowLedger:
    """Per-flow event counts and cycle totals for one accounting scope.

    The scope may be one simulated trace's measured window, one regime's
    lifetime, or one scheduled process — anything that checks syscalls.
    """

    __slots__ = ("counts", "cycles")

    def __init__(
        self,
        counts: Optional[Mapping[str, int]] = None,
        cycles: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.counts: Dict[str, int] = dict(counts) if counts else {}
        self.cycles: Dict[str, float] = dict(cycles) if cycles else {}

    # -- recording -----------------------------------------------------

    def record(self, flow: str, cycles: float) -> None:
        """Account one checked syscall (the hot path)."""
        self.counts[flow] = self.counts.get(flow, 0) + 1
        self.cycles[flow] = self.cycles.get(flow, 0.0) + cycles

    def record_bulk(self, flow: str, cycles: float, count: int) -> None:
        """Account *count* syscalls that each cost *cycles* (bulk path).

        Charges ``cycles * count`` in one addition; callers comparing
        against a per-event ledger should use :meth:`audit_against`'s
        :data:`CYCLE_RTOL` tolerance, not bit equality.
        """
        self.counts[flow] = self.counts.get(flow, 0) + count
        self.cycles[flow] = self.cycles.get(flow, 0.0) + cycles * count

    def merge(self, other: "FlowLedger") -> None:
        for flow, count in other.counts.items():
            self.counts[flow] = self.counts.get(flow, 0) + count
        for flow, cycles in other.cycles.items():
            self.cycles[flow] = self.cycles.get(flow, 0.0) + cycles

    def snapshot(self) -> "FlowLedger":
        return FlowLedger(self.counts, self.cycles)

    # -- totals --------------------------------------------------------

    def total_events(self) -> int:
        return sum(self.counts.values())

    def total_cycles(self) -> float:
        """Cycle total, summed in sorted-key order so every consumer
        that re-derives it gets the bit-identical float."""
        return sum(self.cycles[key] for key in sorted(self.cycles))

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowLedger(counts={self.counts!r}, cycles={self.cycles!r})"

    # -- serialisation -------------------------------------------------

    def as_dict(self, round_cycles: Optional[int] = None) -> Dict[str, Dict]:
        cycles = (
            {k: round(v, round_cycles) for k, v in sorted(self.cycles.items())}
            if round_cycles is not None
            else dict(sorted(self.cycles.items()))
        )
        return {"counts": dict(sorted(self.counts.items())), "cycles": cycles}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Mapping]) -> "FlowLedger":
        return cls(payload.get("counts", {}), payload.get("cycles", {}))

    # -- audits --------------------------------------------------------

    def audit_totals(
        self, events: int, check_cycles: float, scope: str = "?"
    ) -> None:
        """Assert conservation against independently-kept totals.

        ``sum(flow counts) == events`` must hold exactly; the cycle sum
        is re-derived in the same sorted-key order as
        :meth:`total_cycles`, so it must equal *check_cycles* exactly
        when the total was derived from this ledger.
        """
        counted = self.total_events()
        if counted != events:
            raise ConservationError(
                f"{scope}: flow counts sum to {counted} but {events} events "
                f"were measured (ledger: {dict(sorted(self.counts.items()))})"
            )
        summed = self.total_cycles()
        if summed != check_cycles:
            raise ConservationError(
                f"{scope}: per-flow cycles sum to {summed!r} but total check "
                f"cycles are {check_cycles!r} (drift {summed - check_cycles!r})"
            )

    def audit_against(
        self, before: "FlowLedger", after: "FlowLedger", scope: str = "?"
    ) -> None:
        """Cross-check this ledger against a regime's own statistics.

        *before*/*after* are snapshots of the regime-side ledger taken
        around the measured window; the delta must agree with this
        (simulator-side) ledger — counts exactly, cycles to within
        :data:`CYCLE_RTOL` (the regime's running buckets include the
        warm-up prefix, so the delta is a floating-point subtraction).
        """
        flows = set(self.counts) | set(after.counts)
        for flow in sorted(flows):
            want = self.counts.get(flow, 0)
            got = after.counts.get(flow, 0) - before.counts.get(flow, 0)
            if got != want:
                raise ConservationError(
                    f"{scope}: flow {flow!r} counted {want} times by the "
                    f"simulator but {got} times by the regime"
                )
            want_cycles = self.cycles.get(flow, 0.0)
            got_cycles = after.cycles.get(flow, 0.0) - before.cycles.get(flow, 0.0)
            tolerance = CYCLE_RTOL * max(abs(want_cycles), abs(got_cycles), 1.0)
            if abs(got_cycles - want_cycles) > tolerance:
                raise ConservationError(
                    f"{scope}: flow {flow!r} cycles disagree — simulator "
                    f"{want_cycles!r} vs regime {got_cycles!r}"
                )
