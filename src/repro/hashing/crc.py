"""CRC-64 hash generators.

Section VII-A of the paper: "For the hash functions, we use the ECMA
[63] and the ¬ECMA polynomials to compute the Cyclic Redundancy Check
(CRC) code of the system call argument set."  The hardware implements
these as LFSRs (Table III evaluates the RTL); here they are table-driven
and bit-exact, so the software VAT, the hardware SLB/STB, and the tests
all agree on hash values.
"""

from __future__ import annotations

from typing import List, Tuple

#: ECMA-182 CRC-64 polynomial (normal representation).
ECMA_POLY = 0x42F0E1EBA9EA3693

#: The bitwise complement of the ECMA polynomial, forced odd so it
#: remains a valid CRC generator (the paper's "¬ ECMA" polynomial).
NOT_ECMA_POLY = ~ECMA_POLY & 0xFFFFFFFFFFFFFFFF | 1

_U64 = 0xFFFFFFFFFFFFFFFF


def _build_table(poly: int) -> Tuple[int, ...]:
    table: List[int] = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ poly) & _U64
            else:
                crc = (crc << 1) & _U64
        table.append(crc)
    return tuple(table)


#: Entries kept per hash instance before the memo is dropped; the
#: simulator's key population is tiny, the cap only guards fuzz tests.
_MEMO_LIMIT = 1 << 16


class Crc64:
    """A table-driven, MSB-first CRC-64 with a configurable polynomial.

    Values are memoized per instance: the simulator hashes the same
    Selector-masked argument keys millions of times (every VAT probe
    hashes its key twice), and a CRC is a pure function of its input.
    """

    def __init__(self, poly: int, init: int = 0, xorout: int = 0) -> None:
        if not 0 < poly <= _U64:
            raise ValueError("polynomial must be a non-zero 64-bit value")
        self.poly = poly
        self.init = init & _U64
        self.xorout = xorout & _U64
        self._table = _build_table(poly)
        self._memo: dict = {}

    def compute(self, data: bytes) -> int:
        memo = self._memo
        cached = memo.get(data)
        if cached is not None:
            return cached
        crc = self.init
        table = self._table
        for byte in data:
            crc = ((crc << 8) & _U64) ^ table[(crc >> 56) ^ byte]
        crc ^= self.xorout
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        memo[data] = crc
        return crc

    #: Calling the instance is :meth:`compute` itself, not a wrapper
    #: frame around it.
    __call__ = compute


#: H1 of Figure 5 — CRC-64/ECMA-182: init=0, xorout=0, so
#: ``CRC64_ECMA(b"123456789") == 0x6C40DF5F0B497347``.  (An earlier
#: revision used init/xorout of all-ones, which is CRC-64/WE, not the
#: ECMA-182 code the paper cites.)
CRC64_ECMA = Crc64(ECMA_POLY, init=0, xorout=0)

#: H2 of Figure 5 — complemented-ECMA polynomial, same ECMA-182 framing.
CRC64_NOT_ECMA = Crc64(NOT_ECMA_POLY, init=0, xorout=0)


def hash_pair(data: bytes) -> Tuple[int, int]:
    """The (H1, H2) hash values Draco derives from an argument-byte string."""
    return CRC64_ECMA(data), CRC64_NOT_ECMA(data)
