"""Model-based tests: the hardware structures vs. simple reference models.

Each structure (STB, SLB subtable, VAT) is driven with a random
operation sequence alongside an idealised dictionary model.  The
structure may *forget* entries (capacity), but must never fabricate:
every hit it reports must match the model's ground truth.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hardware import hash_id_for
from repro.core.slb import SlbSubtable
from repro.core.stb import Stb
from repro.core.vat import VAT
from repro.cpu.params import DracoHwParams, SlbSubtableParams
from repro.hashing.crc import CRC64_ECMA, CRC64_NOT_ECMA
from repro.syscalls.abi import argument_bitmask


def _pair(key: bytes):
    return (CRC64_ECMA(key), CRC64_NOT_ECMA(key))


class TestStbAgainstModel:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["update", "lookup", "flush"]),
                st.integers(0, 8),   # pc index
                st.integers(0, 3),   # sid
            ),
            max_size=60,
        )
    )
    def test_no_fabricated_hits(self, ops):
        stb = Stb(DracoHwParams(stb_entries=8, stb_ways=2))
        model = {}
        pcs = [0x1000 + 4 * i for i in range(9)]
        for op, pc_index, sid in ops:
            pc = pcs[pc_index]
            if op == "update":
                hid = hash_id_for(bytes([sid]), 0)
                stb.update(pc, sid, hid)
                model[pc] = (sid, hid)
            elif op == "flush":
                stb.invalidate_all()
                model.clear()
            else:
                entry = stb.lookup(pc)
                if entry is not None:
                    # A hit must agree with the model exactly.
                    assert pc in model
                    assert (entry.sid, entry.hash_id) == model[pc]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=20))
    def test_most_recent_update_wins(self, sids):
        stb = Stb()
        pc = 0x4000
        for sid in sids:
            stb.update(pc, sid, hash_id_for(bytes([sid]), 0))
        assert stb.lookup(pc).sid == sids[-1]


class TestSlbAgainstModel:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["fill", "access", "probe", "flush"]),
                st.integers(0, 2),       # sid
                st.integers(0, 5),       # argset index
            ),
            max_size=60,
        )
    )
    def test_no_fabricated_hits(self, ops):
        subtable = SlbSubtable(SlbSubtableParams(arg_count=2, entries=8, ways=2))
        model = {}
        argsets = [(i, i * 10) for i in range(6)]
        for op, sid, arg_index in ops:
            args = argsets[arg_index]
            key = bytes(args)
            hid = hash_id_for(key, 0)
            if op == "fill":
                subtable.fill(sid, hid, args, _pair(key))
                model[(sid, args)] = hid
            elif op == "flush":
                subtable.invalidate_all()
                model.clear()
            elif op == "access":
                entry = subtable.access(sid, args, _pair(key))
                if entry is not None:
                    assert (sid, args) in model
            else:
                hit = subtable.preload_probe(sid, hid)
                if hit:
                    assert (sid, args) in model

    def test_capacity_respected(self):
        subtable = SlbSubtable(SlbSubtableParams(arg_count=1, entries=4, ways=2))
        for i in range(32):
            key = bytes([i])
            subtable.fill(0, hash_id_for(key, 0), (i,), _pair(key))
        assert subtable.occupancy <= 4


class TestVatAgainstModel:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "lookup"]),
                st.integers(0, 1),    # sid
                st.integers(0, 9),    # arg value
            ),
            max_size=50,
        )
    )
    def test_hits_match_inserts(self, ops):
        vat = VAT()
        vat.ensure_table(0, estimated_arg_sets=16)
        vat.ensure_table(1, estimated_arg_sets=16)
        bitmask = argument_bitmask(1)
        model = set()
        for op, sid, value in ops:
            key, hashes = VAT.hashed_key((value,), bitmask)
            if op == "insert":
                vat.insert(sid, key, (value,))
                model.add((sid, value))
            else:
                probe = vat.lookup(sid, key, hashes)
                # At 2x over-provisioning nothing is evicted, so the
                # VAT is *exact*: hit iff inserted.
                assert probe.hit == ((sid, value) in model)
                if probe.hit:
                    assert probe.args == (value,)
