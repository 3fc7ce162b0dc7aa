"""Mutation counters as the validity epoch of the hardware steady memo.

``HardwareDraco.steady_probe`` replays a memoized walk without looking
at any structure while the sum of the structures' ``mutations``
counters is unchanged.  That is sound only if every operation that can
change what the probe reads also advances its structure's counter.

Each property drives one structure with a random operation sequence.
After every operation it observes the values the probe reads over a
fixed probe set (the STB's and SPT's ``peek``, an SLB subtable's
``peek`` and ``preload_probe``, the Temporary Buffer's ``peek_match``,
and for the VAT its lookup outcome): whenever one of them changed, the
structure's counter must have advanced.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slb import Slb
from repro.core.spt import HardwareSPT, SptEntry
from repro.core.stb import Stb
from repro.core.temp_buffer import TemporaryBuffer
from repro.core.vat import VAT
from repro.cpu.params import DracoHwParams, SlbSubtableParams
from repro.syscalls.abi import argument_bitmask


def _same(before, after):
    """Observations are tuples whose first element is compared by
    identity (a structure entry, or ``None``) and the rest by value."""
    return all(a[0] is b[0] and a[1:] == b[1:] for a, b in zip(before, after))


def _check_epoch(structure, ops, apply, observe):
    """Apply *ops* one by one; any change in ``observe()`` must come
    with an advanced ``structure.mutations``."""
    seen = observe()
    for op in ops:
        before = structure.mutations
        apply(op)
        now = observe()
        if not _same(seen, now):
            assert structure.mutations > before, f"{op} changed a probe silently"
        seen = now


def _ops(*names, fields=3, field_max=3):
    return st.lists(
        st.tuples(
            st.sampled_from(names),
            *(st.integers(0, field_max) for _ in range(fields)),
        ),
        max_size=40,
    )


# -- STB ------------------------------------------------------------------

#: Six PCs over two 2-way sets, so updates evict.
PCS = [0x1000 + 4 * i for i in range(6)]


@settings(max_examples=100, deadline=None)
@given(ops=_ops("update", "lookup", "invalidate"))
def test_stb_mutations_track_peek(ops):
    stb = Stb(DracoHwParams(stb_entries=4, stb_ways=2))

    def apply(op):
        name, pc_index, sid, which = op
        pc = PCS[pc_index % len(PCS)]
        if name == "update":
            stb.update(pc, sid, (which % 2, sid))
        elif name == "lookup":
            stb.lookup(pc)
        else:
            stb.invalidate_all()

    def observe():
        out = []
        for pc in PCS:
            entry = stb.peek(pc)
            out.append((entry,) if entry is None else (entry, entry.sid, entry.hash_id))
        return out

    _check_epoch(stb, ops, apply, observe)


# -- SLB ------------------------------------------------------------------

#: Two tiny subtables (two 2-way sets each), so fills evict.
SLB_PARAMS = DracoHwParams(
    slb_subtables=(
        SlbSubtableParams(arg_count=1, entries=4, ways=2),
        SlbSubtableParams(arg_count=2, entries=4, ways=2),
    )
)


def _slb_args(arg_count, value):
    args = (value,) if arg_count == 1 else (value, value + 1)
    return args, VAT.hashed_key(args, argument_bitmask(arg_count))[1]


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["fill", "fill_pair", "access", "preload", "invalidate"]),
            st.integers(0, 1),   # sid
            st.integers(1, 2),   # argument count
            st.integers(0, 3),   # argument value
            st.integers(0, 1),   # fetching hash
        ),
        max_size=40,
    )
)
def test_slb_mutations_track_peek_and_preload(ops):
    slb = Slb(SLB_PARAMS)

    def apply(op):
        name, sid, arg_count, value, which = op
        args, pair = _slb_args(arg_count, value)
        hash_id = (which, pair[which])
        if name == "fill":
            slb.fill(sid, arg_count, hash_id, args)
        elif name == "fill_pair":
            slb.fill(sid, arg_count, hash_id, args, pair)
        elif name == "access":
            slb.access(sid, arg_count, args, pair)
        elif name == "preload":
            slb.preload_probe(sid, arg_count, hash_id)
        else:
            slb.invalidate_all()

    def observe():
        out = []
        for sid in (0, 1):
            for arg_count in (1, 2):
                for value in range(4):
                    args, pair = _slb_args(arg_count, value)
                    subtable = slb.subtable(arg_count)
                    out.append((subtable.peek(sid, args, pair),))
                    for which in (0, 1):
                        hit = subtable.preload_probe(sid, (which, pair[which]))
                        out.append((None, hit))
        return out

    _check_epoch(slb, ops, apply, observe)


# -- SPT ------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(ops=_ops("install", "lookup", "invalidate", "switch", "clear_accessed", field_max=7))
def test_spt_mutations_track_peek(ops):
    # Four direct-mapped slots for SIDs 0-7: installs alias.
    spt = HardwareSPT(DracoHwParams(spt_entries=4))

    def apply(op):
        name, sid, valid, bitmask = op
        if name == "install":
            spt.install(SptEntry(sid=sid, valid=valid % 2 == 0, arg_bitmask=bitmask))
        elif name == "lookup":
            spt.lookup(sid)
        elif name == "invalidate":
            spt.invalidate_all()
        elif name == "switch":
            # A context switch and resume (Section VII-B).
            saved = spt.save_accessed_entries()
            spt.invalidate_all()
            spt.restore(saved)
        else:
            spt.clear_accessed_bits()

    def observe():
        return [(spt.peek(sid),) for sid in range(8)]

    _check_epoch(spt, ops, apply, observe)


# -- Temporary Buffer ---------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(ops=_ops("stash", "take", "clear", fields=2))
def test_temp_buffer_mutations_track_peek_match(ops):
    temp = TemporaryBuffer(DracoHwParams(temp_buffer_entries=3))

    def apply(op):
        name, sid, value = op
        if name == "stash":
            temp.stash(sid, (0, value), (value,))
        elif name == "take":
            temp.take_match(sid, (value,))
        else:
            temp.clear()

    def observe():
        return [
            (temp.peek_match(sid, (value,)),) for sid in range(4) for value in range(4)
        ]

    _check_epoch(temp, ops, apply, observe)


# -- VAT --------------------------------------------------------------------


def _vat_key(value):
    return VAT.hashed_key((value,), argument_bitmask(1))


@settings(max_examples=100, deadline=None)
@given(ops=_ops("insert", "lookup", "clear", fields=2, field_max=7))
def test_vat_mutations_track_lookups(ops):
    vat = VAT()
    # Four-slot tables for SIDs 0 and 1 (inserts relocate and evict);
    # SID 2's table is created by its first insert.
    vat.ensure_table(0, estimated_arg_sets=1)
    vat.ensure_table(1, estimated_arg_sets=1)

    def apply(op):
        name, sid, value = op
        key, hashes = _vat_key(value)
        if name == "insert":
            vat.insert(sid % 3, key, (value,))
        elif name == "lookup":
            vat.lookup(sid % 3, key, hashes)
        else:
            vat.clear_all()

    def observe():
        out = []
        for sid in range(3):
            table = vat.table_for(sid)
            for value in range(8):
                key, hashes = _vat_key(value)
                out.append((None, None if table is None else table.lookup(key, hashes)))
        return out

    _check_epoch(vat, ops, apply, observe)
