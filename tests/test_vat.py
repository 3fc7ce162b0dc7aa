"""Tests for the Validated Argument Table."""

import pytest

from repro.core.vat import (
    MIN_TABLE_SLOTS,
    OVERPROVISION_FACTOR,
    VAT,
    VAT_ENTRY_BYTES,
    VatTable,
)
from repro.hashing.crc import hash_pair
from repro.syscalls.abi import argument_bitmask


def _key(args, nargs=2):
    return VAT.hashed_key(args, argument_bitmask(nargs))[0]


class TestVatTable:
    def test_sized_by_overprovisioning(self):
        vat = VAT()
        table = vat.ensure_table(0, estimated_arg_sets=10)
        assert table.num_slots == OVERPROVISION_FACTOR * 10

    def test_minimum_size(self):
        vat = VAT()
        table = vat.ensure_table(0, estimated_arg_sets=0)
        assert table.num_slots == MIN_TABLE_SLOTS

    def test_idempotent_ensure(self):
        vat = VAT()
        a = vat.ensure_table(0, estimated_arg_sets=4)
        b = vat.ensure_table(0, estimated_arg_sets=99)
        assert a is b

    def test_lookup_probe_addresses(self):
        vat = VAT()
        table = vat.ensure_table(0, estimated_arg_sets=4)
        key, hashes = VAT.hashed_key((3, 100), argument_bitmask(2))
        probe = table.lookup(key, hashes)
        assert not probe.hit
        a1, a2 = probe.addresses
        assert a1 % VAT_ENTRY_BYTES == 0 and a2 % VAT_ENTRY_BYTES == 0
        assert table.base_address <= a1 < table.base_address + table.size_bytes

    def test_insert_then_hit(self):
        vat = VAT()
        vat.ensure_table(0, estimated_arg_sets=4)
        key, hashes = VAT.hashed_key((3, 100), argument_bitmask(2))
        which = vat.insert(0, key, (3, 0, 100))
        probe = vat.lookup(0, key, hashes)
        assert probe.hit
        assert probe.which_hash == which
        assert probe.args == (3, 0, 100)

    def test_insert_eviction_on_pressure(self):
        vat = VAT()
        table = vat.ensure_table(0, estimated_arg_sets=0)  # 4 slots
        for i in range(12):
            table.insert(_key((i, 0)), (i, 0))
        assert table.evictions > 0
        assert len(table.table) <= table.num_slots

    def test_tables_have_disjoint_address_ranges(self):
        vat = VAT()
        t1 = vat.ensure_table(0, estimated_arg_sets=8)
        t2 = vat.ensure_table(1, estimated_arg_sets=8)
        end1 = t1.base_address + t1.size_bytes
        assert t2.base_address >= end1


class TestVat:
    def test_lookup_unknown_sid(self):
        assert VAT().lookup(99, b"x", hash_pair(b"x")) is None

    def test_insert_creates_table_lazily(self):
        vat = VAT()
        vat.insert(7, b"key", (1,))
        assert vat.table_for(7) is not None

    def test_key_for_uses_bitmask(self):
        mask = argument_bitmask(1)
        assert VAT.hashed_key((0xAB,), mask)[0] == bytes([0xAB] + [0] * 7)

    def test_size_accounting(self):
        vat = VAT()
        vat.ensure_table(0, estimated_arg_sets=8)   # 16 slots
        vat.ensure_table(1, estimated_arg_sets=2)   # 4 slots
        assert vat.size_bytes == (16 + 4) * VAT_ENTRY_BYTES
        assert vat.num_tables == 2

    def test_total_entries(self):
        vat = VAT()
        vat.ensure_table(0, estimated_arg_sets=4)
        vat.insert(0, b"a", (1,))
        vat.insert(0, b"b", (2,))
        assert vat.total_entries == 2

    def test_negative_estimate_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            VAT().ensure_table(0, estimated_arg_sets=-1)
