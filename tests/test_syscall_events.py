"""Tests for syscall events and traces."""

import pytest

from repro.syscalls.events import SyscallEvent, SyscallTrace, make_event
from repro.syscalls.table import sid


class TestSyscallEvent:
    def test_key_identity(self):
        a = SyscallEvent(sid=0, args=(3, 0, 100))
        b = SyscallEvent(sid=0, args=(3, 0, 100), pc=0x999)
        assert a.key == b.key  # PC is not part of the cached identity

    def test_negative_sid_rejected(self):
        with pytest.raises(ValueError):
            SyscallEvent(sid=-1, args=())

    def test_too_many_args_rejected(self):
        with pytest.raises(ValueError):
            SyscallEvent(sid=0, args=tuple(range(7)))

    def test_args_coerced_to_int(self):
        event = SyscallEvent(sid=0, args=(True, 2.0 and 2))
        assert event.args == (1, 2)

    def test_name(self):
        assert SyscallEvent(sid=0, args=()).name() == "read"

    def test_slotted_with_cached_hash(self):
        event = SyscallEvent(sid=0, args=(3, 0, 100), pc=0x10)
        assert not hasattr(event, "__dict__")
        assert hash(event) == hash((0, (3, 0, 100), 0x10))
        assert event == SyscallEvent(sid=0, args=(3, 0, 100), pc=0x10)
        assert repr(event) == "SyscallEvent(sid=0, args=(3, 0, 100), pc=16)"
        with pytest.raises(AttributeError):
            event.pc = 0


class TestMakeEvent:
    def test_places_values_on_checkable_slots(self):
        event = make_event("read", (3, 4096))
        # read(fd, buf*, count): values land on slots 0 and 2.
        assert event.args == (3, 0, 4096)

    def test_by_sid(self):
        event = make_event(135, (0xFFFFFFFF,))
        assert event.sid == 135
        assert event.args == (0xFFFFFFFF,)

    def test_no_args(self):
        event = make_event("getppid")
        assert event.args == ()

    def test_too_many_checkable_values(self):
        with pytest.raises(ValueError):
            make_event("close", (1, 2))

    def test_pointer_only_syscall(self):
        event = make_event("stat", ())
        assert event.args == (0, 0)

    def test_pc_recorded(self):
        assert make_event("read", (1, 2), pc=0x1234).pc == 0x1234


class TestSyscallTrace:
    def _trace(self):
        return SyscallTrace(
            [
                make_event("read", (3, 100)),
                make_event("read", (4, 100)),
                make_event("write", (1, 50)),
                make_event("read", (3, 100)),
            ]
        )

    def test_len_and_iter(self):
        trace = self._trace()
        assert len(trace) == 4
        assert [e.sid for e in trace] == [0, 0, 1, 0]

    def test_indexing_and_slicing(self):
        trace = self._trace()
        assert trace[0].sid == 0
        sub = trace[1:3]
        assert isinstance(sub, SyscallTrace)
        assert len(sub) == 2

    def test_unique_sids(self):
        assert self._trace().unique_sids() == (0, 1)

    def test_unique_keys(self):
        assert len(self._trace().unique_keys()) == 3

    def test_argument_sets_for(self):
        sets = self._trace().argument_sets_for(sid("read"))
        assert len(sets) == 2

    def test_append_extend(self):
        trace = SyscallTrace()
        trace.append(make_event("read", (1, 1)))
        trace.extend([make_event("write", (1, 1))])
        assert len(trace) == 2
