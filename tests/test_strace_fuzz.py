"""Fuzz tests for the strace parser: arbitrary text must never crash it."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tracing.strace import StraceParser, parse_value, split_arguments


class TestParserRobustness:
    @settings(max_examples=120, deadline=None)
    @given(st.text(max_size=300))
    def test_arbitrary_text_never_crashes(self, text):
        parser = StraceParser()
        trace = parser.parse(text)
        assert len(trace) >= 0  # no exception is the property

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet='abcdefgh(),"= 0123456789|_<>{}[]-.', max_size=120))
    def test_strace_like_noise_never_crashes(self, text):
        parser = StraceParser()
        parser.parse(text)

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_split_arguments_total(self, text):
        parts = split_arguments(text)
        assert isinstance(parts, tuple)

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=40))
    def test_parse_value_total(self, token):
        result = parse_value(token, {"FLAG": 1})
        assert result is None or isinstance(result, int)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["read", "close", "getpid", "openat"]),
        args=st.lists(st.integers(0, 2**32), max_size=4),
        ret=st.integers(-200, 2**31),
    )
    def test_wellformed_lines_always_parse(self, name, args, ret):
        line = f"{name}({', '.join(str(a) for a in args)}) = {ret}"
        parser = StraceParser()
        record = parser.parse_line(line)
        assert record is not None
        assert record.name == name
        assert record.return_value == ret

    @settings(max_examples=60, deadline=None)
    @given(payload=st.text(alphabet=st.characters(blacklist_characters='"\\', blacklist_categories=("Cs", "Cc")), max_size=30))
    @example(payload="<unfinished")
    def test_string_payloads_never_become_values(self, payload):
        parser = StraceParser()
        line = f'write(1, "{payload}", 5) = 5'
        record = parser.parse_line(line)
        assert record is not None
        event = parser.record_to_event(record)
        assert event is not None
        assert event.args[1] == 0  # the buffer pointer slot stays 0
        assert event.args == (1, 0, 5)
