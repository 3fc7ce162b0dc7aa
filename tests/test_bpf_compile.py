"""Differential tests for the decode-once BPF fast path.

The decoded table must be observably indistinguishable from the
interpreter: same return value, same ``instructions_executed``, same
runtime errors — over randomized programs, randomized inputs, and the
real bundled profiles (docker-default, gVisor, Firecracker).
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpf import compile as bpf_compile
from repro.bpf.compile import (
    CompiledFilter,
    WORD_ARGS,
    WORD_IP_LO,
    build_key_fn,
    compile_program,
    event_words,
    read_word_indices,
    words_of,
)
from repro.bpf.insn import (
    BPF_A,
    BPF_ABS,
    BPF_ADD,
    BPF_ALU,
    BPF_AND,
    BPF_DIV,
    BPF_IMM,
    BPF_JEQ,
    BPF_JGE,
    BPF_JGT,
    BPF_JMP,
    BPF_JSET,
    BPF_K,
    BPF_LD,
    BPF_LDX,
    BPF_LSH,
    BPF_MEM,
    BPF_MISC,
    BPF_MOD,
    BPF_MUL,
    BPF_NEG,
    BPF_OR,
    BPF_RET,
    BPF_RSH,
    BPF_ST,
    BPF_STX,
    BPF_SUB,
    BPF_TAX,
    BPF_TXA,
    BPF_W,
    BPF_X,
    BPF_XOR,
    jump,
    stmt,
)
from repro.bpf.interpreter import run
from repro.bpf.seccomp_data import IP_OFFSET, NR_OFFSET, SeccompData, args_off
from repro.common.errors import BpfRuntimeError
from repro.seccomp.compiler import compile_profile_chunked
from repro.seccomp.profiles import build_docker_default, build_firecracker, build_gvisor
from repro.seccomp.toolkit import generate_bundle
from repro.syscalls.events import SyscallEvent
from repro.workloads.catalog import CATALOG
from repro.workloads.generator import profile_trace

# ---------------------------------------------------------------------------
# strategies


def _straight_insn(draw):
    """One non-jump, non-ret instruction."""
    kind = draw(
        st.sampled_from(
            ["ld_imm", "ld_abs", "ld_mem", "ldx_imm", "ldx_mem", "st", "stx",
             "tax", "txa", "alu_k", "alu_x", "neg"]
        )
    )
    k32 = draw(st.integers(0, 2**32 - 1))
    mem = draw(st.integers(0, 15))
    word = draw(st.integers(0, 15))
    if kind == "ld_imm":
        return stmt(BPF_LD | BPF_W | BPF_IMM, k32)
    if kind == "ld_abs":
        return stmt(BPF_LD | BPF_W | BPF_ABS, word * 4)
    if kind == "ld_mem":
        return stmt(BPF_LD | BPF_W | BPF_MEM, mem)
    if kind == "ldx_imm":
        return stmt(BPF_LDX | BPF_W | BPF_IMM, k32)
    if kind == "ldx_mem":
        return stmt(BPF_LDX | BPF_W | BPF_MEM, mem)
    if kind == "st":
        return stmt(BPF_ST, mem)
    if kind == "stx":
        return stmt(BPF_STX, mem)
    if kind == "tax":
        return stmt(BPF_MISC | BPF_TAX)
    if kind == "txa":
        return stmt(BPF_MISC | BPF_TXA)
    if kind == "neg":
        return stmt(BPF_ALU | BPF_NEG)
    ops = (BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV, BPF_MOD, BPF_AND, BPF_OR,
           BPF_XOR, BPF_LSH, BPF_RSH)
    op = draw(st.sampled_from(ops))
    if kind == "alu_k":
        if op in (BPF_DIV, BPF_MOD):
            k32 = max(k32, 1)  # the verifier rejects constant zero divisors
        if op in (BPF_LSH, BPF_RSH):
            k32 = draw(st.integers(0, 40))
        return stmt(BPF_ALU | op | BPF_K, k32)
    # ALU with X operand: division by a zero X is a *runtime* error the
    # compiled code must reproduce, so it stays in the strategy.
    return stmt(BPF_ALU | op | BPF_X)


@st.composite
def programs(draw):
    """Random verifier-clean programs: a straight-line body sprinkled
    with forward conditional jumps, terminated by a RET (so every path
    returns)."""
    n = draw(st.integers(1, 24))
    insns = []
    for pc in range(n):
        remaining = n - pc - 1  # slots before the final RET
        if remaining >= 1 and draw(st.booleans()) and draw(st.booleans()):
            op = draw(st.sampled_from((BPF_JEQ, BPF_JGT, BPF_JGE, BPF_JSET)))
            src = draw(st.sampled_from((BPF_K, BPF_X)))
            k = draw(st.integers(0, 2**32 - 1)) if src == BPF_K else 0
            jt = draw(st.integers(0, remaining - 1))
            jf = draw(st.integers(0, remaining - 1))
            insns.append(jump(BPF_JMP | op | src, k, jt, jf))
        else:
            insns.append(_straight_insn(draw))
    ret_a = draw(st.booleans())
    insns.append(
        stmt(BPF_RET | BPF_A)
        if ret_a
        else stmt(BPF_RET | BPF_K, draw(st.integers(0, 2**32 - 1)))
    )
    return insns


seccomp_datas = st.builds(
    SeccompData,
    nr=st.integers(0, 2**32 - 1),
    arch=st.integers(0, 2**32 - 1),
    instruction_pointer=st.integers(0, 2**64 - 1),
    args=st.tuples(*[st.integers(0, 2**64 - 1) for _ in range(6)]),
)


def _differential(program, data):
    """Run both engines; they must agree on result *or* on the error."""
    try:
        expected = run(program, data)
        expected_error = None
    except BpfRuntimeError as exc:
        expected = None
        expected_error = str(exc)
    compiled = compile_program(program)
    try:
        actual = compiled.run(data)
        actual_error = None
    except BpfRuntimeError as exc:
        actual = None
        actual_error = str(exc)
    assert (expected is None) == (actual is None), (
        f"error mismatch: interpreter={expected_error!r} compiled={actual_error!r}"
    )
    if expected is not None:
        assert actual.return_value == expected.return_value
        assert actual.instructions_executed == expected.instructions_executed


# ---------------------------------------------------------------------------
# randomized differential


class TestRandomizedDifferential:
    @settings(max_examples=300, deadline=None)
    @given(program=programs(), data=seccomp_datas)
    def test_compiled_matches_interpreter(self, program, data):
        _differential(program, data)

    @settings(max_examples=100, deadline=None)
    @given(data=seccomp_datas, divisor_op=st.sampled_from((BPF_DIV, BPF_MOD)))
    def test_division_by_x_zero_matches(self, data, divisor_op):
        program = [
            stmt(BPF_LD | BPF_W | BPF_ABS, NR_OFFSET),
            stmt(BPF_LDX | BPF_W | BPF_IMM, 0),
            stmt(BPF_ALU | divisor_op | BPF_X),
            stmt(BPF_RET | BPF_A),
        ]
        with pytest.raises(BpfRuntimeError):
            run(program, data)
        with pytest.raises(BpfRuntimeError):
            compile_program(program).run(data)


# ---------------------------------------------------------------------------
# bundled-profile differential (the acceptance-criteria sweep)


@pytest.mark.parametrize(
    "builder", [build_docker_default, build_gvisor, build_firecracker]
)
@pytest.mark.parametrize("strategy", ["linear", "binary_tree"])
def test_bundled_profiles_differential(builder, strategy):
    profile = builder()
    sids = sorted({rule.sid for rule in profile.rules})
    probes = [
        SeccompData(nr=sid, args=(value, value, 0, 0, 0, 0))
        for sid in sids[:40] + sids[-10:]
        for value in (0, 1, 0x7E020000, 2**63)
    ] + [SeccompData(nr=999_999), SeccompData(nr=0, arch=0xDEAD)]
    for program in compile_profile_chunked(profile, strategy=strategy):
        compiled = compile_program(program)
        for data in probes:
            expected = run(program, data)
            actual = compiled.run(data)
            assert actual == expected


# ---------------------------------------------------------------------------
# word/key analysis


class TestWordAnalysis:
    def test_words_of_matches_load_u32(self):
        data = SeccompData(
            nr=3, arch=0xC000003E, instruction_pointer=0xABCDEF0123456789,
            args=(1, 2**40, 3, 4, 5, 2**64 - 1),
        )
        words = words_of(data)
        for index in range(16):
            assert words[index] == data.load_u32(index * 4)

    def test_event_words_matches_from_event(self):
        event = SyscallEvent(sid=7, args=(9, 2**33 + 1), pc=0x4000_1234)
        assert event_words(event) == words_of(SeccompData.from_event(event))

    def test_read_word_indices(self):
        program = [
            stmt(BPF_LD | BPF_W | BPF_ABS, NR_OFFSET),
            stmt(BPF_LD | BPF_W | BPF_ABS, args_off(2)),
            stmt(BPF_RET | BPF_K, 0),
        ]
        assert read_word_indices(program) == frozenset({0, WORD_ARGS + 4})

    def test_key_distinguishes_ip_when_read(self):
        """Regression: the old (sid, args) memo key aliased events that
        differ only in the instruction pointer, which an IP-reading
        filter can distinguish."""
        key_fn = build_key_fn(frozenset({WORD_IP_LO}))
        a = SyscallEvent(sid=1, args=(), pc=0x1000)
        b = SyscallEvent(sid=1, args=(), pc=0x2000)
        assert key_fn(a) != key_fn(b)
        program = [
            stmt(BPF_LD | BPF_W | BPF_ABS, IP_OFFSET),
            jump(BPF_JMP | BPF_JEQ | BPF_K, 0x1000, 0, 1),
            stmt(BPF_RET | BPF_K, 0x7FFF0000),  # ALLOW
            stmt(BPF_RET | BPF_K, 0),           # KILL
        ]
        compiled = compile_program(program)
        assert (
            compiled.run(SeccompData.from_event(a)).return_value
            != compiled.run(SeccompData.from_event(b)).return_value
        )

    def test_key_ignores_unread_args(self):
        key_fn = build_key_fn(frozenset({0}))  # nr only
        a = SyscallEvent(sid=5, args=(1, 2, 3))
        b = SyscallEvent(sid=5, args=(9, 9, 9))
        assert key_fn(a) == key_fn(b)
        assert key_fn(a) != key_fn(SyscallEvent(sid=6, args=(1, 2, 3)))

    def test_key_splits_low_and_high_words(self):
        low_only = build_key_fn(frozenset({WORD_ARGS}))
        a = SyscallEvent(sid=1, args=(0x1_0000_0001,))
        b = SyscallEvent(sid=1, args=(0x2_0000_0001,))  # same low word
        assert low_only(a) == low_only(b)
        both = build_key_fn(frozenset({WORD_ARGS, WORD_ARGS + 1}))
        assert both(a) != both(b)


# ---------------------------------------------------------------------------
# compile cache


class TestCompileCache:
    def test_identical_programs_share_one_compilation(self):
        program = [stmt(BPF_RET | BPF_K, 0)]
        first = compile_program(program)
        second = compile_program(list(program))
        assert isinstance(first, CompiledFilter)
        assert second is first


# ---------------------------------------------------------------------------
# footprint


class TestFootprint:
    def test_catalog_filters_stay_compact(self, monkeypatch):
        """The binary-tree filters of the catalog's noargs and complete
        profiles, assembled and decoded from an empty compile memo, hold
        at most 180 B per instruction: a slotted ``Insn`` and a table row
        of shared ints (230 B with an instance dict per ``Insn`` and
        fresh pc ints per row)."""
        profiles = []
        for spec in CATALOG.values():
            bundle = generate_bundle(profile_trace(spec, count=0), spec.name)
            profiles += [bundle.noargs, bundle.complete]
        monkeypatch.setattr(bpf_compile, "_COMPILE_CACHE", {})
        gc.collect()
        tracemalloc.start()
        try:
            compiled = [
                compile_program(program)
                for profile in profiles
                for program in compile_profile_chunked(profile, "binary_tree")
            ]
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        instructions = sum(len(c) for c in compiled)
        assert instructions > 30_000
        assert held / instructions <= 180, held / instructions
