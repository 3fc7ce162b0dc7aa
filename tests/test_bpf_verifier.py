"""Tests for the cBPF verifier — the kernel's attach-time checks."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bpf.insn import (
    BPF_ABS,
    BPF_ALU,
    BPF_DIV,
    BPF_B,
    BPF_H,
    BPF_IMM,
    BPF_IND,
    BPF_JA,
    BPF_JEQ,
    BPF_JMP,
    BPF_K,
    BPF_LD,
    BPF_LDX,
    BPF_LEN,
    BPF_MAXINSNS,
    BPF_MEM,
    BPF_MEMWORDS,
    BPF_MOD,
    BPF_MSH,
    BPF_RET,
    BPF_ST,
    BPF_W,
    BPF_X,
    Insn,
    bpf_class,
    bpf_op,
    bpf_src,
    jump,
    stmt,
)
from repro.bpf.interpreter import run
from repro.bpf.seccomp_data import SeccompData
from repro.bpf.verifier import verify
from repro.common.errors import BpfRuntimeError, BpfVerifyError

RET0 = stmt(BPF_RET | BPF_K, 0)


class TestBasicShape:
    def test_minimal_program(self):
        verify([RET0])

    def test_empty_rejected(self):
        with pytest.raises(BpfVerifyError):
            verify([])

    def test_too_long_rejected(self):
        with pytest.raises(BpfVerifyError):
            verify([RET0] * (BPF_MAXINSNS + 1))

    def test_must_end_with_return(self):
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_LD | BPF_W | BPF_ABS, 0)])


class TestJumps:
    def test_in_range_conditional(self):
        verify([jump(BPF_JMP | BPF_JEQ | BPF_K, 1, 0, 1), RET0, RET0])

    def test_out_of_range_jt(self):
        with pytest.raises(BpfVerifyError):
            verify([jump(BPF_JMP | BPF_JEQ | BPF_K, 1, 5, 0), RET0])

    def test_out_of_range_ja(self):
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_JMP | BPF_JA, 9), RET0])

    def test_invalid_jump_op(self):
        with pytest.raises(BpfVerifyError):
            verify([Insn(code=BPF_JMP | 0x70), RET0])

    def test_all_paths_must_return(self):
        # jt path returns, jf path falls off the end via a load.
        program = [
            jump(BPF_JMP | BPF_JEQ | BPF_K, 1, 1, 0),
            stmt(BPF_LD | BPF_W | BPF_ABS, 0),
            RET0,
        ]
        verify(program)  # both paths end in the final ret

    def test_fall_through_past_end(self):
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_LD | BPF_W | BPF_ABS, 0)])


class TestLoads:
    def test_seccomp_load_must_be_word(self):
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_LD | BPF_H | BPF_ABS, 0), RET0])

    def test_unaligned_load(self):
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_LD | BPF_W | BPF_ABS, 2), RET0])

    def test_out_of_bounds_load(self):
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_LD | BPF_W | BPF_ABS, 64), RET0])

    def test_scratch_memory_bounds(self):
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_LD | BPF_W | BPF_MEM, BPF_MEMWORDS), RET0])
        verify([stmt(BPF_ST, 0), RET0])
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_ST, BPF_MEMWORDS), RET0])

    @pytest.mark.parametrize(
        "mode", [BPF_ABS, BPF_IND, BPF_LEN, BPF_MSH], ids=["abs", "ind", "len", "msh"]
    )
    def test_ldx_only_from_immediate_or_scratch(self, mode):
        # Linux admits ldx as IMM, MEM, LEN and MSH, and seccomp rejects
        # LEN and MSH; ``ldx [k]`` would fault in the interpreter.
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_LDX | BPF_W | mode, 0), RET0])
        verify([stmt(BPF_LDX | BPF_W | BPF_IMM, 0), RET0])
        verify([stmt(BPF_LDX | BPF_W | BPF_MEM, 0), RET0])


class TestAlu:
    def test_division_by_zero_constant(self):
        with pytest.raises(BpfVerifyError):
            verify([stmt(BPF_ALU | BPF_DIV | BPF_K, 0), RET0])

    def test_division_by_nonzero_ok(self):
        verify([stmt(BPF_ALU | BPF_DIV | BPF_K, 2), RET0])

    def test_invalid_alu_op(self):
        with pytest.raises(BpfVerifyError):
            verify([Insn(code=BPF_ALU | 0xB0), RET0])


# ---------------------------------------------------------------------------
# verified programs do not fault


#: Every size and mode code a load can carry; for ALU and jump
#: instructions the same bits are the source and the op.
_SIZES = (BPF_W, BPF_H, BPF_B, 0x18)
_MODES = (BPF_IMM, BPF_ABS, BPF_IND, BPF_MEM, BPF_LEN, BPF_MSH, 0xC0, 0xE0)


@st.composite
def raw_programs(draw):
    """Random instruction streams over every class, size and mode code,
    with operands near the verifier's bounds, ending in a return."""
    insns = []
    for _ in range(draw(st.integers(1, 6))):
        code = (
            draw(st.integers(0, 7))
            | draw(st.sampled_from(_SIZES))
            | draw(st.sampled_from(_MODES))
        )
        k = draw(st.sampled_from((0, 1, 4, 8, 15, 16, 60, 64, 2**32 - 1)))
        insns.append(
            Insn(code=code, jt=draw(st.integers(0, 3)), jf=draw(st.integers(0, 3)), k=k)
        )
    return insns + [RET0]


@settings(max_examples=600, deadline=None)
@given(
    program=raw_programs(),
    data=st.builds(
        SeccompData,
        nr=st.integers(0, 3),
        args=st.tuples(*[st.integers(0, 2) for _ in range(6)]),
    ),
)
# ``ldx [k]``, one code in 256, which the verifier once admitted.
@example(program=[stmt(BPF_LDX | BPF_W | BPF_ABS, 0), RET0], data=SeccompData(nr=0))
def test_verified_programs_fault_only_on_division_by_zero_x(program, data):
    try:
        verify(program)
    except BpfVerifyError:
        return
    try:
        run(program, data)
    except BpfRuntimeError as exc:
        match = re.match(r"(division|modulo) by zero at pc=(\d+)$", str(exc))
        assert match, f"verified program faulted: {exc}"
        insn = program[int(match.group(2))]
        assert bpf_class(insn.code) == BPF_ALU
        assert bpf_op(insn.code) in (BPF_DIV, BPF_MOD)
        assert bpf_src(insn.code) == BPF_X
