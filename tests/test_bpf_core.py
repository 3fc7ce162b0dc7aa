"""Tests for the cBPF instruction set, seccomp_data, and assembler."""

import struct

import pytest

from repro.bpf.assembler import ProgramBuilder
from repro.bpf.insn import (
    BPF_ABS,
    BPF_JEQ,
    BPF_JMP,
    BPF_K,
    BPF_LD,
    BPF_RET,
    BPF_W,
    Insn,
    bpf_class,
    jump,
    stmt,
)
from repro.bpf.seccomp_data import (
    ARCH_OFFSET,
    NR_OFFSET,
    SECCOMP_DATA_SIZE,
    SeccompData,
    args_off,
    args_off_high,
)
from repro.common.errors import BpfVerifyError
from repro.syscalls.abi import AUDIT_ARCH_X86_64
from repro.syscalls.events import make_event


class TestInsn:
    def test_fields_validated(self):
        with pytest.raises(ValueError):
            Insn(code=-1)
        with pytest.raises(ValueError):
            Insn(code=0, jt=256)
        with pytest.raises(ValueError):
            Insn(code=0, k=1 << 32)

    def test_helpers(self):
        insn = stmt(BPF_LD | BPF_W | BPF_ABS, 4)
        assert insn.k == 4
        cond = jump(BPF_JMP | BPF_JEQ | BPF_K, 7, 1, 2)
        assert (cond.jt, cond.jf) == (1, 2)

    def test_predicates(self):
        assert stmt(BPF_RET | BPF_K, 0).is_return
        assert jump(BPF_JMP | BPF_JEQ | BPF_K, 0, 0, 0).is_jump
        assert not stmt(BPF_LD | BPF_W | BPF_ABS, 0).is_jump

    def test_slotted(self):
        """About 45 000 instructions stay held in a suite: no instance dict."""
        insn = stmt(BPF_RET | BPF_K, 0)
        assert not hasattr(insn, "__dict__")
        with pytest.raises(AttributeError):
            insn.k = 1

    def test_mnemonics_cover_classes(self):
        assert "ld" in stmt(BPF_LD | BPF_W | BPF_ABS, 0).mnemonic()
        assert "ret" in stmt(BPF_RET | BPF_K, 5).mnemonic()
        assert "jeq" in jump(BPF_JMP | BPF_JEQ | BPF_K, 1, 0, 0).mnemonic()


class TestSeccompData:
    def test_pack_layout(self):
        data = SeccompData(nr=1, instruction_pointer=0xDEAD, args=(10, 20))
        raw = data.pack()
        assert len(raw) == SECCOMP_DATA_SIZE
        assert struct.unpack_from("<I", raw, NR_OFFSET)[0] == 1
        assert struct.unpack_from("<I", raw, ARCH_OFFSET)[0] == AUDIT_ARCH_X86_64
        assert struct.unpack_from("<Q", raw, args_off(0))[0] == 10
        assert struct.unpack_from("<Q", raw, args_off(1))[0] == 20

    def test_args_padded_to_six(self):
        assert SeccompData(nr=0, args=(1,)).args == (1, 0, 0, 0, 0, 0)

    def test_load_u32_low_high(self):
        value = 0x11223344AABBCCDD
        data = SeccompData(nr=0, args=(value,))
        assert data.load_u32(args_off(0)) == 0xAABBCCDD
        assert data.load_u32(args_off_high(0)) == 0x11223344

    def test_load_alignment(self):
        data = SeccompData(nr=0)
        with pytest.raises(ValueError):
            data.load_u32(2)

    def test_load_bounds(self):
        data = SeccompData(nr=0)
        with pytest.raises(ValueError):
            data.load_u32(SECCOMP_DATA_SIZE)

    def test_from_event(self):
        event = make_event("read", (3, 100), pc=0x42)
        data = SeccompData.from_event(event)
        assert data.nr == 0
        assert data.instruction_pointer == 0x42
        assert data.args[0] == 3

    def test_args_off_range(self):
        with pytest.raises(ValueError):
            args_off(6)


class TestProgramBuilder:
    def test_labels_resolve_forward(self):
        builder = ProgramBuilder()
        builder.ld_abs(0)
        builder.jeq(5, "match", 0)
        builder.ret_k(0)
        builder.label("match")
        builder.ret_k(1)
        program = builder.assemble()
        assert program[1].jt == 1  # skips the ret_k(0)

    def test_backward_jump_rejected(self):
        builder = ProgramBuilder()
        builder.label("start")
        builder.ld_abs(0)
        builder.jmp("start")
        with pytest.raises(BpfVerifyError):
            builder.assemble()

    def test_undefined_label(self):
        builder = ProgramBuilder()
        builder.jmp("nowhere")
        with pytest.raises(BpfVerifyError):
            builder.assemble()

    def test_duplicate_label(self):
        builder = ProgramBuilder()
        builder.label("a")
        with pytest.raises(BpfVerifyError):
            builder.label("a")

    def test_conditional_range_limit(self):
        builder = ProgramBuilder()
        builder.jeq(1, "far", 0)
        for _ in range(300):
            builder.ld_imm(0)
        builder.label("far")
        builder.ret_k(0)
        with pytest.raises(BpfVerifyError):
            builder.assemble()

    def test_ja_reaches_far(self):
        builder = ProgramBuilder()
        builder.jmp("far")
        for _ in range(300):
            builder.ld_imm(0)
        builder.label("far")
        builder.ret_k(0)
        program = builder.assemble()
        assert program[0].k == 300

    def test_and_k_emits_alu(self):
        builder = ProgramBuilder()
        builder.ld_abs(0)
        builder.and_k(0xFF)
        builder.ret_a()
        program = builder.assemble()
        from repro.bpf.insn import BPF_ALU

        assert bpf_class(program[1].code) == BPF_ALU

    def test_len(self):
        builder = ProgramBuilder()
        assert len(builder) == 0
        builder.ret_k(0)
        assert len(builder) == 1
