"""Classic BPF (cBPF) instruction definitions.

Seccomp filters are cBPF programs (Section II-B of the paper): 8-byte
instructions ``(code, jt, jf, k)`` interpreted over a read-only
``seccomp_data`` buffer.  This module defines the opcode space exactly as
``<linux/filter.h>`` does, so programs assembled here correspond
one-to-one with real kernel filters.
"""

from __future__ import annotations

from dataclasses import dataclass

# --- Instruction classes (low 3 bits of code) -------------------------------
BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_RET = 0x06
BPF_MISC = 0x07

# --- Size field (ld/ldx) -----------------------------------------------------
BPF_W = 0x00  # 32-bit word
BPF_H = 0x08  # 16-bit halfword
BPF_B = 0x10  # byte

# --- Mode field (ld/ldx) -----------------------------------------------------
BPF_IMM = 0x00
BPF_ABS = 0x20
BPF_IND = 0x40
BPF_MEM = 0x60
BPF_LEN = 0x80
BPF_MSH = 0xA0

# --- ALU/JMP op field --------------------------------------------------------
BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_OR = 0x40
BPF_AND = 0x50
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_NEG = 0x80
BPF_MOD = 0x90
BPF_XOR = 0xA0

BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40

# --- Source field ------------------------------------------------------------
BPF_K = 0x00
BPF_X = 0x08

# --- RET rval field ----------------------------------------------------------
BPF_A = 0x10

# --- MISC ops ----------------------------------------------------------------
BPF_TAX = 0x00
BPF_TXA = 0x80

#: Kernel limit on classic BPF program length (BPF_MAXINSNS).
BPF_MAXINSNS = 4096

#: Number of scratch memory words (BPF_MEMWORDS).
BPF_MEMWORDS = 16

U32_MASK = 0xFFFFFFFF


def bpf_class(code: int) -> int:
    return code & 0x07


def bpf_size(code: int) -> int:
    return code & 0x18


def bpf_mode(code: int) -> int:
    return code & 0xE0


def bpf_op(code: int) -> int:
    return code & 0xF0


def bpf_src(code: int) -> int:
    return code & 0x08


def bpf_rval(code: int) -> int:
    return code & 0x18


@dataclass(frozen=True, slots=True)
class Insn:
    """One classic BPF instruction: ``(code, jt, jf, k)``."""

    code: int
    jt: int = 0
    jf: int = 0
    k: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.code <= 0xFFFF:
            raise ValueError("code must fit in 16 bits")
        if not 0 <= self.jt <= 0xFF or not 0 <= self.jf <= 0xFF:
            raise ValueError("jump offsets must fit in 8 bits")
        if not 0 <= self.k <= U32_MASK:
            raise ValueError("k must fit in 32 bits")

    @property
    def is_return(self) -> bool:
        return bpf_class(self.code) == BPF_RET

    @property
    def is_jump(self) -> bool:
        return bpf_class(self.code) == BPF_JMP

    def mnemonic(self) -> str:
        """Human-readable disassembly, for debugging and docs."""
        cls = bpf_class(self.code)
        if cls == BPF_LD:
            return f"ld [{self.k:#x}]" if bpf_mode(self.code) == BPF_ABS else f"ld #{self.k:#x}"
        if cls == BPF_LDX:
            return f"ldx #{self.k:#x}"
        if cls == BPF_ST:
            return f"st M[{self.k}]"
        if cls == BPF_STX:
            return f"stx M[{self.k}]"
        if cls == BPF_RET:
            src = "A" if bpf_rval(self.code) == BPF_A else f"#{self.k:#x}"
            return f"ret {src}"
        if cls == BPF_MISC:
            return "tax" if bpf_op(self.code) == BPF_TAX else "txa"
        if cls == BPF_JMP:
            names = {BPF_JA: "ja", BPF_JEQ: "jeq", BPF_JGT: "jgt", BPF_JGE: "jge", BPF_JSET: "jset"}
            name = names.get(bpf_op(self.code), f"jmp{bpf_op(self.code):#x}")
            if bpf_op(self.code) == BPF_JA:
                return f"ja +{self.k}"
            src = "x" if bpf_src(self.code) == BPF_X else f"#{self.k:#x}"
            return f"{name} {src}, jt={self.jt}, jf={self.jf}"
        if cls == BPF_ALU:
            names = {
                BPF_ADD: "add", BPF_SUB: "sub", BPF_MUL: "mul", BPF_DIV: "div",
                BPF_OR: "or", BPF_AND: "and", BPF_LSH: "lsh", BPF_RSH: "rsh",
                BPF_NEG: "neg", BPF_MOD: "mod", BPF_XOR: "xor",
            }
            name = names.get(bpf_op(self.code), f"alu{bpf_op(self.code):#x}")
            if bpf_op(self.code) == BPF_NEG:
                return "neg"
            src = "x" if bpf_src(self.code) == BPF_X else f"#{self.k:#x}"
            return f"{name} {src}"
        return f".insn {self.code:#x}"


def stmt(code: int, k: int = 0) -> Insn:
    """BPF_STMT equivalent."""
    return Insn(code=code, k=k)


def jump(code: int, k: int, jt: int, jf: int) -> Insn:
    """BPF_JUMP equivalent."""
    return Insn(code=code, jt=jt, jf=jf, k=k)
