"""Static checker for classic BPF programs.

Mirrors the kernel's ``bpf_check_classic`` constraints for seccomp
filters: bounded length, forward-only jumps that stay in range, valid
scratch-memory indices, aligned in-bounds ``seccomp_data`` loads, ``ldx``
from an immediate or scratch word only, a terminating return on every
straight-line suffix, and division by a non-zero constant.  A program
that passes can fault at run time only on division or modulo by a zero
``X``.
"""

from __future__ import annotations

from typing import Sequence

from repro.bpf.insn import (
    BPF_ABS,
    BPF_ALU,
    BPF_DIV,
    BPF_IMM,
    BPF_JA,
    BPF_JEQ,
    BPF_JGE,
    BPF_JGT,
    BPF_JMP,
    BPF_JSET,
    BPF_K,
    BPF_LD,
    BPF_LDX,
    BPF_MAXINSNS,
    BPF_MEM,
    BPF_MEMWORDS,
    BPF_MISC,
    BPF_MOD,
    BPF_RET,
    BPF_ST,
    BPF_STX,
    BPF_W,
    Insn,
    bpf_class,
    bpf_mode,
    bpf_op,
    bpf_size,
    bpf_src,
)
from repro.bpf.seccomp_data import SECCOMP_DATA_SIZE
from repro.common.errors import BpfVerifyError

_VALID_ALU_OPS = frozenset(
    {0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xA0}
)
_VALID_JMP_OPS = frozenset({BPF_JA, BPF_JEQ, BPF_JGT, BPF_JGE, BPF_JSET})


def verify(program: Sequence[Insn]) -> None:
    """Raise :class:`BpfVerifyError` unless *program* is a legal filter."""
    n = len(program)
    if n == 0:
        raise BpfVerifyError("empty program")
    if n > BPF_MAXINSNS:
        raise BpfVerifyError(f"program too long: {n} > {BPF_MAXINSNS}")

    for pc, insn in enumerate(program):
        cls = bpf_class(insn.code)
        if cls == BPF_JMP:
            _check_jump(program, pc, insn)
        elif cls in (BPF_LD, BPF_LDX):
            _check_load(pc, insn)
        elif cls in (BPF_ST, BPF_STX):
            if insn.k >= BPF_MEMWORDS:
                raise BpfVerifyError(f"store to invalid scratch word at {pc}")
        elif cls == BPF_ALU:
            op = bpf_op(insn.code)
            if op not in _VALID_ALU_OPS:
                raise BpfVerifyError(f"invalid ALU op at {pc}")
            if op in (BPF_DIV, BPF_MOD) and bpf_src(insn.code) == BPF_K and insn.k == 0:
                raise BpfVerifyError(f"division by zero constant at {pc}")
        elif cls == BPF_RET:
            continue
        elif cls == BPF_MISC:
            continue
        else:  # pragma: no cover - unreachable given 3-bit class
            raise BpfVerifyError(f"unknown instruction class at {pc}")

    if bpf_class(program[-1].code) != BPF_RET:
        raise BpfVerifyError("program must end with a return")
    _check_all_paths_return(program)


def _check_jump(program: Sequence[Insn], pc: int, insn: Insn) -> None:
    n = len(program)
    op = bpf_op(insn.code)
    if op not in _VALID_JMP_OPS:
        raise BpfVerifyError(f"invalid jump op at {pc}")
    if op == BPF_JA:
        # ja offset lives in k and may be large, but must land in range.
        if pc + 1 + insn.k >= n:
            raise BpfVerifyError(f"ja target out of range at {pc}")
    else:
        if pc + 1 + insn.jt >= n or pc + 1 + insn.jf >= n:
            raise BpfVerifyError(f"conditional jump target out of range at {pc}")


def _check_load(pc: int, insn: Insn) -> None:
    mode = bpf_mode(insn.code)
    if bpf_class(insn.code) == BPF_LDX and mode not in (BPF_IMM, BPF_MEM):
        # bpf_check_classic admits ldx only as IMM, MEM, LEN and MSH,
        # and seccomp rejects the last two: there is no ``ldx [k]``.
        raise BpfVerifyError(f"unsupported ldx mode for seccomp at {pc}")
    if mode == BPF_ABS:
        if bpf_size(insn.code) != BPF_W:
            raise BpfVerifyError(f"seccomp loads must be 32-bit words at {pc}")
        if insn.k % 4 != 0 or not 0 <= insn.k <= SECCOMP_DATA_SIZE - 4:
            raise BpfVerifyError(f"seccomp_data load out of range at {pc}")
    elif mode == BPF_MEM:
        if insn.k >= BPF_MEMWORDS:
            raise BpfVerifyError(f"load from invalid scratch word at {pc}")
    elif mode == BPF_IMM:
        return
    else:
        raise BpfVerifyError(f"unsupported load mode for seccomp at {pc}")


def _check_all_paths_return(program: Sequence[Insn]) -> None:
    """Every reachable path must terminate at a RET.

    Because all jumps are forward, a single reverse pass suffices: an
    instruction "reaches a return" if it is a RET, or if every successor
    reaches a return.
    """
    n = len(program)
    terminates = [False] * n
    for pc in range(n - 1, -1, -1):
        insn = program[pc]
        cls = bpf_class(insn.code)
        if cls == BPF_RET:
            terminates[pc] = True
        elif cls == BPF_JMP:
            op = bpf_op(insn.code)
            if op == BPF_JA:
                terminates[pc] = terminates[pc + 1 + insn.k]
            else:
                terminates[pc] = (
                    terminates[pc + 1 + insn.jt] and terminates[pc + 1 + insn.jf]
                )
        else:
            if pc + 1 >= n:
                raise BpfVerifyError("fall-through past end of program")
            terminates[pc] = terminates[pc + 1]
    if not terminates[0]:
        raise BpfVerifyError("not all paths return")
