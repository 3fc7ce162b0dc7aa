"""Abstract interpretation of cBPF filters with unknown arguments.

Linux 5.11's seccomp *action cache* — the upstream feature this paper
inspired — needs to know, per syscall number, whether a filter's result
depends on the argument values.  The kernel answers that by emulating
the filter with the ``nr`` and ``arch`` fields pinned and every
argument load producing "unknown" (``seccomp_cache_prepare``).

This module implements that emulation: a small abstract interpreter
over the domain ``Known(value) | Unknown``.  Branches on Unknown fork
both paths; the filter is *argument-independent for nr* iff every
reachable path returns the same action.

:func:`possible_returns` and :func:`constant_action_for` run it for one
``nr``.  :func:`constant_actions` answers the same question for a whole
table of syscall numbers in one forward pass over the filter, with the
exact per-number results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bpf.insn import (
    BPF_ABS,
    BPF_ALU,
    BPF_IMM,
    BPF_JA,
    BPF_JEQ,
    BPF_JGE,
    BPF_JGT,
    BPF_JMP,
    BPF_JSET,
    BPF_LD,
    BPF_LDX,
    BPF_MEM,
    BPF_MEMWORDS,
    BPF_MISC,
    BPF_RET,
    BPF_ST,
    BPF_STX,
    BPF_TAX,
    U32_MASK,
    Insn,
    bpf_class,
    bpf_mode,
    bpf_op,
    bpf_rval,
    bpf_src,
)
from repro.bpf.seccomp_data import ARCH_OFFSET, NR_OFFSET
from repro.common.errors import BpfError
from repro.syscalls.abi import AUDIT_ARCH_X86_64

#: The abstract "unknown 32-bit word" value.
UNKNOWN = None

AbstractValue = Optional[int]  # int -> known constant; None -> unknown

#: Safety bound on explored abstract states (forking is exponential in
#: the worst case; seccomp filters are small and fork rarely).
MAX_STATES = 100_000


class AbstractionLimitExceeded(BpfError):
    """The filter forked more states than the analysis budget allows."""


@dataclass(frozen=True)
class _State:
    pc: int
    acc: AbstractValue
    idx: AbstractValue
    mem: Tuple[AbstractValue, ...]


def _alu_abstract(op_code: int, acc: AbstractValue, operand: AbstractValue) -> AbstractValue:
    from repro.bpf.insn import (
        BPF_ADD, BPF_AND, BPF_DIV, BPF_LSH, BPF_MOD, BPF_MUL, BPF_NEG,
        BPF_OR, BPF_RSH, BPF_SUB, BPF_XOR,
    )

    op = op_code & 0xF0
    if op == BPF_NEG:
        return (-acc) & U32_MASK if acc is not None else UNKNOWN
    if acc is None or operand is None:
        # Two special absorbing cases keep precision where the kernel
        # needs it: x & 0 == 0 and x * 0 == 0.
        if op == BPF_AND and (acc == 0 or operand == 0):
            return 0
        if op == BPF_MUL and (acc == 0 or operand == 0):
            return 0
        return UNKNOWN
    if op == BPF_ADD:
        return (acc + operand) & U32_MASK
    if op == BPF_SUB:
        return (acc - operand) & U32_MASK
    if op == BPF_MUL:
        return (acc * operand) & U32_MASK
    if op == BPF_DIV:
        return (acc // operand) & U32_MASK if operand else UNKNOWN
    if op == BPF_MOD:
        return (acc % operand) & U32_MASK if operand else UNKNOWN
    if op == BPF_AND:
        return acc & operand
    if op == BPF_OR:
        return (acc | operand) & U32_MASK
    if op == BPF_XOR:
        return (acc ^ operand) & U32_MASK
    if op == BPF_LSH:
        return (acc << operand) & U32_MASK if operand < 32 else 0
    if op == BPF_RSH:
        return acc >> operand if operand < 32 else 0
    raise BpfError(f"unknown ALU op {op:#x}")


def possible_returns(
    program: Sequence[Insn],
    nr: int,
    arch: int = AUDIT_ARCH_X86_64,
    max_states: int = MAX_STATES,
) -> FrozenSet[int]:
    """All return values the filter can produce for syscall *nr* over
    any argument values (and any instruction pointer)."""
    initial = _State(pc=0, acc=0, idx=0, mem=(0,) * BPF_MEMWORDS)
    stack: List[_State] = [initial]
    seen: Set[_State] = set()
    results: Set[int] = set()
    explored = 0

    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        explored += 1
        if explored > max_states:
            raise AbstractionLimitExceeded(
                f"exceeded {max_states} abstract states for nr={nr}"
            )
        insn = program[state.pc]
        cls = bpf_class(insn.code)

        if cls == BPF_RET:
            if bpf_rval(insn.code) & 0x18 == 0x10:  # BPF_A
                if state.acc is None:
                    # Data-dependent return value: approximate with a
                    # sentinel that never equals a real action.
                    results.add(-1)
                else:
                    results.add(state.acc)
            else:
                results.add(insn.k & U32_MASK)
            continue

        acc, idx, mem = state.acc, state.idx, list(state.mem)
        next_pcs: List[int] = [state.pc + 1]

        if cls == BPF_LD:
            mode = bpf_mode(insn.code)
            if mode == BPF_ABS:
                if insn.k == NR_OFFSET:
                    acc = nr & U32_MASK
                elif insn.k == ARCH_OFFSET:
                    acc = arch & U32_MASK
                else:
                    acc = UNKNOWN  # argument or instruction-pointer word
            elif mode == BPF_IMM:
                acc = insn.k & U32_MASK
            elif mode == BPF_MEM:
                acc = mem[insn.k]
        elif cls == BPF_LDX:
            mode = bpf_mode(insn.code)
            if mode == BPF_IMM:
                idx = insn.k & U32_MASK
            elif mode == BPF_MEM:
                idx = mem[insn.k]
            else:
                idx = UNKNOWN
        elif cls == BPF_ST:
            mem[insn.k] = acc
        elif cls == BPF_STX:
            mem[insn.k] = idx
        elif cls == BPF_ALU:
            operand = idx if bpf_src(insn.code) else insn.k & U32_MASK
            acc = _alu_abstract(insn.code, acc, operand)
        elif cls == BPF_MISC:
            if bpf_op(insn.code) == BPF_TAX:
                idx = acc
            else:
                acc = idx
        elif cls == BPF_JMP:
            op = bpf_op(insn.code)
            if op == BPF_JA:
                next_pcs = [state.pc + 1 + insn.k]
            else:
                operand = idx if bpf_src(insn.code) else insn.k & U32_MASK
                if acc is None or operand is None:
                    taken: Optional[bool] = None
                elif op == BPF_JEQ:
                    taken = acc == operand
                elif op == BPF_JGT:
                    taken = acc > operand
                elif op == BPF_JGE:
                    taken = acc >= operand
                elif op == BPF_JSET:
                    taken = bool(acc & operand)
                else:
                    raise BpfError("unknown jump op")
                if taken is None:
                    next_pcs = [state.pc + 1 + insn.jt, state.pc + 1 + insn.jf]
                elif taken:
                    next_pcs = [state.pc + 1 + insn.jt]
                else:
                    next_pcs = [state.pc + 1 + insn.jf]

        for pc in next_pcs:
            stack.append(_State(pc=pc, acc=acc, idx=idx, mem=tuple(mem)))
    return frozenset(results)


def constant_action_for(
    program: Sequence[Insn], nr: int, arch: int = AUDIT_ARCH_X86_64
) -> Optional[int]:
    """The single return value the filter produces for *nr* regardless
    of arguments — or None if the result is argument-dependent."""
    return _single(possible_returns(program, nr, arch))


def _single(returns: FrozenSet[int]) -> Optional[int]:
    if len(returns) == 1:
        (value,) = returns
        return value if value >= 0 else None
    return None


#: The batched pass's symbolic value "this state's syscall number".
_NR = "nr"


def _jump_taken(op: int, acc: int, operand: int) -> bool:
    if op == BPF_JEQ:
        return acc == operand
    if op == BPF_JGT:
        return acc > operand
    if op == BPF_JGE:
        return acc >= operand
    if op == BPF_JSET:
        return bool(acc & operand)
    raise BpfError("unknown jump op")


def constant_actions(
    program: Sequence[Insn],
    nrs: Iterable[int],
    arch: int = AUDIT_ARCH_X86_64,
    max_states: int = MAX_STATES,
) -> Dict[int, Optional[int]]:
    """``{nr: constant_action_for(program, nr, arch)}`` for every number
    in *nrs*, computed in one forward pass over *program*.

    Every cBPF jump goes forward, so the pass visits pcs in increasing
    order and merges the states reaching a pc on ``(A, X, M[])``; each
    state carries the set of syscall numbers that reach it.  ``nr``
    stays symbolic while it is only loaded, moved, stored or compared:
    a comparison splits the set by outcome, an ALU op on ``nr`` splits
    it by result value.  Every number therefore gets exactly the
    per-number semantics.

    A filter whose pass exceeds *max_states* merged states (or that the
    verifier would reject) is handed to the per-number loop, which
    raises :class:`AbstractionLimitExceeded` for exactly the filters it
    rejects on its own.
    """
    nrs = tuple(nrs)
    try:
        returns = _returns_by_nr(
            program, {nr & U32_MASK for nr in nrs}, arch & U32_MASK, max_states
        )
    except (BpfError, IndexError):
        returns = {
            nr & U32_MASK: possible_returns(program, nr, arch, max_states) for nr in nrs
        }
    return {nr: _single(returns[nr & U32_MASK]) for nr in nrs}


def _returns_by_nr(
    program: Sequence[Insn], nrs: Set[int], arch: int, max_states: int
) -> Dict[int, FrozenSet[int]]:
    """The forward pass of :func:`constant_actions`: every return value
    each (masked) number in *nrs* can reach."""
    results: Dict[int, Set[int]] = {nr: set() for nr in nrs}
    #: pc -> {(A, X, M[]): numbers reaching that state}
    pending: Dict[int, Dict[tuple, FrozenSet[int]]] = {
        0: {(0, 0, (0,) * BPF_MEMWORDS): frozenset(nrs)}
    }
    explored = 0

    def push(pc: int, acc, idx, mem, group: FrozenSet[int]) -> None:
        states = pending.setdefault(pc, {})
        key = (acc, idx, mem)
        prior = states.get(key)
        states[key] = group if prior is None else prior | group

    for pc, insn in enumerate(program):
        states = pending.pop(pc, None)
        if states is None:
            continue
        explored += len(states)
        if explored > max_states:
            raise AbstractionLimitExceeded(
                f"exceeded {max_states} merged abstract states"
            )
        code, k = insn.code, insn.k
        cls = bpf_class(code)
        for (acc, idx, mem), group in states.items():
            if cls == BPF_RET:
                if bpf_rval(code) & 0x18 == 0x10:  # BPF_A
                    if acc is _NR:
                        for nr in group:
                            results[nr].add(nr)
                        continue
                    value = -1 if acc is None else acc
                else:
                    value = k & U32_MASK
                for nr in group:
                    results[nr].add(value)
            elif cls == BPF_JMP:
                op = bpf_op(code)
                if op == BPF_JA:
                    push(pc + 1 + k, acc, idx, mem, group)
                    continue
                operand = idx if bpf_src(code) else k & U32_MASK
                taken_pc, other_pc = pc + 1 + insn.jt, pc + 1 + insn.jf
                if acc is None or operand is None:
                    push(taken_pc, acc, idx, mem, group)
                    push(other_pc, acc, idx, mem, group)
                elif acc is _NR or operand is _NR:
                    taken = frozenset(
                        nr
                        for nr in group
                        if _jump_taken(
                            op,
                            nr if acc is _NR else acc,
                            nr if operand is _NR else operand,
                        )
                    )
                    if taken:
                        push(taken_pc, acc, idx, mem, taken)
                    if len(taken) < len(group):
                        push(other_pc, acc, idx, mem, group - taken)
                else:
                    target = taken_pc if _jump_taken(op, acc, operand) else other_pc
                    push(target, acc, idx, mem, group)
            elif cls == BPF_ALU:
                operand = idx if bpf_src(code) else k & U32_MASK
                if acc is _NR or operand is _NR:
                    by_value: Dict[AbstractValue, List[int]] = {}
                    for nr in group:
                        value = _alu_abstract(
                            code,
                            nr if acc is _NR else acc,
                            nr if operand is _NR else operand,
                        )
                        by_value.setdefault(value, []).append(nr)
                    for value, members in by_value.items():
                        push(pc + 1, value, idx, mem, frozenset(members))
                else:
                    push(pc + 1, _alu_abstract(code, acc, operand), idx, mem, group)
            else:
                if cls == BPF_LD:
                    mode = bpf_mode(code)
                    if mode == BPF_ABS:
                        if k == NR_OFFSET:
                            acc = _NR
                        elif k == ARCH_OFFSET:
                            acc = arch
                        else:
                            acc = UNKNOWN  # argument or instruction-pointer word
                    elif mode == BPF_IMM:
                        acc = k & U32_MASK
                    elif mode == BPF_MEM:
                        acc = mem[k]
                elif cls == BPF_LDX:
                    mode = bpf_mode(code)
                    if mode == BPF_IMM:
                        idx = k & U32_MASK
                    elif mode == BPF_MEM:
                        idx = mem[k]
                    else:
                        idx = UNKNOWN
                elif cls in (BPF_ST, BPF_STX):
                    words = list(mem)
                    words[k] = acc if cls == BPF_ST else idx
                    mem = tuple(words)
                elif bpf_op(code) == BPF_TAX:  # BPF_MISC
                    idx = acc
                else:
                    acc = idx
                push(pc + 1, acc, idx, mem, group)
    if pending:
        raise IndexError("jump past the end of the program")
    return {nr: frozenset(values) for nr, values in results.items()}
