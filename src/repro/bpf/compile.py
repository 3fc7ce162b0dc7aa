"""Decode-once fast path for classic BPF filters.

The interpreter (:mod:`repro.bpf.interpreter`) decodes every instruction
on every execution and re-packs the 64-byte ``seccomp_data`` buffer for
each absolute load.  That is exactly the per-syscall work the paper's
caches exist to avoid, and the simulator pays it on every simulated
event.  This module applies Draco's validate-once discipline to the
simulator itself:

* :func:`compile_program` verifies a cBPF program **once** and decodes
  it into a flat table with one ``(op, k, jt, jf)`` row per
  instruction: the opcode is resolved to a small row code, absolute
  loads to a ``seccomp_data`` word index, and jump offsets and
  fall-throughs to absolute pcs.  :meth:`CompiledFilter.run_words` is
  a single loop over that table and a pre-built word vector.  It
  preserves the interpreter's return value, ``instructions_executed``
  count, 32-bit semantics and runtime errors (the differential tests
  in ``tests/test_bpf_compile.py`` are the contract).  Linux makes the
  same choice: it migrates a classic seccomp filter once, at attach
  time, into the internal form it executes.

* :func:`read_word_indices` statically computes which 32-bit words of
  ``seccomp_data`` a program can observe.  :func:`build_key_fn` turns the
  union of those words into a memo key — the software analogue of the
  paper's Selector-masked argument bytes (Figure 5): two syscalls whose
  observable words agree are guaranteed the same filter result, so the
  engine can serve the cached decision.

The interpreter stays the reference: the differential tests compare the
table with it on random and bundled programs.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Sequence, Set, Tuple

from repro.bpf.insn import (
    BPF_A,
    BPF_ABS,
    BPF_ADD,
    BPF_AND,
    BPF_DIV,
    BPF_IMM,
    BPF_JA,
    BPF_JEQ,
    BPF_JGE,
    BPF_JGT,
    BPF_JMP,
    BPF_JSET,
    BPF_LD,
    BPF_LDX,
    BPF_LSH,
    BPF_MAXINSNS,
    BPF_MEM,
    BPF_MEMWORDS,
    BPF_MISC,
    BPF_MOD,
    BPF_MUL,
    BPF_OR,
    BPF_RET,
    BPF_RSH,
    BPF_ST,
    BPF_STX,
    BPF_SUB,
    BPF_TAX,
    BPF_XOR,
    Insn,
    U32_MASK,
    bpf_class,
    bpf_mode,
    bpf_op,
    bpf_rval,
    bpf_src,
)
from repro.bpf.interpreter import ExecResult
from repro.bpf.seccomp_data import SeccompData
from repro.bpf.verifier import verify
from repro.common.errors import BpfRuntimeError
from repro.syscalls.abi import AUDIT_ARCH_X86_64

#: Bump on any change to filter-execution semantics or memo-key layout;
#: the experiment result cache folds this into its digests so stale
#: cached results are invalidated when the compiler changes.
COMPILER_VERSION = 1

_M64 = 0xFFFFFFFFFFFFFFFF

#: seccomp_data as sixteen 32-bit words (little-endian layout).
WORD_NR = 0
WORD_ARCH = 1
WORD_IP_LO = 2
WORD_IP_HI = 3
WORD_ARGS = 4  # args[i] occupies words (4 + 2i, 5 + 2i)
NUM_WORDS = 16

#: Row codes of the decoded table.  :meth:`CompiledFilter.run_words`
#: tests them in this order, most frequent first: on a cold suite's
#: filter executions JEQ-K and LD-ABS are 46% of rows each, then
#: JGE-K, JA and RET-K, and no other row code ran there.
#: A jump row holds its two targets in ``jt``/``jf`` (``JA`` in ``jt``);
#: every other row that does not return holds the next pc in ``jt``.
(
    _JEQ_K,
    _LD_ABS,
    _JGE_K,
    _JA,
    _RET_K,
    _AND_K,
    _JGT_K,
    _JSET_K,
    _RET_A,
    _JEQ_X,
    _JGT_X,
    _JGE_X,
    _JSET_X,
    _LD_IMM,
    _LD_MEM,
    _LDX_IMM,
    _LDX_MEM,
    _ST,
    _STX,
    _TAX,
    _TXA,
    _ALU_K,  # jf holds the BPF ALU op
    _ALU_X,  # jf holds the BPF ALU op
) = range(23)

_JUMP_ROWS = {
    BPF_JEQ: (_JEQ_K, _JEQ_X),
    BPF_JGT: (_JGT_K, _JGT_X),
    BPF_JGE: (_JGE_K, _JGE_X),
    BPF_JSET: (_JSET_K, _JSET_X),
}


def words_of(data: SeccompData) -> Tuple[int, ...]:
    """The sixteen 32-bit words a BPF_LD|BPF_ABS can read, in order."""
    a = data.args
    ip = data.instruction_pointer & _M64
    return (
        data.nr & U32_MASK,
        data.arch & U32_MASK,
        ip & U32_MASK,
        ip >> 32,
        a[0] & U32_MASK,
        a[0] >> 32,
        a[1] & U32_MASK,
        a[1] >> 32,
        a[2] & U32_MASK,
        a[2] >> 32,
        a[3] & U32_MASK,
        a[3] >> 32,
        a[4] & U32_MASK,
        a[4] >> 32,
        a[5] & U32_MASK,
        a[5] >> 32,
    )


def event_words(event, arch: int = AUDIT_ARCH_X86_64) -> Tuple[int, ...]:
    """:func:`words_of` built straight from a :class:`SyscallEvent`,
    matching ``SeccompData.from_event`` semantics without constructing
    the intermediate dataclass (this sits on the engine's miss path)."""
    ip = event.pc & _M64
    words = [event.sid & U32_MASK, arch & U32_MASK, ip & U32_MASK, ip >> 32]
    args = event.args
    for index in range(6):
        value = (args[index] if index < len(args) else 0) & _M64
        words.append(value & U32_MASK)
        words.append(value >> 32)
    return tuple(words)


def read_word_indices(program: Sequence[Insn]) -> FrozenSet[int]:
    """Word indices of ``seccomp_data`` the program can observe."""
    indices: Set[int] = set()
    for insn in program:
        if bpf_class(insn.code) == BPF_LD and bpf_mode(insn.code) == BPF_ABS:
            indices.add(insn.k // 4)
    return frozenset(indices)


def build_key_fn(indices: FrozenSet[int]) -> Callable:
    """A memo-key function over the observable words in *indices*.

    The returned callable maps a :class:`SyscallEvent` to a hashable key
    that fully determines every ``seccomp_data`` word in *indices* (plus
    the SID, so distinct syscalls never share an entry; the arch word is
    a per-run constant and carries no information).  Events that agree
    on the key are guaranteed identical filter results — the simulator
    analogue of matching on Selector-masked argument bytes.
    """
    components: List[str] = ["e.sid"]
    needs_args = False
    if WORD_IP_LO in indices or WORD_IP_HI in indices:
        components.append("e.pc & 18446744073709551615")
    for arg in range(6):
        low = WORD_ARGS + 2 * arg in indices
        high = WORD_ARGS + 2 * arg + 1 in indices
        if low or high:
            needs_args = True
        if low and high:
            components.append(f"a[{arg}] & 18446744073709551615")
        elif low:
            components.append(f"a[{arg}] & 4294967295")
        elif high:
            components.append(f"(a[{arg}] & 18446744073709551615) >> 32")
    body = "    a = e.args + _pad\n" if needs_args else ""
    if len(components) == 1:
        retline = f"    return {components[0]}\n"
    else:
        retline = f"    return ({', '.join(components)})\n"
    source = f"def _key(e, _pad=(0, 0, 0, 0, 0, 0)):\n{body}{retline}"
    namespace: dict = {}
    exec(compile(source, "<bpf-memo-key>", "exec"), namespace)  # noqa: S102
    fn = namespace["_key"]
    fn.__source__ = source
    return fn


Row = Tuple[int, int, int, int]


class CompiledFilter:
    """One verified cBPF program, decoded into a table of rows."""

    __slots__ = ("program", "read_words", "table")

    def __init__(
        self,
        program: Tuple[Insn, ...],
        read_words: FrozenSet[int],
        table: Tuple[Row, ...],
    ) -> None:
        self.program = program
        self.read_words = read_words
        self.table = table

    def __len__(self) -> int:
        return len(self.program)

    def run_words(self, words: Sequence[int]) -> Tuple[int, int]:
        """Execute over a pre-built word vector (the engine's hot path).

        Returns ``(return_value, instructions_executed)``.
        """
        table = self.table
        A = X = pc = executed = 0
        mem = None  # scratch words, allocated by the first store
        while True:
            op, k, jt, jf = table[pc]
            executed += 1
            if op == _JEQ_K:
                pc = jt if A == k else jf
            elif op == _LD_ABS:
                A = words[k]
                pc = jt
            elif op == _JGE_K:
                pc = jt if A >= k else jf
            elif op == _JA:
                pc = jt
            elif op == _RET_K:
                return k, executed
            elif op == _AND_K:
                A &= k
                pc = jt
            elif op == _JGT_K:
                pc = jt if A > k else jf
            elif op == _JSET_K:
                pc = jt if A & k else jf
            elif op == _RET_A:
                return A, executed
            elif op == _JEQ_X:
                pc = jt if A == X else jf
            elif op == _JGT_X:
                pc = jt if A > X else jf
            elif op == _JGE_X:
                pc = jt if A >= X else jf
            elif op == _JSET_X:
                pc = jt if A & X else jf
            else:
                if op == _LD_IMM:
                    A = k
                elif op == _LD_MEM:
                    A = mem[k] if mem else 0
                elif op == _LDX_IMM:
                    X = k
                elif op == _LDX_MEM:
                    X = mem[k] if mem else 0
                elif op == _ST or op == _STX:
                    if mem is None:
                        mem = [0] * BPF_MEMWORDS
                    mem[k] = A if op == _ST else X
                elif op == _TAX:
                    X = A
                elif op == _TXA:
                    A = X
                elif op == _ALU_K:
                    A = _alu(jf, A, k, pc)
                else:  # _ALU_X
                    A = _alu(jf, A, X, pc)
                pc = jt

    def run(self, data: SeccompData) -> ExecResult:
        """Drop-in replacement for :func:`repro.bpf.interpreter.run`."""
        return ExecResult(*self.run_words(words_of(data)))


def _alu(op: int, a: int, operand: int, pc: int) -> int:
    """One ALU operation on the 32-bit accumulator."""
    if op == BPF_ADD:
        return (a + operand) & U32_MASK
    if op == BPF_SUB:
        return (a - operand) & U32_MASK
    if op == BPF_MUL:
        return (a * operand) & U32_MASK
    if op == BPF_DIV or op == BPF_MOD:
        if operand == 0:
            word = "division" if op == BPF_DIV else "modulo"
            raise BpfRuntimeError(f"{word} by zero at pc={pc}")
        return (a // operand if op == BPF_DIV else a % operand) & U32_MASK
    if op == BPF_AND:
        return a & operand
    if op == BPF_OR:
        return a | operand
    if op == BPF_XOR:
        return a ^ operand
    if op == BPF_LSH:
        return (a << operand) & U32_MASK if operand < 32 else 0
    if op == BPF_RSH:
        return a >> operand if operand < 32 else 0
    return (-a) & U32_MASK  # BPF_NEG: the verifier admits no other op


#: Every pc of a program up to ``BPF_MAXINSNS`` long, and one past its
#: end, as one shared int each: rows take their next pc and jump
#: targets from here rather than allocating an int per row.  The
#: verifier bounds every target by the program's length.
_PCS = tuple(range(BPF_MAXINSNS + 1))


def _decode(insn: Insn, pc: int) -> Row:
    """The table row for the verified instruction at *pc*."""
    code, k = insn.code, insn.k
    cls = bpf_class(code)
    nxt = _PCS[pc + 1]
    if cls == BPF_JMP:
        op = bpf_op(code)
        if op == BPF_JA:
            return (_JA, 0, _PCS[nxt + k], 0)
        row_k, row_x = _JUMP_ROWS[op]
        return (row_x if bpf_src(code) else row_k, k, _PCS[nxt + insn.jt], _PCS[nxt + insn.jf])
    if cls == BPF_RET:
        return (_RET_A, 0, 0, 0) if bpf_rval(code) == BPF_A else (_RET_K, k, 0, 0)
    if cls == BPF_LD:
        mode = bpf_mode(code)
        if mode == BPF_ABS:
            return (_LD_ABS, k // 4, nxt, 0)
        return (_LD_MEM if mode == BPF_MEM else _LD_IMM, k, nxt, 0)
    if cls == BPF_LDX:  # the verifier admits IMM and MEM only
        return (_LDX_IMM if bpf_mode(code) == BPF_IMM else _LDX_MEM, k, nxt, 0)
    if cls == BPF_ST:
        return (_ST, k, nxt, 0)
    if cls == BPF_STX:
        return (_STX, k, nxt, 0)
    if cls == BPF_MISC:
        return (_TAX if bpf_op(code) == BPF_TAX else _TXA, 0, nxt, 0)
    op = bpf_op(code)  # BPF_ALU
    if bpf_src(code):
        return (_ALU_X, 0, nxt, op)
    if op == BPF_AND:
        return (_AND_K, k, nxt, 0)
    return (_ALU_K, k, nxt, op)


def compile_program(program: Sequence[Insn]) -> CompiledFilter:
    """Verify a cBPF program and decode it into a table.

    Results are memoized per program: regimes attach the same profile
    programs over and over (every evaluation builds fresh kernel
    modules).  Compiled filters are immutable, so sharing one instance
    across modules is safe.
    """
    program = tuple(program)
    cached = _COMPILE_CACHE.get(program)
    if cached is not None:
        return cached
    verify(program)
    compiled = CompiledFilter(
        program=program,
        read_words=read_word_indices(program),
        table=tuple(_decode(insn, pc) for pc, insn in enumerate(program)),
    )
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
        # Generated test programs could otherwise accumulate forever.
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[program] = compiled
    return compiled


_COMPILE_CACHE: dict = {}
_COMPILE_CACHE_LIMIT = 4096
