"""Compile-once fast path for classic BPF filters.

The interpreter (:mod:`repro.bpf.interpreter`) decodes every instruction
on every execution and re-packs the 64-byte ``seccomp_data`` buffer for
each absolute load.  That is exactly the per-syscall work the paper's
caches exist to avoid, and the simulator pays it on every simulated
event.  This module applies Draco's validate-once discipline to the
simulator itself:

* :func:`compile_program` translates a verified cBPF program **once**
  into specialized Python closures — one per straight-line segment, with
  opcode dispatch, constants, jump targets and ``seccomp_data`` offsets
  all resolved at compile time.  Execution is a trampoline over those
  closures and preserves the interpreter's exact ``instructions_executed``
  count and 32-bit semantics (the differential tests in
  ``tests/test_bpf_compile.py`` prove bit-identical results).

* :func:`read_word_indices` statically computes which 32-bit words of
  ``seccomp_data`` a program can observe.  :func:`build_key_fn` turns the
  union of those words into a memo key — the software analogue of the
  paper's Selector-masked argument bytes (Figure 5): two syscalls whose
  observable words agree are guaranteed the same filter result, so the
  engine can serve the cached decision.

``REPRO_FASTPATH=0`` disables the code generator (the interpreter and
the memo cache still run), which is how the benchmark harness measures
the speedup.

Generated filter sources are large enough that ``compile()`` itself is
a measurable per-process cost (every engine worker pays it afresh), so
the resulting code objects are also persisted in the on-disk context
cache (``contexts/bpf-code/``, see :mod:`repro.common.storage`) as
checksummed ``marshal`` payloads keyed by source hash and interpreter
magic — a warm process skips straight to ``exec``.
``REPRO_CONTEXT_CACHE=0`` disables that tier.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import sys
import types
from pathlib import Path
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.bpf.insn import (
    BPF_A,
    BPF_ABS,
    BPF_ADD,
    BPF_ALU,
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
from repro.common import storage, telemetry
from repro.common.errors import BpfRuntimeError
from repro.syscalls.abi import AUDIT_ARCH_X86_64

#: Bump on any change to generated-code semantics or memo-key layout;
#: the experiment result cache folds this into its digests so stale
#: cached results are invalidated when the compiler changes.
COMPILER_VERSION = 1

#: Environment variable: set to ``0``/``off`` to fall back to the
#: interpreter (decision memoization stays on).
FASTPATH_ENV = "REPRO_FASTPATH"

_M64 = 0xFFFFFFFFFFFFFFFF

#: seccomp_data as sixteen 32-bit words (little-endian layout).
WORD_NR = 0
WORD_ARCH = 1
WORD_IP_LO = 2
WORD_IP_HI = 3
WORD_ARGS = 4  # args[i] occupies words (4 + 2i, 5 + 2i)
NUM_WORDS = 16

#: State-vector layout for generated segment functions.
_ST_A = 0
_ST_X = 1
_ST_MEM = 2  # 16 scratch words at indices 2..17
_ST_RET = 18
_ST_COUNT = 19
_ST_SIZE = 20


def fastpath_enabled() -> bool:
    """True unless ``REPRO_FASTPATH`` disables the code generator."""
    return storage._truthy(FASTPATH_ENV)


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


class CompiledFilter:
    """One verified cBPF program, lowered to Python closures."""

    __slots__ = ("program", "read_words", "source", "_entry")

    def __init__(
        self,
        program: Tuple[Insn, ...],
        read_words: FrozenSet[int],
        source: str,
        entry: Callable,
    ) -> None:
        self.program = program
        self.read_words = read_words
        self.source = source
        self._entry = entry

    def __len__(self) -> int:
        return len(self.program)

    def run_words(self, words: Sequence[int]) -> ExecResult:
        """Execute over a pre-built word vector (the engine's hot path)."""
        state = [0] * _ST_SIZE
        fn: Optional[Callable] = self._entry
        while fn is not None:
            fn = fn(state, words)
        return ExecResult(
            return_value=state[_ST_RET], instructions_executed=state[_ST_COUNT]
        )

    def run(self, data: SeccompData) -> ExecResult:
        """Drop-in replacement for :func:`repro.bpf.interpreter.run`."""
        return self.run_words(words_of(data))


def _segment_starts(program: Sequence[Insn]) -> List[int]:
    """Leaders: entry, every jump target, and every post-terminator pc."""
    n = len(program)
    starts = {0}
    for pc, insn in enumerate(program):
        cls = bpf_class(insn.code)
        if cls == BPF_JMP:
            if bpf_op(insn.code) == BPF_JA:
                starts.add(pc + 1 + insn.k)
            else:
                starts.add(pc + 1 + insn.jt)
                starts.add(pc + 1 + insn.jf)
            if pc + 1 < n:
                starts.add(pc + 1)
        elif cls == BPF_RET and pc + 1 < n:
            starts.add(pc + 1)
    return sorted(starts)


def _operand(insn: Insn) -> str:
    return "X" if bpf_src(insn.code) else str(insn.k & U32_MASK)


def _emit_straight(insn: Insn, pc: int, lines: List[str]) -> None:
    """Source lines for one non-jump, non-ret instruction."""
    cls = bpf_class(insn.code)
    if cls == BPF_LD:
        mode = bpf_mode(insn.code)
        if mode == BPF_ABS:
            lines.append(f"A = w[{insn.k // 4}]")
        elif mode == BPF_IMM:
            lines.append(f"A = {insn.k & U32_MASK}")
        elif mode == BPF_MEM:
            lines.append(f"A = st[{_ST_MEM + insn.k}]")
        else:  # pragma: no cover - verifier rejects these
            raise BpfRuntimeError(f"unsupported load mode at pc={pc}")
    elif cls == BPF_LDX:
        mode = bpf_mode(insn.code)
        if mode == BPF_IMM:
            lines.append(f"X = {insn.k & U32_MASK}")
        elif mode == BPF_MEM:
            lines.append(f"X = st[{_ST_MEM + insn.k}]")
        else:  # pragma: no cover - verifier rejects these
            raise BpfRuntimeError(f"unsupported ldx mode at pc={pc}")
    elif cls == BPF_ST:
        lines.append(f"st[{_ST_MEM + insn.k}] = A")
    elif cls == BPF_STX:
        lines.append(f"st[{_ST_MEM + insn.k}] = X")
    elif cls == BPF_MISC:
        lines.append("X = A" if bpf_op(insn.code) == BPF_TAX else "A = X")
    elif cls == BPF_ALU:
        _emit_alu(insn, pc, lines)
    else:  # pragma: no cover - jumps/rets handled by the segment emitter
        raise BpfRuntimeError(f"unknown class at pc={pc}")


def _emit_alu(insn: Insn, pc: int, lines: List[str]) -> None:
    op = bpf_op(insn.code)
    operand = _operand(insn)
    from_x = bool(bpf_src(insn.code))
    if op == BPF_ADD:
        lines.append(f"A = (A + {operand}) & {U32_MASK}")
    elif op == BPF_SUB:
        lines.append(f"A = (A - {operand}) & {U32_MASK}")
    elif op == BPF_MUL:
        lines.append(f"A = (A * {operand}) & {U32_MASK}")
    elif op in (BPF_DIV, BPF_MOD):
        symbol = "//" if op == BPF_DIV else "%"
        word = "division" if op == BPF_DIV else "modulo"
        if from_x:
            lines.append(
                f"if X == 0: raise BpfRuntimeError('{word} by zero at pc={pc}')"
            )
        # The verifier rejects a zero constant divisor.
        lines.append(f"A = (A {symbol} {operand}) & {U32_MASK}")
    elif op == BPF_AND:
        lines.append(f"A = A & {operand}")
    elif op == BPF_OR:
        lines.append(f"A = (A | {operand}) & {U32_MASK}")
    elif op == BPF_XOR:
        lines.append(f"A = (A ^ {operand}) & {U32_MASK}")
    elif op == BPF_LSH:
        if from_x:
            lines.append(f"A = (A << X) & {U32_MASK} if X < 32 else 0")
        else:
            k = insn.k & U32_MASK
            lines.append(f"A = (A << {k}) & {U32_MASK}" if k < 32 else "A = 0")
    elif op == BPF_RSH:
        if from_x:
            lines.append("A = A >> X if X < 32 else 0")
        else:
            k = insn.k & U32_MASK
            lines.append(f"A = A >> {k}" if k < 32 else "A = 0")
    elif op == BPF_NEG:
        lines.append(f"A = (-A) & {U32_MASK}")
    else:  # pragma: no cover - verifier rejects these
        raise BpfRuntimeError(f"unknown ALU op at pc={pc}")


def _uses_register_x(program: Sequence[Insn]) -> bool:
    for insn in program:
        cls = bpf_class(insn.code)
        if cls in (BPF_LDX, BPF_STX, BPF_MISC):
            return True
        if cls in (BPF_ALU, BPF_JMP) and bpf_src(insn.code):
            return True
    return False


def compile_program(program: Sequence[Insn]) -> CompiledFilter:
    """Lower a cBPF program to specialized closures (verifies first).

    Compilation results are memoized per program: regimes attach the
    same profile programs over and over (every evaluation builds fresh
    kernel modules), and ``compile()`` of a large generated source costs
    more than a filter execution.  Compiled filters are immutable, so
    sharing one instance across modules is safe.
    """
    program = tuple(program)
    cached = _COMPILE_CACHE.get(program)
    if cached is not None:
        return cached
    compiled = _compile_program_uncached(program)
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
        # Generated test programs could otherwise accumulate forever.
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[program] = compiled
    return compiled


_COMPILE_CACHE: dict = {}
_COMPILE_CACHE_LIMIT = 4096

#: Code objects only load into the exact interpreter build that wrote
#: them; the tag partitions the on-disk tier per bytecode format.
_CODE_CACHE_TAG = (
    f"{sys.implementation.cache_tag or 'python'}-{importlib.util.MAGIC_NUMBER.hex()}"
)


def _code_cache_path(source: str) -> Path:
    digest = hashlib.sha256(source.encode()).hexdigest()[:24]
    return (
        storage.cache_root()
        / "contexts"
        / "bpf-code"
        / _CODE_CACHE_TAG
        / f"{digest}.bin"
    )


def _compile_filter_source(source: str) -> types.CodeType:
    """``compile()`` with a persistent code-object cache.

    The payload is ``sha256(marshal) + marshal``: the checksum rejects a
    torn or tampered entry before ``marshal.loads`` (which is not
    hardened against corrupt input) ever sees it.  Any mismatch is a
    miss and the source is recompiled.
    """
    if not storage.context_cache_enabled():
        return compile(source, "<bpf-compiled-filter>", "exec")
    path = _code_cache_path(source)
    code = None
    try:
        blob = path.read_bytes()
    except OSError:
        blob = None
    if (
        blob is not None
        and len(blob) > 32
        and hashlib.sha256(blob[32:]).digest() == blob[:32]
    ):
        try:
            candidate = marshal.loads(blob[32:])
        except (EOFError, ValueError, TypeError):
            candidate = None
        if isinstance(candidate, types.CodeType):
            code = candidate
    telemetry.record_context_cache("bpf-code", "hit" if code is not None else "miss")
    if code is None:
        code = compile(source, "<bpf-compiled-filter>", "exec")
        payload = marshal.dumps(code)
        try:
            storage.atomic_write_bytes(path, hashlib.sha256(payload).digest() + payload)
        except OSError:
            telemetry.record_cache_store_skipped()  # unwritable cache dir
        else:
            telemetry.record_context_cache("bpf-code", "store")
    return code


def _compile_program_uncached(program: Tuple[Insn, ...]) -> CompiledFilter:
    verify(program)
    n = len(program)
    uses_x = _uses_register_x(program)
    starts = _segment_starts(program)
    leader_set = set(starts)

    chunks: List[str] = []
    for start in starts:
        body: List[str] = [f"A = st[{_ST_A}]"]
        if uses_x:
            body.append(f"X = st[{_ST_X}]")
        pc = start
        terminated = False
        while pc < n:
            insn = program[pc]
            cls = bpf_class(insn.code)
            if cls == BPF_RET:
                value = f"A & {U32_MASK}" if bpf_rval(insn.code) == BPF_A else str(
                    insn.k & U32_MASK
                )
                body.append(f"st[{_ST_COUNT}] += {pc - start + 1}")
                body.append(f"st[{_ST_RET}] = {value}")
                body.append("return None")
                terminated = True
                break
            if cls == BPF_JMP:
                body.append(f"st[{_ST_COUNT}] += {pc - start + 1}")
                body.append(f"st[{_ST_A}] = A")
                if uses_x:
                    body.append(f"st[{_ST_X}] = X")
                op = bpf_op(insn.code)
                if op == BPF_JA:
                    body.append(f"return _s{pc + 1 + insn.k}")
                else:
                    target_t = pc + 1 + insn.jt
                    target_f = pc + 1 + insn.jf
                    if target_t == target_f:
                        body.append(f"return _s{target_t}")
                    else:
                        operand = _operand(insn)
                        conds = {
                            BPF_JEQ: f"A == {operand}",
                            BPF_JGT: f"A > {operand}",
                            BPF_JGE: f"A >= {operand}",
                            BPF_JSET: f"A & {operand}",
                        }
                        body.append(
                            f"return _s{target_t} if {conds[op]} else _s{target_f}"
                        )
                terminated = True
                break
            _emit_straight(insn, pc, body)
            pc += 1
            if pc in leader_set:
                # Fall through into the next segment.
                body.append(f"st[{_ST_COUNT}] += {pc - start}")
                body.append(f"st[{_ST_A}] = A")
                if uses_x:
                    body.append(f"st[{_ST_X}] = X")
                body.append(f"return _s{pc}")
                terminated = True
                break
        if not terminated:  # pragma: no cover - verifier guarantees a RET
            raise BpfRuntimeError("fell off the end of the program")
        indented = "\n".join("    " + line for line in body)
        chunks.append(f"def _s{start}(st, w):\n{indented}\n")

    source = "\n".join(chunks)
    namespace: dict = {"BpfRuntimeError": BpfRuntimeError}
    exec(_compile_filter_source(source), namespace)  # noqa: S102
    return CompiledFilter(
        program=program,
        read_words=read_word_indices(program),
        source=source,
        entry=namespace["_s0"],
    )
