"""Compile Seccomp profiles into classic BPF filter programs.

Two strategies are provided:

* :func:`compile_linear` — the conventional layout the paper measures: a
  sequential chain of ``if`` statements (Figure 1), so checking cost
  grows linearly with profile position.
* :func:`compile_binary_tree` — the libseccomp optimisation discussed in
  Section XII (Hromatka): binary search over sorted syscall IDs, so the
  dispatch cost is logarithmic.  Argument checks within a syscall body
  remain sequential in both strategies.

Both produce verified programs whose decisions match
:meth:`SeccompProfile.evaluate` exactly; a property test asserts this.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bpf.assembler import ProgramBuilder
from repro.bpf.insn import Insn
from repro.bpf.seccomp_data import ARCH_OFFSET, NR_OFFSET, args_off, args_off_high
from repro.bpf.verifier import verify
from repro.common.errors import ProfileError
from repro.common.memo import memo_insert
from repro.seccomp.actions import SECCOMP_RET_ALLOW, SECCOMP_RET_KILL_PROCESS
from repro.seccomp.profile import ArgSetRule, CmpOp, SeccompProfile, SyscallRule
from repro.syscalls.abi import AUDIT_ARCH_X86_64

U32 = 0xFFFFFFFF

#: Below this many syscalls, the tree compiler falls back to a jeq chain.
TREE_LEAF_SIZE = 4


def compile_linear(profile: SeccompProfile) -> Tuple[Insn, ...]:
    """Sequential whitelist filter, the Figure-1 layout."""
    builder = ProgramBuilder()
    _emit_arch_check(builder, profile)
    builder.ld_abs(NR_OFFSET)
    rules = profile.rules
    for index, rule in enumerate(rules):
        builder.jeq(rule.sid, 0, 1)
        builder.jmp(_body_label(index))
    builder.label("miss")
    builder.ret_k(profile.default_action)
    _emit_bodies(builder, rules, profile.default_action)
    program = builder.assemble()
    verify(program)
    return program


def _emit_tree_node(
    builder: ProgramBuilder, rules, lo: int, hi: int, counter: List[int]
) -> None:
    """Dispatch over ``rules[lo:hi]``; ``counter`` numbers the labels.

    A module-level function, not a closure over the builder: a nested
    recursive function refers to itself, and that cycle would keep the
    builder alive until the cyclic collector runs.
    """
    if hi - lo <= TREE_LEAF_SIZE:
        for index in range(lo, hi):
            builder.jeq(rules[index].sid, 0, 1)
            builder.jmp(_body_label(index))
        builder.jmp("miss")
        return
    mid = (lo + hi) // 2
    pivot = rules[mid].sid
    right_label = f"tree_{counter[0]}"
    counter[0] += 1
    # A >= pivot  -> fall through to the long jump into the right half;
    # A <  pivot  -> skip it and continue into the left half inline.
    builder.jge(pivot, 0, 1)
    builder.jmp(right_label)
    _emit_tree_node(builder, rules, lo, mid, counter)
    builder.label(right_label)
    _emit_tree_node(builder, rules, mid, hi, counter)


def compile_binary_tree(profile: SeccompProfile) -> Tuple[Insn, ...]:
    """Binary-search dispatch over sorted SIDs (libseccomp-style)."""
    builder = ProgramBuilder()
    _emit_arch_check(builder, profile)
    builder.ld_abs(NR_OFFSET)
    rules = profile.rules  # already sorted by sid
    if rules:
        _emit_tree_node(builder, rules, 0, len(rules), [0])
    builder.label("miss")
    builder.ret_k(profile.default_action)
    _emit_bodies(builder, rules, profile.default_action)
    program = builder.assemble()
    verify(program)
    return program


#: Registry used by configuration layers ("linear" | "binary_tree").
COMPILERS: Dict[str, Callable[[SeccompProfile], Tuple[Insn, ...]]] = {
    "linear": compile_linear,
    "binary_tree": compile_binary_tree,
}


def compile_profile(profile: SeccompProfile, strategy: str = "linear") -> Tuple[Insn, ...]:
    try:
        compiler = COMPILERS[strategy]
    except KeyError:
        raise ProfileError(f"unknown compile strategy {strategy!r}") from None
    return compiler(profile)


def _estimate_rule_insns(rule: SyscallRule) -> int:
    """Upper bound on the instructions a rule contributes (dispatch + body)."""
    if not rule.arg_rules:
        return 3  # jeq + ja + ret
    body = 1  # trailing default return
    for arg_rule in rule.arg_rules:
        per_set = 1  # ret ALLOW
        for cmp_ in arg_rule.comparisons:
            per_set += 4 if cmp_.op is CmpOp.EQ else 6
        body += per_set
    return 2 + body


def compile_profile_chunked(
    profile: SeccompProfile,
    strategy: str = "linear",
    max_insns: int = 4096,
) -> Tuple[Tuple[Insn, ...], ...]:
    """Compile into one or more filters, each within ``BPF_MAXINSNS``.

    Large ``syscall-complete`` profiles (e.g. Elasticsearch's) do not fit
    in a single classic-BPF program, exactly as on real kernels; the
    standard remedy is to split the whitelist into several stacked
    filters, each *owning* a contiguous SID range: a filter returns ALLOW
    for syscalls outside its range (deferring to the owner) and applies
    the whitelist inside it.  The kernel combines stacked results with
    most-restrictive-wins, so exactly one filter decides each syscall.
    """
    rules = profile.rules
    if not rules:
        return (compile_profile(profile, strategy),)

    # Greedily pack rules into chunks under the instruction budget.
    budget = max_insns - 64  # headroom for arch check, guards, dispatch
    chunks: List[List[SyscallRule]] = [[]]
    used = 0
    for rule in rules:
        cost = _estimate_rule_insns(rule)
        if chunks[-1] and used + cost > budget:
            chunks.append([])
            used = 0
        chunks[-1].append(rule)
        used += cost

    if len(chunks) == 1:
        return (compile_profile(profile, strategy),)

    programs: List[Tuple[Insn, ...]] = []
    for index, chunk in enumerate(chunks):
        lo = chunk[0].sid if index > 0 else None
        hi = chunks[index + 1][0].sid if index + 1 < len(chunks) else None
        sub = SeccompProfile(
            f"{profile.name}[chunk{index}]",
            chunk,
            default_action=profile.default_action,
            table=profile.table,
        )
        programs.append(_compile_ranged(sub, strategy, lo, hi))
    return tuple(programs)


#: Assembled-program memo: profiles are immutable, while regimes and
#: multicore pipelines are built fresh per evaluation, so the same
#: (profile, strategy) pair is lowered to cBPF hundreds of times per
#: suite.  Keyed by profile identity with a strong reference to the
#: profile so the id cannot be recycled.
_PROGRAM_MEMO: Dict[tuple, tuple] = {}
_PROGRAM_MEMO_LIMIT = 256


def programs_for(
    profile: SeccompProfile, strategy: str = "linear"
) -> Tuple[Tuple[Insn, ...], ...]:
    """:func:`compile_profile_chunked`, memoised per profile object."""
    key = (id(profile), strategy)
    hit = _PROGRAM_MEMO.get(key)
    if hit is not None and hit[0] is profile:
        return hit[1]
    programs = compile_profile_chunked(profile, strategy=strategy)
    memo_insert(_PROGRAM_MEMO, key, (profile, programs), _PROGRAM_MEMO_LIMIT)
    return programs


def _compile_ranged(
    profile: SeccompProfile, strategy: str, lo: Optional[int], hi: Optional[int]
) -> Tuple[Insn, ...]:
    """Compile *profile* with an owning SID range [lo, hi) guard that
    returns ALLOW (defers) outside the range."""
    inner = compile_profile(profile, strategy)
    # Prepend the range guard before the existing program.  The inner
    # program starts with its own arch check; the guard must come after a
    # fresh nr load, so emit: arch check, ld nr, guards, then splice the
    # inner program minus nothing (jump offsets inside `inner` are
    # relative, so we can only prepend).  Rebuild instead via builder.
    builder = ProgramBuilder()
    builder.ld_abs(ARCH_OFFSET)
    builder.jeq(AUDIT_ARCH_X86_64, 1, 0)
    builder.ret_k(SECCOMP_RET_KILL_PROCESS)
    builder.ld_abs(NR_OFFSET)
    if lo is not None:
        builder.jge(lo, 1, 0)
        builder.ret_k(SECCOMP_RET_ALLOW)  # below our range: defer
    if hi is not None:
        builder.jge(hi, 0, 1)
        builder.ret_k(SECCOMP_RET_ALLOW)  # at/above our range end: defer
    guard = builder.assemble()
    # The inner program is self-contained (forward jumps only), so the
    # guard prefix plus the whole inner program is a valid filter.
    program = guard + inner
    verify(program)
    return program


# ---------------------------------------------------------------------------


def _body_label(index: int) -> str:
    return f"body_{index}"


def _emit_arch_check(builder: ProgramBuilder, profile: SeccompProfile) -> None:
    builder.ld_abs(ARCH_OFFSET)
    builder.jeq(AUDIT_ARCH_X86_64, 1, 0)
    builder.ret_k(SECCOMP_RET_KILL_PROCESS)


def _emit_bodies(
    builder: ProgramBuilder, rules: Sequence[SyscallRule], default_action: int
) -> None:
    for index, rule in enumerate(rules):
        builder.label(_body_label(index))
        if not rule.arg_rules:
            builder.ret_k(SECCOMP_RET_ALLOW)
            continue
        for set_index, arg_rule in enumerate(rule.arg_rules):
            next_label = f"body_{index}_set_{set_index + 1}"
            _emit_arg_set(builder, arg_rule, fail_label=next_label)
            builder.ret_k(SECCOMP_RET_ALLOW)
            builder.label(next_label)
        builder.ret_k(default_action)


def _emit_arg_set(builder: ProgramBuilder, arg_rule: ArgSetRule, fail_label: str) -> None:
    """Emit the comparisons of one whitelisted argument set.

    cBPF is a 32-bit machine, so each 64-bit comparison is a pair of
    word loads and conditional jumps (this doubling is part of why the
    paper finds argument checking expensive).
    """
    for cmp_ in arg_rule.comparisons:
        low_off = args_off(cmp_.arg_index)
        high_off = args_off_high(cmp_.arg_index)
        value_lo = cmp_.value & U32
        value_hi = cmp_.value >> 32 & U32
        if cmp_.op is CmpOp.EQ:
            builder.ld_abs(low_off)
            builder.jeq(value_lo, 0, fail_label)
            builder.ld_abs(high_off)
            builder.jeq(value_hi, 0, fail_label)
        elif cmp_.op is CmpOp.MASKED_EQ:
            mask_lo = cmp_.mask & U32
            mask_hi = cmp_.mask >> 32 & U32
            builder.ld_abs(low_off)
            builder.and_k(mask_lo)
            builder.jeq(value_lo & mask_lo, 0, fail_label)
            builder.ld_abs(high_off)
            builder.and_k(mask_hi)
            builder.jeq(value_hi & mask_hi, 0, fail_label)
        else:  # pragma: no cover - CmpOp is closed
            raise ProfileError(f"unsupported comparison {cmp_.op}")
