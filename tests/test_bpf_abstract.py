"""Tests for the abstract cBPF interpreter (action-cache emulation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpf.abstract import (
    AbstractionLimitExceeded,
    constant_action_for,
    constant_actions,
    possible_returns,
)
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
from repro.bpf.seccomp_data import ARCH_OFFSET, NR_OFFSET, SeccompData, args_off
from repro.bpf.verifier import verify
from repro.common.errors import BpfRuntimeError
from repro.seccomp.actions import (
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_TRAP,
)
from repro.seccomp.compiler import (
    compile_binary_tree,
    compile_linear,
    compile_profile_chunked,
)
from repro.seccomp.profile import ArgCmp, ArgSetRule, SeccompProfile
from repro.seccomp.profiles import build_docker_default
from repro.seccomp.toolkit import generate_bundle
from repro.syscalls.events import make_event
from repro.syscalls.table import LINUX_X86_64, sid
from repro.workloads.catalog import build_catalog
from repro.workloads.generator import profile_trace


def _profile():
    return SeccompProfile.from_names(
        "abs",
        ["read", "getpid", "personality"],
        arg_rules={
            "personality": [
                ArgSetRule((ArgCmp(0, 0),)),
                ArgSetRule((ArgCmp(0, 0xFFFFFFFF),)),
            ]
        },
    )


class TestConstantAction:
    def test_id_only_rule_is_constant_allow(self):
        program = compile_linear(_profile())
        assert constant_action_for(program, sid("read")) == SECCOMP_RET_ALLOW
        assert constant_action_for(program, sid("getpid")) == SECCOMP_RET_ALLOW

    def test_arg_checked_rule_is_not_constant(self):
        program = compile_linear(_profile())
        assert constant_action_for(program, sid("personality")) is None

    def test_denied_syscall_is_constant_kill(self):
        program = compile_linear(_profile())
        action = constant_action_for(program, sid("mount"))
        assert action == SECCOMP_RET_KILL_PROCESS

    def test_wrong_arch_included(self):
        """With a non-native arch the filter kills; per-arch analysis
        keeps arch pinned, so the native result stays constant."""
        program = compile_linear(_profile())
        returns = possible_returns(program, sid("read"), arch=0xDEAD)
        assert returns == frozenset({SECCOMP_RET_KILL_PROCESS})


class TestPossibleReturns:
    def test_arg_dependent_filter_returns_both(self):
        program = compile_linear(_profile())
        returns = possible_returns(program, sid("personality"))
        assert SECCOMP_RET_ALLOW in returns
        assert SECCOMP_RET_KILL_PROCESS in returns

    def test_soundness_against_concrete_execution(self):
        """Every concretely observed return value must be predicted."""
        program = compile_linear(_profile())
        for name, argsets in (
            ("read", [(0, 0), (5, 5)]),
            ("personality", [(0,), (1,), (0xFFFFFFFF,)]),
            ("mount", [()]),
        ):
            predicted = possible_returns(program, sid(name))
            for args in argsets:
                event = make_event(name, args)
                concrete = run(program, SeccompData.from_event(event)).return_value
                assert concrete in predicted, (name, args)

    @pytest.mark.parametrize("compiler", [compile_linear, compile_binary_tree])
    def test_docker_default_mostly_cacheable(self, compiler):
        """Docker's profile checks arguments on only two syscalls, so
        nearly every allowed syscall is bitmap-cacheable (the upstream
        measurement that justified the 5.11 feature)."""
        profile = build_docker_default()
        program = compiler(profile)
        cacheable = 0
        arg_dependent = []
        probe = [d.sid for d in LINUX_X86_64][:80] + [
            sid("personality"), sid("clone"), sid("mount"),
        ]
        for number in probe:
            action = constant_action_for(program, number)
            if action is not None and action == SECCOMP_RET_ALLOW:
                cacheable += 1
            elif action is None:
                arg_dependent.append(number)
        assert cacheable > 60
        assert set(arg_dependent) == {sid("personality"), sid("clone")}


class TestSoundnessProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        nr=st.sampled_from([0, 1, 39, 135, 165]),
        args=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=3),
    )
    def test_abstract_covers_concrete(self, nr, args):
        program = compile_linear(_profile())
        predicted = possible_returns(program, nr)
        entry = LINUX_X86_64.by_sid(nr)
        checkable = entry.checkable_args
        event = make_event(nr, tuple(args[: len(checkable)]))
        concrete = run(program, SeccompData.from_event(event)).return_value
        assert concrete in predicted


# ---------------------------------------------------------------------------
# The batched pass (constant_actions) against the per-number reference

TABLE_NRS = tuple(entry.sid for entry in LINUX_X86_64)
CATALOG = build_catalog()

_ALU_OPS = (BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV, BPF_MOD, BPF_AND, BPF_OR,
            BPF_XOR, BPF_LSH, BPF_RSH, BPF_NEG)
_JMP_OPS = (BPF_JEQ, BPF_JGT, BPF_JGE, BPF_JSET)
_ACTIONS = (SECCOMP_RET_ALLOW, SECCOMP_RET_KILL_PROCESS, SECCOMP_RET_ERRNO | 1,
            SECCOMP_RET_TRAP)
_KINDS = ("ld_nr", "jmp_k", "ret", "ldx_imm", "ld_arg", "ld_arch", "ld_imm",
          "ld_mem", "ldx_mem", "st", "stx", "tax", "txa", "alu_k", "alu_x",
          "jmp_x", "ja", "ret_a")
_READS_A = ("jmp_k", "ret_a", "alu_k", "st", "tax", "jmp_x", "alu_x")
_READS_X = ("stx", "jmp_x", "txa", "alu_x")
_READS_M = ("ld_mem", "ldx_mem")
_AFTER_JUMP = ("ret", "ret_a", "ld_nr", "jmp_k")
#: What follows a kind: a value just written is read next, and a branch
#: usually falls through to a return, so most programs compute on,
#: spill, reload, dispatch by or return ``nr`` the way filters do.
_NEXT = {
    **dict.fromkeys(("ld_nr", "ld_arch", "ld_arg", "ld_imm", "ld_mem", "txa",
                     "alu_k", "alu_x"), _READS_A),
    **dict.fromkeys(("ldx_imm", "ldx_mem", "tax"), _READS_X),
    **dict.fromkeys(("st", "stx"), _READS_M),
    **dict.fromkeys(("jmp_k", "jmp_x"), _AFTER_JUMP),
}

#: Constants mostly inside the syscall-number range, so compares split it.
_constants = st.one_of(st.integers(0, 400), st.integers(0, 2**32 - 1))


def _insn(draw, kind, reach):
    """One *kind* instruction whose jumps skip at most *reach* instructions."""
    k = draw(_constants)
    word = draw(st.integers(0, 1))  # two scratch words, so loads see stores
    if kind == "ld_nr":
        return stmt(BPF_LD | BPF_W | BPF_ABS, NR_OFFSET)
    if kind == "ld_arch":
        return stmt(BPF_LD | BPF_W | BPF_ABS, ARCH_OFFSET)
    if kind == "ld_arg":  # instruction-pointer and argument words
        return stmt(BPF_LD | BPF_W | BPF_ABS, draw(st.integers(2, 15)) * 4)
    if kind == "ld_imm":
        return stmt(BPF_LD | BPF_W | BPF_IMM, k)
    if kind == "ld_mem":
        return stmt(BPF_LD | BPF_W | BPF_MEM, word)
    if kind == "ldx_imm":
        return stmt(BPF_LDX | BPF_W | BPF_IMM, k)
    if kind == "ldx_mem":
        return stmt(BPF_LDX | BPF_W | BPF_MEM, word)
    if kind == "st":
        return stmt(BPF_ST, word)
    if kind == "stx":
        return stmt(BPF_STX, word)
    if kind == "tax":
        return stmt(BPF_MISC | BPF_TAX)
    if kind == "txa":
        return stmt(BPF_MISC | BPF_TXA)
    if kind == "alu_k":
        op = draw(st.sampled_from(_ALU_OPS))
        if op in (BPF_DIV, BPF_MOD):
            k = max(k, 1)  # the verifier rejects constant zero divisors
        if op in (BPF_LSH, BPF_RSH):
            k = draw(st.integers(0, 40))
        return stmt(BPF_ALU | op | BPF_K, k)
    if kind == "alu_x":
        return stmt(BPF_ALU | draw(st.sampled_from(_ALU_OPS)) | BPF_X)
    if kind == "ja":
        return stmt(BPF_JMP | BPF_JA, draw(st.integers(0, reach)))
    if kind == "ret":
        return stmt(BPF_RET | BPF_K, draw(st.sampled_from(_ACTIONS)))
    if kind == "ret_a":
        return stmt(BPF_RET | BPF_A)
    op = draw(st.sampled_from(_JMP_OPS))
    src = BPF_K if kind == "jmp_k" else BPF_X
    jt = draw(st.integers(0, reach))
    # Distinct targets where there is room, so the branch means something.
    jf = (jt + 1 + draw(st.integers(0, reach - 1))) % (reach + 1) if reach else 0
    return jump(BPF_JMP | op | src, k if src == BPF_K else 0, jt, jf)


@st.composite
def filters(draw):
    """Verifier-clean programs that start by loading ``nr``: forward
    jumps only, ending in a RET."""
    n = draw(st.integers(1, 24))
    program, kind = [stmt(BPF_LD | BPF_W | BPF_ABS, NR_OFFSET)], "ld_nr"
    for pc in range(1, n):
        kind = draw(st.sampled_from(_NEXT.get(kind, _KINDS)))
        program.append(_insn(draw, kind, n - pc - 1))
    if draw(st.booleans()):
        program.append(stmt(BPF_RET | BPF_A))
    else:
        program.append(stmt(BPF_RET | BPF_K, draw(st.sampled_from(_ACTIONS))))
    verify(program)
    return tuple(program)


def _per_number(program):
    return {nr: constant_action_for(program, nr) for nr in TABLE_NRS}


def _outcome(compute):
    try:
        return compute()
    except AbstractionLimitExceeded:
        return "over budget"


_words = st.one_of(st.integers(0, 400), st.integers(0, 2**64 - 1))


class TestConstantActions:
    @settings(max_examples=200, deadline=None)
    @given(program=filters())
    def test_batched_map_equals_per_number_loop(self, program):
        assert constant_actions(program, TABLE_NRS) == _per_number(program)

    @settings(max_examples=150, deadline=None)
    @given(
        program=filters(),
        nr=st.sampled_from(TABLE_NRS),
        ip=_words,
        args=st.tuples(*[_words] * 6),
    )
    def test_concrete_returns_are_predicted(self, program, nr, ip, args):
        data = SeccompData(nr=nr, instruction_pointer=ip, args=args)
        try:
            concrete = run(program, data).return_value
        except BpfRuntimeError:
            return  # division by a zero X faults: no return value to check
        predicted = possible_returns(program, nr)
        # -1 stands for "RET A of an unknown word", which covers any value.
        assert concrete in predicted or -1 in predicted

    @settings(max_examples=40, deadline=None)
    @given(program=filters(), budget=st.integers(1, 120))
    def test_budget_rejects_exactly_what_the_per_number_loop_rejects(
        self, program, budget
    ):
        reference = _outcome(
            lambda: {
                nr: possible_returns(program, nr, max_states=budget)
                for nr in TABLE_NRS
            }
        )
        batched = _outcome(
            lambda: constant_actions(program, TABLE_NRS, max_states=budget)
        )
        if reference == "over budget":
            assert batched == "over budget"
        else:
            assert batched == _per_number(program)

    @pytest.mark.parametrize("workload", ["docker-default", *CATALOG])
    def test_catalog_and_docker_filters(self, workload):
        if workload == "docker-default":
            profiles = [build_docker_default()]
        else:
            bundle = generate_bundle(profile_trace(CATALOG[workload]), workload)
            profiles = [bundle.noargs, bundle.complete]
        for profile in profiles:
            for strategy in ("linear", "binary_tree"):
                for program in compile_profile_chunked(profile, strategy=strategy):
                    assert constant_actions(program, TABLE_NRS) == _per_number(program)

    def test_over_budget_filter_raises(self):
        """Twelve argument forks, each leaving its own scratch word
        behind, make 2**12 distinct states: over a 1000-state budget
        for the per-number loop and the batched pass alike."""
        program = []
        for level in range(12):
            program += [
                stmt(BPF_LD | BPF_W | BPF_ABS, args_off(level % 6)),
                jump(BPF_JMP | BPF_JSET | BPF_K, 1 << level, 0, 2),
                stmt(BPF_LD | BPF_W | BPF_IMM, 1),
                stmt(BPF_ST, level),
            ]
        program.append(stmt(BPF_RET | BPF_K, SECCOMP_RET_ALLOW))
        verify(program)
        with pytest.raises(AbstractionLimitExceeded):
            possible_returns(program, sid("read"), max_states=1000)
        with pytest.raises(AbstractionLimitExceeded):
            constant_actions(program, TABLE_NRS, max_states=1000)

    def test_unverified_jump_past_the_end_raises_like_the_reference(self):
        program = (
            stmt(BPF_LD | BPF_W | BPF_ABS, NR_OFFSET),
            jump(BPF_JMP | BPF_JEQ | BPF_K, sid("read"), 5, 0),
            stmt(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
        )
        with pytest.raises(IndexError):
            constant_action_for(program, sid("read"))
        with pytest.raises(IndexError):
            constant_actions(program, TABLE_NRS)

    def test_split_heavy_filter_falls_back_to_per_number_loop(self):
        """An ALU op on nr splits the batched pass into one state per
        number, over a budget no single number exceeds: the per-number
        loop answers instead of a spurious rejection."""
        program = (
            stmt(BPF_LD | BPF_W | BPF_ABS, NR_OFFSET),
            stmt(BPF_ALU | BPF_ADD | BPF_K, 1),
            stmt(BPF_ST, 0),
            stmt(BPF_LD | BPF_W | BPF_ABS, args_off(0)),
            stmt(BPF_LD | BPF_W | BPF_MEM, 0),
            stmt(BPF_RET | BPF_A),
        )
        verify(program)
        actions = constant_actions(program, TABLE_NRS, max_states=50)
        assert actions == {nr: nr + 1 for nr in TABLE_NRS} == _per_number(program)
