"""Tests for the profile-to-BPF compilers, including the equivalence
property: compiled filters decide exactly like the reference semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpf.compile import compile_program
from repro.bpf.interpreter import run
from repro.bpf.seccomp_data import SeccompData
from repro.bpf.verifier import verify
from repro.seccomp.actions import SECCOMP_RET_ALLOW, action_of, most_restrictive
from repro.seccomp.compiler import (
    compile_binary_tree,
    compile_linear,
    compile_profile,
    compile_profile_chunked,
)
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.profile import ArgCmp, ArgSetRule, CmpOp, SeccompProfile, SyscallRule
from repro.seccomp.profiles import build_docker_default
from repro.syscalls.events import make_event
from repro.syscalls.table import LINUX_X86_64, sid
from repro.common.errors import ProfileError


def _toy_profile():
    return SeccompProfile.from_names(
        "toy",
        ["read", "write", "personality", "clone"],
        arg_rules={
            "personality": [
                ArgSetRule((ArgCmp(0, 0),)),
                ArgSetRule((ArgCmp(0, 0xFFFFFFFF),)),
            ],
            "clone": [
                ArgSetRule((ArgCmp(0, 0, op=CmpOp.MASKED_EQ, mask=0x7E020000),))
            ],
        },
    )


@pytest.fixture(params=["linear", "binary_tree"])
def strategy(request):
    return request.param


class TestCompilers:
    def test_programs_verify(self, strategy):
        program = compile_profile(_toy_profile(), strategy)
        verify(program)

    def test_allow_and_deny(self, strategy):
        program = compile_profile(_toy_profile(), strategy)

        def decide(event):
            return action_of(run(program, SeccompData.from_event(event)).return_value)

        assert decide(make_event("read", (3, 10))) == SECCOMP_RET_ALLOW
        assert decide(make_event("mount")) != SECCOMP_RET_ALLOW
        assert decide(make_event("personality", (0xFFFFFFFF,))) == SECCOMP_RET_ALLOW
        assert decide(make_event("personality", (7,))) != SECCOMP_RET_ALLOW

    def test_masked_eq_compiled(self, strategy):
        program = compile_profile(_toy_profile(), strategy)

        def decide(args):
            event = make_event("clone", args)
            return action_of(run(program, SeccompData.from_event(event)).return_value)

        assert decide((0x00010000,)) == SECCOMP_RET_ALLOW
        assert decide((0x10000000,)) != SECCOMP_RET_ALLOW  # CLONE_NEWUSER bit

    def test_wrong_arch_killed(self, strategy):
        program = compile_profile(_toy_profile(), strategy)
        data = SeccompData(nr=0, arch=0xDEAD)
        assert action_of(run(program, data).return_value) != SECCOMP_RET_ALLOW

    def test_unknown_strategy(self):
        with pytest.raises(ProfileError):
            compile_profile(_toy_profile(), "quantum")

    def test_empty_profile(self, strategy):
        profile = SeccompProfile("empty", [])
        program = compile_profile(profile, strategy)
        data = SeccompData(nr=0)
        assert action_of(run(program, data).return_value) != SECCOMP_RET_ALLOW


class TestDispatchCost:
    """The structural claim of Section XII: tree dispatch is much
    cheaper than the linear chain for deep syscalls."""

    def test_tree_beats_linear_on_deep_sid(self):
        docker = build_docker_default()
        linear = compile_linear(docker)
        tree = compile_binary_tree(docker)
        event = make_event("epoll_wait", (4, 512, 100))
        data = SeccompData.from_event(event)
        linear_cost = run(linear, data).instructions_executed
        tree_cost = run(tree, data).instructions_executed
        assert tree_cost < linear_cost / 4

    def test_linear_cost_grows_with_position(self):
        docker = build_docker_default()
        linear = compile_linear(docker)
        early = run(linear, SeccompData.from_event(make_event("read", (1, 2)))).instructions_executed
        late = run(linear, SeccompData.from_event(make_event("openat", (0, 0, 0)))).instructions_executed
        assert late > early


class TestChunking:
    def _big_profile(self):
        """A profile too large for a single BPF program."""
        rules = []
        for entry in LINUX_X86_64:
            checkable = entry.checkable_args
            if not checkable:
                rules.append(SyscallRule(sid=entry.sid))
                continue
            arg_rules = tuple(
                ArgSetRule(tuple(ArgCmp(i, v) for i in checkable))
                for v in range(12)
            )
            rules.append(SyscallRule(sid=entry.sid, arg_rules=arg_rules))
        return SeccompProfile("big", rules)

    def test_splits_when_needed(self):
        programs = compile_profile_chunked(self._big_profile())
        assert len(programs) > 1
        for program in programs:
            assert len(program) <= 4096
            verify(program)

    def test_single_chunk_when_small(self):
        programs = compile_profile_chunked(_toy_profile())
        assert len(programs) == 1

    def test_chunked_equivalence(self):
        """Stacked chunk decisions must equal the reference semantics."""
        from repro.seccomp.engine import SeccompKernelModule

        profile = self._big_profile()
        module = SeccompKernelModule()
        for program in compile_profile_chunked(profile):
            module.attach(program)
        probes = [
            make_event("read", (3, 0)),
            make_event("read", (3, 99)),        # not whitelisted value
            make_event("getpid"),
            make_event("clone3", (5,)),          # high SID range
            make_event("io_uring_setup", (11,)),
            make_event("mount"),
        ]
        for event in probes:
            assert module.check(event).allowed == profile.allows(event), event


# -- property-based equivalence ---------------------------------------------

_NAMES = ("read", "write", "close", "personality", "openat", "futex", "getpid")


@st.composite
def profiles(draw):
    chosen = draw(
        st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5, unique=True)
    )
    arg_rules = {}
    for name in chosen:
        checkable = LINUX_X86_64.by_name(name).checkable_args
        if not checkable or draw(st.booleans()):
            continue
        sets = draw(
            st.lists(
                st.tuples(*[st.integers(0, 3) for _ in checkable]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        arg_rules[name] = [
            ArgSetRule(tuple(ArgCmp(i, v) for i, v in zip(checkable, values)))
            for values in sets
        ]
    return SeccompProfile.from_names("prop", chosen, arg_rules=arg_rules)


@st.composite
def events(draw):
    name = draw(st.sampled_from(_NAMES + ("mount", "ptrace")))
    checkable = LINUX_X86_64.by_name(name).checkable_args
    args = tuple(draw(st.integers(0, 4)) for _ in checkable)
    return make_event(name, args)


#: A Mini-Docker-shaped container profile: a whitelist assembled from
#: whole syscall categories of the x86-64 table, an arch check and a
#: default of KILL_PROCESS (both emitted by every compiler), and ptrace
#: in no category, so it is always blocked.
_CATEGORIES = {
    "file-io": ("read", "write", "open", "openat", "close", "lseek"),
    "file-info": ("stat", "fstat", "lstat", "newfstatat", "statx"),
    "memory": ("mmap", "mprotect", "munmap", "brk", "mremap", "madvise"),
    "process": ("fork", "vfork", "clone", "execve", "exit", "exit_group"),
    "signals": ("rt_sigaction", "rt_sigprocmask", "rt_sigreturn"),
    "network": ("socket", "connect", "bind", "listen", "accept", "sendto", "recvfrom"),
    "directory": ("getdents", "getdents64", "mkdir", "rmdir", "getcwd", "chdir"),
    "time": ("clock_gettime", "gettimeofday", "nanosleep"),
    "ids": ("getpid", "getuid", "getgid", "geteuid", "getegid"),
    "sync": ("epoll_wait", "epoll_ctl", "poll", "select", "futex"),
}
_CATEGORY_NAMES = tuple(sorted({n for names in _CATEGORIES.values() for n in names}))
#: Argument values: small ones the rules use, and ones that differ from
#: them only in the high 32-bit word.
_ARG_VALUES = (0, 1, 2, 3, 2**32 + 1, 2**63 + 2)


@st.composite
def mini_docker_profiles(draw):
    categories = draw(
        st.lists(st.sampled_from(sorted(_CATEGORIES)), min_size=1, max_size=4, unique=True)
    )
    allowed = sorted({n for c in categories for n in _CATEGORIES[c]})
    arg_rules = {}
    for name in allowed:
        checkable = LINUX_X86_64.by_name(name).checkable_args
        if not checkable or draw(st.booleans()):
            continue
        sets = draw(
            st.lists(
                st.tuples(*[st.integers(0, 3) for _ in checkable]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        arg_rules[name] = [
            ArgSetRule(tuple(ArgCmp(i, v) for i, v in zip(checkable, values)))
            for values in sets
        ]
    return SeccompProfile.from_names("mini-docker", allowed, arg_rules=arg_rules)


@st.composite
def mini_docker_events(draw):
    name = draw(st.sampled_from(_CATEGORY_NAMES + ("ptrace", "mount", "reboot")))
    checkable = LINUX_X86_64.by_name(name).checkable_args
    return make_event(name, tuple(draw(st.sampled_from(_ARG_VALUES)) for _ in checkable))


def _stacked_module(programs, memoize):
    module = SeccompKernelModule(memoize=memoize)
    for program in programs:
        module.attach(program)
    return module


class TestEquivalenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), event=events(), strategy=st.sampled_from(["linear", "binary_tree"]))
    def test_compiled_matches_reference(self, profile, event, strategy):
        program = compile_profile(profile, strategy)
        result = run(program, SeccompData.from_event(event))
        compiled_allows = action_of(result.return_value) == SECCOMP_RET_ALLOW
        assert compiled_allows == profile.allows(event)

    @settings(max_examples=60, deadline=None)
    @given(
        profile=mini_docker_profiles(),
        trace=st.lists(mini_docker_events(), min_size=1, max_size=12),
        layout=st.sampled_from(["linear", "binary_tree", "chunked-linear", "chunked-binary_tree"]),
    )
    def test_mini_docker_stack_matches_reference(self, profile, trace, layout):
        """Fast path, interpreter, profile semantics and the decision memo
        agree on every event of a (possibly stacked) container filter."""
        if layout.startswith("chunked-"):
            # A small budget splits the whitelist into stacked filters.
            programs = compile_profile_chunked(profile, layout[len("chunked-"):], max_insns=96)
        else:
            programs = (compile_profile(profile, layout),)
        memoized = _stacked_module(programs, memoize=True)
        plain = _stacked_module(programs, memoize=False)
        for event in trace + trace:  # the second pass repeats every event
            data = SeccompData.from_event(event)
            combined = None
            for program in programs:
                expected = run(program, data)
                assert compile_program(program).run(data) == expected
                value = expected.return_value
                combined = value if combined is None else most_restrictive(combined, value)
            decision = plain.check(event)
            assert decision.return_value == combined
            assert decision.allowed == profile.allows(event)
            assert memoized.check(event) == decision
        assert memoized.memo_hits >= len(trace)
        assert not profile.allows(make_event("ptrace", (0, 0)))
