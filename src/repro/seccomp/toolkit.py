"""Application-specific profile generation toolkit.

Reproduces the paper's Section X-B toolkit: "(1) attaching strace onto a
running application to collect the system call traces, and (2)
generating the Seccomp profiles that only allow the system call IDs and
argument sets that appeared in the recorded traces."

Our strace equivalent records a :class:`SyscallTrace` from a workload
model; from a trace this module derives:

* ``syscall-noargs``  — whitelist of the exact SIDs observed;
* ``syscall-complete`` — whitelist of the exact (SID, argument set)
  combinations observed, with EQ comparisons over every checkable
  (non-pointer) argument;
* ``syscall-complete-2x`` — the complete profile attached twice in a
  row, modelling a near-future environment with twice the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.common.errors import ProfileError
from repro.seccomp.profile import ArgCmp, ArgSetRule, CmpOp, SeccompProfile, SyscallRule
from repro.syscalls.events import SyscallTrace
from repro.syscalls.table import LINUX_X86_64, SyscallTable


@dataclass(frozen=True)
class ProfileBundle:
    """The three application-specific profiles for one workload.

    ``complete_2x`` reuses the ``complete`` profile; the doubling is an
    *attachment count*, consumed by the checking configuration.
    """

    noargs: SeccompProfile
    complete: SeccompProfile

    @property
    def complete_2x(self) -> SeccompProfile:
        return self.complete


def observed_argument_sets(
    trace: SyscallTrace, table: SyscallTable = LINUX_X86_64
) -> Dict[int, Set[Tuple[int, ...]]]:
    """Map each observed SID to its distinct checkable-argument tuples."""
    by_sid: Dict[int, Set[Tuple[int, ...]]] = {}
    # Visit each distinct event once: a long recording repeats a few
    # hundred of them.
    for event in set(trace):
        sdef = table.by_sid(event.sid)
        checkable = tuple(event.args[i] for i in sdef.checkable_args)
        by_sid.setdefault(event.sid, set()).add(checkable)
    return by_sid


def generate_noargs(
    trace: SyscallTrace, name: str, table: SyscallTable = LINUX_X86_64
) -> SeccompProfile:
    """ID-only whitelist of the syscalls observed in *trace*."""
    rules = [SyscallRule(sid=sid) for sid in trace.unique_sids()]
    return SeccompProfile(f"{name}:syscall-noargs", rules, table=table)


def generate_complete(
    trace: SyscallTrace, name: str, table: SyscallTable = LINUX_X86_64
) -> SeccompProfile:
    """Whitelist of the exact (SID, argument set) pairs observed."""
    rules: List[SyscallRule] = []
    for sid, arg_sets in sorted(observed_argument_sets(trace, table).items()):
        sdef = table.by_sid(sid)
        checkable = sdef.checkable_args
        if not checkable:
            rules.append(SyscallRule(sid=sid))
            continue
        arg_rules = tuple(
            ArgSetRule(
                tuple(
                    ArgCmp(arg_index, value)
                    for arg_index, value in zip(checkable, values)
                )
            )
            for values in sorted(arg_sets)
        )
        rules.append(SyscallRule(sid=sid, arg_rules=arg_rules))
    return SeccompProfile(f"{name}:syscall-complete", rules, table=table)


def generate_bundle(
    trace: SyscallTrace, name: str, table: SyscallTable = LINUX_X86_64
) -> ProfileBundle:
    """Produce all application-specific profiles for a recorded trace."""
    return ProfileBundle(
        noargs=generate_noargs(trace, name, table),
        complete=generate_complete(trace, name, table),
    )


# ---------------------------------------------------------------------------
# Context-cache serialisation
# ---------------------------------------------------------------------------
#
# Generated bundles are pure functions of the profiling trace, which
# makes them cacheable on disk (repro.experiments.cache).  The payload
# preserves rule order explicitly — rule order shapes the compiled
# filter's instruction counts, so a round-tripped bundle must compile
# to the same programs the generated one did.


def bundle_to_payload(bundle: ProfileBundle) -> Dict[str, Any]:
    """JSON-ready encoding of a *generated* bundle.

    ``noargs`` is the ordered sid list; ``complete`` is per-sid ordered
    argument-set rules as ``[arg_index, value]`` pairs.  Only EQ
    comparisons are representable — exactly what the generators emit; a
    hand-built bundle with masked rules is rejected loudly rather than
    silently flattened.
    """
    complete: List[Any] = []
    for rule in bundle.complete.rules:
        arg_rules = []
        for arg_rule in rule.arg_rules:
            for cmp_ in arg_rule.comparisons:
                if cmp_.op is not CmpOp.EQ:
                    raise ProfileError(
                        f"cannot serialise non-EQ comparison in "
                        f"{bundle.complete.name!r} (sid {rule.sid})"
                    )
            arg_rules.append(
                [[cmp_.arg_index, cmp_.value] for cmp_ in arg_rule.comparisons]
            )
        complete.append([rule.sid, arg_rules])
    return {
        "noargs": [rule.sid for rule in bundle.noargs.rules],
        "complete": complete,
    }


def bundle_from_payload(
    payload: Mapping[str, Any], name: str, table: SyscallTable = LINUX_X86_64
) -> Optional[ProfileBundle]:
    """Rebuild a bundle from :func:`bundle_to_payload` output.

    Returns ``None`` on *any* validation failure (unknown sids,
    malformed shapes, duplicate rules) — the caller falls back to
    regenerating from the profiling trace.
    """
    try:
        noargs_rules = [SyscallRule(sid=int(sid)) for sid in payload["noargs"]]
        complete_rules = []
        for sid, arg_rules in payload["complete"]:
            rules = tuple(
                ArgSetRule(
                    tuple(
                        ArgCmp(int(arg_index), int(value))
                        for arg_index, value in comparisons
                    )
                )
                for comparisons in arg_rules
            )
            complete_rules.append(SyscallRule(sid=int(sid), arg_rules=rules))
        return ProfileBundle(
            noargs=SeccompProfile(
                f"{name}:syscall-noargs", noargs_rules, table=table
            ),
            complete=SeccompProfile(
                f"{name}:syscall-complete", complete_rules, table=table
            ),
        )
    except (ProfileError, KeyError, TypeError, ValueError):
        return None
