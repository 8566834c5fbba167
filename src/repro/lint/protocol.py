"""Protocol rules over the whole program.

A rule here runs against a :class:`~repro.lint.program.Program` — every
parsed module of the batch — rather than one AST at a time, because it
encodes an invariant that only exists *between* functions:

* **R7** durability ordering: a WAL append/truncate path must reach a
  flush barrier before the commit/ack boundary (the PR 9 bug: acked
  appends still in flight on channel queues at power loss).

Retired ids are not reused.  R8 (lockset races) went with the threaded
scheduler it watched.  R9 (clock domains) and R10 (commit-group pairing,
quiesce before power loss) went when the code made their few sites
structural: ``with manager.wal_group()``, one inlined clock crossing,
and direct tests (``docs/static_analysis.md``).

R7 is a *may* analysis over syntax: branches are traversed in source
order as if executed sequentially, and calls resolve by name.  That
trades soundness for a zero-false-positive bar on this codebase.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.program import ModuleInfo, Program, attr_chain, call_target

__all__ = [
    "ALL_PROGRAM_RULES",
    "DurabilityOrderRule",
    "ProgramRule",
]

#: A program-rule finding: (module, line, col, message).
ProgramFinding = Tuple[ModuleInfo, int, int, str]


def _in_order(node: ast.AST) -> Iterator[ast.AST]:
    """Every descendant, pre-order — i.e. in source order for the
    sequential constructs the analyses care about (``iter_child_nodes``
    yields If/While/Try fields in syntactic order)."""
    for child in ast.iter_child_nodes(node):
        yield child
        yield from _in_order(child)


class ProgramRule:
    """Base for whole-program rules: one pass over the Program."""

    rule_id = "P0"

    def check_program(self, program: Program) -> Iterator[ProgramFinding]:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# R7: durability ordering
# --------------------------------------------------------------------- #


class DurabilityOrderRule(ProgramRule):
    """R7: every WAL append/truncate path must reach a ``sync()``
    barrier before the commit/ack boundary, and replication ack sites
    must be post-apply.

    Motivation: PR 9 found — dynamically, in the failover sweep — that
    acknowledged WAL appends could still be sitting on channel queues at
    power loss because no ``FlashDevice.sync()`` barrier was taken.
    This rule catches that revert statically: it identifies WAL-shaped
    classes (a ``commit``/``append`` entry point plus direct flash
    mutator calls), computes a per-method summary ``(mutates media,
    ends dirty, has barrier)`` with a fixpoint over same-class calls
    (``commit -> _append -> _append_inner``), and flags any public entry
    whose path can fall off the end still dirty.  The barrier is an
    unconditional ``self.chip.sync()`` (every chip answers it; on a
    bare synchronous chip, where every program is complete on return,
    it is a no-op); a barrier under a conditional counts too.

    The replication half orders events inside ``repro.service``
    functions: an ack counter bump (``*acked*``) before the first
    ``apply*`` call means a group is acknowledged before the standby
    applied it — exactly the torn-ack window the failover sweep exists
    to catch.
    """

    rule_id = "R7"

    MUTATORS = frozenset(
        {"program", "reprogram", "partial_program", "erase_block"}
    )
    BARRIERS = frozenset({"sync", "flush_barrier"})
    ENTRY_HINTS = frozenset({"commit", "append", "_append"})

    def check_program(self, program: Program) -> Iterator[ProgramFinding]:
        for mi, cls in program.classes():
            if mi.module is None or not mi.module.startswith("repro"):
                continue
            methods = {
                item.name: item
                for item in cls.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if not (self.ENTRY_HINTS & set(methods)):
                continue
            if not any(self._mutates(node) for node in methods.values()):
                continue
            summaries = self._fixpoint(methods)
            for name in sorted(methods):
                mutate, dirty, _ = summaries[name]
                if mutate and dirty and not name.startswith("_"):
                    node = methods[name]
                    yield (
                        mi,
                        node.lineno,
                        node.col_offset,
                        f"WAL path {cls.name}.{name}() can return with "
                        "programs still in flight — no sync() barrier "
                        "between the last media mutation and the "
                        "commit/ack boundary",
                    )
        yield from self._check_ack_ordering(program)

    def _mutates(self, node: ast.AST) -> bool:
        return any(
            isinstance(n, ast.Call) and call_target(n) in self.MUTATORS
            for n in ast.walk(node)
        )

    def _fixpoint(
        self, methods: Dict[str, ast.AST]
    ) -> Dict[str, Tuple[bool, bool, bool]]:
        """Per-method (may_mutate, ends_dirty, has_barrier), iterated to
        a fixpoint over same-class call edges."""
        summaries: Dict[str, Tuple[bool, bool, bool]] = {
            name: (False, False, False) for name in methods
        }
        changed = True
        while changed:
            changed = False
            for name, node in methods.items():
                summary = self._summarise(node, methods, summaries)
                if summary != summaries[name]:
                    summaries[name] = summary
                    changed = True
        return summaries

    def _summarise(
        self,
        node: ast.AST,
        methods: Dict[str, ast.AST],
        summaries: Dict[str, Tuple[bool, bool, bool]],
    ) -> Tuple[bool, bool, bool]:
        mutate = dirty = barrier = False
        for n in _in_order(node):
            if not isinstance(n, ast.Call):
                continue
            target = call_target(n)
            if target in self.MUTATORS:
                mutate = dirty = True
            elif target in self.BARRIERS:
                dirty = False
                barrier = True
            elif target in methods and self._is_self_call(n, methods):
                callee_mutate, callee_dirty, callee_barrier = summaries[target]
                if callee_mutate:
                    mutate = True
                if callee_dirty:
                    dirty = True
                elif callee_barrier:
                    dirty = False
                if callee_barrier:
                    barrier = True
        return mutate, dirty, barrier

    def _is_self_call(
        self, node: ast.Call, methods: Dict[str, ast.AST]
    ) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute):
            return (
                isinstance(func.value, ast.Name) and func.value.id == "self"
            )
        return isinstance(func, ast.Name) and func.id in methods

    def _check_ack_ordering(
        self, program: Program
    ) -> Iterator[ProgramFinding]:
        for fn in program.functions():
            mi = fn.module
            if mi.module is None or not mi.module.startswith("repro.service"):
                continue
            first_apply: Optional[int] = None
            acks: List[Tuple[int, int]] = []
            for n in _in_order(fn.node):
                if isinstance(n, ast.Call):
                    target = call_target(n)
                    if target is not None and "apply" in target:
                        if first_apply is None:
                            first_apply = n.lineno
                    chain = attr_chain(n.func)
                    if chain is not None and any(
                        "acked" in part for part in chain[:-1]
                    ):
                        acks.append((n.lineno, n.col_offset))
                elif isinstance(n, ast.AugAssign) and isinstance(
                    n.target, ast.Attribute
                ):
                    if "acked" in n.target.attr:
                        acks.append((n.lineno, n.col_offset))
            if first_apply is None:
                continue
            for line, col in acks:
                if line < first_apply:
                    yield (
                        mi,
                        line,
                        col,
                        f"{fn.qualname} acknowledges a replicated group "
                        "before the standby apply call — acks must be "
                        "post-barrier (torn-ack window)",
                    )


ALL_PROGRAM_RULES = (DurabilityOrderRule,)
