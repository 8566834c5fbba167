"""Protocol rules (R7, R9, R10) over the whole program.

Each rule here runs against a :class:`~repro.lint.program.Program` — the
cached per-module pass plus the import/call graphs — rather than one AST
at a time, because each encodes an invariant that only exists *between*
functions:

* **R7** durability ordering: a WAL append/truncate path must reach a
  flush barrier before the commit/ack boundary (the PR 9 bug: acked
  appends still in flight on channel queues at power loss).
* **R9** clock domains: per-shard ``SimClock`` timestamps must not mix
  with other clock domains outside the sanctioned mapping helper.
* **R10** resource lifecycle: ``begin_group``/``end_group`` pairing and
  the quiesce()/power_loss() exclusion.

R8 (lockset races over ``threading.Thread`` targets) was retired with
the service tier's threaded scheduler, the only code it checked; its id
is not reused.

All three are *may* analyses over syntax: branches are traversed in
source order as if executed sequentially, calls resolve by name, and
aliasing is tracked only through pure attribute chains.  That trades
soundness for a zero-false-positive bar on this codebase — every
approximation is noted on the rule it belongs to.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.program import (
    FunctionInfo,
    ModuleInfo,
    Program,
    attr_chain,
    call_target,
)

__all__ = [
    "ALL_PROGRAM_RULES",
    "ClockDomainRule",
    "DurabilityOrderRule",
    "LifecycleRule",
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


# --------------------------------------------------------------------- #
# R9: clock domains
# --------------------------------------------------------------------- #


class ClockDomainRule(ProgramRule):
    """R9: per-shard ``SimClock`` timestamps must not mix across clock
    domains outside the sanctioned mapping helper.

    Every shard owns an independent simulated clock; the service's
    scheduler additionally keeps a *global* virtual-time axis.  A
    timestamp (any ``<clock chain>.now_us`` / ``.now_s`` read) is tagged
    with its owning clock's canonical access chain, tags propagate
    through locals and timestamp+duration arithmetic, and the rule
    flags: subtracting or comparing timestamps from two different
    domains, and adding two absolute timestamps (meaningless in any
    domain).  Timestamp±duration stays legal — that is how offsets and
    elapsed times are computed on one clock.

    The only place allowed to bridge domains is the sanctioned helper
    :func:`repro.service.service.global_end_us`; its body is exempt and
    its call sites return untagged (global-axis) values.  Scope:
    ``repro.service``, where the two axes coexist.
    """

    rule_id = "R9"

    TS_ATTRS = frozenset({"now_us", "now_s"})
    SANCTIONED = frozenset({"global_end_us"})

    def check_program(self, program: Program) -> Iterator[ProgramFinding]:
        for fn in program.functions():
            mi = fn.module
            if mi.module is None or not mi.module.startswith("repro.service"):
                continue
            if fn.name in self.SANCTIONED:
                continue
            yield from self._check_unit(mi, fn.node)

    def _check_unit(
        self, mi: ModuleInfo, fn_node: ast.AST
    ) -> Iterator[ProgramFinding]:
        env: Dict[str, str] = {}
        clock_aliases: Dict[str, str] = {}
        findings: List[ProgramFinding] = []
        nested: List[ast.AST] = []

        def is_clockish(chain: List[str]) -> bool:
            return bool(chain) and chain[-1].endswith("clock")

        def domain_of(base: ast.expr) -> Optional[str]:
            chain = attr_chain(base)
            if chain is None:
                return None
            if chain[0] in clock_aliases:
                chain = clock_aliases[chain[0]].split(".") + chain[1:]
            if not is_clockish(chain):
                return None
            return ".".join(chain)

        def tag_of(expr: ast.expr) -> Optional[str]:
            if isinstance(expr, ast.Attribute) and expr.attr in self.TS_ATTRS:
                return domain_of(expr.value)
            if isinstance(expr, ast.Name):
                return env.get(expr.id)
            if isinstance(expr, ast.BinOp):
                left = tag_of(expr.left)
                right = tag_of(expr.right)
                if isinstance(expr.op, ast.Add):
                    if left is not None and right is not None:
                        findings.append(
                            (
                                mi,
                                expr.lineno,
                                expr.col_offset,
                                "adding two clock timestamps "
                                f"({left} + {right}) — at most one "
                                "operand of + may be an absolute time",
                            )
                        )
                        return None
                    return left or right
                if isinstance(expr.op, ast.Sub):
                    if (
                        left is not None
                        and right is not None
                        and left != right
                    ):
                        findings.append(
                            (
                                mi,
                                expr.lineno,
                                expr.col_offset,
                                f"cross-domain clock arithmetic: {left} "
                                f"minus {right} — map through the "
                                "sanctioned helper "
                                "repro.service.service.global_end_us",
                            )
                        )
                    return None
                return None
            if isinstance(expr, ast.Compare):
                tags = [tag_of(expr.left)]
                tags.extend(tag_of(c) for c in expr.comparators)
                domains = {t for t in tags if t is not None}
                if len(domains) > 1:
                    findings.append(
                        (
                            mi,
                            expr.lineno,
                            expr.col_offset,
                            "comparing timestamps from different clock "
                            f"domains ({', '.join(sorted(domains))})",
                        )
                    )
                return None
            if isinstance(expr, ast.Call):
                target = call_target(expr)
                for arg in expr.args:
                    tag_of(arg)
                for kw in expr.keywords:
                    tag_of(kw.value)
                if target in self.SANCTIONED:
                    return None
                return None
            if isinstance(expr, ast.IfExp):
                tag_of(expr.test)
                left = tag_of(expr.body)
                right = tag_of(expr.orelse)
                return left if left == right else None
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    tag_of(child)
            return None

        def visit(stmts: List[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.append(stmt)
                    continue
                if isinstance(stmt, ast.Assign):
                    tag = tag_of(stmt.value)
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            if tag is not None:
                                env[target.id] = tag
                            else:
                                env.pop(target.id, None)
                            self._note_clock_alias(
                                target.id, stmt.value, clock_aliases
                            )
                elif isinstance(stmt, ast.AnnAssign):
                    if stmt.value is not None:
                        tag = tag_of(stmt.value)
                        if isinstance(stmt.target, ast.Name):
                            if tag is not None:
                                env[stmt.target.id] = tag
                            else:
                                env.pop(stmt.target.id, None)
                elif isinstance(stmt, ast.AugAssign):
                    synthetic = ast.BinOp(
                        left=stmt.target, op=stmt.op, right=stmt.value
                    )
                    ast.copy_location(synthetic, stmt)
                    tag_of(synthetic)
                elif isinstance(stmt, ast.Return):
                    if stmt.value is not None:
                        tag_of(stmt.value)
                elif isinstance(stmt, ast.Expr):
                    tag_of(stmt.value)
                elif isinstance(stmt, ast.If):
                    tag_of(stmt.test)
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, ast.While):
                    tag_of(stmt.test)
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    tag_of(stmt.iter)
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        tag_of(item.context_expr)
                    visit(stmt.body)
                elif isinstance(stmt, ast.Try):
                    visit(stmt.body)
                    for handler in stmt.handlers:
                        visit(handler.body)
                    visit(stmt.orelse)
                    visit(stmt.finalbody)

        body = getattr(fn_node, "body", [])
        visit(list(body))
        yield from findings
        for inner in nested:
            yield from self._check_unit(mi, inner)

    def _note_clock_alias(
        self, name: str, value: ast.expr, clock_aliases: Dict[str, str]
    ) -> None:
        if any(isinstance(c, ast.Call) for c in ast.walk(value)):
            return
        chain = attr_chain(value)
        if chain is None:
            return
        if chain[0] in clock_aliases:
            chain = clock_aliases[chain[0]].split(".") + chain[1:]
        if chain[-1].endswith("clock"):
            clock_aliases[name] = ".".join(chain)


# --------------------------------------------------------------------- #
# R10: resource / protocol lifecycle
# --------------------------------------------------------------------- #


class LifecycleRule(ProgramRule):
    """R10: lifecycle pairing on the call graph — WAL commit groups and
    the quiesce/power-loss exclusion.

    ``begin_group``/``begin_wal_group`` opens a commit group that
    buffers frames; every open must reach the matching
    ``end_group``/``end_wal_group`` in the same function, or the group's
    frames are silently never flushed (``flush_group`` inside a group is
    a legal mid-group drain and stays neutral).  Delegator functions
    whose own name carries the begin/end/abort token (e.g.
    ``StorageManager.begin_wal_group``) are exempt — they *are* the
    protocol edge, resolved through the call graph by the paired
    delegator on the other side.

    The quiesce half encodes the ``FlashDevice`` contract: ``quiesce()``
    drains in-flight operations, so calling it before ``power_loss()``
    (or inside a ``PowerLossError`` handler) destroys the in-flight
    window the crash model exists to test — a crash sweep that quiesces
    first reports clean recoveries for schedules that never happened.
    """

    rule_id = "R10"

    BEGINS = frozenset({"begin_group", "begin_wal_group"})
    ENDS = frozenset({"end_group", "end_wal_group"})
    EXEMPT_TOKENS = frozenset({"begin", "end", "abort"})

    def check_program(self, program: Program) -> Iterator[ProgramFinding]:
        for fn in program.functions():
            mi = fn.module
            if mi.module is None or not mi.module.startswith("repro"):
                continue
            yield from self._check_pairing(mi, fn)
            yield from self._check_quiesce(mi, fn)

    def _check_pairing(
        self, mi: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[ProgramFinding]:
        tokens = set(fn.name.lower().split("_"))
        if tokens & self.EXEMPT_TOKENS:
            return
        depth = 0
        last_begin: Optional[Tuple[int, int]] = None
        for n in _in_order(fn.node):
            if not isinstance(n, ast.Call):
                continue
            target = call_target(n)
            if target in self.BEGINS:
                depth += 1
                last_begin = (n.lineno, n.col_offset)
            elif target in self.ENDS:
                if depth == 0:
                    yield (
                        mi,
                        n.lineno,
                        n.col_offset,
                        f"{fn.qualname} closes a WAL commit group it "
                        "never opened",
                    )
                else:
                    depth -= 1
        if depth > 0 and last_begin is not None:
            yield (
                mi,
                last_begin[0],
                last_begin[1],
                f"{fn.qualname} opens a WAL commit group that no path "
                "closes — buffered frames would never flush",
            )

    def _check_quiesce(
        self, mi: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[ProgramFinding]:
        quiesces: List[Tuple[int, int]] = []
        first_power_loss: Optional[int] = None
        for n in _in_order(fn.node):
            if isinstance(n, ast.Call):
                target = call_target(n)
                if target == "quiesce":
                    quiesces.append((n.lineno, n.col_offset))
                elif target == "power_loss":
                    if first_power_loss is None:
                        first_power_loss = n.lineno
            elif isinstance(n, ast.ExceptHandler):
                if self._catches_power_loss(n.type):
                    for call in ast.walk(n):
                        if (
                            isinstance(call, ast.Call)
                            and call_target(call) == "quiesce"
                        ):
                            yield (
                                mi,
                                call.lineno,
                                call.col_offset,
                                f"{fn.qualname} quiesces inside a "
                                "PowerLossError handler — the in-flight "
                                "window must survive into recovery",
                            )
        if first_power_loss is not None:
            for line, col in quiesces:
                if line < first_power_loss:
                    yield (
                        mi,
                        line,
                        col,
                        f"{fn.qualname} calls quiesce() before "
                        "power_loss() — draining in-flight ops first "
                        "makes the crash model vacuous",
                    )

    def _catches_power_loss(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Tuple):
            return any(self._catches_power_loss(e) for e in node.elts)
        chain = attr_chain(node)
        return chain is not None and "PowerLossError" in chain


ALL_PROGRAM_RULES = (
    DurabilityOrderRule,
    ClockDomainRule,
    LifecycleRule,
)
