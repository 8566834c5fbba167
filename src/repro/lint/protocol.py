"""Protocol and concurrency rules (R7-R10) over the whole program.

Each rule here runs against a :class:`~repro.lint.program.Program` — the
cached per-module pass plus the import/call graphs — rather than one AST
at a time, because each encodes an invariant that only exists *between*
functions:

* **R7** durability ordering: a WAL append/truncate path must reach a
  flush barrier before the commit/ack boundary (the PR 9 bug: acked
  appends still in flight on channel queues at power loss).
* **R8** lockset race detection: Eraser-style — shared state reachable
  from ``threading.Thread`` targets must have a consistent, non-empty
  guarding lockset at every mutation site.
* **R9** clock domains: per-shard ``SimClock`` timestamps must not mix
  with other clock domains outside the sanctioned mapping helpers.
* **R10** resource lifecycle: ``begin_group``/``end_group`` pairing and
  the quiesce()/power_loss() exclusion.

All four are *may* analyses over syntax: branches are traversed in
source order as if executed sequentially, calls resolve by name, and
aliasing is tracked only through pure attribute chains.  That trades
soundness for a zero-false-positive bar on this codebase — every
approximation is noted on the rule it belongs to, and the runtime
lockset sanitizer (:mod:`repro.service.sanitize`) covers dynamically
what R8 cannot see statically.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.program import (
    FunctionInfo,
    ModuleInfo,
    Program,
    attr_chain,
    call_target,
    canon,
)

__all__ = [
    "ALL_PROGRAM_RULES",
    "ClockDomainRule",
    "DurabilityOrderRule",
    "LifecycleRule",
    "LocksetRule",
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


def _resolve_origin(
    node: ast.expr, aliases: Dict[str, str]
) -> Optional[str]:
    """Dotted import origin of a call chain (``threading.Thread``), or
    None when rooted in a local object."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = aliases.get(node.id)
    if origin is None:
        return None
    parts.append(origin)
    parts.reverse()
    return ".".join(parts)


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
# R8: lockset race detection
# --------------------------------------------------------------------- #

#: Access site: (key, category, is_write, context, lockset, line, col).
_Site = Tuple[str, str, bool, str, frozenset, int, int]

_SYNC_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)


class LocksetRule(ProgramRule):
    """R8: Eraser-style lockset analysis over ``threading.Thread``
    targets in ``repro.service``.

    For every function spawned as a thread target (plus the spawning
    function's post-``start()`` region, which runs concurrently with its
    children), the rule enumerates accesses to state reachable through
    closure variables and parameters, records the set of locks held at
    each site (``with locks[i]:`` stacks; a Condition constructed over a
    lock aliases to that lock), and flags:

    * shared paths touched from two or more concurrent contexts with at
      least one write whose locksets intersect to nothing, and
    * any mutation through a closure-captured root outside every lock.

    Approximations, chosen so the real threaded scheduler passes without
    pragmas: lock arrays canonicalise per-array (``locks[i]`` ==
    ``locks[j]`` — the code indexes them uniformly by shard, so a
    cross-shard confusion shows up as a *digest* failure, not here);
    parameter-rooted state is thread-owned unless another context names
    the same path (worker-per-shard ownership handoff); fresh objects
    (any call result) are unshared; access paths compare by their
    spelling from the root, so an alias chain hides its prefix.  The
    runtime sanitizer (:mod:`repro.service.sanitize`) re-checks the same
    invariant dynamically with exact object identities.
    """

    rule_id = "R8"

    def check_program(self, program: Program) -> Iterator[ProgramFinding]:
        import builtins

        self._builtins = frozenset(dir(builtins))
        for mi in program.modules:
            if mi.module is None or not mi.module.startswith("repro.service"):
                continue
            yield from self._check_module(mi)

    def _check_module(self, mi: ModuleInfo) -> Iterator[ProgramFinding]:
        assert mi.tree is not None
        module_names = set(mi.aliases)
        for node in mi.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                module_names.add(node.name)

        for spawner in self._functions_with_threads(mi):
            targets = self._thread_targets(mi, spawner)
            if not targets:
                continue
            lock_names = self._lock_bindings(mi, spawner)
            contexts: List[Tuple[str, List[ast.stmt], Set[str]]] = []
            shared_free: Set[str] = set()
            for name, fn_node in targets:
                params = {a.arg for a in fn_node.args.args}
                params |= {a.arg for a in fn_node.args.posonlyargs}
                params |= {a.arg for a in fn_node.args.kwonlyargs}
                free = self._free_names(
                    fn_node, params, module_names, lock_names
                )
                shared_free |= free
                contexts.append((name, list(fn_node.body), params))
            post_start = self._post_start_region(spawner)
            sites: List[_Site] = []
            for name, body, params in contexts:
                self._scan_context(
                    mi, name, body, params, shared_free, lock_names,
                    module_names, is_spawner=False, sites=sites,
                )
            if post_start:
                spawner_params = {a.arg for a in spawner.args.args}
                self._scan_context(
                    mi, f"{spawner.name}(post-start)", post_start,
                    spawner_params, shared_free, lock_names, module_names,
                    is_spawner=True, sites=sites,
                )
            yield from self._judge(mi, sites)

    # -- discovery ---------------------------------------------------- #

    def _functions_with_threads(
        self, mi: ModuleInfo
    ) -> List["ast.FunctionDef | ast.AsyncFunctionDef"]:
        assert mi.tree is not None
        found = []
        for fn in mi.functions():
            if any(
                isinstance(n, ast.Call)
                and _resolve_origin(n.func, mi.aliases) == "threading.Thread"
                for n in ast.walk(fn.node)
            ):
                found.append(fn.node)
        return found

    def _thread_targets(
        self,
        mi: ModuleInfo,
        spawner: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> List[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef"]]:
        defs: Dict[str, "ast.FunctionDef | ast.AsyncFunctionDef"] = {}
        for n in ast.walk(spawner):
            if (
                isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n is not spawner
            ):
                defs.setdefault(n.name, n)
        assert mi.tree is not None
        for n in mi.tree.body:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(n.name, n)
        targets = []
        seen: Set[int] = set()
        for n in ast.walk(spawner):
            if not (
                isinstance(n, ast.Call)
                and _resolve_origin(n.func, mi.aliases) == "threading.Thread"
            ):
                continue
            for kw in n.keywords:
                if kw.arg != "target":
                    continue
                name: Optional[str] = None
                if isinstance(kw.value, ast.Name):
                    name = kw.value.id
                elif isinstance(kw.value, ast.Attribute):
                    name = kw.value.attr
                if name is not None and name in defs:
                    node = defs[name]
                    if id(node) not in seen:
                        seen.add(id(node))
                        targets.append((name, node))
        return targets

    def _lock_bindings(
        self,
        mi: ModuleInfo,
        spawner: ast.AST,
    ) -> Dict[str, str]:
        """Name -> underlying lock-array name.  A Condition built over a
        lock shares that lock's identity (``wait`` releases it)."""
        lock_names: Dict[str, str] = {}
        assert mi.tree is not None
        for scope in (mi.tree, spawner):
            for node in ast.walk(scope):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    continue
                bound = node.targets[0].id
                for call in ast.walk(node.value):
                    if not isinstance(call, ast.Call):
                        continue
                    origin = _resolve_origin(call.func, mi.aliases)
                    if origin not in _SYNC_FACTORIES:
                        continue
                    underlying = bound
                    if origin == "threading.Condition" and call.args:
                        underlying = self._condition_base(
                            node.value, call, lock_names
                        ) or bound
                    lock_names[bound] = underlying
                    break
        return lock_names

    def _condition_base(
        self,
        value: ast.expr,
        call: ast.Call,
        lock_names: Dict[str, str],
    ) -> Optional[str]:
        chain = attr_chain(call.args[0])
        if chain is None:
            return None
        root = chain[0]
        if root in lock_names:
            return lock_names[root]
        # [Condition(lock) for lock in locks] — the comprehension target
        # ranges over the lock array.
        if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
            for gen in value.generators:
                if (
                    isinstance(gen.target, ast.Name)
                    and gen.target.id == root
                ):
                    iter_chain = attr_chain(gen.iter)
                    if iter_chain and iter_chain[0] in lock_names:
                        return lock_names[iter_chain[0]]
        return None

    def _post_start_region(
        self, spawner: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> List[ast.stmt]:
        """The spawner's statements that run concurrently with its
        children: from the first ``.start()`` through the last
        ``.join()`` (anything after every join is sequential again)."""
        start_line: Optional[int] = None
        last_join: Optional[int] = None
        for n in ast.walk(spawner):
            if isinstance(n, ast.Call):
                target = call_target(n)
                if target == "start":
                    if start_line is None or n.lineno < start_line:
                        start_line = n.lineno
                elif target == "join":
                    if last_join is None or n.lineno > last_join:
                        last_join = n.lineno
        if start_line is None:
            return []
        region = [s for s in spawner.body if s.lineno >= start_line]
        if last_join is not None:
            region = [s for s in region if s.lineno <= last_join]
        return region

    def _free_names(
        self,
        fn_node: ast.AST,
        params: Set[str],
        module_names: Set[str],
        lock_names: Dict[str, str],
    ) -> Set[str]:
        assigned = self._assigned_names(fn_node)
        free: Set[str] = set()
        for n in ast.walk(fn_node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                name = n.id
                if (
                    name not in assigned
                    and name not in params
                    and name not in module_names
                    and name not in self._builtins
                ):
                    free.add(name)
        return free - set(lock_names)

    def _assigned_names(self, node: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(
                n.ctx, (ast.Store, ast.Del)
            ):
                names.add(n.id)
        return names

    # -- per-context scan --------------------------------------------- #

    def _scan_context(
        self,
        mi: ModuleInfo,
        ctx_name: str,
        body: List[ast.stmt],
        params: Set[str],
        shared_free: Set[str],
        lock_names: Dict[str, str],
        module_names: Set[str],
        is_spawner: bool,
        sites: List[_Site],
    ) -> None:
        assigned = set()
        for stmt in body:
            assigned |= self._assigned_names(stmt)
        alias_map = self._alias_map(
            body, params, assigned, shared_free, lock_names,
            module_names, is_spawner,
        )

        def category(root: str) -> Optional[str]:
            if root in alias_map:
                return alias_map[root]
            if root in params:
                return "param"
            if is_spawner:
                return "free" if root in shared_free else None
            if root in assigned or root in module_names:
                return None
            if root in self._builtins:
                return None
            return "free"

        def record(
            chain: List[str], write: bool, held: Tuple[str, ...],
            line: int, col: int,
        ) -> None:
            root = chain[0]
            if root in lock_names:
                return
            cat = category(root)
            if cat is None:
                return
            comps = chain[1:]
            key = ".".join(comps) if comps else f"@{root}"
            sites.append(
                (key, cat, write, ctx_name, frozenset(held), line, col)
            )

        def lock_of(expr: ast.expr) -> Optional[str]:
            chain = attr_chain(expr)
            if chain is None or chain[0] not in lock_names:
                return None
            spelled = canon(expr)
            if spelled is None:
                return lock_names[chain[0]]
            underlying = lock_names[chain[0]]
            head_len = len(chain[0])
            return underlying + spelled[head_len:]

        def extract(
            node: ast.AST, held: Tuple[str, ...], write: bool = False
        ) -> None:
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain is not None and len(chain) > 1:
                    # Method call: conservatively a write on the object.
                    record(
                        chain[:-1], True, held, node.lineno, node.col_offset
                    )
                for arg in node.args:
                    extract(arg, held)
                for kw in node.keywords:
                    extract(kw.value, held)
                self._extract_slices(node.func, held, extract)
            elif isinstance(node, (ast.Attribute, ast.Subscript)):
                chain = attr_chain(node)
                if chain is not None:
                    record(chain, write, held, node.lineno, node.col_offset)
                    self._extract_slices(node, held, extract)
                else:
                    for child in ast.iter_child_nodes(node):
                        extract(child, held)
            elif isinstance(node, ast.Name):
                return
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return
            else:
                for child in ast.iter_child_nodes(node):
                    extract(child, held)

        def scan(stmts: List[ast.stmt], held: Tuple[str, ...]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    extra = []
                    for item in stmt.items:
                        lock = lock_of(item.context_expr)
                        if lock is not None:
                            extra.append(lock)
                        else:
                            extract(item.context_expr, held)
                    scan(stmt.body, held + tuple(extra))
                elif isinstance(stmt, ast.If):
                    extract(stmt.test, held)
                    scan(stmt.body, held)
                    scan(stmt.orelse, held)
                elif isinstance(stmt, ast.While):
                    extract(stmt.test, held)
                    scan(stmt.body, held)
                    scan(stmt.orelse, held)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    extract(stmt.iter, held)
                    extract(stmt.target, held, write=True)
                    scan(stmt.body, held)
                    scan(stmt.orelse, held)
                elif isinstance(stmt, ast.Try):
                    scan(stmt.body, held)
                    for handler in stmt.handlers:
                        scan(handler.body, held)
                    scan(stmt.orelse, held)
                    scan(stmt.finalbody, held)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        extract(target, held, write=True)
                    extract(stmt.value, held)
                elif isinstance(stmt, ast.AugAssign):
                    extract(stmt.target, held, write=True)
                    extract(stmt.value, held)
                elif isinstance(stmt, ast.AnnAssign):
                    extract(stmt.target, held, write=True)
                    if stmt.value is not None:
                        extract(stmt.value, held)
                elif isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                else:
                    extract(stmt, held)

        scan(body, ())

    def _extract_slices(
        self,
        node: ast.expr,
        held: Tuple[str, ...],
        extract: Callable[[ast.AST, Tuple[str, ...]], None],
    ) -> None:
        """Subscript indices along an access chain are ordinary reads."""
        while True:
            if isinstance(node, ast.Attribute):
                node = node.value
            elif isinstance(node, ast.Subscript):
                extract(node.slice, held)
                node = node.value
            elif isinstance(node, ast.Call):
                node = node.func
            else:
                return

    def _alias_map(
        self,
        body: List[ast.stmt],
        params: Set[str],
        assigned: Set[str],
        shared_free: Set[str],
        lock_names: Dict[str, str],
        module_names: Set[str],
        is_spawner: bool,
    ) -> Dict[str, str]:
        """Locals bound exactly once from a pure attribute/subscript
        chain inherit the root's category (``shard = self.shards[i]``).
        Anything flowing through a call is a fresh object and stays
        unshared."""
        counts: Dict[str, int] = {}
        candidates: Dict[str, str] = {}
        for stmt in body:
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    counts[n.id] = counts.get(n.id, 0) + 1
        for stmt in body:
            for n in ast.walk(stmt):
                if not (
                    isinstance(n, ast.Assign)
                    and len(n.targets) == 1
                    and isinstance(n.targets[0], ast.Name)
                ):
                    continue
                name = n.targets[0].id
                if counts.get(name, 0) != 1:
                    continue
                if any(isinstance(c, ast.Call) for c in ast.walk(n.value)):
                    continue
                chain = attr_chain(n.value)
                if chain is None or len(chain) < 2:
                    continue
                root = chain[0]
                if root in lock_names:
                    continue
                if root in candidates:
                    candidates[name] = candidates[root]
                elif root in params:
                    candidates[name] = "param"
                elif is_spawner and root in shared_free:
                    candidates[name] = "free"
                elif (
                    not is_spawner
                    and root not in assigned
                    and root not in module_names
                    and root not in self._builtins
                ):
                    candidates[name] = "free"
        return candidates

    # -- verdicts ----------------------------------------------------- #

    def _judge(
        self, mi: ModuleInfo, sites: List[_Site]
    ) -> Iterator[ProgramFinding]:
        by_key: Dict[str, List[_Site]] = {}
        for site in sites:
            by_key.setdefault(site[0], []).append(site)
        flagged: Set[str] = set()
        for key in sorted(by_key):
            group = by_key[key]
            contexts = {s[3] for s in group}
            writes = [s for s in group if s[2]]
            if len(contexts) < 2 or not writes:
                continue
            common = frozenset.intersection(*(s[4] for s in group))
            if common:
                continue
            flagged.add(key)
            first = min(writes, key=lambda s: (s[5], s[6]))
            held = {
                ctx: sorted(
                    set().union(*(s[4] for s in group if s[3] == ctx))
                )
                for ctx in sorted(contexts)
            }
            detail = ", ".join(
                f"{ctx}: {locks or ['<none>']}" for ctx, locks in held.items()
            )
            yield (
                mi,
                first[5],
                first[6],
                f"shared state '{key}' is written from "
                f"{len(contexts)} concurrent contexts with an empty "
                f"common lockset ({detail})",
            )
        for site in sites:
            key, cat, write, ctx, held_set, line, col = site
            if key in flagged or not write or cat != "free":
                continue
            if held_set:
                continue
            flagged.add(key)
            yield (
                mi,
                line,
                col,
                f"mutation of closure-shared state '{key}' in {ctx} "
                "outside any lock",
            )


# --------------------------------------------------------------------- #
# R9: clock domains
# --------------------------------------------------------------------- #


class ClockDomainRule(ProgramRule):
    """R9: per-shard ``SimClock`` timestamps must not mix across clock
    domains outside the sanctioned mapping helpers.

    Every shard owns an independent simulated clock; the deterministic
    scheduler additionally keeps a *global* virtual-time axis.  A
    timestamp (any ``<clock chain>.now_us`` / ``.now_s`` read) is tagged
    with its owning clock's canonical access chain, tags propagate
    through locals and timestamp+duration arithmetic, and the rule
    flags: subtracting or comparing timestamps from two different
    domains, and adding two absolute timestamps (meaningless in any
    domain).  Timestamp±duration stays legal — that is how offsets and
    elapsed times are computed on one clock.

    The only places allowed to bridge domains are the sanctioned
    helpers in :mod:`repro.service.service` (``global_end_us``,
    ``shard_elapsed_us``); their bodies are exempt and their call sites
    return untagged (global-axis) values.  Scope: ``repro.service``,
    where the two axes coexist.
    """

    rule_id = "R9"

    TS_ATTRS = frozenset({"now_us", "now_s"})
    SANCTIONED = frozenset({"global_end_us", "shard_elapsed_us"})

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
                                "sanctioned helpers in "
                                "repro.service.service",
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
    LocksetRule,
    ClockDomainRule,
    LifecycleRule,
)
