"""REP002 — writes to lock-guarded state outside its ``with`` block.

A lightweight lexical race detector for the invariants that keep the
NDFT operator cache and the stream's flush worker correct under
concurrent callers.  State is declared guarded with a trailing comment
on its defining assignment::

    _cache_hits = 0  # guarded-by: _OPERATOR_CACHE_LOCK

    self._executor: Executor | None = None  # guarded-by: self._executor_lock

Every *write* to a declared name elsewhere in the module — plain
assignment, augmented assignment, subscript store or ``del`` — must
then sit lexically inside ``with <lock>:`` (or ``async with``).  Reads
are not checked (this is a convention checker, not a model checker),
and neither are method-call mutations (``.clear()``, ``.pop()``) —
the convention trades completeness for zero false positives on the
hot paths it protects.

Scope rules:

* module-level statements are exempt (import time is single-threaded),
  as are class bodies;
* ``__init__`` / ``__post_init__`` are exempt for instance attributes
  (the instance is not yet shared);
* a plain-name rebind in a function only counts when the function
  declares ``global <name>`` (otherwise it creates a local); subscript
  stores on a guarded module name always count.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Diagnostic, SourceFile, dotted_path

_INIT_METHODS = frozenset({"__init__", "__post_init__"})

_Lock = tuple[str, ...]


def _assign_name_targets(stmt: ast.stmt) -> list[ast.expr]:
    """The store targets of an assignment-like statement, flattened."""
    if isinstance(stmt, ast.Assign):
        raw = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        raw = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        raw = list(stmt.targets)
    else:
        return []
    flat: list[ast.expr] = []
    stack = raw
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            flat.append(target)
    return flat


def _peel_subscripts(target: ast.expr) -> tuple[ast.expr, bool]:
    """The base expression under any subscript chain, and whether one existed."""
    subscripted = False
    while isinstance(target, ast.Subscript):
        subscripted = True
        target = target.value
    return target, subscripted


def _function_globals(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Global):
            names.update(node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


class UnguardedStateChecker:
    """REP002: guarded state is only written under its declared lock."""

    code = "REP002"
    name = "unguarded-shared-state"

    def check(self, source: SourceFile) -> Iterator[Diagnostic]:
        module_guards, attr_guards = self._collect_declarations(source)
        if not module_guards and not attr_guards:
            return
        yield from self._walk(
            source,
            source.tree.body,
            module_guards,
            attr_guards,
            class_name=None,
            locks=None,  # None => module/class scope: stores exempt
            global_names=frozenset(),
            init_exempt=False,
        )

    # ------------------------------------------------------------------
    # Declaration collection
    # ------------------------------------------------------------------
    def _collect_declarations(
        self, source: SourceFile
    ) -> tuple[dict[str, _Lock], dict[tuple[str, str], _Lock]]:
        module_guards: dict[str, _Lock] = {}
        attr_guards: dict[tuple[str, str], _Lock] = {}
        for stmt in source.tree.body:
            lock = self._declared_lock(source, stmt)
            if lock is None:
                continue
            for target in _assign_name_targets(stmt):
                if isinstance(target, ast.Name):
                    module_guards[target.id] = lock
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                lock = self._declared_lock(source, stmt)
                if lock is not None:
                    for target in _assign_name_targets(stmt):
                        if isinstance(target, ast.Name):
                            attr_guards[(node.name, target.id)] = lock
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for inner in ast.walk(stmt):
                        if not isinstance(inner, (ast.Assign, ast.AnnAssign)):
                            continue
                        lock = self._declared_lock(source, inner)
                        if lock is None:
                            continue
                        for target in _assign_name_targets(inner):
                            base = dotted_path(target)
                            if base is not None and len(base) == 2 and base[0] == "self":
                                attr_guards[(node.name, base[1])] = lock
        return module_guards, attr_guards

    @staticmethod
    def _declared_lock(source: SourceFile, stmt: ast.AST) -> _Lock | None:
        lineno = getattr(stmt, "lineno", None)
        if lineno is None:
            return None
        return source.guard_for_span(lineno, getattr(stmt, "end_lineno", None))

    # ------------------------------------------------------------------
    # Enforcement walk
    # ------------------------------------------------------------------
    def _walk(
        self,
        source: SourceFile,
        stmts: list[ast.stmt],
        module_guards: dict[str, _Lock],
        attr_guards: dict[tuple[str, str], _Lock],
        class_name: str | None,
        locks: list[_Lock] | None,
        global_names: frozenset[str],
        init_exempt: bool,
    ) -> Iterator[Diagnostic]:
        for stmt in stmts:
            if isinstance(stmt, ast.ClassDef):
                yield from self._walk(
                    source, stmt.body, module_guards, attr_guards,
                    class_name=stmt.name, locks=None,
                    global_names=frozenset(), init_exempt=False,
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk(
                    source, stmt.body, module_guards, attr_guards,
                    class_name=class_name, locks=[],
                    global_names=frozenset(_function_globals(stmt)),
                    init_exempt=(
                        class_name is not None and stmt.name in _INIT_METHODS
                    ) or init_exempt,
                )
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                if locks is None:
                    held: list[_Lock] | None = None
                else:
                    entered = [
                        path
                        for item in stmt.items
                        if (path := dotted_path(item.context_expr)) is not None
                    ]
                    held = locks + entered
                yield from self._walk(
                    source, stmt.body, module_guards, attr_guards,
                    class_name, held, global_names, init_exempt,
                )
            elif isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor)):
                yield from self._walk(
                    source, stmt.body, module_guards, attr_guards,
                    class_name, locks, global_names, init_exempt,
                )
                yield from self._walk(
                    source, stmt.orelse, module_guards, attr_guards,
                    class_name, locks, global_names, init_exempt,
                )
            elif isinstance(stmt, ast.Try):
                for body in (stmt.body, stmt.orelse, stmt.finalbody):
                    yield from self._walk(
                        source, body, module_guards, attr_guards,
                        class_name, locks, global_names, init_exempt,
                    )
                for handler in stmt.handlers:
                    yield from self._walk(
                        source, handler.body, module_guards, attr_guards,
                        class_name, locks, global_names, init_exempt,
                    )
            else:
                yield from self._check_stores(
                    source, stmt, module_guards, attr_guards,
                    class_name, locks, global_names, init_exempt,
                )

    def _check_stores(
        self,
        source: SourceFile,
        stmt: ast.stmt,
        module_guards: dict[str, _Lock],
        attr_guards: dict[tuple[str, str], _Lock],
        class_name: str | None,
        locks: list[_Lock] | None,
        global_names: frozenset[str],
        init_exempt: bool,
    ) -> Iterator[Diagnostic]:
        if locks is None:  # module or class body: import-time, single-threaded
            return
        if self._declared_lock(source, stmt) is not None:
            return  # the declaration itself
        for target in _assign_name_targets(stmt):
            base, subscripted = _peel_subscripts(target)
            lock: _Lock | None = None
            label = ""
            if isinstance(base, ast.Name):
                if base.id in module_guards and (
                    subscripted or base.id in global_names
                ):
                    lock = module_guards[base.id]
                    label = base.id
            else:
                path = dotted_path(base)
                if (
                    path is not None
                    and len(path) == 2
                    and path[0] == "self"
                    and class_name is not None
                    and (class_name, path[1]) in attr_guards
                ):
                    if init_exempt:
                        continue
                    lock = attr_guards[(class_name, path[1])]
                    label = f"self.{path[1]}"
            if lock is not None and lock not in locks:
                lock_name = ".".join(lock)
                finding = source.diag(
                    target,
                    self.code,
                    f"write to '{label}' (guarded-by: {lock_name}) outside "
                    f"'with {lock_name}:'",
                )
                if finding is not None:
                    yield finding
