"""REP003 — request/hint/config types must be frozen dataclasses.

The serving stack passes :class:`~repro.net.service.LinkRequest`
objects across coroutines and worker threads.  A mutable
request would let one layer's edit leak into another's in-flight solve
— the whole request API is therefore immutable by contract:
``@dataclass(frozen=True)``, enforced here for

* ``LinkRequest`` and every class whose name ends in ``Request``,
  ``Response``, ``Hint`` or ``Config``;
* any class that subclasses a known request type (a subclass of a
  frozen dataclass that is itself a non-frozen dataclass re-opens
  mutability for its own fields).

``typing.Protocol`` classes and ``enum.Enum`` subclasses are exempt
(they are interfaces/constants, not payloads).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Diagnostic, SourceFile, dotted_path

_FROZEN_NAMES = frozenset({"LinkRequest"})
_FROZEN_SUFFIXES = ("Request", "Response", "Hint", "Config")
_REQUEST_BASES = frozenset({"LinkRequest", "RangingRequest", "SweepRequest"})
_EXEMPT_BASES = frozenset({"Protocol", "Enum", "IntEnum", "StrEnum", "Flag"})


def _base_names(node: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in node.bases:
        path = dotted_path(base)
        if path is not None:
            names.add(path[-1])
    return names


def _dataclass_decorator(node: ast.ClassDef) -> tuple[bool, ast.AST | None]:
    """``(is_dataclass, decorator_node)`` for a class definition."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        path = dotted_path(target)
        if path is not None and path[-1] == "dataclass":
            return True, decorator
    return False, None


def _is_frozen(decorator: ast.AST) -> bool:
    if not isinstance(decorator, ast.Call):
        return False  # bare @dataclass
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


class FrozenRequestChecker:
    """REP003: the request/hint/config API stays immutable."""

    code = "REP003"
    name = "mutable-request-type"

    def check(self, source: SourceFile) -> Iterator[Diagnostic]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = _base_names(node)
            if bases & _EXEMPT_BASES:
                continue
            targeted = (
                node.name in _FROZEN_NAMES
                or node.name.endswith(_FROZEN_SUFFIXES)
                or bool(bases & _REQUEST_BASES)
            )
            if not targeted:
                continue
            is_dataclass, decorator = _dataclass_decorator(node)
            if not is_dataclass:
                finding = source.diag(
                    node,
                    self.code,
                    f"'{node.name}' is part of the request/config API and "
                    "must be a '@dataclass(frozen=True)'",
                )
            elif decorator is not None and not _is_frozen(decorator):
                finding = source.diag(
                    node,
                    self.code,
                    f"'{node.name}' must be declared '@dataclass(frozen=True)' "
                    "— mutable request/config types leak edits into in-flight "
                    "solves",
                )
            else:
                continue
            if finding is not None:
                yield finding
