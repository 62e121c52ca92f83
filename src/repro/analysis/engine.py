"""Core machinery of the repo-native analysis engine.

One :class:`SourceFile` per analyzed module carries the parsed AST plus
the comment-derived side tables every rule needs: ``# noqa`` suppression
spans and ``# guarded-by:`` lock declarations.  Comments are read with
:mod:`tokenize` (not regex-over-lines), so a ``# noqa`` inside a string
literal never suppresses anything.

Checkers are plain objects with a ``code``, a ``name`` and a
``check(source)`` method yielding :class:`Diagnostic`; the engine sorts
and deduplicates their findings across files.  Suppression is applied
centrally: a checker emits through :meth:`SourceFile.diag`, which
returns ``None`` when the flagged line carries a matching ``# noqa``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

_NOQA_RE = re.compile(
    r"#\s*noqa(?P<sep>:\s*(?P<codes>[A-Z]+[0-9]+(?:[,\s]+[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)
_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][\w.]*)")
_CODE_RE = re.compile(r"[A-Z]+[0-9]+")

#: Directories never descended into when expanding path arguments.
SKIP_DIR_NAMES = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass(frozen=True)
class Diagnostic:
    """One finding, ruff-style: ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """The canonical single-line rendering of the finding."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class Checker(Protocol):
    """The interface every REP rule implements."""

    code: str
    name: str

    def check(self, source: SourceFile) -> Iterable[Diagnostic]:
        """Yield this rule's findings for one parsed module."""
        ...


@dataclass
class SourceFile:
    """One parsed module plus the comment side tables rules consult."""

    path: Path
    text: str
    tree: ast.Module
    #: line -> suppressed codes; ``None`` means a blanket ``# noqa``.
    noqa: dict[int, frozenset[str] | None] = field(default_factory=dict)
    #: line -> dotted lock path from a ``# guarded-by:`` comment.
    guards: dict[int, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, text: str) -> SourceFile:
        """Parse a module and index its analysis-relevant comments.

        Raises :class:`SyntaxError` for callers to surface (the runner
        converts it into a ``REP000`` diagnostic so a broken file fails
        the check instead of silently passing it).
        """
        tree = ast.parse(text, filename=str(path))
        source = cls(path=path, text=text, tree=tree)
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            tokens = []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            line = token.start[0]
            noqa = _NOQA_RE.search(token.string)
            if noqa is not None:
                codes = noqa.group("codes")
                if codes is None:
                    source.noqa[line] = None
                else:
                    found = frozenset(
                        c.upper() for c in _CODE_RE.findall(codes.upper())
                    )
                    previous = source.noqa.get(line)
                    if previous is not None:
                        source.noqa[line] = found | (previous or frozenset())
                    # an existing blanket noqa already covers everything
                    elif line not in source.noqa:
                        source.noqa[line] = found
            guard = _GUARDED_BY_RE.search(token.string)
            if guard is not None:
                source.guards[line] = tuple(guard.group("lock").split("."))
        return source

    def suppressed(self, line: int, code: str) -> bool:
        """Whether ``code`` is ``# noqa``-suppressed on ``line``."""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or code in codes

    def diag(
        self, node: ast.AST, code: str, message: str
    ) -> Diagnostic | None:
        """A diagnostic anchored at ``node`` — or ``None`` if suppressed."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressed(line, code):
            return None
        return Diagnostic(
            path=str(self.path), line=line, col=col + 1, code=code,
            message=message,
        )

    def guard_for_span(self, lineno: int, end_lineno: int | None) -> tuple[str, ...] | None:
        """The ``# guarded-by:`` lock declared on a statement's lines."""
        for line in range(lineno, (end_lineno or lineno) + 1):
            lock = self.guards.get(line)
            if lock is not None:
                return lock
        return None


def dotted_path(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")`` — ``None`` for non-dotted exprs.

    The shared normal form for comparing ``with <lock>:`` context
    expressions against ``# guarded-by:`` declarations.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to analyze."""
    for path in paths:
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if not SKIP_DIR_NAMES.intersection(child.parts):
                    yield child
        elif path.suffix == ".py":
            yield path


def check_paths(
    paths: Sequence[Path | str],
    checkers: Sequence[Checker] | None = None,
    select: Sequence[str] | None = None,
) -> list[Diagnostic]:
    """Run the (selected) checkers over every Python file under ``paths``.

    Args:
        paths: Files and/or directories.
        checkers: Rule set; defaults to :data:`~repro.analysis.rules.ALL_CHECKERS`.
        select: Optional rule codes to run (e.g. ``["REP003"]``); the
            default runs every checker.

    Returns:
        Findings sorted by path, line, column, code.

    Raises:
        FileNotFoundError: When a named path does not exist.
    """
    if checkers is None:
        from repro.analysis.rules import ALL_CHECKERS

        checkers = ALL_CHECKERS
    if select is not None:
        wanted = {code.upper() for code in select}
        unknown = wanted - {checker.code for checker in checkers}
        if unknown:
            raise ValueError(
                f"unknown rule code(s): {', '.join(sorted(unknown))}"
            )
        checkers = [checker for checker in checkers if checker.code in wanted]
    resolved = [Path(p) for p in paths]
    for path in resolved:
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    diagnostics: list[Diagnostic] = []
    for file_path in iter_python_files(resolved):
        text = file_path.read_text(encoding="utf-8")
        try:
            source = SourceFile.parse(file_path, text)
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    path=str(file_path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    code="REP000",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        for checker in checkers:
            for finding in checker.check(source):
                diagnostics.append(finding)
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.code))
    return diagnostics
