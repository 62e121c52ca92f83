"""Repo-native static analysis for the Chronos serving stack.

The stack's correctness rests on invariants no generic linter knows
about: blocking work must stay off the asyncio event loop, shared state
must only be written under its declared lock, the request API must
stay frozen, and every physical quantity must carry its unit in its
name (sub-nanosecond ranging dies quietly on an ns-vs-s or m-vs-ticks
mixup).  This package encodes those invariants as AST checkers with
ruff-style diagnostics:

========  =============================================================
Rule      Invariant
========  =============================================================
REP001    No blocking calls inside ``async def`` (``time.sleep``,
          ``Future.result()``, ``Lock.acquire()``, or a direct
          engine/service solve) — route through ``run_in_executor``.
REP002    Writes to ``# guarded-by: <lock>`` state must happen inside
          ``with <lock>:`` — a lightweight lexical race detector.
REP003    Request/hint/config types (``LinkRequest`` and subclasses,
          ``*Hint``, ``*Config``) must be ``@dataclass(frozen=True)``.
REP004    Float fields and parameters in ``core``/``rf``/``wifi`` must
          name their unit (``_s``, ``_m``, ``_hz``, ``_db``, ``_rad``,
          …) or be explicitly allowlisted as unitless.
REP006    Public ``core``/``rf``/``wifi`` functions taking or returning
          ndarrays must state the contract: a dtype-pinned
          ``NDArray[...]`` alias (``repro.core.typing``) or a
          ``@shaped`` runtime contract — never bare ``np.ndarray``.
REP007    ``# noqa: REPxxx`` comments must still suppress a live
          finding (stale suppressions are camouflage, RUF100-style).
========  =============================================================

Run it as ``python -m repro.analysis check <paths>``; suppress a single
finding with ``# noqa: REPxxx`` on the flagged line.

The package also ships the debug-mode runtime half of the ndarray
contract story: :func:`repro.analysis.contracts.shaped`, a
shape-spec-DSL decorator enabled under ``REPRO_CHECK_CONTRACTS=1``
(the test suite turns it on; production pays a no-op attribute read).
"""

from __future__ import annotations

from repro.analysis.contracts import ContractError, contracts_enabled, shaped
from repro.analysis.engine import Checker, Diagnostic, SourceFile, check_paths
from repro.analysis.rules import ALL_CHECKERS

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "ContractError",
    "Diagnostic",
    "SourceFile",
    "check_paths",
    "contracts_enabled",
    "shaped",
]
