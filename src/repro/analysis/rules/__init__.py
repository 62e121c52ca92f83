"""The REP rule registry.

One module per rule keeps each invariant's logic (and its tests)
self-contained; this package exports the canonical ordered tuple the
engine and CLI run by default.
"""

from __future__ import annotations

from repro.analysis.engine import Checker
from repro.analysis.rules.rep001_blocking import BlockingCallChecker
from repro.analysis.rules.rep002_guards import UnguardedStateChecker
from repro.analysis.rules.rep003_frozen import FrozenRequestChecker
from repro.analysis.rules.rep004_units import UnitSuffixChecker
from repro.analysis.rules.rep006_ndarray import NdarrayContractChecker
from repro.analysis.rules.rep007_unused_noqa import UnusedSuppressionChecker

ALL_CHECKERS: tuple[Checker, ...] = (
    BlockingCallChecker(),
    UnguardedStateChecker(),
    FrozenRequestChecker(),
    UnitSuffixChecker(),
    NdarrayContractChecker(),
    UnusedSuppressionChecker(),
)

__all__ = [
    "ALL_CHECKERS",
    "BlockingCallChecker",
    "UnguardedStateChecker",
    "FrozenRequestChecker",
    "UnitSuffixChecker",
    "NdarrayContractChecker",
    "UnusedSuppressionChecker",
]
