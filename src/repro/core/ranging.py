"""Distance-error helpers on top of raw ToF measurements.

The paper's §9 drone controller "can average across these invocations
and reject outliers to maintain this distance at a much higher accuracy
than Chronos's native algorithm"; that loop is
:class:`repro.stream.tracker.LinkTracker`.  This module keeps the error
metric the drone experiment reports.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.typing import FloatVector


def rmse(errors_m: FloatVector | Sequence[float]) -> float:
    """Root-mean-square of a set of errors (Fig. 10a's metric)."""
    errs = np.asarray(errors_m, dtype=float)
    if errs.size == 0:
        raise ValueError("need at least one error value")
    return float(np.sqrt(np.mean(errs**2)))
