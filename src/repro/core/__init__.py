"""Chronos core: the paper's algorithms.

Sub-modules map one-to-one onto the paper's sections:

* :mod:`repro.core.crt` — §4, time-of-flight from per-band phases via the
  Chinese-remainder structure (Fig. 3's alignment picture).
* :mod:`repro.core.interpolation` — §5, recovering the unmeasurable
  zero-subcarrier channel by interpolating the 30 reported subcarriers.
* :mod:`repro.core.ndft` / :mod:`repro.core.sparse` — §6, the non-uniform
  DFT over band center-frequencies and its sparse (Algorithm 1) inverse.
* :mod:`repro.core.profile` — §6, multipath profiles and first-peak ToF.
* :mod:`repro.core.cfo` — §7, forward×reverse reciprocity cancellation
  and the one-time constant-bias calibration.
* :mod:`repro.core.tof` — the full estimator pipeline.
* :mod:`repro.core.batch` — the batched N-link ranging engine over the
  cached NDFT operators.
* :mod:`repro.core.localization` — §8, distances → position.
* :mod:`repro.core.pipeline` — the device-to-device facade.
"""

from repro.core.batch import BatchTofEngine
from repro.core.crt import crt_align, integer_crt, phase_tof_candidates
from repro.core.interpolation import zero_subcarrier_csi
from repro.core.ndft import (
    NdftOperator,
    capped_window_s,
    get_grid_operator,
    get_operator,
    ndft_matrix,
    tau_grid,
)
from repro.core.sparse import (
    SparseSolverConfig,
    invert_ndft,
    invert_ndft_batch,
    soft_threshold,
)
from repro.core.profile import MultipathProfile, refine_first_peak
from repro.core.cfo import LinkCalibration, band_products
from repro.core.tof import TofEstimate, TofEstimator, TofEstimatorConfig
from repro.core.localization import (
    GeometryDrop,
    LocalizationResult,
    anchors_are_colinear,
    circle_intersections,
    filter_geometry_consistent,
    filter_geometry_consistent_detailed,
    locate_transmitter,
)
from repro.core.localization_batch import (
    filter_geometry_consistent_batch,
    locate_transmitter_batch,
    refine_positions_batch,
)
from repro.core.pipeline import ChronosDevice, ChronosPair

__all__ = [
    "BatchTofEngine",
    "crt_align",
    "integer_crt",
    "phase_tof_candidates",
    "zero_subcarrier_csi",
    "NdftOperator",
    "capped_window_s",
    "get_grid_operator",
    "get_operator",
    "ndft_matrix",
    "tau_grid",
    "SparseSolverConfig",
    "invert_ndft",
    "invert_ndft_batch",
    "soft_threshold",
    "MultipathProfile",
    "refine_first_peak",
    "LinkCalibration",
    "band_products",
    "TofEstimate",
    "TofEstimator",
    "TofEstimatorConfig",
    "GeometryDrop",
    "LocalizationResult",
    "anchors_are_colinear",
    "circle_intersections",
    "filter_geometry_consistent",
    "filter_geometry_consistent_batch",
    "filter_geometry_consistent_detailed",
    "locate_transmitter",
    "locate_transmitter_batch",
    "refine_positions_batch",
    "ChronosDevice",
    "ChronosPair",
]
