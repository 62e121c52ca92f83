"""Carrier-frequency-offset cancellation and one-time calibration (§7).

The reciprocity product (forward CSI × reverse CSI) cancels the unknown
per-packet phase that CFO imposes, because transmitter and receiver swap
roles between a packet and its ACK: the offsets are equal and opposite
(Eqns. 11–13).  What survives is

* the **squared** channel ``h²`` — so the multipath profile's first peak
  lands at **2τ** (or 8τ when the 2.4 GHz quirk's 4th power is used);
* the device constant κ — a flat complex factor, invisible to peak
  *positions* (a global phase does not move profile peaks);
* constant chain group delays — a fixed ToF bias, removed by the paper's
  one-time known-distance calibration (§7, observation 2);
* a small residual ``2πΔf·(t₁−t₂)`` phase from the packet→ACK turnaround,
  suppressed by averaging products over several packets (observation 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.interpolation import zero_subcarrier_products
from repro.core.typing import ComplexCSI, FrequencyVector
from repro.wifi.bands import Band
from repro.wifi.csi import CsiSweep

from repro.rf.constants import SPEED_OF_LIGHT


def band_products(
    sweep: CsiSweep,
    power: int = 1,
    band_filter: Callable[[Band], bool] | None = None,
) -> tuple[FrequencyVector, ComplexCSI]:
    """Per-band averaged reciprocity products at subcarrier 0.

    The selected part of the sweep runs as one stacked pass
    (:func:`~repro.core.interpolation.zero_subcarrier_products`): every
    (band, packet, direction) CSI row goes into one
    ``(2·n_packets, k)`` array, which gets one power, one phase-slope
    pass, one de-rotation and one matrix-vector product with the
    layout's cached spline weights.  Forward × reverse then gives each
    packet's product, and each band's products are averaged over the
    packets exchanged during its dwell — the §7 packet-averaging that
    suppresses residual-CFO error.

    Args:
        sweep: A full (possibly multi-packet-per-band) CSI sweep.
        power: CSI power applied before interpolation (4 for the 2.4 GHz
            quirk workaround, else 1).
        band_filter: Optional predicate selecting bands.

    Returns:
        ``(frequencies_hz, products)`` — ascending band centers and one
        averaged complex product per band.

    Raises:
        ValueError: the filter selects no band; a selected CSI row is
            not finite (the message names its band, packet and
            direction); or the sweep mixes subcarrier layouts.
    """
    bands = [
        (center_hz, measurements)
        for center_hz, measurements in sweep.by_band().items()
        if band_filter is None or band_filter(measurements[0].band)
    ]
    if not bands:
        raise ValueError("band filter removed every band from the sweep")
    products = zero_subcarrier_products([m for _, ms in bands for m in ms], power)
    counts = np.array([len(ms) for _, ms in bands])
    starts = np.cumsum(counts) - counts
    means = np.empty(len(bands), dtype=complex)
    # Bands with equal packet counts average as rows of one array: a
    # contiguous row's mean is np.mean of that band's products alone.
    for n in np.unique(counts):
        same = counts == n
        means[same] = products[starts[same, None] + np.arange(n)].mean(axis=1)
    return np.array([center_hz for center_hz, _ in bands], dtype=float), means


@dataclass(frozen=True)
class LinkCalibration:
    """The paper's one-time constant-bias calibration (§7, observation 2).

    Chain delays (and any other location-independent constants) shift
    every ToF estimate by the same amount.  Measuring once at a known
    distance captures that offset; subtracting it afterwards removes it.

    Attributes:
        tof_bias_s: Estimated ToF minus true ToF at the reference
            placement (positive: the pipeline over-estimates).
        coarse_bias_s: Round-trip slope delay minus ``2 × raw ToF
            estimate`` at the reference placement.  Fitting against the
            *raw* (uncalibrated) estimate keeps the coarse gate in the
            same delay domain as the profile atoms (2τ + chain delays),
            so it can bound them directly; the residual bias is then
            just twice the mean packet-detection delay.  ``None`` when
            the calibration measurement did not record it.
    """

    tof_bias_s: float = 0.0
    coarse_bias_s: float | None = None

    def apply(self, tof_s: float) -> float:
        """Remove the constant bias from a raw ToF estimate."""
        return tof_s - self.tof_bias_s

    def coarse_round_trip_to_raw_2tau(self, coarse_rt_s: float) -> float | None:
        """Convert a round-trip slope delay to the raw-atom 2τ domain.

        Returns ``None`` when no coarse calibration exists.
        """
        if self.coarse_bias_s is None:
            return None
        return coarse_rt_s - self.coarse_bias_s

    @staticmethod
    def fit(
        measured_tof_s: float,
        true_tof_s: float,
        measured_coarse_rt_s: float | None = None,
    ) -> "LinkCalibration":
        """Build a calibration from a known-distance measurement.

        ``measured_tof_s`` must be the *raw* (uncalibrated) estimate at
        the reference placement.  Every argument given must be finite: a
        NaN bias would silently turn off the coarse gate for every later
        link of the device pair.
        """
        given = {
            "measured_tof_s": measured_tof_s,
            "true_tof_s": true_tof_s,
            "measured_coarse_rt_s": measured_coarse_rt_s,
        }
        for name, value in given.items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"calibration needs a finite {name}, got {value}")
        coarse_bias = None
        if measured_coarse_rt_s is not None:
            coarse_bias = measured_coarse_rt_s - 2.0 * measured_tof_s
        return LinkCalibration(
            tof_bias_s=measured_tof_s - true_tof_s, coarse_bias_s=coarse_bias
        )

    @staticmethod
    def fit_from_distance(
        measured_tof_s: float,
        true_distance_m: float,
        measured_coarse_rt_s: float | None = None,
    ) -> "LinkCalibration":
        """Convenience: the reference is usually a laser-measured distance."""
        if true_distance_m < 0:
            raise ValueError(f"distance must be non-negative, got {true_distance_m}")
        return LinkCalibration.fit(
            measured_tof_s, true_distance_m / SPEED_OF_LIGHT, measured_coarse_rt_s
        )
