"""Multipath profiles and first-peak time-of-flight extraction (§6).

The sparse inverse-NDFT yields a complex vector over the candidate-delay
grid; its magnitude is the *multipath profile* (paper Fig. 4b / Fig. 7b).
Chronos's final step is geometric: the **first** dominant peak is the
direct path, and its delay is the time-of-flight.

Two refinements implemented here matter for sub-nanosecond accuracy:

* grid peaks are clustered (ISTA smears one physical path over adjacent
  bins) and reported at their power-weighted centroid;
* the first peak is then re-fit off-grid: amplitudes of all detected
  paths are re-estimated by least squares (debiasing — L1 shrinks them)
  and the first path's delay is locally optimized against the raw
  channel measurements (a matched-filter polish on the residual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.ndft import ndft_matrix, steering_vector
from repro.core.typing import (
    ComplexCSI,
    ComplexProfile,
    DelayVector,
    FloatVector,
    FrequencyVector,
)


@dataclass(frozen=True)
class ProfilePeak:
    """One resolved path in a multipath profile."""

    delay_s: float
    power: float

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError(f"peak power must be non-negative, got {self.power}")


class MultipathProfile:
    """The paper's multipath profile: power versus propagation delay.

    Args:
        taus_s: The candidate-delay grid.
        amplitudes: Complex (or magnitude) profile values on the grid.
        dominance_threshold_rel: Peaks below this fraction of the maximum
            *power* are ignored as noise/sidelobes.
    """

    def __init__(
        self,
        taus_s: DelayVector | Sequence[float],
        amplitudes: ComplexProfile | Sequence[complex],
        dominance_threshold_rel: float = 0.05,
    ):
        taus = np.asarray(taus_s, dtype=float)
        amps = np.asarray(amplitudes)
        if taus.shape != amps.shape:
            raise ValueError(
                f"grid shape {taus.shape} does not match profile {amps.shape}"
            )
        if len(taus) < 3:
            raise ValueError("a profile needs at least 3 grid points")
        if not 0.0 < dominance_threshold_rel < 1.0:
            raise ValueError(
                "dominance threshold must be in (0, 1), got "
                f"{dominance_threshold_rel}"
            )
        self.taus_s = taus
        # The complex L1 solution is kept alongside the power view,
        # which loses the phase.
        self.amplitudes = np.asarray(amps, dtype=complex)
        self.power = np.abs(amps) ** 2
        self.dominance_threshold_rel = dominance_threshold_rel

    def __repr__(self) -> str:
        peaks = self.peaks()
        first = f"{peaks[0].delay_s * 1e9:.2f} ns" if peaks else "none"
        return f"MultipathProfile(n_peaks={len(peaks)}, first={first})"

    @property
    def grid_step_s(self) -> float:
        """Spacing of the delay grid."""
        return float(self.taus_s[1] - self.taus_s[0])

    def peaks(self, threshold_rel: float | None = None) -> list[ProfilePeak]:
        """Dominant peaks, earliest first.

        Two-level rule: grid bins above a low floor (one fifth of the
        dominance threshold, relative to the strongest bin) are clustered
        into contiguous runs — the sparse solver often splits one
        physical path across neighbouring bins — and each cluster is
        reported at its power-weighted centroid.  Clusters whose *total*
        power falls below ``threshold_rel`` of the strongest cluster are
        then discarded: comparing cluster sums (not single bins) is what
        keeps solver crumbs from masquerading as early paths.
        """
        threshold_rel = (
            self.dominance_threshold_rel if threshold_rel is None else threshold_rel
        )
        peak_power = float(self.power.max())
        if peak_power <= 0.0:
            return []
        floor = peak_power * threshold_rel / 5.0
        above = self.power >= floor
        clusters: list[ProfilePeak] = []
        i = 0
        n = len(above)
        while i < n:
            if not above[i]:
                i += 1
                continue
            j = i
            while j + 1 < n and above[j + 1]:
                j += 1
            cluster_power = self.power[i : j + 1]
            cluster_taus = self.taus_s[i : j + 1]
            total = float(cluster_power.sum())
            centroid = float((cluster_taus * cluster_power).sum() / total)
            clusters.append(ProfilePeak(delay_s=centroid, power=total))
            i = j + 1
        if not clusters:
            return []
        strongest = max(c.power for c in clusters)
        return [c for c in clusters if c.power >= threshold_rel * strongest]

    def first_peak(self, threshold_rel: float | None = None) -> ProfilePeak:
        """The earliest dominant peak — the direct path (§6).

        Raises ``ValueError`` on an empty profile.
        """
        peaks = self.peaks(threshold_rel)
        if not peaks:
            raise ValueError("profile has no peaks above the dominance threshold")
        return peaks[0]

    def strongest_peak(self) -> ProfilePeak:
        """The highest-power peak (not necessarily the direct path)."""
        peaks = self.peaks()
        if not peaks:
            raise ValueError("profile has no peaks above the dominance threshold")
        return max(peaks, key=lambda p: p.power)

    def dominant_peak_count(self, threshold_rel: float | None = None) -> int:
        """Number of dominant peaks — the paper's §12.1 sparsity metric."""
        return len(self.peaks(threshold_rel))

    def normalized_power(self) -> FloatVector:
        """Power scaled so the maximum is 1 (for plotting/reporting)."""
        peak = self.power.max()
        return self.power / peak if peak > 0 else self.power.copy()


@dataclass(frozen=True)
class RefinedPath:
    """One path after off-grid refinement: delay plus debiased amplitude."""

    delay_s: float
    amplitude: complex

    @property
    def power(self) -> float:
        """Debiased path power."""
        return float(abs(self.amplitude) ** 2)


def refine_paths(
    profile: MultipathProfile,
    channels: ComplexCSI | Sequence[complex],
    frequencies_hz: FrequencyVector | Sequence[float],
    n_refine_iterations: int = 3,
    threshold_rel: float | None = None,
    amplitude_keep_rel: float | None = None,
) -> list[RefinedPath]:
    """Off-grid refinement and validation of the detected paths.

    Alternates three steps over the detected peak delays:

    1. **Debias**: least-squares re-fit of complex path amplitudes at the
       current delays (L1 regularization biases amplitudes low; the LS
       re-fit removes that bias given the support).  The channels passed
       here may span *more* bands than the profile's coarse inversion
       did — the wider aperture then also validates each candidate.
    2. **Prune**: candidates whose debiased amplitude falls below
       ``amplitude_keep_rel`` of the strongest are artifacts of the
       coarse grid (noise crumbs, CRT pseudo-aliases) and are dropped.
    3. **Local delay polish**: a dense-scan + golden-section refit of
       each surviving delay within ± one grid step.

    Returns the surviving paths sorted by delay.  The earliest one is
    the direct path — the paper's time-of-flight.
    """
    peaks = profile.peaks(threshold_rel)
    if not peaks:
        raise ValueError("cannot refine an empty profile")
    if amplitude_keep_rel is None:
        amplitude_keep_rel = math.sqrt(profile.dominance_threshold_rel)
    h = np.asarray(channels, dtype=complex)
    freqs = np.asarray(frequencies_hz, dtype=float)
    # Cap the support: the LS debias needs the system comfortably
    # over-determined, or correlated columns start splitting energy into
    # phantom components.
    max_support = max(2, len(freqs) // 3)
    if len(peaks) > max_support:
        strongest = sorted(peaks, key=lambda p: -p.power)[:max_support]
        peaks = sorted(strongest, key=lambda p: p.delay_s)
    delays = np.array([p.delay_s for p in peaks], dtype=float)
    step = profile.grid_step_s

    amps = _least_squares_amplitudes(h, freqs, delays)
    for _ in range(n_refine_iterations):
        keep = np.abs(amps) >= amplitude_keep_rel * np.abs(amps).max()
        if keep.any() and not keep.all():
            delays = delays[keep]
            amps = amps[keep]
        for k in range(len(delays)):
            delays[k] = _polish_single_delay(h, freqs, delays, amps, k, step)
        order = np.argsort(delays)
        delays = delays[order]
        amps = _least_squares_amplitudes(h, freqs, delays)
    return [RefinedPath(float(d), complex(a)) for d, a in zip(delays, amps, strict=True)]


def refine_first_peak(
    profile: MultipathProfile,
    channels: ComplexCSI | Sequence[complex],
    frequencies_hz: FrequencyVector | Sequence[float],
    n_refine_iterations: int = 3,
    threshold_rel: float | None = None,
) -> float:
    """Refined delay of the direct path (earliest validated component)."""
    refined = refine_paths(
        profile, channels, frequencies_hz, n_refine_iterations, threshold_rel
    )
    return refined[0].delay_s


def _least_squares_amplitudes(
    h: np.ndarray, freqs: np.ndarray, delays: np.ndarray
) -> np.ndarray:
    """Complex LS amplitudes for fixed delays (the debias step)."""
    F = ndft_matrix(freqs, delays)
    amps, *_ = np.linalg.lstsq(F, h, rcond=None)
    return amps


def _polish_single_delay(
    h: np.ndarray,
    freqs: np.ndarray,
    delays: np.ndarray,
    amps: np.ndarray,
    index: int,
    half_window_s: float,
) -> float:
    """Local refit of one path delay against the residual.

    All other paths are subtracted at their current estimates, then the
    remaining single-path delay is fit by maximizing the matched-filter
    correlation (equivalent to minimizing the LS residual for one tone).

    The stitched-band correlation has sidelobes *inside* a ±grid-step
    window, so a golden-section search alone can lock onto the wrong
    lobe; a dense scan first isolates the main lobe, and the golden
    search then polishes within one scan step of it.
    """
    others = np.delete(np.arange(len(delays)), index)
    residual = h - ndft_matrix(freqs, delays[others]) @ amps[others]

    def correlation(tau_s: float) -> float:
        return float(np.abs(np.vdot(steering_vector(freqs, tau_s), residual)))

    lo = max(delays[index] - half_window_s, 0.0)
    hi = delays[index] + half_window_s
    scan = np.linspace(lo, hi, 49)
    scan_step = scan[1] - scan[0]
    coarse = scan[int(np.argmax(scan_correlations(residual, freqs, scan)))]
    return _golden_max(correlation, max(coarse - scan_step, 0.0), coarse + scan_step)


def scan_correlations(
    residual: ComplexCSI, freqs: FrequencyVector, taus_s: DelayVector
) -> FloatVector:
    """``|⟨a(τ), r⟩|`` for every scan delay in one matrix product.

    One GEMV instead of one steering-vector build plus one vdot per
    scan point — the dense scans inside the per-path polish loops are
    the hot tail of every estimate, so this matters for throughput.
    """
    phases = np.exp(2.0j * np.pi * np.outer(taus_s, freqs))
    return np.abs(phases @ residual)


def _golden_max(
    fn: Callable[[float], float], lo_s: float, hi_s: float, tol_s: float = 1e-13
) -> float:
    """Golden-section maximization of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo_s, hi_s
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol_s:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def profile_from_paths(
    taus_s: DelayVector | Sequence[float],
    delays_s: Sequence[float],
    amplitudes: Sequence[float],
) -> MultipathProfile:
    """Rasterize ground-truth paths onto a grid (test/plot helper)."""
    taus = np.asarray(taus_s, dtype=float)
    amps = np.zeros(len(taus), dtype=complex)
    for d, a in zip(delays_s, amplitudes, strict=True):
        idx = int(np.argmin(np.abs(taus - d)))
        amps[idx] += a
    return MultipathProfile(taus, amps)
