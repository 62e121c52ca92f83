"""The full Chronos time-of-flight estimator (§4–§7 end to end).

Pipeline for one CSI sweep:

1. **Zero-subcarrier recovery** (§5): spline-interpolate each direction's
   30 subcarriers to subcarrier 0, per band, per packet.
2. **CFO cancellation** (§7): multiply forward × reverse values and
   average the products over the packets of each band's dwell.
3. **Band grouping**: with the Intel 5300's 2.4 GHz quirk the 2.4 GHz
   bands are processed on the 4th power of the CSI (profile peaks at 8τ)
   separately from the 5 GHz bands (peaks at 2τ).  Quirk-free hardware
   lets all 35 bands join a single inversion.
4. **Sparse inverse NDFT** (§6, Algorithm 1) per group, first dominant
   peak, off-grid refinement.
5. **Fusion + calibration**: group estimates are fused (span-weighted —
   wider stitched bandwidth earns more trust) and the one-time constant
   bias (§7, observation 2) is subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.cfo import LinkCalibration, band_products
from repro.core.deflation import DeflationConfig
from repro.core.ndft import tau_grid
from repro.core.profile import MultipathProfile, RefinedPath, refine_first_peak
from repro.core.sparse import SparseSolverConfig
from repro.core.typing import BoolMask, ComplexCSI, FrequencyVector
from repro.rf.constants import SPEED_OF_LIGHT
from repro.wifi.bands import Band
from repro.wifi.csi import CsiSweep


@dataclass(frozen=True)
class TofEstimatorConfig:
    """Tuning of the end-to-end estimator.

    Attributes:
        grid_step_s: Delay-grid spacing for the inverse NDFT.
        max_profile_delay_s: Upper edge of the delay grid.  The combined
            2.4+5 GHz plan's frequency GCD is 1 MHz, making the formal
            alias-free window 1 µs; physically, indoor profiles die out
            within a few hundred ns (and the reciprocity square doubles
            delays), so the grid is capped here for speed and to starve
            far sidelobes.
        sparse: Algorithm 1 settings.
        peak_threshold_rel: Dominance threshold for profile peaks —
            relative *power*, so 0.05 keeps paths within ~13 dB of the
            strongest.
        method: ``"hybrid"`` (default) extracts the time-of-flight by
            greedy off-grid deflation — immune to the grid/pseudo-alias
            pathologies of on-grid L1 on stitched apertures — and solves
            the L1 profile for diagnostics and figures only for each
            link's primary group, the one :attr:`TofEstimate.profile`
            returns.  ``"ista"`` takes the first peak straight from the
            Algorithm 1 profile of every group plus local refinement
            (the paper-literal reading).
        deflation: Settings of the greedy extractor (hybrid method).
        first_peak_amplitude_rel: Amplitude validation for the first-peak
            rule — leading atoms weaker than this fraction of the
            strongest are noise fits, not the direct path.
        coarse_gate_margin_s: Safety margin (in the 2τ domain) subtracted
            from the slope-based coarse range estimate before it gates
            first-peak selection.  The slope estimate runs *late* of the
            true 2τ by a multipath-weighted bias, never early, so the
            margin only needs to cover that bias plus averaging noise.
            Gating requires a calibration that recorded the coarse bias.
        compute_profile: Hybrid method only: skip the (cost-dominating)
            L1 inversion of each link's primary group when False; that
            group's profile is then rasterized from its extracted paths,
            as every other group's always is.  Experiment drivers that
            only need ToF and run thousands of estimates set this to
            False.  The ista method always solves every group's profile,
            because its ToF reads it.
        refine: Enable off-grid first-peak refinement (ista method).
        quirk_2g4: The hardware reports 2.4 GHz phase mod π/2 (Intel
            5300); route those bands through the 4th-power workaround.
        use_2g4 / use_5g: Band-group selection (ablation knob).
        fuse_tolerance_s: Secondary group estimates farther than this
            from the primary are treated as aliased/broken and dropped.
    """

    grid_step_s: float = 0.5e-9
    max_profile_delay_s: float = 500e-9
    sparse: SparseSolverConfig = field(default_factory=SparseSolverConfig)
    peak_threshold_rel: float = 0.05
    method: str = "hybrid"
    deflation: DeflationConfig = field(default_factory=DeflationConfig)
    first_peak_amplitude_rel: float = 0.25
    coarse_gate_margin_s: float = 15e-9
    compute_profile: bool = True
    refine: bool = True
    quirk_2g4: bool = True
    use_2g4: bool = True
    use_5g: bool = True
    fuse_tolerance_s: float = 3e-9

    def __post_init__(self) -> None:
        if self.grid_step_s <= 0:
            raise ValueError(f"grid step must be positive, got {self.grid_step_s}")
        if self.max_profile_delay_s <= self.grid_step_s:
            raise ValueError(
                "max profile delay must exceed the grid step, got "
                f"{self.max_profile_delay_s}"
            )
        if not 0.0 < self.peak_threshold_rel < 1.0:
            raise ValueError(
                f"peak threshold must be in (0,1), got {self.peak_threshold_rel}"
            )
        if not (self.use_2g4 or self.use_5g):
            raise ValueError("at least one band group must be enabled")
        if self.method not in ("hybrid", "ista"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.first_peak_amplitude_rel <= 1.0:
            raise ValueError(
                "first_peak_amplitude_rel must be in (0,1], got "
                f"{self.first_peak_amplitude_rel}"
            )


def primary_index(spans_hz: Sequence[float]) -> int:
    """Which of a link's band groups is its primary: the widest span,
    the first on ties.

    Fusion trusts the primary group most, :attr:`TofEstimate.profile`
    returns its profile, and the hybrid engine solves the L1 profile
    for it alone.
    """
    return max(range(len(spans_hz)), key=spans_hz.__getitem__)


@dataclass(frozen=True)
class GroupEstimate:
    """One band-group's contribution to the fused ToF.

    ``paths`` holds the hybrid method's extracted atoms after ghost
    pruning and the full-aperture refit, the candidates its first-path
    rule chose from; the ista method leaves it empty.

    ``profile`` is the group's Algorithm 1 (L1) profile under the ista
    method.  Under the hybrid method only the link's primary group
    (:func:`primary_index`) gets the L1 profile, and only with
    ``compute_profile``; every other group's profile is rasterized from
    its ``paths``.
    """

    name: str
    tof_s: float
    span_hz: float
    n_bands: int
    exponent: int
    profile: MultipathProfile
    paths: tuple[RefinedPath, ...] = ()


@dataclass(frozen=True)
class TofEstimate:
    """The estimator's output for one (or several averaged) sweeps.

    Attributes:
        tof_s: Calibrated time-of-flight in seconds.
        raw_tof_s: Before calibration-bias subtraction.
        groups: Per-band-group estimates (diagnostics, Fig. 7b data).
        n_bands: Total bands that contributed.
    """

    tof_s: float
    raw_tof_s: float
    groups: tuple[GroupEstimate, ...]
    n_bands: int
    coarse_round_trip_s: float | None = None

    @property
    def distance_m(self) -> float:
        """ToF converted to one-way distance."""
        return self.tof_s * SPEED_OF_LIGHT

    @property
    def profile(self) -> MultipathProfile:
        """The primary (widest-span) group's multipath profile.

        It is the L1 profile when the estimator solves one (the ista
        method, or the hybrid method with ``compute_profile``), and a
        raster of the group's extracted paths otherwise.  Note the
        profile's delay axis is ``exponent × τ`` (2τ for the
        reciprocity square, 8τ for the quirk workaround).
        """
        return self._primary().profile

    @property
    def profile_exponent(self) -> int:
        """Delay-axis scale of :attr:`profile`."""
        return self._primary().exponent

    def _primary(self) -> GroupEstimate:
        return self.groups[primary_index([g.span_hz for g in self.groups])]


class TofEstimator:
    """Turns CSI sweeps into sub-nanosecond time-of-flight estimates.

    The one-link API of :class:`~repro.core.batch.BatchTofEngine`: each
    call solves its link as a batch of one.  The per-link policy the
    engine applies (band grouping, coarse gate, peak selection, fusion)
    lives here.
    """

    def __init__(
        self,
        config: TofEstimatorConfig | None = None,
        calibration: LinkCalibration | None = None,
    ):
        self.config = config or TofEstimatorConfig()
        self.calibration = calibration or LinkCalibration()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(self, sweep: CsiSweep) -> TofEstimate:
        """Estimate ToF from one sweep."""
        return self.estimate_many([sweep])

    def estimate_many(self, sweeps: list[CsiSweep]) -> TofEstimate:
        """Estimate ToF from several sweeps (products averaged per band).

        Averaging across sweeps implements the paper's §7 observation (1):
        the residual-CFO phase error is zero-mean across packets.  The
        link is solved as a one-link batch of :class:`BatchTofEngine`.
        """
        # Imported here: repro.core.batch imports this module.
        from repro.core.batch import BatchTofEngine

        return BatchTofEngine(self.config).estimate_sweeps_batch(
            [sweeps], [self.calibration]
        )[0]

    def estimate_from_products(
        self,
        frequencies_hz: FrequencyVector | Sequence[float],
        products: ComplexCSI | Sequence[complex],
        exponent: int = 2,
    ) -> TofEstimate:
        """Estimate ToF from already-computed band products.

        Used by unit tests and by benchmarks that replay the paper's
        worked examples without simulating packets.  The row is solved
        as a one-link batch of :class:`BatchTofEngine`, so an unsolvable
        row fails with the engine's named ``ValueError``.
        """
        # Imported here: repro.core.batch imports this module.
        from repro.core.batch import BatchTofEngine

        row = np.asarray(products, dtype=complex)
        # Checked here so the error names this call's shape; the engine
        # checks the band count against the frequencies.
        if row.ndim != 1:
            raise ValueError(f"products must be 1-D (n_bands,), got {row.shape}")
        return BatchTofEngine(self.config).estimate_products_batch(
            frequencies_hz, row[None, :], exponent, [self.calibration]
        )[0]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _group_specs(
        self,
    ) -> list[tuple[str, Callable[[Band], bool] | None, int, int]]:
        """(name, band filter, CSI power, profile exponent) per group."""
        cfg = self.config
        specs: list[tuple[str, Callable[[Band], bool] | None, int, int]] = []
        if cfg.quirk_2g4:
            if cfg.use_5g:
                specs.append(("5g", lambda b: b.is_5g, 1, 2))
            if cfg.use_2g4:
                specs.append(("2g4", lambda b: b.is_2g4, 4, 8))
            return specs
        band_filter: Callable[[Band], bool] | None = None
        if not cfg.use_2g4:
            band_filter = lambda b: b.is_5g
        elif not cfg.use_5g:
            band_filter = lambda b: b.is_2g4
        return [("all", band_filter, 1, 2)]

    def _link_jobs(
        self, sweeps: list[CsiSweep], calibration: LinkCalibration
    ) -> tuple[
        float | None,
        list[tuple[str, FrequencyVector, ComplexCSI, int, float | None]],
    ]:
        """Per-link preprocessing: coarse gate + per-group products.

        Returns ``(coarse_round_trip_s, jobs)`` where each job is
        ``(group name, frequencies, products, exponent, gate_s)``.
        This is the single source of the gating/grouping semantics:
        :class:`~repro.core.batch.BatchTofEngine` runs it per link, then
        stacks the jobs of all links by frequency set and solves each
        set in one shot.  :meth:`estimate_many` is the one-link case.
        """
        coarse_rt = self._coarse_round_trip(sweeps)
        gate_2tau = None
        if coarse_rt is not None:
            gated = calibration.coarse_round_trip_to_raw_2tau(coarse_rt)
            if gated is not None:
                gate_2tau = max(0.0, gated - self.config.coarse_gate_margin_s)
        jobs: list[tuple[str, FrequencyVector, ComplexCSI, int, float | None]] = []
        for name, band_filter, power, exponent in self._group_specs():
            collected = self._averaged_products(sweeps, band_filter, power)
            if collected is None:
                continue
            freqs, products = collected
            gate = None if gate_2tau is None else gate_2tau * exponent / 2.0
            jobs.append((name, freqs, products, exponent, gate))
        return coarse_rt, jobs

    def _averaged_products(
        self,
        sweeps: list[CsiSweep],
        band_filter: Callable[[Band], bool] | None,
        power: int,
    ) -> tuple[FrequencyVector, ComplexCSI] | None:
        """Average per-band products across sweeps; None if no bands.

        A sweep the filter selects no band of is skipped; any other
        front-end error (a non-finite CSI row) fails the link.
        """
        per_band: dict[float, list[complex]] = {}
        for sweep in sweeps:
            if band_filter is not None and not any(map(band_filter, sweep.bands)):
                continue
            freqs, products = band_products(sweep, power, band_filter)
            for f, p in zip(freqs, products, strict=True):
                per_band.setdefault(float(f), []).append(p)
        if len(per_band) < 2:
            return None
        out_freqs = np.array(sorted(per_band))
        out_products = np.array([np.mean(per_band[f]) for f in out_freqs])
        return out_freqs, out_products

    def _coarse_round_trip(self, sweeps: list[CsiSweep]) -> float | None:
        """Mean forward+reverse slope delay over non-quirked bands.

        Detection delays are random per packet, so the mean over all
        (band, packet) pairs concentrates at ``2τ + constant``; the
        constant is captured by calibration.  2.4 GHz bands are skipped
        in quirk mode (mod-π/2 phases have no usable slope).
        """
        from repro.core.interpolation import round_trip_slope_delay_s

        values: list[float] = []
        for sweep in sweeps:
            for m in sweep:
                if self.config.quirk_2g4 and m.band.is_2g4:
                    continue
                values.append(round_trip_slope_delay_s(m))
        if not values:
            return None
        return float(np.mean(values))

    def _ista_delay(
        self,
        profile: MultipathProfile,
        freqs: FrequencyVector,
        products: ComplexCSI,
        gate_s: float | None,
    ) -> float:
        """First-peak selection + refinement on an Algorithm 1 profile.

        The batched engine computes the profiles of many links in one
        solver run, then applies this per link.
        """
        peaks = profile.peaks()
        if gate_s is not None:
            gated = [p for p in peaks if p.delay_s >= gate_s]
            peaks = gated or peaks
        if not peaks:
            raise ValueError("profile has no usable peaks")
        delay = peaks[0].delay_s
        if self.config.refine:
            delay = refine_first_peak(profile, products, freqs)
            if gate_s is not None and delay < gate_s:
                delay = peaks[0].delay_s
        return delay

    def _make_profile(
        self, window_s: float, paths: list[RefinedPath]
    ) -> MultipathProfile:
        """Diagnostic profile rasterized from the extracted paths."""
        grid = tau_grid(window_s, self.config.grid_step_s)
        amps = np.zeros(len(grid), dtype=complex)
        for p in paths:
            idx = int(np.argmin(np.abs(grid - p.delay_s)))
            amps[idx] += p.amplitude
        return MultipathProfile(
            grid, amps, dominance_threshold_rel=self.config.peak_threshold_rel
        )

    def _coarse_mask(self, freqs: FrequencyVector) -> BoolMask:
        """Bands used for the coarse (on-grid) sparse inversion.

        The sub-grid phase error across an aperture ``S`` is
        ``2π·S·(grid_step/2)``; beyond ~1 radian the on-grid atoms stop
        resembling the truth.  When the group's full aperture exceeds
        that budget, fall back to the wider of the 2.4/5 GHz subgroups.
        """
        span = float(freqs.max() - freqs.min())
        phase_budget_ok = (
            2.0 * np.pi * span * (self.config.grid_step_s / 2.0) <= 1.0
        )
        if phase_budget_ok:
            return np.ones(len(freqs), dtype=bool)
        low = freqs < 3e9
        high = ~low
        if not low.any() or not high.any():
            return np.ones(len(freqs), dtype=bool)
        span_low = float(freqs[low].max() - freqs[low].min()) if low.sum() > 1 else 0.0
        span_high = (
            float(freqs[high].max() - freqs[high].min()) if high.sum() > 1 else 0.0
        )
        return high if span_high >= span_low else low

    def _fuse(self, groups: list[GroupEstimate]) -> float:
        """Span-weighted fusion with outlier rejection of narrow groups."""
        primary = groups[primary_index([g.span_hz for g in groups])]
        kept = [primary]
        for g in groups:
            if g is primary:
                continue
            if abs(g.tof_s - primary.tof_s) <= self.config.fuse_tolerance_s:
                kept.append(g)
        weights = np.array([g.span_hz for g in kept])
        tofs = np.array([g.tof_s for g in kept])
        return float(np.average(tofs, weights=weights))
