"""Zero-subcarrier interpolation (§5) and CFO reciprocity handling (§7)."""

import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from repro.core.cfo import LinkCalibration, band_products
from repro.core.interpolation import (
    _spline_weights,
    group_delay_s,
    phase_slope_per_index,
    round_trip_slope_delay_s,
    zero_subcarrier_csi,
    zero_subcarrier_product,
    zero_subcarrier_products,
)
from repro.rf.channel import channel_at
from repro.rf.paths import from_delays
from repro.wifi.bands import US_BAND_PLAN, Band
from repro.wifi.csi import BandCsi, CsiSweep, LinkCsi
from repro.wifi.ofdm import (
    DATA_SUBCARRIERS_20MHZ,
    INTEL5300_SUBCARRIERS_20MHZ,
    SUBCARRIER_SPACING_HZ,
    subcarrier_frequencies,
)

BAND = Band(36, 5.18e9)
IDX = np.array(INTEL5300_SUBCARRIERS_20MHZ, dtype=float)


def csi_with_delay(total_delay_s: float, band: Band = BAND, paths=None) -> BandCsi:
    """CSI of a (possibly multipath) channel plus a baseband delay ramp."""
    freqs = subcarrier_frequencies(band.center_hz)
    if paths is None:
        paths = from_delays([20e-9], [1.0])
    h = channel_at(paths, freqs)
    ramp = np.exp(-2j * np.pi * IDX * SUBCARRIER_SPACING_HZ * total_delay_s)
    return BandCsi(band=band, csi=h * ramp)


def reference_slope(csi, indices):
    """The per-pair loop the row-wise slope replaced, kept as its reference."""
    gaps = np.diff(indices)
    pair_rot = csi[1:] * np.conj(csi[:-1])
    min_gap = gaps.min()
    coarse = float(np.angle(pair_rot[gaps == min_gap].sum())) / float(min_gap)
    slopes, weights = [], []
    for rot, gap in zip(pair_rot, gaps, strict=True):
        predicted = coarse * gap
        observed = predicted + float(np.angle(rot * np.exp(-1j * predicted)))
        slopes.append(observed / gap)
        weights.append(abs(rot) * gap)
    if float(np.sum(weights)) <= 0.0:
        return coarse
    return float(np.average(slopes, weights=weights))


def random_rows(rng, n_rows, layout=INTEL5300_SUBCARRIERS_20MHZ, delay_s=180e-9):
    """Random complex CSI rows carrying a detection-delay ramp."""
    idx = np.asarray(layout, dtype=float)
    shape = (n_rows, len(idx))
    noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return noise * np.exp(-2j * np.pi * idx * SUBCARRIER_SPACING_HZ * delay_s)


def random_pairs(rng, packets_per_band, bands=US_BAND_PLAN.bands):
    """Packet pairs of random CSI, ``packets_per_band(i)`` on band ``i``."""
    pairs = []
    for i, band in enumerate(bands):
        for _ in range(packets_per_band(i)):
            t = 1e-3 * len(pairs)
            forward, reverse = random_rows(rng, 2)
            pairs.append(
                LinkCsi(
                    forward=BandCsi(band=band, csi=forward, timestamp_s=t),
                    reverse=BandCsi(band=band, csi=reverse, timestamp_s=t + 2e-5),
                )
            )
    return pairs


LAYOUTS = pytest.mark.parametrize(
    "layout",
    [INTEL5300_SUBCARRIERS_20MHZ, DATA_SUBCARRIERS_20MHZ],
    ids=["intel5300", "ht20"],
)


class TestPhaseSlope:
    def test_pure_ramp_slope(self):
        delay = 180e-9
        csi = csi_with_delay(delay, paths=from_delays([0.0], [1.0]))
        slope = phase_slope_per_index(csi.csi, IDX)
        measured = -slope / (2 * np.pi * SUBCARRIER_SPACING_HZ)
        assert measured == pytest.approx(delay, rel=1e-6)

    def test_handles_steep_ramps(self):
        """A 400 ns ramp exceeds π per 2-subcarrier gap; the gap-1 anchor
        pairs must still resolve it."""
        delay = 400e-9
        csi = csi_with_delay(delay, paths=from_delays([0.0], [1.0]))
        slope = phase_slope_per_index(csi.csi, IDX)
        measured = -slope / (2 * np.pi * SUBCARRIER_SPACING_HZ)
        assert measured == pytest.approx(delay, rel=1e-3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            phase_slope_per_index(np.ones(5, complex), IDX)


class TestZeroSubcarrier:
    def test_detection_delay_removed_at_dc(self):
        """The §5 claim: subcarrier 0 is delay-free."""
        paths = from_delays([20e-9], [1.0])
        clean = csi_with_delay(0.0, paths=paths)
        delayed = csi_with_delay(200e-9, paths=paths)
        v_clean = zero_subcarrier_csi(clean)
        v_delayed = zero_subcarrier_csi(delayed)
        assert v_delayed == pytest.approx(v_clean, rel=1e-3)

    def test_matches_true_channel_at_center(self):
        paths = from_delays([15e-9, 40e-9], [1.0, 0.4])
        csi = csi_with_delay(180e-9, paths=paths)
        truth = channel_at(paths, np.array([BAND.center_hz]))[0]
        assert zero_subcarrier_csi(csi) == pytest.approx(truth, rel=0.02)

    def test_fourth_power_mode(self):
        paths = from_delays([10e-9], [1.0])
        csi = csi_with_delay(150e-9, paths=paths)
        truth = channel_at(paths, np.array([BAND.center_hz]))[0]
        assert zero_subcarrier_csi(csi, power=4) == pytest.approx(truth**4, rel=0.05)

    def test_power_validation(self):
        csi = csi_with_delay(100e-9)
        with pytest.raises(ValueError):
            zero_subcarrier_csi(csi, power=0)


class TestProductAndSlopes:
    def make_pair(self, delay_f=150e-9, delay_r=200e-9, phi=1.1):
        paths = from_delays([25e-9], [1.0])
        fwd = csi_with_delay(delay_f, paths=paths)
        fwd = BandCsi(band=BAND, csi=fwd.csi * np.exp(1j * phi))
        rev = csi_with_delay(delay_r, paths=paths)
        rev = BandCsi(band=BAND, csi=rev.csi * np.exp(-1j * phi))
        return LinkCsi(forward=fwd, reverse=rev)

    def test_product_cancels_antisymmetric_phase(self):
        paths = from_delays([25e-9], [1.0])
        truth = channel_at(paths, np.array([BAND.center_hz]))[0]
        for phi in (0.0, 1.1, -2.5):
            link = self.make_pair(phi=phi)
            assert zero_subcarrier_product(link) == pytest.approx(truth**2, rel=0.02)

    def test_round_trip_slope_sums_directions(self):
        link = self.make_pair(delay_f=150e-9, delay_r=210e-9)
        # Each direction: 25 ns ToF + its detection ramp.
        expected = (150e-9 + 25e-9) + (210e-9 + 25e-9)
        assert round_trip_slope_delay_s(link) == pytest.approx(expected, rel=1e-3)

    def test_group_delay_includes_tof(self):
        csi = csi_with_delay(100e-9, paths=from_delays([30e-9], [1.0]))
        assert group_delay_s(csi) == pytest.approx(130e-9, rel=1e-3)


class TestBandProducts:
    def test_averages_packets_per_band(self):
        link1 = TestProductAndSlopes().make_pair(phi=0.3)
        link2 = TestProductAndSlopes().make_pair(phi=-0.9)
        sweep = CsiSweep([link1, link2])
        freqs, prods = band_products(sweep)
        assert freqs.shape == (1,)
        paths = from_delays([25e-9], [1.0])
        truth = channel_at(paths, np.array([BAND.center_hz]))[0] ** 2
        assert prods[0] == pytest.approx(truth, rel=0.02)

    def test_band_filter(self):
        link = TestProductAndSlopes().make_pair()
        sweep = CsiSweep([link])
        with pytest.raises(ValueError):
            band_products(sweep, band_filter=lambda b: b.is_2g4)


class TestStackedFrontEnd:
    """The stacked §5 pass against its per-packet references."""

    @LAYOUTS
    @pytest.mark.parametrize("power", [1, 4])
    def test_spline_weights_match_scipy(self, rng, layout, power):
        idx = np.asarray(layout, dtype=float)
        for row in random_rows(rng, 20, layout):
            powered = row**power
            slope = phase_slope_per_index(powered, idx)
            d = powered * np.exp(-1j * slope * idx)
            want = CubicSpline(idx, d.real)(0.0) + 1j * CubicSpline(idx, d.imag)(0.0)
            got = zero_subcarrier_csi(
                BandCsi(band=BAND, csi=row, subcarriers=layout), power
            )
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize(
        "layout",
        [
            INTEL5300_SUBCARRIERS_20MHZ,
            DATA_SUBCARRIERS_20MHZ,
            (-1, 2),
            (-3, 1, 4),
            (-5, -2, 1, 3),
            tuple(k for k in INTEL5300_SUBCARRIERS_20MHZ if k > 0),
            (-26, -17, -9, -4, 2, 7, 15, 28),
        ],
        ids=["intel5300", "ht20", "n2", "n3", "n4", "extrapolated", "irregular"],
    )
    def test_spline_weights_are_the_identity_splines_at_zero(self, layout):
        """The numpy not-a-knot solve against scipy's spline of each
        unit vector: the line, the parabola, the smallest not-a-knot
        system, an end piece extrapolated to 0 and uneven gaps."""
        idx = np.asarray(layout, dtype=float)
        want = CubicSpline(idx, np.eye(len(idx)))(0.0)
        np.testing.assert_allclose(_spline_weights(layout), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "layout",
        [(1, 1, 2), (2, 1), (0, np.nan), (3,), ((0, 1), (2, 3))],
        ids=["repeated", "decreasing", "non-finite", "one", "2-d"],
    )
    def test_spline_weights_reject_what_scipy_rejects(self, layout):
        with pytest.raises(ValueError):
            CubicSpline(np.asarray(layout, dtype=float), np.eye(len(layout)))
        with pytest.raises(ValueError, match=re.escape(str(layout))):
            _spline_weights(layout)

    def test_serving_stack_runs_the_front_end_without_scipy(self):
        """Importing the four serving packages and building an Intel
        5300 sweep's band products loads no scipy module."""
        script = textwrap.dedent(
            """
            import sys

            import numpy as np

            import repro.core, repro.net, repro.stream, repro.loc
            from repro.core.cfo import band_products
            from repro.wifi.bands import Band
            from repro.wifi.csi import BandCsi, CsiSweep, LinkCsi

            rows = np.random.default_rng(0).normal(size=(2, 30)) + 0j
            band = Band(36, 5.18e9)
            pair = LinkCsi(
                forward=BandCsi(band=band, csi=rows[0]),
                reverse=BandCsi(band=band, csi=rows[1], timestamp_s=2e-5),
            )
            band_products(CsiSweep([pair]))
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @LAYOUTS
    def test_row_slopes_are_one_row_calls_bit_for_bit(self, rng, layout):
        idx = np.asarray(layout, dtype=float)
        rows = random_rows(rng, 40, layout)
        rows[17] = 0.0  # weights total zero: the coarse slope is kept
        rows[23, 4] = np.nan  # a NaN total gives NaN, not the coarse slope
        slopes = phase_slope_per_index(rows, idx)
        assert slopes.shape == (40,)
        # assert_array_equal is exact, and NaN matches NaN.
        np.testing.assert_array_equal(
            slopes, [phase_slope_per_index(row, idx) for row in rows]
        )
        np.testing.assert_array_equal(slopes, [reference_slope(r, idx) for r in rows])
        assert slopes[17] == 0.0
        assert np.isnan(slopes[23])

    @pytest.mark.parametrize("power", [1, 4])
    def test_stacking_leaves_each_packet_unchanged(self, rng, power):
        pairs = random_pairs(rng, lambda i: 36, [BAND, Band(40, 5.2e9)])
        assert len(pairs) == 72  # a 144-row stack
        stacked = zero_subcarrier_products(pairs, power)
        for pair, value in zip(pairs, stacked, strict=True):
            alone = zero_subcarrier_csi(pair.forward, power) * zero_subcarrier_csi(
                pair.reverse, power
            )
            assert abs(value - alone) <= 1e-15 * abs(alone)

    @pytest.mark.parametrize(
        "packets_per_band",
        [lambda i: 1, lambda i: 3, lambda i: 1 + i % 3],
        ids=["1", "3", "mixed"],
    )
    def test_band_products_average_each_bands_packets(self, rng, packets_per_band):
        sweep = CsiSweep(random_pairs(rng, packets_per_band))
        freqs, products = band_products(sweep, power=4)
        by_band = sweep.by_band()
        np.testing.assert_array_equal(freqs, list(by_band))
        want = [
            np.mean([zero_subcarrier_product(m, power=4) for m in measurements])
            for measurements in by_band.values()
        ]
        np.testing.assert_allclose(products, want, rtol=1e-15, atol=0.0)

    def test_mixed_layouts_rejected_by_name(self, rng):
        intel = random_pairs(rng, lambda i: 1, [BAND])[0]
        ht20 = LinkCsi(
            forward=intel.forward,
            reverse=BandCsi(
                band=BAND,
                csi=random_rows(rng, 1, DATA_SUBCARRIERS_20MHZ)[0],
                subcarriers=DATA_SUBCARRIERS_20MHZ,
            ),
        )
        with pytest.raises(ValueError, match="reverse direction reports subcarriers"):
            band_products(CsiSweep([ht20]))

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_non_finite_row_fails_by_name(self, rng, direction):
        pairs = random_pairs(rng, lambda i: 2, [BAND, Band(40, 5.2e9)])
        poisoned = pairs[3]
        getattr(poisoned, direction).csi[5] = np.nan
        t = getattr(poisoned, direction).timestamp_s
        named = re.escape(
            f"non-finite CSI on band 5200.0 MHz, packet at t = {t:.6f} s, "
            f"{direction} direction"
        )
        with pytest.raises(ValueError, match=named):
            band_products(CsiSweep(pairs))
        with pytest.raises(ValueError, match=named):
            round_trip_slope_delay_s(poisoned)
        with pytest.raises(ValueError, match="non-finite CSI on band 5200.0 MHz"):
            zero_subcarrier_csi(getattr(poisoned, direction))
        # A band the filter leaves out is never read.
        band_products(CsiSweep(pairs), band_filter=lambda b: b.center_hz < 5.19e9)


class TestLinkCalibration:
    def test_bias_removed(self):
        cal = LinkCalibration.fit(measured_tof_s=50e-9, true_tof_s=20e-9)
        assert cal.apply(60e-9) == pytest.approx(30e-9)

    def test_coarse_bias_in_raw_domain(self):
        cal = LinkCalibration.fit(
            measured_tof_s=50e-9, true_tof_s=20e-9, measured_coarse_rt_s=460e-9
        )
        # coarse bias = 460 - 2*50 = 360 ns.
        assert cal.coarse_bias_s == pytest.approx(360e-9)
        assert cal.coarse_round_trip_to_raw_2tau(480e-9) == pytest.approx(120e-9)

    def test_no_coarse_calibration_returns_none(self):
        cal = LinkCalibration.fit(50e-9, 20e-9)
        assert cal.coarse_round_trip_to_raw_2tau(400e-9) is None

    def test_fit_from_distance(self):
        from repro.rf.constants import SPEED_OF_LIGHT

        cal = LinkCalibration.fit_from_distance(40e-9, SPEED_OF_LIGHT * 10e-9)
        assert cal.tof_bias_s == pytest.approx(30e-9)
        with pytest.raises(ValueError):
            LinkCalibration.fit_from_distance(40e-9, -1.0)

    @pytest.mark.parametrize(
        "args",
        [(np.nan, 20e-9), (50e-9, np.inf), (50e-9, 20e-9, np.nan)],
        ids=["measured", "true", "coarse"],
    )
    def test_fit_rejects_non_finite(self, args):
        with pytest.raises(ValueError, match="finite"):
            LinkCalibration.fit(*args)
