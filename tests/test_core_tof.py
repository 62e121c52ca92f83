"""The end-to-end ToF estimator."""

import re

import numpy as np
import pytest

from repro.core.batch import BatchTofEngine
from repro.core.cfo import LinkCalibration
from repro.core.ndft import steering_vector
from repro.core.tof import TofEstimator, TofEstimatorConfig
from repro.rf.environment import free_space
from repro.rf.geometry import Point
from repro.wifi.bands import US_BAND_PLAN
from repro.wifi.hardware import IDEAL_HARDWARE, INTEL_5300
from repro.wifi.radio import SimulatedLink

FREQS_5G = US_BAND_PLAN.subset_5g().center_frequencies_hz


class TestConfigValidation:
    def test_rejects_bad_method(self):
        with pytest.raises(ValueError):
            TofEstimatorConfig(method="magic")

    def test_rejects_no_bands(self):
        with pytest.raises(ValueError):
            TofEstimatorConfig(use_2g4=False, use_5g=False)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            TofEstimatorConfig(grid_step_s=0.0)

    def test_rejects_bad_amplitude_threshold(self):
        with pytest.raises(ValueError):
            TofEstimatorConfig(first_peak_amplitude_rel=0.0)


class TestFromProducts:
    def test_single_path_products(self):
        tau = 30e-9
        products = steering_vector(FREQS_5G, 2 * tau)
        est = TofEstimator(TofEstimatorConfig(quirk_2g4=False, compute_profile=False))
        result = est.estimate_from_products(FREQS_5G, products, exponent=2)
        assert result.tof_s == pytest.approx(tau, abs=0.01e-9)

    def test_exponent_scaling(self):
        tau = 10e-9
        products = steering_vector(FREQS_5G, 4 * tau)
        est = TofEstimator(TofEstimatorConfig(quirk_2g4=False, compute_profile=False))
        result = est.estimate_from_products(FREQS_5G, products, exponent=4)
        assert result.tof_s == pytest.approx(tau, abs=0.01e-9)

    @pytest.mark.parametrize("exponent", [0, -2, 2.5, True], ids=str)
    def test_exponent_must_be_a_positive_integer(self, exponent):
        """A zero exponent divided by zero, a negative one gave an "ok"
        negative ToF and a fractional one a scaled ToF."""
        products = steering_vector(FREQS_5G, 40e-9)
        est = TofEstimator(TofEstimatorConfig(quirk_2g4=False, compute_profile=False))
        with pytest.raises(ValueError, match=f"positive integer, got {exponent!r}$"):
            est.estimate_from_products(FREQS_5G, products, exponent=exponent)

    def test_numpy_integer_exponent_accepted(self):
        tau = 10e-9
        products = steering_vector(FREQS_5G, 4 * tau)
        est = TofEstimator(TofEstimatorConfig(quirk_2g4=False, compute_profile=False))
        result = est.estimate_from_products(FREQS_5G, products, exponent=np.int64(4))
        assert result.tof_s == pytest.approx(tau, abs=0.01e-9)

    def test_multipath_first_peak_not_strongest(self):
        """The direct path is the first, not the biggest, peak (§6)."""
        h = 0.5 * steering_vector(FREQS_5G, 60e-9) + steering_vector(FREQS_5G, 90e-9)
        est = TofEstimator(TofEstimatorConfig(quirk_2g4=False, compute_profile=False))
        result = est.estimate_from_products(FREQS_5G, h, exponent=2)
        assert result.tof_s == pytest.approx(30e-9, abs=0.05e-9)

    def test_band_count_mismatch_rejected_eagerly(self):
        """Regression: a products/frequencies mismatch must fail with the
        shapes named (like the batch engine), not as an opaque matmul
        error deep in the NDFT."""
        est = TofEstimator(TofEstimatorConfig(quirk_2g4=False, compute_profile=False))
        with pytest.raises(ValueError, match=r"3 bands but \d+ frequencies"):
            est.estimate_from_products(FREQS_5G, np.ones(3))

    def test_non_1d_products_rejected(self):
        est = TofEstimator(TofEstimatorConfig(quirk_2g4=False, compute_profile=False))
        with pytest.raises(ValueError, match="1-D"):
            est.estimate_from_products(
                FREQS_5G, np.ones((2, len(FREQS_5G)))
            )

    @pytest.mark.parametrize("method", ["hybrid", "ista"])
    @pytest.mark.parametrize(
        ("entry", "reason"),
        [(None, "no signal power"), (np.nan, "non-finite"), (np.inf, "non-finite")],
        ids=["zero", "nan", "inf"],
    )
    def test_unsolvable_row_named(self, method, entry, reason):
        """An all-zero row, or one with a NaN or Inf product, fails with
        the row and its reason named, not deep inside a kernel."""
        if entry is None:
            row = np.zeros(len(FREQS_5G), dtype=complex)
        else:
            row = steering_vector(FREQS_5G, 60e-9)
            row[3] = entry
        est = TofEstimator(
            TofEstimatorConfig(method=method, quirk_2g4=False, compute_profile=False)
        )
        with pytest.raises(ValueError, match=f"row 0: {reason}"):
            est.estimate_from_products(FREQS_5G, row)


class TestEndToEnd:
    def test_ideal_free_space_subpicosecond(self, rng):
        link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0, 0),
            rx_position=Point(6, 0),
            tx_state=IDEAL_HARDWARE.sample_device_state(rng),
            rx_state=IDEAL_HARDWARE.sample_device_state(rng),
            rng=rng,
        )
        est = TofEstimator(TofEstimatorConfig(quirk_2g4=False, compute_profile=False))
        result = est.estimate(link.sweep(1))
        assert abs(result.tof_s - link.true_tof_s) < 5e-12

    def test_intel_free_space_with_calibration(self, rng):
        tx = INTEL_5300.sample_device_state(rng)
        rx = INTEL_5300.sample_device_state(rng)

        def link_at(d):
            return SimulatedLink(
                environment=free_space(),
                tx_position=Point(0, 0),
                rx_position=Point(d, 0),
                tx_state=tx,
                rx_state=rx,
                rng=rng,
            )

        cfg = TofEstimatorConfig(compute_profile=False)
        cal_link = link_at(1.0)
        cal_est = TofEstimator(cfg).estimate_many(
            [cal_link.sweep(3) for _ in range(2)]
        )
        cal = LinkCalibration.fit(
            cal_est.raw_tof_s, cal_link.true_tof_s, cal_est.coarse_round_trip_s
        )
        link = link_at(9.0)
        result = TofEstimator(cfg, cal).estimate(link.sweep(3))
        assert abs(result.tof_s - link.true_tof_s) < 0.2e-9

    def test_uncalibrated_estimate_carries_chain_bias(self, rng):
        tx = INTEL_5300.sample_device_state(rng)
        rx = INTEL_5300.sample_device_state(rng)
        link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0, 0),
            rx_position=Point(4, 0),
            tx_state=tx,
            rx_state=rx,
            rng=rng,
        )
        cfg = TofEstimatorConfig(compute_profile=False)
        result = TofEstimator(cfg).estimate(link.sweep(3))
        expected_bias = (tx.round_trip_chain_delay_s + rx.round_trip_chain_delay_s) / 2
        assert result.raw_tof_s - link.true_tof_s == pytest.approx(
            expected_bias, abs=1e-9
        )

    def test_quirk_mode_produces_groups(self, rng):
        link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0, 0),
            rx_position=Point(3, 0),
            tx_state=INTEL_5300.sample_device_state(rng),
            rx_state=INTEL_5300.sample_device_state(rng),
            rng=rng,
        )
        cfg = TofEstimatorConfig(quirk_2g4=True, compute_profile=False)
        result = TofEstimator(cfg).estimate(link.sweep(2))
        names = {g.name for g in result.groups}
        assert "5g" in names
        assert "2g4" in names

    def test_profile_available_when_requested(self, rng, ideal_link, small_plan):
        ideal_link.band_plan = small_plan
        cfg = TofEstimatorConfig(quirk_2g4=False, compute_profile=True)
        result = TofEstimator(cfg).estimate(ideal_link.sweep(1))
        assert result.profile.dominant_peak_count() >= 1
        assert result.profile_exponent == 2

    def test_ista_method_works(self, rng, ideal_link, small_plan):
        ideal_link.band_plan = small_plan
        cfg = TofEstimatorConfig(quirk_2g4=False, method="ista")
        result = TofEstimator(cfg).estimate(ideal_link.sweep(1))
        assert abs(result.tof_s - ideal_link.true_tof_s) < 0.5e-9

    def test_estimate_many_requires_sweeps(self):
        with pytest.raises(ValueError):
            TofEstimator().estimate_many([])

    def test_coarse_round_trip_reported(self, rng, intel_link):
        cfg = TofEstimatorConfig(compute_profile=False)
        result = TofEstimator(cfg).estimate(intel_link.sweep(2))
        # 2*tau + two detection delays (~177 each) + chain: hundreds of ns.
        assert result.coarse_round_trip_s is not None
        assert 300e-9 < result.coarse_round_trip_s < 800e-9


class TestNonFiniteCsi:
    """One non-finite CSI value fails the link with a named error.

    The per-packet splines used to raise a ValueError that the
    estimator took for "no band selected": the packet's whole band
    group dropped out, the coarse gate went NaN and the estimate came
    back ok from the other group alone.
    """

    @pytest.mark.parametrize("band_group", ["5g", "2g4"])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_partial_nan_sweep_fails_named(self, intel_link, band_group, direction):
        sweep = intel_link.sweep(2)
        packet = [m for m in sweep if getattr(m.band, f"is_{band_group}")][3]
        csi = getattr(packet, direction)
        csi.csi[11] = np.nan
        named = re.escape(
            f"non-finite CSI on band {packet.band.center_hz / 1e6:.1f} MHz, "
            f"packet at t = {csi.timestamp_s:.6f} s, {direction} direction"
        )
        cfg = TofEstimatorConfig(compute_profile=False)
        with pytest.raises(ValueError, match=named):
            TofEstimator(cfg).estimate_many([sweep])
        with pytest.raises(ValueError, match=named):
            BatchTofEngine(cfg).estimate_sweeps_batch([[sweep]])
