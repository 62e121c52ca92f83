"""The ChronosPair facade: devices, calibration, localization."""

import math

import numpy as np
import pytest

from repro.core.pipeline import (
    ChronosDevice,
    ChronosPair,
    linear_array,
    triangle_array,
)
from repro.core.tof import TofEstimatorConfig
from repro.rf.environment import free_space
from repro.rf.geometry import Point
from repro.wifi.bands import US_BAND_PLAN
from repro.wifi.hardware import IDEAL_HARDWARE, INTEL_5300


class TestAntennaArrays:
    def test_linear_array_centered(self):
        offsets = linear_array(3, 0.3)
        assert len(offsets) == 3
        assert sum(o.x for o in offsets) == pytest.approx(0.0)
        assert offsets[1] == Point(0.0, 0.0)

    def test_triangle_array_pairwise_separation(self):
        offsets = triangle_array(0.3)
        assert len(offsets) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                assert offsets[i].distance_to(offsets[j]) == pytest.approx(0.3)

    def test_triangle_not_colinear(self):
        a, b, c = triangle_array(1.0)
        area = abs((b - a).cross(c - a))
        assert area > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_array(0, 0.3)
        with pytest.raises(ValueError):
            triangle_array(-1.0)


class TestChronosDevice:
    def test_antenna_positions_rotate_with_heading(self, rng):
        dev = ChronosDevice.create(
            "d",
            Point(5, 5),
            rng,
            antenna_offsets=(Point(1.0, 0.0),),
            heading_rad=math.pi / 2.0,
        )
        pos = dev.antenna_positions()[0]
        assert pos.x == pytest.approx(5.0, abs=1e-9)
        assert pos.y == pytest.approx(6.0)

    def test_moved_to_preserves_hardware(self, rng):
        dev = ChronosDevice.create("d", Point(0, 0), rng)
        moved = dev.moved_to(Point(3, 3))
        assert moved.state is dev.state
        assert moved.position == Point(3, 3)


class TestChronosPair:
    def _make_pair(self, rng, separation=0.5, profile=IDEAL_HARDWARE):
        tx = ChronosDevice.create("tx", Point(2.0, 3.0), rng, profile)
        rx = ChronosDevice.create(
            "rx",
            Point(6.0, 4.0),
            rng,
            profile,
            antenna_offsets=triangle_array(separation),
        )
        cfg = TofEstimatorConfig(
            quirk_2g4=profile.phase_quirk_2g4, compute_profile=False
        )
        return ChronosPair(
            free_space(),
            receiver=rx,
            transmitter=tx,
            band_plan=US_BAND_PLAN.subset_5g(),
            estimator_config=cfg,
            rng=rng,
            n_packets_per_band=1,
        )

    def test_measure_distance_ideal(self, rng):
        pair = self._make_pair(rng)
        d = pair.measure_distance()
        true = pair.link().true_distance_m
        assert d == pytest.approx(true, abs=0.01)

    def test_localize_ideal_free_space(self, rng):
        pair = self._make_pair(rng)
        fix = pair.localize()
        assert fix.error_m < 0.15

    def test_measure_tof_batch_matches_measure_tof(self):
        pairs = [(0, 0), (0, 1), (0, 2)]
        batch_pair = self._make_pair(np.random.default_rng(31))
        batch = batch_pair.measure_tof_batch(pairs)
        seq_pair = self._make_pair(np.random.default_rng(31))
        for (tx, rx), estimate in zip(pairs, batch):
            want = seq_pair.measure_tof(tx, rx)
            assert abs(estimate.tof_s - want.tof_s) <= 1e-12

    def test_localize_intel_with_calibration(self, rng):
        pair = self._make_pair(rng, profile=INTEL_5300)
        pair.n_packets_per_band = 2
        pair.calibrate(n_sweeps=1)
        fix = pair.localize()
        assert fix.error_m < 0.8

    def test_calibration_stored_per_antenna_pair(self, rng):
        pair = self._make_pair(rng, profile=INTEL_5300)
        pair.calibrate(n_sweeps=1)
        assert len(pair._calibrations) == pair.receiver.n_antennas
        cal = pair.calibration_for(0, 0)
        assert cal.tof_bias_s != 0.0

    def test_calibration_validation(self, rng):
        pair = self._make_pair(rng)
        with pytest.raises(ValueError):
            pair.calibrate(reference_distance_m=0.0)
