"""Experiment drivers: structure and bookkeeping (small samples)."""

import numpy as np
import pytest

from repro.core.tof import TofEstimatorConfig
from repro.experiments.runner import (
    calibrate_pair,
    run_detection_delay_experiment,
    run_localization_experiment,
    run_tof_experiment,
)
from repro.experiments.testbed import office_testbed
from repro.wifi.hardware import INTEL_5300


@pytest.fixture(scope="module")
def testbed():
    return office_testbed()


class TestCalibratePair:
    def test_bias_is_positive_chain_scale(self, rng):
        tx = INTEL_5300.sample_device_state(rng)
        rx = INTEL_5300.sample_device_state(rng)
        cfg = TofEstimatorConfig(compute_profile=False)
        cal = calibrate_pair(tx, rx, cfg, rng)
        expected = (tx.round_trip_chain_delay_s + rx.round_trip_chain_delay_s) / 2
        assert cal.tof_bias_s == pytest.approx(expected, abs=1.5e-9)
        assert cal.coarse_bias_s is not None
        # Coarse bias = two mean detection delays (~354 ns) in raw domain.
        assert 250e-9 < cal.coarse_bias_s < 500e-9


class TestTofExperiment:
    def test_sample_fields(self, testbed):
        samples = run_tof_experiment(3, seed=5, testbed=testbed)
        assert len(samples) == 3
        for s in samples:
            assert s.true_tof_s > 0
            assert s.distance_m == pytest.approx(
                s.true_tof_s * 299792458.0, rel=1e-9
            )
            assert s.abs_error_s == abs(s.error_s)

    def test_los_filter_respected(self, testbed):
        samples = run_tof_experiment(
            3, seed=5, line_of_sight=True, testbed=testbed
        )
        assert all(s.line_of_sight for s in samples)

    def test_reproducible_for_seed(self, testbed):
        a = run_tof_experiment(2, seed=9, testbed=testbed)
        b = run_tof_experiment(2, seed=9, testbed=testbed)
        assert [x.estimated_tof_s for x in a] == [x.estimated_tof_s for x in b]


class TestLocalizationExperiment:
    def test_sample_fields(self, testbed, monkeypatch):
        # The caller's config must reach the pairs: a profile-free one
        # runs no L1 profile solve.
        import repro.core.batch as batch

        def no_profile(*args, **kwargs):
            raise AssertionError("L1 profile solved despite compute_profile=False")

        monkeypatch.setattr(batch, "invert_ndft_batch", no_profile)
        samples = run_localization_experiment(
            2,
            0.3,
            seed=5,
            testbed=testbed,
            estimator_config=TofEstimatorConfig(compute_profile=False),
        )
        assert len(samples) == 2
        for s in samples:
            assert s.error_m >= 0
            assert 2 <= s.n_anchors_used <= 3


class TestDetectionDelayExperiment:
    def test_statistics_shape(self, testbed):
        sample = run_detection_delay_experiment(n_pairs=2, seed=7, testbed=testbed)
        assert len(sample.detection_delays_s) > 50
        med = np.median(sample.detection_delays_s)
        assert 120e-9 < med < 230e-9  # the ~177 ns regime
        assert np.all(sample.propagation_delays_s > 0)
