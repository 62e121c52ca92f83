"""Testbed construction, metrics and reporting."""

import numpy as np
import pytest

from repro.experiments.metrics import Summary, cdf, median, percentile, summarize
from repro.experiments.report import cdf_sketch, format_table, summary_row
from repro.experiments.testbed import MAX_PAIR_DISTANCE_M, office_testbed


class TestTestbed:
    @pytest.fixture(scope="class")
    def tb(self):
        return office_testbed()

    def test_thirty_locations(self, tb):
        assert len(tb.locations) == 30

    def test_locations_inside_floor(self, tb):
        for p in tb.locations:
            assert 0 < p.x < 20
            assert 0 < p.y < 20

    def test_both_los_and_nlos_pairs_exist(self, tb):
        counts = tb.classify_pairs()
        assert counts["los"] > 10
        assert counts["nlos"] > 10

    def test_pair_sampling_respects_distance(self, tb, rng):
        pairs = tb.location_pairs(20, rng)
        for a, b in pairs:
            assert 1.0 <= a.distance_to(b) <= MAX_PAIR_DISTANCE_M

    def test_los_filter_respected(self, tb, rng):
        pairs = tb.location_pairs(10, rng, line_of_sight=True)
        for a, b in pairs:
            assert tb.line_of_sight(a, b)

    def test_deterministic_for_seed(self):
        a = office_testbed(seed=3)
        b = office_testbed(seed=3)
        assert a.locations == b.locations

    def test_validation(self, tb, rng):
        with pytest.raises(ValueError):
            tb.location_pairs(0, rng)
        with pytest.raises(ValueError):
            office_testbed(n_locations=1)


class TestMetrics:
    def test_cdf_monotone(self):
        vals, probs = cdf([3.0, 1.0, 2.0])
        assert list(vals) == [1.0, 2.0, 3.0]
        assert probs[-1] == 1.0
        assert np.all(np.diff(probs) > 0)

    def test_median_and_percentile(self):
        data = list(range(1, 101))
        assert median(data) == pytest.approx(50.5)
        assert percentile(data, 95) == pytest.approx(95.05)

    def test_summarize_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.median == pytest.approx(2.5)
        assert s.maximum == 4.0

    def test_summary_scaled(self):
        s = summarize([1.0, 2.0]).scaled(100.0)
        assert s.median == pytest.approx(150.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            percentile([1.0], 150.0)


class TestReport:
    def test_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = table.split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_summary_row(self):
        s = summarize([1.0, 2.0, 3.0])
        row = summary_row("x", s)
        assert row[0] == "x"
        assert row[1] == 3

    def test_cdf_sketch_contains_quantiles(self):
        sketch = cdf_sketch(np.linspace(0, 10, 100))
        assert "P05" in sketch
        assert "P95" in sketch


class TestStreamingTrackingExperiment:
    def test_streamed_links_coalesce_and_tracking_beats_raw(self):
        """The §9 synergy, measured outside the drone loop: blocked-sweep
        ghosts wreck the raw per-sweep RMSE, the per-link Kalman tracks
        reject them, and every tick's arrivals share one engine flush."""
        from repro.experiments.runner import run_streaming_tracking_experiment

        result = run_streaming_tracking_experiment(n_links=3, duration_s=1.0)
        assert result.n_links == 3
        assert result.n_requests > 0
        assert result.n_failed == 0
        # Per-tick coalescing: all three links in (nearly) every flush.
        assert result.mean_links_per_flush > 2.0
        # Tracking must beat the ghost-polluted raw estimates outright.
        assert result.tracked_rmse_m < result.raw_rmse_m
        assert result.synergy > 2.0

    def test_validation(self):
        from repro.experiments.runner import run_streaming_tracking_experiment

        with pytest.raises(ValueError):
            run_streaming_tracking_experiment(n_links=0)
