"""The batch-first ranging service facade."""

import numpy as np
import pytest

from repro.core.batch import BatchTofEngine, unsolvable_reason
from repro.core.cfo import LinkCalibration
from repro.core.ndft import steering_vector
from repro.core.sparse import SparseSolverConfig
from repro.core.tof import TofEstimator, TofEstimatorConfig
from repro.net.service import RangingRequest, RangingService, plan_label
from repro.obs import REGISTRY
from repro.wifi.bands import US_BAND_PLAN

FREQS_5G = US_BAND_PLAN.subset_5g().center_frequencies_hz
FREQS_SMALL = US_BAND_PLAN.subset_5g().decimate(2).center_frequencies_hz

FAST_CONFIG = TofEstimatorConfig(
    quirk_2g4=False,
    compute_profile=False,
    sparse=SparseSolverConfig(max_iterations=300),
)


def one_link(rng, freqs, tau=30e-9):
    h = steering_vector(freqs, 2 * tau) + 0.4 * steering_vector(freqs, 2 * tau + 25e-9)
    return h + 0.01 * (rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs)))


class RecordingEngine(BatchTofEngine):
    """Keeps a copy of the stack every batched call receives, and of
    every stack that reaches the kernels."""

    def __init__(self, config):
        super().__init__(config)
        self.calls: list[np.ndarray] = []
        self.kernel_stacks: list[np.ndarray] = []

    def estimate_products_batch(self, frequencies_hz, channels, *args, **kwargs):
        self.calls.append(np.array(channels))
        return super().estimate_products_batch(
            frequencies_hz, channels, *args, **kwargs
        )

    def _estimate_group_stack(self, name, freqs, stacked, *args, **kwargs):
        self.kernel_stacks.append(np.array(stacked))
        return super()._estimate_group_stack(name, freqs, stacked, *args, **kwargs)

    def no_kernel_saw_an_unsolvable_row(self):
        return all(
            unsolvable_reason(row) is None
            for stack in self.kernel_stacks
            for row in stack
        )


def isolated_retries(request):
    label = plan_label(RangingService.plan_key(request))
    return REGISTRY.value("service.isolated_retries_total", plan=label)


class TestRangingRequest:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RangingRequest("bad", FREQS_5G, np.ones(3))
        # The engine would raise on it mid-solve, failing its flush-mates.
        with pytest.raises(TypeError, match="'bad'.*float"):
            RangingRequest(
                "bad", FREQS_5G, np.ones(len(FREQS_5G)), calibration=1.0
            )

    def test_shared_base_validates_link_id(self):
        with pytest.raises(ValueError):
            RangingRequest("", FREQS_5G, np.ones(len(FREQS_5G), complex))
        with pytest.raises(ValueError):
            RangingRequest("a", None, None)
        with pytest.raises(TypeError):
            RangingRequest("a", FREQS_5G)
        with pytest.raises(TypeError):
            RangingRequest("a")


class TestRangingService:
    def test_responses_in_request_order(self, rng):
        service = RangingService(FAST_CONFIG)
        requests = [
            RangingRequest(f"link-{i}", FREQS_5G, one_link(rng, FREQS_5G, 20e-9 + 5e-9 * i))
            for i in range(5)
        ]
        responses = service.submit(requests)
        assert [r.link_id for r in responses] == [f"link-{i}" for i in range(5)]
        # Later links are physically farther, so ToF must increase.
        tofs = [r.estimate.tof_s for r in responses]
        assert tofs == sorted(tofs)

    def test_matches_scalar_estimator(self, rng):
        service = RangingService(FAST_CONFIG)
        scalar = TofEstimator(FAST_CONFIG)
        requests = [
            RangingRequest(str(i), FREQS_5G, one_link(rng, FREQS_5G, 15e-9 + 7e-9 * i))
            for i in range(4)
        ]
        responses = service.submit(requests)
        for request, response in zip(requests, responses):
            want = scalar.estimate_from_products(
                request.frequencies_hz, request.products
            )
            assert abs(response.estimate.tof_s - want.tof_s) <= 1e-12
            assert response.distance_m == response.estimate.distance_m

    def test_mixed_band_plans_one_submission(self, rng):
        service = RangingService(FAST_CONFIG)
        requests = [
            RangingRequest("a", FREQS_5G, one_link(rng, FREQS_5G)),
            RangingRequest("b", FREQS_SMALL, one_link(rng, FREQS_SMALL)),
            RangingRequest("c", FREQS_5G, one_link(rng, FREQS_5G, 40e-9)),
        ]
        out = []
        responses = service.submit(requests, stats_out=out)
        assert [r.link_id for r in responses] == ["a", "b", "c"]
        assert out[0].n_plans == 2

    def test_sharding_bounds_batch_size(self, rng):
        service = RangingService(FAST_CONFIG, max_shard_links=2)
        requests = [
            RangingRequest(str(i), FREQS_5G, one_link(rng, FREQS_5G)) for i in range(5)
        ]
        out = []
        service.submit(requests, stats_out=out)
        (stats,) = out
        assert stats.n_shards == 3  # 2 + 2 + 1
        assert stats.n_requests == 5

    def test_per_request_calibration(self, rng):
        service = RangingService(FAST_CONFIG)
        products = one_link(rng, FREQS_5G)
        plain, biased = service.submit(
            [
                RangingRequest("plain", FREQS_5G, products),
                RangingRequest(
                    "biased",
                    FREQS_5G,
                    products,
                    calibration=LinkCalibration(tof_bias_s=2e-9),
                ),
            ]
        )
        assert biased.estimate.tof_s == pytest.approx(
            plain.estimate.tof_s - 2e-9, abs=1e-14
        )

    def test_stats_throughput(self, rng):
        service = RangingService(FAST_CONFIG)
        out = []
        service.submit(
            [RangingRequest("x", FREQS_5G, one_link(rng, FREQS_5G))], stats_out=out
        )
        (stats,) = out
        assert stats.elapsed_s > 0
        assert stats.links_per_s > 0

    def test_empty_submit_returns_well_formed_stats(self):
        """submit([]) is a contract, not an accident: no responses, a
        zero-shard ServiceStats, and a defined throughput of zero (the
        streaming front end can flush an empty window)."""
        service = RangingService(FAST_CONFIG)
        out = []
        assert service.submit([], stats_out=out) == []
        (stats,) = out
        assert stats.n_requests == 0
        assert stats.n_plans == 0
        assert stats.n_shards == 0
        assert stats.n_failed == 0
        assert stats.elapsed_s >= 0
        assert stats.links_per_s == 0.0

    def test_single_request_runs_as_one_shard(self, rng):
        """A 1-link submission is one plan, one shard — and its stats
        say so explicitly rather than by luck of the sharding loop."""
        service = RangingService(FAST_CONFIG)
        out = []
        responses = service.submit(
            [RangingRequest("only", FREQS_5G, one_link(rng, FREQS_5G))],
            stats_out=out,
        )
        assert len(responses) == 1 and responses[0].ok
        (stats,) = out
        assert stats.n_requests == 1
        assert stats.n_plans == 1
        assert stats.n_shards == 1
        assert stats.n_failed == 0
        assert stats.links_per_s > 0

    def test_single_failed_request_still_counts_in_stats(self):
        """The one-shard degenerate case keeps its failure accounting."""
        service = RangingService(FAST_CONFIG)
        out = []
        responses = service.submit(
            [RangingRequest("dead", FREQS_5G, np.zeros(len(FREQS_5G)))],
            stats_out=out,
        )
        assert len(responses) == 1 and not responses[0].ok
        (stats,) = out
        assert stats.n_requests == 1
        assert stats.n_shards == 1
        assert stats.n_failed == 1

    def test_invalid_shard_size_rejected(self):
        with pytest.raises(ValueError):
            RangingService(max_shard_links=0)

    def test_linalg_error_link_does_not_poison_its_shard(self, rng):
        """Regression: NaN products make the hybrid path's least-squares
        refits raise ``np.linalg.LinAlgError`` (not a ValueError on
        every NumPy version) — one such link must fail alone instead of
        crashing the whole submit."""
        service = RangingService(FAST_CONFIG)
        poisoned = np.full(len(FREQS_5G), np.nan + 1j * np.nan)
        out = []
        responses = service.submit(
            [
                RangingRequest("alive-1", FREQS_5G, one_link(rng, FREQS_5G)),
                RangingRequest("poisoned", FREQS_5G, poisoned),
                RangingRequest("alive-2", FREQS_5G, one_link(rng, FREQS_5G, 45e-9)),
            ],
            stats_out=out,
        )
        assert [r.link_id for r in responses] == ["alive-1", "poisoned", "alive-2"]
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert responses[1].error
        assert out[0].n_failed == 1
        # The healthy links got real estimates despite the bad neighbour.
        assert 0.0 < responses[0].estimate.tof_s < responses[2].estimate.tof_s

    def test_dead_link_does_not_poison_its_shard(self, rng):
        """All-zero products (dead radio) fail alone; neighbours survive."""
        service = RangingService(FAST_CONFIG)
        out = []
        responses = service.submit(
            [
                RangingRequest("alive-1", FREQS_5G, one_link(rng, FREQS_5G)),
                RangingRequest("dead", FREQS_5G, np.zeros(len(FREQS_5G))),
                RangingRequest("alive-2", FREQS_5G, one_link(rng, FREQS_5G, 50e-9)),
            ],
            stats_out=out,
        )
        assert [r.link_id for r in responses] == ["alive-1", "dead", "alive-2"]
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert responses[1].error  # carries the estimator's reason
        with pytest.raises(ValueError):
            responses[1].distance_m
        assert out[0].n_failed == 1


    def test_bad_exponent_fails_alone_with_a_named_error(self):
        """An exponent that is not a positive integer is its request's
        own error: the exponent is part of the plan key, so that request
        solves alone, and its submit-mate gets its alone ToF."""
        service = RangingService(FAST_CONFIG)
        h = steering_vector(FREQS_5G, 40e-9)
        good = RangingRequest("good", FREQS_5G, h)
        responses = service.submit(
            [good, RangingRequest("bad", FREQS_5G, h, exponent=0)]
        )
        (alone,) = service.submit([good])
        assert [r.link_id for r in responses] == ["good", "bad"]
        assert responses[0].ok
        assert responses[0].estimate.tof_s == alone.estimate.tof_s
        assert not responses[1].ok
        assert responses[1].error == "exponent must be a positive integer, got 0"


class TestUnsolvableScreen:
    """Links the engine names as unsolvable are answered with its
    reasons, and the rest are solved in one more batched call."""

    def test_screened_links_skip_the_batched_solve(self, rng):
        """One all-zero and one NaN row: the boundary call carries all
        five rows, because the engine is the only screen, and names the
        two before any kernel runs; then one call carries the other
        rows.  No link-by-link retry, request order kept, named reasons,
        and the other links' ToF bit-identical to submitting them
        alone."""
        engine = RecordingEngine(FAST_CONFIG)
        service = RangingService(engine=engine)
        poisoned = one_link(rng, FREQS_5G)
        poisoned[4] = np.nan
        requests = [
            RangingRequest("alive-1", FREQS_5G, one_link(rng, FREQS_5G, 20e-9)),
            RangingRequest("dead", FREQS_5G, np.zeros(len(FREQS_5G))),
            RangingRequest("alive-2", FREQS_5G, one_link(rng, FREQS_5G, 35e-9)),
            RangingRequest("poisoned", FREQS_5G, poisoned),
            RangingRequest("alive-3", FREQS_5G, one_link(rng, FREQS_5G, 50e-9)),
        ]
        alive = [requests[i] for i in (0, 2, 4)]
        retries_before = isolated_retries(requests[0])
        out = []

        responses = service.submit(requests, stats_out=out)

        assert [len(stack) for stack in engine.calls] == [5, 3]
        np.testing.assert_array_equal(
            engine.calls[1], np.vstack([r.products for r in alive])
        )
        assert engine.no_kernel_saw_an_unsolvable_row()
        assert isolated_retries(requests[0]) == retries_before
        assert [r.link_id for r in responses] == [r.link_id for r in requests]
        assert "no signal power" in responses[1].error
        assert "non-finite" in responses[3].error
        assert not responses[1].ok and not responses[3].ok
        assert out[0].n_shards == 1
        assert out[0].n_failed == 2
        alone = RangingService(FAST_CONFIG).submit(alive)
        for got, want in zip([responses[i] for i in (0, 2, 4)], alone, strict=True):
            assert got.ok
            assert got.estimate.tof_s == want.estimate.tof_s

    def test_fully_screened_shard_still_counts(self, rng):
        """A shard whose links are all unsolvable makes only the
        boundary call, where the engine names both before any kernel
        runs, but still counts as a shard, and its failures count too."""
        engine = RecordingEngine(FAST_CONFIG)
        service = RangingService(engine=engine, max_shard_links=2)
        out = []
        responses = service.submit(
            [
                RangingRequest("dead-1", FREQS_5G, np.zeros(len(FREQS_5G))),
                RangingRequest("dead-2", FREQS_5G, np.full(len(FREQS_5G), np.inf)),
                RangingRequest("alive", FREQS_5G, one_link(rng, FREQS_5G)),
            ],
            stats_out=out,
        )
        assert [r.ok for r in responses] == [False, False, True]
        assert [len(stack) for stack in engine.calls] == [2, 1]
        assert engine.no_kernel_saw_an_unsolvable_row()
        assert out[0].n_shards == 2
        assert out[0].n_failed == 2

    def test_unforeseen_failure_retries_link_by_link(self, rng):
        """The backstop: an engine that raises on a finite, powered row
        still gets its shard retried one link at a time, and the retry
        counter moves.  The trap raises before the engine's screen, so
        the batched try carries the dead row too; the engine names that
        row in its one-link retry, before any kernel runs."""
        trap = one_link(rng, FREQS_5G, 40e-9)
        assert unsolvable_reason(trap) is None

        class TrapEngine(RecordingEngine):
            def estimate_products_batch(self, frequencies_hz, channels, *args, **kwargs):
                if any(np.array_equal(row, trap) for row in channels):
                    self.calls.append(np.array(channels))
                    raise ValueError("injected kernel failure")
                return super().estimate_products_batch(
                    frequencies_hz, channels, *args, **kwargs
                )

        engine = TrapEngine(FAST_CONFIG)
        service = RangingService(engine=engine)
        requests = [
            RangingRequest("alive-1", FREQS_5G, one_link(rng, FREQS_5G, 20e-9)),
            RangingRequest("trap", FREQS_5G, trap),
            RangingRequest("dead", FREQS_5G, np.zeros(len(FREQS_5G))),
            RangingRequest("alive-2", FREQS_5G, one_link(rng, FREQS_5G, 50e-9)),
        ]
        retries_before = isolated_retries(requests[0])
        out = []

        responses = service.submit(requests, stats_out=out)

        assert isolated_retries(requests[0]) == retries_before + 1
        # The batched try over all four rows, then one call per link.
        assert [len(stack) for stack in engine.calls] == [4, 1, 1, 1, 1]
        assert engine.no_kernel_saw_an_unsolvable_row()
        assert [r.link_id for r in responses] == [r.link_id for r in requests]
        assert [r.ok for r in responses] == [True, False, False, True]
        assert responses[1].error == "injected kernel failure"
        assert "no signal power" in responses[2].error
        assert out[0].n_failed == 2
