"""Fleet-scale answer pins of the batched paths.

Each test runs one fleet-sized stack through a batched path and through
the per-link (or per-fix) path it replaced, and pins the two answers
together: the hybrid engine at 64 links on the 5 GHz and the full
2.4+5 GHz plans, 64 concurrent one-link streams, 256 localization fixes
with ghosted ranges, and the sharded service.

The tests are untimed, whatever their names say: speed is measured
only by the repo benchmark (``perfbench/``, bounded by
``BENCHMARK.json``).
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.batch import BatchTofEngine
from repro.core.localization import locate_transmitter
from repro.core.localization_batch import locate_transmitter_batch
from repro.core.ndft import steering_vector
from repro.core.tof import TofEstimator, TofEstimatorConfig
from repro.net.service import RangingRequest, RangingService
from repro.rf.geometry import Point
from repro.stream import StreamConfig, StreamingRangingService
from repro.wifi.bands import US_BAND_PLAN

N_LINKS = 64
FREQS = US_BAND_PLAN.subset_5g().center_frequencies_hz
HYBRID_CONFIG = TofEstimatorConfig(method="hybrid", quirk_2g4=False)


def make_links(n_links: int, freqs: np.ndarray = FREQS, seed: int = 42) -> np.ndarray:
    """Stacked 3-path reciprocity-squared channels with mild noise."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_links):
        taus = np.sort(rng.uniform(5e-9, 90e-9, 3))
        amps = rng.uniform(0.3, 1.0, 3) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, 3)
        )
        h = sum(
            a * steering_vector(freqs, 2 * t)
            for a, t in zip(amps, taus, strict=True)
        )
        h += 0.02 * (
            rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
        )
        rows.append(h)
    return np.vstack(rows)


def assert_stack_matches_one_link(freqs: np.ndarray) -> None:
    """One hybrid engine call over ``N_LINKS`` links agrees with the
    one-link API (the engine at ``N = 1``) to 1e-12 s per link."""
    H = make_links(N_LINKS, freqs)
    stacked = BatchTofEngine(HYBRID_CONFIG).estimate_products_batch(
        freqs, H, exponent=2
    )
    estimator = TofEstimator(HYBRID_CONFIG)
    for h, estimate in zip(H, stacked, strict=True):
        alone = estimator.estimate_from_products(freqs, h, exponent=2)
        assert abs(estimate.tof_s - alone.tof_s) <= 1e-12


def test_hybrid_batch_throughput():
    """The production-default hybrid method on the 5 GHz plan, with the
    diagnostic L1 profile included."""
    assert_stack_matches_one_link(FREQS)


def test_hybrid_mixed_aperture_throughput():
    """Hybrid over the full 2.4+5 GHz plan (quirk-free, one group): the
    coarse mask is partial, so the full-aperture refit runs."""
    assert_stack_matches_one_link(US_BAND_PLAN.center_frequencies_hz)


def test_streaming_coalesced_matches_hybrid_batch():
    """``N_LINKS`` concurrent one-link streams coalesce into one
    full-width flush whose estimates match one batch call to 1e-12 s."""
    H = make_links(N_LINKS)
    batch_tofs = [
        e.tof_s
        for e in BatchTofEngine(HYBRID_CONFIG).estimate_products_batch(
            FREQS, H, exponent=2
        )
    ]
    # The flush trigger is the size cap (the N-th submit), not the
    # timer: on a loaded box a short window can expire while the gather
    # is still enqueueing and split the batch.
    streaming = StreamingRangingService(
        HYBRID_CONFIG, StreamConfig(max_wait_s=600.0, max_batch_links=N_LINKS)
    )

    async def run_streams():
        return await asyncio.gather(
            *(
                streaming.submit(RangingRequest(str(i), FREQS, h))
                for i, h in enumerate(H)
            )
        )

    try:
        responses = asyncio.run(run_streams())
    finally:
        streaming.close()  # release the flush worker thread

    for response, want in zip(responses, batch_tofs, strict=True):
        assert abs(response.estimate.tof_s - want) <= 1e-12
    assert streaming.stats.n_flushes == 1, "streams did not coalesce"
    assert streaming.stats.largest_flush == N_LINKS
    assert streaming.stats.n_groups == 1


def test_localization_fixes_throughput():
    """256 clients, one in eight with a ghosted range: each row of the
    stacked solve equals the one-client ``locate_transmitter`` call
    (pinned at 1e-9 m), with the same ranges dropped."""
    n_clients = 256
    anchors = [Point(0.0, 0.0), Point(14.0, 0.0), Point(14.0, 10.0), Point(0.0, 10.0)]
    rng = np.random.default_rng(42)
    targets = np.column_stack(
        [rng.uniform(1.0, 13.0, n_clients), rng.uniform(1.0, 9.0, n_clients)]
    )
    distances = np.hypot(
        targets[:, None, 0] - np.array([a.x for a in anchors])[None, :],
        targets[:, None, 1] - np.array([a.y for a in anchors])[None, :],
    ) + rng.normal(0.0, 0.05, (n_clients, len(anchors)))
    distances = np.abs(distances)
    distances[::8, 0] += rng.uniform(12.0, 25.0, len(distances[::8, 0]))

    batch_fixes = locate_transmitter_batch(anchors, distances)
    for row, fix in zip(distances, batch_fixes, strict=True):
        alone = locate_transmitter(anchors, list(row))
        assert alone.position.distance_to(fix.position) <= 1e-9
        assert alone.used_indices == fix.used_indices


def test_sharded_service_throughput_scales_with_batch():
    """32 ista links through a service capped at 16 links per shard:
    two shards, each estimate matching one raw engine call to 1e-12 s."""
    config = TofEstimatorConfig(method="ista", quirk_2g4=False)
    H = make_links(32, seed=7)
    engine_tofs = [
        e.tof_s
        for e in BatchTofEngine(config).estimate_products_batch(FREQS, H, exponent=2)
    ]
    service = RangingService(config, max_shard_links=16)
    out = []
    responses = service.submit(
        [RangingRequest(str(i), FREQS, h) for i, h in enumerate(H)], stats_out=out
    )
    for want, response in zip(engine_tofs, responses, strict=True):
        assert abs(response.estimate.tof_s - want) <= 1e-12
    assert out[0].n_shards == 2
