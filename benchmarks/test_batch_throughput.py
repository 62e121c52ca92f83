"""Throughput of the batched ranging engine versus one-link loops.

Measures links/sec at ``N_LINKS = 64`` synthetic multipath links for
three implementations of the same ``method="ista"`` estimate:

* ``seed_scalar`` — a faithful re-implementation of the pre-batch
  per-call path (rebuilds the Fourier matrix and recomputes the
  Lipschitz SVD on every call, original fancy-indexed thresholding and
  per-iteration norm pair).  This is the N-iteration scalar loop the
  batched engine replaced, frozen here as the regression baseline.
* ``scalar`` — the one-link :class:`repro.core.tof.TofEstimator` API in
  a loop, which solves each link as a batch of one (the engine at
  ``N = 1``).
* ``batch`` — :class:`repro.core.batch.BatchTofEngine` in one call.

A second series does the same for ``method="hybrid"`` (the production
default, at its default settings): ``scalar`` loops the one-link API
per link, ``batch`` runs the vectorized deflation kernel
(`repro.core.deflation_batch`) over all links in one call.  The
batched runs must agree with the one-link answers to 1e-12 s per link,
beat the seed baseline by ``MIN_SPEEDUP`` (ista) and the one-link loop
by ``MIN_HYBRID_SPEEDUP`` (hybrid).  All numbers land in
``benchmarks/artifacts/batch_throughput.json`` (the CI benchmark job
uploads it as an artifact) — each series under its own key, merged so
either test can run alone.

Note on the speedup floors: the FISTA iterations are not BLAS-bound.
On the 24 x 399 operator the two GEMMs are about 40% of an iteration
and the rest is elementwise numpy (soft-threshold, step, stop test),
which more BLAS threads do not speed up.  The asserted floors are the
single-core worst case, and the recorded ``target_speedup`` is 5x.
Override with ``BATCH_BENCH_MIN_SPEEDUP`` / ``BATCH_BENCH_MIN_HYBRID_SPEEDUP``
to tighten them on beefier boxes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import BatchTofEngine
from repro.core.ndft import (
    capped_window_s,
    ndft_matrix,
    steering_vector,
    tau_grid,
)
from repro.core.profile import MultipathProfile, refine_first_peak
from repro.core.tof import TofEstimator, TofEstimatorConfig
from repro.obs import REGISTRY
from repro.obs import bench as obs_bench
from repro.wifi.bands import US_BAND_PLAN

pytestmark = pytest.mark.bench

N_LINKS = 64
MIN_SPEEDUP = float(os.environ.get("BATCH_BENCH_MIN_SPEEDUP", "1.8"))
MIN_HYBRID_SPEEDUP = float(os.environ.get("BATCH_BENCH_MIN_HYBRID_SPEEDUP", "2.0"))
MIN_STREAM_PARITY = float(os.environ.get("STREAM_BENCH_MIN_PARITY", "0.9"))
MIN_LOC_SPEEDUP = float(os.environ.get("LOC_BENCH_MIN_SPEEDUP", "2.0"))
TARGET_SPEEDUP = 5.0
FREQS = US_BAND_PLAN.subset_5g().center_frequencies_hz
CONFIG = TofEstimatorConfig(method="ista", quirk_2g4=False)
HYBRID_CONFIG = TofEstimatorConfig(method="hybrid", quirk_2g4=False)
ARTIFACT = Path(__file__).resolve().parent / "artifacts" / "batch_throughput.json"
HISTORY = Path(__file__).resolve().parent / "artifacts" / "bench_history.jsonl"

# One stamp and SHA per benchmark run, shared by every series it
# appends, so `bench-compare` groups a run's points as one history row.
RUN_TIMESTAMP_S = time.time()
RUN_SHA = obs_bench.git_sha()


def _append_history(
    series: str,
    value: float,
    unit: str = "links_per_s",
    meta: dict | None = None,
) -> None:
    """Append one series' headline rate to the regression-gate history."""
    obs_bench.append_history(
        HISTORY,
        series,
        value,
        unit=unit,
        sha=RUN_SHA,
        timestamp_s=RUN_TIMESTAMP_S,
        meta=meta,
    )


def _merge_artifact(section: str, payload: dict) -> None:
    """Write one series into the shared report, keeping the others."""
    report = {}
    if ARTIFACT.exists():
        try:
            report = json.loads(ARTIFACT.read_text())
        except json.JSONDecodeError:
            report = {}
    report[section] = payload
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2))


def _kernel_breakdown(batch_s: float) -> dict:
    """Per-stage engine kernel seconds from the metrics registry.

    Splits the timed batch run into its BLAS-bound kernel stages and
    the non-kernel remainder, so a missed ``meets_target`` is
    diagnosable from the artifact alone: a fat ``fista`` share means
    the run was GEMM-bound (more cores would help), a fat
    ``python_overhead_s`` means the engine's own bookkeeping grew.
    Callers must ``REGISTRY.reset()`` immediately before the timed
    batch phase so the sums cover exactly that phase.
    """
    series = REGISTRY.snapshot(prefix="engine.kernel_s").get(
        "engine.kernel_s", {"series": []}
    )["series"]
    stages = {s["labels"]["stage"]: s["sum"] for s in series}
    kernel_s = sum(stages.values())
    return {
        "stages_s": stages,
        "kernel_total_s": kernel_s,
        "python_overhead_s": max(0.0, batch_s - kernel_s),
        "kernel_share": kernel_s / batch_s if batch_s > 0 else 0.0,
    }


def make_links(n_links: int, seed: int = 42) -> np.ndarray:
    """Stacked 3-path reciprocity-squared channels with mild noise."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_links):
        taus = np.sort(rng.uniform(5e-9, 90e-9, 3))
        amps = rng.uniform(0.3, 1.0, 3) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, 3)
        )
        h = sum(a * steering_vector(FREQS, 2 * t) for a, t in zip(amps, taus))
        h += 0.02 * (
            rng.normal(size=len(FREQS)) + 1j * rng.normal(size=len(FREQS))
        )
        rows.append(h)
    return np.vstack(rows)


# ----------------------------------------------------------------------
# Seed-equivalent scalar baseline (pre-batch per-call implementation)
# ----------------------------------------------------------------------
def _seed_soft_threshold(p: np.ndarray, threshold: float) -> np.ndarray:
    mags = np.abs(p)
    out = np.zeros_like(p)
    keep = (mags > threshold) & (mags > 1e-300)
    out[keep] = p[keep] * (mags[keep] - threshold) / mags[keep]
    return out


def _seed_invert_ndft(channels, freqs, taus, cfg):
    h = np.asarray(channels, dtype=complex)
    F = ndft_matrix(freqs, taus)  # rebuilt per call, as the seed did
    Fh = F.conj().T
    gamma = 1.0 / float(np.linalg.norm(F, 2) ** 2)  # per-call SVD
    alpha = cfg.alpha_rel * float(np.abs(Fh @ h).max())
    if alpha == 0.0:
        return np.zeros(len(taus), dtype=complex)
    p = np.zeros(len(taus), dtype=complex)
    momentum = p
    t_k = 1.0
    for _ in range(cfg.max_iterations):
        base = momentum if cfg.accelerated else p
        residual = F @ base - h
        p_next = _seed_soft_threshold(
            base - gamma * (Fh @ residual), gamma * alpha
        )
        step = float(np.linalg.norm(p_next - p))
        scale = max(float(np.linalg.norm(p_next)), 1e-30)
        if cfg.accelerated:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            momentum = p_next + ((t_k - 1.0) / t_next) * (p_next - p)
            t_k = t_next
        p = p_next
        if step < cfg.tolerance_rel * scale:
            break
    return p


def seed_scalar_tof(h: np.ndarray) -> float:
    """One link through the seed-equivalent per-call pipeline."""
    window = capped_window_s(FREQS, CONFIG.max_profile_delay_s)
    grid = tau_grid(window, CONFIG.grid_step_s)
    solution = _seed_invert_ndft(h, FREQS, grid, CONFIG.sparse)
    profile = MultipathProfile(
        grid, solution, dominance_threshold_rel=CONFIG.peak_threshold_rel
    )
    return refine_first_peak(profile, h, FREQS) / 2.0


def test_batch_throughput():
    H = make_links(N_LINKS)
    estimator = TofEstimator(CONFIG)
    engine = BatchTofEngine(CONFIG)
    # Warm caches and code paths so the timings compare steady state.
    engine.estimate_products_batch(FREQS, H[:2], exponent=2)
    estimator.estimate_from_products(FREQS, H[0], exponent=2)

    t0 = time.perf_counter()
    seed_tofs = [seed_scalar_tof(H[i]) for i in range(N_LINKS)]
    t1 = time.perf_counter()
    scalar_tofs = [
        estimator.estimate_from_products(FREQS, H[i], exponent=2).tof_s
        for i in range(N_LINKS)
    ]
    REGISTRY.reset()  # scope the kernel-stage sums to the batch phase
    t2 = time.perf_counter()
    batch_tofs = [
        e.tof_s for e in engine.estimate_products_batch(FREQS, H, exponent=2)
    ]
    t3 = time.perf_counter()

    seed_s, scalar_s, batch_s = t1 - t0, t2 - t1, t3 - t2
    agreement = max(abs(a - b) for a, b in zip(scalar_tofs, batch_tofs))
    seed_drift = max(abs(a - b) for a, b in zip(seed_tofs, batch_tofs))
    speedup_vs_seed = seed_s / batch_s
    speedup_vs_scalar = scalar_s / batch_s

    report = {
        "n_links": N_LINKS,
        "seed_scalar": {"seconds": seed_s, "links_per_s": N_LINKS / seed_s},
        "scalar": {"seconds": scalar_s, "links_per_s": N_LINKS / scalar_s},
        "batch": {"seconds": batch_s, "links_per_s": N_LINKS / batch_s},
        "speedup_vs_seed_scalar": speedup_vs_seed,
        "speedup_vs_scalar": speedup_vs_scalar,
        "min_speedup_asserted": MIN_SPEEDUP,
        "target_speedup": TARGET_SPEEDUP,
        "meets_target": speedup_vs_seed >= TARGET_SPEEDUP,
        "max_abs_tof_disagreement_s": agreement,
        "max_abs_drift_vs_seed_s": seed_drift,
        "batch_kernel_breakdown": _kernel_breakdown(batch_s),
    }
    _merge_artifact("ista", report)
    _append_history(
        "ista",
        N_LINKS / batch_s,
        meta={"kernel_breakdown": report["batch_kernel_breakdown"]},
    )
    print(
        f"\nbatch {N_LINKS / batch_s:.1f} links/s | scalar "
        f"{N_LINKS / scalar_s:.1f} | seed {N_LINKS / seed_s:.1f} | "
        f"speedup vs seed {speedup_vs_seed:.2f}x (target {TARGET_SPEEDUP}x), "
        f"vs scalar {speedup_vs_scalar:.2f}x | agreement {agreement:.2e} s"
    )

    assert agreement <= 1e-12, "batched engine diverged from the scalar path"
    assert seed_drift <= 1e-9, "engine drifted grossly from the seed estimator"
    assert speedup_vs_seed >= MIN_SPEEDUP, (
        f"batched engine only {speedup_vs_seed:.2f}x over the seed scalar "
        f"loop (floor {MIN_SPEEDUP}x)"
    )


def test_hybrid_batch_throughput():
    """The production-default hybrid method through the batched kernel.

    ``scalar`` loops the one-link ``TofEstimator`` API, which runs the
    engine at ``N = 1`` per link; ``batch`` solves all links in one
    engine call.  Both at the default hybrid settings (diagnostic L1
    profile included), so the speedup is the per-call overhead that
    stacking amortizes.
    """
    H = make_links(N_LINKS)
    estimator = TofEstimator(HYBRID_CONFIG)
    engine = BatchTofEngine(HYBRID_CONFIG)
    # Warm caches and code paths so the timings compare steady state.
    engine.estimate_products_batch(FREQS, H[:2], exponent=2)
    estimator.estimate_from_products(FREQS, H[0], exponent=2)

    t0 = time.perf_counter()
    scalar_tofs = [
        estimator.estimate_from_products(FREQS, H[i], exponent=2).tof_s
        for i in range(N_LINKS)
    ]
    t1 = time.perf_counter()
    REGISTRY.reset()  # scope the kernel-stage sums to the batch phase
    batch_tofs = [
        e.tof_s for e in engine.estimate_products_batch(FREQS, H, exponent=2)
    ]
    t2 = time.perf_counter()

    scalar_s, batch_s = t1 - t0, t2 - t1
    agreement = max(abs(a - b) for a, b in zip(scalar_tofs, batch_tofs))
    speedup = scalar_s / batch_s

    report = {
        "n_links": N_LINKS,
        "scalar": {"seconds": scalar_s, "links_per_s": N_LINKS / scalar_s},
        "batch": {"seconds": batch_s, "links_per_s": N_LINKS / batch_s},
        "speedup_vs_scalar": speedup,
        "min_speedup_asserted": MIN_HYBRID_SPEEDUP,
        "max_abs_tof_disagreement_s": agreement,
        "batch_kernel_breakdown": _kernel_breakdown(batch_s),
    }
    _merge_artifact("hybrid", report)
    _append_history(
        "hybrid",
        N_LINKS / batch_s,
        meta={"kernel_breakdown": report["batch_kernel_breakdown"]},
    )
    print(
        f"\nhybrid batch {N_LINKS / batch_s:.1f} links/s | scalar "
        f"{N_LINKS / scalar_s:.1f} | speedup {speedup:.2f}x "
        f"(floor {MIN_HYBRID_SPEEDUP}x) | agreement {agreement:.2e} s"
    )

    assert agreement <= 1e-12, "batched hybrid diverged from the scalar path"
    assert speedup >= MIN_HYBRID_SPEEDUP, (
        f"batched hybrid only {speedup:.2f}x over the scalar per-link "
        f"loop (floor {MIN_HYBRID_SPEEDUP}x)"
    )


def test_hybrid_mixed_aperture_throughput():
    """Hybrid over the full 2.4+5 GHz plan (quirk-free, one group).

    This is the configuration where the coarse mask is partial, so the
    full-aperture refit runs on both sides; the series keeps that cost
    visible instead of hiding it behind the refit-free 5 GHz run.
    """
    freqs = US_BAND_PLAN.center_frequencies_hz
    rng = np.random.default_rng(42)
    rows = []
    for _ in range(N_LINKS):
        taus = np.sort(rng.uniform(5e-9, 90e-9, 3))
        amps = rng.uniform(0.3, 1.0, 3) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, 3)
        )
        h = sum(a * steering_vector(freqs, 2 * t) for a, t in zip(amps, taus))
        h += 0.02 * (
            rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
        )
        rows.append(h)
    H = np.vstack(rows)
    estimator = TofEstimator(HYBRID_CONFIG)
    engine = BatchTofEngine(HYBRID_CONFIG)
    engine.estimate_products_batch(freqs, H[:2], exponent=2)
    estimator.estimate_from_products(freqs, H[0], exponent=2)

    t0 = time.perf_counter()
    scalar_tofs = [
        estimator.estimate_from_products(freqs, H[i], exponent=2).tof_s
        for i in range(N_LINKS)
    ]
    t1 = time.perf_counter()
    batch_tofs = [
        e.tof_s for e in engine.estimate_products_batch(freqs, H, exponent=2)
    ]
    t2 = time.perf_counter()

    scalar_s, batch_s = t1 - t0, t2 - t1
    agreement = max(abs(a - b) for a, b in zip(scalar_tofs, batch_tofs))
    speedup = scalar_s / batch_s
    _merge_artifact(
        "hybrid_mixed_aperture",
        {
            "n_links": N_LINKS,
            "n_bands": len(freqs),
            "scalar": {"seconds": scalar_s, "links_per_s": N_LINKS / scalar_s},
            "batch": {"seconds": batch_s, "links_per_s": N_LINKS / batch_s},
            "speedup_vs_scalar": speedup,
            "max_abs_tof_disagreement_s": agreement,
        },
    )
    _append_history(
        "hybrid_mixed_aperture",
        N_LINKS / batch_s,
        meta={"speedup_vs_scalar": speedup},
    )
    print(
        f"\nhybrid mixed-aperture batch {N_LINKS / batch_s:.1f} links/s | "
        f"scalar {N_LINKS / scalar_s:.1f} | speedup {speedup:.2f}x | "
        f"agreement {agreement:.2e} s"
    )
    assert agreement <= 1e-12
    # A modest floor guards against regressions without flaking on
    # slow runners.
    assert speedup >= 1.5


def test_streaming_coalesced_matches_hybrid_batch():
    """N concurrent 1-link streams through the micro-batcher vs one
    N-link hybrid batch — the ``streaming_coalesced`` series.

    The streaming front end exists so that independent per-link streams
    do not fall back to scalar per-call estimation; the bar here is
    *parity* with the batch path (single core — the coalesced flush IS
    one batch call, plus asyncio bookkeeping), asserted as at least
    ``MIN_STREAM_PARITY`` of the batch links/sec on the same core.
    """
    import asyncio

    from repro.net.service import RangingRequest
    from repro.stream import StreamConfig, StreamingRangingService

    H = make_links(N_LINKS)
    engine = BatchTofEngine(HYBRID_CONFIG)
    # The flush trigger is the size cap (the N-th submit), not the
    # timer: on a loaded box a millisecond window can expire while the
    # gather is still enqueueing, splitting the batch and measuring a
    # partial coalesce.  The long window never fires in practice.
    # All links share one band plan, so the flush pool contributes one
    # worker here — the parity floor below is exactly the pool's gate
    # (pooled dispatch must not cost measurable throughput vs batch).
    stream_config = StreamConfig(max_wait_s=600.0, max_batch_links=N_LINKS)
    streaming = StreamingRangingService(HYBRID_CONFIG, stream_config)
    # Warm caches and both code paths so the timings compare steady state.
    engine.estimate_products_batch(FREQS, H[:2], exponent=2)

    async def warm_up():
        task = asyncio.ensure_future(
            streaming.submit(RangingRequest("warm", FREQS, H[0]))
        )
        await asyncio.sleep(0)
        await streaming.drain()
        return await task

    asyncio.run(warm_up())

    async def run_streams():
        return await asyncio.gather(
            *(
                streaming.submit(RangingRequest(str(i), FREQS, H[i]))
                for i in range(N_LINKS)
            )
        )

    # Single runs of either path jitter ±10–30% on a loaded box — enough
    # to flip a parity assertion on noise alone.  Best of five alternating
    # runs per path compares the steady-state cost of each; best of three
    # read parity 0.87–0.88 in some tier-1 runs on 2 vCPUs.
    try:
        batch_s, stream_s = np.inf, np.inf
        batch_tofs: list[float] = []
        responses = []
        for _ in range(5):
            t0 = time.perf_counter()
            batch_tofs = [
                e.tof_s
                for e in engine.estimate_products_batch(FREQS, H, exponent=2)
            ]
            batch_s = min(batch_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            responses = asyncio.run(run_streams())
            stream_s = min(stream_s, time.perf_counter() - t0)

        agreement = max(
            abs(r.estimate.tof_s - want)
            for r, want in zip(responses, batch_tofs)
        )
        parity = batch_s / stream_s  # 1.0 = streaming exactly matches batch

        report = {
            "n_links": N_LINKS,
            "batch": {"seconds": batch_s, "links_per_s": N_LINKS / batch_s},
            "streaming": {
                "seconds": stream_s,
                "links_per_s": N_LINKS / stream_s,
            },
            "parity_vs_batch": parity,
            "min_parity_asserted": MIN_STREAM_PARITY,
            "largest_flush": streaming.stats.largest_flush,
            "flush_workers": stream_config.flush_workers,
            "n_plan_groups": streaming.stats.n_groups,
            "max_abs_tof_disagreement_s": agreement,
        }
        _merge_artifact("streaming_coalesced", report)
        _append_history(
            "streaming_coalesced",
            N_LINKS / stream_s,
            meta={"parity_vs_batch": parity},
        )
        print(
            f"\nstreaming {N_LINKS / stream_s:.1f} links/s | batch "
            f"{N_LINKS / batch_s:.1f} | parity {parity:.2f} "
            f"(floor {MIN_STREAM_PARITY}) | agreement {agreement:.2e} s"
        )

        assert agreement <= 1e-12, "streamed estimates diverged from the batch path"
        # Warm-up + five measured runs, each coalesced into exactly
        # one full-width, single-plan-group flush.
        assert streaming.stats.n_flushes == 6, "streams did not coalesce"
        assert streaming.stats.largest_flush == N_LINKS
        assert streaming.stats.n_groups == 6
        assert parity >= MIN_STREAM_PARITY, (
            f"coalesced streaming at {parity:.2f}x of batch throughput "
            f"(floor {MIN_STREAM_PARITY})"
        )
    finally:
        streaming.close()  # release the flush-pool worker threads


def test_localization_fixes_throughput():
    """Batched multi-client position solving vs a scalar per-fix loop —
    the ``localization_fixes`` series.

    The §8 layer is the last per-call scalar hop between batched ranges
    and what deployments actually serve (positions), so its fixes/sec
    gets the same treatment as links/sec: ``scalar`` loops
    ``locate_transmitter`` client by client, ``batch`` runs the
    lockstep ``locate_transmitter_batch`` over the whole fleet.  The
    two must agree to 1e-9 m per fix (they share the damped
    Gauss–Newton kernel) and the batch must clear ``MIN_LOC_SPEEDUP``
    on one core.
    """
    from repro.core.localization import locate_transmitter
    from repro.core.localization_batch import locate_transmitter_batch
    from repro.rf.geometry import Point

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
    # A slice of clients carries one ghosted range so the timed runs
    # exercise the geometry filter on both paths.
    distances[:: 8, 0] += rng.uniform(12.0, 25.0, len(distances[:: 8, 0]))

    # Warm both code paths so the timings compare steady state.
    locate_transmitter_batch(anchors, distances[:2])
    locate_transmitter(anchors, list(distances[0]))

    t0 = time.perf_counter()
    scalar_fixes = [
        locate_transmitter(anchors, list(distances[i]))
        for i in range(n_clients)
    ]
    t1 = time.perf_counter()
    batch_fixes = locate_transmitter_batch(anchors, distances)
    t2 = time.perf_counter()

    scalar_s, batch_s = t1 - t0, t2 - t1
    agreement = max(
        a.position.distance_to(b.position)
        for a, b in zip(scalar_fixes, batch_fixes)
    )
    speedup = scalar_s / batch_s

    report = {
        "n_clients": n_clients,
        "n_anchors": len(anchors),
        "scalar": {"seconds": scalar_s, "fixes_per_s": n_clients / scalar_s},
        "batch": {"seconds": batch_s, "fixes_per_s": n_clients / batch_s},
        "speedup_vs_scalar": speedup,
        "min_speedup_asserted": MIN_LOC_SPEEDUP,
        "max_abs_position_disagreement_m": agreement,
    }
    _merge_artifact("localization_fixes", report)
    _append_history(
        "localization_fixes",
        n_clients / batch_s,
        unit="fixes_per_s",
        meta={"speedup_vs_scalar": speedup},
    )
    print(
        f"\nlocalization batch {n_clients / batch_s:.0f} fixes/s | scalar "
        f"{n_clients / scalar_s:.0f} | speedup {speedup:.2f}x "
        f"(floor {MIN_LOC_SPEEDUP}x) | agreement {agreement:.2e} m"
    )

    assert agreement <= 1e-9, "batched solver diverged from the scalar path"
    for a, b in zip(scalar_fixes, batch_fixes):
        assert a.used_indices == b.used_indices
    assert speedup >= MIN_LOC_SPEEDUP, (
        f"batched localization only {speedup:.2f}x over the scalar "
        f"per-fix loop (floor {MIN_LOC_SPEEDUP}x)"
    )


def test_sharded_service_throughput_scales_with_batch():
    """The service facade adds only bookkeeping over the raw engine."""
    from repro.net.service import RangingRequest, RangingService

    H = make_links(32, seed=7)
    engine = BatchTofEngine(CONFIG)
    service = RangingService(CONFIG, max_shard_links=16)
    engine.estimate_products_batch(FREQS, H[:2], exponent=2)

    t0 = time.perf_counter()
    engine_tofs = [
        e.tof_s for e in engine.estimate_products_batch(FREQS, H, exponent=2)
    ]
    t1 = time.perf_counter()
    responses = service.submit(
        [RangingRequest(str(i), FREQS, H[i]) for i in range(len(H))]
    )
    t2 = time.perf_counter()

    for want, response in zip(engine_tofs, responses):
        assert abs(response.estimate.tof_s - want) <= 1e-12
    assert service.last_stats.n_shards == 2
    # Bookkeeping (grouping, sharding, response assembly) must stay in
    # the noise: well under the engine time itself.
    assert (t2 - t1) < 3.0 * (t1 - t0)
