"""Reusable experiment drivers behind the per-figure entry points.

Each driver mirrors the paper's §12 "Method" paragraphs: pairs of
devices at random testbed locations, a one-time free-space calibration
per device pair (§7 observation 2), repeated CSI sweeps, and the
estimator under test.  Figures call these with their own parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import BatchTofEngine
from repro.core.cfo import LinkCalibration
from repro.core.pipeline import ChronosDevice, ChronosPair, triangle_array
from repro.core.tof import TofEstimate, TofEstimator, TofEstimatorConfig
from repro.experiments.testbed import Testbed, office_testbed
from repro.rf.constants import SPEED_OF_LIGHT
from repro.rf.environment import free_space
from repro.rf.geometry import Point
from repro.wifi.hardware import INTEL_5300, HardwareProfile
from repro.wifi.radio import SimulatedLink


@dataclass
class TofSample:
    """One ToF measurement outcome on the testbed."""

    true_tof_s: float
    estimated_tof_s: float
    distance_m: float
    line_of_sight: bool
    estimate: TofEstimate

    @property
    def error_s(self) -> float:
        """Signed ToF error."""
        return self.estimated_tof_s - self.true_tof_s

    @property
    def abs_error_s(self) -> float:
        """Absolute ToF error (the Fig. 7a statistic)."""
        return abs(self.error_s)

    @property
    def abs_error_m(self) -> float:
        """Absolute error as a distance."""
        return self.abs_error_s * SPEED_OF_LIGHT


def calibrate_pair(
    tx_state,
    rx_state,
    estimator_config: TofEstimatorConfig,
    rng: np.random.Generator,
    reference_distance_m: float = 1.0,
    n_sweeps: int = 2,
    n_packets_per_band: int = 3,
) -> LinkCalibration:
    """§7's one-time known-distance calibration for a device pair."""
    link = SimulatedLink(
        environment=free_space(),
        tx_position=Point(0.0, 0.0),
        rx_position=Point(reference_distance_m, 0.0),
        tx_state=tx_state,
        rx_state=rx_state,
        rng=rng,
    )
    estimator = TofEstimator(estimator_config)
    sweeps = [link.sweep(n_packets_per_band) for _ in range(n_sweeps)]
    estimate = estimator.estimate_many(sweeps)
    return LinkCalibration.fit(
        estimate.raw_tof_s, link.true_tof_s, estimate.coarse_round_trip_s
    )


def run_tof_experiment(
    n_pairs: int,
    seed: int = 11,
    line_of_sight: bool | None = None,
    testbed: Testbed | None = None,
    profile: HardwareProfile = INTEL_5300,
    estimator_config: TofEstimatorConfig | None = None,
    n_packets_per_band: int = 3,
    n_sweeps: int = 1,
) -> list[TofSample]:
    """The §12.1 accuracy experiment: ToF error across testbed pairs.

    Every pair's CSI is acquired first, in the same RNG order as one
    pair at a time; then all pairs are estimated in one batched-engine
    submission.

    Args:
        n_pairs: Device-pair placements to evaluate.
        seed: Master seed (placements and hardware draws derive from it).
        line_of_sight: Restrict to LOS (True), NLOS (False) or both.
        testbed: The office floor; defaults to the Fig. 6 layout.
        profile: Card model for both devices.
        estimator_config: Estimator settings (profile computation is
            disabled by default for speed — ToF-only here).
        n_packets_per_band / n_sweeps: Acquisition depth.

    Returns:
        One :class:`TofSample` per evaluated pair.
    """
    tb = testbed or office_testbed()
    cfg = estimator_config or TofEstimatorConfig(compute_profile=False)
    rng = np.random.default_rng(seed)
    pairs = tb.location_pairs(n_pairs, rng, line_of_sight=line_of_sight)
    links: list[SimulatedLink] = []
    calibrations: list[LinkCalibration] = []
    sweeps_per_link: list[list] = []
    for tx_pos, rx_pos in pairs:
        tx_state = profile.sample_device_state(rng)
        rx_state = profile.sample_device_state(rng)
        calibrations.append(calibrate_pair(tx_state, rx_state, cfg, rng))
        link = SimulatedLink(
            environment=tb.environment,
            tx_position=tx_pos,
            rx_position=rx_pos,
            tx_state=tx_state,
            rx_state=rx_state,
            rng=rng,
        )
        links.append(link)
        sweeps_per_link.append(
            [link.sweep(n_packets_per_band) for _ in range(n_sweeps)]
        )
    estimates = BatchTofEngine(cfg).estimate_sweeps_batch(
        sweeps_per_link, calibrations
    )
    return [
        TofSample(
            true_tof_s=link.true_tof_s,
            estimated_tof_s=estimate.tof_s,
            distance_m=link.true_distance_m,
            line_of_sight=link.line_of_sight,
            estimate=estimate,
        )
        for link, estimate in zip(links, estimates, strict=True)
    ]


@dataclass
class LocalizationSample:
    """One localization fix on the testbed."""

    error_m: float
    line_of_sight: bool
    residual_m: float
    n_anchors_used: int


def run_localization_experiment(
    n_pairs: int,
    antenna_separation_m: float,
    seed: int = 23,
    line_of_sight: bool | None = None,
    testbed: Testbed | None = None,
    profile: HardwareProfile = INTEL_5300,
    estimator_config: TofEstimatorConfig | None = None,
    n_sweeps: int = 1,
) -> list[LocalizationSample]:
    """The §12.2 experiment: 3-antenna receiver localizes a transmitter.

    ``antenna_separation_m`` is the §10/§12.2 knob: 0.3 m for a client
    laptop, 1.0 m for an access point.
    """
    tb = testbed or office_testbed()
    cfg = estimator_config or TofEstimatorConfig(
        compute_profile=False, quirk_2g4=profile.phase_quirk_2g4
    )
    rng = np.random.default_rng(seed)
    pairs = tb.location_pairs(n_pairs, rng, line_of_sight=line_of_sight)
    samples: list[LocalizationSample] = []
    for tx_pos, rx_pos in pairs:
        # Both devices are 3-antenna laptops in §12.2; the pairwise
        # distance strategy of §8 needs the transmit array too.
        transmitter = ChronosDevice.create(
            "tx",
            tx_pos,
            rng,
            profile,
            antenna_offsets=triangle_array(0.3),
            heading_rad=rng.uniform(0, 2 * np.pi),
        )
        receiver = ChronosDevice.create(
            "rx",
            rx_pos,
            rng,
            profile,
            antenna_offsets=triangle_array(antenna_separation_m),
            heading_rad=rng.uniform(0, 2 * np.pi),
        )
        pair = ChronosPair(
            tb.environment,
            receiver=receiver,
            transmitter=transmitter,
            rng=rng,
            estimator_config=cfg,
        )
        pair.calibrate()
        fix = pair.localize(n_sweeps=n_sweeps)
        los = tb.environment.has_line_of_sight(tx_pos, rx_pos)
        samples.append(
            LocalizationSample(
                error_m=fix.error_m,
                line_of_sight=los,
                residual_m=fix.result.residual_rms_m,
                n_anchors_used=len(fix.result.used_indices),
            )
        )
    return samples


@dataclass
class DetectionDelaySample:
    """Per-packet detection delay vs propagation delay (Fig. 7c)."""

    detection_delays_s: np.ndarray
    propagation_delays_s: np.ndarray


def run_detection_delay_experiment(
    n_pairs: int = 10,
    seed: int = 31,
    testbed: Testbed | None = None,
    profile: HardwareProfile = INTEL_5300,
) -> DetectionDelaySample:
    """Collect per-packet detection delays the way §12.1 does.

    The paper computes detection delay from channel phase: the CSI
    slope gives total group delay (τ + δ + chain); subtracting the
    ToF estimate and the calibrated chain constant leaves δ.
    """
    from repro.core.interpolation import group_delay_s

    tb = testbed or office_testbed()
    rng = np.random.default_rng(seed)
    pairs = tb.location_pairs(n_pairs, rng)
    cfg = TofEstimatorConfig(compute_profile=False)
    detection: list[float] = []
    propagation: list[float] = []
    for tx_pos, rx_pos in pairs:
        tx_state = profile.sample_device_state(rng)
        rx_state = profile.sample_device_state(rng)
        link = SimulatedLink(
            environment=tb.environment,
            tx_position=tx_pos,
            rx_position=rx_pos,
            tx_state=tx_state,
            rx_state=rx_state,
            rng=rng,
        )
        calibration = calibrate_pair(tx_state, rx_state, cfg, rng)
        estimator = TofEstimator(cfg, calibration)
        sweep = link.sweep(3)
        estimate = estimator.estimate_many([sweep])
        chain_fwd = tx_state.tx_chain_delay_s + rx_state.rx_chain_delay_s
        for m in sweep:
            if m.band.is_2g4 and profile.phase_quirk_2g4:
                continue
            slope = group_delay_s(m.forward)
            delta = slope - estimate.tof_s - chain_fwd
            detection.append(delta)
            propagation.append(link.true_tof_s)
    return DetectionDelaySample(
        detection_delays_s=np.array(detection),
        propagation_delays_s=np.array(propagation),
    )


@dataclass(frozen=True)
class StreamingTrackingResult:
    """Outcome of a streamed multi-link tracking run.

    ``raw_rmse_m`` scores the per-sweep estimates against truth;
    ``tracked_rmse_m`` scores the smoothed tracker output — the §9
    synergy, measured outside the drone loop.  The coalescing counters
    show how many engine flushes served the whole session.
    """

    n_links: int
    n_requests: int
    n_failed: int
    n_flushes: int
    mean_links_per_flush: float
    raw_rmse_m: float
    tracked_rmse_m: float

    @property
    def synergy(self) -> float:
        """Raw-over-tracked error ratio (> 1 means tracking helps)."""
        if self.tracked_rmse_m == 0.0:
            return float("inf")
        return self.raw_rmse_m / self.tracked_rmse_m


@dataclass(frozen=True)
class FleetLocalizationResult:
    """Outcome of a streamed multi-client localization run.

    ``fix_rmse_m`` / ``median_fix_error_m`` score the raw per-tick §8
    fixes against ground truth (the Fig. 8 statistic, here for a whole
    fleet at once); ``tracked_rmse_m`` scores the smoothed position
    tracks.  The coalescing counters show how many engine flushes and
    batched position solves served the entire session.
    """

    n_clients: int
    n_anchors: int
    n_fix_attempts: int
    n_fixes: int
    n_failed: int
    fix_rmse_m: float
    median_fix_error_m: float
    tracked_rmse_m: float
    n_range_flushes: int
    mean_links_per_flush: float
    n_solves: int
    mean_clients_per_solve: float

    @property
    def synergy(self) -> float:
        """Raw-over-tracked error ratio (> 1 means tracking helps)."""
        if self.tracked_rmse_m == 0.0:
            return float("inf")
        return self.fix_rmse_m / self.tracked_rmse_m


def run_fleet_localization_experiment(
    n_clients: int = 8,
    n_anchors: int = 4,
    n_ticks: int = 10,
    rate_hz: float = 5.0,
    speed_mps: float = 0.6,
    noise: float = 0.03,
    outlier_probability: float = 0.08,
    floor_m: tuple[float, float] = (14.0, 10.0),
    seed: int = 71,
    estimator_config: TofEstimatorConfig | None = None,
    anchors_per_client: int | None = None,
) -> FleetLocalizationResult:
    """Stream a fleet of moving clients through the full serving stack.

    The §8 deployment scenario at fleet scale: ``n_anchors`` anchor
    antennas ring an office floor, ``n_clients`` clients walk constant-
    velocity paths across it, and every tick each client's sweep fans
    out to all anchors through one shared
    :class:`~repro.loc.service.LocalizationService`.  The per-anchor
    CSI is synthetic 5 GHz multipath (direct path + one bounce + noise)
    with occasional body-blocked sweeps whose dominant late reflection
    yanks that anchor's range meters off — exercising the geometry
    filter and the position tracks' innovation gating end to end.

    The point of the exercise is the coalescing: all of a tick's
    anchor links land in one micro-batch flush, and clients with as
    many usable anchors solve their circle systems through one batched
    call — the counters in the result pin both.

    ``anchors_per_client`` opts into the multi-AP regime: each client
    hears only a fixed random subset of that many anchors and its
    ``locate`` calls name the subset via request-level
    ``anchor_indices``.  Clients on different subsets of one size still
    coalesce into one batched position solve (the queue groups by
    anchor count); ``None`` keeps the every-client-hears-every-anchor
    default.
    """
    import asyncio

    from repro.core.ndft import steering_vector
    from repro.loc import LocalizationService, PositionTrackerBank
    from repro.net.service import RangingRequest
    from repro.stream import StreamConfig
    from repro.wifi.bands import US_BAND_PLAN

    if n_clients < 1:
        raise ValueError(f"need at least one client, got {n_clients}")
    if n_anchors < 3:
        raise ValueError(
            f"fleet localization wants >= 3 anchors, got {n_anchors}"
        )
    if n_ticks < 1:
        raise ValueError(f"need at least one tick, got {n_ticks}")
    if anchors_per_client is not None and not (
        3 <= anchors_per_client <= n_anchors
    ):
        raise ValueError(
            f"anchors_per_client must be in [3, {n_anchors}], "
            f"got {anchors_per_client}"
        )
    cfg = estimator_config or TofEstimatorConfig(
        quirk_2g4=False, compute_profile=False
    )
    freqs = US_BAND_PLAN.subset_5g().center_frequencies_hz
    rng = np.random.default_rng(seed)
    width, height = floor_m
    # Anchors ring the floor (an ellipse inscribed in the walls) — the
    # spread keeps every client's circle system well-conditioned.
    angles = 2.0 * np.pi * np.arange(n_anchors) / n_anchors + np.pi / n_anchors
    anchors = [
        Point(
            width / 2.0 + 0.45 * width * math.cos(a),
            height / 2.0 + 0.45 * height * math.sin(a),
        )
        for a in angles
    ]
    start = np.column_stack(
        [
            rng.uniform(0.2 * width, 0.8 * width, n_clients),
            rng.uniform(0.2 * height, 0.8 * height, n_clients),
        ]
    )
    heading = rng.uniform(0.0, 2.0 * np.pi, n_clients)
    velocity = speed_mps * np.column_stack([np.cos(heading), np.sin(heading)])
    client_ids = [f"client-{i}" for i in range(n_clients)]
    index = {cid: i for i, cid in enumerate(client_ids)}
    # Each client's anchor set: the whole deployment by default, or a
    # fixed random subset (in deployment order) in the multi-AP regime.
    if anchors_per_client is None:
        anchor_sets = {cid: tuple(range(n_anchors)) for cid in client_ids}
    else:
        anchor_sets = {
            cid: tuple(
                sorted(
                    int(k)
                    for k in rng.choice(
                        n_anchors, size=anchors_per_client, replace=False
                    )
                )
            )
            for cid in client_ids
        }

    def true_position(cid: str, t_s: float) -> Point:
        i = index[cid]
        return Point(
            float(start[i, 0] + velocity[i, 0] * t_s),
            float(start[i, 1] + velocity[i, 1] * t_s),
        )

    def requests_for(cid: str, t_s: float) -> list[RangingRequest]:
        position = true_position(cid, t_s)
        requests = []
        for k in anchor_sets[cid]:
            anchor = anchors[k]
            tau2 = 2.0 * anchor.distance_to(position) / SPEED_OF_LIGHT
            h = steering_vector(freqs, tau2)
            h = h + 0.35 * steering_vector(freqs, tau2 + 30e-9)
            if rng.random() < outlier_probability:
                # Body-blocked sweep: a dominant late bounce drags this
                # anchor's range meters off — geometry-filter food.
                h = 0.1 * h + 2.0 * steering_vector(
                    freqs, tau2 + rng.uniform(25e-9, 60e-9)
                )
            h = h + noise * (
                rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
            )
            requests.append(RangingRequest(f"{cid}:anchor-{k}", freqs, h))
        return requests

    service = LocalizationService(
        anchors,
        config=cfg,
        stream=StreamConfig(max_wait_s=1e-3),
        trackers=PositionTrackerBank(),
    )

    async def run() -> list[tuple[float, list]]:
        ticks = []
        for k in range(n_ticks):
            t_s = (k + 1) / rate_hz
            fixes = await asyncio.gather(
                *(
                    service.locate(
                        cid,
                        requests_for(cid, t_s),
                        time_s=t_s,
                        anchor_indices=(
                            None
                            if anchors_per_client is None
                            else anchor_sets[cid]
                        ),
                    )
                    for cid in client_ids
                )
            )
            ticks.append((t_s, fixes))
        await service.drain()
        return ticks

    try:
        ticks = asyncio.run(run())
    finally:
        service.close()  # release the streaming layer's flush worker

    raw_sq: list[float] = []
    tracked_sq: list[float] = []
    for t_s, fixes in ticks:
        for fix in fixes:
            if not fix.ok:
                continue
            truth = true_position(fix.client_id, t_s)
            raw_sq.append(fix.position.distance_to(truth) ** 2)
            if fix.track is not None:
                tracked_sq.append(fix.track.position.distance_to(truth) ** 2)
    if not raw_sq:
        raise ValueError("fleet run produced no usable fixes")
    stats = service.stats
    ranging = service.ranging.stats
    return FleetLocalizationResult(
        n_clients=n_clients,
        n_anchors=n_anchors,
        n_fix_attempts=stats.n_fixes + stats.n_failed,
        n_fixes=stats.n_fixes,
        n_failed=stats.n_failed,
        fix_rmse_m=float(np.sqrt(np.mean(raw_sq))),
        median_fix_error_m=float(np.median(np.sqrt(raw_sq))),
        tracked_rmse_m=float(np.sqrt(np.mean(tracked_sq)))
        if tracked_sq
        else float("nan"),
        n_range_flushes=ranging.n_flushes,
        mean_links_per_flush=ranging.mean_links_per_flush,
        n_solves=stats.n_solves,
        mean_clients_per_solve=stats.mean_clients_per_solve,
    )


def run_streaming_tracking_experiment(
    n_links: int = 6,
    duration_s: float = 2.0,
    rate_hz: float = 12.0,
    speed_mps: float = 0.5,
    noise: float = 0.05,
    outlier_probability: float = 0.1,
    seed: int = 47,
    estimator_config: TofEstimatorConfig | None = None,
) -> StreamingTrackingResult:
    """Stream ``n_links`` moving links through the ranging subsystem.

    Each link is a constant-velocity target emitting synthetic 5 GHz
    reciprocity products at the §4 sweep cadence (scheduled via the
    mac.sim event loop, so arrivals stagger like real radios).  With
    probability ``outlier_probability`` a sweep is corrupted by a
    dominant late reflection — the multipath ghost §9's filtering is
    there to reject.  All links stream concurrently through one
    :class:`~repro.stream.service.StreamingRangingService`, so the
    micro-batcher coalesces each tick's arrivals into one engine call,
    and a :class:`~repro.stream.tracker.TrackerBank` smooths each link.
    """
    from repro.core.ndft import steering_vector
    from repro.net.service import RangingRequest
    from repro.stream import (
        StreamConfig,
        StreamSession,
        StreamingRangingService,
        TrackerBank,
        TrackerConfig,
        schedule_sweep_arrivals,
    )
    from repro.wifi.bands import US_BAND_PLAN

    if n_links < 1:
        raise ValueError(f"need at least one link, got {n_links}")
    cfg = estimator_config or TofEstimatorConfig(
        quirk_2g4=False, compute_profile=False
    )
    freqs = US_BAND_PLAN.subset_5g().center_frequencies_hz
    rng = np.random.default_rng(seed)
    start_m = rng.uniform(3.0, 12.0, n_links)
    velocity_mps = rng.uniform(-speed_mps, speed_mps, n_links)
    link_ids = [f"link-{i}" for i in range(n_links)]
    index = {link_id: i for i, link_id in enumerate(link_ids)}

    def true_distance(link_id: str, t_s: float) -> float:
        i = index[link_id]
        return float(start_m[i] + velocity_mps[i] * t_s)

    def make_request(link_id: str, t_s: float) -> RangingRequest:
        tau2 = 2.0 * true_distance(link_id, t_s) / SPEED_OF_LIGHT
        h = steering_vector(freqs, tau2)
        h = h + 0.4 * steering_vector(freqs, tau2 + 30e-9)
        if rng.random() < outlier_probability:
            # A body-blocked sweep: the direct path drops below the
            # first-peak amplitude floor and a strong bounce takes
            # over, so the raw estimate jumps meters late — the
            # multipath ghost §9's filtering is there to reject.
            h = 0.1 * h + 2.0 * steering_vector(
                freqs, tau2 + rng.uniform(20e-9, 60e-9)
            )
        h = h + noise * (
            rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
        )
        return RangingRequest(link_id, freqs, h)

    arrivals = schedule_sweep_arrivals(
        link_ids,
        duration_s,
        make_request,
        sweep_duration_s=1.0 / rate_hz,
        # Millisecond staggering: same tick, not perfectly simultaneous.
        start_offsets_s=list(rng.uniform(0.0, 2e-3, n_links)),
    )
    trackers = TrackerBank(
        # Per-sweep precision of the clean synthetic links is ~mm; the
        # gate floor is what rejects the meters-late blocked sweeps.
        TrackerConfig(measurement_sigma_m=0.01, process_accel_sigma_mps2=1.0)
    )
    service = StreamingRangingService(cfg, StreamConfig(max_wait_s=1e-3))
    session = StreamSession(service, trackers, coalesce_window_s=5e-3)
    try:
        points = session.run(arrivals)
    finally:
        service.close()  # release the streaming layer's flush worker

    raw_sq, tracked_sq = [], []
    for point in points:
        if not point.ok or point.state is None:
            continue
        truth = true_distance(point.link_id, point.time_s)
        raw_sq.append((point.raw_tof_s * SPEED_OF_LIGHT - truth) ** 2)
        tracked_sq.append((point.state.range_m - truth) ** 2)
    if not raw_sq:
        raise ValueError("streaming run produced no usable estimates")
    stats = service.stats
    return StreamingTrackingResult(
        n_links=n_links,
        n_requests=stats.n_requests,
        n_failed=stats.n_failed,
        n_flushes=stats.n_flushes,
        mean_links_per_flush=stats.mean_links_per_flush,
        raw_rmse_m=float(np.sqrt(np.mean(raw_sq))),
        tracked_rmse_m=float(np.sqrt(np.mean(tracked_sq))),
    )
