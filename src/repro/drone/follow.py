"""The closed loop: Chronos ranging + filtering + feedback control (§9).

Each control tick (the 12 Hz sweep rate of §4):

1. the user takes a step along their walk;
2. the drone ranges the user's device — either through the full Chronos
   pipeline (:class:`ChronosRangeSensor`, which streams its sweeps
   through the micro-batching ranging subsystem of :mod:`repro.stream`)
   or through a calibrated noise model (:class:`GaussianRangeSensor`)
   for fast tests;
3. the raw range enters a per-link
   :class:`~repro.stream.tracker.LinkTracker` — a constant-velocity
   Kalman filter with MAD innovation gating, the §9 'synergy' that
   beats the native single-shot accuracy (and, unlike the sliding
   median it replaced, also yields the radial velocity);
4. the §9 negative-feedback controller commands a discrete step;
5. the quadrotor integrates one kinematic step.

Bearing to the user comes from the compass arrangement the paper
describes ("the drone uses the compass on the user's device and the
quadrotor to ensure that its camera always faces the user"), modeled as
the true bearing plus a few degrees of noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.core.ranging import rmse
from repro.drone.controller import DistanceController
from repro.drone.dynamics import Quadrotor
from repro.drone.trajectories import random_waypoints, waypoint_walk
from repro.drone.vicon import MotionCapture
from repro.rf.geometry import Point
from repro.stream.tracker import LinkTracker, TrackerConfig


class RangeSensor(Protocol):
    """Anything that measures drone→user distance once per tick."""

    def measure(
        self, drone_position: Point, user_position: Point, rng: np.random.Generator
    ) -> float:
        """One raw distance measurement in meters."""
        ...


@dataclass
class GaussianRangeSensor:
    """Chronos-calibrated noise model for fast closed-loop studies.

    Parameters default to the raw per-sweep ranging behaviour of the
    full simulated pipeline in the 6 m × 5 m mocap room: ~3 cm Gaussian
    error at the 1.4 m stand-off plus a ~10 % chance of a multipath
    ghost outlier (meters off — exactly the kind §9's filter rejects).
    """

    sigma_m: float = 0.03
    outlier_probability: float = 0.10
    outlier_bias_m: float = 3.0

    def measure(
        self, drone_position: Point, user_position: Point, rng: np.random.Generator
    ) -> float:
        true = drone_position.distance_to(user_position)
        if rng.random() < self.outlier_probability:
            return true + rng.uniform(0.3, self.outlier_bias_m)
        return max(0.0, true + rng.normal(0.0, self.sigma_m))


@dataclass
class ChronosRangeSensor:
    """Full-pipeline ranging: every tick simulates a real CSI sweep.

    Built lazily around a :class:`~repro.core.pipeline.ChronosPair`
    whose devices are re-posed each tick.  The sweeps are estimated
    through the streaming ranging subsystem: each tick submits one
    sweep request to a :class:`~repro.stream.client.StreamClient`, so a
    deployment flying several drones (or a test driving several
    sensors) against one shared client coalesces their per-tick sweeps
    into single batched engine calls.  Expensive (one sweep plus
    estimation per call) — used by the headline Fig. 10 benchmark.
    """

    pair: "object" = None  # ChronosPair; typed loosely to avoid cycles
    client: "object" = None  # StreamClient; shared when injected, else lazy
    link_id: str = "drone-user"
    _own_client: bool = field(default=False, init=False, repr=False)

    def measure(
        self, drone_position: Point, user_position: Point, rng: np.random.Generator
    ) -> float:
        if self.pair is None:
            raise ValueError("ChronosRangeSensor needs a ChronosPair")
        self.pair.receiver.position = drone_position
        self.pair.transmitter.position = user_position
        if self.client is None:
            from repro.stream.client import StreamClient
            from repro.stream.service import StreamConfig

            # A private client has exactly one caller, so a coalescing
            # window would be pure dead wait per tick (2 ms × 12 Hz ×
            # the whole run); flush on the next loop tick instead.
            # Injected shared clients keep their own window so several
            # sensors' ticks coalesce.
            self.client = StreamClient(
                self.pair.estimator_config, StreamConfig(max_wait_s=0.0)
            )
            self._own_client = True
        link = self.pair.link()
        sweep = link.sweep(self.pair.n_packets_per_band)
        response = self.client.range_sweeps(
            self.link_id, [sweep], calibration=self.pair.calibration_for(0, 0)
        )
        if not response.ok:
            raise ValueError(
                f"ranging failed for {self.link_id!r}: {response.error}"
            )
        return float(response.estimate.distance_m)

    def close(self) -> None:
        """Release the lazily-created stream client (shared ones stay up)."""
        if self._own_client and self.client is not None:
            self.client.close()
            self.client = None
            self._own_client = False

    def __enter__(self) -> "ChronosRangeSensor":
        return self

    def __exit__(self, *exc_info) -> None:
        # Context-managed use releases the private loop thread without
        # the caller having to remember close().
        self.close()


@dataclass(frozen=True)
class FollowConfig:
    """Parameters of a follow run (§12.4's setup)."""

    target_distance_m: float = 1.4
    duration_s: float = 30.0
    control_rate_hz: float = 12.0
    user_speed_mps: float = 0.55
    room_width_m: float = 6.0
    room_height_m: float = 5.0
    n_waypoints: int = 6
    filter_window: int = 12
    bearing_noise_rad: float = math.radians(3.0)
    settle_time_s: float = 3.0
    target_smoothing: float = 0.25
    feedforward_smoothing: float = 0.15

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.control_rate_hz <= 0:
            raise ValueError("duration and control rate must be positive")
        if self.settle_time_s >= self.duration_s:
            raise ValueError("settle time must be shorter than the run")


@dataclass
class FollowResult:
    """Outcome of one follow run."""

    times_s: np.ndarray
    user_track: list[Point]
    drone_track: list[Point]
    true_distances_m: np.ndarray
    measured_distances_m: np.ndarray
    target_distance_m: float
    settle_ticks: int

    @property
    def deviations_m(self) -> np.ndarray:
        """|true distance − target| after the settling period (Fig 10a)."""
        devs = np.abs(self.true_distances_m - self.target_distance_m)
        return devs[self.settle_ticks :]

    @property
    def rmse_m(self) -> float:
        """Root-mean-squared deviation from the target distance."""
        return rmse(self.true_distances_m[self.settle_ticks :] - self.target_distance_m)

    @property
    def raw_ranging_rmse_m(self) -> float:
        """RMSE of the raw sensor against truth (for the §9 comparison)."""
        diff = self.measured_distances_m - self.true_distances_m
        return rmse(diff[self.settle_ticks :])


class FollowSimulation:
    """Drives the user walk, the sensor, the tracker and the controller."""

    def __init__(
        self,
        config: FollowConfig | None = None,
        sensor: RangeSensor | None = None,
        controller: DistanceController | None = None,
        mocap: MotionCapture | None = None,
        tracker_config: TrackerConfig | None = None,
    ):
        self.config = config or FollowConfig()
        self.sensor = sensor or GaussianRangeSensor()
        self.controller = controller or DistanceController(
            target_distance_m=self.config.target_distance_m,
            gain=1.0,
            max_step_m=1.0,
            dead_band_m=0.0,
        )
        self.mocap = mocap or MotionCapture()
        # The §9 de-noising loop: a constant-velocity Kalman track over
        # the raw ranges, gated on MAD innovations.  Defaults match the
        # Gaussian sensor's calibrated noise (~3 cm per sweep, walking
        # dynamics, one second of gate history at 12 Hz).
        self.tracker_config = tracker_config or TrackerConfig(
            measurement_sigma_m=0.04,
            process_accel_sigma_mps2=2.0,
            # The tracker's MAD statistic needs at least 3 samples, so
            # a smaller filter_window is widened rather than rejected.
            gate_window=max(self.config.filter_window, 3),
            min_gate_m=0.1,
        )

    def run(self, rng: np.random.Generator) -> FollowResult:
        """One complete follow experiment."""
        cfg = self.config
        dt = 1.0 / cfg.control_rate_hz
        waypoints = random_waypoints(
            cfg.n_waypoints, rng, cfg.room_width_m, cfg.room_height_m
        )
        walk = waypoint_walk(waypoints, cfg.user_speed_mps, dt)
        n_ticks = min(len(walk), int(round(cfg.duration_s / dt)))
        user_positions = walk[:n_ticks]

        start_user = user_positions[0]
        drone = Quadrotor(
            position=Point(start_user.x + cfg.target_distance_m, start_user.y)
        )
        tracker = LinkTracker("user", self.tracker_config)
        user_track: list[Point] = []
        drone_track: list[Point] = []
        true_d = np.zeros(n_ticks)
        meas_d = np.zeros(n_ticks)
        smoothed_target: Point | None = None
        feedforward = Point(0.0, 0.0)
        for i, user_pos in enumerate(user_positions):
            measured = self.sensor.measure(drone.position, user_pos, rng)
            state = tracker.update_range(measured, i * dt)
            # The Kalman state may dip marginally negative at very close
            # range; the controller's domain is physical distances.
            filtered = max(state.range_m, 0.0)
            bearing_error = rng.normal(0.0, cfg.bearing_noise_rad)
            user_estimate = _rotate_about(user_pos, drone.position, bearing_error)
            target = self.controller.target_position(
                drone.position, user_estimate, filtered
            )
            # Smooth the set-point against measurement jitter and track
            # its velocity for feedforward, so a walking user is
            # followed without steady-state lag.
            if smoothed_target is None:
                smoothed_target = target
            else:
                previous = smoothed_target
                alpha = cfg.target_smoothing
                smoothed_target = previous + alpha * (target - previous)
                velocity_sample = (smoothed_target - previous) * (1.0 / dt)
                beta = cfg.feedforward_smoothing
                feedforward = feedforward + beta * (velocity_sample - feedforward)
            drone.step_toward(smoothed_target, dt, feedforward=feedforward)
            true_d[i] = drone.position.distance_to(user_pos)
            meas_d[i] = measured
            user_track.append(self.mocap.observe(user_pos, rng))
            drone_track.append(self.mocap.observe(drone.position, rng))
        settle_ticks = int(round(cfg.settle_time_s * cfg.control_rate_hz))
        return FollowResult(
            times_s=np.arange(n_ticks) * dt,
            user_track=user_track,
            drone_track=drone_track,
            true_distances_m=true_d,
            measured_distances_m=meas_d,
            target_distance_m=cfg.target_distance_m,
            settle_ticks=min(settle_ticks, max(n_ticks - 1, 0)),
        )


def _rotate_about(point: Point, center: Point, angle_rad: float) -> Point:
    """Rotate ``point`` around ``center`` (bearing-noise helper)."""
    return center + (point - center).rotated(angle_rad)
