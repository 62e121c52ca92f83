"""Drone substrate: dynamics, trajectories, controller, closed loop."""

import math

import numpy as np
import pytest

from repro.drone.controller import DistanceController
from repro.drone.dynamics import Quadrotor
from repro.drone.follow import (
    FollowConfig,
    FollowSimulation,
    GaussianRangeSensor,
)
from repro.drone.trajectories import random_waypoints, waypoint_walk
from repro.drone.vicon import MotionCapture
from repro.rf.geometry import Point


class TestQuadrotor:
    def test_converges_to_target(self):
        q = Quadrotor(position=Point(0, 0))
        for _ in range(200):
            q.step_toward(Point(3, 4), 0.1)
        assert q.position.distance_to(Point(3, 4)) < 0.05

    def test_speed_limit_respected(self):
        q = Quadrotor(position=Point(0, 0), max_speed_mps=1.0)
        for _ in range(50):
            q.step_toward(Point(100, 0), 0.1)
            assert q.velocity.norm() <= 1.0 + 1e-9

    def test_acceleration_limit_respected(self):
        q = Quadrotor(position=Point(0, 0), max_accel_mps2=2.0)
        prev_v = q.velocity
        for _ in range(20):
            q.step_toward(Point(100, 0), 0.1)
            dv = (q.velocity - prev_v).norm()
            assert dv <= 2.0 * 0.1 + 1e-9
            prev_v = q.velocity

    def test_hover_bleeds_velocity(self):
        q = Quadrotor(position=Point(0, 0), velocity=Point(1.0, 0.0))
        for _ in range(50):
            q.hover(0.1)
        assert q.velocity.norm() < 0.05

    def test_feedforward_tracks_moving_target(self):
        q = Quadrotor(position=Point(0, 0))
        target = Point(0.0, 0.0)
        ff = Point(0.5, 0.0)
        for i in range(100):
            target = Point(0.5 * (i + 1) * 0.1, 0.0)
            q.step_toward(target, 0.1, feedforward=ff)
        assert q.position.distance_to(target) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            Quadrotor(position=Point(0, 0), max_speed_mps=0.0)
        q = Quadrotor(position=Point(0, 0))
        with pytest.raises(ValueError):
            q.step_toward(Point(1, 0), 0.0)


class TestTrajectories:
    def test_walk_speed_consistent(self):
        pts = waypoint_walk([Point(0, 0), Point(10, 0)], speed_mps=1.0, dt_s=0.1)
        steps = [pts[i].distance_to(pts[i + 1]) for i in range(len(pts) - 2)]
        assert all(abs(s - 0.1) < 1e-9 for s in steps)

    def test_walk_visits_all_waypoints(self):
        wps = [Point(0, 0), Point(2, 0), Point(2, 2)]
        pts = waypoint_walk(wps, 0.5, 0.1)
        for wp in wps:
            assert min(p.distance_to(wp) for p in pts) < 1e-9

    def test_random_waypoints_respect_margin(self, rng):
        wps = random_waypoints(20, rng, 6.0, 5.0, margin_m=0.8)
        for p in wps:
            assert 0.8 <= p.x <= 5.2
            assert 0.8 <= p.y <= 4.2

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            waypoint_walk([Point(0, 0)], 1.0, 0.1)
        with pytest.raises(ValueError):
            random_waypoints(1, rng)
        with pytest.raises(ValueError):
            random_waypoints(3, rng, 1.0, 1.0, margin_m=0.6)


class TestController:
    def test_too_far_steps_toward_user(self):
        ctrl = DistanceController(target_distance_m=1.4, gain=1.0, dead_band_m=0.0)
        drone, user = Point(2.0, 0.0), Point(0.0, 0.0)
        target = ctrl.target_position(drone, user, measured_distance_m=2.0)
        assert target.x < drone.x  # step inward

    def test_too_close_steps_away(self):
        ctrl = DistanceController(target_distance_m=1.4, gain=1.0, dead_band_m=0.0)
        drone, user = Point(1.0, 0.0), Point(0.0, 0.0)
        target = ctrl.target_position(drone, user, measured_distance_m=1.0)
        assert target.x > drone.x

    def test_dead_band_freezes(self):
        ctrl = DistanceController(dead_band_m=0.05)
        drone = Point(1.41, 0.0)
        target = ctrl.target_position(drone, Point(0, 0), 1.41)
        assert target == drone

    def test_full_gain_reaches_setpoint_exactly(self):
        ctrl = DistanceController(
            target_distance_m=1.4, gain=1.0, max_step_m=10.0, dead_band_m=0.0
        )
        drone, user = Point(3.0, 0.0), Point(0.0, 0.0)
        target = ctrl.target_position(drone, user, measured_distance_m=3.0)
        assert target.distance_to(user) == pytest.approx(1.4)

    def test_step_cap(self):
        ctrl = DistanceController(max_step_m=0.2, gain=1.0, dead_band_m=0.0)
        drone = Point(10.0, 0.0)
        target = ctrl.target_position(drone, Point(0, 0), 10.0)
        assert drone.distance_to(target) <= 0.2 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceController(target_distance_m=0.0)
        with pytest.raises(ValueError):
            DistanceController(gain=0.0)
        ctrl = DistanceController()
        with pytest.raises(ValueError):
            ctrl.target_position(Point(1, 0), Point(0, 0), -1.0)


class TestMotionCapture:
    def test_noise_scale(self, rng):
        mocap = MotionCapture(noise_std_m=0.002)
        errs = [
            mocap.observe(Point(1, 1), rng).distance_to(Point(1, 1))
            for _ in range(200)
        ]
        assert np.mean(errs) < 0.01  # sub-centimeter

    def test_track_length_preserved(self, rng):
        track = [Point(0, 0), Point(1, 0), Point(2, 0)]
        assert len(MotionCapture().observe_track(track, rng)) == 3


class TestFollowLoop:
    def test_closed_loop_beats_raw_ranging(self, rng):
        """§9's synergy claim: the loop is more accurate than the sensor."""
        result = FollowSimulation().run(rng)
        assert result.rmse_m < result.raw_ranging_rmse_m

    def test_deviation_scale_matches_fig10a(self, rng):
        """Median deviation within the paper's order (~4 cm; ours ≲ 12)."""
        result = FollowSimulation().run(rng)
        assert np.median(result.deviations_m) < 0.15

    def test_perfect_sensor_tracks_tightly(self, rng):
        sensor = GaussianRangeSensor(sigma_m=0.0, outlier_probability=0.0)
        result = FollowSimulation(sensor=sensor).run(rng)
        assert result.rmse_m < 0.12

    def test_tracks_have_consistent_length(self, rng):
        result = FollowSimulation(FollowConfig(duration_s=10.0)).run(rng)
        assert len(result.user_track) == len(result.drone_track)
        assert len(result.user_track) == len(result.times_s)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FollowConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            FollowConfig(settle_time_s=50.0, duration_s=30.0)

    def test_legacy_tiny_filter_window_still_accepted(self, rng):
        """filter_window values down to 1 predate the Kalman tracker;
        they widen to the tracker's minimum instead of crashing
        construction."""
        sim = FollowSimulation(FollowConfig(duration_s=5.0, filter_window=1))
        assert sim.tracker_config.gate_window == 3
        result = sim.run(rng)
        assert len(result.times_s) > 0
