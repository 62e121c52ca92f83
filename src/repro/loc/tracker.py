"""Stateful per-client position tracking over localization fixes.

The positional analogue of :mod:`repro.stream.tracker`: where
:class:`~repro.stream.tracker.LinkTracker` smooths one link's ToF
stream, :class:`PositionTracker` smooths one client's stream of §8
position fixes with a 2-D constant-velocity Kalman filter and MAD
innovation gating.  Beyond smoothing, the track is the fleet
subsystem's ambiguity prior:

* the paper's §8 mobility disambiguation
  (:func:`repro.core.localization.disambiguate_by_motion`) needs the
  operator to know where the client *was* and which way it moved; a
  track knows both continuously.  :meth:`PositionTracker.select_candidate`
  picks among mirror-image intersection candidates by predicted-track
  likelihood, and :class:`~repro.loc.service.LocalizationService` feeds
  the prediction into the solver as its ``position_hint`` — superseding
  the one-shot ``disambiguate_by_motion`` call for moving clients;
* the MAD gate rejects teleporting fixes (a multipath-ghosted range
  that slipped through the geometry filter) without touching the
  state, with the same re-admission discipline as the ToF tracker: a
  fix consistent with the (rejection-inflated) covariance is never an
  outlier, so a genuine relocation re-centers the track within half a
  gate window.

:class:`PositionTrackerBank` holds one tracker per client id for the
localization service's fleet sessions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.rf.geometry import Point
from repro.stream.tracker import EvictingBankBase


@dataclass(frozen=True)
class PositionTrackerConfig:
    """Tuning of one client's constant-velocity position tracker.

    Attributes:
        fix_sigma_m: 1σ of a single position fix's error per axis
            (decimeter-scale for the simulated §12.2 pipeline).
        process_accel_sigma_mps2: 1σ of the unmodeled acceleration;
            sets how eagerly the velocity state follows turns (walking
            clients maneuver at ~1 m/s²).
        gate_k: MAD innovation gate — innovation norms more than
            ``gate_k`` scaled MADs from the recent median are rejected.
        gate_window: Number of recent innovation norms retained for the
            MAD statistic.
        min_gate_m: Floor on the gate width, keeping it physical when
            the innovations are near-noiseless.
        max_jump_m: Hard innovation bound while the history is too
            short for a MAD statistic (< 3 samples) — a ghost fix in
            the first ticks would otherwise yank the fresh state meters
            off.
        initial_velocity_sigma_mps: Prior 1σ on the unknown initial
            velocity per axis.
    """

    fix_sigma_m: float = 0.25
    process_accel_sigma_mps2: float = 1.0
    gate_k: float = 3.5
    gate_window: int = 12
    min_gate_m: float = 0.4
    max_jump_m: float = 3.0
    initial_velocity_sigma_mps: float = 1.5

    def __post_init__(self) -> None:
        if self.fix_sigma_m <= 0:
            raise ValueError(
                f"fix sigma must be positive, got {self.fix_sigma_m}"
            )
        if self.process_accel_sigma_mps2 <= 0:
            raise ValueError(
                "process acceleration sigma must be positive, got "
                f"{self.process_accel_sigma_mps2}"
            )
        if self.gate_k <= 0:
            raise ValueError(f"gate_k must be positive, got {self.gate_k}")
        if self.gate_window < 3:
            raise ValueError(
                f"gate window needs >= 3 samples, got {self.gate_window}"
            )
        if self.min_gate_m <= 0:
            raise ValueError(f"min_gate_m must be positive, got {self.min_gate_m}")
        if self.max_jump_m <= 0:
            raise ValueError(f"max_jump_m must be positive, got {self.max_jump_m}")
        if self.initial_velocity_sigma_mps <= 0:
            raise ValueError(
                "initial velocity sigma must be positive, got "
                f"{self.initial_velocity_sigma_mps}"
            )


@dataclass(frozen=True)
class PositionTrackState:
    """One client's smoothed state after an update tick."""

    client_id: str
    time_s: float
    position: Point
    velocity: Point
    position_sigma_m: float
    accepted: bool
    n_accepted: int
    n_rejected: int

    @property
    def speed_mps(self) -> float:
        """Smoothed ground speed."""
        return self.velocity.norm()

    @property
    def confidence(self) -> float:
        """Bounded track quality in (0, 1]: σ_fix/√(σ_fix²+P).

        ≈ 0.71 for a track worth exactly one fix, approaching 1 under
        steady accepted updates, decaying toward 0 while the track
        coasts through rejections or fix gaps — the same calibration
        as :class:`repro.stream.tracker.TrackState`.
        """
        return self._confidence

    _confidence: float = 0.0


class PositionTracker:
    """Constant-velocity Kalman tracker over one client's position fixes.

    State is ``[x, y, vx, vy]``; feed fixes via :meth:`update` and read
    the smoothed state from the returned :class:`PositionTrackState` or
    the live properties.
    """

    def __init__(
        self,
        client_id: str = "client",
        config: PositionTrackerConfig | None = None,
    ):
        if not isinstance(client_id, str) or not client_id:
            raise ValueError(
                f"client_id must be a non-empty string, got {client_id!r}"
            )
        self.client_id = client_id
        self.config = config or PositionTrackerConfig()
        self._x: np.ndarray | None = None  # [x, y, vx, vy]
        self._P: np.ndarray | None = None
        self._time_s: float | None = None
        self._innovations: deque[float] = deque(maxlen=self.config.gate_window)
        self.n_accepted = 0
        self.n_rejected = 0
        self.last_state: PositionTrackState | None = None

    # ------------------------------------------------------------------
    # Live properties
    # ------------------------------------------------------------------
    @property
    def initialized(self) -> bool:
        """Whether any fix has been accepted yet."""
        return self._x is not None

    @property
    def position(self) -> Point:
        """Current smoothed position."""
        self._require_initialized()
        return Point(float(self._x[0]), float(self._x[1]))

    @property
    def velocity(self) -> Point:
        """Current smoothed velocity (m/s)."""
        self._require_initialized()
        return Point(float(self._x[2]), float(self._x[3]))

    @property
    def time_s(self) -> float:
        """Timestamp of the last processed tick."""
        self._require_initialized()
        return float(self._time_s)

    def predicted_position(self, time_s: float) -> Point:
        """Position extrapolated to ``time_s`` without mutating state."""
        self._require_initialized()
        dt = time_s - self._time_s
        return Point(
            float(self._x[0] + dt * self._x[2]),
            float(self._x[1] + dt * self._x[3]),
        )

    def select_candidate(
        self, candidates: "list[Point] | tuple[Point, ...]", time_s: float
    ) -> Point:
        """Pick the candidate most likely under the predicted track.

        The track-based generalization of the paper's §8 mobility
        disambiguation: instead of one before/after displacement
        (:func:`~repro.core.localization.disambiguate_by_motion`), the
        whole motion history votes through the predicted position.
        """
        if not candidates:
            raise ValueError("need at least one candidate")
        predicted = self.predicted_position(time_s)
        return min(candidates, key=lambda c: c.distance_to(predicted))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, position: Point, time_s: float) -> PositionTrackState:
        """Process one position fix taken at ``time_s``.

        Returns the post-update state; ``accepted=False`` means the fix
        was gated out and only the predict step ran.
        """
        if not (np.isfinite(position.x) and np.isfinite(position.y)):
            raise ValueError(f"fix must be finite, got {position}")
        if not np.isfinite(time_s):
            raise ValueError(f"timestamp must be finite, got {time_s}")
        cfg = self.config
        if self._x is None:
            self._x = np.array([position.x, position.y, 0.0, 0.0])
            v0 = cfg.initial_velocity_sigma_mps
            self._P = np.diag(
                [cfg.fix_sigma_m**2, cfg.fix_sigma_m**2, v0**2, v0**2]
            )
            self._time_s = time_s
            self._innovations.append(0.0)
            self.n_accepted += 1
            self.last_state = self._snapshot(accepted=True)
            return self.last_state
        if time_s < self._time_s:
            raise ValueError(
                f"fixes must be time-ordered: {time_s} < {self._time_s}"
            )
        self._predict(time_s - self._time_s)
        self._time_s = time_s

        innovation = np.array(
            [position.x - self._x[0], position.y - self._x[1]]
        )
        norm = float(np.hypot(innovation[0], innovation[1]))
        accepted = not self._is_outlier(norm)
        self._innovations.append(norm)
        if accepted:
            # Measurement H = [I2 0]; R = σ² I2.
            S = self._P[:2, :2] + cfg.fix_sigma_m**2 * np.eye(2)
            K = self._P[:, :2] @ np.linalg.inv(S)
            self._x = self._x + K @ innovation
            self._P = self._P - K @ self._P[:2, :]
            self._P = (self._P + self._P.T) / 2.0
            self.n_accepted += 1
        else:
            # Fading memory on rejection, as in the ToF tracker: the
            # covariance gate re-opens within a few ticks so a genuine
            # relocation is re-admitted instead of locked out.
            self._P = self._P * 2.0
            self.n_rejected += 1
        self.last_state = self._snapshot(accepted=accepted)
        return self.last_state

    def reset(self) -> None:
        """Forget all state (new association)."""
        self._x = None
        self._P = None
        self._time_s = None
        self._innovations.clear()
        self.n_accepted = 0
        self.n_rejected = 0
        self.last_state = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _predict(self, dt: float) -> None:
        if dt <= 0.0:
            return
        F = np.eye(4)
        F[0, 2] = F[1, 3] = dt
        q = self.config.process_accel_sigma_mps2**2
        q11 = q * dt**4 / 4.0
        q12 = q * dt**3 / 2.0
        q22 = q * dt**2
        Q = np.array(
            [
                [q11, 0.0, q12, 0.0],
                [0.0, q11, 0.0, q12],
                [q12, 0.0, q22, 0.0],
                [0.0, q12, 0.0, q22],
            ]
        )
        self._x = F @ self._x
        self._P = F @ self._P @ F.T + Q

    def _is_outlier(self, norm: float) -> bool:
        history = np.array(self._innovations)
        if len(history) < 3:
            return norm > self.config.max_jump_m
        # A fix consistent with the (rejection-inflated) covariance is
        # never an outlier — honest data re-admits after a coast.
        sigma_sq = self.config.fix_sigma_m**2
        S_scale = float(
            np.sqrt(self._P[0, 0] + self._P[1, 1] + 2.0 * sigma_sq)
        )
        if norm <= self.config.gate_k * S_scale:
            return False
        median = float(np.median(history))
        mad = float(np.median(np.abs(history - median)))
        scale = max(1.4826 * mad, self.config.min_gate_m)
        return abs(norm - median) > self.config.gate_k * scale

    def _snapshot(self, accepted: bool) -> PositionTrackState:
        pos_var = max(float(self._P[0, 0] + self._P[1, 1]) / 2.0, 0.0)
        sigma_sq = self.config.fix_sigma_m**2
        confidence = float(np.sqrt(sigma_sq / (sigma_sq + pos_var)))
        return PositionTrackState(
            client_id=self.client_id,
            time_s=float(self._time_s),
            position=Point(float(self._x[0]), float(self._x[1])),
            velocity=Point(float(self._x[2]), float(self._x[3])),
            position_sigma_m=float(np.sqrt(pos_var)),
            accepted=accepted,
            n_accepted=self.n_accepted,
            n_rejected=self.n_rejected,
            _confidence=confidence,
        )

    def _require_initialized(self) -> None:
        if self._x is None:
            raise ValueError(
                f"tracker {self.client_id!r} has no accepted fix yet"
            )


class PositionTrackerBank(EvictingBankBase):
    """One :class:`PositionTracker` per client id, created on first use.

    Bounded by the shared :class:`~repro.stream.tracker.EvictingBankBase`
    policy: ``max_tracks`` caps live trackers (LRU eviction) and
    ``idle_ttl_s`` retires clients that stopped fixing — a churning
    fleet (clients roam in, localize for a while, leave forever) can
    no longer grow the bank without bound.  Defaults are generous; see
    the base class.
    """

    def __init__(
        self,
        config: PositionTrackerConfig | None = None,
        max_tracks: int = 4096,
        idle_ttl_s: float | None = 900.0,
    ):
        super().__init__(max_tracks=max_tracks, idle_ttl_s=idle_ttl_s)
        self.config = config or PositionTrackerConfig()

    def _make_tracker(self, client_id: str) -> PositionTracker:
        return PositionTracker(client_id, self.config)

    def tracker(self, client_id: str) -> PositionTracker:
        """The client's tracker, created (empty) on first access."""
        return super().tracker(client_id)

    def update(
        self, client_id: str, position: Point, time_s: float
    ) -> PositionTrackState:
        """Route one fix to the client's tracker."""
        state = self.tracker(client_id).update(position, time_s)
        self._touch(client_id, time_s)
        return state

    def position_hint(self, client_id: str, time_s: float) -> Point | None:
        """The track-predicted position, or ``None`` without a track.

        This is what :class:`~repro.loc.service.LocalizationService`
        feeds the solver as its ``position_hint`` — mirror-candidate
        disambiguation by track likelihood.
        """
        tracker = self._trackers.get(client_id)
        if tracker is None or not tracker.initialized:
            return None
        if time_s < tracker.time_s:
            return tracker.position
        return tracker.predicted_position(time_s)

    def states(self) -> dict[str, PositionTrackState]:
        """Last reported state of every initialized tracker."""
        return super().states()
