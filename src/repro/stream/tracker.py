"""Stateful per-link range tracking for continuous ranging workloads.

The paper's §9 closed loop is the motivating workload: consecutive
sweeps of the same link arrive at ~12 Hz and "the drone can average
across these invocations and reject outliers to maintain this distance
at a much higher accuracy than Chronos's native algorithm".  This
module implements that averaging as a *state-space* tracker rather
than a sliding-window median:

* :class:`LinkTracker` carries a constant-velocity Kalman filter over
  time-of-flight.  Each accepted measurement updates a ``[τ, τ̇]``
  state, so the tracker reports the *current* smoothed range plus a
  radial velocity — no half-window lag to compensate, and the estimate
  keeps coasting through sweep gaps (predict-only ticks).
* Outlier rejection is **MAD-based innovation gating**: a measurement
  whose innovation sits more than ``gate_k`` scaled MADs from the
  median of the recent innovation history is rejected without touching
  the state.  Rejected innovations still enter the history, so a
  genuine range jump (the user actually moved) re-centers the gate
  within half a window instead of locking the tracker out forever.
* A bounded ``confidence`` in (0, 1] derives from the posterior range
  variance — ≈ 0.71 for a track worth a single measurement (fresh
  tracker), approaching 1 under steady accepted updates, decaying
  toward 0 while coasting through rejections or gaps.

:class:`TrackerBank` holds one tracker per link id for the streaming
service's multi-link sessions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.rf.constants import SPEED_OF_LIGHT


@dataclass(frozen=True)
class TrackerConfig:
    """Tuning of one link's constant-velocity ToF tracker.

    The knobs are expressed in meters (the operator-facing unit) and
    converted to seconds internally — the filter itself runs in the ToF
    domain.

    Attributes:
        measurement_sigma_m: 1σ of a single sweep's ranging error
            (~3 cm for the simulated pipeline at short range).
        process_accel_sigma_mps2: 1σ of the unmodeled radial
            acceleration; sets how eagerly the velocity state follows
            turns (walking users maneuver at ~1 m/s²).
        gate_k: MAD innovation gate — innovations more than ``gate_k``
            scaled MADs from the recent median are rejected.
        gate_window: Number of recent innovations retained for the MAD
            statistic (one second of data at the 12 Hz sweep rate).
        min_gate_m: Floor on the gate width.  With near-noiseless
            innovations the MAD collapses and would reject honest
            measurement noise; the floor keeps the gate physical.
        max_jump_m: Hard innovation bound used while the history is too
            short for a MAD statistic (< 3 samples).  A ghost outlier
            in the first ticks would otherwise yank the fresh state
            meters off; honest per-tick prediction error is centimeters.
            Once the MAD gate takes over this bound retires, so a
            genuine range jump re-centers the track within half a
            window instead of being locked out.
        initial_velocity_sigma_mps: Prior 1σ on the unknown initial
            radial velocity.
        max_range_m: Physical ceiling on *predicted* ranges.  A track
            coasting on a stale velocity extrapolates linearly without
            bound, so predictions are clamped to ``[0, max_range_m]`` —
            the filter state itself is never touched.  The default is
            the CRT-unique window of the 5 GHz subset (~200 ns ≈ 60 m
            round-trip) with headroom.
    """

    measurement_sigma_m: float = 0.05
    process_accel_sigma_mps2: float = 1.5
    gate_k: float = 3.5
    gate_window: int = 12
    min_gate_m: float = 0.12
    max_jump_m: float = 0.75
    initial_velocity_sigma_mps: float = 1.0
    max_range_m: float = 150.0

    def __post_init__(self) -> None:
        if self.measurement_sigma_m <= 0:
            raise ValueError(
                f"measurement sigma must be positive, got {self.measurement_sigma_m}"
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
        if self.max_range_m <= 0:
            raise ValueError(
                f"max_range_m must be positive, got {self.max_range_m}"
            )


@dataclass(frozen=True)
class TrackState:
    """One link's smoothed state after an update (or predict) tick."""

    link_id: str
    time_s: float
    tof_s: float
    tof_rate: float
    tof_sigma_s: float
    accepted: bool
    n_accepted: int
    n_rejected: int

    @property
    def range_m(self) -> float:
        """Smoothed one-way distance."""
        return self.tof_s * SPEED_OF_LIGHT

    @property
    def velocity_mps(self) -> float:
        """Smoothed radial velocity (positive = receding)."""
        return self.tof_rate * SPEED_OF_LIGHT

    @property
    def range_sigma_m(self) -> float:
        """Posterior 1σ of the range estimate."""
        return self.tof_sigma_s * SPEED_OF_LIGHT

    @property
    def confidence(self) -> float:
        """Bounded track quality in (0, 1]: σ_z/√(σ_z²+P).

        Calibration points: ≈ 0.71 for a track worth exactly one
        measurement (a fresh tracker — its state *is* its first, maybe
        ghost-initialized, sweep), climbing toward 1 as accepted sweeps
        average down the posterior, and decaying toward 0 while the
        track coasts through rejections or sweep gaps.  Gate on
        ``> 0.71`` to require more evidence than a single sweep.
        """
        # sigma_z is recovered from the state to keep TrackState frozen
        # and self-contained; the tracker stores it at construction.
        return self._confidence

    _confidence: float = 0.0


class LinkTracker:
    """Constant-velocity Kalman tracker over one link's ToF stream.

    Feed it raw per-sweep estimates via :meth:`update` (seconds) or
    :meth:`update_range` (meters); read the smoothed state from the
    returned :class:`TrackState` or the live properties.
    """

    def __init__(self, link_id: str = "link", config: TrackerConfig | None = None):
        if not isinstance(link_id, str) or not link_id:
            raise ValueError(f"link_id must be a non-empty string, got {link_id!r}")
        self.link_id = link_id
        self.config = config or TrackerConfig()
        c = SPEED_OF_LIGHT
        self._sigma_z = self.config.measurement_sigma_m / c
        self._accel_sigma = self.config.process_accel_sigma_mps2 / c
        self._gate_floor = self.config.min_gate_m / c
        self._x: np.ndarray | None = None  # [tof_s, tof_rate]
        self._P: np.ndarray | None = None
        self._time_s: float | None = None
        self._innovations: deque[float] = deque(maxlen=self.config.gate_window)
        self.n_accepted = 0
        self.n_rejected = 0
        self.last_state: TrackState | None = None

    # ------------------------------------------------------------------
    # Live properties
    # ------------------------------------------------------------------
    @property
    def initialized(self) -> bool:
        """Whether any measurement has been accepted yet."""
        return self._x is not None

    @property
    def tof_s(self) -> float:
        """Current smoothed time-of-flight."""
        self._require_initialized()
        return float(self._x[0])

    @property
    def range_m(self) -> float:
        """Current smoothed one-way distance."""
        return self.tof_s * SPEED_OF_LIGHT

    @property
    def velocity_mps(self) -> float:
        """Current smoothed radial velocity (positive = receding)."""
        self._require_initialized()
        return float(self._x[1]) * SPEED_OF_LIGHT

    @property
    def time_s(self) -> float:
        """Timestamp of the last processed tick."""
        self._require_initialized()
        return float(self._time_s)

    def predicted_range_m(self, time_s: float) -> float:
        """Range extrapolated to ``time_s`` without mutating the state.

        Clamped to ``[0, max_range_m]``: a track coasting on a stale
        velocity extrapolates linearly and a long-enough gap would
        predict a negative or physically absurd range.  The clamp
        bounds the prediction, never the state.
        """
        self._require_initialized()
        dt = time_s - self._time_s
        raw = float(self._x[0] + dt * self._x[1]) * SPEED_OF_LIGHT
        return min(max(raw, 0.0), self.config.max_range_m)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, tof_s: float, time_s: float) -> TrackState:
        """Process one raw ToF measurement taken at ``time_s``.

        Returns the post-update state; ``accepted=False`` means the
        measurement was gated out and only the predict step ran.
        """
        if not np.isfinite(tof_s):
            raise ValueError(f"measurement must be finite, got {tof_s}")
        if not np.isfinite(time_s):
            raise ValueError(f"timestamp must be finite, got {time_s}")
        if self._x is None:
            self._x = np.array([tof_s, 0.0])
            v0 = self.config.initial_velocity_sigma_mps / SPEED_OF_LIGHT
            self._P = np.diag([self._sigma_z**2, v0**2])
            self._time_s = time_s
            self._innovations.append(0.0)
            self.n_accepted += 1
            self.last_state = self._snapshot(accepted=True)
            return self.last_state
        if time_s < self._time_s:
            raise ValueError(
                f"measurements must be time-ordered: {time_s} < {self._time_s}"
            )
        self._predict(time_s - self._time_s)
        self._time_s = time_s

        innovation = tof_s - float(self._x[0])
        accepted = not self._is_outlier(innovation)
        self._innovations.append(innovation)
        if accepted:
            S = float(self._P[0, 0]) + self._sigma_z**2
            K = self._P[:, 0] / S
            self._x = self._x + K * innovation
            self._P = self._P - np.outer(K, self._P[0, :])
            # Joseph-free symmetrization keeps P numerically SPD.
            self._P = (self._P + self._P.T) / 2.0
            self.n_accepted += 1
        else:
            # Fading memory on rejection: each gated-out sweep doubles
            # the state covariance, so a track coasting on a stale
            # velocity re-opens its covariance gate within a few ticks
            # instead of diverging while honest measurements bounce off
            # a confident-but-wrong prediction.
            self._P = self._P * 2.0
            self.n_rejected += 1
        self.last_state = self._snapshot(accepted=accepted)
        return self.last_state

    def update_range(self, distance_m: float, time_s: float) -> TrackState:
        """Convenience wrapper: feed a distance instead of a ToF."""
        return self.update(distance_m / SPEED_OF_LIGHT, time_s)

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
        x, P = self._x, self._P
        F = np.array([[1.0, dt], [0.0, 1.0]])
        q = self._accel_sigma**2
        Q = q * np.array(
            [[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]
        )
        self._x = F @ x
        self._P = F @ P @ F.T + Q

    def _is_outlier(self, innovation: float) -> bool:
        history = np.array(self._innovations)
        if len(history) < 3:
            return abs(innovation) > self.config.max_jump_m / SPEED_OF_LIGHT
        # A measurement consistent with the (rejection-inflated) state
        # covariance is never an outlier: after a run of rejections the
        # covariance gate re-admits honest data even though the MAD
        # history is still polluted by the coasting transient.
        S = float(self._P[0, 0]) + self._sigma_z**2
        if abs(innovation) <= self.config.gate_k * np.sqrt(S):
            return False
        median = float(np.median(history))
        mad = float(np.median(np.abs(history - median)))
        # 1.4826 scales MAD to a Gaussian sigma-equivalent; the floor
        # keeps the gate physical when the innovations are near-exact.
        scale = max(1.4826 * mad, self._gate_floor)
        return abs(innovation - median) > self.config.gate_k * scale

    def _snapshot(self, accepted: bool) -> TrackState:
        sigma = float(np.sqrt(max(self._P[0, 0], 0.0)))
        confidence = self._sigma_z / float(
            np.sqrt(self._sigma_z**2 + max(self._P[0, 0], 0.0))
        )
        return TrackState(
            link_id=self.link_id,
            time_s=float(self._time_s),
            tof_s=float(self._x[0]),
            tof_rate=float(self._x[1]),
            tof_sigma_s=sigma,
            accepted=accepted,
            n_accepted=self.n_accepted,
            n_rejected=self.n_rejected,
            _confidence=confidence,
        )

    def _require_initialized(self) -> None:
        if self._x is None:
            raise ValueError(
                f"tracker {self.link_id!r} has no accepted measurement yet"
            )


class EvictingBankBase:
    """Shared id → tracker bookkeeping with bounded, idle-evicting growth.

    Both tracker banks (:class:`TrackerBank` here and
    :class:`repro.loc.tracker.PositionTrackerBank`) used to grow one
    tracker per id forever — unbounded memory under a churning fleet
    (clients associate, range a while, leave, never to return).  This
    base bounds them two ways, both measured in the *stream's own
    clock* (the ``time_s`` of the updates, not wall time):

    * ``max_tracks`` — hard cap on live trackers.  When an update would
      exceed it, the least-recently-updated tracker is evicted (the
      bank keeps its dict in LRU order: every update moves its id to
      the back).
    * ``idle_ttl_s`` — last-update TTL.  On every update, trackers
      whose last update is more than the TTL behind the newest
      timestamp the bank has seen are evicted.  ``None`` disables it.

    The defaults (4096 tracks, 900 s) are deliberately generous: no
    test, example or benchmark in this repository comes near them, so
    eviction is purely a production safety valve unless tightened.
    An evicted id is forgotten completely — if it returns, it starts a
    fresh track (same outcome as :meth:`drop` followed by re-use).
    ``n_evicted`` counts evictions for telemetry.
    """

    def __init__(self, max_tracks: int = 4096, idle_ttl_s: float | None = 900.0):
        if max_tracks < 1:
            raise ValueError(f"max_tracks must be >= 1, got {max_tracks}")
        if idle_ttl_s is not None and idle_ttl_s <= 0:
            raise ValueError(
                f"idle_ttl_s must be positive (or None), got {idle_ttl_s}"
            )
        self.max_tracks = max_tracks
        self.idle_ttl_s = idle_ttl_s
        self.n_evicted = 0
        self._trackers: dict[str, object] = {}  # LRU order: oldest first
        self._last_time: dict[str, float] = {}
        self._now = -np.inf  # newest update timestamp seen so far

    def _make_tracker(self, key: str):
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._trackers)

    def __contains__(self, key: str) -> bool:
        return key in self._trackers

    def tracker(self, key: str):
        """The id's tracker, created (empty) on first access.

        A tracker that has never been updated has no last-update time,
        so the TTL cannot touch it — only the ``max_tracks`` cap can
        (a pre-created tracker must not be swept away by its busier
        peers' first updates).
        """
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = self._make_tracker(key)
            self._trackers[key] = tracker
        return tracker

    def _touch(self, key: str, time_s: float) -> None:
        """Mark ``key`` live at ``time_s``, then evict stale/overflow."""
        self._now = max(self._now, time_s)
        self._trackers[key] = self._trackers.pop(key)  # move to LRU back
        # _last_time mirrors the recency order (pop + reinsert), so the
        # TTL scan below can stop at the first fresh entry.
        self._last_time.pop(key, None)
        self._last_time[key] = time_s
        self.evict_idle(self._now, keep=key)

    def evict_idle(self, now_s: float, keep: str | None = None) -> int:
        """Evict idle and overflow trackers; returns how many went.

        Runs automatically on every update; callable directly for a
        manual sweep (e.g. a deployment's periodic janitor tick with
        its own notion of "now").  ``keep`` shields one id — the one
        being updated — from the cap.  Amortized O(evictions), not
        O(bank): ``_last_time`` is kept in recency order, so the TTL
        scan stops at the first fresh entry instead of walking every
        tracker on every update.
        """
        before = self.n_evicted
        if self.idle_ttl_s is not None:
            cutoff = now_s - self.idle_ttl_s
            stale = []
            for key, last in self._last_time.items():
                if last >= cutoff:
                    break  # recency order: everything later is fresher
                if key != keep:
                    stale.append(key)
            for key in stale:
                self._evict(key)
        while len(self._trackers) > self.max_tracks:
            oldest = next(iter(self._trackers))
            if oldest == keep:  # only possible when max_tracks == 1
                break
            self._evict(oldest)
        return self.n_evicted - before

    def _evict(self, key: str) -> None:
        self._trackers.pop(key, None)
        self._last_time.pop(key, None)
        self.n_evicted += 1

    def states(self) -> dict:
        """Last reported state of every initialized tracker.

        These are the states the trackers actually returned — including
        an honest ``accepted=False`` on an id whose latest measurement
        was gated out — not re-fabricated snapshots.
        """
        return {
            key: tracker.last_state
            for key, tracker in self._trackers.items()
            if tracker.last_state is not None
        }

    def drop(self, key: str) -> None:
        """Forget one id entirely."""
        self._trackers.pop(key, None)
        self._last_time.pop(key, None)


class TrackerBank(EvictingBankBase):
    """One :class:`LinkTracker` per link id, created on first update.

    Bounded by the :class:`EvictingBankBase` policy: ``max_tracks``
    caps live trackers (LRU eviction) and ``idle_ttl_s`` retires links
    that stopped updating — so a churning fleet of short-lived streams
    cannot grow the bank without bound.
    """

    def __init__(
        self,
        config: TrackerConfig | None = None,
        max_tracks: int = 4096,
        idle_ttl_s: float | None = 900.0,
    ):
        super().__init__(max_tracks=max_tracks, idle_ttl_s=idle_ttl_s)
        self.config = config or TrackerConfig()

    def _make_tracker(self, link_id: str) -> LinkTracker:
        return LinkTracker(link_id, self.config)

    def tracker(self, link_id: str) -> LinkTracker:
        """The link's tracker, created (empty) on first access."""
        return super().tracker(link_id)

    def update(self, link_id: str, tof_s: float, time_s: float) -> TrackState:
        """Route one raw ToF measurement to the link's tracker."""
        state = self.tracker(link_id).update(tof_s, time_s)
        self._touch(link_id, time_s)
        return state

    def states(self) -> dict[str, TrackState]:
        """Last reported state of every initialized tracker."""
        return super().states()
