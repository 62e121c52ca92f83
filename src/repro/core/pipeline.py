"""Device-to-device facade: the paper's headline capability.

A :class:`ChronosPair` wires everything together: two multi-antenna
devices in an environment, the channel-hopping CSI acquisition of
:mod:`repro.wifi.radio`, the estimator of :mod:`repro.core.tof`, the
one-time calibration of §7 and the localization of §8 — so that the
examples and experiments read like the paper's usage:

    pair = ChronosPair(environment, drone, user_device, rng=rng)
    pair.calibrate()
    fix = pair.localize()
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core.batch import BatchTofEngine
from repro.core.cfo import LinkCalibration
from repro.core.localization import LocalizationResult, locate_transmitter
from repro.core.tof import TofEstimate, TofEstimator, TofEstimatorConfig
from repro.rf.environment import Environment, free_space
from repro.rf.geometry import Point
from repro.rf.noise import LinkBudget
from repro.wifi.bands import BandPlan, US_BAND_PLAN
from repro.wifi.csi import CsiSweep
from repro.wifi.hardware import DeviceState, HardwareProfile, INTEL_5300
from repro.wifi.radio import SimulatedLink


def linear_array(n_antennas: int, separation_m: float) -> tuple[Point, ...]:
    """Antenna offsets for a centered linear array along x.

    ``separation_m`` is the spacing between adjacent antennas.
    """
    if n_antennas < 1:
        raise ValueError(f"need at least one antenna, got {n_antennas}")
    if separation_m <= 0 and n_antennas > 1:
        raise ValueError(f"separation must be positive, got {separation_m}")
    span = separation_m * (n_antennas - 1)
    return tuple(
        Point(-span / 2.0 + i * separation_m, 0.0) for i in range(n_antennas)
    )


def triangle_array(separation_m: float) -> tuple[Point, ...]:
    """Three non-colinear antennas with pairwise spacing ``separation_m``.

    §8 needs non-colinear geometry for a unique three-circle
    intersection; an equilateral triangle is the canonical choice.
    """
    if separation_m <= 0:
        raise ValueError(f"separation must be positive, got {separation_m}")
    r = separation_m / math.sqrt(3.0)
    return tuple(
        Point(r * math.cos(a), r * math.sin(a))
        for a in (math.pi / 2.0, math.pi / 2.0 + 2.0 * math.pi / 3.0, math.pi / 2.0 + 4.0 * math.pi / 3.0)
    )


@dataclass
class ChronosDevice:
    """A Wi-Fi device: pose, antenna layout and sampled hardware constants.

    Attributes:
        name: Label used in diagnostics.
        position: Device center in the world frame, meters.
        heading_rad: Body-frame rotation (antenna offsets rotate with it).
        antenna_offsets: Antenna positions in the body frame.
        state: Per-device hardware constants (chain delays, κ, LO error).
    """

    name: str
    position: Point
    state: DeviceState
    heading_rad: float = 0.0
    antenna_offsets: tuple[Point, ...] = (Point(0.0, 0.0),)

    @staticmethod
    def create(
        name: str,
        position: Point,
        rng: np.random.Generator,
        profile: HardwareProfile = INTEL_5300,
        antenna_offsets: tuple[Point, ...] = (Point(0.0, 0.0),),
        heading_rad: float = 0.0,
    ) -> "ChronosDevice":
        """Sample a device of the given hardware profile."""
        return ChronosDevice(
            name=name,
            position=position,
            state=profile.sample_device_state(rng),
            heading_rad=heading_rad,
            antenna_offsets=antenna_offsets,
        )

    @property
    def n_antennas(self) -> int:
        """Number of antennas on the device."""
        return len(self.antenna_offsets)

    def antenna_positions(self) -> tuple[Point, ...]:
        """World-frame antenna positions under the current pose."""
        return tuple(
            self.position + offset.rotated(self.heading_rad)
            for offset in self.antenna_offsets
        )

    def moved_to(self, position: Point, heading_rad: float | None = None) -> "ChronosDevice":
        """A copy of the device at a new pose (same hardware constants)."""
        return replace(
            self,
            position=position,
            heading_rad=self.heading_rad if heading_rad is None else heading_rad,
        )


@dataclass(frozen=True)
class PairFix:
    """One localization fix of the transmitter by the receiver."""

    position: Point
    true_position: Point
    result: LocalizationResult
    distances_m: tuple[float, ...]

    @property
    def error_m(self) -> float:
        """Euclidean localization error."""
        return self.position.distance_to(self.true_position)


class ChronosPair:
    """Two Chronos devices that range and localize each other.

    Args:
        environment: The shared physical world.
        receiver: The localizing device (its antennas are the anchors).
        transmitter: The device being localized (antenna 0 transmits).
        band_plan: Bands to sweep.
        budget: Link budget for SNR.
        estimator_config: ToF estimator settings; the quirk flag defaults
            to the receiver hardware's actual quirk.
        rng: Random generator driving all channel/hardware noise.
        n_packets_per_band: Packet exchanges per band dwell.
    """

    def __init__(
        self,
        environment: Environment,
        receiver: ChronosDevice,
        transmitter: ChronosDevice,
        band_plan: BandPlan = US_BAND_PLAN,
        budget: LinkBudget | None = None,
        estimator_config: TofEstimatorConfig | None = None,
        rng: np.random.Generator | None = None,
        n_packets_per_band: int = 3,
    ):
        self.environment = environment
        self.receiver = receiver
        self.transmitter = transmitter
        self.band_plan = band_plan
        self.budget = budget or LinkBudget()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        if estimator_config is None:
            quirk = (
                receiver.state.profile.phase_quirk_2g4
                and transmitter.state.profile.phase_quirk_2g4
            )
            estimator_config = TofEstimatorConfig(quirk_2g4=quirk)
        self.estimator_config = estimator_config
        self.n_packets_per_band = n_packets_per_band
        self._calibrations: dict[tuple[int, int], LinkCalibration] = {}

    # ------------------------------------------------------------------
    # Calibration (§7, observation 2)
    # ------------------------------------------------------------------
    def calibrate(
        self,
        reference_distance_m: float = 1.0,
        n_sweeps: int = 2,
        per_antenna: bool = False,
    ) -> None:
        """One-time constant-bias calibration at a known distance.

        Mirrors the paper's procedure: place the devices a laser-measured
        distance apart (here: a synthetic free-space link using the same
        hardware constants), measure, and record the ToF bias.

        Chain delays are per-card (not per-antenna) in the hardware
        model, so one measurement suffices and is shared across antenna
        pairs by default; ``per_antenna=True`` repeats it per pair.
        """
        if reference_distance_m <= 0:
            raise ValueError(
                f"reference distance must be positive, got {reference_distance_m}"
            )
        cal_env = free_space()
        estimator = TofEstimator(self.estimator_config)

        def one_calibration() -> LinkCalibration:
            link = SimulatedLink(
                environment=cal_env,
                tx_position=Point(0.0, 0.0),
                rx_position=Point(reference_distance_m, 0.0),
                tx_state=self.transmitter.state,
                rx_state=self.receiver.state,
                band_plan=self.band_plan,
                budget=self.budget,
                rng=self.rng,
            )
            sweeps = [link.sweep(self.n_packets_per_band) for _ in range(n_sweeps)]
            estimate = estimator.estimate_many(sweeps)
            return LinkCalibration.fit(
                estimate.raw_tof_s,
                link.true_tof_s,
                measured_coarse_rt_s=estimate.coarse_round_trip_s,
            )

        shared = None if per_antenna else one_calibration()
        for rx_idx in range(self.receiver.n_antennas):
            for tx_idx in range(self.transmitter.n_antennas):
                self._calibrations[(tx_idx, rx_idx)] = (
                    shared if shared is not None else one_calibration()
                )

    def calibration_for(self, tx_antenna: int, rx_antenna: int) -> LinkCalibration:
        """The stored calibration for one antenna pair (identity if none)."""
        return self._calibrations.get((tx_antenna, rx_antenna), LinkCalibration())

    # ------------------------------------------------------------------
    # Ranging
    # ------------------------------------------------------------------
    def link(self, tx_antenna: int = 0, rx_antenna: int = 0) -> SimulatedLink:
        """The physical link between one tx and one rx antenna, now."""
        tx_pos = self.transmitter.antenna_positions()[tx_antenna]
        rx_pos = self.receiver.antenna_positions()[rx_antenna]
        return SimulatedLink(
            environment=self.environment,
            tx_position=tx_pos,
            rx_position=rx_pos,
            tx_state=self.transmitter.state,
            rx_state=self.receiver.state,
            band_plan=self.band_plan,
            budget=self.budget,
            rng=self.rng,
        )

    def measure_tof(
        self, tx_antenna: int = 0, rx_antenna: int = 0, n_sweeps: int = 1
    ) -> TofEstimate:
        """Calibrated ToF between one antenna pair."""
        link = self.link(tx_antenna, rx_antenna)
        estimator = TofEstimator(
            self.estimator_config, self.calibration_for(tx_antenna, rx_antenna)
        )
        sweeps = [link.sweep(self.n_packets_per_band) for _ in range(n_sweeps)]
        return estimator.estimate_many(sweeps)

    def measure_distance(
        self, tx_antenna: int = 0, rx_antenna: int = 0, n_sweeps: int = 1
    ) -> float:
        """Calibrated distance (ToF × c) between one antenna pair."""
        return self.measure_tof(tx_antenna, rx_antenna, n_sweeps).distance_m

    def measure_tof_batch(
        self,
        antenna_pairs: Sequence[tuple[int, int]],
        n_sweeps: int = 1,
    ) -> list[TofEstimate]:
        """Calibrated ToF for many ``(tx_antenna, rx_antenna)`` pairs at once.

        Sweeps are acquired pair by pair (the radio still hops channels
        sequentially — same RNG stream as repeated :meth:`measure_tof`
        calls), but every estimate runs through the batched engine, so
        the sparse inversions of all pairs share cached operators and
        batched solves.
        """
        sweeps_per_link: list[list[CsiSweep]] = []
        calibrations: list[LinkCalibration] = []
        for tx_antenna, rx_antenna in antenna_pairs:
            link = self.link(tx_antenna, rx_antenna)
            sweeps_per_link.append(
                [link.sweep(self.n_packets_per_band) for _ in range(n_sweeps)]
            )
            calibrations.append(self.calibration_for(tx_antenna, rx_antenna))
        engine = BatchTofEngine(self.estimator_config)
        return engine.estimate_sweeps_batch(sweeps_per_link, calibrations)

    # ------------------------------------------------------------------
    # Localization (§8)
    # ------------------------------------------------------------------
    def localize(
        self,
        n_sweeps: int = 1,
        tx_antenna: int | None = None,
        position_hint: Point | None = None,
        tolerance_m: float = 0.3,
    ) -> PairFix:
        """Locate the transmitter from per-rx-antenna distances.

        With ``tx_antenna=None`` (default) and a multi-antenna
        transmitter, the §8/§12.2 pairwise strategy is used: every
        transmit antenna is ranged to every receive antenna and each
        anchor's distance is the median over transmit antennas — the
        pairwise redundancy rejects per-link outliers before the
        geometry filter even runs, and the result approximates the
        distance to the transmitter's center.  With a specific
        ``tx_antenna``, only that antenna transmits (the phone-class
        single-antenna case).

        All antenna-pair links are ranged in one batched-engine
        submission (:meth:`measure_tof_batch`).

        This method serves *one* pair; a deployment localizing many
        clients per tick should solve their circle systems together
        through :func:`repro.core.localization_batch.locate_transmitter_batch`
        (one lockstep refinement for the whole fleet; the
        :func:`~repro.core.localization.locate_transmitter` call here is
        its one-client case, with the same fix), or stream sweeps through
        :class:`repro.loc.service.LocalizationService`, which batches
        both the anchor ranging and the position solves.
        """
        use_pairwise = tx_antenna is None and self.transmitter.n_antennas > 1
        tx_indices = (
            range(self.transmitter.n_antennas) if use_pairwise else [tx_antenna or 0]
        )
        pairs = [
            (t, rx_idx)
            for rx_idx in range(self.receiver.n_antennas)
            for t in tx_indices
        ]
        estimates = self.measure_tof_batch(pairs, n_sweeps=n_sweeps)
        pair_distance = {
            pair: est.distance_m for pair, est in zip(pairs, estimates, strict=True)
        }
        distance_list: list[float] = []
        for rx_idx in range(self.receiver.n_antennas):
            per_tx = [pair_distance[(t, rx_idx)] for t in tx_indices]
            distance_list.append(float(np.median(per_tx)))
        distances = tuple(distance_list)
        anchors = self.receiver.antenna_positions()
        result = locate_transmitter(
            anchors, distances, tolerance_m=tolerance_m, position_hint=position_hint
        )
        if use_pairwise:
            true_pos = self.transmitter.position
        else:
            true_pos = self.transmitter.antenna_positions()[tx_antenna or 0]
        return PairFix(
            position=result.position,
            true_position=true_pos,
            result=result,
            distances_m=distances,
        )
