"""Seeded input generation for the benchmark workloads.

Everything here runs outside the timed serving process or between its
timed operations: it builds measurements from ``--seed`` with the
repository's channel and radio simulators (``repro.rf``, ``repro.wifi``)
and hands the serving process plain data.  The same seed always gives
the same inputs.

* ``fleet_locate`` -- 16 walking clients, 6 anchors ringing a 14 m x 10 m
  office floor, each client hearing a fixed subset of 4 anchors.
  Per tick every client contributes 4 product-level links on the 24-band
  5 GHz plan: a direct path plus one bounce, about 8% body-blocked ghost
  links, and on every fourth tick exactly one all-zero (dead radio) link.
* ``csi_sweeps`` -- raw Intel-5300 sweeps (35-band plan, 3 packets per
  band, CFO, detection delay, 2.4 GHz quirk) from ``SimulatedLink`` over
  ``office_testbed()`` placements, LOS and NLOS mixed, for four device
  pairs, plus each pair's 1 m calibration sweeps.

Each workload fixes a scenario -- geometry, placements, channels and
their noise -- and the seed draws the schedule within
it: which link is served when, and where the dead radio falls.  Every
seed therefore poses the same estimation problems, so the accuracy
figures and the amount of work do not move with the seed; what moves is
the order, and with it batching and queueing.  A seed-drawn noise
realisation moves the tail of the error distribution by 30% or more
between seeds, more than any bound a regression check could use.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rf.constants import SPEED_OF_LIGHT

FLEET_CLIENTS = 16
FLEET_ANCHORS = 6
FLEET_ANCHORS_PER_CLIENT = 4
FLEET_FLOOR_M = (14.0, 10.0)
FLEET_TICK_HZ = 5.0
FLEET_SPEED_M_S = 0.6
# Body-blocked ghost links per tick: 5 of 64 links, about 8%.
FLEET_GHOSTS_PER_TICK = 5
FLEET_NOISE = 0.03
FLEET_SCENARIO_SEED = 71
# Every DEAD_TICK_PERIOD-th tick carries exactly one all-zero anchor link.
FLEET_DEAD_TICK_PERIOD = 4

CSI_PAIRS = 4
CSI_LINKS_PER_PAIR = 8
CSI_PACKETS_PER_BAND = 3
CSI_CALIBRATION_SWEEPS = 2
CSI_CALIBRATION_DISTANCE_M = 1.0
CSI_TESTBED_SEED = 7
CSI_SCENARIO_SEED = 71



def steer(freqs_hz: np.ndarray, delay_s: float) -> np.ndarray:
    return np.exp(-2.0j * np.pi * freqs_hz * delay_s)


def _noise(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


# ----------------------------------------------------------------------
# fleet_locate
# ----------------------------------------------------------------------
def fleet_inputs(seed: int) -> dict:
    """Deployment and client motion; per-tick CSI comes from fleet_tick."""
    from repro.wifi.bands import US_BAND_PLAN

    rng = np.random.default_rng(FLEET_SCENARIO_SEED)
    width, height = FLEET_FLOOR_M
    angles = (
        2.0 * np.pi * np.arange(FLEET_ANCHORS) / FLEET_ANCHORS
        + np.pi / FLEET_ANCHORS
    )
    anchors = [
        (
            width / 2.0 + 0.45 * width * math.cos(a),
            height / 2.0 + 0.45 * height * math.sin(a),
        )
        for a in angles
    ]
    start = np.column_stack(
        [
            rng.uniform(0.2 * width, 0.8 * width, FLEET_CLIENTS),
            rng.uniform(0.2 * height, 0.8 * height, FLEET_CLIENTS),
        ]
    )
    heading = rng.uniform(0.0, 2.0 * np.pi, FLEET_CLIENTS)
    velocity = FLEET_SPEED_M_S * np.column_stack(
        [np.cos(heading), np.sin(heading)]
    )
    anchor_sets = [
        tuple(
            sorted(
                int(k)
                for k in rng.choice(
                    FLEET_ANCHORS, size=FLEET_ANCHORS_PER_CLIENT, replace=False
                )
            )
        )
        for _ in range(FLEET_CLIENTS)
    ]
    return {
        "workload": "fleet_locate",
        "seed": seed,
        "freqs_hz": np.asarray(
            US_BAND_PLAN.subset_5g().center_frequencies_hz, dtype=float
        ),
        "anchors": anchors,
        "start": start,
        "velocity": velocity,
        "anchor_sets": anchor_sets,
    }


def _reflect(value: float, lo: float, hi: float) -> float:
    """Bounce a coordinate between two walls (a triangle wave)."""
    span = hi - lo
    phase = (value - lo) % (2.0 * span)
    return lo + (phase if phase <= span else 2.0 * span - phase)


def fleet_time_s(tick: int) -> float:
    return (tick + 1) / FLEET_TICK_HZ


def fleet_position(inputs: dict, client: int, tick: int) -> tuple[float, float]:
    """Ground-truth client position at a tick (walls reflect the walk)."""
    width, height = FLEET_FLOOR_M
    t_s = fleet_time_s(tick)
    x = inputs["start"][client, 0] + inputs["velocity"][client, 0] * t_s
    y = inputs["start"][client, 1] + inputs["velocity"][client, 1] * t_s
    return (
        _reflect(float(x), 0.1 * width, 0.9 * width),
        _reflect(float(y), 0.1 * height, 0.9 * height),
    )


def fleet_tick(inputs: dict, tick: int) -> list[np.ndarray]:
    """Per client, the (4, 24) band products of one tick.

    Drawn per tick, so a tick's inputs do not depend on how many ticks
    ran before it.
    """
    scenario = np.random.default_rng([FLEET_SCENARIO_SEED, tick])
    freqs = inputs["freqs_hz"]
    dead = fleet_dead_link(inputs, tick)
    n_links = FLEET_CLIENTS * FLEET_ANCHORS_PER_CLIENT
    ghost_links = scenario.choice(n_links, size=FLEET_GHOSTS_PER_TICK, replace=False)
    ghost_excess_s = scenario.uniform(25e-9, 60e-9, FLEET_GHOSTS_PER_TICK)
    ghosts = dict(zip((int(g) for g in ghost_links), ghost_excess_s, strict=True))
    out = []
    for client in range(FLEET_CLIENTS):
        px, py = fleet_position(inputs, client, tick)
        rows = []
        for slot, k in enumerate(inputs["anchor_sets"][client]):
            ax, ay = inputs["anchors"][k]
            tau2 = 2.0 * math.hypot(ax - px, ay - py) / SPEED_OF_LIGHT
            h = steer(freqs, tau2) + 0.35 * steer(freqs, tau2 + 30e-9)
            excess_s = ghosts.get(client * FLEET_ANCHORS_PER_CLIENT + slot)
            if excess_s is not None:
                # Body-blocked sweep: a dominant late bounce drags this
                # anchor's range meters off.
                h = 0.1 * h + 2.0 * steer(freqs, tau2 + excess_s)
            h = h + _noise(scenario, len(freqs), FLEET_NOISE)
            if dead == (client, slot):
                h = np.zeros(len(freqs), dtype=complex)
            rows.append(h)
        out.append(np.vstack(rows))
    return out


def fleet_dead_link(inputs: dict, tick: int) -> tuple[int, int] | None:
    """(client, anchor slot) of the tick's dead radio, if any."""
    if tick % FLEET_DEAD_TICK_PERIOD != FLEET_DEAD_TICK_PERIOD - 1:
        return None
    rng = np.random.default_rng([inputs["seed"], 1, tick])
    return (
        int(rng.integers(FLEET_CLIENTS)),
        int(rng.integers(FLEET_ANCHORS_PER_CLIENT)),
    )


def fleet_call_order(inputs: dict, tick: int) -> list[int]:
    """The order in which the tick's clients call ``locate``."""
    rng = np.random.default_rng([inputs["seed"], 2, tick])
    return [int(i) for i in rng.permutation(FLEET_CLIENTS)]


# ----------------------------------------------------------------------
# csi_sweeps
# ----------------------------------------------------------------------
def csi_inputs(seed: int) -> dict:
    """Per device pair: calibration sweeps at 1 m and a pool of links."""
    from repro.experiments.testbed import office_testbed
    from repro.rf.environment import free_space
    from repro.rf.geometry import Point
    from repro.wifi.hardware import INTEL_5300
    from repro.wifi.radio import SimulatedLink

    testbed = office_testbed(seed=CSI_TESTBED_SEED)
    scenario = np.random.default_rng(CSI_SCENARIO_SEED)
    n_links = CSI_PAIRS * CSI_LINKS_PER_PAIR
    placements = testbed.location_pairs(
        n_links // 2, scenario, line_of_sight=True
    ) + testbed.location_pairs(n_links // 2, scenario, line_of_sight=False)
    order = scenario.permutation(n_links)
    devices = [
        (INTEL_5300.sample_device_state(scenario), INTEL_5300.sample_device_state(scenario))
        for _ in range(CSI_PAIRS)
    ]
    pairs = []
    per_pair: list[list[dict]] = []
    for p, (tx_state, rx_state) in enumerate(devices):
        cal_link = SimulatedLink(
            environment=free_space(),
            tx_position=Point(0.0, 0.0),
            rx_position=Point(CSI_CALIBRATION_DISTANCE_M, 0.0),
            tx_state=tx_state,
            rx_state=rx_state,
            rng=scenario,
        )
        pairs.append(
            {
                "sweeps": tuple(
                    cal_link.sweep(CSI_PACKETS_PER_BAND)
                    for _ in range(CSI_CALIBRATION_SWEEPS)
                ),
                "true_tof_s": cal_link.true_tof_s,
            }
        )
        links = []
        for j in range(CSI_LINKS_PER_PAIR):
            tx_pos, rx_pos = placements[int(order[p * CSI_LINKS_PER_PAIR + j])]
            link = SimulatedLink(
                environment=testbed.environment,
                tx_position=tx_pos,
                rx_position=rx_pos,
                tx_state=tx_state,
                rx_state=rx_state,
                rng=scenario,
            )
            links.append(
                {
                    "pair": p,
                    "sweep": link.sweep(CSI_PACKETS_PER_BAND),
                    "true_tof_s": link.true_tof_s,
                    "los": link.line_of_sight,
                }
            )
        per_pair.append(links)
    pool = [link for links in per_pair for link in links]
    order = [int(i) for i in np.random.default_rng([seed, 2]).permutation(len(pool))]
    return {
        "workload": "csi_sweeps",
        "seed": seed,
        "pairs": pairs,
        "pool": pool,
        "order": order,
    }


def generate(workload: str, seed: int) -> dict:
    """The inputs of one run of ``workload``."""
    if workload == "fleet_locate":
        return fleet_inputs(seed)
    if workload == "csi_sweeps":
        return csi_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
