"""Shared fixtures: fast configurations for the heavy pipeline pieces.

Unit tests avoid full 35-band sweeps where possible; the fixtures here
provide reduced band plans and single-packet acquisition so the whole
suite stays fast while still exercising real code paths.  Integration
tests opt into the full plan explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tof import TofEstimatorConfig
from repro.rf.environment import free_space
from repro.rf.geometry import Point
from repro.wifi.bands import US_BAND_PLAN, BandPlan
from repro.wifi.hardware import IDEAL_HARDWARE, INTEL_5300
from repro.wifi.radio import SimulatedLink


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def make_streaming():
    """Factory for StreamingRangingService instances that closes them.

    Every service owns a real flush worker thread; a test that builds
    one inline and forgets ``close()`` leaks that thread into the rest
    of the suite.  Tests build services through this factory and
    teardown releases every worker.
    """
    from repro.stream.service import StreamingRangingService

    created: list[StreamingRangingService] = []

    def factory(*args, **kwargs) -> StreamingRangingService:
        service = StreamingRangingService(*args, **kwargs)
        created.append(service)
        return service

    yield factory
    for service in created:
        service.close()


@pytest.fixture
def make_loc_service():
    """Factory for LocalizationService instances that closes them.

    Same rationale as ``make_streaming``: the backing streaming layer
    owns a flush worker thread that must not outlive the test.
    """
    from repro.loc.service import LocalizationService

    created: list[LocalizationService] = []

    def factory(*args, **kwargs) -> LocalizationService:
        service = LocalizationService(*args, **kwargs)
        created.append(service)
        return service

    yield factory
    for service in created:
        service.close()


@pytest.fixture(scope="session")
def small_plan() -> BandPlan:
    """A 12-band 5 GHz subset — fast but structurally realistic."""
    return US_BAND_PLAN.subset_5g().decimate(2)


@pytest.fixture(scope="session")
def fast_config() -> TofEstimatorConfig:
    """Estimator settings for unit tests (no L1 profile, no quirk)."""
    return TofEstimatorConfig(compute_profile=False, quirk_2g4=False)


@pytest.fixture
def ideal_link(rng) -> SimulatedLink:
    """A 3 m free-space link with perfect hardware."""
    return SimulatedLink(
        environment=free_space(),
        tx_position=Point(0.0, 0.0),
        rx_position=Point(3.0, 0.0),
        tx_state=IDEAL_HARDWARE.sample_device_state(rng),
        rx_state=IDEAL_HARDWARE.sample_device_state(rng),
        rng=rng,
    )


@pytest.fixture
def intel_link(rng) -> SimulatedLink:
    """A 5 m free-space link with Intel 5300-class impairments."""
    return SimulatedLink(
        environment=free_space(),
        tx_position=Point(0.0, 0.0),
        rx_position=Point(5.0, 0.0),
        tx_state=INTEL_5300.sample_device_state(rng),
        rx_state=INTEL_5300.sample_device_state(rng),
        rng=rng,
    )
