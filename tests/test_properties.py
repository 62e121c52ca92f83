"""Cross-module property-based tests on the core invariants.

These are the load-bearing identities of the reproduction: if any of
them breaks, the headline results are meaningless.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchTofEngine
from repro.core.interpolation import zero_subcarrier_csi
from repro.core.ndft import steering_vector, unambiguous_window_s
from repro.core.sparse import soft_threshold
from repro.core.tof import TofEstimator, TofEstimatorConfig
from repro.rf.channel import channel_at
from repro.rf.paths import from_delays
from repro.wifi.bands import Band, US_BAND_PLAN
from repro.wifi.csi import BandCsi
from repro.wifi.ofdm import (
    INTEL5300_SUBCARRIERS_20MHZ,
    SUBCARRIER_SPACING_HZ,
    subcarrier_frequencies,
)

FREQS_5G = US_BAND_PLAN.subset_5g().center_frequencies_hz
# The 24-band plan fits the coarse grid; on the 35-band 2.4 + 5 GHz
# plan the hybrid method extracts on the 5 GHz bands and refits on all.
PRODUCT_PLANS = {
    "24band": FREQS_5G,
    "35band": US_BAND_PLAN.center_frequencies_hz,
}


@settings(max_examples=40, deadline=None)
@given(
    tof_ns=st.floats(min_value=1.0, max_value=80.0),
    delta_ns=st.floats(min_value=100.0, max_value=250.0),
)
def test_zero_subcarrier_invariant(tof_ns, delta_ns):
    """§5's theorem as a property: for any ToF and any detection delay,
    the interpolated zero-subcarrier channel equals the true channel at
    the center frequency."""
    band = Band(36, 5.18e9)
    paths = from_delays([tof_ns * 1e-9], [1.0])
    freqs = subcarrier_frequencies(band.center_hz)
    idx = np.array(INTEL5300_SUBCARRIERS_20MHZ, float)
    ramp = np.exp(-2j * np.pi * idx * SUBCARRIER_SPACING_HZ * delta_ns * 1e-9)
    csi = BandCsi(band=band, csi=channel_at(paths, freqs) * ramp)
    truth = channel_at(paths, np.array([band.center_hz]))[0]
    got = zero_subcarrier_csi(csi)
    assert abs(got - truth) < 0.01


@settings(max_examples=40, deadline=None)
@given(tau_ns=st.floats(min_value=0.5, max_value=190.0))
def test_steering_vector_period(tau_ns):
    """Delays 200 ns apart are indistinguishable on the 5 MHz grid —
    the CRT window of §4 — while half-shifts are clearly different."""
    tau = tau_ns * 1e-9
    a = steering_vector(FREQS_5G, tau)
    b = steering_vector(FREQS_5G, tau + 200e-9)
    assert np.allclose(a, b, atol=1e-9)
    c = steering_vector(FREQS_5G, tau + 100e-9)
    assert not np.allclose(a, c, atol=1e-2)


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),
            st.floats(min_value=-np.pi, max_value=np.pi),
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_soft_threshold_nonexpansive(values, thr):
    """The proximal map of a convex function is 1-Lipschitz."""
    x = np.array([m * np.exp(1j * p) for m, p in values])
    y = x + 0.1
    sx, sy = soft_threshold(x, thr), soft_threshold(y, thr)
    assert np.linalg.norm(sx - sy) <= np.linalg.norm(x - y) + 1e-9


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.floats(min_value=2.4e9, max_value=5.9e9),
        min_size=2,
        max_size=8,
        unique=True,
    )
)
def test_unambiguous_window_shift_invariance(freqs):
    """Shifting all frequencies by a constant leaves the window alone
    (only differences matter)."""
    f = np.round(np.array(freqs) / 5e6) * 5e6  # snap to the 5 MHz grid
    f = np.unique(f)
    if len(f) < 2:
        return
    w1 = unambiguous_window_s(f)
    w2 = unambiguous_window_s(f + 35e6)
    assert w1 == pytest.approx(w2)


@settings(max_examples=25, deadline=None)
@given(
    d1=st.floats(min_value=1.0, max_value=60.0),
    d2=st.floats(min_value=1.0, max_value=60.0),
    a2=st.floats(min_value=0.1, max_value=1.0),
)
def test_channel_reciprocity_symmetry(d1, d2, a2):
    """Eqn. 7 is symmetric in its paths: ordering cannot matter."""
    freqs = FREQS_5G[:8]
    p_fwd = from_delays([d1 * 1e-9, d1 * 1e-9 + d2 * 1e-9], [1.0, a2])
    p_rev = from_delays([d1 * 1e-9 + d2 * 1e-9, d1 * 1e-9], [a2, 1.0])
    assert np.allclose(channel_at(p_fwd, freqs), channel_at(p_rev, freqs))


@settings(max_examples=20, deadline=None)
@given(
    plan=st.sampled_from(sorted(PRODUCT_PLANS)),
    n_rows=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hybrid_estimate_independent_of_stack(plan, n_rows, seed):
    """Batch composition and row permutation: a link's hybrid estimate
    is the same solved alone (the one-link ``TofEstimator`` call) or
    stacked with others, wherever it sits in the stack."""
    freqs = PRODUCT_PLANS[plan]
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        n_paths = int(rng.integers(1, 5))
        taus = np.sort(rng.uniform(5e-9, 90e-9, n_paths))
        amps = rng.uniform(0.2, 1.0, n_paths) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, n_paths)
        )
        h = sum(a * steering_vector(freqs, 2 * t) for a, t in zip(amps, taus))
        h = h + 0.03 * (rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs)))
        rows.append(h)
    H = np.vstack(rows)
    config = TofEstimatorConfig(quirk_2g4=False, compute_profile=False)
    engine = BatchTofEngine(config)
    stacked = engine.estimate_products_batch(freqs, H)
    order = rng.permutation(n_rows)
    permuted = engine.estimate_products_batch(freqs, H[order])

    def path_counts(estimate):
        return [len(g.paths) for g in estimate.groups]

    for i, estimate in enumerate(stacked):
        alone = TofEstimator(config).estimate_from_products(freqs, H[i])
        assert abs(estimate.tof_s - alone.tof_s) <= 1e-12
        assert path_counts(estimate) == path_counts(alone)
    for estimate, i in zip(permuted, order):
        assert abs(estimate.tof_s - stacked[i].tof_s) <= 1e-12
        assert path_counts(estimate) == path_counts(stacked[i])
