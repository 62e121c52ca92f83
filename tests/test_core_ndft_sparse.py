"""NDFT construction and the Algorithm 1 sparse solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ndft import (
    capped_window_s,
    forward_ndft,
    get_grid_operator,
    matched_filter,
    ndft_matrix,
    steering_vector,
    tau_grid,
    unambiguous_window_s,
)
from repro.core.sparse import (
    SparseSolverConfig,
    invert_ndft,
    invert_ndft_batch,
    lasso_objective,
    soft_threshold,
)
from repro.wifi.bands import US_BAND_PLAN

FREQS_5G = US_BAND_PLAN.subset_5g().center_frequencies_hz
FREQS_2G4 = US_BAND_PLAN.subset_2g4().center_frequencies_hz


class TestTauGrid:
    def test_grid_spans_window(self):
        g = tau_grid(200e-9, 0.5e-9)
        assert g[0] == 0.0
        assert g[-1] < 200e-9
        assert np.allclose(np.diff(g), 0.5e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            tau_grid(0.0, 1e-9)
        with pytest.raises(ValueError):
            tau_grid(10e-9, -1e-9)


class TestUnambiguousWindow:
    def test_5g_plan_is_200ns(self):
        assert unambiguous_window_s(FREQS_5G) == pytest.approx(200e-9)

    def test_2g4_plan_is_200ns(self):
        """Differences (not raw values) determine distinguishability."""
        freqs = US_BAND_PLAN.subset_2g4().center_frequencies_hz
        assert unambiguous_window_s(freqs) == pytest.approx(200e-9)

    def test_combined_plan_is_1us(self):
        freqs = US_BAND_PLAN.center_frequencies_hz
        assert unambiguous_window_s(freqs) == pytest.approx(1e-6)

    def test_single_frequency_infinite(self):
        assert unambiguous_window_s(np.array([5.18e9])) == float("inf")


class TestNdftMatrix:
    def test_shape_and_modulus(self):
        taus = tau_grid(50e-9, 1e-9)
        F = ndft_matrix(FREQS_5G, taus)
        assert F.shape == (len(FREQS_5G), len(taus))
        assert np.allclose(np.abs(F), 1.0)

    def test_float32_inputs_still_yield_complex128(self):
        """Regression: float32 frequencies/taus must not leak a
        complex64 Fourier matrix — at 5 GHz carriers a float32 phase
        argument loses the sub-nanosecond delay resolution the whole
        pipeline is built for."""
        taus = tau_grid(50e-9, 1e-9)
        F = ndft_matrix(
            FREQS_5G.astype(np.float32), taus.astype(np.float32)
        )
        assert F.dtype == np.complex128
        assert np.allclose(np.abs(F), 1.0)

    def test_forward_matches_channel_model(self):
        taus = np.array([0.0, 10e-9, 20e-9])
        profile = np.array([0.0, 1.0, 0.5], dtype=complex)
        h = forward_ndft(profile, FREQS_5G, taus)
        expected = np.exp(-2j * np.pi * FREQS_5G * 10e-9) + 0.5 * np.exp(
            -2j * np.pi * FREQS_5G * 20e-9
        )
        assert np.allclose(h, expected)

    def test_matched_filter_peaks_at_truth(self):
        tau = 33e-9
        h = steering_vector(FREQS_5G, tau)
        grid = tau_grid(200e-9, 0.25e-9)
        spectrum = matched_filter(h, FREQS_5G, grid)
        assert grid[np.argmax(spectrum)] == pytest.approx(tau, abs=0.25e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matched_filter(np.ones(3), FREQS_5G, tau_grid(10e-9, 1e-9))


class TestSoftThreshold:
    def test_small_values_zeroed(self):
        p = np.array([0.1 + 0.1j, 1.0 + 0j])
        out = soft_threshold(p, 0.5)
        assert out[0] == 0.0
        assert abs(out[1]) == pytest.approx(0.5)

    def test_phase_preserved(self):
        p = np.array([2.0 * np.exp(1j * 1.2)])
        out = soft_threshold(p, 0.5)
        assert np.angle(out[0]) == pytest.approx(1.2)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), -0.1)

    @settings(max_examples=50)
    @given(
        mag=st.floats(min_value=1e-12, max_value=10.0),
        phase=st.floats(min_value=-np.pi, max_value=np.pi),
        thr=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_shrinkage_property(self, mag, phase, thr):
        """|S(x,t)| = max(|x|-t, 0) — the proximal map of the L1 norm."""
        x = np.array([mag * np.exp(1j * phase)])
        out = soft_threshold(x, thr)
        assert abs(out[0]) == pytest.approx(max(mag - thr, 0.0), abs=1e-9)

    def test_subnormal_inputs_do_not_nan(self):
        out = soft_threshold(np.array([2.2e-311 + 0j]), 1e-320)
        assert np.isfinite(out).all()


class TestInvertNdft:
    def test_single_path_recovery(self):
        tau = 40e-9
        h = steering_vector(FREQS_5G, tau)
        grid = tau_grid(200e-9, 0.5e-9)
        p = invert_ndft(h, FREQS_5G, grid)
        assert grid[np.argmax(np.abs(p))] == pytest.approx(tau, abs=0.5e-9)

    def test_solution_is_sparse(self):
        tau = 40e-9
        h = steering_vector(FREQS_5G, tau)
        grid = tau_grid(200e-9, 0.5e-9)
        p = invert_ndft(h, FREQS_5G, grid)
        occupied = np.sum(np.abs(p) > 0.01 * np.abs(p).max())
        assert occupied < 20  # a few bins, not a smeared spectrum

    def test_two_paths_separated(self):
        h = steering_vector(FREQS_5G, 30e-9) + 0.6 * steering_vector(FREQS_5G, 55e-9)
        grid = tau_grid(200e-9, 0.5e-9)
        p = np.abs(invert_ndft(h, FREQS_5G, grid))
        assert p[np.argmin(np.abs(grid - 30e-9))] > 0.1
        assert p[np.argmin(np.abs(grid - 55e-9))] > 0.05

    def test_higher_alpha_sparser_solution(self):
        h = steering_vector(FREQS_5G, 30e-9) + 0.3 * steering_vector(FREQS_5G, 90e-9)
        grid = tau_grid(200e-9, 0.5e-9)
        loose = invert_ndft(h, FREQS_5G, grid, SparseSolverConfig(alpha_rel=0.02))
        tight = invert_ndft(h, FREQS_5G, grid, SparseSolverConfig(alpha_rel=0.4))
        nnz = lambda p: np.sum(np.abs(p) > 1e-6)
        assert nnz(tight) <= nnz(loose)

    def test_accelerated_matches_plain_ista(self):
        """FISTA and ISTA share the fixed point (same LASSO optimum)."""
        h = steering_vector(FREQS_5G, 25e-9)
        grid = tau_grid(100e-9, 1e-9)
        fista = invert_ndft(
            h, FREQS_5G, grid, SparseSolverConfig(accelerated=True, max_iterations=4000)
        )
        ista = invert_ndft(
            h, FREQS_5G, grid, SparseSolverConfig(accelerated=False, max_iterations=4000)
        )
        alpha = 0.08 * np.abs(ndft_matrix(FREQS_5G, grid).conj().T @ h).max()
        obj_f = lasso_objective(fista, h, FREQS_5G, grid, alpha)
        obj_i = lasso_objective(ista, h, FREQS_5G, grid, alpha)
        assert obj_f == pytest.approx(obj_i, rel=0.05)

    def test_zero_input_gives_zero(self):
        grid = tau_grid(100e-9, 1e-9)
        p = invert_ndft(np.zeros(len(FREQS_5G)), FREQS_5G, grid)
        assert np.all(p == 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            invert_ndft(np.ones(5), FREQS_5G, tau_grid(10e-9, 1e-9))

    def test_objective_never_worse_than_zero_solution(self):
        """The solver must beat the trivial p = 0 (objective = ½||h||²)."""
        h = steering_vector(FREQS_5G, 61e-9)
        grid = tau_grid(200e-9, 0.5e-9)
        p = invert_ndft(h, FREQS_5G, grid)
        alpha = 0.08 * np.abs(ndft_matrix(FREQS_5G, grid).conj().T @ h).max()
        assert lasso_objective(p, h, FREQS_5G, grid, alpha) < 0.5 * float(
            np.vdot(h, h).real
        )

    def test_objective_is_the_one_the_solver_minimizes(self):
        """At a tight solve, scaling the profile either way costs."""
        h = steering_vector(FREQS_5G, 61e-9) + 0.4 * steering_vector(
            FREQS_5G, 90e-9
        )
        grid = tau_grid(200e-9, 0.5e-9)
        p = invert_ndft(
            h, FREQS_5G, grid,
            SparseSolverConfig(tolerance_rel=1e-12, max_iterations=20000),
        )
        alpha = 0.08 * np.abs(ndft_matrix(FREQS_5G, grid).conj().T @ h).max()
        best = lasso_objective(p, h, FREQS_5G, grid, alpha)
        for scale in (0.999, 1.001):
            assert lasso_objective(scale * p, h, FREQS_5G, grid, alpha) > best


def multipath_channel(rng, freqs, n_paths=3, noise=0.03):
    """A reciprocity-squared multipath channel inside the 200 ns window."""
    delays = np.sort(rng.uniform(10e-9, 180e-9, n_paths))
    amps = rng.uniform(0.25, 1.0, n_paths) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, n_paths)
    )
    h = sum(a * steering_vector(freqs, d) for a, d in zip(amps, delays, strict=True))
    return h + noise * (rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs)))


def kkt_violation(freqs, h, config):
    """Relative violation of the LASSO optimality conditions.

    ``p`` minimizes ``½||h - F p||² + α||p||₁`` exactly when
    ``|Fᴴr|_i <= α`` everywhere and ``|Fᴴr|_i = α`` wherever
    ``p_i != 0`` (``r = h - F p``).  Returns the worst relative breach
    of the bound and of the on-support equality.
    """
    op = get_grid_operator(freqs, capped_window_s(freqs, 500e-9), 0.5e-9)
    p = invert_ndft_batch(h[None, :], freqs, op.taus_s, config, operator=op)[0]
    alpha = config.alpha_rel * np.abs(op.adjoint @ h).max()
    correlation = np.abs(op.adjoint @ (h - op.F @ p))
    on_support = p != 0
    assert on_support.any()
    return (
        correlation.max() / alpha - 1.0,
        1.0 - correlation[on_support].min() / alpha,
    )


class TestSolverOptimality:
    """The returned profile is a LASSO optimum, certified by its KKT
    conditions rather than by a second implementation of the solver."""

    @pytest.mark.parametrize(
        "freqs", [FREQS_5G, FREQS_2G4], ids=["5ghz-24band", "2g4-11band"]
    )
    def test_tight_solve_meets_kkt(self, rng, freqs):
        config = SparseSolverConfig(tolerance_rel=1e-10, max_iterations=50000)
        above, below = kkt_violation(freqs, multipath_channel(rng, freqs), config)
        assert above <= 1e-6
        assert below <= 1e-6

    @pytest.mark.parametrize(
        "freqs", [FREQS_5G, FREQS_2G4], ids=["5ghz-24band", "2g4-11band"]
    )
    def test_default_solve_is_near_kkt(self, rng, freqs):
        above, below = kkt_violation(
            freqs, multipath_channel(rng, freqs), SparseSolverConfig()
        )
        assert above <= 1e-2
        assert below <= 1e-2

    def test_restart_keeps_iteration_budget(self, rng):
        """Two-path 5 GHz links converge in a few hundred iterations.

        Plain FISTA needs 468 on average on these; adaptive restart
        brings the mean to about 160, so a change that silently drops
        the restart fails here.
        """
        window = capped_window_s(FREQS_5G, 500e-9)
        op = get_grid_operator(FREQS_5G, window, 0.5e-9)
        rows = []
        for _ in range(8):
            tau2 = rng.uniform(20e-9, 120e-9)
            h = steering_vector(FREQS_5G, tau2) + 0.35 * steering_vector(
                FREQS_5G, tau2 + 30e-9
            )
            noise = rng.normal(size=len(FREQS_5G)) + 1j * rng.normal(size=len(FREQS_5G))
            rows.append(h + 0.03 * noise)
        iterations = np.zeros(len(rows), dtype=np.int64)
        invert_ndft_batch(
            np.vstack(rows), FREQS_5G, op.taus_s, operator=op,
            iterations_out=iterations,
        )
        assert iterations.mean() <= 250

    def test_subnormal_channel_gives_finite_profile(self):
        """γα underflows to zero here; the kernel must not divide 0/0."""
        grid = tau_grid(200e-9, 0.5e-9)
        h = steering_vector(FREQS_5G, 40e-9)
        out = invert_ndft_batch(np.vstack([1e-322 * h, h]), FREQS_5G, grid)
        assert np.isfinite(out).all()
        assert np.any(out[1] != 0)
