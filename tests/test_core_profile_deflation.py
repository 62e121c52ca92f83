"""Multipath profiles, peak logic, and greedy off-grid extraction."""

import numpy as np
import pytest

from repro.core.deflation import (
    DeflationConfig,
    first_path_delay,
    ghost_shifts_s,
    matched_filter_grid,
    signal_floor_rel,
)
from repro.core.deflation_batch import (
    _polish_batch,
    extract_paths_batch,
    full_aperture_refit_batch,
    lasso_amplitudes_batch,
    prune_ghost_atoms_batch,
)
from repro.core.ndft import ndft_matrix, steering_vector, tau_grid
from repro.core.profile import (
    MultipathProfile,
    RefinedPath,
    profile_from_paths,
    refine_first_peak,
    refine_paths,
)
from repro.core.sparse import invert_ndft
from repro.wifi.bands import US_BAND_PLAN

FREQS = US_BAND_PLAN.subset_5g().center_frequencies_hz


def make_profile(delays, amps, grid_step=0.5e-9, window=200e-9):
    grid = tau_grid(window, grid_step)
    return profile_from_paths(grid, delays, amps)


def extract_one(h, freqs, max_delay_s, config=None):
    """One link's paths: the extractor on a one-row stack."""
    return extract_paths_batch(np.asarray(h)[None, :], freqs, max_delay_s, config)[0]


def prune_one(paths, h, freqs, shifts_s, max_delay_s):
    """One link's ghost pruning: the pruner on a one-row stack."""
    return prune_ghost_atoms_batch([paths], h[None, :], freqs, shifts_s, max_delay_s)[0]


class TestMultipathProfile:
    def test_peaks_sorted_by_delay(self):
        prof = make_profile([50e-9, 20e-9, 80e-9], [0.5, 1.0, 0.7])
        delays = [p.delay_s for p in prof.peaks()]
        assert delays == sorted(delays)

    def test_first_peak_is_earliest_dominant(self):
        prof = make_profile([20e-9, 50e-9], [1.0, 0.8])
        assert prof.first_peak().delay_s == pytest.approx(20e-9, abs=0.5e-9)

    def test_weak_crumbs_filtered_by_cluster_power(self):
        prof = make_profile([10e-9, 60e-9], [0.05, 1.0])
        # 0.05 amplitude -> 0.25% power, far below the 5% threshold.
        assert prof.first_peak().delay_s == pytest.approx(60e-9, abs=0.5e-9)

    def test_strongest_peak(self):
        prof = make_profile([20e-9, 50e-9], [0.6, 1.0])
        assert prof.strongest_peak().delay_s == pytest.approx(50e-9, abs=0.5e-9)

    def test_dominant_peak_count(self):
        prof = make_profile([10e-9, 30e-9, 60e-9], [1.0, 0.8, 0.5])
        assert prof.dominant_peak_count() == 3

    def test_empty_profile_raises(self):
        grid = tau_grid(100e-9, 1e-9)
        prof = MultipathProfile(grid, np.zeros(len(grid)))
        assert prof.peaks() == []
        with pytest.raises(ValueError):
            prof.first_peak()

    def test_normalized_power_max_one(self):
        prof = make_profile([30e-9], [2.5])
        assert prof.normalized_power().max() == pytest.approx(1.0)

    def test_validation(self):
        grid = tau_grid(100e-9, 1e-9)
        with pytest.raises(ValueError):
            MultipathProfile(grid, np.zeros(len(grid) - 1))
        with pytest.raises(ValueError):
            MultipathProfile(grid, np.zeros(len(grid)), dominance_threshold_rel=0.0)


class TestRefinement:
    def test_refine_beats_grid_quantization(self):
        tau = 40.27e-9  # deliberately off-grid
        h = steering_vector(FREQS, tau)
        grid = tau_grid(200e-9, 0.5e-9)
        prof = MultipathProfile(grid, invert_ndft(h, FREQS, grid))
        refined = refine_first_peak(prof, h, FREQS)
        assert refined == pytest.approx(tau, abs=0.02e-9)

    def test_refine_paths_returns_amplitudes(self):
        h = steering_vector(FREQS, 30e-9) + 0.5 * steering_vector(FREQS, 70e-9)
        grid = tau_grid(200e-9, 0.5e-9)
        prof = MultipathProfile(grid, invert_ndft(h, FREQS, grid))
        paths = refine_paths(prof, h, FREQS)
        assert len(paths) >= 2
        assert abs(paths[0].amplitude) == pytest.approx(1.0, abs=0.15)


class TestExtractPaths:
    """The greedy extractor on one link (a one-row stack)."""

    def test_single_path(self):
        tau = 47.3e-9
        h = steering_vector(FREQS, tau)
        paths = extract_one(h, FREQS, 200e-9)
        assert paths[0].delay_s == pytest.approx(tau, abs=0.02e-9)

    def test_multiple_paths_recovered(self):
        true = [(20e-9, 1.0), (35e-9, 0.7), (90e-9, 0.4)]
        h = sum(a * steering_vector(FREQS, t) for t, a in true)
        paths = extract_one(h, FREQS, 200e-9)
        for t, a in true:
            nearest = min(paths, key=lambda p: abs(p.delay_s - t))
            assert abs(nearest.delay_s - t) < 0.1e-9
            assert abs(nearest.amplitude) == pytest.approx(a, abs=0.15)

    def test_respects_max_paths(self):
        h = steering_vector(FREQS, 20e-9)
        paths = extract_one(h, FREQS, 200e-9, DeflationConfig(max_paths=2))
        assert len(paths) <= 2

    def test_noise_only_returns_something(self, rng):
        h = (rng.normal(size=len(FREQS)) + 1j * rng.normal(size=len(FREQS))) * 0.01
        paths = extract_one(h, FREQS, 200e-9)
        assert len(paths) >= 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            extract_one(np.ones(2), np.array([1e9, 2e9]), 100e-9)
        with pytest.raises(ValueError):
            extract_one(np.ones(5), FREQS[:5], 0.0)

    def test_path_near_window_edge_stays_inside(self):
        """Regression: extraction never reports a delay past the window.

        With a capped window (100 ns, as the engine uses via
        ``capped_window_s``) and channel content just beyond the cap,
        the unclamped polish used to refine the edge bin's delay past
        ``max_delay_s`` — outside the grid's alias-free window."""
        window = 100e-9
        h = steering_vector(FREQS, window + 0.02e-9) + 0.3 * steering_vector(
            FREQS, 40e-9
        )
        paths = extract_one(h, FREQS, window)
        assert all(p.delay_s <= window for p in paths)
        assert any(abs(p.delay_s - 40e-9) < 0.05e-9 for p in paths)


class TestPolishWindowClamp:
    def test_polish_does_not_cross_window_edge(self):
        """Regression: the off-grid polish is clamped to the CRT-unique
        window — with content just past the edge, the unclamped search
        would return a delay ≥ the window the grid was built for."""
        window = 200e-9
        _, grid_step = matched_filter_grid(FREQS, window, DeflationConfig())
        beyond = window + 0.4 * grid_step
        residual = steering_vector(FREQS, beyond)
        tau0 = np.array([window - grid_step / 2.0])  # the edge-most grid bin
        unclamped = _polish_batch(residual[None, :], FREQS, tau0, grid_step, np.inf)
        assert unclamped[0] > window  # the failure mode being fixed
        clamped = _polish_batch(residual[None, :], FREQS, tau0, grid_step, window)
        assert clamped[0] <= window

    def test_full_aperture_refit_clamped(self):
        window = 200e-9
        products = steering_vector(FREQS, window + 0.05e-9)
        paths = [RefinedPath(window - 0.01e-9, 1.0 + 0j)]
        refit = full_aperture_refit_batch(
            [paths],
            FREQS,
            products[None, :],
            DeflationConfig().final_alpha_rel,
            max_delay_s=window,
        )[0]
        assert all(p.delay_s <= window for p in refit)


class TestExtractPathsBatch:
    """The extractor on a stack against each row solved alone.

    A row alone is the one-link (scalar) call; the lockstep kernel must
    not let the rows that share a stack change a link's answer.
    """

    def _stack(self, rng, n_links, n_paths=3, noise=0.02, freqs=FREQS):
        rows = []
        for _ in range(n_links):
            taus = np.sort(rng.uniform(5e-9, 95e-9, n_paths))
            amps = rng.uniform(0.2, 1.0, n_paths) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, n_paths)
            )
            h = sum(a * steering_vector(freqs, t) for a, t in zip(amps, taus))
            h += noise * (
                rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
            )
            rows.append(h)
        return np.vstack(rows)

    def assert_matches_scalar(self, H, freqs, window=200e-9, config=None):
        batch = extract_paths_batch(H, freqs, window, config)
        for i in range(len(H)):
            alone = extract_one(H[i], freqs, window, config)
            assert len(batch[i]) == len(alone), f"link {i} path count"
            for b, s in zip(batch[i], alone):
                assert abs(b.delay_s - s.delay_s) <= 1e-12
                assert abs(b.amplitude - s.amplitude) <= 1e-9

    def test_matches_scalar_multipath(self, rng):
        self.assert_matches_scalar(self._stack(rng, 6), FREQS)

    def test_matches_scalar_on_band_subset(self, rng):
        freqs = FREQS[::2]
        self.assert_matches_scalar(
            self._stack(rng, 4, freqs=freqs), freqs
        )

    def test_matches_scalar_single_path(self, rng):
        H = np.vstack(
            [steering_vector(FREQS, t) for t in (20.4e-9, 63.1e-9, 150.7e-9)]
        )
        self.assert_matches_scalar(H, FREQS)

    def test_matches_scalar_noise_only_fallback(self, rng):
        H = 0.01 * (
            rng.normal(size=(3, len(FREQS))) + 1j * rng.normal(size=(3, len(FREQS)))
        )
        self.assert_matches_scalar(H, FREQS)

    def test_zero_link_returns_empty(self, rng):
        H = self._stack(rng, 2)
        H[1] = 0.0
        batch = extract_paths_batch(H, FREQS, 200e-9)
        assert batch[1] == []
        assert len(batch[0]) >= 1

    def test_respects_max_paths(self, rng):
        cfg = DeflationConfig(max_paths=2)
        H = self._stack(rng, 3, n_paths=4)
        self.assert_matches_scalar(H, FREQS, config=cfg)
        assert all(len(p) <= 2 for p in extract_paths_batch(H, FREQS, 200e-9, cfg))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            extract_paths_batch(np.ones(len(FREQS)), FREQS, 100e-9)
        with pytest.raises(ValueError):
            extract_paths_batch(np.ones((2, 5)), FREQS, 100e-9)
        with pytest.raises(ValueError):
            extract_paths_batch(np.ones((2, len(FREQS))), FREQS, 0.0)


class TestSignalFloor:
    """Extraction stops at the channel's components, not at the budget.

    Without the signal floor every link below ran to 6–12 atoms: once
    the residual is noise, the best grid atom still removes 2 % of it.
    """

    DELAYS = (12.4e-9, 45.3e-9, 71.1e-9, 98.0e-9)

    def _noise(self, rng, n_links, scale=0.03):
        shape = (n_links, len(FREQS))
        return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    def fleet_like(self, rng):
        """The fleet channel: direct path + 0.35 bounce 30 ns later."""
        H = np.vstack(
            [
                steering_vector(FREQS, t) + 0.35 * steering_vector(FREQS, t + 30e-9)
                for t in self.DELAYS
            ]
        )
        return H + self._noise(rng, len(H))

    def body_blocked(self, rng):
        """A dominant late bounce over a 0.1-scaled fleet channel."""
        H = np.vstack(
            [
                0.1 * (steering_vector(FREQS, t) + 0.35 * steering_vector(FREQS, t + 30e-9))
                + 2.0 * steering_vector(FREQS, t + 40e-9)
                for t in self.DELAYS
            ]
        )
        return H + self._noise(rng, len(H))

    def three_paths(self):
        return np.vstack(
            [
                steering_vector(FREQS, t)
                + 0.5 * steering_vector(FREQS, t + 22e-9)
                + 0.2 * steering_vector(FREQS, t + 61e-9)
                for t in self.DELAYS
            ]
        )

    def atom_counts(self, H):
        """Per-link atom counts, the stack and each row alone pinned equal."""
        batch = [len(p) for p in extract_paths_batch(H, FREQS, 200e-9)]
        alone = [len(extract_one(h, FREQS, 200e-9)) for h in H]
        assert batch == alone
        return batch

    def test_fleet_like_link_takes_two_atoms(self, rng):
        assert self.atom_counts(self.fleet_like(rng)) == [2] * len(self.DELAYS)

    def test_body_blocked_link_takes_one_atom(self, rng):
        assert self.atom_counts(self.body_blocked(rng)) == [1] * len(self.DELAYS)

    def test_three_path_link_takes_three_atoms(self, rng):
        clean = self.three_paths()
        assert self.atom_counts(clean) == [3] * len(self.DELAYS)
        noisy = clean + self._noise(rng, len(clean))
        assert self.atom_counts(noisy) == [3] * len(self.DELAYS)

    def test_floor_is_keep_squared_over_budget(self):
        assert signal_floor_rel(0.25, 2) == 1.0 / 32.0
        assert signal_floor_rel(0.25, DeflationConfig().max_paths) == pytest.approx(
            5.2e-3, rel=1e-2
        )
        with pytest.raises(ValueError):
            signal_floor_rel(0.0, 12)
        with pytest.raises(ValueError):
            extract_paths_batch(self.three_paths(), FREQS, 200e-9, amplitude_keep_rel=1.5)


class TestBatchedPruneAndLasso:
    def test_prune_batch_matches_scalar(self, rng):
        shifts = ghost_shifts_s(FREQS, 200e-9)
        H = TestExtractPathsBatch()._stack(rng, 5)
        paths = extract_paths_batch(H, FREQS, 200e-9)
        batch = prune_ghost_atoms_batch(paths, H, FREQS, shifts, 200e-9)
        for i in range(len(H)):
            alone = prune_one(paths[i], H[i], FREQS, shifts, 200e-9)
            assert len(batch[i]) == len(alone)
            for b, s in zip(batch[i], alone):
                assert abs(b.delay_s - s.delay_s) <= 1e-12
                assert abs(b.amplitude - s.amplitude) <= 1e-9

    @pytest.mark.parametrize(
        ("iterations", "tolerance", "bound"),
        [(400, 1e-6, 1e-3), (20_000, 1e-10, 1e-6)],
        ids=["defaults", "tight"],
    )
    def test_lasso_batch_meets_kkt(self, rng, iterations, tolerance, bound):
        """Each link's fit is a LASSO optimum, certified by its KKT
        conditions rather than by a second implementation.

        ``x`` minimizes ``½‖h − Ax‖² + α‖x‖₁`` exactly when
        ``g = Aᴴ(h − Ax)`` equals ``α·x_i/|x_i|`` wherever ``x_i ≠ 0``
        and ``|g_i| ≤ α`` elsewhere; the worst breach over 40 noisy
        1–5-atom links, relative to each link's ``α``, stays within the
        bound.
        """
        delay_sets, rows = [], []
        for _ in range(40):
            n_atoms = int(rng.integers(1, 6))
            delays = np.sort(rng.uniform(5e-9, 190e-9, n_atoms))
            amps = rng.uniform(0.2, 1.0, n_atoms) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, n_atoms)
            )
            noise = rng.normal(size=len(FREQS)) + 1j * rng.normal(size=len(FREQS))
            delay_sets.append(delays)
            rows.append(ndft_matrix(FREQS, delays) @ amps + 0.02 * noise)
        H = np.vstack(rows)
        fits = lasso_amplitudes_batch(
            delay_sets, FREQS, H, alpha_rel=0.1,
            max_iterations=iterations, tolerance_rel=tolerance,
        )
        worst = 0.0
        for delays, h, x in zip(delay_sets, H, fits, strict=True):
            A = ndft_matrix(FREQS, delays)
            alpha = 0.1 * np.abs(A.conj().T @ h).max()
            g = A.conj().T @ (h - A @ x)
            on = x != 0
            breach = np.concatenate(
                [
                    np.abs(g[on] - alpha * x[on] / np.abs(x[on])),
                    np.maximum(np.abs(g[~on]) - alpha, 0.0),
                ]
            )
            worst = max(worst, float(breach.max()) / alpha)
        assert worst <= bound

    def test_lasso_batch_zero_alpha_falls_back_to_lstsq(self, rng):
        delay_sets = [np.array([20e-9, 60e-9])]
        true = np.array([1.0, 0.5 + 0.2j])
        H = (ndft_matrix(FREQS, delay_sets[0]) @ true)[None, :]
        got = lasso_amplitudes_batch(delay_sets, FREQS, H, alpha_rel=0.0)
        np.testing.assert_allclose(got[0], true, atol=1e-8)


class TestGhostLogic:
    def test_ghost_shifts_for_5g_plan(self):
        shifts = ghost_shifts_s(FREQS, 200e-9)
        assert shifts[0] == pytest.approx(50e-9)  # 1/20 MHz
        assert len(shifts) == 3

    def test_prune_relocates_pure_ghost(self):
        """An atom placed 50 ns early relocates to the true position."""
        tau = 110e-9
        h = steering_vector(FREQS, tau)
        ghost = [
            RefinedPath(tau - 50e-9, 0.8 + 0j),
            RefinedPath(tau, 0.4 + 0j),
        ]
        pruned = prune_one(ghost, h, FREQS, ghost_shifts_s(FREQS, 200e-9), 200e-9)
        assert all(abs(p.delay_s - tau) < 1e-9 for p in pruned)

    def test_prune_keeps_genuine_early_path(self):
        """A real early path survives: no shifted copy explains it."""
        h = 0.5 * steering_vector(FREQS, 40e-9) + steering_vector(FREQS, 110e-9)
        atoms = [RefinedPath(40e-9, 0.5 + 0j), RefinedPath(110e-9, 1.0 + 0j)]
        pruned = prune_one(atoms, h, FREQS, ghost_shifts_s(FREQS, 200e-9), 200e-9)
        assert any(abs(p.delay_s - 40e-9) < 1e-9 for p in pruned)


class TestFirstPathDelay:
    def test_skips_weak_leading_atom(self):
        paths = [RefinedPath(10e-9, 0.05 + 0j), RefinedPath(50e-9, 1.0 + 0j)]
        assert first_path_delay(paths) == pytest.approx(50e-9)

    def test_keeps_valid_leading_atom(self):
        paths = [RefinedPath(10e-9, 0.5 + 0j), RefinedPath(50e-9, 1.0 + 0j)]
        assert first_path_delay(paths) == pytest.approx(10e-9)

    def test_gate_excludes_early_atoms(self):
        paths = [RefinedPath(10e-9, 1.0 + 0j), RefinedPath(50e-9, 0.9 + 0j)]
        assert first_path_delay(paths, min_delay_s=30e-9) == pytest.approx(50e-9)

    def test_soft_window_admits_strong_atom_below_gate(self):
        paths = [RefinedPath(28e-9, 0.9 + 0j), RefinedPath(50e-9, 1.0 + 0j)]
        got = first_path_delay(
            paths, min_delay_s=30e-9, soft_window_s=5e-9, soft_amplitude_rel=0.5
        )
        assert got == pytest.approx(28e-9)

    def test_overaggressive_gate_falls_back(self):
        paths = [RefinedPath(10e-9, 1.0 + 0j)]
        assert first_path_delay(paths, min_delay_s=100e-9) == pytest.approx(10e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            first_path_delay([])


class TestLassoAmplitudes:
    def test_matches_lstsq_when_alpha_zero(self):
        delays = np.array([20e-9, 60e-9])
        h = ndft_matrix(FREQS, delays) @ np.array([1.0, 0.5 + 0.2j])
        (x,) = lasso_amplitudes_batch([delays], FREQS, h[None, :], alpha_rel=0.0)
        assert np.allclose(x, [1.0, 0.5 + 0.2j], atol=1e-8)

    def test_l1_shrinks_amplitudes(self):
        delays = np.array([20e-9, 60e-9])
        h = ndft_matrix(FREQS, delays) @ np.array([1.0, 0.5])
        (x,) = lasso_amplitudes_batch([delays], FREQS, h[None, :], alpha_rel=0.2)
        assert abs(x[0]) < 1.0
        assert abs(x[1]) < 0.5
