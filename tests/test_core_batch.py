"""The batched ranging engine and the cached NDFT operators."""

import numpy as np
import pytest

import repro.core.batch as batch_module
from repro.core.batch import BatchTofEngine, UnsolvableLinks, unsolvable_reason
from repro.core.cfo import LinkCalibration
from repro.core.ndft import (
    capped_window_s,
    clear_operator_cache,
    get_grid_operator,
    get_operator,
    ndft_matrix,
    operator_cache_stats,
    steering_vector,
    tau_grid,
    unambiguous_window_s,
)
from repro.core.profile import MultipathProfile, refine_first_peak
from repro.core.sparse import SparseSolverConfig, invert_ndft, invert_ndft_batch
from repro.core.tof import TofEstimator, TofEstimatorConfig
from repro.rf.environment import free_space
from repro.rf.geometry import Point
from repro.wifi.bands import US_BAND_PLAN
from repro.wifi.csi import CsiSweep
from repro.wifi.hardware import INTEL_5300
from repro.wifi.radio import SimulatedLink

FREQS_5G = US_BAND_PLAN.subset_5g().center_frequencies_hz


def random_links(rng, n_links, n_paths=3, noise=0.02):
    """Stacked reciprocity-squared channels for synthetic multipath links."""
    rows = []
    for _ in range(n_links):
        taus = np.sort(rng.uniform(5e-9, 90e-9, n_paths))
        amps = rng.uniform(0.3, 1.0, n_paths) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, n_paths)
        )
        h = sum(a * steering_vector(FREQS_5G, 2 * t) for a, t in zip(amps, taus))
        h += noise * (
            rng.normal(size=len(FREQS_5G)) + 1j * rng.normal(size=len(FREQS_5G))
        )
        rows.append(h)
    return np.vstack(rows)


class TestOperatorCache:
    def test_same_key_reuses_cached_matrix(self):
        clear_operator_cache()
        grid = tau_grid(100e-9, 1e-9)
        a = get_operator(FREQS_5G, grid)
        b = get_operator(FREQS_5G, grid.copy())
        assert a is b  # the identity check: one matrix, shared
        assert b.F is a.F
        stats = operator_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_different_grid_step_misses(self):
        clear_operator_cache()
        get_grid_operator(FREQS_5G, 100e-9, 1e-9)
        get_grid_operator(FREQS_5G, 100e-9, 0.5e-9)
        assert operator_cache_stats()["misses"] == 2
        assert operator_cache_stats()["hits"] == 0

    def test_different_window_misses(self):
        clear_operator_cache()
        get_grid_operator(FREQS_5G, 100e-9, 1e-9)
        get_grid_operator(FREQS_5G, 150e-9, 1e-9)
        assert operator_cache_stats()["misses"] == 2

    def test_matrix_matches_direct_construction(self):
        grid = tau_grid(80e-9, 1e-9)
        op = get_operator(FREQS_5G, grid)
        assert np.array_equal(op.F, ndft_matrix(FREQS_5G, grid))
        assert np.array_equal(op.adjoint, ndft_matrix(FREQS_5G, grid).conj().T)

    def test_lipschitz_matches_norm(self):
        grid = tau_grid(50e-9, 1e-9)
        op = get_operator(FREQS_5G, grid)
        assert op.lipschitz == float(np.linalg.norm(op.F, 2) ** 2)

    def test_cached_arrays_are_read_only(self):
        op = get_operator(FREQS_5G, tau_grid(60e-9, 1e-9))
        with pytest.raises(ValueError):
            op.F[0, 0] = 0.0
        with pytest.raises(ValueError):
            op.taus_s[0] = 1.0

    def test_mutating_caller_array_does_not_corrupt_cache(self):
        clear_operator_cache()
        freqs = np.array(FREQS_5G, dtype=float)
        grid = tau_grid(60e-9, 1e-9)
        op = get_operator(freqs, grid)
        freqs[0] = 1.0  # caller mutates its own array after the fact
        assert op.frequencies_hz[0] == FREQS_5G[0]


class TestCappedWindow:
    def test_single_frequency_is_capped_not_infinite(self):
        """Regression: a one-band plan must not produce an unbounded grid."""
        freqs = np.array([5.18e9])
        assert unambiguous_window_s(freqs) == float("inf")
        assert capped_window_s(freqs, 500e-9) == 500e-9
        # The batch grid construction built from the capped window is finite.
        op = get_grid_operator(freqs, capped_window_s(freqs, 500e-9), 1e-9)
        assert op.n_taus == len(tau_grid(500e-9, 1e-9))

    def test_multi_frequency_takes_smaller_window(self):
        assert capped_window_s(FREQS_5G, 500e-9) == pytest.approx(200e-9)
        assert capped_window_s(FREQS_5G, 100e-9) == 100e-9

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            capped_window_s(FREQS_5G, float("inf"))
        with pytest.raises(ValueError):
            capped_window_s(FREQS_5G, 0.0)


class TestBatchSolver:
    def test_matches_scalar_profiles(self, rng):
        H = random_links(rng, 4)
        grid = tau_grid(200e-9, 1e-9)
        cfg = SparseSolverConfig(max_iterations=400)
        batch = invert_ndft_batch(H, FREQS_5G, grid, cfg)
        for i in range(len(H)):
            scalar = invert_ndft(H[i], FREQS_5G, grid, cfg)
            np.testing.assert_allclose(batch[i], scalar, rtol=0, atol=1e-10)

    def test_restart_state_is_per_link(self, rng):
        """A link's solve ignores what its neighbours do.

        Momentum age, restarts and stop tests are per link, so the
        first link gets the same profile and iteration count alone as
        stacked with links on their own restart schedules and an
        all-zero row.
        """
        H = random_links(rng, 4)
        grid = tau_grid(200e-9, 0.5e-9)
        alone_iterations = np.zeros(1, dtype=np.int64)
        alone = invert_ndft_batch(
            H[:1], FREQS_5G, grid, iterations_out=alone_iterations
        )
        stack = np.vstack([H[:3], np.zeros(len(FREQS_5G)), H[3:]])
        iterations = np.zeros(len(stack), dtype=np.int64)
        out = invert_ndft_batch(stack, FREQS_5G, grid, iterations_out=iterations)
        np.testing.assert_allclose(out[0], alone[0], rtol=0, atol=1e-10)
        assert iterations[0] == alone_iterations[0]
        assert len(set(iterations[:3].tolist())) > 1
        assert np.all(out[3] == 0) and iterations[3] == 0

    def test_row_permutation_permutes_output(self, rng):
        H = random_links(rng, 6)
        grid = tau_grid(200e-9, 0.5e-9)
        perm = rng.permutation(len(H))
        iterations = np.zeros(len(H), dtype=np.int64)
        permuted_iterations = np.zeros(len(H), dtype=np.int64)
        out = invert_ndft_batch(H, FREQS_5G, grid, iterations_out=iterations)
        permuted = invert_ndft_batch(
            H[perm], FREQS_5G, grid, iterations_out=permuted_iterations
        )
        np.testing.assert_allclose(permuted, out[perm], rtol=0, atol=1e-10)
        np.testing.assert_array_equal(permuted_iterations, iterations[perm])

    def test_wide_support_link_runs_plain_fista(self):
        """The support gate: no restart while the support is >= the
        band count.

        An 11-band 2.4 GHz link whose support never drops below 11
        must follow plain FISTA (written out here, with the same step,
        threshold, stop rule and check cadence) to the same iteration.
        """
        freqs = US_BAND_PLAN.subset_2g4().center_frequencies_hz
        op = get_grid_operator(freqs, capped_window_s(freqs, 500e-9), 0.5e-9)
        gen = np.random.default_rng(7)
        delays = gen.uniform(0.0, 180e-9, 8)
        amps = gen.uniform(0.2, 1.0, 8) * np.exp(1j * gen.uniform(-np.pi, np.pi, 8))
        h = sum(a * steering_vector(freqs, d) for a, d in zip(amps, delays, strict=True))
        h = h + 0.1 * (gen.normal(size=len(freqs)) + 1j * gen.normal(size=len(freqs)))
        cfg = SparseSolverConfig(max_iterations=20000)

        gamma = 1.0 / op.lipschitz
        thr = gamma * cfg.alpha_rel * np.abs(op.adjoint @ h).max()
        p = np.zeros(len(op.taus_s), dtype=complex)
        y, t_k = p, 1.0
        supports = []
        for ref_iterations in range(1, cfg.max_iterations + 1):
            z = y - gamma * (op.adjoint @ (op.F @ y - h))
            mags = np.abs(z)
            p_next = np.where(mags > thr, z * (mags - thr) / np.maximum(mags, thr), 0)
            if ref_iterations % cfg.check_every == 0:
                supports.append(np.count_nonzero(p_next))
                step = p_next - p
                if np.vdot(step, step).real < (
                    cfg.tolerance_rel**2 * np.vdot(p_next, p_next).real
                ):
                    break
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            y = p_next + ((t_k - 1.0) / t_next) * (p_next - p)
            p, t_k = p_next, t_next
        assert ref_iterations < cfg.max_iterations  # converged, not capped
        assert min(supports) >= len(freqs)

        iterations = np.zeros(1, dtype=np.int64)
        out = invert_ndft_batch(
            h[None, :], freqs, op.taus_s, cfg, operator=op,
            iterations_out=iterations,
        )
        assert iterations[0] == ref_iterations
        assert np.abs(out[0] - p_next).max() <= 1e-9 * np.abs(p_next).max()

    def test_zero_link_row_stays_zero(self, rng):
        H = random_links(rng, 2)
        H[1] = 0.0
        grid = tau_grid(100e-9, 1e-9)
        batch = invert_ndft_batch(H, FREQS_5G, grid)
        assert np.all(batch[1] == 0)
        assert np.any(batch[0] != 0)

    def test_shape_validation(self):
        grid = tau_grid(100e-9, 1e-9)
        with pytest.raises(ValueError):
            invert_ndft_batch(np.ones(len(FREQS_5G)), FREQS_5G, grid)
        with pytest.raises(ValueError):
            invert_ndft_batch(np.ones((2, 5)), FREQS_5G, grid)


class TestBatchEngineAgreement:
    @pytest.mark.parametrize("method", ["ista", "hybrid"])
    def test_products_batch_matches_scalar(self, rng, method):
        config = TofEstimatorConfig(
            method=method,
            quirk_2g4=False,
            compute_profile=False,
            sparse=SparseSolverConfig(max_iterations=400),
        )
        H = random_links(rng, 6)
        scalar = TofEstimator(config)
        engine = BatchTofEngine(config)
        expected = [
            scalar.estimate_from_products(FREQS_5G, H[i], exponent=2).tof_s
            for i in range(len(H))
        ]
        got = engine.estimate_products_batch(FREQS_5G, H, exponent=2)
        for want, estimate in zip(expected, got):
            assert abs(estimate.tof_s - want) <= 1e-12

    def test_calibrations_applied_per_link(self, rng):
        config = TofEstimatorConfig(quirk_2g4=False, compute_profile=False)
        H = random_links(rng, 2)
        cals = [LinkCalibration(tof_bias_s=1e-9), LinkCalibration(tof_bias_s=3e-9)]
        engine = BatchTofEngine(config)
        got = engine.estimate_products_batch(FREQS_5G, H, calibrations=cals)
        for estimate, cal in zip(got, cals):
            assert estimate.tof_s == pytest.approx(
                estimate.raw_tof_s - cal.tof_bias_s, abs=1e-15
            )

    def test_calibration_count_mismatch_rejected(self, rng):
        engine = BatchTofEngine(TofEstimatorConfig(quirk_2g4=False))
        H = random_links(rng, 2)
        with pytest.raises(ValueError):
            engine.estimate_products_batch(
                FREQS_5G, H, calibrations=[LinkCalibration()]
            )

    def test_channel_shape_validation(self, rng):
        engine = BatchTofEngine(TofEstimatorConfig(quirk_2g4=False))
        with pytest.raises(ValueError):
            engine.estimate_products_batch(FREQS_5G, np.ones(len(FREQS_5G)))
        with pytest.raises(ValueError):
            engine.estimate_products_batch(FREQS_5G, np.ones((2, 5)))

    @pytest.mark.parametrize("method", ["ista", "hybrid"])
    @pytest.mark.parametrize("compute_profile", [True, False])
    @pytest.mark.parametrize(
        "plan", [US_BAND_PLAN.subset_5g(), US_BAND_PLAN], ids=["24", "35"]
    )
    def test_empty_products_batch_returns_empty(
        self, method, compute_profile, plan
    ):
        """No links, no estimates: the same as an empty sweeps call."""
        engine = BatchTofEngine(
            TofEstimatorConfig(method=method, compute_profile=compute_profile)
        )
        freqs = plan.center_frequencies_hz
        empty = np.zeros((0, len(freqs)), dtype=complex)
        assert engine.estimate_products_batch(freqs, empty) == []
        assert engine.estimate_sweeps_batch([]) == []

    def test_ista_matches_seed_reference(self):
        """64 links at the default ista settings: the engine stays within
        1e-9 s of the seed reference below and within 1e-12 s of the
        one-link API."""
        config = TofEstimatorConfig(method="ista", quirk_2g4=False)
        H = random_links(np.random.default_rng(42), 64)
        got = BatchTofEngine(config).estimate_products_batch(FREQS_5G, H, exponent=2)
        scalar = TofEstimator(config)
        for h, estimate in zip(H, got, strict=True):
            one_link = scalar.estimate_from_products(FREQS_5G, h, exponent=2)
            assert abs(estimate.tof_s - one_link.tof_s) <= 1e-12
            assert abs(estimate.tof_s - seed_scalar_tof(h, config)) <= 1e-9


# ----------------------------------------------------------------------
# Seed reference: the pre-batch per-call ista pipeline, kept so the
# engine's drift from it stays pinned.
# ----------------------------------------------------------------------
def _seed_soft_threshold(p, threshold):
    mags = np.abs(p)
    out = np.zeros_like(p)
    keep = (mags > threshold) & (mags > 1e-300)
    out[keep] = p[keep] * (mags[keep] - threshold) / mags[keep]
    return out


def _seed_invert_ndft(h, freqs, taus, cfg):
    F = ndft_matrix(freqs, taus)
    Fh = F.conj().T
    gamma = 1.0 / float(np.linalg.norm(F, 2) ** 2)
    alpha = cfg.alpha_rel * float(np.abs(Fh @ h).max())
    if alpha == 0.0:
        return np.zeros(len(taus), dtype=complex)
    p = np.zeros(len(taus), dtype=complex)
    momentum = p
    t_k = 1.0
    for _ in range(cfg.max_iterations):
        base = momentum if cfg.accelerated else p
        p_next = _seed_soft_threshold(
            base - gamma * (Fh @ (F @ base - h)), gamma * alpha
        )
        step = float(np.linalg.norm(p_next - p))
        scale = max(float(np.linalg.norm(p_next)), 1e-30)
        if cfg.accelerated:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            momentum = p_next + ((t_k - 1.0) / t_next) * (p_next - p)
            t_k = t_next
        p = p_next
        if step < cfg.tolerance_rel * scale:
            break
    return p


def seed_scalar_tof(h, config):
    """One 5 GHz link's ista ToF through the seed reference."""
    window = capped_window_s(FREQS_5G, config.max_profile_delay_s)
    grid = tau_grid(window, config.grid_step_s)
    solution = _seed_invert_ndft(h, FREQS_5G, grid, config.sparse)
    profile = MultipathProfile(
        grid, solution, dominance_threshold_rel=config.peak_threshold_rel
    )
    return refine_first_peak(profile, h, FREQS_5G) / 2.0


def scaled_row(scale):
    return scale * steering_vector(FREQS_5G, 60e-9)


def with_entry(value):
    row = steering_vector(FREQS_5G, 60e-9)
    row[3] = value
    return row


@pytest.fixture
def no_kernels(monkeypatch):
    """Fail the test if an engine call reaches extraction or FISTA."""

    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran on an unsolvable stack")

    monkeypatch.setattr(batch_module, "extract_paths_batch", kernel)
    monkeypatch.setattr(batch_module, "invert_ndft_batch", kernel)


class TestUnsolvableRows:
    @pytest.mark.parametrize(
        ("row", "reason"),
        [
            (np.zeros(len(FREQS_5G), dtype=complex), "no signal power"),
            (with_entry(np.nan), "non-finite"),
            (with_entry(np.inf), "non-finite"),
            (with_entry(complex(0.0, -np.inf)), "non-finite"),
            # The squares underflow: no power to any solver.
            (scaled_row(1e-300), "no signal power"),
            (scaled_row(1e-150), None),
            (with_entry(0.0), None),
            (steering_vector(FREQS_5G, 60e-9), None),
        ],
    )
    def test_reason(self, row, reason):
        got = unsolvable_reason(row)
        if reason is None:
            assert got is None
        else:
            assert reason in got

    @pytest.mark.parametrize("method", ["ista", "hybrid"])
    def test_engine_names_rows_before_any_kernel(self, rng, method, no_kernels):
        """Unsolvable rows fail at the engine boundary with their index
        and reason, before extraction or FISTA touch the stack."""
        engine = BatchTofEngine(
            TofEstimatorConfig(method=method, quirk_2g4=False, compute_profile=False)
        )
        H = random_links(rng, 4)
        H[1] = 0.0
        H[3, 5] = np.inf
        with pytest.raises(
            ValueError,
            match=r"2 of 4 rows .*row 1: no signal power.*row 3: non-finite",
        ):
            engine.estimate_products_batch(FREQS_5G, H)


class TestHybridBatchEquivalence:
    """The hybrid (deflation) method: a stack against each link alone.

    The scalar :class:`TofEstimator` call is the engine's one-link
    batch, so these pin that a link's answer does not depend on the
    links stacked with it: 1e-12 s per link and identical extracted
    path counts over band subsets, NLOS-ish multipath, gated/ungated
    links, and the degenerate single-path case.
    """

    CONFIG = TofEstimatorConfig(
        method="hybrid",
        quirk_2g4=False,
        compute_profile=False,
        sparse=SparseSolverConfig(max_iterations=400),
    )

    def assert_engine_matches_scalar(self, freqs, H, config=None):
        config = config or self.CONFIG
        scalar = TofEstimator(config)
        engine = BatchTofEngine(config)
        expected = [
            scalar.estimate_from_products(freqs, H[i], exponent=2).tof_s
            for i in range(len(H))
        ]
        got = engine.estimate_products_batch(freqs, H, exponent=2)
        for want, estimate in zip(expected, got):
            assert abs(estimate.tof_s - want) <= 1e-12

    @pytest.mark.parametrize("decimate", [1, 2, 3])
    def test_band_subsets(self, rng, decimate):
        freqs = FREQS_5G[::decimate]
        rows = []
        for _ in range(4):
            taus = np.sort(rng.uniform(5e-9, 90e-9, 3))
            amps = rng.uniform(0.3, 1.0, 3) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, 3)
            )
            h = sum(a * steering_vector(freqs, 2 * t) for a, t in zip(amps, taus))
            h += 0.02 * (
                rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
            )
            rows.append(h)
        self.assert_engine_matches_scalar(freqs, np.vstack(rows))

    def test_nlos_heavy_multipath(self, rng):
        """Dense clustered paths with no dominant direct component."""
        rows = []
        for _ in range(5):
            n_paths = int(rng.integers(4, 8))
            taus = np.sort(rng.uniform(20e-9, 80e-9, n_paths))
            amps = rng.uniform(0.3, 1.0, n_paths) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, n_paths)
            )
            h = sum(
                a * steering_vector(FREQS_5G, 2 * t) for a, t in zip(amps, taus)
            )
            h += 0.05 * (
                rng.normal(size=len(FREQS_5G))
                + 1j * rng.normal(size=len(FREQS_5G))
            )
            rows.append(h)
        self.assert_engine_matches_scalar(FREQS_5G, np.vstack(rows))

    def test_single_path_links(self):
        H = np.vstack(
            [
                steering_vector(FREQS_5G, 2 * tau)
                for tau in (12.3e-9, 47.9e-9, 88.1e-9)
            ]
        )
        self.assert_engine_matches_scalar(FREQS_5G, H)

    @pytest.mark.parametrize("gated", [False, True])
    def test_gated_and_ungated_links(self, rng, gated):
        """Coarse gates flow through the batched prune/first-path stages."""
        engine = BatchTofEngine(self.CONFIG)
        rows, gates = [], []
        for i in range(3):
            tau2 = 2 * (20e-9 + 11e-9 * i)
            h = steering_vector(FREQS_5G, tau2) + 0.5 * steering_vector(
                FREQS_5G, tau2 + 30e-9
            )
            h += 0.02 * (
                rng.normal(size=len(FREQS_5G))
                + 1j * rng.normal(size=len(FREQS_5G))
            )
            rows.append(h)
            gates.append(tau2 - 10e-9 if gated else None)
        H = np.vstack(rows)
        expected = [
            engine._estimate_group_stack(
                "direct", FREQS_5G, H[i : i + 1], 2, [gates[i]], []
            )[0].tof_s
            for i in range(len(H))
        ]
        got = engine._estimate_group_stack("direct", FREQS_5G, H, 2, gates, [])
        for want, group in zip(expected, got):
            assert abs(group.tof_s - want) <= 1e-12

    def test_soft_tier_below_gate_matches_scalar(self, rng):
        """A strong direct path just below the coarse gate is admitted
        through the soft tier — alone and stacked with an ungated link
        (drift here would show up as a tens-of-ns split)."""
        engine = BatchTofEngine(self.CONFIG)
        tau2 = 60e-9  # 2τ domain
        h = steering_vector(FREQS_5G, tau2) + 0.45 * steering_vector(
            FREQS_5G, tau2 + 45e-9
        )
        h += 0.01 * (
            rng.normal(size=len(FREQS_5G)) + 1j * rng.normal(size=len(FREQS_5G))
        )
        H = np.vstack([h, random_links(rng, 1)[0]])
        gate = tau2 + 8e-9  # the direct path sits below the gate...
        want = engine._estimate_group_stack(
            "direct", FREQS_5G, H[:1], 2, [gate], []
        )[0]
        got = engine._estimate_group_stack(
            "direct", FREQS_5G, H, 2, [gate, None], []
        )[0]
        assert abs(got.tof_s - want.tof_s) <= 1e-12
        # ...and the soft tier really fired: the sub-gate path won.
        assert got.tof_s == pytest.approx(tau2 / 2, abs=0.5e-9)

    def test_mixed_aperture_refit_matches_scalar(self, rng):
        """Quirk-free 2.4+5 GHz plan: the coarse mask is partial, so the
        full-aperture refit (the lockstep bracket machinery) runs, on
        the stack and on each link alone."""
        freqs = US_BAND_PLAN.center_frequencies_hz
        rows = []
        for _ in range(5):
            taus = np.sort(rng.uniform(5e-9, 90e-9, 3))
            amps = rng.uniform(0.3, 1.0, 3) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, 3)
            )
            h = sum(a * steering_vector(freqs, 2 * t) for a, t in zip(amps, taus))
            h += 0.02 * (
                rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
            )
            rows.append(h)
        self.assert_engine_matches_scalar(freqs, np.vstack(rows))

    def test_refit_batch_paths_match_scalar_refit(self, rng):
        """Path-level pin: the stacked refit returns the same delays and
        amplitudes as a one-row refit of each link."""
        from repro.core.deflation_batch import (
            extract_paths_batch,
            full_aperture_refit_batch,
        )

        freqs = US_BAND_PLAN.center_frequencies_hz
        estimator = TofEstimator(self.CONFIG)
        coarse_mask = estimator._coarse_mask(freqs)
        assert not coarse_mask.all()  # the refit path is actually live
        coarse_freqs = freqs[coarse_mask]
        window = capped_window_s(coarse_freqs, self.CONFIG.max_profile_delay_s)
        rows = []
        for k in range(4):
            taus = np.sort(rng.uniform(5e-9, 80e-9, 2 + k % 3))
            h = sum(
                a * steering_vector(freqs, 2 * t)
                for a, t in zip(rng.uniform(0.4, 1.0, len(taus)), taus)
            )
            h += 0.02 * (
                rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
            )
            rows.append(h)
        H = np.vstack(rows)
        paths_per_link = extract_paths_batch(
            H[:, coarse_mask], coarse_freqs, window, self.CONFIG.deflation
        )
        alpha = self.CONFIG.deflation.final_alpha_rel
        want = [
            full_aperture_refit_batch(
                [paths], freqs, H[i : i + 1], alpha, max_delay_s=window
            )[0]
            for i, paths in enumerate(paths_per_link)
        ]
        got = full_aperture_refit_batch(
            paths_per_link, freqs, H, alpha, max_delay_s=window
        )
        for want_paths, got_paths in zip(want, got):
            assert len(got_paths) == len(want_paths)
            for w, g in zip(want_paths, got_paths):
                assert abs(g.delay_s - w.delay_s) <= 1e-12
                assert abs(g.amplitude - w.amplitude) <= 1e-9

    def test_refit_batch_passes_empty_path_lists_through(self):
        from repro.core.deflation_batch import full_aperture_refit_batch

        H = np.zeros((2, len(FREQS_5G)), dtype=complex)
        got = full_aperture_refit_batch([[], []], FREQS_5G, H, 0.1)
        assert got == [[], []]

    def test_identical_path_counts_via_rasterized_profile(self, rng):
        """With compute_profile=False the reported profile is rasterized
        from the extracted paths — identical peak counts mean identical
        surviving path sets on both paths."""
        rows = []
        for _ in range(4):
            taus = np.sort(rng.uniform(5e-9, 90e-9, 4))
            amps = rng.uniform(0.3, 1.0, 4) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, 4)
            )
            h = sum(a * steering_vector(FREQS_5G, 2 * t) for a, t in zip(amps, taus))
            h += 0.03 * (
                rng.normal(size=len(FREQS_5G))
                + 1j * rng.normal(size=len(FREQS_5G))
            )
            rows.append(h)
        H = np.vstack(rows)
        scalar = TofEstimator(self.CONFIG)
        engine = BatchTofEngine(self.CONFIG)
        got = engine.estimate_products_batch(FREQS_5G, H, exponent=2)
        for i, estimate in enumerate(got):
            want = scalar.estimate_from_products(FREQS_5G, H[i], exponent=2)
            assert (
                estimate.profile.dominant_peak_count()
                == want.profile.dominant_peak_count()
            )


def intel_link(rng, plan, distance_m=3.0):
    """A free-space link between two Intel 5300-class radios."""
    return SimulatedLink(
        environment=free_space(),
        tx_position=Point(0.0, 0.0),
        rx_position=Point(distance_m, 0.0),
        tx_state=INTEL_5300.sample_device_state(rng),
        rx_state=INTEL_5300.sample_device_state(rng),
        band_plan=plan,
        rng=rng,
    )


def dead_sweep(rng, plan):
    """A dead radio's sweep: every CSI value zero."""
    sweep = intel_link(rng, plan).sweep(2)
    for m in sweep:
        m.forward.csi[:] = 0.0
        m.reverse.csi[:] = 0.0
    return sweep


def one_band_sweep(rng, plan):
    """A sweep that reached a single band: no band group to solve."""
    return CsiSweep([intel_link(rng, plan).sweep(2)[0]])


def non_finite_sweep(rng, plan):
    """A sweep with one NaN CSI value."""
    sweep = intel_link(rng, plan).sweep(2)
    sweep[3].reverse.csi[5] = np.nan
    return sweep


# Both band groups of the Intel 5300 quirk: 6 bands at 2.4 GHz, 12 at 5.
MIXED_PLAN = US_BAND_PLAN.decimate(2)


@pytest.fixture
def l1_solves(monkeypatch):
    """Every ``invert_ndft_batch`` call the engine makes, as
    ``(frequencies, returned profiles)``."""
    calls = []
    solve = batch_module.invert_ndft_batch

    def counting(channels, frequencies_hz, *args, **kwargs):
        solutions = solve(channels, frequencies_hz, *args, **kwargs)
        calls.append((np.asarray(frequencies_hz), solutions))
        return solutions

    monkeypatch.setattr(batch_module, "invert_ndft_batch", counting)
    return calls


class TestSweepsBatch:
    def test_matches_estimate_many(self, rng, small_plan, fast_config):
        sweeps_per_link = [
            [intel_link(rng, small_plan, 2.0 + i).sweep(2)] for i in range(3)
        ]
        cals = [
            LinkCalibration(tof_bias_s=1e-9, coarse_bias_s=350e-9)
            for _ in sweeps_per_link
        ]
        expected = [
            TofEstimator(fast_config, cal).estimate_many(sweeps)
            for cal, sweeps in zip(cals, sweeps_per_link)
        ]
        got = BatchTofEngine(fast_config).estimate_sweeps_batch(
            sweeps_per_link, cals
        )
        for want, estimate in zip(expected, got):
            assert abs(estimate.tof_s - want.tof_s) <= 1e-12
            assert estimate.coarse_round_trip_s == want.coarse_round_trip_s
            assert [g.name for g in estimate.groups] == [
                g.name for g in want.groups
            ]

    def test_empty_sweep_list_rejected(self, fast_config):
        engine = BatchTofEngine(fast_config)
        with pytest.raises(ValueError):
            engine.estimate_sweeps_batch([[]])

    @pytest.mark.parametrize(
        ("bad_sweep", "named"),
        [
            (dead_sweep, r"1 of 2 band-group rows .*link 1 \(5g group\): no signal power"),
            (one_band_sweep, r"1 of 2 band-group rows .*link 1: no usable band group"),
            (non_finite_sweep, r"1 of 2 band-group rows .*link 1: non-finite CSI on band"),
        ],
        ids=["all-zero", "one-band", "non-finite"],
    )
    @pytest.mark.parametrize("method", ["ista", "hybrid"])
    def test_dead_sweep_named_before_any_kernel(
        self, rng, small_plan, method, bad_sweep, named, no_kernels
    ):
        """A sweep no kernel can solve, stacked after a good one, fails
        the call at the engine boundary, naming the link (and its band
        group, when one is at fault) and the reason, before the front
        end's rows reach extraction or FISTA.  ``reasons`` names only
        that link."""
        engine = BatchTofEngine(
            TofEstimatorConfig(method=method, compute_profile=False)
        )
        good = intel_link(rng, small_plan).sweep(2)
        with pytest.raises(UnsolvableLinks, match=named) as caught:
            engine.estimate_sweeps_batch([[good], [bad_sweep(rng, small_plan)]])
        assert list(caught.value.reasons) == [1]

    def test_hybrid_solves_the_l1_profile_of_primary_groups_only(
        self, rng, l1_solves
    ):
        """Under the default (quirk) config, only each link's 5 GHz
        group, the one ``TofEstimate.profile`` returns, gets an L1
        solve; the 2.4 GHz group's profile is a raster of its paths on
        the grid its L1 solve would use, and no ToF moves."""
        config = TofEstimatorConfig()
        sweeps_per_link = [
            [intel_link(rng, MIXED_PLAN, 2.0 + i).sweep(2)] for i in range(2)
        ]
        got = BatchTofEngine(config).estimate_sweeps_batch(sweeps_per_link)

        ((l1_freqs, solutions),) = l1_solves
        assert len(solutions) == 2
        np.testing.assert_array_equal(
            l1_freqs, MIXED_PLAN.subset_5g().center_frequencies_hz
        )
        low_freqs = MIXED_PLAN.subset_2g4().center_frequencies_hz
        window = capped_window_s(low_freqs, config.max_profile_delay_s)
        low_grid = get_grid_operator(low_freqs, window, config.grid_step_s).taus_s
        for estimate, solution in zip(got, solutions):
            assert [g.name for g in estimate.groups] == ["5g", "2g4"]
            np.testing.assert_array_equal(estimate.profile.amplitudes, solution)
            low = estimate.groups[1]
            np.testing.assert_array_equal(low.profile.taus_s, low_grid)
            assert np.count_nonzero(low.profile.amplitudes) <= len(low.paths)

        unprofiled = BatchTofEngine(
            TofEstimatorConfig(compute_profile=False)
        ).estimate_sweeps_batch(sweeps_per_link)
        assert [e.tof_s for e in got] == [e.tof_s for e in unprofiled]
        assert [[g.tof_s for g in e.groups] for e in got] == [
            [g.tof_s for g in e.groups] for e in unprofiled
        ]

    def test_a_lone_2g4_group_is_primary(self, rng, l1_solves):
        """A link whose sweep reaches only 2.4 GHz bands still gets the
        L1 profile of its one group."""
        plan = US_BAND_PLAN.subset_2g4()
        (estimate,) = BatchTofEngine(TofEstimatorConfig()).estimate_sweeps_batch(
            [[intel_link(rng, plan).sweep(2)]]
        )
        ((l1_freqs, (solution,)),) = l1_solves
        np.testing.assert_array_equal(l1_freqs, plan.center_frequencies_hz)
        assert [g.name for g in estimate.groups] == ["2g4"]
        np.testing.assert_array_equal(estimate.profile.amplitudes, solution)

    def test_ista_solves_every_group(self, rng, l1_solves):
        """The ista method's ToF reads every group's profile, so it
        solves all four (link, group) rows."""
        BatchTofEngine(TofEstimatorConfig(method="ista")).estimate_sweeps_batch(
            [[intel_link(rng, MIXED_PLAN, 2.0 + i).sweep(2)] for i in range(2)]
        )
        assert sorted(len(solutions) for _, solutions in l1_solves) == [2, 2]

    def test_one_link_api_names_dead_sweep(self, rng, small_plan, fast_config):
        with pytest.raises(
            ValueError, match=r"link 0 \(all group\): no signal power"
        ):
            TofEstimator(fast_config).estimate_many([dead_sweep(rng, small_plan)])
