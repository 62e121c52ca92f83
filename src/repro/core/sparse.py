"""Algorithm 1 of the paper: sparse inversion of the non-uniform DFT.

The inverse-NDFT problem is under-determined (n ≈ 35 measurements,
m ≈ hundreds of candidate delays).  The paper regularizes it with an L1
penalty (Eqn. 10), which we write in the standard LASSO scaling:

    min_p  ½ || h - F p ||_2^2  +  alpha * || p ||_1

so ``alpha`` here is half the paper's weight (same minimizer).  The
solver is a proximal-gradient iteration whose proximal operator is
complex soft-thresholding — the paper's SPARSIFY function — with the
paper's step size ``gamma = 1 / ||F||^2`` and its
``||p_{t+1} - p_t|| < eps`` stop rule.  Plain ISTA is available; the
default adds FISTA momentum (same fixed point, far fewer iterations)
with per-link gradient-scheme adaptive restart (O'Donoghue & Candès,
2015), tested on the stop rule's cadence for links whose support is
smaller than the band count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.ndft import NdftOperator, get_operator, ndft_matrix
from repro.core.typing import (
    BoolMask,
    ComplexCSI,
    ComplexCSIStack,
    ComplexProfile,
    ComplexProfileStack,
    DelayVector,
    FloatVector,
    FrequencyVector,
    IndexVector,
)


@dataclass(frozen=True)
class SparseSolverConfig:
    """Tuning knobs for Algorithm 1.

    Attributes:
        alpha_rel: Sparsity weight as a fraction of ``||Fᴴh||_inf`` (the
            smallest alpha that zeroes everything is exactly that norm,
            so a relative scale is the standard LASSO convention).
        max_iterations: Hard iteration cap.
        tolerance_rel: Stop when the iterate moves less than this fraction
            of its own norm (the paper's epsilon, made scale-free).
        accelerated: Use FISTA momentum with per-link adaptive
            restart (same solution as plain ISTA, far fewer
            iterations).  A link restarts its momentum when the last
            step went uphill, ``Re⟨y - p_next, p_next - p⟩ > 0``, but
            only while its support is smaller than the band count;
            a link with a wider support runs plain FISTA.
        check_every: Iterations between convergence tests, which are
            also the only iterations that test for a restart.  Testing
            is a few full reductions per active link, a measurable
            share of an iteration's cost; checking every few iterations
            trades at most ``check_every - 1`` extra (convergent)
            iterations per link for that overhead.  Applies identically
            to the scalar and batched solvers, which share the kernel.
    """

    alpha_rel: float = 0.08
    max_iterations: int = 2000
    tolerance_rel: float = 1e-5
    accelerated: bool = True
    check_every: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_rel < 1.0:
            raise ValueError(f"alpha_rel must be in (0, 1), got {self.alpha_rel}")
        if self.max_iterations < 1:
            raise ValueError(f"need at least one iteration, got {self.max_iterations}")
        if self.tolerance_rel <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance_rel}")
        if self.check_every < 1:
            raise ValueError(
                f"check_every must be at least 1, got {self.check_every}"
            )


def soft_threshold(
    p: ComplexProfile | Sequence[complex], threshold: float
) -> ComplexProfile:
    """The paper's SPARSIFY: complex soft-thresholding.

    Entries with magnitude below ``threshold`` become zero; the rest
    shrink toward zero by ``threshold`` while keeping their phase:

        p_i -> p_i * (|p_i| - t) / |p_i|     if |p_i| > t, else 0
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    p = np.asarray(p, dtype=complex)
    mags = np.abs(p)
    out = np.zeros_like(p)
    # The subnormal floor guards the division below: entries that small
    # are zero for every practical purpose and would otherwise produce
    # nan/inf through underflowing arithmetic.
    keep = (mags > threshold) & (mags > 1e-300)
    out[keep] = p[keep] * (mags[keep] - threshold) / mags[keep]
    return out


def invert_ndft(
    channels: ComplexCSI | Sequence[complex],
    frequencies_hz: FrequencyVector | Sequence[float],
    taus_s: DelayVector | Sequence[float],
    config: SparseSolverConfig | None = None,
    operator: NdftOperator | None = None,
) -> ComplexProfile:
    """Solve ``min ½||h - F p||² + α||p||₁`` for the delay profile ``p``.

    The scalar entry point is the ``N = 1`` case of
    :func:`invert_ndft_batch`; the Fourier matrix and its Lipschitz
    constant come from the process-wide operator cache, so repeated
    calls on the same band plan and grid never rebuild them.

    Args:
        channels: Measured (zero-subcarrier) channels, one per frequency.
        frequencies_hz: The non-uniform measurement frequencies.
        taus_s: Candidate-delay grid (see :func:`repro.core.ndft.tau_grid`).
        config: Solver settings; defaults are tuned for the 35-band plan.
        operator: Precomputed operator for (frequencies, taus); fetched
            from the cache when omitted.

    Returns:
        Complex profile ``p`` over ``taus_s``; its magnitude is the
        multipath profile of the paper's Fig. 4.
    """
    h = np.asarray(channels, dtype=complex)
    freqs = np.asarray(frequencies_hz, dtype=float)
    if h.shape != freqs.shape:
        raise ValueError(
            f"channels shape {h.shape} does not match frequencies {freqs.shape}"
        )
    return invert_ndft_batch(h[None, :], freqs, taus_s, config, operator)[0]


def invert_ndft_batch(
    channels: ComplexCSIStack | Sequence[Sequence[complex]],
    frequencies_hz: FrequencyVector | Sequence[float],
    taus_s: DelayVector | Sequence[float],
    config: SparseSolverConfig | None = None,
    operator: NdftOperator | None = None,
    iterations_out: IndexVector | None = None,
) -> ComplexProfileStack:
    """Algorithm 1 for a stack of links sharing one frequency set.

    Solves ``min ½||h_i - F p_i||² + α_i ||p_i||₁`` for every row
    ``h_i`` of ``channels`` in one vectorized FISTA run: the
    per-iteration matrix products become single GEMMs over all
    still-active links, which is where the batched engine's throughput
    comes from.

    Per-link semantics match the scalar solver exactly: each link gets
    its own ``α_i`` (relative to its ``||Fᴴh_i||_inf``), its own stop
    test and its own momentum age, which a restart resets (see
    :class:`SparseSolverConfig`).  A link that converges is *frozen* at
    that iterate while the rest keep iterating — the same trajectory
    the scalar loop would have produced for it, just computed in
    lockstep.

    Args:
        channels: ``(n_links, n_frequencies)`` stacked measurements.
        frequencies_hz: The shared non-uniform measurement frequencies.
        taus_s: Candidate-delay grid shared by every link.
        config: Solver settings (shared).
        operator: Precomputed operator; fetched from the cache if None.
        iterations_out: Optional int array of length ``n_links``;
            filled with the iteration at which each link froze (0 for
            links whose threshold ``γα_i`` is zero, such as an all-zero
            channel; those get the zero profile).

    Returns:
        ``(n_links, len(taus_s))`` complex profiles, row ``i`` for link ``i``.
    """
    cfg = config or SparseSolverConfig()
    H_rows = np.asarray(channels, dtype=complex)
    freqs = np.asarray(frequencies_hz, dtype=float)
    taus = np.asarray(taus_s, dtype=float)
    if H_rows.ndim != 2:
        raise ValueError(f"channels must be 2-D (n_links, n_freqs), got {H_rows.shape}")
    if freqs.ndim != 1 or H_rows.shape[1] != len(freqs):
        raise ValueError(
            f"channels shape {H_rows.shape} does not match frequencies "
            f"{freqs.shape}"
        )
    if H_rows.shape[1] < 2:
        raise ValueError("need at least 2 frequency measurements")
    op = operator if operator is not None else get_operator(freqs, taus)
    # Value check, not just shape: an operator built for a different
    # band plan with the same dimensions would silently produce a
    # wrong profile.  Two small comparisons, noise next to the GEMMs.
    if not (
        np.array_equal(op.frequencies_hz, freqs)
        and np.array_equal(op.taus_s, taus)
    ):
        raise ValueError(
            "operator was built for different frequencies or delay grid"
        )
    F = op.F
    # Step size: gamma = 1 / ||F||^2 (largest singular value squared), as
    # in Algorithm 1: the Lipschitz constant of the smooth term's
    # gradient Fᴴ(Fp - h).  Links are rows here, so the gradient step
    # of a row p is p - γ (p Fᵀ - h) F̄; folding -γ into F̄ once per call
    # makes it one GEMM and one add.
    gamma = 1.0 / op.lipschitz
    F_conj = F.conj()
    step_adjoint = F_conj * -gamma

    n_links = H_rows.shape[0]
    n_bands = len(freqs)
    m = len(taus)
    if iterations_out is not None:
        if len(iterations_out) != n_links:
            raise ValueError(
                f"iterations_out length {len(iterations_out)} does not "
                f"match {n_links} links"
            )
        iterations_out[:] = 0
    out = np.zeros((n_links, m), dtype=complex)
    correlation = np.abs(H_rows @ F_conj)  # (N, m): |Fᴴh| per link
    thresholds = gamma * (cfg.alpha_rel * correlation.max(axis=1))
    # A link whose threshold γα is zero (an all-zero channel, or one so
    # small that γα underflows) stays inactive and returns the zero
    # profile: its shrink factor thr / max(|z|, thr) would be 0/0.
    active = np.flatnonzero(thresholds > 0.0)
    if active.size == 0:
        return out

    H_a = np.ascontiguousarray(H_rows[active])
    thr = thresholds[active, None]
    tol2 = cfg.tolerance_rel**2
    n_active = active.size
    P = np.zeros((n_active, m), dtype=complex)
    # Per-link FISTA state: the extrapolated point y (plain ISTA steps
    # from P instead) and the momentum age indexing the shared weight
    # table.  A link that never restarts has age ``iteration - 1``: the
    # plain FISTA sequence.
    Y = P.copy()
    age = np.zeros(n_active, dtype=np.intp)
    weights = _momentum_weights(cfg.max_iterations)
    # Scratch buffers (re-sliced when converged links are retired):
    # every per-iteration op below writes into one of these, so the hot
    # loop allocates nothing per iteration but small per-link vectors.
    residual = np.empty((n_active, n_bands), dtype=complex)
    Z = np.empty((n_active, m), dtype=complex)
    diff = np.empty((n_active, m), dtype=complex)
    shrink = np.empty((n_active, m))
    for iteration in range(1, cfg.max_iterations + 1):
        base = Y if cfg.accelerated else P
        np.dot(base, F.T, out=residual)
        np.subtract(residual, H_a, out=residual)
        np.dot(residual, step_adjoint, out=Z)
        np.add(Z, base, out=Z)
        _soft_threshold_rows(Z, thr, shrink)  # Z is now p_next
        np.subtract(Z, P, out=diff)
        check = iteration % cfg.check_every == 0 or iteration == cfg.max_iterations
        done: BoolMask | None = None
        if check:
            # The scalar stop rule ``||Δp|| < tol·||p||`` compared in
            # squares (one fused reduction per link, no square roots).
            step2 = _row_dots(diff, diff)
            scale2 = np.maximum(_row_dots(Z, Z), 1e-60)
            done = step2 < tol2 * scale2
            if cfg.accelerated:
                _restart_rows(Y, Z, diff, age, n_bands)
        if cfg.accelerated:
            np.multiply(diff, weights[age][:, None], out=diff)
            np.add(Z, diff, out=Y)
            age += 1
        P, Z = Z, P  # the old iterate's buffer is the next step's scratch
        if done is None:
            continue
        if done.any():
            out[active[done]] = P[done]
            if iterations_out is not None:
                iterations_out[active[done]] = iteration
            keep = ~done
            active = active[keep]
            if active.size == 0:
                return out
            P = P[keep]
            Y = Y[keep]
            H_a = H_a[keep]
            thr = thr[keep]
            age = age[keep]
            residual = np.empty((active.size, n_bands), dtype=complex)
            Z = np.empty((active.size, m), dtype=complex)
            diff = np.empty((active.size, m), dtype=complex)
            shrink = np.empty((active.size, m))
    out[active] = P
    if iterations_out is not None:
        iterations_out[active] = cfg.max_iterations
    return out


@functools.lru_cache(maxsize=8)
def _momentum_weights(n: int) -> FloatVector:
    """FISTA's momentum weights ``(t_a - 1) / t_{a+1}`` for ages ``0..n-1``.

    ``t_0 = 1`` and ``t_{a+1} = (1 + sqrt(1 + 4 t_a²)) / 2``, evaluated
    in exactly the scalar recurrence's order, so a link whose age
    equals ``iteration - 1`` gets the plain FISTA weights bit for bit.
    Age 0 gives weight 0: a restart's first step carries no momentum.
    """
    weights = np.empty(n)
    t_k = 1.0
    for age in range(n):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
        weights[age] = (t_k - 1.0) / t_next
        t_k = t_next
    weights.setflags(write=False)
    return weights


def _row_dots(a: np.ndarray, b: np.ndarray) -> FloatVector:
    """Per-row ``Re⟨a_i, b_i⟩`` of two C-contiguous complex blocks.

    Reduces the interleaved real views, so the real part of the inner
    product costs one fused real reduction and no conjugate copy.
    """
    return np.einsum("ij,ij->i", a.view(np.float64), b.view(np.float64))


def _restart_rows(
    Y: np.ndarray,
    P_next: np.ndarray,
    diff: np.ndarray,
    age: np.ndarray,
    n_bands: int,
) -> None:
    """Gradient-scheme adaptive restart, one decision per link (row).

    O'Donoghue & Candès (2015): momentum that carries the iterate
    uphill, ``Re⟨y - p_next, p_next - p⟩ > 0``, is dropped by resetting
    the link's age to 0.  Only links whose support (the nonzeros of
    ``p_next``) is smaller than the band count may restart: there the
    LASSO restricted to the support is strongly convex and restarted
    FISTA converges linearly.  The 11-band 2.4 GHz group's profiles
    carry a few dozen atoms, and there ungated restarts made the
    step-size stop rule fire farther from the optimum.

    Overwrites ``Y`` (it is rebuilt from ``p_next`` right after) and
    updates ``age`` in place.
    """
    gated = np.count_nonzero(P_next, axis=1) < n_bands
    if not gated.any():
        return
    np.subtract(Y, P_next, out=Y)
    age[gated & (_row_dots(Y, diff) > 0.0)] = 0


def _soft_threshold_rows(
    Z: np.ndarray, thresholds: np.ndarray, shrink: np.ndarray
) -> None:
    """Row-wise complex soft-thresholding of ``Z`` in place.

    Same shrinkage map as :func:`soft_threshold` (``thresholds[i, 0]``
    for row ``i``), written as the factor ``1 - t / max(|z|, t)``: it is
    0 at or below the threshold and ``(|z| - t) / |z|`` above it, with
    no data-dependent branch.  Every threshold must be positive (the
    caller keeps zero-threshold links out), so the division never sees
    0/0.  ``shrink`` is a real scratch block shaped like ``Z``.
    """
    # np.abs rather than sqrt(re² + im²): on numpy 2.4 over a 64 x 399
    # complex block it is about 3x faster than forming re² + im² and
    # taking the square root (about 45 µs against 150 µs).
    np.abs(Z, out=shrink)
    np.maximum(shrink, thresholds, out=shrink)
    np.divide(thresholds, shrink, out=shrink)
    np.subtract(1.0, shrink, out=shrink)
    np.multiply(Z, shrink, out=Z)


def lasso_objective(
    p: ComplexProfile | Sequence[complex],
    channels: ComplexCSI | Sequence[complex],
    frequencies_hz: FrequencyVector | Sequence[float],
    taus_s: DelayVector | Sequence[float],
    alpha: float,
) -> float:
    """The objective the solver minimizes, ``½||h - F p||² + α||p||₁``.

    This is Eqn. 10 in the LASSO scaling of the module docstring, with
    ``alpha`` half the paper's weight; pass the same ``α`` the solver
    uses (``alpha_rel · ||Fᴴh||_inf``).  Used by convergence tests.
    """
    F = ndft_matrix(np.asarray(frequencies_hz, float), np.asarray(taus_s, float))
    residual = np.asarray(channels, complex) - F @ np.asarray(p, complex)
    return float(
        0.5 * np.sum(np.abs(residual) ** 2) + alpha * np.sum(np.abs(p))
    )
