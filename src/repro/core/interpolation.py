"""Recovering the zero-subcarrier channel by interpolation (§5).

Wi-Fi never transmits on subcarrier 0 (it collides with DC offsets), yet
§5 shows that subcarrier 0 is the *only* place where the measured channel
is free of packet-detection delay.  The paper's fix: the channel is a
physically continuous function of frequency, so interpolate the 30
measured subcarriers to estimate it at 0 (the paper uses a cubic spline).

Naive phase interpolation is fragile: the detection delay itself imposes
a steep phase ramp across subcarriers (≈0.7 rad per reported-subcarrier
gap for a 180 ns delay), and the Intel 5300 grid has gaps of 2
subcarriers — one more doubling (e.g. the 4th-power quirk workaround)
would alias a naive unwrap.  We therefore:

1. estimate the bulk phase slope robustly (gap-1 subcarrier pairs anchor
   the coarse slope; gap-2 pairs refine it),
2. de-rotate the CSI by that slope (the value at subcarrier 0 is
   untouched — the de-rotation is exp(-j·slope·k), identity at k=0),
3. cubic-spline the now slowly-varying complex CSI (real and imaginary
   parts), and evaluate at subcarrier 0.  The not-a-knot spline is
   linear in its data, so for a fixed subcarrier layout its value at 0
   is a fixed linear functional ``detrended @ w`` of the detrended CSI;
   the weights ``w`` come from one numpy solve of the not-a-knot slope
   system that ``CubicSpline`` solves, once per layout, and are cached.

Step 3 on the de-trended *complex* values is numerically equivalent to
the paper's magnitude/phase spline but immune to phase-wrap artifacts at
deep fades.

The front end is batch-first, like the engine below it: a sweep's
(band, packet, direction) CSI is one stacked ``(m, k)`` array, rows
first, and steps 1–3 run once over the whole stack.  The scalar helpers
are its ``m = 1`` case.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from repro.core.typing import ComplexCSI, ComplexCSIStack, FloatVector
from repro.wifi.csi import BandCsi, LinkCsi
from repro.wifi.ofdm import SUBCARRIER_SPACING_HZ

# phase(k) = -2*pi*(k*spacing)*delay  =>  delay = -slope/(2*pi*spacing)
_RAD_PER_INDEX_PER_S = 2.0 * math.pi * SUBCARRIER_SPACING_HZ


def phase_slope_per_index(
    csi: ComplexCSI | ComplexCSIStack, indices: FloatVector
) -> float | FloatVector:
    """Robust bulk phase slope (radians per subcarrier index).

    The slope encodes the total group delay (propagation + detection +
    chain).  Adjacent-pair phase differences alias at ±π per index gap;
    gap-1 pairs therefore tolerate the largest delays and are used as
    the coarse anchor, after which wider-gap pairs (which are more
    numerous, hence less noisy) refine the estimate around it.

    ``csi`` is one packet's ``(k,)`` CSI, giving a float, or ``(m, k)``
    rows, giving ``(m,)`` slopes; a 1-D call is the ``m = 1`` case.  A
    row whose refinement weights total zero (all-zero CSI) keeps its
    coarse slope, and a non-finite row gives NaN.
    """
    rows = np.asarray(csi, dtype=complex)
    idx = np.asarray(indices, dtype=float)
    if rows.ndim not in (1, 2) or idx.ndim != 1 or rows.shape[-1] != len(idx):
        raise ValueError(
            f"csi must be (k,) or (m, k) rows for {idx.shape} indices, "
            f"got {rows.shape}"
        )
    slopes = _row_slopes(np.atleast_2d(rows), idx)
    return float(slopes[0]) if rows.ndim == 1 else slopes


def _row_slopes(rows: ComplexCSIStack, idx: FloatVector) -> FloatVector:
    """:func:`phase_slope_per_index` of ``(m, k)`` rows, no Python loop.

    Each row gets exactly the arithmetic of a one-row call, whatever the
    stack around it.
    """
    if len(idx) < 2:
        raise ValueError("need at least two subcarriers for a slope")
    gaps = np.diff(idx)
    min_gap = gaps.min()
    # Named, so that numpy cannot write the product into a large
    # temporary operand in place, which rounds differently.
    previous = np.conj(rows[:, :-1])
    pair_rot = rows[:, 1:] * previous
    # np.take keeps the anchors C-contiguous, so each row's sum is the
    # pairwise sum a 1-D array gets.
    anchors = np.take(pair_rot, np.flatnonzero(gaps == min_gap), axis=1)
    coarse = np.angle(anchors.sum(axis=1)) / min_gap
    # Refine: unwrap each pair's phase difference around the coarse
    # prediction, then average slope contributions weighted by gap.
    predicted = coarse[:, None] * gaps
    turn = np.exp(-1j * predicted)
    # pair_rot * turn in real arithmetic, as a scalar complex product
    # computes it: numpy's vector product may fuse a multiply-add.
    real = pair_rot.real * turn.real - pair_rot.imag * turn.imag
    imag = pair_rot.real * turn.imag + pair_rot.imag * turn.real
    slopes = (predicted + np.arctan2(imag, real)) / gaps
    weights = np.hypot(pair_rot.real, pair_rot.imag) * gaps
    total = weights.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        refined = (slopes * weights).sum(axis=1) / total
    # `total <= 0` is False for a NaN total, which keeps the NaN, as
    # np.average did.
    return np.where(total <= 0.0, coarse, refined)


@functools.lru_cache(maxsize=16)
def _spline_weights(subcarriers: tuple[int, ...]) -> FloatVector:
    """``w`` with ``CubicSpline(subcarriers, y)(0.0) == y @ w`` for all ``y``.

    Solves the not-a-knot system for the knot slopes of the identity
    data (column ``j`` is the spline through the ``j``-th unit vector),
    then evaluates the cubic piece that holds 0, or an end piece when 0
    lies outside the layout, as ``CubicSpline`` extrapolates.  Two
    subcarriers give the line and three the parabola, as in
    ``CubicSpline``.  A layout ``CubicSpline`` rejects (not 1-D, fewer
    than two entries, non-finite, not strictly increasing) raises a
    ``ValueError`` naming it.  Every thread shares the cached array,
    hence read-only.
    """
    idx = np.asarray(subcarriers, dtype=float)
    if (
        idx.ndim != 1
        or len(idx) < 2
        or not (np.isfinite(idx).all() and (np.diff(idx) > 0).all())
    ):
        raise ValueError(
            "a spline needs a 1-D, finite, strictly increasing layout of "
            f"at least two subcarriers, got {subcarriers}"
        )
    n = len(idx)
    h = np.diff(idx)
    identity = np.eye(n)
    delta = np.diff(identity, axis=0) / h[:, None]  # piece slopes, per y
    a = np.zeros((n, n))
    rhs = np.empty((n, n))
    # Interior rows: h[i]·s[i-1] + 2(h[i-1] + h[i])·s[i] + h[i-1]·s[i+1]
    # = 3(h[i]·δ[i-1] + h[i-1]·δ[i]).
    inner = np.arange(1, n - 1)
    a[inner, inner - 1] = h[1:]
    a[inner, inner] = 2.0 * (h[:-1] + h[1:])
    a[inner, inner + 1] = h[:-1]
    rhs[1:-1] = 3.0 * (h[1:, None] * delta[:-1] + h[:-1, None] * delta[1:])
    if n == 2:  # the line
        a[0, 0] = a[1, 1] = 1.0
        rhs[0] = rhs[1] = delta[0]
    elif n == 3:  # the parabola
        a[0, :2] = a[2, 1:] = 1.0
        rhs[0], rhs[2] = 2.0 * delta[0], 2.0 * delta[1]
    else:  # not-a-knot: each pair of end pieces is one cubic
        d = idx[2] - idx[0]
        a[0, :2] = h[1], d
        rhs[0] = ((h[0] + 2.0 * d) * h[1] * delta[0] + h[0] ** 2 * delta[1]) / d
        d = idx[-1] - idx[-3]
        a[-1, -2:] = d, h[-2]
        rhs[-1] = (
            h[-1] ** 2 * delta[-2] + (2.0 * d + h[-1]) * h[-2] * delta[-1]
        ) / d
    s = np.linalg.solve(a, rhs)
    # Piece k holds 0 (clipped to an end piece), t is 0's offset in it,
    # and the Hermite cubic of its end values and slopes is summed
    # constant term first, as ``CubicSpline`` evaluates it.
    k = min(max(int(np.searchsorted(idx, 0.0, side="right")) - 1, 0), n - 2)
    t = -idx[k]
    cubic = (s[k] + s[k + 1] - 2.0 * delta[k]) / h[k]
    quadratic = (delta[k] - s[k]) / h[k] - cubic
    weights = (
        identity[k] + s[k] * t + quadratic * (t * t) + cubic / h[k] * (t * t * t)
    )
    weights.setflags(write=False)
    return weights


def _zero_subcarrier_rows(
    rows: ComplexCSIStack, subcarriers: tuple[int, ...], power: int
) -> ComplexCSI:
    """Steps 1–3 over a stack: each row's channel at subcarrier 0."""
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    weights = _spline_weights(subcarriers)
    idx = np.asarray(subcarriers, dtype=float)
    powered = rows**power
    slopes = _row_slopes(powered, idx)
    ramp = np.exp(-1j * slopes[:, None] * idx)
    # One matrix-vector product, as per-row dot products: a BLAS GEMV
    # sums a row in an order that depends on the stack's height.
    return np.einsum("ij,j->i", powered * ramp, weights)


def _stacked(
    csis: Sequence[BandCsi], name: Callable[[int], str]
) -> tuple[ComplexCSIStack, tuple[int, ...]]:
    """Stack CSI as rows of one array, rejecting what one pass cannot take.

    A stack has one subcarrier layout, so one layout's spline weights
    never touch another's rows.  One ``np.isfinite`` pass stands in for
    the finite-data check the per-packet splines used to make: a
    non-finite row fails here, named by ``name(row)``, instead of
    turning into a NaN product.
    """
    layout = csis[0].subcarriers
    for row, csi in enumerate(csis):
        if csi.subcarriers is not layout and csi.subcarriers != layout:
            raise ValueError(
                f"{name(row)} reports subcarriers {csi.subcarriers}, but "
                f"{name(0)} reports {layout}: a stack needs one layout"
            )
    rows = np.stack([csi.csi for csi in csis])
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite CSI on {name(int(np.argmin(finite)))}")
    return rows, layout


def _packet_name(csi: BandCsi) -> str:
    return (
        f"band {csi.band.center_hz / 1e6:.1f} MHz, "
        f"packet at t = {csi.timestamp_s:.6f} s"
    )


def _pair_rows(
    pairs: Sequence[LinkCsi],
) -> tuple[ComplexCSIStack, tuple[int, ...]]:
    """Each pair's forward and reverse CSI as rows ``2i`` and ``2i + 1``."""
    csis = [csi for pair in pairs for csi in (pair.forward, pair.reverse)]
    return _stacked(
        csis,
        lambda row: f"{_packet_name(csis[row])}, "
        f"{('forward', 'reverse')[row % 2]} direction",
    )


def zero_subcarrier_csi(band_csi: BandCsi, power: int = 1) -> complex:
    """Interpolated channel at subcarrier 0 — delay-free by §5's claim.

    Args:
        band_csi: One packet's CSI on one band.
        power: Raise the raw CSI to this power *before* interpolating.
            ``power=4`` implements the Intel 5300 2.4 GHz quirk
            workaround (phase mod π/2 becomes a clean phase after ×4).

    Returns:
        The complex channel estimate at the band's center frequency.
    """
    rows, layout = _stacked([band_csi], lambda _: _packet_name(band_csi))
    return complex(_zero_subcarrier_rows(rows, layout, power)[0])


def zero_subcarrier_products(
    pairs: Sequence[LinkCsi], power: int = 1
) -> ComplexCSI:
    """§7's reciprocity product at subcarrier 0 of every packet pair.

    Interpolates the forward and reverse CSI to subcarrier 0 *first*
    (each direction's detection-delay ramp is handled separately, keeping
    unwrap margins safe), then multiplies.  The CFO phases are equal and
    opposite, so they cancel in the product; the result approximates
    ``κ · h²`` (or ``κ⁴ · h⁸`` for ``power=4``).

    All pairs run as one stacked pass over a ``(2·n_pairs, k)`` array.

    Raises:
        ValueError: a row is not finite, or the pairs mix subcarrier
            layouts; the message names the band, packet and direction.
    """
    rows, layout = _pair_rows(pairs)
    values = _zero_subcarrier_rows(rows, layout, power)
    fwd, rev = values[0::2], values[1::2]
    # fwd * rev in real arithmetic, as a scalar complex product computes
    # it: numpy's vector product may fuse a multiply-add, and the
    # imaginary part of a near-real product is a cancellation.
    real = fwd.real * rev.real - fwd.imag * rev.imag
    imag = fwd.real * rev.imag + fwd.imag * rev.real
    return real + 1j * imag


def zero_subcarrier_product(link_csi: LinkCsi, power: int = 1) -> complex:
    """One packet pair's :func:`zero_subcarrier_products`."""
    return complex(zero_subcarrier_products([link_csi], power)[0])


def group_delay_s(band_csi: BandCsi) -> float:
    """Total group delay encoded in one packet's CSI phase slope.

    This is the sum of time-of-flight, packet detection delay and chain
    delay.  Subtracting an independent ToF estimate yields the per-packet
    detection delay — how the paper measures Fig. 7c.
    """
    idx = np.asarray(band_csi.subcarriers, dtype=float)
    return float(-phase_slope_per_index(band_csi.csi, idx) / _RAD_PER_INDEX_PER_S)


def round_trip_slope_delay_s(link_csi: LinkCsi) -> float:
    """Forward + reverse group delay of one packet pair.

    Equals ``2τ + δ_fwd + δ_rev + chain delays (+ a multipath-weighted
    late bias)``.  Unlike the super-resolved profile, this quantity has
    **no lattice ambiguity** whatsoever — a phase slope cannot alias by
    50 ns.  Averaged over bands and packets, the random detection delays
    concentrate around their mean, making this the coarse, ghost-free
    range gate that anchors first-peak selection (the constant part of
    the bias is removed by the same known-distance calibration as the
    ToF bias).

    Both directions are one two-row slope pass; a non-finite row raises
    a ``ValueError`` naming its band, packet and direction.
    """
    rows, layout = _pair_rows([link_csi])
    delays = -_row_slopes(rows, np.asarray(layout, dtype=float)) / _RAD_PER_INDEX_PER_S
    return float(delays[0] + delays[1])
