"""The §8 solver: anchor distances to positions for a stack of clients.

Every position fix in the repository runs through this module.  A
deployment localizing many clients per tick solves them in one call;
:func:`repro.core.localization.locate_transmitter` is the one-client
call (``N = 1``).  The lockstep discipline mirrors
:func:`repro.core.sparse.invert_ndft_batch` and
:func:`repro.core.deflation_batch._polish_batch`:

* the §12.2 geometry-consistency filter removes each client's worst
  violator per round, all clients in one vectorized sweep, a client
  freezing as soon as its estimates are consistent (or only two
  remain);
* candidate seeding evaluates every anchor pair's circle intersection
  for every client at once and picks each client's first intersecting
  pair, widest first;
* the refinement is a damped Gauss–Newton (Levenberg–Marquardt) descent
  advancing **all unconverged systems one step per iteration** — each
  client keeps its own damping state and freezes at convergence while
  the rest keep stepping.

A client's arithmetic does not depend on the rest of its stack: every
decision (filter drop order, seed pair choice, hint ordering, candidate
pick margin) and every refinement step is taken per row, so a client
solved alone gets its stacked row.  ``tests/test_golden_localization.py``
pins both against recorded fixes.
"""

from __future__ import annotations

from typing import Sequence, cast

import numpy as np

from repro.analysis.contracts import shaped
from repro.core.localization import GeometryDrop, LocalizationResult
from repro.core.typing import BoolMask, FloatGrid, FloatVector, IndexVector
from repro.rf.geometry import Point

_LM_LAMBDA0 = 1e-3
_LM_LAMBDA_MIN = 1e-12
_LM_LAMBDA_STUCK = 1e12
_STEP_TOL_REL = 1e-14


def refine_positions_batch(
    seeds: FloatGrid,
    anchor_xy: FloatGrid,
    dists_m: FloatGrid,
    mask: BoolMask | FloatGrid | None = None,
    max_iterations: int = 400,
) -> tuple[FloatGrid, FloatVector]:
    """Damped Gauss–Newton refinement of many circle systems in lockstep.

    Minimizes ``sum_k (||x - a_k|| - d_k)^2`` per system from the given
    seed.  Every iteration forms each unconverged system's 2×2 normal
    equations with Marquardt damping, takes the step if it does not
    increase the cost (shrinking the damping) and otherwise inflates
    the damping and retries next round; a system freezes once its
    accepted step is below ~1e-14 relative or its damping has blown
    past recovery (numerically stationary).

    Masked-out anchors (``mask`` false) contribute exactly zero to both
    residual and Jacobian, so the ranges the geometry filter dropped (or
    any padding) never perturb the live arithmetic.

    Args:
        seeds: ``(M, 2)`` starting positions.
        anchor_xy: ``(M, K, 2)`` anchor coordinates per system.
        dists_m: ``(M, K)`` measured distances per system.
        mask: Optional ``(M, K)`` boolean; false rows are ignored.
        max_iterations: Outer step bound (rejected steps count).

    Returns:
        ``(positions, rms)``: the refined ``(M, 2)`` positions and the
        per-system RMS circle mismatch over the active anchors.
    """
    X = np.array(seeds, dtype=float)
    A = np.asarray(anchor_xy, dtype=float)
    D = np.asarray(dists_m, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"seeds must be (M, 2), got {X.shape}")
    if A.ndim != 3 or A.shape[0] != X.shape[0] or A.shape[2] != 2:
        raise ValueError(
            f"anchors must be (M, K, 2) matching seeds, got {A.shape}"
        )
    if D.shape != A.shape[:2]:
        raise ValueError(
            f"distances {D.shape} do not match anchors {A.shape[:2]}"
        )
    W = np.ones_like(D) if mask is None else np.asarray(mask, dtype=float)
    if W.shape != D.shape:
        raise ValueError(f"mask {W.shape} does not match distances {D.shape}")
    n_used = np.maximum(W.sum(axis=1), 1.0)

    def evaluate(
        pos: FloatGrid, rows: IndexVector
    ) -> tuple[FloatGrid, FloatGrid, FloatGrid, FloatGrid, FloatVector]:
        dx = A[rows, :, 0] - pos[:, None, 0]
        dy = A[rows, :, 1] - pos[:, None, 1]
        R = np.hypot(dx, dy)
        res = (R - D[rows]) * W[rows]
        cost = np.einsum("mk,mk->m", res, res)
        return dx, dy, R, res, cost

    all_rows = np.arange(len(X))
    dx, dy, R, res, cost = evaluate(X, all_rows)
    lam = np.full(len(X), _LM_LAMBDA0)
    run = np.ones(len(X), dtype=bool)
    for _ in range(max_iterations):
        idx = np.flatnonzero(run)
        if idx.size == 0:
            break
        Rs = np.maximum(R[idx], 1e-300)
        Jx = -(dx[idx] / Rs) * W[idx]
        Jy = -(dy[idx] / Rs) * W[idx]
        r = res[idx]
        gx = np.einsum("mk,mk->m", Jx, r)
        gy = np.einsum("mk,mk->m", Jy, r)
        Gxx = np.einsum("mk,mk->m", Jx, Jx)
        Gxy = np.einsum("mk,mk->m", Jx, Jy)
        Gyy = np.einsum("mk,mk->m", Jy, Jy)
        # Marquardt scaling: (G + λ diag G) s = -g, solved in closed form.
        Axx = Gxx * (1.0 + lam[idx])
        Ayy = Gyy * (1.0 + lam[idx])
        det = Axx * Ayy - Gxy * Gxy
        solvable = np.abs(det) > 1e-300
        det_safe = np.where(solvable, det, 1.0)
        sx = np.where(solvable, (-Ayy * gx + Gxy * gy) / det_safe, 0.0)
        sy = np.where(solvable, (Gxy * gx - Axx * gy) / det_safe, 0.0)
        Xn = X[idx] + np.stack([sx, sy], axis=1)
        dxn, dyn, Rn, resn, costn = evaluate(Xn, idx)
        accept = solvable & (costn <= cost[idx])

        acc = idx[accept]
        X[acc] = Xn[accept]
        dx[acc], dy[acc], R[acc] = dxn[accept], dyn[accept], Rn[accept]
        res[acc], cost[acc] = resn[accept], costn[accept]
        lam[acc] = np.maximum(lam[acc] / 3.0, _LM_LAMBDA_MIN)
        rej = idx[~accept]
        lam[rej] *= 10.0

        step = np.hypot(sx, sy)
        scale = 1.0 + np.hypot(Xn[:, 0], Xn[:, 1])
        converged = accept & (step <= _STEP_TOL_REL * scale)
        stuck = (~accept) & (lam[idx] > _LM_LAMBDA_STUCK)
        run[idx[converged | stuck]] = False
    return X, np.sqrt(cost / n_used)


def filter_geometry_consistent_batch(
    anchor_xy: FloatGrid,
    dists_m: FloatGrid,
    tolerance_m: float = 0.3,
) -> tuple[BoolMask, list[tuple[GeometryDrop, ...]]]:
    """The §12.2 geometry filter across a stack of clients in lockstep.

    Each round drops every still-inconsistent client's worst violator
    (summed positive excess over active pairs, first index winning
    ties), a client freezing once its worst violation is non-positive
    or only two estimates remain.
    :func:`repro.core.localization.filter_geometry_consistent_detailed`
    is its one-client call.

    Takes ``(N, K, 2)`` anchors and ``(N, K)`` distances; returns the
    ``(N, K)`` keep-mask and one drop-diagnostics tuple per client.
    """
    A = np.asarray(anchor_xy, dtype=float)
    D = np.asarray(dists_m, dtype=float)
    if D.ndim != 2 or A.shape != (*D.shape, 2):
        raise ValueError(
            f"anchors must be (N, K, 2) and distances (N, K), "
            f"got anchors {A.shape} and distances {D.shape}"
        )
    n_clients, n_anchors = D.shape
    if not np.isfinite(D).all():
        raise ValueError("distances must be finite")
    if (D < 0).any():
        bad = D[D < 0].flat[0]
        raise ValueError(f"distances must be non-negative, got {bad}")
    sep = np.hypot(
        A[:, :, None, 0] - A[:, None, :, 0],
        A[:, :, None, 1] - A[:, None, :, 1],
    )
    bound = sep + tolerance_m
    excess = np.abs(D[:, :, None] - D[:, None, :]) - bound
    off_diag = ~np.eye(n_anchors, dtype=bool)

    mask = np.ones((n_clients, n_anchors), dtype=bool)
    drops: list[list[GeometryDrop]] = [[] for _ in range(n_clients)]
    counts = np.full(n_clients, n_anchors)
    running = counts > 2
    rows = np.arange(n_clients)
    while running.any():
        pair_active = mask[:, :, None] & mask[:, None, :] & off_diag
        positive = np.where(pair_active, np.maximum(excess, 0.0), 0.0)
        violation = positive.sum(axis=2)
        masked = np.where(mask, violation, -np.inf)
        worst = np.argmax(masked, axis=1)
        worst_violation = masked[rows, worst]
        dropping = running & (worst_violation > 0.0)
        for n in np.flatnonzero(dropping):
            w = int(worst[n])
            mask[n, w] = False
            counts[n] -= 1
            peers = np.where(mask[n], excess[n, w], -np.inf)
            j = int(np.argmax(peers))
            drops[n].append(
                GeometryDrop(
                    index=w,
                    against=j,
                    bound_m=float(bound[n, w, j]),
                    excess_m=float(excess[n, w, j]),
                )
            )
        running = dropping & (counts > 2)
    return mask, [tuple(d) for d in drops]


def locate_transmitter_batch(
    anchors: Sequence[Point] | Sequence[Sequence[Point]] | FloatGrid,
    distances_m: FloatGrid | Sequence[Sequence[float]],
    tolerance_m: float = 0.3,
    position_hints: Sequence[Point | None] | None = None,
) -> list[LocalizationResult]:
    """Least-squares positions for a stack of clients at once (§8).

    One :class:`LocalizationResult` per row of ``distances_m``.
    :func:`repro.core.localization.locate_transmitter` is the one-client
    call, and a client's row does not depend on the rest of the stack.

    Args:
        anchors: Either one shared anchor layout — a sequence of
            :class:`Point` or a ``(K, 2)`` array, used by every client —
            or per-client layouts as a sequence of sequences or an
            ``(N, K, 2)`` array.  All clients must have the same anchor
            count; callers with heterogeneous counts group by count
            (the way the ranging service groups by band plan).
        distances_m: ``(N, K)`` measured anchor distances per client.
        tolerance_m: Slack for the geometry-consistency filter.
        position_hints: Optional per-client priors (``None`` entries
            allowed): a hinted client refines only the candidate
            nearest its hint.

    Returns:
        One :class:`LocalizationResult` per client, in row order.
    """
    D = np.asarray(distances_m, dtype=float)
    if D.ndim != 2:
        raise ValueError(f"distances must be (n_clients, n_anchors), got {D.shape}")
    n_clients, n_anchors = D.shape
    A = _as_anchor_stack(anchors, n_clients)
    if A.shape[1] != n_anchors:
        raise ValueError(
            f"got {A.shape[1]} anchors but {n_anchors} distances per client"
        )
    if n_anchors < 2:
        raise ValueError(f"need at least 2 anchors, got {n_anchors}")
    if not np.isfinite(A).all():
        raise ValueError("anchor positions must be finite")
    if position_hints is not None and len(position_hints) != n_clients:
        raise ValueError(
            f"got {len(position_hints)} hints for {n_clients} clients"
        )

    mask, drops = filter_geometry_consistent_batch(A, D, tolerance_m)
    seeds = _candidate_seeds_batch(A, D, mask)
    c1, c2, two, widest = seeds
    colinear = _colinear_batch(A, mask, widest)

    has_hint = np.zeros(n_clients, dtype=bool)
    if position_hints is not None:
        hx = np.zeros(n_clients)
        hy = np.zeros(n_clients)
        for n, hint in enumerate(position_hints):
            if hint is not None:
                has_hint[n] = True
                hx[n], hy[n] = hint.x, hint.y
        # Stable hint ordering: swap only when the second candidate is
        # strictly nearer.
        d1 = np.hypot(c1[:, 0] - hx, c1[:, 1] - hy)
        d2 = np.hypot(c2[:, 0] - hx, c2[:, 1] - hy)
        swap = has_hint & two & (d2 < d1)
        c1[swap], c2[swap] = c2[swap].copy(), c1[swap].copy()

    # A hinted client refines only its nearest candidate; an unhinted
    # two-candidate client refines both and keeps the smaller residual
    # (first candidate winning ties within a 1e-12 margin).
    second = np.flatnonzero(two & ~has_hint)
    positions, rms = refine_positions_batch(
        np.concatenate([c1, c2[second]], axis=0),
        np.concatenate([A, A[second]], axis=0),
        np.concatenate([D, D[second]], axis=0),
        np.concatenate([mask, mask[second]], axis=0),
    )
    final_pos = positions[:n_clients].copy()
    final_rms = rms[:n_clients].copy()
    if second.size:
        better = rms[n_clients:] < final_rms[second] - 1e-12
        chosen = second[better]
        final_pos[chosen] = positions[n_clients:][better]
        final_rms[chosen] = rms[n_clients:][better]

    results: list[LocalizationResult] = []
    for n in range(n_clients):
        candidates = (Point(float(c1[n, 0]), float(c1[n, 1])),)
        if two[n]:
            candidates += (Point(float(c2[n, 0]), float(c2[n, 1])),)
        results.append(
            LocalizationResult(
                position=Point(float(final_pos[n, 0]), float(final_pos[n, 1])),
                residual_rms_m=float(final_rms[n]),
                used_indices=tuple(int(i) for i in np.flatnonzero(mask[n])),
                candidates=candidates,
                anchors_colinear=bool(colinear[n]),
                geometry_drops=drops[n],
            )
        )
    return results


def _as_anchor_stack(
    anchors: Sequence[Point] | Sequence[Sequence[Point]] | FloatGrid,
    n_clients: int,
) -> FloatGrid:
    """Normalize the accepted anchor forms to an ``(N, K, 2)`` stack."""
    if isinstance(anchors, np.ndarray):
        A = np.asarray(anchors, dtype=float)
        if A.ndim == 2:
            A = np.broadcast_to(A, (n_clients, *A.shape)).copy()
        if A.ndim != 3 or A.shape[0] != n_clients or A.shape[2] != 2:
            raise ValueError(
                f"anchor array must be (K, 2) or (n_clients, K, 2), got {A.shape}"
            )
        return A
    items = list(anchors)
    if not items:
        raise ValueError("need at least 2 anchors, got 0")
    if isinstance(items[0], Point):
        shared_pts = cast("Sequence[Point]", items)
        shared = np.array([[p.x, p.y] for p in shared_pts], dtype=float)
        return np.broadcast_to(shared, (n_clients, *shared.shape)).copy()
    per_client = cast("Sequence[Sequence[Point]]", items)
    if len(per_client) != n_clients:
        raise ValueError(
            f"got {len(per_client)} anchor sets for {n_clients} clients"
        )
    counts = {len(a) for a in per_client}
    if len(counts) != 1:
        raise ValueError(
            f"all clients must share one anchor count, got {sorted(counts)}"
        )
    return np.array(
        [[[p.x, p.y] for p in client] for client in per_client], dtype=float
    )


def _pair_index_arrays(n_anchors: int) -> tuple[np.ndarray, np.ndarray]:
    """All ``i < j`` index pairs, row-major (``(0, 1), (0, 2), …``)."""
    ii, jj = np.triu_indices(n_anchors, k=1)
    return ii, jj


@shaped(
    "(n_clients, n_anchors, 2) float64",
    "(n_clients, n_anchors) float64",
    "(n_clients, n_anchors) bool",
)
def _candidate_seeds_batch(
    A: FloatGrid, D: FloatGrid, mask: BoolMask
) -> tuple[FloatGrid, FloatGrid, BoolMask, IndexVector]:
    """Seed positions: circle intersections of each client's widest pair.

    For each client: anchor pairs restricted to the kept subset are
    visited widest-first (ties in ``(i, j)`` order); the first pair
    whose circles intersect provides one or two seeds, and a client
    whose circles never meet falls back to the radius-weighted point on
    its widest kept pair's segment.

    Returns ``(c1, c2, two, widest)``: the first and second candidate
    coordinates, a mask of clients that actually have two, and the
    index (into the pair enumeration) of each client's widest kept pair
    (reused by the colinearity guard).
    """
    n_clients, n_anchors = D.shape
    rows = np.arange(n_clients)
    ii, jj = _pair_index_arrays(n_anchors)
    sep = np.hypot(
        A[:, ii, 0] - A[:, jj, 0], A[:, ii, 1] - A[:, jj, 1]
    )
    usable = mask[:, ii] & mask[:, jj]
    ib = np.broadcast_to(ii, sep.shape)
    jb = np.broadcast_to(jj, sep.shape)
    order = np.lexsort((jb, ib, -sep), axis=-1)
    usable_sorted = np.take_along_axis(usable, order, axis=1)

    r1_all, r2_all = D[:, ii], D[:, jj]
    intersects = (
        usable
        & (sep >= 1e-12)
        & (sep <= r1_all + r2_all)
        & (sep >= np.abs(r1_all - r2_all))
    )
    intersects_sorted = np.take_along_axis(intersects, order, axis=1)
    has_valid = intersects_sorted.any(axis=1)
    first_pos = np.argmax(intersects_sorted, axis=1)
    widest = order[rows, np.argmax(usable_sorted, axis=1)]
    pair = np.where(has_valid, order[rows, first_pos], widest)

    i, j = ii[pair], jj[pair]
    c1x, c1y = A[rows, i, 0], A[rows, i, 1]
    c2x, c2y = A[rows, j, 0], A[rows, j, 1]
    r1, r2 = D[rows, i], D[rows, j]
    d = sep[rows, pair]
    d_safe = np.where(d > 0.0, d, 1.0)
    a = (r1**2 - r2**2 + d**2) / (2.0 * d_safe)
    h = np.sqrt(np.maximum(r1**2 - a**2, 0.0))
    inv_d = 1.0 / d_safe
    ux = (c2x - c1x) * inv_d
    uy = (c2y - c1y) * inv_d
    mid_x = c1x + a * ux
    mid_y = c1y + a * uy
    two = has_valid & (h >= 1e-12)

    total = r1 + r2
    t = np.where(total > 0.0, r1 / np.where(total > 0.0, total, 1.0), 0.5)
    fb_x = c1x + t * (c2x - c1x)
    fb_y = c1y + t * (c2y - c1y)

    cand1 = np.empty((n_clients, 2))
    cand2 = np.zeros((n_clients, 2))
    cand1[:, 0] = np.where(
        has_valid, np.where(two, mid_x + h * (-uy), mid_x), fb_x
    )
    cand1[:, 1] = np.where(
        has_valid, np.where(two, mid_y + h * ux, mid_y), fb_y
    )
    cand2[:, 0] = np.where(two, mid_x - h * (-uy), 0.0)
    cand2[:, 1] = np.where(two, mid_y - h * ux, 0.0)
    return cand1, cand2, two, widest


@shaped(
    "(n_clients, n_anchors, 2) float64",
    "(n_clients, n_anchors) bool",
    "(n_clients,)",
    ret="(n_clients,) bool",
)
def _colinear_batch(
    A: FloatGrid, mask: BoolMask, widest: IndexVector
) -> BoolMask:
    """Vectorized ``localization.anchors_are_colinear`` over kept anchors."""
    n_clients, n_anchors = mask.shape
    rows = np.arange(n_clients)
    ii, jj = _pair_index_arrays(n_anchors)
    i, j = ii[widest], jj[widest]
    ax, ay = A[rows, i, 0], A[rows, i, 1]
    bx, by = A[rows, j, 0], A[rows, j, 1]
    sep = np.hypot(bx - ax, by - ay)
    sep_safe = np.where(sep > 0.0, sep, 1.0)
    dir_x = (bx - ax) * (1.0 / sep_safe)
    dir_y = (by - ay) * (1.0 / sep_safe)
    cross = dir_x[:, None] * (A[:, :, 1] - ay[:, None]) - dir_y[:, None] * (
        A[:, :, 0] - ax[:, None]
    )
    max_perp = np.max(np.where(mask, np.abs(cross), 0.0), axis=1)
    return (sep <= 0.0) | (max_perp <= 1e-9 * np.maximum(sep, 1.0))
