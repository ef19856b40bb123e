"""Derivative-free maximization helpers: zoom grids and simplex search.

Everything here is deterministic given the seed carried by the caller; ties are
broken toward the first (lexicographically smallest) candidate, which is what
``np.argmax``/``np.argmin`` already do on C-ordered arrays.
"""

import numpy as np


def zoom_grid_max_1d(f_vec, lo, hi, coarse=1001, rounds=3, points=41):
    """Maximize f over [lo, hi] by a coarse grid plus shrinking local grids.

    f_vec takes an array of abscissae and returns an array of values.
    Returns (argmax, max).  Robust to kinks (e.g. min of two smooth terms).
    """
    xs = np.linspace(lo, hi, coarse)
    vals = f_vec(xs)
    k = int(np.argmax(vals))
    best_x, best_v = float(xs[k]), float(vals[k])
    w = (hi - lo) / (coarse - 1)
    for _ in range(rounds):
        xs = np.linspace(max(lo, best_x - w), min(hi, best_x + w), points)
        vals = f_vec(xs)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_x, best_v = float(xs[k]), float(vals[k])
        w = 4.0 * w / (points - 1)
    return best_x, best_v


def _compositions(k, total):
    if k == 1:
        return np.array([[total]], dtype=np.int64)
    blocks = []
    for first in range(total + 1):
        tail = _compositions(k - 1, total - first)
        block = np.empty((tail.shape[0], k), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = tail
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def simplex_grid(k, resolution):
    """All pmfs on k atoms with entries that are multiples of 1/resolution.

    Returns an array of shape (count, k); count = C(resolution+k-1, k-1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if resolution < 1:
        return np.full((1, k), 1.0 / k)
    return _compositions(k, resolution) / float(resolution)


def _contract(points, center, factor):
    return center[None, :] + factor * (points - center[None, :])


def search_simplex(f_batch, k, *, minimize=False, resolution=None, rounds=6,
                   shrink=0.35, top=4, rng=None, extra_starts=None,
                   max_grid_points=200_000):
    """Optimize a batched function over the probability simplex of dimension k.

    f_batch maps an (N, k) array of pmfs to an (N,) array of values.  The
    search runs a coarse simplex grid (or Dirichlet sample when the grid would
    blow past max_grid_points), then contracts a fixed pattern around the best
    `top` candidates.  Convex/concave objectives converge to the optimum; for
    general objectives this is a seeded multi-start ascent.

    Returns (x_best, value_best).
    """
    sign = -1.0 if minimize else 1.0

    def eval_batch(pts):
        return sign * f_batch(pts)

    if resolution is None:
        resolution = {1: 1, 2: 256, 3: 64, 4: 24, 5: 12, 6: 8}.get(k, 6)
    n_grid = _simplex_count(k, resolution)
    if n_grid <= max_grid_points:
        pool = simplex_grid(k, resolution)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        pool = rng.dirichlet(np.ones(k), size=4096)
    starts = [pool, np.eye(k), np.full((1, k), 1.0 / k)]
    if extra_starts is not None and len(extra_starts):
        starts.append(np.atleast_2d(np.asarray(extra_starts, dtype=float)))
    pool = np.concatenate(starts, axis=0)

    vals = eval_batch(pool)
    order = np.argsort(-vals, kind="stable")[: max(1, top)]
    centers = pool[order]
    best_x = pool[order[0]].copy()
    best_v = float(vals[order[0]])

    pat_res = {1: 1, 2: 12, 3: 6, 4: 4, 5: 3, 6: 2}.get(k, 2)
    pattern = simplex_grid(k, pat_res)
    factor = 0.5
    for _ in range(rounds):
        cands = np.concatenate([_contract(pattern, c, factor) for c in centers], axis=0)
        vals = eval_batch(cands)
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_v = float(vals[j])
            best_x = cands[j].copy()
        order = np.argsort(-vals, kind="stable")[: max(1, top)]
        centers = np.concatenate([best_x[None, :], cands[order]], axis=0)[: max(1, top)]
        factor *= shrink
    return best_x, sign * best_v


def _simplex_count(k, resolution):
    from math import comb

    return comb(resolution + k - 1, k - 1)
