"""Derivative-free maximization helpers: zoom grids and simplex search.

Everything here is deterministic given the seed carried by the caller; ties are
broken toward the first (lexicographically smallest) candidate, which is what
``np.argmax``/``np.argmin`` already do on C-ordered arrays.
"""

from itertools import chain, combinations
from math import comb

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


def simplex_grid(k, resolution):
    """All pmfs on k atoms with entries that are multiples of 1/resolution.

    Returns an array of shape (count, k); count = C(resolution+k-1, k-1).  Rows
    come in lexicographic order of their counts, first entry slowest: stars and
    bars, each choice of k-1 bar positions among resolution+k-1 slots, in
    `itertools.combinations` order, read as the k gaps between the bars.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if resolution < 1:
        return np.full((1, k), 1.0 / k)
    slots = resolution + k - 1
    count = _simplex_count(k, resolution)
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), k - 1)),
                       dtype=np.int64, count=count * (k - 1)).reshape(count, k - 1)
    edges = np.column_stack([np.full(count, -1), bars, np.full(count, slots)])
    return (np.diff(edges, axis=1) - 1) / float(resolution)


def start_pool(k, resolution=None, rng=None, max_grid_points=200_000, extra_starts=None):
    """The pmfs search_simplex evaluates first: the simplex grid at `resolution`
    (a seeded Dirichlet sample when the grid would pass max_grid_points), the
    vertices, the centre and any extra starts.  Returns an (N, k) array."""
    if resolution is None:
        resolution = {1: 1, 2: 256, 3: 64, 4: 24, 5: 12, 6: 8}.get(k, 6)
    if _simplex_count(k, resolution) <= max_grid_points:
        grid = simplex_grid(k, resolution)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        grid = rng.dirichlet(np.ones(k), size=4096)
    starts = [grid, np.eye(k), np.full((1, k), 1.0 / k)]
    if extra_starts is not None and len(extra_starts):
        starts.append(np.atleast_2d(np.asarray(extra_starts, dtype=float)))
    return np.concatenate(starts, axis=0)


def search_simplex(f_batch, k, *, minimize=False, resolution=None, rounds=6,
                   shrink=0.35, top=4, rng=None, extra_starts=None,
                   max_grid_points=200_000):
    """Optimize a batched function over the probability simplex of dimension k.

    f_batch maps an (N, k) array of pmfs to an (N,) array of values.  The
    search evaluates `start_pool` (a coarse simplex grid, or a Dirichlet sample
    when the grid would blow past max_grid_points), then contracts a fixed
    pattern around the best `top` candidates.  Convex/concave objectives
    converge to the optimum; for general objectives this is a seeded
    multi-start ascent.

    Returns (x_best, value_best).
    """
    sign = -1.0 if minimize else 1.0

    def eval_batch(pts):
        return sign * f_batch(pts)

    pool = start_pool(k, resolution, rng, max_grid_points, extra_starts)
    vals = eval_batch(pool)
    order = np.argsort(-vals, kind="stable")[: max(1, top)]
    centers = pool[order]
    best_x = pool[order[0]].copy()
    best_v = float(vals[order[0]])

    pattern = simplex_grid(k, _pattern_resolution(k))
    factor = 0.5
    for _ in range(rounds):
        # the pattern contracted toward each centre, built in place: c + factor * (pattern - c)
        cands = pattern[None, :, :] - centers[:, None, :]
        cands *= factor
        cands += centers[:, None, :]
        cands = cands.reshape(-1, k)
        vals = eval_batch(cands)
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_v = float(vals[j])
            best_x = cands[j].copy()
        order = np.argsort(-vals, kind="stable")[: max(1, top)]
        centers = np.concatenate([best_x[None, :], cands[order]], axis=0)[: max(1, top)]
        del cands   # free this round's batch before the next one is built
        factor *= shrink
    return best_x, sign * best_v


def _pattern_resolution(k):
    return {1: 1, 2: 12, 3: 6, 4: 4, 5: 3, 6: 2}.get(k, 2)


def refine_batch_size(k, top):
    """Candidates search_simplex builds in one refinement round: the contraction
    pattern around each of the `top` centres.  Unlike the first pool, this is not
    capped by max_grid_points; it grows as k^2 / 2 * top for k > 6."""
    return max(1, top) * _simplex_count(k, _pattern_resolution(k))


def _simplex_count(k, resolution):
    return comb(resolution + k - 1, k - 1)
