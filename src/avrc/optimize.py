"""Derivative-free maximization over the probability simplex: grids, start pools, search.

Everything here is deterministic given the generator the caller passes to
start_pool, and every search refines for the same REFINE_ROUNDS rounds; ties
are broken toward the first (lexicographically smallest) candidate, which is
what ``np.argmax``/``np.argmin`` already do on C-ordered arrays.
"""

from functools import cache
from itertools import chain, combinations
from math import comb

import numpy as np

#: most points of start_pool's grid, and of a refinement batch discrete allows
MAX_GRID_POINTS = 200_000

#: refinement rounds of every simplex search
REFINE_ROUNDS = 8


@cache
def simplex_grid(k, resolution):
    """All pmfs on k atoms with entries that are multiples of 1/resolution.

    Returns an array of shape (count, k); count = C(resolution+k-1, k-1).  Rows
    come in lexicographic order of their counts, first entry slowest: stars and
    bars, each choice of k-1 bar positions among resolution+k-1 slots, in
    `itertools.combinations` order, read as the k gaps between the bars.

    Each (k, resolution) grid is built once and cached, and the array is
    read-only: callers read it, or copy it to change it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if resolution < 1:
        grid = np.full((1, k), 1.0 / k)
    else:
        slots = resolution + k - 1
        count = _simplex_count(k, resolution)
        bars = np.fromiter(chain.from_iterable(combinations(range(slots), k - 1)),
                           dtype=np.int64, count=count * (k - 1)).reshape(count, k - 1)
        edges = np.column_stack([np.full(count, -1), bars, np.full(count, slots)])
        grid = (np.diff(edges, axis=1) - 1) / float(resolution)
    grid.flags.writeable = False
    return grid


def grid_resolution(k):
    """The resolution of start_pool's grid on k atoms when the caller names none."""
    return {1: 1, 2: 256, 3: 64, 4: 24, 5: 12, 6: 8}.get(k, 6)


def start_pool(k, resolution, rng):
    """The pmfs a simplex search starts from: the simplex grid at `resolution`
    (grid_resolution(k) when None; 4096 Dirichlet draws from rng when the grid
    would pass MAX_GRID_POINTS), then the vertices and the centre, in that
    order.  Returns an (N, k) array; search_simplex takes it, or any subset
    of its rows, or it with more starts appended, as its first batch."""
    if resolution is None:
        resolution = grid_resolution(k)
    if _simplex_count(k, resolution) <= MAX_GRID_POINTS:
        grid = simplex_grid(k, resolution)
    else:
        grid = rng.dirichlet(np.ones(k), size=4096)
    return np.concatenate([grid, np.eye(k), np.full((1, k), 1.0 / k)])


def search_simplex(f_batch, pool, *, minimize=False, top=4):
    """Optimize a batched function over the probability simplex of dimension k.

    f_batch maps an (N, k) array of pmfs to an (N,) array of values, each
    row's value its own.  The search evaluates the start pool, an (N, k)
    array (k is read from its shape), then for REFINE_ROUNDS rounds contracts
    a fixed pattern around the best `top` candidates, to half size and then
    by 0.35 a round.  Ties among the pool go to the earlier row.  Equal
    centres build equal blocks of candidates, so each distinct centre's
    block is evaluated once and its values stand for every copy.
    Convex/concave objectives converge to the optimum; for general
    objectives this is a multi-start ascent from the pool.

    Returns (x_best, value_best).
    """
    sign = -1.0 if minimize else 1.0
    k = pool.shape[1]
    vals = sign * f_batch(pool)
    order = np.argsort(-vals, kind="stable")[: max(1, top)]
    centers = pool[order]
    best_x = pool[order[0]].copy()
    best_v = float(vals[order[0]])

    pattern = simplex_grid(k, _pattern_resolution(k))
    factor = 0.5
    for _ in range(REFINE_ROUNDS):
        # the pattern contracted toward each centre, built in place: c + factor * (pattern - c)
        cands = pattern[None, :, :] - centers[:, None, :]
        cands *= factor
        cands += centers[:, None, :]
        # equal centres build equal blocks: evaluate each distinct centre's
        # block once, then copy its values to the blocks of its equal centres
        rows = centers.tolist()
        first = [rows.index(row) for row in rows]   # each centre's first equal centre
        distinct = sorted(set(first))
        vals = sign * f_batch(cands[distinct].reshape(-1, k))
        vals = vals.reshape(len(distinct), -1)[[distinct.index(i) for i in first]].ravel()
        cands = cands.reshape(-1, k)
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_v = float(vals[j])
            best_x = cands[j].copy()
        order = np.argsort(-vals, kind="stable")[: max(1, top)]
        centers = np.concatenate([best_x[None, :], cands[order]], axis=0)[: max(1, top)]
        del cands   # free this round's batch before the next one is built
        factor *= 0.35
    return best_x, sign * best_v


def _pattern_resolution(k):
    return {1: 1, 2: 12, 3: 6, 4: 4, 5: 3, 6: 2}.get(k, 2)


def refine_batch_size(k, top):
    """Candidates search_simplex builds in one refinement round, and the most
    it evaluates: the contraction pattern around each of the `top` centres.
    Unlike the first pool, this is not capped by MAX_GRID_POINTS; it grows as
    k^2 / 2 * top for k > 6."""
    return max(1, top) * _simplex_count(k, _pattern_resolution(k))


def _simplex_count(k, resolution):
    return comb(resolution + k - 1, k - 1)
