import numpy as np
import pytest

from avrc import optimize
from avrc.optimize import (
    REFINE_ROUNDS,
    refine_batch_size,
    search_simplex,
    simplex_grid,
    start_pool,
)
from zoom_oracle import zoom_grid_max_1d


def test_zoom_grid_matches_golden():
    f = lambda t: np.minimum(2 * t, 1 - t)
    x, v = zoom_grid_max_1d(f, 0, 1, coarse=101, rounds=6, points=41)
    assert abs(v - 2 / 3) < 1e-6


def test_simplex_grid_counts_and_sums():
    g = simplex_grid(3, 8)
    assert g.shape == (45, 3)          # C(10, 2)
    assert np.allclose(g.sum(axis=1), 1.0)
    assert (g >= 0).all()
    assert simplex_grid(1, 5).tolist() == [[1.0]]


def _compositions_oracle(k, total):
    # the recursive construction: first entry slowest, each tail in the same order
    if k == 1:
        return [[total]]
    return [[first] + tail for first in range(total + 1)
            for tail in _compositions_oracle(k - 1, total - first)]


@pytest.mark.parametrize("k", range(1, 7))
def test_simplex_grid_rows_in_recursive_order(k):
    # argmax ties break toward the first row, so the row order is part of every search's output
    for resolution in (1, 2, 5, 8):
        want = np.array(_compositions_oracle(k, resolution)) / resolution
        assert np.array_equal(simplex_grid(k, resolution), want)


def test_search_simplex_concave_max():
    # entropy is maximized at the uniform pmf
    def neg_ent(P):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(P > 0, P * np.log2(np.where(P > 0, P, 1.0)), 0.0)
        return -t.sum(axis=1)

    x, v = search_simplex(neg_ent, start_pool(3, None, np.random.default_rng(0)))
    assert abs(v - np.log2(3)) < 1e-5
    assert np.allclose(x, 1 / 3, atol=2e-3)


def test_search_simplex_min_mode_and_determinism():
    f = lambda P: ((P - np.array([0.2, 0.3, 0.5])) ** 2).sum(axis=1)
    x1, v1 = search_simplex(f, start_pool(3, None, np.random.default_rng(0)), minimize=True)
    x2, v2 = search_simplex(f, start_pool(3, None, np.random.default_rng(0)), minimize=True)
    assert np.array_equal(x1, x2) and v1 == v2
    assert v1 < 1e-8


def test_search_simplex_rejects_bad_dim():
    with pytest.raises(ValueError):
        simplex_grid(0, 4)


@pytest.mark.parametrize("k", [2, 5, 9, 12])
def test_refine_batch_size_counts_each_refinement_batch(k):
    sizes = []

    def f(P):
        sizes.append(P.shape[0])
        return -((P - 1.0 / k) ** 2).sum(axis=1)

    search_simplex(f, start_pool(k, None, np.random.default_rng(0)), top=3)
    # the first batch is the start pool; every later one is a refinement round
    assert sizes[1:] == [refine_batch_size(k, 3)] * REFINE_ROUNDS


def test_start_pool_samples_the_simplex_exactly_when_the_grid_passes_the_budget(monkeypatch):
    k, resolution = 3, 8                 # a C(10, 2) = 45-point grid
    corners = [np.eye(k), np.full((1, k), 1.0 / k)]
    sample = np.random.default_rng(7).dirichlet(np.ones(k), size=4096)
    monkeypatch.setattr(optimize, "MAX_GRID_POINTS", 45)
    assert np.array_equal(start_pool(k, resolution, np.random.default_rng(7)),
                          np.concatenate([simplex_grid(k, resolution), *corners]))
    monkeypatch.setattr(optimize, "MAX_GRID_POINTS", 44)
    assert np.array_equal(start_pool(k, resolution, np.random.default_rng(7)),
                          np.concatenate([sample, *corners]))
