import numpy as np
import pytest

from avrc.optimize import search_simplex, simplex_grid, zoom_grid_max_1d


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


def test_search_simplex_concave_max():
    # entropy is maximized at the uniform pmf
    def neg_ent(P):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(P > 0, P * np.log2(np.where(P > 0, P, 1.0)), 0.0)
        return -t.sum(axis=1)

    x, v = search_simplex(neg_ent, 3, rounds=8)
    assert abs(v - np.log2(3)) < 1e-5
    assert np.allclose(x, 1 / 3, atol=2e-3)


def test_search_simplex_min_mode_and_determinism():
    f = lambda P: ((P - np.array([0.2, 0.3, 0.5])) ** 2).sum(axis=1)
    x1, v1 = search_simplex(f, 3, minimize=True, rounds=8, rng=np.random.default_rng(0))
    x2, v2 = search_simplex(f, 3, minimize=True, rounds=8, rng=np.random.default_rng(0))
    assert np.array_equal(x1, x2) and v1 == v2
    assert v1 < 1e-8


def test_search_simplex_rejects_bad_dim():
    with pytest.raises(ValueError):
        simplex_grid(0, 4)
