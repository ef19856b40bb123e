"""The Gaussian programs solved by a search over alpha, as an oracle for the
closed-form candidate maxima of `avrc.gaussian`.

At fixed alpha the first cut of the objective rises in rho and the second
falls, so the best rho of a region is the cut crossing, a quadratic root,
clipped to the region's rho interval.  The interval's ends are drawn at
MARGIN_SCALE times the margin m = 4*FEASIBILITY_EPS*(1 + Lambda + P) at which
the candidates lie, and an alpha whose interval is empty scores -inf.

MARGIN_SCALE is a hair above 1 because the zoom finds the last alpha at which
roundoff still leaves the interval non-empty.  Where the lower region is a
sliver along rho = 1, a step of 3e-14 past m there raised the objective by
2e-11 above the region's exact maximum (P = 117.1, P1 = 0.038, Lambda = 0.0194,
sigma2 = 0.0183, checked in 50-digit arithmetic); 1% of m is well above such
steps and moves a well-conditioned maximum by less than 1e-13.

Alpha is searched by a coarse grid on [0, 1] and REFINE_ROUNDS local grids of
REFINE_POINTS points around the best alpha so far, each window
4/(REFINE_POINTS - 1) times as wide as the last.
"""

import numpy as np

from avrc.gaussian import FEASIBILITY_EPS, _fg_arrays, _lower_mask, _upper_mask

MARGIN_SCALE = 1.01
REFINE_ROUNDS = 16
REFINE_POINTS = 17


def zoom_grid_max_1d(f, lo, hi, coarse, rounds, points):
    """Maximize each row of f over [lo, hi] by a coarse grid plus shrinking local grids.

    f maps an (m, k) array of abscissae to an (m, k) array of values, row i
    being objective i; the coarse grid is one (1, coarse) row that f
    broadcasts.  A local grid replaces the best point only when strictly
    larger, and ties go to the first point.  Returns (argmax, max), each (m,).
    """
    xs = np.linspace(lo, hi, coarse)
    vals = f(xs[None, :])
    rows = np.arange(vals.shape[0])
    k = np.argmax(vals, axis=1)
    best_x, best_v = xs[k], vals[rows, k]
    w = (hi - lo) / (coarse - 1)
    for _ in range(rounds):
        xs = _linspace_rows(np.maximum(lo, best_x - w), np.minimum(hi, best_x + w), points)
        vals = f(xs)
        k = np.argmax(vals, axis=1)
        better = vals[rows, k] > best_v
        best_x = np.where(better, xs[rows, k], best_x)
        best_v = np.where(better, vals[rows, k], best_v)
        w = 4.0 * w / (points - 1)
    return best_x, best_v


def _linspace_rows(start, stop, num):
    """Row i is np.linspace(start[i], stop[i], num), bit for bit, for num >= 2."""
    delta = (stop - start)[:, None]
    step = delta / (num - 1)
    k = np.arange(num, dtype=float)
    # linspace scales by delta, not step, where the step underflows to 0
    y = np.where(step == 0, k / (num - 1) * delta, k * step)
    y += start[:, None]
    y[:, -1] = stop
    return y


def _rho_threshold(q2, q1, q0):
    """Least rho >= 0 with q2*rho^2 + 2*q1*rho + q0 >= 0, for q2, q1 >= 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = -q0 / (q1 + np.sqrt(q1 * q1 - q2 * q0))
    return np.where(q0 >= 0.0, 0.0, root)


def _crossing_rho(params, A):
    """rho at which the rising MAC cut meets the falling broadcast cut, per alpha."""
    P, P1, Lam, s2 = params.P, params.P1, params.Lambda, params.sigma2
    aP = A * P
    K = 1.0 + (1.0 - A) * P / s2
    return _rho_threshold(K * aP, np.sqrt(aP * P1), Lam + P1 + aP - K * (Lam + aP))


def _square_rho_range(params, A, margin):
    return 0.0, 1.0


def _upper_rho_range(params, A, margin):
    P, P1, Lam = params.P, params.P1, params.Lambda
    return _rho_threshold(0.0, np.sqrt(A * P * P1), P1 + A * P - Lam - margin), 1.0


def _lower_rho_range(params, A, margin):
    P, P1, Lam = params.P, params.P1, params.Lambda
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hi = np.sqrt(1.0 - (Lam + margin) / (A * P))
        lo = _rho_threshold(A * (P1 + P), np.divide(P1, P) * np.sqrt(A * P * P1),
                            np.divide(P1 * P1, P) - Lam - A * P - margin)
    return lo, hi


# (feasibility mask, closed-form rho interval at each alpha) of each program
SQUARE = (None, _square_rho_range)
UPPER = (_upper_mask, _upper_rho_range)
LOWER = (_lower_mask, _lower_rho_range)


def best_rho(params, A, region):
    """Best rho of the region at each alpha in A, and the objective there."""
    mask_fn, rho_range = region
    margin = MARGIN_SCALE * 4.0 * FEASIBILITY_EPS * (1.0 + params.Lambda + params.P)
    lo, hi = rho_range(params, A, margin)
    R = np.minimum(np.maximum(_crossing_rho(params, A), lo), hi)
    vals = np.where(lo > hi, -np.inf, _fg_arrays(params, A, R))
    if mask_fn is not None:
        vals = np.where(mask_fn(params, A, R), vals, -np.inf)
    return R, vals


def oracle_max(stack, coarse=101):
    """(value, alpha, rho) of the lower, upper and square maxima at each tuple
    of a stack of (n, 1) parameter columns; each (3, n), an empty region -inf."""
    programs = (LOWER, UPPER, SQUARE)
    n = len(stack.P)

    def values(A):
        A = np.broadcast_to(A, (3 * n, A.shape[1]))
        return np.concatenate([best_rho(stack, a, region)[1]
                               for a, region in zip(np.split(A, 3), programs)])

    alpha, value = zoom_grid_max_1d(values, 0.0, 1.0, coarse=coarse,
                                    rounds=REFINE_ROUNDS, points=REFINE_POINTS)
    alpha, value = alpha.reshape(3, n), value.reshape(3, n)
    rho = np.stack([best_rho(stack, a[:, None], region)[0][:, 0]
                    for a, region in zip(alpha, programs)])
    return value, alpha, rho
