"""Gaussian jammed-relay rate expressions and their numerical maximization.

The model: a sender with per-symbol power budget P splits into a component
heard by the destination (share alpha) and a component heard by the relay on
an orthogonal band; the relay spends power P1; a jammer adds an arbitrary
state sequence of per-symbol power at most Lambda at the destination, while
the relay link only sees thermal noise of variance sigma2.

All rates are in bits per channel use (log base 2).

The core objective for a power split (alpha, rho) is

    F(alpha, rho) = min{ 0.5*log2(1 + (P1 + a*P + 2*rho*sqrt(a*P*P1)) / Lambda),
                         0.5*log2(1 + (1-a)*P / sigma2)
                           + 0.5*log2(1 + (1-rho^2)*a*P / Lambda) }

with a = alpha.  The shared-randomness (random-code) capacity is the
unconstrained maximum of F over the unit square; the deterministic-code lower
and upper bounds maximize F over the feasibility regions

    lower:  (1-rho^2)*a*P > Lambda   and
            (P1/P)*(sqrt(P1) + rho*sqrt(a*P))^2 > Lambda + (1-rho^2)*a*P
    upper:  P1 + a*P + 2*rho*sqrt(a*P*P1) >= Lambda

where the strict inequalities are implemented as >= with a small margin and
an empty region yields rate 0 plus an infeasibility flag.

Each program is solved as a 1-D search over alpha.  At fixed alpha the first
term of F rises in rho and the second falls, so the best rho is where they
cross, a quadratic root, clipped to the region's rho interval, whose ends are
quadratic or linear roots too.  A zoom grid over alpha (resolution
GridOptions.step, then REFINE_ROUNDS local grids of REFINE_POINTS points) finds
the maximum of that closed-form inner value.
The parameters may be (n, 1) columns: every (program, tuple) pair of a request,
all three programs at each P of a sweep, is then one row of a single row-wise
zoom, in chunks of whole tuples, and each row comes out as it would alone.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optimize import zoom_grid_max_1d

LOG2 = np.log(2.0)

#: margin used to implement the strict inequalities of the lower-bound region
FEASIBILITY_EPS = 1e-12

#: most P values one sweep may ask for; a P costs about a millisecond, so the
#: cap is about 15 minutes of work, and a larger count is refused before any is built
MAX_SWEEP_POINTS = 10**6

#: most points of the coarse alpha grid, 1/step + 1; a search holds about 90 B
#: per point at its peak, so the cap is about 90 MB, and a finer step is refused
MAX_ALPHA_POINTS = 10**6 + 1

#: the zoom's local grids around the best alpha so far, each window
#: 4/(REFINE_POINTS - 1) times as wide as the last
REFINE_ROUNDS = 12
REFINE_POINTS = 41


class GaussianParamError(ValueError):
    pass


@dataclass(frozen=True)
class GaussianSfdParams:
    """Power constraint tuple (P, P1, Lambda, sigma2)."""

    P: float
    P1: float
    Lambda: float
    sigma2: float

    def __post_init__(self):
        vals = (self.P, self.P1, self.Lambda, self.sigma2)
        if not all(np.isfinite(v) for v in vals):
            raise GaussianParamError("all parameters must be finite")
        if self.P < 0 or self.P1 < 0:
            raise GaussianParamError("P and P1 must be >= 0")
        if self.Lambda <= 0 or self.sigma2 <= 0:
            raise GaussianParamError("Lambda and sigma2 must be > 0")


@dataclass(frozen=True)
class PowerSplit:
    """Optimization variables: destination power share alpha, correlation rho."""

    alpha: float
    rho: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.rho <= 1.0):
            raise GaussianParamError("alpha and rho must lie in [0, 1]")


@dataclass(frozen=True)
class GridOptions:
    """Resolution of the search over alpha; rho needs none, it is solved in closed form.

    The search evaluates a grid of spacing `step` on [0, 1], then the
    REFINE_ROUNDS local grids of REFINE_POINTS points.
    """

    step: float = 1e-3

    @property
    def coarse(self):
        """Points of the coarse grid over [0, 1]."""
        return int(round(1.0 / self.step)) + 1

    def __post_init__(self):
        if not (np.isfinite(self.step) and 0.0 < self.step <= 1.0):
            raise GaussianParamError(f"step must be finite and in (0, 1], got {self.step}")
        # 1/step overflows to inf for a subnormal step, so it is compared before rounding
        if not 1.0 / self.step < MAX_ALPHA_POINTS or self.coarse > MAX_ALPHA_POINTS:
            raise GaussianParamError(f"step {self.step!r} asks for more than "
                                     f"{MAX_ALPHA_POINTS} alpha grid points")


@dataclass(frozen=True)
class BoundsReport:
    random_capacity: float
    det_lower: float
    det_upper: float
    direct_transmission: float
    random_split: PowerSplit
    lower_split: PowerSplit
    upper_split: PowerSplit
    lower_feasible: bool
    upper_feasible: bool


def _half_log2_1p(x):
    return 0.5 * np.log1p(np.maximum(x, 0.0)) / LOG2


def _fg_arrays(params, A, R):
    """Vectorized objective over alpha array A and rho array R (same shape)."""
    P, P1, Lam, s2 = params.P, params.P1, params.Lambda, params.sigma2
    cross = 2.0 * R * np.sqrt(A * P * P1)
    term1 = _half_log2_1p((P1 + A * P + cross) / Lam)
    term2 = _half_log2_1p((1.0 - A) * P / s2) + _half_log2_1p((1.0 - R * R) * A * P / Lam)
    return np.minimum(term1, term2)


def f_g(params: GaussianSfdParams, split: PowerSplit) -> float:
    """Evaluate the min-of-two-rates objective at one power split."""
    return float(_fg_arrays(params, np.asarray(split.alpha), np.asarray(split.rho)))


def _lower_mask(params, A, R):
    """c1 fails wherever P = 0 (Lambda > 0), so c2's division by P is harmless there."""
    P, P1, Lam = params.P, params.P1, params.Lambda
    c1 = (1.0 - R * R) * A * P >= Lam + FEASIBILITY_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        c2 = (np.divide(P1, P) * (np.sqrt(P1) + R * np.sqrt(A * P)) ** 2
              >= Lam + (1.0 - R * R) * A * P + FEASIBILITY_EPS)
    return c1 & c2


def _upper_mask(params, A, R):
    P, P1, Lam = params.P, params.P1, params.Lambda
    return P1 + A * P + 2.0 * R * np.sqrt(A * P * P1) >= Lam


def _rho_threshold(q2, q1, q0):
    """Least rho >= 0 with q2*rho^2 + 2*q1*rho + q0 >= 0, for q2, q1 >= 0.

    The quadratic rises on rho >= 0, so the answer is 0 when q0 >= 0 and its
    larger root otherwise, taken in the cancellation-free form
    -q0 / (q1 + sqrt(q1^2 - q2*q0)); inf when it is a negative constant.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = -q0 / (q1 + np.sqrt(q1 * q1 - q2 * q0))
    return np.where(q0 >= 0.0, 0.0, root)


def _crossing_rho(params, A):
    """rho at which the rising MAC cut meets the falling broadcast cut, per alpha.

    With K = 1 + (1-a)*P/sigma2 the two cuts are equal where
    K*a*P*rho^2 + 2*sqrt(a*P*P1)*rho + (Lambda + P1 + a*P - K*Lambda - K*a*P) = 0.
    """
    P, P1, Lam, s2 = params.P, params.P1, params.Lambda, params.sigma2
    aP = A * P
    K = 1.0 + (1.0 - A) * P / s2
    return _rho_threshold(K * aP, np.sqrt(aP * P1), Lam + P1 + aP - K * (Lam + aP))


def _square_rho_range(params, A, margin):
    return 0.0, 1.0


def _upper_rho_range(params, A, margin):
    """rho >= (Lambda - P1 - a*P) / (2*sqrt(a*P*P1))."""
    P, P1, Lam = params.P, params.P1, params.Lambda
    return _rho_threshold(0.0, np.sqrt(A * P * P1), P1 + A * P - Lam - margin), 1.0


def _lower_rho_range(params, A, margin):
    """c2 bounds rho from below by a quadratic root; c1 caps it from above.

    c1 is (1-rho^2)*a*P >= Lambda, i.e. rho <= sqrt(1 - Lambda/(a*P)), nan where
    it has no solution (P = 0 among them); c2 expands to
    a*(P1+P)*rho^2 + 2*(P1/P)*sqrt(a*P*P1)*rho + (P1^2/P - Lambda - a*P) >= 0.
    """
    P, P1, Lam = params.P, params.P1, params.Lambda
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hi = np.sqrt(1.0 - (Lam + margin) / (A * P))
        lo = _rho_threshold(A * (P1 + P), np.divide(P1, P) * np.sqrt(A * P * P1),
                            np.divide(P1 * P1, P) - Lam - A * P - margin)
    return lo, hi


# (feasibility mask, closed-form rho interval at each alpha) of each program
_SQUARE = (None, _square_rho_range)
_UPPER = (_upper_mask, _upper_rho_range)
_LOWER = (_lower_mask, _lower_rho_range)


def _best_rho(params, A, region):
    """Best rho of the region at each alpha in A, and the objective there.

    Along rho the objective is the min of a rising and a falling cut, so its
    best point in an interval is the cut crossing clipped to that interval.
    The interval ends are drawn a few FEASIBILITY_EPS inside the region so that
    an edge point survives roundoff; the region's mask has the last word, and
    an alpha without a feasible rho scores -inf.
    """
    mask_fn, rho_range = region
    margin = 4.0 * FEASIBILITY_EPS * (1.0 + params.Lambda + params.P)
    lo, hi = rho_range(params, A, margin)
    R = np.minimum(np.maximum(_crossing_rho(params, A), lo), hi)
    vals = _fg_arrays(params, A, R)
    if mask_fn is not None:
        vals = np.where(mask_fn(params, A, R), vals, -np.inf)
    return R, vals


class _Stack(NamedTuple):
    """Parameter tuples as (n, 1) columns; the objective and regions broadcast over them."""

    P: np.ndarray
    P1: np.ndarray
    Lambda: np.ndarray
    sigma2: np.ndarray


def _stack(params_list):
    return _Stack(*np.array([[p.P, p.P1, p.Lambda, p.sigma2] for p in params_list]).T[:, :, None])


# cap on rows x alpha points of one zoom; a longer stack runs in chunks of whole tuples
_CHUNK_ENTRIES = 1 << 17


def _program_max(stack, programs, opts):
    """(value, alpha, rho) of each program's maximum at each tuple of the stack.

    Every (program, tuple) pair is one row of a single row-wise zoom over
    alpha, program-major, run in chunks of at most _CHUNK_ENTRIES coarse grid
    entries.  Each array has shape (len(programs), n); an empty region gives
    (-inf, 0, 0).
    """
    coarse = opts.coarse
    size = max(1, _CHUNK_ENTRIES // (len(programs) * coarse))
    chunks = [_zoom_chunk(_Stack(*(c[lo:lo + size] for c in stack)), programs, coarse)
              for lo in range(0, len(stack.P), size)]
    return tuple(np.concatenate(part, axis=1) for part in zip(*chunks))


def _zoom_chunk(stack, programs, coarse):
    def values(A):
        A = np.broadcast_to(A, (len(programs) * len(stack.P), A.shape[1]))
        return np.concatenate([_best_rho(stack, a, region)[1]
                               for a, region in zip(np.split(A, len(programs)), programs)])

    alpha, value = zoom_grid_max_1d(values, 0.0, 1.0, coarse=coarse,
                                    rounds=REFINE_ROUNDS, points=REFINE_POINTS)
    alpha, value = alpha.reshape(len(programs), -1), value.reshape(len(programs), -1)
    rho = np.stack([_best_rho(stack, a[:, None], region)[0][:, 0]
                    for a, region in zip(alpha, programs)])
    empty = value == -np.inf
    return value, np.where(empty, 0.0, alpha), np.where(empty, 0.0, rho)


def _bounds(stack, opts):
    """det_code_bounds at each tuple of the stack, one column per tuple.

    Returns (rates, alpha, rho, feasible): rates (4, n) are random capacity,
    det lower, det upper and direct transmission; alpha and rho (3, n) the
    random, lower and upper splits; feasible (2, n) the lower and upper flags.
    """
    value, alpha, rho = _program_max(stack, (_LOWER, _UPPER, _SQUARE), opts)
    for inner, outer in ((0, 1), (1, 2)):       # lower in upper, upper in square
        take = value[inner] > value[outer]
        for arr in (value, alpha, rho):
            arr[outer] = np.where(take, arr[inner], arr[outer])
    feasible = value[:2] > -np.inf
    rates = np.vstack([value[2], np.where(feasible, value[:2], 0.0), _direct_rate(stack)[:, 0]])
    return rates, alpha[[2, 0, 1]], rho[[2, 0, 1]], feasible


def random_code_capacity(params: GaussianSfdParams, opts: GridOptions | None = None):
    """Shared-randomness capacity: max of the objective over the unit square.

    Returns (rate, PowerSplit).
    """
    value, alpha, rho = _program_max(_stack([params]), (_SQUARE,), opts or GridOptions())
    return float(value[0, 0]), PowerSplit(float(alpha[0, 0]), float(rho[0, 0]))


def det_code_bounds(params: GaussianSfdParams, opts: GridOptions | None = None) -> BoundsReport:
    """Deterministic-code lower/upper bounds plus the unconstrained maximum.

    Guarantees det_lower <= det_upper <= random_capacity exactly: the lower
    region lies inside the upper region, which lies inside the unit square, so
    each program takes the optimum of the program nested in it when that is
    larger.  An empty region reports rate 0 at split (0, 0).
    """
    rates, alpha, rho, feasible = _bounds(_stack([params]), opts or GridOptions())
    rc, lo, up, direct = (float(v) for v in rates[:, 0])
    splits = [PowerSplit(float(a), float(r)) for a, r in zip(alpha[:, 0], rho[:, 0])]
    return BoundsReport(random_capacity=rc, det_lower=lo, det_upper=up,
                        direct_transmission=direct, random_split=splits[0],
                        lower_split=splits[1], upper_split=splits[2],
                        lower_feasible=bool(feasible[0, 0]),
                        upper_feasible=bool(feasible[1, 0]))


def _direct_rate(params):
    return np.where(params.P > params.Lambda, _fg_arrays(params, 1.0, 0.0), 0.0)


def direct_transmission_rate(params: GaussianSfdParams) -> float:
    """Rate of ignoring the relay band: objective at (1, 0) when P > Lambda, else 0."""
    return float(_direct_rate(params))


def gavc_point_to_point(P: float, Lambda: float, sigma2: float):
    """Jammed point-to-point Gaussian channel: (random_rate, deterministic_rate).

    random_rate = 0.5*log2(1 + P/(sigma2+Lambda)); without shared randomness
    the rate survives exactly when Lambda < P, and collapses to 0 otherwise.
    """
    # written so that nan fails each check
    if not (np.isfinite([P, Lambda, sigma2]).all() and P >= 0 and Lambda > 0 and sigma2 > 0):
        raise GaussianParamError("need finite P >= 0 and Lambda, sigma2 > 0, got "
                                 f"P={P!r}, Lambda={Lambda!r}, sigma2={sigma2!r}")
    random_rate = float(_half_log2_1p(P / (sigma2 + Lambda)))
    det_rate = random_rate if Lambda < P else 0.0
    return random_rate, det_rate


def primitive_gaussian_capacity(P: float, Lambda: float, C1: float):
    """Capacity of the relay-over-a-bit-pipe variant: maximum over alpha of

        objective(alpha) = 0.5*log2(1 + alpha*P/Lambda)
                           + min(C1, 0.5*log2(1 + (1-alpha)*P/Lambda))

    in closed form.  The cap C1 binds for alpha <= alpha0 = 1 - Lambda*(2^(2*C1) - 1)/P,
    where the objective rises; above alpha0 it is concave and symmetric about
    1/2, so alpha* = min(1, max(1/2, alpha0)).

    Returns (rate, alpha_star).
    """
    if not C1 >= 0:
        raise GaussianParamError(f"C1 must be >= 0, got {C1!r}")
    if not (np.isfinite(P) and P >= 0):
        raise GaussianParamError(f"P must be finite and >= 0, got {P!r}")
    if not Lambda > 0:
        raise GaussianParamError(f"Lambda must be > 0, got {Lambda!r}")
    if P == 0.0:
        return 0.0, 0.0
    if _half_log2_1p(0.5 * P / Lambda) <= C1:      # alpha0 <= 1/2
        a = 0.5
    else:                                           # 1/2 < alpha0 <= 1
        a = 1.0 - Lambda * np.expm1(2.0 * C1 * LOG2) / P
    v = _half_log2_1p(a * P / Lambda) + min(C1, _half_log2_1p((1.0 - a) * P / Lambda))
    return float(v), float(a)


@dataclass(frozen=True)
class SweepRow:
    P: float
    random_capacity: float
    det_lower: float
    det_upper: float
    direct_transmission: float


def figure_sweep(p_values, Lambda: float, sigma2: float,
                 opts: GridOptions | None = None):
    """Bounds as a function of P with P1 = P; one SweepRow per requested P."""
    params = [GaussianSfdParams(P=float(p), P1=float(p), Lambda=Lambda, sigma2=sigma2)
              for p in p_values]
    if not params:
        raise GaussianParamError("empty sweep range")
    rates = _bounds(_stack(params), opts or GridOptions())[0]
    return [SweepRow(p.P, *(float(v) for v in col)) for p, col in zip(params, rates.T)]


def sweep_range(p_min: float, p_max: float, step: float):
    """Inclusive arithmetic grid from p_min to p_max."""
    for name, v in (("pmin", p_min), ("pmax", p_max), ("step", step)):
        if not np.isfinite(v):
            raise GaussianParamError(f"{name} must be finite, got {v!r}")
    if step <= 0:
        raise GaussianParamError("step must be > 0")
    if p_max < p_min:
        raise GaussianParamError("empty sweep range")
    count = np.floor((p_max - p_min) / step + 1e-9) + 1   # inf when the span overflows
    if count > MAX_SWEEP_POINTS:
        raise GaussianParamError(f"pmin {p_min!r} to pmax {p_max!r} at step {step!r} asks for "
                                 f"{count:.0f} points, above the cap of {MAX_SWEEP_POINTS}")
    return [p_min + i * step for i in range(int(count))]


def write_sweep_csv(rows, path):
    """CSV with 9 significant digits per value."""
    with open(path, "w") as fh:
        fh.write("P,random_capacity,det_lower,det_upper,direct_transmission\n")
        for r in rows:
            fh.write(",".join(f"{v:.9g}" for v in
                              (r.P, r.random_capacity, r.det_lower,
                               r.det_upper, r.direct_transmission)) + "\n")
