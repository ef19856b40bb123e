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

Each program is solved at its KKT points.  In theta = rho*sqrt(alpha), with
E3 = sigma2 + (1-a)*P, E2 = Lambda + (a - theta^2)*P and
D1 = Lambda + P1 + a*P + 2*theta*sqrt(P*P1), F = 0.5*log2(min{D1/Lambda,
E3*E2/(sigma2*Lambda)}).  A maximum lies at a corner of a region, at a
stationary point of E3*E2 or a crossing of the two terms on a face, or at an
interior crossing where their gradients are opposite; each is a root of a
polynomial of degree at most 5, found for every tuple at once as
companion-matrix eigenvalues.  Each candidate is scored by F and masked by
each region, and each program keeps its best.  The parameters may be (n, 1)
columns: a sweep runs in chunks of whole tuples, and each tuple comes out as
it would alone.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LOG2 = np.log(2.0)

#: margin used to implement the strict inequalities of the lower-bound region
FEASIBILITY_EPS = 1e-12

#: most P values one sweep may ask for; a P costs about 60 us on one Xeon core,
#: so the cap is about a minute of work, and a larger count is refused before any is built
MAX_SWEEP_POINTS = 10**6


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
        P, P1, Lam, s2 = (float(v) for v in (self.P, self.P1, self.Lambda, self.sigma2))
        if not all(np.isfinite(v) for v in (P, P1, Lam, s2)):
            raise GaussianParamError("all parameters must be finite")
        if P < 0 or P1 < 0:
            raise GaussianParamError("P and P1 must be >= 0")
        if Lam <= 0 or s2 <= 0:
            raise GaussianParamError("Lambda and sigma2 must be > 0")
        root = P ** 0.5 + P1 ** 0.5
        # the objective's largest terms; past the float range it reads nan
        if max(P * P1, root * root / Lam, P / s2) == float("inf"):
            raise GaussianParamError(f"P={P!r}, P1={P1!r}, Lambda={Lam!r}, sigma2={s2!r} "
                                     "overflow the objective")


@dataclass(frozen=True)
class PowerSplit:
    """Optimization variables: destination power share alpha, correlation rho."""

    alpha: float
    rho: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.rho <= 1.0):
            raise GaussianParamError("alpha and rho must lie in [0, 1]")


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
    """c1 fails wherever P <= Lambda, so c2's P1/P, which divides by 0 or overflows
    at a subnormal P, is harmless there."""
    P, P1, Lam = params.P, params.P1, params.Lambda
    c1 = (1.0 - R * R) * A * P >= Lam + FEASIBILITY_EPS
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c2 = (np.divide(P1, P) * (np.sqrt(P1) + R * np.sqrt(A * P)) ** 2
              >= Lam + (1.0 - R * R) * A * P + FEASIBILITY_EPS)
    return c1 & c2


def _upper_mask(params, A, R):
    P, P1, Lam = params.P, params.P1, params.Lambda
    return P1 + A * P + 2.0 * R * np.sqrt(A * P * P1) >= Lam


class _Stack(NamedTuple):
    """Parameter tuples as (n, 1) columns; the objective and regions broadcast over them."""

    P: np.ndarray
    P1: np.ndarray
    Lambda: np.ndarray
    sigma2: np.ndarray


def _stack(params_list):
    return _Stack(*np.array([[p.P, p.P1, p.Lambda, p.sigma2] for p in params_list]).T[:, :, None])


# tuples of one candidate pass; a longer stack runs in chunks of whole tuples
_CHUNK_TUPLES = 1 << 10


def _poly(*coefs):
    """Coefficient rows, highest power first, from (n, j) blocks of columns."""
    return np.concatenate(coefs, axis=1)


def _polymul(a, b):
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, i:i + 1] * b
    return out


def _polyval(coef, t):
    out = np.broadcast_to(coef[:, :1], t.shape)
    for i in range(1, coef.shape[1]):
        out = out * t + coef[:, i:i + 1]
    return out


def _polyder(coef):
    return coef[:, :-1] * np.arange(coef.shape[1] - 1, 0, -1)


def _roots(coef):
    """Real parts of the roots of each coefficient row, as companion-matrix eigenvalues.

    Each row is scaled to unit max norm.  A leading coefficient below 1e-13 is
    raised to that floor, which sends the lost root past 1e13, and a row that
    is not finite gives zeros.  A complex root keeps its real part: every root
    is only a candidate.
    """
    coef = coef / np.abs(coef).max(axis=1, keepdims=True)
    lead = np.where(np.abs(coef[:, :1]) > 1e-13, coef[:, :1], 1e-13)
    d = coef.shape[1] - 1
    comp = np.zeros((len(coef), d, d))
    comp[:, 0, :] = -coef[:, 1:] / lead
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[~np.isfinite(comp).all(axis=(1, 2))] = 0.0
    return np.linalg.eigvals(comp).real


def _cuts(stack, A, T):
    """D1, E3 and E2 at alpha = A, theta = rho*sqrt(alpha) = T."""
    P, P1, Lam, s2 = stack
    return (Lam + P1 + A * P + 2.0 * T * np.sqrt(P * P1),
            s2 + (1.0 - A) * P, Lam + (A - T * T) * P)


def _face_points(stack, a, b, degrees):
    """Crossings and E3*E2's stationary points on the face alpha = a(t), theta = b*t.

    a holds the quadratic's coefficient rows and b is 0 or 1; degrees gives the
    true degree of the crossing polynomial sigma2*D1 - E3*E2 and, if the
    stationary points are wanted, of theirs.  Each root in [0, 1] is kept as
    found and after one Newton step on the residual in its unexpanded form.
    """
    P, P1, Lam, s2 = stack
    e3 = _poly(-P * a[:, :2], s2 + P - P * a[:, 2:])
    e2 = _poly(P * a[:, :1] - b * P, P * a[:, 1:2], Lam + P * a[:, 2:])
    d1 = _poly(P * a[:, :1], P * a[:, 1:2] + 2.0 * b * np.sqrt(P * P1), Lam + P1 + P * a[:, 2:])
    prod = _polymul(e3, e2)
    points = []
    for poly, degree, stationary in zip((_poly(-prod[:, :2], s2 * d1 - prod[:, 2:]),
                                         _polyder(prod)), degrees, (False, True)):
        poly = poly[:, -degree - 1:]
        t = np.clip(_roots(poly), 0.0, 1.0)
        D1, E3, E2 = _cuts(stack, _polyval(a, t), b * t)
        if stationary:
            da = _polyval(_polyder(a), t)
            r = P * (E3 * (da - 2.0 * b * t) - da * E2)
        else:
            r = s2 * D1 - E3 * E2
        points += [t, np.clip(t - r / _polyval(_polyder(poly), t), 0.0, 1.0)]
    t = np.concatenate(points, axis=1)
    return _polyval(a, t), b * t


def _interior_points(stack):
    """Interior crossings where the gradients of the two cuts are opposite.

    With e = E3 and K = Lambda + sigma2 + P, stationarity reads
    s*P*theta^2 + e*theta - s*(K - 2e) = 0 and the crossing
    sigma2*D1 = E3*E2; eliminating theta leaves the quintic
    P1*n^2 + e*n*D - (K - 2e)*D^2 with n = sigma2*(K + P1 - e) - e^2 and
    D = e^2 - 2*sigma2*P1, solved in e/K.  theta comes from the quadratic; each
    point is kept as found and after one Newton step on the 2x2 system.
    """
    P, P1, Lam, s2 = stack
    K = Lam + s2 + P
    s = np.sqrt(P1 / P)
    zero = np.zeros_like(P)
    n = _poly(-K * K, -s2 * K, s2 * (K + P1))
    D = _poly(K * K, zero, -2.0 * s2 * P1)
    q = _polymul(_polymul(_poly(K, zero), n), D)
    q[:, 1:] += P1 * _polymul(n, n)
    q -= _polymul(_poly(-2.0 * K, K), _polymul(D, D))
    e = np.clip(K * _roots(q), s2, s2 + P)
    A = (s2 + P - e) / P
    T = np.maximum(2.0 * s * (K - 2.0 * e)
                   / (e + np.sqrt(np.maximum(e * e + 4.0 * P1 * (K - 2.0 * e), 0.0))), 0.0)
    D1, E3, E2 = _cuts(stack, A, T)
    g1, g2 = s2 * D1 - E3 * E2, T * E3 - s * (E2 - E3)
    j11, j12 = P * (s2 + E2 - E3), 2.0 * P * (s2 * s + T * E3)
    j21, j22 = -P * (T + 2.0 * s), E3 + 2.0 * s * P * T
    det = j11 * j22 - j12 * j21
    return (np.concatenate([A, A - (j22 * g1 - j12 * g2) / det], axis=1),
            np.concatenate([T, T - (j11 * g2 - j21 * g1) / det], axis=1))


def _candidates(stack):
    """(alpha, rho) rows of the candidate maxima of every program at each tuple.

    They are the KKT points of each face of each region, in theta = rho*sqrt(alpha),
    with the region's curves drawn at the margin m: the corners, with (0, 0)
    first; f2's own maximum on theta = 0; the ends of the upper cut
    D1 = 2*Lambda + m and of the lower boundaries alpha = theta^2 + c (c1) and
    alpha = h(theta) (c2); the crossings and E3*E2's stationary points on each
    face; and the interior crossings.  A point that is not finite becomes (0, 0)
    and the rest are clipped to the unit square, so each is a feasible split.
    """
    alpha0 = (stack.sigma2 + stack.P - stack.Lambda) / (2.0 * stack.P)   # f2's own maximum
    # the other points depend on ratios of the powers only, so they are found
    # in units of Lambda + sigma2 + P, where no polynomial coefficient overflows
    unit = stack.Lambda + stack.sigma2 + stack.P
    m = 4.0 * FEASIBILITY_EPS * (1.0 + stack.Lambda + stack.P) / unit
    stack = _Stack(*(col / unit for col in stack))
    P, P1, Lam, s2 = stack
    s = np.sqrt(P1 / P)
    c = (Lam + m) / P                     # c1: alpha >= theta^2 + c
    c0 = (Lam + m - P1) / P               # the cut: alpha = c0 - 2*s*theta
    zero, one = np.zeros_like(P), np.ones_like(P)
    h = _poly(s * s + 1.0, 2.0 * s ** 3, s ** 4 - c)     # c2: alpha <= h(theta)
    t_cut = (np.sqrt(Lam + m) - np.sqrt(P1)) / np.sqrt(P)     # the cut meets rho = 1
    t_c1c2 = np.sqrt(2.0 * (Lam + m) / P1) - s                 # c1 meets c2
    points = [
        (_poly(zero, one, one), _poly(zero, zero, one)),
        (_poly(alpha0, c0, c, h[:, 2:]), zero),
        (one, _poly((c0 - 1.0) / (2.0 * s), np.sqrt(1.0 - c), _roots(h - _poly(zero, zero, one)))),
        (_poly(t_cut * t_cut, t_c1c2 * t_c1c2 + c), _poly(t_cut, t_c1c2)),
    ]
    for a, b, degrees in ((_poly(zero, one, zero), 0.0, (2,)),        # theta = 0
                          (_poly(one, zero, zero), 1.0, (2,)),        # rho = 1, t = sqrt(alpha)
                          (_poly(zero, -2.0 * s, c0), 1.0, (3, 2)),   # the upper cut
                          (_poly(one, zero, c), 1.0, (2,)),           # c1
                          (h, 1.0, (4, 3))):                          # c2
        points.append(_face_points(stack, a, b, degrees))
    points.append(_interior_points(stack))
    A, T = (np.concatenate(part, axis=1) for part in
            zip(*(np.broadcast_arrays(a, t) for a, t in points)))
    ok = np.isfinite(A) & np.isfinite(T)
    A = np.where(ok, np.clip(A, 0.0, 1.0), 0.0)
    root = np.sqrt(A)
    return A, np.where(ok & (A > 0.0), np.clip(T, 0.0, root) / root, 0.0)


def _kkt_max(stack):
    """(value, alpha, rho) of the lower, upper and square maxima at each tuple.

    Every candidate is scored by the objective and masked by each region; the
    first best candidate wins.  Each array has shape (3, n); an empty region
    gives (-inf, 0, 0).
    """
    with np.errstate(all="ignore"):
        A, R = _candidates(stack)
    vals = _fg_arrays(stack, A, R)
    value = np.stack([np.where(_lower_mask(stack, A, R), vals, -np.inf),
                      np.where(_upper_mask(stack, A, R), vals, -np.inf), vals])
    k, rows = value.argmax(axis=2), np.arange(len(A))
    best = value.max(axis=2)
    empty = best == -np.inf
    return best, np.where(empty, 0.0, A[rows, k]), np.where(empty, 0.0, R[rows, k])


def _bounds(stack):
    """det_code_bounds at each tuple of the stack, one column per tuple.

    Returns (rates, alpha, rho, feasible): rates (4, n) are random capacity,
    det lower, det upper and direct transmission; alpha and rho (3, n) the
    random, lower and upper splits; feasible (2, n) the lower and upper flags.
    """
    value, alpha, rho = (np.concatenate(part, axis=1) for part in zip(*(
        _kkt_max(_Stack(*(c[lo:lo + _CHUNK_TUPLES] for c in stack)))
        for lo in range(0, len(stack.P), _CHUNK_TUPLES))))
    for inner, outer in ((0, 1), (1, 2)):       # lower in upper, upper in square
        take = value[inner] > value[outer]
        for arr in (value, alpha, rho):
            arr[outer] = np.where(take, arr[inner], arr[outer])
    feasible = value[:2] > -np.inf
    rates = np.vstack([value[2], np.where(feasible, value[:2], 0.0), _direct_rate(stack)[:, 0]])
    return rates, alpha[[2, 0, 1]], rho[[2, 0, 1]], feasible


def random_code_capacity(params: GaussianSfdParams):
    """Shared-randomness capacity: max of the objective over the unit square.

    Returns (rate, PowerSplit).
    """
    report = det_code_bounds(params)
    return report.random_capacity, report.random_split


def det_code_bounds(params: GaussianSfdParams) -> BoundsReport:
    """Deterministic-code lower/upper bounds plus the unconstrained maximum.

    Guarantees det_lower <= det_upper <= random_capacity exactly: the lower
    region lies inside the upper region, which lies inside the unit square, so
    each program takes the optimum of the program nested in it when that is
    larger.  An empty region reports rate 0 at split (0, 0).
    """
    rates, alpha, rho, feasible = _bounds(_stack([params]))
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


def figure_sweep(p_values, Lambda: float, sigma2: float):
    """Bounds as a function of P with P1 = P; one SweepRow per requested P."""
    params = [GaussianSfdParams(P=float(p), P1=float(p), Lambda=Lambda, sigma2=sigma2)
              for p in p_values]
    if not params:
        raise GaussianParamError("empty sweep range")
    rates = _bounds(_stack(params))[0]
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
