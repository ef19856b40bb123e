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

where the strict inequalities are implemented as >= with a margin relative
to Lambda + P (so the bounds, like F, depend on ratios of the powers only)
and an empty region yields rate 0 plus an infeasibility flag.  The cut gains
D1 - Lambda, E3 - sigma2 and E2 - Lambda (below) are stated once, in
`cut_gains`; F, both regions and `codec.achievable_rate_pair` read them.

Each program is solved at its KKT points.  In theta = rho*sqrt(alpha), with
E3 = sigma2 + (1-a)*P, E2 = Lambda + (a - theta^2)*P and
D1 = Lambda + P1 + a*P + 2*theta*sqrt(P*P1), F = 0.5*log2(min{D1/Lambda,
E3*E2/(sigma2*Lambda)}).  A maximum lies at a corner of a region, at a
stationary point of E3*E2 or a crossing of the two terms on a face, or at an
interior crossing where their gradients are opposite.  The 46 candidates
per tuple are those that can meet the KKT conditions (see `_candidates`),
each in closed form or a root of a polynomial of degree at most 5, found for
every tuple at once as companion-matrix eigenvalues.  The five root families
on the faces run as one array program (`_face_points`), with one eigensolve
per polynomial degree, so a chunk takes five eigensolves.  Each candidate is
scored by F and masked by each region, and each program keeps its best.  The
parameters may be (n, 1) columns: a sweep runs in chunks of whole tuples, and
each tuple comes out as it would alone.
"""

import math
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

LOG2 = np.log(2.0)

#: margin, relative to Lambda + P, implementing the strict inequalities of the lower region
FEASIBILITY_EPS = 1e-12

#: most P values one sweep may ask for; a P of a long sweep costs about 30 us on one
#: Xeon core (29 to 30 us over a 10^5-P sweep, 40% of it in the eigensolves and a
#: fifth in the parameter objects), so the cap is about half a minute of work, and
#: a larger count is refused before any is built
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
        if not all(math.isfinite(v) for v in (P, P1, Lam, s2)):
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


def cut_gains(params, A, R):
    """D1 - Lambda, E3 - sigma2 and E2 - Lambda at alpha = A, rho = R: the power
    each cut carries above its noise."""
    P, P1 = params.P, params.P1
    return P1 + A * P + 2.0 * R * np.sqrt(A * P * P1), (1.0 - A) * P, (1.0 - R * R) * A * P


def cut_rates(params, gains):
    """0.5*log2 of D1/Lambda, E3/sigma2 and E2/Lambda from the cut gains; the
    objective is min{first, second + third}."""
    d1, e3, e2 = gains
    return (_half_log2_1p(d1 / params.Lambda), _half_log2_1p(e3 / params.sigma2),
            _half_log2_1p(e2 / params.Lambda))


def f_g(params: GaussianSfdParams, split: PowerSplit) -> float:
    """Evaluate the min-of-two-rates objective at one power split."""
    return float(_score(params, split.alpha, split.rho)[0])


def _score(params, A, R):
    """(objective, lower mask, upper mask) at alpha A and rho R, arrays of one
    shape or floats.

    c1 fails wherever P <= Lambda, so c2's P1/P, which divides by 0 or
    overflows at a subnormal P, is harmless there.
    """
    P, P1, Lam = params.P, params.P1, params.Lambda
    eps = FEASIBILITY_EPS * (Lam + P)
    gains = d1, _, e2 = cut_gains(params, A, R)
    r1, r3, r2 = cut_rates(params, gains)
    c1 = e2 >= Lam + eps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c2 = np.divide(P1, P) * (np.sqrt(P1) + R * np.sqrt(A * P)) ** 2 >= Lam + e2 + eps
    return np.minimum(r1, r3 + r2), c1 & c2, d1 >= Lam


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


def _face_points(stack, faces):
    """The root families on faces alpha = a(t), theta = t, as one array program.

    faces lists (a, degree, stationary) per family: a holds the quadratic's
    coefficient rows, and the family is the roots of a polynomial of that true
    degree, the crossings sigma2*D1 = E3*E2, or E3*E2's stationary points if
    `stationary`.  The families are stacked as row blocks and every step runs
    once over all of them, save the two that depend on the degree: each run
    of families of one degree is solved by one eigensolve at its own
    companion size, and its polynomial's derivative is evaluated once.  Each
    root in [0, 1] is kept as found and after one Newton step on the residual
    in its unexpanded form.  Returns (alpha, theta) with each family's roots,
    then its stepped roots, family after family.
    """
    n, width = len(stack.P), max(degree for _, degree, _ in faces)
    rows = _Stack(*np.tile(np.hstack(stack), (len(faces), 1)).T[:, :, None])
    P, P1, Lam, s2 = rows
    a = np.concatenate([a for a, _, _ in faces])
    stationary = np.repeat([st for _, _, st in faces], n)[:, None]
    e3 = _poly(-P * a[:, :2], s2 + P - P * a[:, 2:])
    e2 = _poly(P * a[:, :1] - P, P * a[:, 1:2], Lam + P * a[:, 2:])
    d1 = _poly(P * a[:, :1], P * a[:, 1:2] + 2.0 * np.sqrt(P * P1), Lam + P1 + P * a[:, 2:])
    prod = _polymul(e3, e2)
    polys = _poly(-prod[:, :2], s2 * d1 - prod[:, 2:]), _polyder(prod)
    # one block of rows and coefficients per run of families of one degree;
    # the roots sit in the first `degree` columns of t, the rest stay 0
    blocks = [(degree, polys[st][f * n:(f + 1) * n, -degree - 1:])
              for f, (_, degree, st) in enumerate(faces)]
    t, groups, lo = np.zeros((len(a), width)), [], 0
    for degree, run in groupby(blocks, key=lambda block: block[0]):
        coef = np.concatenate([c for _, c in run])
        block, cols = slice(lo, lo + len(coef)), slice(0, degree)
        t[block, cols] = np.clip(_roots(coef), 0.0, 1.0)
        groups.append((block, cols, coef))
        lo += len(coef)
    D1, E3, E2 = _cuts(rows, _polyval(a, t), t)
    da = _polyval(_polyder(a), t)
    r = np.where(stationary, P * (E3 * (da - 2.0 * t) - da * E2), s2 * D1 - E3 * E2)
    step = np.zeros_like(t)
    for block, cols, coef in groups:
        step[block, cols] = r[block, cols] / _polyval(_polyder(coef), t[block, cols])
    t = np.concatenate([t, np.clip(t - step, 0.0, 1.0)], axis=1)
    # back to one row per tuple: each family's roots, then its stepped roots
    keep = [f * 2 * width + j for f, (_, degree, _) in enumerate(faces)
            for j in (*range(degree), *range(width, width + degree))]
    return tuple(x.reshape(len(faces), n, 2 * width).transpose(1, 0, 2).reshape(n, -1)[:, keep]
                 for x in (_polyval(a, t), t))


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
    first; F's second term f2's own maximum alpha0 on theta = 0; the ends c1
    (alpha = theta^2 + c) & theta = 0, the upper cut (D1 = 2*Lambda + m) &
    alpha = 1 and & rho = 1, c2 (alpha = h(theta)) & alpha = 1, and c1 & c2;
    the crossings f1 = f2 on rho = 1, c1 and c2; E3*E2's stationary points on
    the cut and c2; and the interior crossings.  A point that is not finite
    becomes (0, 0) and the rest are clipped to the unit square, so each is a split.

    Five families are left out: no maximum meets the KKT conditions there (multipliers >= 0).
    - theta = 0, the crossings: df1/dtheta > 0 = df2/dtheta there, so for P*P1 > 0 the theta
      row forces lambda1 = 0, leaving alpha0; for P1 = 0, f2 > f1 on theta = 0 save at (1, 0).
    - the cut, the crossings: grad f1 lies along the cut's normal, so KKT puts grad f2 along it
      too, and the point is a stationary point of E3*E2 on the cut.
    - the ends cut & theta = 0 and c2 & theta = 0: their normals' theta parts, 2*sqrt(P*P1)
      and h'(0) = 2*s^3, have the sign of theta >= 0's multiplier, so again alpha0.
    - the end c1 & alpha = 1: there D1 - E2 = (sqrt(P1) + theta*sqrt(P))^2 >= 0, so F = f2,
      which falls as theta grows, and c1 caps theta, so this end is F's least on that face.
    """
    alpha0 = (stack.sigma2 + stack.P - stack.Lambda) / (2.0 * stack.P)   # f2's own maximum
    # the other points depend on ratios of the powers only, so they are found
    # in units of Lambda + sigma2 + P, where no polynomial coefficient overflows
    unit = stack.Lambda + stack.sigma2 + stack.P
    m = 4.0 * FEASIBILITY_EPS * (stack.Lambda + stack.P) / unit
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
        (_poly(alpha0, c), zero),
        (one, _poly((c0 - 1.0) / (2.0 * s), _roots(h - _poly(zero, zero, one)))),
        (_poly(t_cut * t_cut, t_c1c2 * t_c1c2 + c), _poly(t_cut, t_c1c2)),
        _face_points(stack, [(_poly(one, zero, zero), 2, False),     # rho = 1, t = sqrt(alpha)
                             (_poly(zero, -2.0 * s, c0), 2, True),   # the upper cut
                             (_poly(one, zero, c), 2, False),        # c1
                             (h, 4, False),                          # c2
                             (h, 3, True)]),
        _interior_points(stack),
    ]
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
    vals, lower, upper = _score(stack, A, R)
    value = np.stack([np.where(lower, vals, -np.inf), np.where(upper, vals, -np.inf), vals])
    k, rows = value.argmax(axis=2), np.arange(len(A))
    best = value.max(axis=2)
    empty = best == -np.inf
    return best, np.where(empty, 0.0, A[rows, k]), np.where(empty, 0.0, R[rows, k])


def _bounds(stack):
    """det_code_bounds at each tuple of the stack, one column per tuple.

    Returns (rates, alpha, rho, feasible): rates (4, n) are random capacity,
    det lower, det upper and direct transmission (the relay band ignored: the
    objective at (1, 0) when P > Lambda, else 0); alpha and rho (3, n) the
    random, lower and upper splits; feasible (2, n) the lower and upper flags.
    """
    value, alpha, rho = (np.concatenate(part, axis=1) for part in zip(*(
        _kkt_max(_Stack(*(c[lo:lo + _CHUNK_TUPLES] for c in stack)))
        for lo in range(0, len(stack.P), _CHUNK_TUPLES))))
    feasible = value[:2] > -np.inf
    direct = np.where(stack.P > stack.Lambda, _score(stack, 1.0, 0.0)[0], 0.0)
    rates = np.vstack([value[2], np.where(feasible, value[:2], 0.0), direct[:, 0]])
    return rates, alpha[[2, 0, 1]], rho[[2, 0, 1]], feasible


def random_code_capacity(params: GaussianSfdParams):
    """Shared-randomness capacity: max of the objective over the unit square.

    Returns (rate, PowerSplit).
    """
    report = det_code_bounds(params)
    return report.random_capacity, report.random_split


def det_code_bounds(params: GaussianSfdParams) -> BoundsReport:
    """Deterministic-code lower/upper bounds plus the unconstrained maximum.

    Guarantees det_lower <= det_upper <= random_capacity exactly: the three
    programs score one candidate set, and on it the lower region lies inside
    the upper region, which lies inside the unit square.  That holds in
    floating point too: the lower region's (1-rho^2)*a*P >= Lambda + eps
    implies a*P >= Lambda, and so the upper region's inequality, because
    rounding is monotone and every term is >= 0.  An empty region reports
    rate 0 at split (0, 0).
    """
    rates, alpha, rho, feasible = _bounds(_stack([params]))
    rc, lo, up, direct = (float(v) for v in rates[:, 0])
    splits = [PowerSplit(float(a), float(r)) for a, r in zip(alpha[:, 0], rho[:, 0])]
    return BoundsReport(random_capacity=rc, det_lower=lo, det_upper=up,
                        direct_transmission=direct, random_split=splits[0],
                        lower_split=splits[1], upper_split=splits[2],
                        lower_feasible=bool(feasible[0, 0]),
                        upper_feasible=bool(feasible[1, 0]))


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
    return [SweepRow(p.P, *col) for p, col in zip(params, rates.T.tolist())]


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
