import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avrc import gaussian
from avrc.cli import write_csv
from avrc.gaussian import (
    _score,
    GaussianParamError,
    GaussianSfdParams,
    PowerSplit,
    det_code_bounds,
    f_g,
    figure_sweep,
    gavc_point_to_point,
    primitive_gaussian_capacity,
    random_code_capacity,
    sweep_range,
)
from zoom_oracle import LOWER, SQUARE, UPPER, best_rho, oracle_max

# Frozen by an independent oracle: for each alpha the objective along rho is
# the min of an increasing and a decreasing term, so its max sits at the term
# crossing (located by 200-step bisection) or an endpoint; a 2001-point scan
# plus golden section over alpha then yields the square maximum to ~1e-12.
ORACLE_MAX = {
    (4.0, 4.0, 1.0, 0.5): 1.7283435996644525,
    (8.0, 8.0, 1.0, 0.5): 2.280836721137893,
    (10.0, 10.0, 1.0, 0.5): 2.459765657709889,
    (2.0, 1e4, 0.4, 0.5): 1.697016947683891,
}


def test_param_validation():
    with pytest.raises(GaussianParamError):
        GaussianSfdParams(P=-1, P1=1, Lambda=1, sigma2=1)
    with pytest.raises(GaussianParamError):
        GaussianSfdParams(P=1, P1=1, Lambda=0, sigma2=1)
    with pytest.raises(GaussianParamError):
        GaussianSfdParams(P=np.inf, P1=1, Lambda=1, sigma2=1)
    with pytest.raises(GaussianParamError):
        PowerSplit(alpha=1.2, rho=0)
    # finite inputs whose products overflow the objective
    for bad in [(1e300, 1e300, 1, 1), (1e300, 0, 1e-300, 1), (1e300, 0, 1, 1e-300)]:
        with pytest.raises(GaussianParamError, match="overflow the objective"):
            GaussianSfdParams(*bad)


def test_objective_hand_values():
    p = GaussianSfdParams(1, 1, 1, 0.5)
    assert f_g(p, PowerSplit(1, 1)) == 0.0
    assert abs(f_g(p, PowerSplit(1, 0)) - 0.5) < 1e-12      # min(0.5*log2 3, 0.5*log2 2)
    assert abs(f_g(p, PowerSplit(0, 0)) - 0.5) < 1e-12      # min(0.5*log2 2, 0.5*log2 3)


def test_objective_nonnegative_and_rho_one_structure():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = GaussianSfdParams(*rng.uniform(0.1, 5, 2), *rng.uniform(0.1, 3, 2))
        a = float(rng.uniform(0, 1))
        v = f_g(p, PowerSplit(a, 1.0))
        # at rho = 1 the second term collapses to the relay-link log alone
        expected_second = 0.5 * np.log2(1 + (1 - a) * p.P / p.sigma2)
        first = 0.5 * np.log2(1 + (p.P1 + a * p.P + 2 * np.sqrt(a * p.P * p.P1)) / p.Lambda)
        assert v >= 0.0
        assert abs(v - min(first, expected_second)) < 1e-12
    assert f_g(GaussianSfdParams(2, 3, 1, 1), PowerSplit(1, 1)) == 0.0


def test_random_code_capacity_zero_power():
    v, split = random_code_capacity(GaussianSfdParams(0, 5, 1, 0.5))
    assert v == 0.0


@pytest.mark.parametrize("key", sorted(ORACLE_MAX))
def test_random_code_capacity_matches_oracle(key):
    v, _ = random_code_capacity(GaussianSfdParams(*key))
    assert abs(v - ORACLE_MAX[key]) < 1e-12


def test_large_relay_power_regime_is_the_interior_maximum():
    # with a huge relay budget the first min-term is slack everywhere and the
    # square maximum is the interior peak of the second term, not its (1,0)
    # corner value 0.5*log2(1 + P/Lambda)
    v, split = random_code_capacity(GaussianSfdParams(2, 1e4, 0.4, 0.5))
    corner = 0.5 * np.log2(1 + 2 / 0.4)
    assert v > corner + 0.4
    # the second term's own maximum on rho = 0, in closed form
    assert split.alpha == (0.5 + 2 - 0.4) / (2 * 2) and split.rho == 0.0


def test_det_bounds_empty_regions():
    rep = det_code_bounds(GaussianSfdParams(0.2, 0.2, 1, 0.5))
    assert rep.det_upper == 0.0 and not rep.upper_feasible    # 4P = 0.8 < Lambda
    assert rep.det_lower == 0.0 and not rep.lower_feasible
    rep = det_code_bounds(GaussianSfdParams(0.5, 0.5, 1, 0.5))
    assert rep.det_lower == 0.0 and not rep.lower_feasible    # (1-rho^2) a P <= P < Lambda


def test_det_bounds_coincide_at_high_power():
    rep = det_code_bounds(GaussianSfdParams(10, 10, 1, 0.5))
    assert rep.lower_feasible and rep.upper_feasible
    assert abs(rep.det_lower - rep.random_capacity) < 1e-6
    assert abs(rep.det_upper - rep.random_capacity) < 1e-6
    assert abs(rep.random_capacity - ORACLE_MAX[(10.0, 10.0, 1.0, 0.5)]) < 1e-12


def test_bounds_ordering_randomized():
    rng = np.random.default_rng(11)
    for _ in range(25):
        params = GaussianSfdParams(float(rng.uniform(0, 6)), float(rng.uniform(0, 6)),
                                   float(rng.uniform(0.2, 3)), float(rng.uniform(0.1, 2)))
        rep = det_code_bounds(params)
        assert rep.det_lower <= rep.det_upper + 1e-9
        assert rep.det_upper <= rep.random_capacity + 1e-9


def test_capacity_monotonicity():
    base = dict(P=2.0, P1=2.0, Lambda=1.0, sigma2=0.5)
    v0, _ = random_code_capacity(GaussianSfdParams(**base))
    up_p, _ = random_code_capacity(GaussianSfdParams(**{**base, "P": 3.0}))
    up_p1, _ = random_code_capacity(GaussianSfdParams(**{**base, "P1": 3.0}))
    up_lam, _ = random_code_capacity(GaussianSfdParams(**{**base, "Lambda": 2.0}))
    assert up_p >= v0 - 1e-9
    assert up_p1 >= v0 - 1e-9
    assert up_lam <= v0 + 1e-9


def test_point_to_point_dichotomy():
    r, d = gavc_point_to_point(1, 2, 0.5)
    assert d == 0.0
    r, d = gavc_point_to_point(1, 0.5, 0.5)
    assert abs(r - 0.5) < 1e-12 and d == r
    r, _ = gavc_point_to_point(1.0, 1e-9, 1.0)
    assert abs(r - 0.5 * np.log2(2)) < 1e-8
    # a non-finite input is refused rather than carried into the rates as nan or inf
    nan, inf = float("nan"), float("inf")
    for bad in [(nan, 1, 1), (1, nan, 1), (1, 1, nan), (inf, 1, 1), (1, inf, 1), (1, 1, inf),
                (-1, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(GaussianParamError, match="need finite P >= 0"):
            gavc_point_to_point(*bad)


def test_primitive_capacity_examples():
    v, a = primitive_gaussian_capacity(0, 1, 1)
    assert v == 0.0
    v, a = primitive_gaussian_capacity(2, 1, 10)
    assert abs(v - 1.0) < 1e-9 and abs(a - 0.5) < 1e-5
    v, a = primitive_gaussian_capacity(1, 1, 0)
    assert abs(v - 0.5) < 1e-9 and abs(a - 1.0) < 1e-6


@pytest.mark.parametrize("P, Lambda, C1", [
    (2, 1, float("nan")), (2, 1, -1), (-1, 1, 1), (float("nan"), 1, 1),
    (float("inf"), 1, 1), (2, 0, 1), (2, -1, 1), (2, float("nan"), 1),
])
def test_primitive_capacity_rejects_bad_inputs(P, Lambda, C1):
    with pytest.raises(GaussianParamError):
        primitive_gaussian_capacity(P, Lambda, C1)


def test_figure_sweep_rows(tmp_path):
    rows = figure_sweep([0.05, 0.1, 0.2], 1.0, 0.5)
    assert all(r.det_upper == 0.0 for r in rows)              # all P < Lambda/4
    assert all(r.direct_transmission == 0.0 for r in rows)    # all P <= Lambda
    rows = figure_sweep([1.0], 1.0, 0.5)
    assert len(rows) == 1
    with pytest.raises(GaussianParamError):
        figure_sweep([], 1.0, 0.5)
    path = tmp_path / "sweep.csv"
    write_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "P,random_capacity,det_lower,det_upper,direct_transmission"
    assert len(lines) == 2


def test_sweep_range_inclusive():
    vals = sweep_range(0.05, 0.2, 0.05)
    assert np.allclose(vals, [0.05, 0.1, 0.15, 0.2])
    with pytest.raises(GaussianParamError):
        sweep_range(1.0, 2.0, 0.0)


def test_sweep_range_refuses_a_count_over_the_cap_before_building_it():
    cap = gaussian.MAX_SWEEP_POINTS
    assert len(sweep_range(0.0, cap - 1.0, 1.0)) == cap
    with pytest.raises(GaussianParamError, match=f"asks for {cap + 1} points, above the cap"):
        sweep_range(0.0, float(cap), 1.0)
    # a span that overflows to inf is refused too, rather than raising OverflowError
    with pytest.raises(GaussianParamError, match="asks for inf points"):
        sweep_range(-1e308, 1e308, 1e-300)
    # criterion 01's sweep keeps its values
    assert sweep_range(0.05, 8.0, 0.05) == [0.05 + i * 0.05 for i in range(160)]


def test_direct_transmission_threshold():
    assert det_code_bounds(GaussianSfdParams(1.0, 1.0, 1.0, 0.5)).direct_transmission == 0.0
    v = det_code_bounds(GaussianSfdParams(2.0, 2.0, 1.0, 0.5)).direct_transmission
    assert abs(v - f_g(GaussianSfdParams(2, 2, 1, 0.5), PowerSplit(1, 0))) < 1e-15


def test_closed_form_rho_beats_dense_scan():
    # the zoom oracle's rho at each alpha against a 2001-point rho scan of the
    # objective, masked by the region
    rng = np.random.default_rng(29)
    scan = np.linspace(0.0, 1.0, 2001)
    hits = {"square": 0, "upper": 0, "lower": 0}
    for _ in range(300):
        params = GaussianSfdParams(float(rng.uniform(0, 6)), float(rng.uniform(0, 6)),
                                   float(rng.uniform(0.2, 3)), float(rng.uniform(0.1, 2)))
        a = float(rng.uniform(0, 1))
        A = np.full_like(scan, a)
        for name, region in (("square", SQUARE), ("upper", UPPER), ("lower", LOWER)):
            mask = region[0]   # the index of the region's mask in _score's output
            R, v = best_rho(params, np.array([a]), region)
            score = _score(params, A, scan)
            vals = score[0] if mask is None else np.where(score[mask], score[0], -np.inf)
            if np.isfinite(v[0]):
                assert mask is None or _score(params, np.array([a]), R)[mask][0]
                assert abs(v[0] - f_g(params, PowerSplit(a, float(R[0])))) < 1e-15
            assert v[0] >= vals.max() - 1e-12
            hits[name] += bool(np.isfinite(vals.max()))
    assert min(hits.values()) >= 50          # every region was exercised


# det_lower where its optimum sits on the edge of the lower region, as
# computed by the former 2-D grid, zoom and ridge-polish optimizer
LOWER_EDGE_VALUES = {
    (0.9091, 0.9091, 0.764152, 0.0811929): 0.9241460633,
    (3.32489, 3.32489, 2.93175, 0.175601): 0.6327818489,
    (1.24947, 1.24947, 1.0, 0.5): 0.7020233917,
}


@pytest.mark.parametrize("key", sorted(LOWER_EDGE_VALUES))
def test_det_lower_on_the_region_edge(key):
    rep = det_code_bounds(GaussianSfdParams(*key))
    assert rep.lower_feasible
    assert abs(rep.det_lower - LOWER_EDGE_VALUES[key]) < 1e-6
    assert _score(GaussianSfdParams(*key), np.asarray(rep.lower_split.alpha),
                  np.asarray(rep.lower_split.rho))[1]


def _primitive_objective(alpha, P, Lam, C1):
    return (0.5 * np.log2(1 + alpha * P / Lam)
            + np.minimum(C1, 0.5 * np.log2(1 + (1 - alpha) * P / Lam)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(P=st.floats(0.0, 10.0), P1=st.floats(0.0, 10.0), Lam=st.floats(0.05, 5.0),
       s2=st.floats(0.05, 2.0), C1=st.floats(0.0, 4.0))
def test_bounds_properties(P, P1, Lam, s2, C1):
    params = GaussianSfdParams(P, P1, Lam, s2)
    rep = det_code_bounds(params)
    assert rep.det_lower <= rep.det_upper <= rep.random_capacity
    assert rep.upper_feasible == (P1 + P + 2 * math.sqrt(P * P1) >= Lam)
    for feasible, split, mask in ((rep.lower_feasible, rep.lower_split, 1),
                                  (rep.upper_feasible, rep.upper_split, 2)):
        if feasible:
            assert _score(params, np.asarray(split.alpha), np.asarray(split.rho))[mask]

    v, a = primitive_gaussian_capacity(P, Lam, C1)
    grid = np.linspace(0.0, 1.0, 10001)
    assert v >= _primitive_objective(grid, P, Lam, C1).max() - 1e-12
    assert abs(v - _primitive_objective(a, P, Lam, C1)) < 1e-12


_power = st.one_of(st.just(0.0), st.floats(0.0, 8.0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(tuples=st.lists(st.tuples(_power, _power, st.floats(0.05, 5.0), st.floats(0.05, 2.0)),
                       min_size=1, max_size=6))
def test_stacked_bounds_equal_one_tuple_at_a_time(tuples):
    params = [GaussianSfdParams(*t) for t in tuples]
    rates, alpha, rho, feasible = gaussian._bounds(gaussian._stack(params))
    for j, p in enumerate(params):
        rep = det_code_bounds(p)
        assert rates[:, j].tolist() == [rep.random_capacity, rep.det_lower, rep.det_upper,
                                        rep.direct_transmission]
        splits = (rep.random_split, rep.lower_split, rep.upper_split)
        assert alpha[:, j].tolist() == [s.alpha for s in splits]
        assert rho[:, j].tolist() == [s.rho for s in splits]
        assert feasible[:, j].tolist() == [rep.lower_feasible, rep.upper_feasible]

    # the same sweep run one P per chunk writes the same CSV bytes
    powers, (_, _, lam, s2) = [t[0] for t in tuples], tuples[0]
    with tempfile.TemporaryDirectory() as tmp:
        one, many = Path(tmp, "one.csv"), Path(tmp, "many.csv")
        write_csv(figure_sweep(powers, lam, s2), many)
        with mock.patch.object(gaussian, "_CHUNK_TUPLES", 1):
            write_csv(figure_sweep(powers, lam, s2), one)
        assert one.read_bytes() == many.read_bytes()


def _chunked(fn, stack, size=1000):
    parts = [fn(gaussian._Stack(*(c[lo:lo + size] for c in stack)))
             for lo in range(0, len(stack.P), size)]
    return tuple(np.concatenate(part, axis=1) for part in zip(*parts))


def _property_stack():
    # 10^4 tuples with each parameter log-uniform on [e^-5, e^5], then 100
    # with P = 0 and 100 with P1 = 0
    tuples = np.exp(np.random.default_rng(2021).uniform(-5.0, 5.0, (10_200, 4)))
    tuples[10_000:10_100, 0] = 0.0
    tuples[10_100:, 1] = 0.0
    return gaussian._Stack(*tuples.T[:, :, None])


def test_candidate_maxima_are_at_least_the_zoom_oracle():
    stack = _property_stack()
    value, alpha, rho = _chunked(gaussian._kkt_max, stack)
    expected = _chunked(oracle_max, stack)[0]
    feasible = np.isfinite(value)
    assert (feasible == np.isfinite(expected)).all() and feasible[2].all()
    # the regions nest on the one candidate set, so the maxima do too
    assert ((value[0] <= value[1]) & (value[1] <= value[2])).all()
    shortfall = np.where(feasible, expected, 0.0) - np.where(feasible, value, 0.0)
    assert shortfall[2].max() <= 1e-12               # square
    assert shortfall[:2].max() <= 1e-11              # lower and upper
    # each value is the objective at its split, and each split lies in its region
    assert (_score(stack, alpha.T, rho.T)[0].T == value)[feasible].all()
    assert ((0.0 <= alpha) & (alpha <= 1.0) & (0.0 <= rho) & (rho <= 1.0)).all()
    for row in (0, 1):
        mask = _score(stack, alpha[row][:, None], rho[row][:, None])[1 + row]
        assert mask[feasible[row], 0].all()


def test_bounds_do_not_depend_on_the_unit_of_power():
    # the objective, both regions and their margin depend on ratios of the
    # powers only, so scaling each tuple by a power of two moves no byte of
    # any rate, split or flag
    stack = _property_stack()
    expected = gaussian._bounds(stack)
    for k in (-100, -40, 40, 100):
        got = gaussian._bounds(gaussian._Stack(*(col * 2.0 ** k for col in stack)))
        for e, g in zip(expected, got):
            assert e.tobytes() == g.tobytes(), k


def test_det_lower_equals_random_capacity_iff_the_random_split_is_lower_feasible():
    # the three programs score one candidate set, so the lower maximum reaches
    # the square's exactly when the square's winner passes the lower mask;
    # at P = 0 both read 0 with the mask false
    stack = _property_stack()
    rates, alpha, rho, _ = gaussian._bounds(stack)
    lower = _score(stack, alpha[0][:, None], rho[0][:, None])[1][:, 0]
    powered = stack.P[:, 0] > 0.0
    assert np.array_equal((rates[1] == rates[0])[powered], lower[powered])
    assert 0 < lower[powered].sum() < powered.sum()


def test_the_gap_closes_for_good_at_p_star_on_p1_equal_p_sweeps():
    # ROADMAP item 9: at P1 = P the deterministic lower bound reaches the
    # random-code capacity at P* = (Lambda + sigma2) * max{1, (Lambda + sigma2) / (2 sigma2)}
    # and stays there; just below P* the gap falls under an ulp, so the strict
    # side is checked at P*(1 - 1e-4)
    lam, s2 = np.exp(np.random.default_rng(9).uniform(-3.0, 3.0, (2, 20, 1)))
    total = lam + s2
    p_star = total * np.maximum(1.0, total / (2.0 * s2))
    powers = np.concatenate([np.broadcast_to(np.geomspace(1e-3, 1e4, 400), (20, 400)),
                             p_star * (1.0 + 1e-6), p_star * (1.0 - 1e-4)], axis=1)
    lam, s2 = (np.broadcast_to(v, powers.shape) for v in (lam, s2))
    columns = (v.reshape(-1, 1) for v in (powers, powers, lam, s2))
    rates = gaussian._bounds(gaussian._Stack(*columns))[0]
    closed = (rates[1] == rates[0]).reshape(powers.shape)
    sweep, above, below = closed[:, :400], closed[:, 400], closed[:, 401]
    assert not sweep[:, 0].any() and sweep[:, -1].all()
    assert (sweep[:, 1:] >= sweep[:, :-1]).all()        # never reopens
    assert above.all() and not below.any()


def _face_points_on(stack, a, b, degree, stationary):
    """One root family of gaussian._face_points on the face alpha = a(t),
    theta = b*t, b 0 or 1, solved alone: the per-family form it had while
    _candidates still built the theta = 0 families."""
    P, P1, Lam, s2 = stack
    poly, polyder, polyval = gaussian._poly, gaussian._polyder, gaussian._polyval
    e3 = poly(-P * a[:, :2], s2 + P - P * a[:, 2:])
    e2 = poly(P * a[:, :1] - b * P, P * a[:, 1:2], Lam + P * a[:, 2:])
    d1 = poly(P * a[:, :1], P * a[:, 1:2] + 2.0 * b * np.sqrt(P * P1), Lam + P1 + P * a[:, 2:])
    prod = gaussian._polymul(e3, e2)
    coef = polyder(prod) if stationary else poly(-prod[:, :2], s2 * d1 - prod[:, 2:])
    coef = coef[:, -degree - 1:]
    t = np.clip(gaussian._roots(coef), 0.0, 1.0)
    D1, E3, E2 = gaussian._cuts(stack, polyval(a, t), b * t)
    da = polyval(polyder(a), t)
    r = P * (E3 * (da - 2.0 * b * t) - da * E2) if stationary else s2 * D1 - E3 * E2
    t = np.concatenate([t, np.clip(t - r / polyval(polyder(coef), t), 0.0, 1.0)], axis=1)
    return polyval(a, t), b * t


def _in_units(stack):
    """The stack in _candidates' units of Lambda + sigma2 + P, with s = sqrt(P1/P)
    and the margins' offsets c (c1: alpha = theta^2 + c) and c0 (the upper cut:
    alpha = c0 - 2*s*theta)."""
    unit = stack.Lambda + stack.sigma2 + stack.P
    m = 4.0 * gaussian.FEASIBILITY_EPS * (stack.Lambda + stack.P) / unit
    stack = gaussian._Stack(*(col / unit for col in stack))
    P, P1, Lam, _ = stack
    return stack, np.sqrt(P1 / P), (Lam + m) / P, (Lam + m - P1) / P


def test_one_face_pass_equals_each_family_alone():
    # each step of the pass is elementwise per row, or a stacked eigvals that
    # solves each companion matrix alone, so each of _candidates' five face
    # families comes out as the per-family form gives it, bit for bit
    poly = gaussian._poly
    for k in (0, -100, 100):
        with np.errstate(all="ignore"):
            stack, s, c, c0 = _in_units(
                gaussian._Stack(*(col * 2.0 ** k for col in _property_stack())))
            zero, one = np.zeros_like(s), np.ones_like(s)
            h = poly(s * s + 1.0, 2.0 * s ** 3, s ** 4 - c)
            faces = [(poly(one, zero, zero), 2, False), (poly(zero, -2.0 * s, c0), 2, True),
                     (poly(one, zero, c), 2, False), (h, 4, False), (h, 3, True)]
            got = gaussian._face_points(stack, faces)
            alone = [_face_points_on(stack, a, 1.0, degree, st) for a, degree, st in faces]
        for g, e in zip(got, zip(*alone)):
            assert g.tobytes() == np.concatenate(e, axis=1).tobytes(), k


def _ruled_out_candidates(stack):
    """The five families _candidates leaves out, built as it built them before:
    the crossings on theta = 0 and on the upper cut, the ends cut & theta = 0
    and c2 & theta = 0, and the end c1 & alpha = 1."""
    poly = gaussian._poly
    stack, s, c, c0 = _in_units(stack)
    zero, one = np.zeros_like(s), np.ones_like(s)
    points = [_face_points_on(stack, poly(zero, one, zero), 0.0, 2, False),
              _face_points_on(stack, poly(zero, -2.0 * s, c0), 1.0, 3, False),
              (poly(c0, s ** 4 - c), zero),
              (one, np.sqrt(1.0 - c))]
    A, T = (np.concatenate(part, axis=1) for part in
            zip(*(np.broadcast_arrays(a, t) for a, t in points)))
    ok = np.isfinite(A) & np.isfinite(T)
    A = np.where(ok, np.clip(A, 0.0, 1.0), 0.0)
    root = np.sqrt(A)
    return A, np.where(ok & (A > 0.0), np.clip(T, 0.0, root) / root, 0.0)


def test_the_candidates_the_kkt_conditions_rule_out_never_win():
    # appended to the candidate list, the five left-out families move no
    # maximum, no split and no flag of any program
    stack = _property_stack()
    candidates, roots, solves = gaussian._candidates, gaussian._roots, []

    def with_ruled_out(chunk):
        A, R = candidates(chunk)
        extra_A, extra_R = _ruled_out_candidates(chunk)
        assert A.shape[1] + extra_A.shape[1] == 46 + 13
        return np.concatenate([A, extra_A], axis=1), np.concatenate([R, extra_R], axis=1)

    def counted_roots(coef):
        solves.append(len(coef))
        return roots(coef)

    with mock.patch.object(gaussian, "_roots", counted_roots):
        expected = _chunked(gaussian._kkt_max, stack)
    # 5 eigensolves per chunk: c2 & alpha = 1, the three degree groups of the
    # face pass (2, 4 and 3) and the interior quintic
    assert solves == [1000, 3000, 1000, 1000, 1000] * 10 + [200, 600, 200, 200, 200]
    with mock.patch.object(gaussian, "_candidates", with_ruled_out):
        widened = _chunked(gaussian._kkt_max, stack)
    for e, w in zip(expected, widened):
        assert np.array_equal(e, w)
