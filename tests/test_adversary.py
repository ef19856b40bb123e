import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avrc.adversary import (
    STRATEGY_KINDS,
    StateStrategy,
    StrategyError,
    draw_state,
    make_state,
    strategy_from_json,
)
from avrc.codec import CodebookConfig, PowerCapError, build_codebook, encode, relay_chain
from avrc.gaussian import GaussianSfdParams, PowerSplit


def small_codebook(P=0.2, P1=0.2, Lam=1.0, s2=1e-4, n=64, blocks=3, seed=5):
    cfg = CodebookConfig(n=n, num_blocks=blocks,
                         rate_relayed=1.5 / n, rate_direct=1.5 / n,
                         params=GaussianSfdParams(P, P1, Lam, s2),
                         split=PowerSplit(0.5, 0.0), seed=seed)
    return build_codebook(cfg)


def one_state(strategy, n, rng=None, codebook=None):
    """One trial's state at strategy.Lambda: the (n,) row of a one-generator draw's fit."""
    return make_state(strategy, draw_state(strategy, n, [rng], codebook, "min_distance"))[0]


def test_zero_strategy():
    s = one_state(StateStrategy("zero", Lambda=1.0), 16)
    assert np.array_equal(s, np.zeros(16))


def test_fixed_strategy_power_check():
    vec = tuple(0.1 for _ in range(8))
    s = one_state(StateStrategy("fixed", Lambda=1.0, vector=vec), 8)
    assert np.allclose(s, 0.1)
    hot = tuple(2.0 for _ in range(8))
    with pytest.raises(StrategyError):
        one_state(StateStrategy("fixed", Lambda=1.0, vector=hot), 8)
    with pytest.raises(StrategyError):
        one_state(StateStrategy("fixed", Lambda=1.0, vector=vec), 9)


def test_a_fixed_vector_on_its_budget_sphere_is_accepted():
    # n entries sqrt(Lambda) have ||s||^2 = n * Lambda, which rounds above the
    # budget in about a quarter of these cases; the budget allows POWER_RTOL of
    # rounding, as it does the iid jammer's rescaled rows
    for n in (64, 96, 128, 192, 384):
        for lam in np.linspace(0.1, 10.0, 200):
            vec = (float(np.sqrt(lam)),) * n
            s = one_state(StateStrategy("fixed", Lambda=float(lam), vector=vec), n)
            assert s.tobytes() == np.array(vec).tobytes()
    # a vector 1e-9 over its budget, relative, is refused
    over = (float(np.sqrt(2.0 * (1.0 + 1e-9))),) * 64
    with pytest.raises(StrategyError, match=r"^fixed vector violates the power constraint$"):
        one_state(StateStrategy("fixed", Lambda=2.0, vector=over), 64)


def test_iid_gaussian_rescaling_always_within_budget():
    # variance slightly below the budget: the cap binds on a small fraction
    lam = 1.0
    strat = StateStrategy("iid_gaussian", Lambda=lam, variance=0.98 * lam, seed=2)
    n = 10_000
    rescaled = 0
    for t in range(1000):
        rng = np.random.default_rng((2, t))
        s = one_state(strat, n, rng)
        power = s @ s
        assert power <= n * lam * (1 + 1e-12)
        rescaled += abs(power - n * lam) < 1e-6
    assert 0 < rescaled < 500   # binds on some but far from all draws


def test_impostor_requires_context():
    with pytest.raises(StrategyError):
        one_state(StateStrategy("impostor", Lambda=1.0), 64)
    cb = small_codebook()
    with pytest.raises(StrategyError, match=r"^impostor state length 191 != blocks\*n = 192$"):
        one_state(StateStrategy("impostor", Lambda=1.0), 191, np.random.default_rng(0), cb)


def test_impostor_replay_contract():
    cb = small_codebook()
    strat = StateStrategy("impostor", Lambda=1.0, seed=9)
    s = one_state(strat, cb.num_blocks * cb.n, np.random.default_rng(42), cb)
    assert s.any()   # under power, so no fallback
    # replay from a fresh rng with the same seed, in the impostor's draw order:
    # fake m1, fake m2, the relay noise, then the real encoder and relay map
    rng = np.random.default_rng(42)
    B = cb.num_blocks
    fake = np.stack([rng.integers(0, cb.m1_count, B - 1),
                     rng.integers(0, cb.m2_count, B - 1)], axis=1)
    tx = encode(cb, fake[None])
    y1 = tx.x_direct + rng.normal(0.0, np.sqrt(cb.config.params.sigma2), (B, cb.n))
    _, x1 = relay_chain(cb, y1, "min_distance")
    assert np.array_equal(s, (tx.x_prime + x1).ravel())
    assert s @ s <= cb.num_blocks * cb.n * 1.0


def test_impostor_fallback_when_over_power():
    # every fake transmission carries about (alpha + gamma) * P of per-symbol
    # power, far above this tiny budget, so the zero fallback must fire
    cb = small_codebook(P=0.2, P1=0.2)
    strat = StateStrategy("impostor", Lambda=0.05, seed=1)
    for t in range(50):
        s = one_state(strat, cb.num_blocks * cb.n, np.random.default_rng((1, t)), cb)
        assert s.shape == (cb.num_blocks * cb.n,) and not s.any()


def test_strategy_json_round_trip():
    blob = '{"kind": "impostor", "Lambda": 1.0, "seed": 7}'
    assert strategy_from_json(json.loads(blob)) == StateStrategy("impostor", Lambda=1.0, seed=7)
    gauss = {"kind": "iid_gaussian", "Lambda": 0.5, "seed": 1, "variance": 0.4}
    assert strategy_from_json(gauss) == StateStrategy("iid_gaussian", Lambda=0.5, seed=1,
                                                      variance=0.4)
    blob = '{"kind": "fixed", "Lambda": 2.0, "seed": 0, "vector": [0.5, -1.0, 0.0]}'
    assert strategy_from_json(json.loads(blob)) == StateStrategy("fixed", Lambda=2.0,
                                                                 vector=(0.5, -1.0, 0.0))


def test_strategy_validation():
    with pytest.raises(StrategyError):
        StateStrategy("nonsense", Lambda=1.0)
    with pytest.raises(StrategyError):
        StateStrategy("iid_gaussian", Lambda=1.0)
    with pytest.raises(StrategyError):
        StateStrategy("zero", Lambda=0.0)
    with pytest.raises(StrategyError, match=r"^fixed strategy needs a vector$"):
        StateStrategy("fixed", Lambda=1.0)


@pytest.mark.parametrize("kind, Lambda, variance, field", [
    ("zero", float("nan"), None, "Lambda"),
    ("impostor", float("inf"), None, "Lambda"),
    ("iid_gaussian", -1.0, 1.0, "Lambda"),
    ("iid_gaussian", 1.0, float("nan"), "variance"),
    ("iid_gaussian", 1.0, float("inf"), "variance"),
    ("iid_gaussian", 1.0, -0.5, "variance"),
])
def test_strategy_rejects_non_finite_inputs(kind, Lambda, variance, field):
    with pytest.raises(StrategyError, match=field):
        StateStrategy(kind, Lambda=Lambda, variance=variance)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["zero", "fixed", "iid_gaussian", "impostor"]),
       lam=st.floats(0.01, 4.0), scale=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_hard_constraint_universal_randomized(kind, lam, scale, seed):
    # every kind stays within n * Lambda or refuses: a fixed vector over the
    # budget raises, the others rescale or fall back to zero
    cb = small_codebook()
    n = cb.num_blocks * cb.n
    rng = np.random.default_rng(seed)
    vector = tuple(scale * np.sqrt(lam) * rng.standard_normal(n)) if kind == "fixed" else None
    strat = StateStrategy(kind, Lambda=lam, seed=seed, vector=vector,
                          variance=scale * lam if kind == "iid_gaussian" else None)
    if kind == "fixed" and np.asarray(vector) @ np.asarray(vector) > n * lam:
        with pytest.raises(StrategyError):
            one_state(strat, n, rng, cb)
        return
    s = one_state(strat, n, rng, cb)
    assert s.shape == (n,)
    assert s @ s <= n * lam * (1 + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(STRATEGY_KINDS),
       lambdas=st.lists(st.floats(0.01, 4.0), min_size=1, max_size=4),
       variance=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1),
       trials=st.sampled_from([1, 3]))
def test_one_draw_fitted_to_each_lambda_equals_that_lambda_alone(kind, lambdas, variance, seed,
                                                                 trials):
    # one draw fitted at each Lambda in turn, ascending, descending and with
    # repeats, is bit for bit a fresh draw fitted at that Lambda alone (iid rows
    # rescaled or not, impostor rows kept or fallen back to zeros), and the
    # fits leave the draw as it was, since later rows of a sweep reuse it
    cb = small_codebook()
    n = cb.num_blocks * cb.n
    vector = tuple(np.sqrt(min(lambdas)) * np.sin(np.arange(n))) if kind == "fixed" else None
    strat = StateStrategy(kind, Lambda=1.0, seed=seed, vector=vector,
                          variance=variance if kind == "iid_gaussian" else None)

    def draw():
        rngs = [np.random.default_rng((seed, t)) for t in range(trials)]
        return draw_state(strat, n, rngs, cb, "min_distance")

    drawn = draw()
    before = [a.tobytes() for a in drawn]
    assert drawn[0].shape == (trials, n) and drawn[1].shape == (trials,)
    for lam in sorted(lambdas) + sorted(lambdas, reverse=True) + [v for v in lambdas for _ in "ab"]:
        at = replace(strat, Lambda=lam)
        s = make_state(at, drawn)
        assert s.shape == (trials, n)
        assert s.tobytes() == make_state(at, draw()).tobytes()
    assert [a.tobytes() for a in drawn] == before


def test_over_power_draw_raises_power_cap_error():
    # the cap is an explicit check, so it holds under python -O as well: a draw
    # whose stated powers understate its rows passes the fallback and is caught
    n = 192
    drawn = (np.full((1, n), 2.0), np.zeros(1))
    # the message prints plain floats, not numpy scalar reprs
    with pytest.raises(PowerCapError,
                       match=rf"energy {4.0 * n!r} exceeds the budget {float(n)!r}$"):
        make_state(StateStrategy("impostor", Lambda=1.0), drawn)
