import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avrc import adversary
from avrc.adversary import (
    STRATEGY_KINDS,
    StateStrategy,
    StrategyError,
    make_state,
    strategy_from_json,
    strategy_to_json,
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
    """make_state's one trial at strategy.Lambda: the (n,) row of its (1, 1, n) stack."""
    return make_state(strategy, n, [rng], codebook, "min_distance", [strategy.Lambda])[0, 0]


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
    strat = StateStrategy("impostor", Lambda=1.0, seed=7)
    blob = json.dumps(strategy_to_json(strat))
    assert strategy_from_json(json.loads(blob)) == strat
    gauss = StateStrategy("iid_gaussian", Lambda=0.5, seed=1, variance=0.4)
    assert strategy_from_json(strategy_to_json(gauss)) == gauss


def test_strategy_validation():
    with pytest.raises(StrategyError):
        StateStrategy("nonsense", Lambda=1.0)
    with pytest.raises(StrategyError):
        StateStrategy("iid_gaussian", Lambda=1.0)
    with pytest.raises(StrategyError):
        StateStrategy("zero", Lambda=0.0)
    for lambdas in ([], [0.0], [1.0, float("nan")]):
        with pytest.raises(StrategyError, match="Lambda"):
            make_state(StateStrategy("zero", Lambda=1.0), 4, [None], None, "min_distance",
                       lambdas)


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
    # a stack over Lambda is bit for bit the states at each Lambda alone: iid
    # rows rescaled or not, impostor rows kept or fallen back to zeros
    cb = small_codebook()
    n = cb.num_blocks * cb.n
    vector = tuple(np.sqrt(min(lambdas)) * np.sin(np.arange(n))) if kind == "fixed" else None
    strat = StateStrategy(kind, Lambda=1.0, seed=seed, vector=vector,
                          variance=variance if kind == "iid_gaussian" else None)

    def rngs():
        return [np.random.default_rng((seed, t)) for t in range(trials)]

    stack = make_state(strat, n, rngs(), cb, "min_distance", lambdas)
    assert stack.shape == (len(lambdas), trials, n)
    for lam, s in zip(lambdas, stack):
        alone = make_state(strat, n, rngs(), cb, "min_distance", [lam])[0]
        assert s.tobytes() == alone.tobytes()


def test_over_power_draw_raises_power_cap_error(monkeypatch):
    # the cap is an explicit check, so it holds under python -O as well
    def over_power(kind, raw, power, budget):
        return np.full((len(budget),) + raw.shape, 2.0)

    monkeypatch.setattr(adversary, "_fit", over_power)
    cb = small_codebook()
    n = cb.num_blocks * cb.n
    # the message prints plain floats, not numpy scalar reprs
    with pytest.raises(PowerCapError, match=rf"power {4.0 * n!r} over the budget {float(n)!r}$"):
        one_state(StateStrategy("impostor", Lambda=1.0), n, np.random.default_rng(0), cb)
