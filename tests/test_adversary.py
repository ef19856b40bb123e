import json

import numpy as np
import pytest

from avrc import adversary
from avrc.adversary import (
    ImpostorContext,
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


def test_zero_strategy():
    s = make_state(StateStrategy("zero", Lambda=1.0), 16)
    assert np.array_equal(s, np.zeros(16))


def test_fixed_strategy_power_check():
    vec = tuple(0.1 for _ in range(8))
    s = make_state(StateStrategy("fixed", Lambda=1.0, vector=vec), 8)
    assert np.allclose(s, 0.1)
    hot = tuple(2.0 for _ in range(8))
    with pytest.raises(StrategyError):
        make_state(StateStrategy("fixed", Lambda=1.0, vector=hot), 8)
    with pytest.raises(StrategyError):
        make_state(StateStrategy("fixed", Lambda=1.0, vector=vec), 9)


def test_iid_gaussian_rescaling_always_within_budget():
    # variance slightly below the budget: the cap binds on a small fraction
    lam = 1.0
    strat = StateStrategy("iid_gaussian", Lambda=lam, variance=0.98 * lam, seed=2)
    n = 10_000
    rescaled = 0
    for t in range(1000):
        rng = np.random.default_rng((2, t))
        s = make_state(strat, n, rng=rng)
        power = s @ s
        assert power <= n * lam * (1 + 1e-12)
        rescaled += abs(power - n * lam) < 1e-6
    assert 0 < rescaled < 500   # binds on some but far from all draws


def test_impostor_requires_context():
    with pytest.raises(StrategyError):
        make_state(StateStrategy("impostor", Lambda=1.0), 64)


def test_impostor_replay_contract():
    cb = small_codebook()
    ctx = ImpostorContext(cb, relay_mode="min_distance")
    strat = StateStrategy("impostor", Lambda=1.0, seed=9)
    rng = np.random.default_rng(42)
    draw = make_state(strat, cb.num_blocks * cb.n, context=ctx, rng=rng, return_details=True)
    assert not draw.fallback
    # replay: the emitted state is exactly fake-encoder plus fake-relay output
    tx = encode(cb, draw.fake_messages)
    _, x1 = relay_chain(cb, draw.fake_y1, "min_distance")
    rebuilt = (tx.x_prime + x1).ravel()
    assert np.array_equal(draw.state, rebuilt)
    assert draw.state @ draw.state <= cb.num_blocks * cb.n * 1.0


def test_impostor_fallback_when_over_power():
    # every fake transmission carries about (alpha + gamma) * P of per-symbol
    # power, far above this tiny budget, so the zero fallback must fire
    cb = small_codebook(P=0.2, P1=0.2)
    ctx = ImpostorContext(cb)
    strat = StateStrategy("impostor", Lambda=0.05, seed=1)
    falls = 0
    for t in range(50):
        rng = np.random.default_rng((1, t))
        draw = make_state(strat, cb.num_blocks * cb.n, context=ctx, rng=rng,
                          return_details=True)
        falls += draw.fallback
        if draw.fallback:
            assert not draw.state.any()
    assert falls == 50


def test_strategy_json_round_trip():
    strat = StateStrategy("impostor", Lambda=1.0, seed=7)
    blob = json.dumps(strategy_to_json(strat))
    assert strategy_from_json(blob) == strat
    gauss = StateStrategy("iid_gaussian", Lambda=0.5, seed=1, variance=0.4)
    assert strategy_from_json(strategy_to_json(gauss)) == gauss


def test_strategy_validation():
    with pytest.raises(StrategyError):
        StateStrategy("nonsense", Lambda=1.0)
    with pytest.raises(StrategyError):
        StateStrategy("iid_gaussian", Lambda=1.0)
    with pytest.raises(StrategyError):
        StateStrategy("zero", Lambda=0.0)


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


def test_hard_constraint_universal_randomized():
    cb = small_codebook()
    ctx = ImpostorContext(cb)
    n = cb.num_blocks * cb.n
    rng = np.random.default_rng(8)
    for t in range(40):
        lam = float(rng.uniform(0.1, 2.0))
        kind = ("zero", "iid_gaussian", "impostor")[t % 3]
        strat = StateStrategy(kind, Lambda=lam, seed=t,
                              variance=lam if kind == "iid_gaussian" else None)
        s = make_state(strat, n, context=ctx, rng=np.random.default_rng((8, t)))
        assert s @ s <= n * lam * (1 + 1e-12)


def test_over_power_draw_raises_power_cap_error(monkeypatch):
    # the cap is an explicit check, so it holds under python -O as well
    def over_power(strategy, n, context, rng):
        return adversary.ImpostorDraw(np.full(n, 2.0), False, None, None)

    monkeypatch.setattr(adversary, "_impostor_state", over_power)
    with pytest.raises(PowerCapError):
        make_state(StateStrategy("impostor", Lambda=1.0), 8)
