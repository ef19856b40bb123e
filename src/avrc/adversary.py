"""Jammer strategies under the hard power constraint ||s||^2 <= n * Lambda.

Strategies are immutable descriptors; `make_state` is pure given (strategy,
n, rngs, codebook, relay mode, budgets), and draws one state per generator in
the sequence it is handed.  The codebook-aware impostor synthesizes a fake
transmission through the real encoder and relay map and injects it as the
state, falling back to all zeros when the fake sequence lands over power.

A state is a draw that does not depend on Lambda (zeros, the fixed vector,
iid normals or the fake transmission) followed by a budget step at n*Lambda
(the power check, the rescale or the fallback).  So one draw can be fitted to
several Lambda values at once, each state the same floats as at its Lambda
alone, and a Lambda sweep draws each jammer's streams once.
"""

from dataclasses import dataclass

import numpy as np

from ._fields import number_field, number_list_field, seed_field, shown
from .codec import PowerCapError, SfdCodebook, draw_messages, normals, row_powers, transmit

STRATEGY_KINDS = ("zero", "fixed", "iid_gaussian", "impostor")
DRAWING_KINDS = ("iid_gaussian", "impostor")   # the kinds that draw from their generators


class StrategyError(ValueError):
    pass


@dataclass(frozen=True)
class StateStrategy:
    kind: str
    Lambda: float
    seed: int = 0
    variance: float | None = None          # iid_gaussian
    vector: tuple | None = None            # fixed

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise StrategyError(f"unknown strategy kind {shown(self.kind)}")
        # written so that nan fails each check
        if not (np.isfinite(self.Lambda) and self.Lambda > 0):
            raise StrategyError(f"Lambda must be finite and > 0, got {self.Lambda!r}")
        if self.kind == "iid_gaussian" and self.variance is None:
            raise StrategyError("iid_gaussian needs a variance")
        if self.variance is not None and not (np.isfinite(self.variance) and self.variance >= 0):
            raise StrategyError(f"variance must be finite and >= 0, got {self.variance!r}")
        if self.kind == "fixed" and self.vector is None:
            raise StrategyError("fixed strategy needs a vector")


def strategy_from_json(obj) -> StateStrategy:
    """Read parsed descriptors like {"kind":"impostor","Lambda":1.0,"seed":7}."""
    kw = {"kind": obj["kind"], "Lambda": number_field(obj, "Lambda"),
          "seed": seed_field(obj, "seed")}
    if obj.get("variance") is not None:
        kw["variance"] = number_field(obj, "variance")
    if obj.get("vector") is not None:
        kw["vector"] = tuple(number_list_field(obj, "vector"))
    return StateStrategy(**kw)


def strategy_to_json(strategy: StateStrategy) -> dict:
    out = {"kind": strategy.kind, "Lambda": strategy.Lambda, "seed": strategy.seed}
    if strategy.variance is not None:
        out["variance"] = strategy.variance
    if strategy.vector is not None:
        out["vector"] = list(strategy.vector)
    return out


def make_state(strategy: StateStrategy, n: int, rngs, codebook: SfdCodebook | None,
               relay_mode: str, lambdas):
    """An (L, T, n) stack of state sequences of length n, one per budget and
    generator; row l always satisfies ||s||^2 <= n*lambdas[l].

    rngs is a sequence of T generators, one state drawn from each in turn.
    The zero and fixed kinds (not in DRAWING_KINDS) never draw, so their T
    entries may be None.  The impostor reads the codebook and the relay mode
    of the code it attacks; the other kinds ignore them.

    lambdas is a sequence of L budgets, read in place of strategy.Lambda; one
    draw is fitted to each of them, with row l equal to the state at
    lambdas[l] alone.  The draw does not depend on Lambda, so it runs once;
    only the budget step (the rescale, the fallback or the check) runs per
    Lambda."""
    rngs = list(rngs)
    lams = np.array(lambdas, dtype=float)
    if lams.ndim != 1 or not lams.size or not (np.isfinite(lams) & (lams > 0)).all():
        raise StrategyError(f"Lambda values must be finite and > 0, got {shown(lambdas)}")
    budget = n * lams[:, None]     # (L, 1), the same floats as n * Lambda
    shape = (len(lams), len(rngs), n)

    if strategy.kind == "zero":
        s = np.zeros(shape)
    elif strategy.kind == "fixed":
        vec = np.asarray(strategy.vector, dtype=float)
        if vec.shape != (n,):
            raise StrategyError(f"fixed vector has length {vec.size}, expected {n}")
        if (vec @ vec > budget).any():
            raise StrategyError("fixed vector violates the power constraint")
        s = np.tile(vec, shape[:2] + (1,))
    else:
        if strategy.kind == "iid_gaussian":
            raw, power = _iid_draw(strategy, n, rngs)
        else:
            raw, power = _impostor_draw(n, rngs, codebook, relay_mode)
        s = _fit(strategy.kind, raw, power, budget)

    energy = row_powers(s)
    over = ~(energy <= budget * (1.0 + 1e-12))
    if over.any():
        l, t = np.argwhere(over)[0]
        raise PowerCapError(f"{strategy.kind} state has power {float(energy[l, t])!r} "
                            f"over the budget {float(budget[l, 0])!r}")
    return s


def _fit(kind, raw, power, budget):
    """The (L, T, n) states of a (T, n) draw with row powers (T,) at budgets
    (L, 1): an iid row over a budget is rescaled onto the sphere of radius
    sqrt(budget), an impostor row over it falls back to all zeros."""
    if kind == "iid_gaussian":
        # max(power, budget) leaves sqrt(budget / budget) = 1.0 exactly on rows in budget
        return raw * np.sqrt(budget / np.maximum(power, budget))[..., None]
    return np.where((power > budget)[..., None], 0.0, raw)


def _iid_draw(strategy, n, rngs):
    """iid N(0, variance) symbols, one row per generator, and each row's power."""
    s = normals(rngs, np.sqrt(strategy.variance), (n,))
    return s, row_powers(s)


def _impostor_draw(n, rngs, codebook, relay_mode):
    """Fake message + fake relay response, one (T, n) row per generator, and
    each row's power.

    Each generator draws its fake m1, fake m2 and then its fake relay-link
    noise; the fake direct-band codewords plus that noise pass through the
    real relay map, all trials as one stack.
    """
    if not isinstance(codebook, SfdCodebook):
        raise StrategyError("impostor strategy needs the codebook")
    B = codebook.num_blocks
    if n != B * codebook.n:
        raise StrategyError(f"impostor state length {n} != blocks*n = {B * codebook.n}")
    tx, _, x1 = transmit(codebook, draw_messages(codebook, rngs), rngs, relay_mode)
    s = (tx.x_prime + x1).reshape(len(rngs), n)
    return s, row_powers(s)
