"""Jammer strategies under the hard power constraint ||s||^2 <= n * Lambda.

Strategies are immutable descriptors.  A state is made in two pure steps:
`draw_state` draws the part that does not depend on Lambda (zeros, the fixed
vector, iid normals or the fake transmission), one row per generator in the
sequence it is handed, and `make_state` fits that draw at n * Lambda (the
power check, the rescale or the fallback).  The codebook-aware impostor
synthesizes a fake transmission through the real encoder and relay map and
injects it as the state, falling back to all zeros when the fake sequence
lands over power.  A fit leaves its draw as it was, so a Lambda sweep draws
each jammer's streams once and fits the draw row by row, each state the same
floats as a fresh draw fitted at its Lambda alone.
"""

from dataclasses import dataclass

import numpy as np

from ._fields import number_field, number_list_field, seed_field, shown
from .codec import POWER_RTOL, SfdCodebook, check_power, draw_messages, normals, row_powers, transmit

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


def draw_state(strategy: StateStrategy, n: int, rngs, codebook: SfdCodebook | None,
               relay_mode: str):
    """The part of a state that does not depend on Lambda: a (T, n) draw, one
    row per generator, and each row's power (T,).

    rngs is a sequence of T generators, one row drawn from each in turn.
    The zero and fixed kinds (not in DRAWING_KINDS) never draw, so their T
    entries may be None.  The impostor reads the codebook and the relay mode
    of the code it attacks; the other kinds ignore them."""
    if strategy.kind == "zero":
        s = np.zeros((len(rngs), n))
    elif strategy.kind == "fixed":
        vec = np.asarray(strategy.vector, dtype=float)
        if vec.shape != (n,):
            raise StrategyError(f"fixed vector has length {vec.size}, expected {n}")
        s = np.tile(vec, (len(rngs), 1))
    elif strategy.kind == "iid_gaussian":
        s = normals(rngs, np.sqrt(strategy.variance), (n,))
    else:
        s = _impostor_draw(n, rngs, codebook, relay_mode)
    return s, row_powers(s)


def make_state(strategy: StateStrategy, drawn):
    """The (T, n) states of a draw_state draw fitted at strategy.Lambda, each
    row within ||s||^2 <= n * Lambda: a fixed vector over the budget raises
    StrategyError, an iid row over it is rescaled onto the sphere of radius
    sqrt(n * Lambda), and an impostor row over it falls back to all zeros.
    The draw is left as it was (zero and fixed return it), so it can be fitted
    at any number of Lambda values, in any order."""
    raw, power = drawn
    budget = raw.shape[-1] * strategy.Lambda
    if strategy.kind == "fixed" and not (power <= budget * (1.0 + POWER_RTOL)).all():
        raise StrategyError("fixed vector violates the power constraint")
    if strategy.kind == "iid_gaussian":
        # max(power, budget) leaves sqrt(budget / budget) = 1.0 exactly on rows in budget
        s = raw * np.sqrt(budget / np.maximum(power, budget))[:, None]
    elif strategy.kind == "impostor":
        s = np.where((power > budget)[:, None], 0.0, raw)
    else:
        s = raw
    check_power(f"{strategy.kind} state", row_powers(s), budget)
    return s


def _impostor_draw(n, rngs, codebook, relay_mode):
    """Fake message + fake relay response, one (T, n) row per generator.

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
    return (tx.x_prime + x1).reshape(len(rngs), n)
