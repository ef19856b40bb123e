"""Jammer strategies under the hard power constraint ||s||^2 <= n * Lambda.

Strategies are immutable descriptors; `make_state` is pure given (strategy,
n, rng, codebook), and draws one state per generator when handed a sequence
of them.  The codebook-aware impostor synthesizes a fake
transmission through the real encoder and relay map and injects it as the
state, falling back to all zeros when the fake sequence lands over power.
"""

from dataclasses import dataclass

import numpy as np

from ._fields import int_field
from .codec import PowerCapError, SfdCodebook, draw_messages, transmit

STRATEGY_KINDS = ("zero", "fixed", "iid_gaussian", "impostor")


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
            raise StrategyError(f"unknown strategy kind {self.kind!r}")
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
    """Parse descriptors like {"kind":"impostor","Lambda":1.0,"seed":7}."""
    import json

    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    kw = {"kind": obj["kind"], "Lambda": float(obj["Lambda"]),
          "seed": int_field(obj, "seed", 0)}
    if "variance" in obj and obj["variance"] is not None:
        kw["variance"] = float(obj["variance"])
    if "vector" in obj and obj["vector"] is not None:
        kw["vector"] = tuple(float(v) for v in obj["vector"])
    return StateStrategy(**kw)


def strategy_to_json(strategy: StateStrategy) -> dict:
    out = {"kind": strategy.kind, "Lambda": strategy.Lambda, "seed": strategy.seed}
    if strategy.variance is not None:
        out["variance"] = strategy.variance
    if strategy.vector is not None:
        out["vector"] = list(strategy.vector)
    return out


def make_state(strategy: StateStrategy, n: int, rng=None, codebook: SfdCodebook | None = None,
               relay_mode: str = "min_distance"):
    """Draw one state sequence of length n; always satisfies ||s||^2 <= n*Lambda.

    rng is one generator, or a sequence of T generators for a (T, n) stack of
    states, one drawn from each generator in turn.  The impostor reads the
    codebook and the relay mode of the code it attacks."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(strategy.seed))
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    budget = n * strategy.Lambda

    if strategy.kind == "zero":
        s = np.zeros((len(rngs), n))
    elif strategy.kind == "fixed":
        vec = np.asarray(strategy.vector, dtype=float)
        if vec.shape != (n,):
            raise StrategyError(f"fixed vector has length {vec.size}, expected {n}")
        if vec @ vec > budget:
            raise StrategyError("fixed vector violates the power constraint")
        s = np.tile(vec, (len(rngs), 1))
    elif strategy.kind == "iid_gaussian":
        s = np.stack([_iid_state(strategy, n, r) for r in rngs])
    else:  # impostor
        s = _impostor_state(strategy, n, rngs, codebook, relay_mode)

    s = s.reshape(len(rngs), n)
    for row in s:
        if not row @ row <= budget * (1.0 + 1e-12):
            raise PowerCapError(
                f"{strategy.kind} state has power {row @ row!r} over the budget {budget!r}")
    return s[0] if single else s


def _iid_state(strategy, n, rng):
    """iid N(0, variance) symbols, rescaled onto the sphere of radius sqrt(n*Lambda)
    when they land outside it."""
    s = rng.normal(0.0, np.sqrt(strategy.variance), n)
    power = s @ s
    budget = n * strategy.Lambda
    return s * np.sqrt(budget / power) if power > budget else s


def _impostor_state(strategy, n, rngs, codebook, relay_mode):
    """Fake message + fake relay response, used as the state when under power.

    Each generator draws its fake m1, fake m2 and then its fake relay-link
    noise; the fake direct-band codewords plus that noise pass through the
    real relay map, all trials as one stack.  A fake sequence over power is
    replaced by all zeros.  Returns (T, n), one state per generator.
    """
    if not isinstance(codebook, SfdCodebook):
        raise StrategyError("impostor strategy needs the codebook")
    B = codebook.num_blocks
    if n != B * codebook.n:
        raise StrategyError(f"impostor state length {n} != blocks*n = {B * codebook.n}")
    tx, _, x1 = transmit(codebook, draw_messages(codebook, rngs), rngs, relay_mode)
    s = (tx.x_prime + x1).reshape(len(rngs), n)
    s[[row @ row > n * strategy.Lambda for row in s]] = 0.0
    return s
