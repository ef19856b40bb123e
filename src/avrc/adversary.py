"""Jammer strategies under the hard power constraint ||s||^2 <= n * Lambda.

Strategies are immutable descriptors; `make_state` is pure given (strategy,
n, rng, codebook).  The codebook-aware impostor synthesizes a fake
transmission through the real encoder and relay map and injects it as the
state, falling back to all zeros when the fake sequence lands over power.
"""

from dataclasses import dataclass

import numpy as np

from .codec import PowerCapError, SfdCodebook, transmit

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
          "seed": int(obj.get("seed", 0))}
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

    The impostor reads the codebook and the relay mode of the code it attacks."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(strategy.seed))
    budget = n * strategy.Lambda

    if strategy.kind == "zero":
        s = np.zeros(n)
    elif strategy.kind == "fixed":
        s = np.asarray(strategy.vector, dtype=float)
        if s.shape != (n,):
            raise StrategyError(f"fixed vector has length {s.size}, expected {n}")
        if s @ s > budget:
            raise StrategyError("fixed vector violates the power constraint")
    elif strategy.kind == "iid_gaussian":
        s = rng.normal(0.0, np.sqrt(strategy.variance), n)
        power = s @ s
        if power > budget:
            s = s * np.sqrt(budget / power)
    else:  # impostor
        s = _impostor_state(strategy, n, rng, codebook, relay_mode)

    if not s @ s <= budget * (1.0 + 1e-12):
        raise PowerCapError(f"{strategy.kind} state has power {s @ s!r} over the budget {budget!r}")
    return s


def _impostor_state(strategy, n, rng, codebook, relay_mode):
    """Fake message + fake relay response, used as the state when under power.

    The fake relay observations are the fake direct-band codewords plus fresh
    relay-link noise; the relay map applied to them is the real one.  Over
    power, the state is all zeros.
    """
    if not isinstance(codebook, SfdCodebook):
        raise StrategyError("impostor strategy needs the codebook")
    B = codebook.num_blocks
    if n != B * codebook.n:
        raise StrategyError(f"impostor state length {n} != blocks*n = {B * codebook.n}")
    fake = np.stack([rng.integers(0, codebook.m1_count, B - 1),
                     rng.integers(0, codebook.m2_count, B - 1)], axis=1)
    tx, _, x1 = transmit(codebook, fake, rng, relay_mode)
    s = (tx.x_prime + x1).ravel()
    return np.zeros(n) if s @ s > n * strategy.Lambda else s
