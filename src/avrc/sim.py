"""Seeded Monte Carlo harness: codec + channel + jammer -> error estimates.

Channel semantics per block: the relay observes the direct-band codeword
plus Gaussian noise of variance sigma2; the destination observes
x' + x1 + state with no thermal noise.  A trial counts as erroneous when any
of its B-1 message pairs decodes wrongly.  Per-trial seeds derive from
(master seed, trial index), so results are identical for any worker count.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .adversary import ImpostorContext, StateStrategy, make_state, strategy_from_json, strategy_to_json
from .codec import (
    CodebookConfig,
    PowerCapError,
    build_codebook,
    codebook_config_from_json,
    decode_backward,
    destination_observation,
    transmit,
)
WILSON_Z = 1.959963984540054   # two-sided 95%


class SimConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    codebook: CodebookConfig
    strategy: StateStrategy
    trials: int
    master_seed: int = 0
    relay_mode: str = "min_distance"
    permute: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise SimConfigError("trials must be >= 1")
        if self.relay_mode not in ("min_distance", "ideal"):
            raise SimConfigError("relay_mode must be min_distance or ideal")


@dataclass(frozen=True)
class ErrorEstimate:
    trials: int
    errors: int
    rate: float
    ci_low: float
    ci_high: float
    relayed_block_errors: tuple   # (B-1,) counts of wrong m1 per block
    direct_block_errors: tuple    # (B-1,) counts of wrong m2 per block
    clip_rate: float
    tie_count: int


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z):
    if trials == 0:
        return 0.0, 1.0
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else float(max(0.0, center - half))
    hi = 1.0 if errors == trials else float(min(1.0, center + half))
    return lo, hi


def resolve_workers(requested=None):
    """Worker count: the explicit argument (at least 1), else 1.  On a 2-vCPU
    host, 2 threads ran the mc_impostor and mc_sweep_permuted workloads at
    about half the 1-thread speed; hosts with more cores have not been measured."""
    workers = 1 if requested is None else int(requested)
    if workers < 1:
        raise SimConfigError(f"workers must be >= 1, got {requested!r}")
    return workers


def _check_power(name, energies, budget):
    """Raise PowerCapError unless every block energy is within the budget."""
    if not (energies <= budget).all():
        raise PowerCapError(f"{name} block energy {energies.max()!r} exceeds {budget!r}")


def _trial(config, codebook, t):
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, t]))
    rng_jam = np.random.default_rng(
        np.random.SeedSequence([config.strategy.seed, config.master_seed, t]))
    cb = codebook
    B, n = cb.num_blocks, cb.n

    msgs = np.stack([rng.integers(0, cb.m1_count, B - 1),
                     rng.integers(0, cb.m2_count, B - 1)], axis=1)
    perm = rng.permutation(n) if config.permute else None
    tx, _, x1 = transmit(cb, msgs, rng, config.relay_mode, perm)

    p = cb.config.params
    slack = 1e-9 * n
    e_prime = np.einsum("bi,bi->b", tx.x_prime, tx.x_prime)
    _check_power("x'", e_prime, n * cb.config.split.alpha * p.P + slack)
    _check_power("x' + x''", e_prime + np.einsum("bi,bi->b", tx.x_direct, tx.x_direct),
                 n * p.P + slack)
    _check_power("x1", np.einsum("bi,bi->b", x1, x1), n * p.P1 + slack)

    context = ImpostorContext(cb, config.relay_mode)
    s = make_state(config.strategy, B * n, context=context, rng=rng_jam).reshape(B, n)

    res = decode_backward(cb, destination_observation(tx, x1, s, perm))
    rel_err = res.m_relayed != msgs[:, 0]
    dir_err = res.m_direct != msgs[:, 1]
    return (bool(rel_err.any() or dir_err.any()), rel_err, dir_err,
            int(tx.power_clipped.sum()), res.tie_count)


def run_monte_carlo(config: SimConfig, workers=None) -> ErrorEstimate:
    """Estimate the message error rate of the configured code under attack."""
    nworkers = resolve_workers(workers)
    codebook = build_codebook(config.codebook)
    B = codebook.num_blocks
    results = [None] * config.trials

    def run_range(indices):
        for t in indices:
            results[t] = _trial(config, codebook, t)

    if nworkers == 1:
        run_range(range(config.trials))
    else:
        chunks = [range(w, config.trials, nworkers) for w in range(nworkers)]
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(run_range, chunks))

    errors = sum(r[0] for r in results)
    rel = np.sum([r[1] for r in results], axis=0).astype(int)
    dr = np.sum([r[2] for r in results], axis=0).astype(int)
    clipped = sum(r[3] for r in results)
    ties = sum(r[4] for r in results)
    lo, hi = wilson_interval(errors, config.trials)
    return ErrorEstimate(
        trials=config.trials, errors=errors, rate=errors / config.trials,
        ci_low=lo, ci_high=hi,
        relayed_block_errors=tuple(int(v) for v in rel),
        direct_block_errors=tuple(int(v) for v in dr),
        clip_rate=clipped / (config.trials * B), tie_count=ties)


# ---------------------------------------------------------------------------
# sweeps and serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    Lambda: float
    strategy: str
    trials: int
    errors: int
    rate: float
    ci_low: float
    ci_high: float
    clip_rate: float


def attack_sweep(base: SimConfig, lambda_grid, strategies=None, workers=None):
    """One row per (Lambda, strategy), ordered by (Lambda, strategy kind).

    The codebook stays fixed from the base config; only the jammer's power
    budget is rescaled, mirroring a deployed code under varying attack power.
    """
    lambdas = [float(v) for v in lambda_grid]
    if not lambdas:
        raise SimConfigError("empty Lambda grid")
    strategies = list(strategies) if strategies is not None else [base.strategy]
    # build (and so check) every row's config before any codebook is built
    configs = [replace(base, strategy=replace(strat, Lambda=lam))
               for lam in sorted(lambdas) for strat in sorted(strategies, key=lambda s: s.kind)]
    rows = []
    for cfg in configs:
        est = run_monte_carlo(cfg, workers)
        rows.append(SweepEntry(cfg.strategy.Lambda, cfg.strategy.kind, est.trials, est.errors,
                               est.rate, est.ci_low, est.ci_high, est.clip_rate))
    return rows


SWEEP_HEADER = "Lambda,strategy,trials,errors,rate,ci_low,ci_high,clip_rate"


def write_attack_csv(rows, path):
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.Lambda:.9g},{r.strategy},{r.trials},{r.errors},"
                     f"{r.rate:.9g},{r.ci_low:.9g},{r.ci_high:.9g},{r.clip_rate:.9g}\n")


def sweep_rows_json(rows):
    return [{"Lambda": r.Lambda, "strategy": r.strategy, "trials": r.trials,
             "errors": r.errors, "rate": r.rate, "ci_low": r.ci_low,
             "ci_high": r.ci_high, "clip_rate": r.clip_rate} for r in rows]


def estimate_to_json(est: ErrorEstimate) -> dict:
    return {"trials": est.trials, "errors": est.errors, "rate": est.rate,
            "ci_low": est.ci_low, "ci_high": est.ci_high,
            "relayed_block_errors": list(est.relayed_block_errors),
            "direct_block_errors": list(est.direct_block_errors),
            "clip_rate": est.clip_rate, "tie_count": est.tie_count}


def sim_config_from_json(obj) -> tuple:
    """Parse a full simulation request; returns (SimConfig, sweep dict or None)."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    config = codebook_config_from_json(obj["codebook"])
    sim = SimConfig(codebook=config,
                    strategy=strategy_from_json(obj["strategy"]),
                    trials=int(obj["trials"]),
                    master_seed=int(obj.get("master_seed", 0)),
                    relay_mode=obj.get("relay_mode", "min_distance"),
                    permute=bool(obj.get("permute", False)))
    sweep = obj.get("sweep")
    if sweep is not None:
        sweep = {"lambdas": [float(v) for v in sweep["lambdas"]],
                 "strategies": [strategy_from_json(s) for s in sweep.get(
                     "strategies", [strategy_to_json(sim.strategy)])]}
    return sim, sweep
