"""Seeded Monte Carlo harness: codec + channel + jammer -> error estimates.

Channel semantics per block: the relay observes the direct-band codeword
plus Gaussian noise of variance sigma2; the destination observes
x' + x1 + state with no thermal noise.  A trial counts as erroneous when any
of its B-1 message pairs decodes wrongly.  Per-trial seeds derive from
(master seed, trial index), so results are identical for any worker count.

The work runs per chunk of trials, and one chunk serves every row of a
sweep: a loop draws each trial's own seeded stream in the order a trial alone
would, and the chunk is encoded, relayed and checked once as (T, B, n)
arrays.  Each jammer strategy that draws then seeds its streams and draws
once for the chunk, and that draw is fitted to each Lambda of the sweep.  The
rows' generators are separate, so each row gets the floats it would get
alone.  Above a trial's state power a larger Lambda leaves the state as it
was, and an equal state is an equal observation, so a trial is decoded again
only in the rows where its state changed; a one-row run decodes each trial
once, as before.  Every tally is a sum over trials, so the results are also
identical for any chunk size.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._fields import bool_field, int_field, number_list_field, seed_field
from .adversary import (
    DRAWING_KINDS,
    StateStrategy,
    make_state,
    strategy_from_json,
    strategy_to_json,
)
from .codec import (
    CodebookConfig,
    PowerCapError,
    Transmission,
    build_codebook,
    codebook_config_from_json,
    decode_backward,
    destination_observation,
    draw_messages,
    transmit,
)
WILSON_Z = 1.959963984540054   # two-sided 95%
#: most trials one run may ask for: about 17 minutes at 100 us a trial (n = 128,
#: B = 3); a larger count is refused before any codebook is built
MAX_TRIALS = 10**7
# cap on T*B*n, the symbols of one chunk of trials; a chunk's arrays are a few
# times this many floats
_CHUNK_ENTRIES = 1 << 14


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
        if self.trials > MAX_TRIALS:
            raise SimConfigError(f"trials {self.trials} is above the cap of {MAX_TRIALS}")
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
    """Worker count: the explicit argument (at least 1), else 1.  Threads take
    whole chunks of trials.  On a 2-vCPU host, 2 threads ran the chunked
    mc_impostor workload at 0.71 of the 1-thread speed and mc_sweep_permuted at
    0.38 (the per-trial loop: 0.41 and 0.33), so 1 stays the default; hosts
    with more cores have not been measured."""
    workers = 1 if requested is None else int(requested)
    if workers < 1:
        raise SimConfigError(f"workers must be >= 1, got {requested!r}")
    return workers


def _check_power(name, energies, budget):
    """Raise PowerCapError unless every block energy is within the budget."""
    if not (energies <= budget).all():
        raise PowerCapError(f"{name} block energy {energies.max()!r} exceeds {budget!r}")


def _run_chunk(rows, codebook, trials):
    """Error tallies of a range of trials, one per row: (errors, relayed block
    errors (B-1,), direct block errors (B-1,), clipped blocks, ties).

    The rows share the code, the trials, the master seed, the relay mode and
    the permutation flag, and differ only in the jammer.  The trials' own
    generators, and the jammer generators of each strategy that draws, are
    seeded once.  Each trial's own stream draws m1, m2, the permutation and
    then the relay noise, as for a trial alone, and the chunk is encoded,
    relayed and checked once as (T, B, n) arrays.  Each strategy then draws
    once, and `make_state` fits the draw to every Lambda of that strategy's
    rows.  Walking a strategy's rows in order, a trial whose state equals
    (==) its state in the row before sees the same observation, so it keeps
    that row's decode; only the other trials are decoded, as one stack.
    """
    cb, base = codebook, rows[0]
    B, n = cb.num_blocks, cb.n
    jammers = {}   # the strategy up to Lambda -> the indices of its rows
    for i, row in enumerate(rows):
        jammers.setdefault(replace(row.strategy, Lambda=1.0), []).append(i)
    rngs = [np.random.default_rng(np.random.SeedSequence([base.master_seed, t]))
            for t in trials]
    # the zero and fixed kinds never draw, so they get no generators
    jam_rngs = {strategy: [np.random.default_rng(np.random.SeedSequence(
        [strategy.seed, base.master_seed, t])) if strategy.kind in DRAWING_KINDS else None
        for t in trials] for strategy in jammers}
    msgs = draw_messages(cb, rngs)
    perm = np.stack([rng.permutation(n) for rng in rngs]) if base.permute else None
    tx, _, x1 = transmit(cb, msgs, rngs, base.relay_mode, perm)

    p = cb.config.params
    slack = 1e-9 * n
    x_prime, x_direct = tx.x_prime.reshape(-1, n), tx.x_direct.reshape(-1, n)
    e_prime = np.einsum("bi,bi->b", x_prime, x_prime)
    _check_power("x'", e_prime, n * cb.config.split.alpha * p.P + slack)
    _check_power("x' + x''", e_prime + np.einsum("bi,bi->b", x_direct, x_direct),
                 n * p.P + slack)
    x1_rows = x1.reshape(-1, n)
    _check_power("x1", np.einsum("bi,bi->b", x1_rows, x1_rows), n * p.P1 + slack)
    clipped = int(tx.power_clipped.sum())

    tallies = [None] * len(rows)
    err = np.zeros(msgs.shape, dtype=bool)   # (T, B-1, 2): wrong m1, wrong m2 per block
    ties = np.zeros(len(msgs), dtype=int)
    for strategy, idx in jammers.items():
        states = make_state(strategy, B * n, jam_rngs[strategy], cb, base.relay_mode,
                            [rows[i].strategy.Lambda for i in idx]).reshape(len(idx), -1, B, n)
        for k, (i, s) in enumerate(zip(idx, states)):
            # the trials whose state differs from the row before; all, as views, in
            # the first row.  == holds for +0.0 and -0.0, which the decoder's sums,
            # max, argmax and == cannot tell apart either
            fresh = slice(None) if k == 0 else np.flatnonzero((s != states[k - 1]).any(axis=(1, 2)))
            if k == 0 or len(fresh):
                sub = Transmission(tx.x_prime[fresh], tx.x_direct[fresh], tx.power_clipped[fresh])
                res = decode_backward(cb, destination_observation(
                    sub, x1[fresh], s[fresh], None if perm is None else perm[fresh]))
                err[fresh] = np.stack([res.m_relayed, res.m_direct], axis=-1) != msgs[fresh]
                ties[fresh] = res.tie_count
            tallies[i] = (int(err.any(axis=(1, 2)).sum()), *err.sum(axis=0).T, clipped,
                          int(ties.sum()))
    return tallies


def _estimates(rows, codebook, workers) -> list:
    """One ErrorEstimate per row of configs that differ only in the jammer
    (see _run_chunk), from chunks of at most _CHUNK_ENTRIES trial symbols
    that every row shares; a thread takes whole chunks."""
    trials, B = rows[0].trials, codebook.num_blocks
    size = max(1, _CHUNK_ENTRIES // (B * codebook.n))
    chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]

    def run(chunk):
        return _run_chunk(rows, codebook, chunk)

    if workers == 1:
        per_chunk = list(map(run, chunks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(run, chunks))

    estimates = []
    for tallies in zip(*per_chunk):
        errors, rel, dr, clipped, ties = (sum(column) for column in zip(*tallies))
        lo, hi = wilson_interval(errors, trials)
        estimates.append(ErrorEstimate(
            trials=trials, errors=errors, rate=errors / trials, ci_low=lo, ci_high=hi,
            relayed_block_errors=tuple(int(v) for v in rel),
            direct_block_errors=tuple(int(v) for v in dr),
            clip_rate=clipped / (trials * B), tie_count=ties))
    return estimates


def run_monte_carlo(config: SimConfig, workers=None) -> ErrorEstimate:
    """Estimate the message error rate of the configured code under attack."""
    nworkers = resolve_workers(workers)
    return _estimates([config], build_codebook(config.codebook), nworkers)[0]


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
    The rows share one codebook, one sender pass per chunk of trials and one
    jammer draw per strategy and chunk; each row equals run_monte_carlo on its
    own config.
    """
    lambdas = [float(v) for v in lambda_grid]
    if not lambdas:
        raise SimConfigError("empty Lambda grid")
    strategies = list(strategies) if strategies is not None else [base.strategy]
    # build (and so check) every row's config before any codebook is built
    configs = [replace(base, strategy=replace(strat, Lambda=lam))
               for lam in sorted(lambdas) for strat in sorted(strategies, key=lambda s: s.kind)]
    nworkers = resolve_workers(workers)
    estimates = _estimates(configs, build_codebook(base.codebook), nworkers)
    return [SweepEntry(cfg.strategy.Lambda, cfg.strategy.kind, est.trials, est.errors, est.rate,
                       est.ci_low, est.ci_high, est.clip_rate)
            for cfg, est in zip(configs, estimates)]


SWEEP_HEADER = "Lambda,strategy,trials,errors,rate,ci_low,ci_high,clip_rate"


def write_attack_csv(rows, path):
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.Lambda:.9g},{r.strategy},{r.trials},{r.errors},"
                     f"{r.rate:.9g},{r.ci_low:.9g},{r.ci_high:.9g},{r.clip_rate:.9g}\n")


def sim_config_from_json(obj) -> tuple:
    """Parse a full simulation request; returns (SimConfig, sweep dict or None)."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    try:
        sim = SimConfig(codebook=codebook_config_from_json(obj["codebook"]),
                        strategy=strategy_from_json(obj["strategy"]),
                        trials=int_field(obj, "trials"),
                        master_seed=seed_field(obj, "master_seed"),
                        relay_mode=obj.get("relay_mode", "min_distance"),
                        permute=bool_field(obj, "permute", False))
        sweep = obj.get("sweep")
        if sweep is not None:
            sweep = {"lambdas": number_list_field(sweep, "lambdas"),
                     "strategies": [strategy_from_json(s) for s in sweep.get(
                         "strategies", [strategy_to_json(sim.strategy)])]}
    except KeyError as exc:
        raise SimConfigError(f"simulation config is missing the key {exc}") from exc
    return sim, sweep
