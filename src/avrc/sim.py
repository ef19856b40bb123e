"""Seeded Monte Carlo harness: codec + channel + jammer -> error estimates.

Channel semantics per block: the relay observes the direct-band codeword
plus Gaussian noise of variance sigma2; the destination observes
x' + x1 + state with no thermal noise.  A trial counts as erroneous when any
of its B-1 message pairs decodes wrongly.  Per-trial seeds derive from
(master seed, trial index), so results are identical for any worker count.
Trial t's generator draws the stream of default_rng(SeedSequence([master
seed, t])), and a drawing jammer's that of [jammer seed, master seed, t];
the SeedSequence hash runs once per chunk, over all those entropies as
uint32 arrays, and each PCG64 is handed its state words.

The work runs per chunk of trials, and one chunk serves every row of a
sweep: a loop draws each trial's own seeded stream in the order a trial alone
would, and the chunk is encoded and relayed once as (T, B, n) arrays by
`codec.transmit`, which checks the power budgets.  Each jammer strategy then
makes one draw for the chunk (a drawing kind from streams seeded with the
trials'), and the draw is fitted at each
Lambda of the sweep in turn, so a chunk holds one row's states at a time,
whatever the length of the Lambda grid.  The rows' generators are separate,
so each row gets the floats it would get alone.  Above a trial's state power
a larger Lambda leaves the state as it was, and an equal state is an equal
observation, so a trial is decoded again only in the rows where its state
changed; a one-row run decodes each trial once.  The observations of all a
chunk's rows are stacked in row order and decoded together, in stacks of a
bounded number of trials, and each row's decisions are copied back before
its tally is taken.  A stack decides each
trial as that trial alone, and every tally is a sum over trials, so the
results are also identical for any chunk size.
"""

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._fields import bool_field, int_field, number_list_field, object_field, seed_field, shown
from .adversary import (
    DRAWING_KINDS,
    StateStrategy,
    draw_state,
    make_state,
    strategy_from_json,
)
from .codec import (
    CodebookConfig,
    build_codebook,
    codebook_config_from_json,
    decode_backward,
    destination_observation,
    draw_messages,
    permutations,
    transmit,
)
WILSON_Z = 1.959963984540054   # two-sided 95%
#: most trials one run, or rows x trials one sweep, may ask for: about 17 minutes
#: at 100 us a trial (n = 128, B = 3); more is refused before any codebook is built
MAX_TRIALS = 10**7
# cap on T*B*n, the symbols of one chunk of trials; a chunk's arrays are a few
# times this many floats
_CHUNK_ENTRIES = 1 << 14
# a chunk decodes its rows' observations in stacks of at most this many
# chunks' worth of trials, so a sweep of any length holds at most twice that
# many chunks of observations: the rows' own, and the stack built from them
_DECODE_STACK_CHUNKS = 4
# numpy's SeedSequence hash (O'Neill's seed_seq design with numpy's constants,
# https://www.pcg-random.org/posts/developing-a-seed_seq-alternative.html), as
# Python ints: a uint32 scalar that overflows warns, a uint32 array does not
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # mix_entropy's hashmix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # generate_state's
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


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
        try:   # int_field's rule: an integral float is read as its int, a bool is refused
            object.__setattr__(self, "trials", int_field({"trials": self.trials}, "trials"))
        except ValueError as exc:
            raise SimConfigError(str(exc)) from None
        if self.trials < 1:
            raise SimConfigError("trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise SimConfigError(f"trials {shown(self.trials)} is above the cap of {MAX_TRIALS}")
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


def wilson_interval(errors: int, trials: int):
    """The 95% Wilson score interval of errors out of trials >= 1."""
    p, z = errors / trials, WILSON_Z
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else float(max(0.0, center - half))
    hi = 1.0 if errors == trials else float(min(1.0, center + half))
    return lo, hi


def resolve_workers(requested=None):
    """Worker count: the explicit argument (at least 1), else 1.  Threads take
    whole chunks of trials.  On a 2-vCPU host, 2 threads ran the benchmark's
    mc_impostor workload at 0.58 of the 1-thread speed and mc_sweep_permuted
    at 0.83 (medians of 4 and 10 runs of perfbench's scaling_2w), so 1 stays
    the default; hosts with more cores have not been measured."""
    workers = 1 if requested is None else int(requested)
    if workers < 1:
        raise SimConfigError(f"workers must be >= 1, got {requested!r}")
    return workers


def _hash_consts(init, mult, count):
    """The hash constant `init` and the `count` that follow it, each the one
    before times `mult`: hashmix call k xors with the k-th, multiplies by the
    (k+1)-th."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return h


@functools.cache
def _hash_tables(length):
    """The uint32 (xor, multiply) pairs that hash an entropy of `length` >= 4
    words, in numpy's call order and shaped for _pool_words: (2, P, 1) to hash
    the first P words; (2, P, P, 1) to mix each pool word s into the others
    (row s unused); (2, length - P, P, 1) to mix in each word past the pool;
    and (2, 2P, 1) for generate_state's 2P output words."""
    P = _POOL_SIZE
    h = _hash_consts(_INIT_A, _MULT_A, P * length)
    pairs = np.array([h[:-1], h[1:]], dtype=np.uint32)[..., None]
    cross = np.zeros((2, P, P, 1), dtype=np.uint32)
    cross[:, ~np.eye(P, dtype=bool)] = pairs[:, P:P * P]
    h = _hash_consts(_INIT_B, _MULT_B, 2 * P)
    state = np.array([h[:-1], h[1:]], dtype=np.uint32)[..., None]
    return pairs[:, :P], cross, pairs[:, P * P:].reshape(2, -1, P, 1), state


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool_words(entropy):
    """numpy's mix_entropy, then generate_state(4, np.uint64), on each column
    of a (length >= 4, N) uint32 entropy array: (N, 4) uint64 words."""
    first, cross, rest, state = _hash_tables(len(entropy))
    mixer = _hashmix(entropy[:_POOL_SIZE], *first)
    for src in range(_POOL_SIZE):
        mixed = _mix(mixer, _hashmix(mixer[src], *cross[:, src]))
        mixed[src] = mixer[src]   # a pool word is not mixed into itself
        mixer = mixed
    for src in range(_POOL_SIZE, len(entropy)):
        mixer = _mix(mixer, _hashmix(entropy[src], *rest[:, src - _POOL_SIZE]))
    words = _hashmix(np.concatenate([mixer, mixer]), *state).astype(np.uint64)
    return (words[0::2] | words[1::2] << 32).T


def _entropy_words(prefix):
    """The ints of `prefix` as SeedSequence reads them: each as its
    little-endian 32-bit words, 0 as one word."""
    words = []
    for v in prefix:
        if v < 0:
            raise ValueError(f"seed entropy must be >= 0, got {v!r}")
        words += [v >> shift & _MASK32 for shift in range(0, max(v.bit_length(), 1), 32)]
    return words


def _seed_words(prefixes, trials):
    """SeedSequence([*prefix, t]).generate_state(4, np.uint64) for every prefix
    and trial index t, as a C-contiguous (len(prefixes), T, 4) uint64 array.

    Each entropy is the prefix's words, then t as one word, so t must be below
    2**32.  An entropy of up to 4 words hashes as if padded with zeros to 4, so
    all of those take one pass over uint32 arrays with a column per (prefix,
    t); a longer one takes a pass per length.
    """
    trials = list(trials)
    if trials and not 0 <= min(trials) <= max(trials) < 1 << 32:
        raise ValueError(f"trial indices must be in [0, 2**32), got {min(trials)}..{max(trials)}")
    words = [_entropy_words(prefix) for prefix in prefixes]
    by_length = {}
    for j, w in enumerate(words):
        by_length.setdefault(max(len(w) + 1, _POOL_SIZE), []).append(j)
    # PCG64 reads its words through a raw pointer, so each (T, 4) row is contiguous
    out = np.empty((len(prefixes), len(trials), 4), dtype=np.uint64)
    for length, group in by_length.items():
        entropy = np.zeros((length, len(group), len(trials)), dtype=np.uint32)
        for col, j in enumerate(group):
            entropy[:len(words[j]), col] = np.array(words[j], dtype=np.uint32)[:, None]
            entropy[len(words[j]), col] = trials
        out[group] = _pool_words(entropy.reshape(length, -1)).reshape(len(group), -1, 4)
    return out


@functools.cache
def _fixed_seed_type():
    """An ISeedSequence that hands PCG64 precomputed state words, defined on
    first use so that importing avrc leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("FixedSeed holds 4 uint64 words only")
            return self.words

    return FixedSeed


def _generators(prefixes, trials):
    """For each prefix, one generator per trial index t with the stream of
    default_rng(SeedSequence([*prefix, t])), all from one _seed_words call."""
    FixedSeed, Generator, PCG64 = _fixed_seed_type(), np.random.Generator, np.random.PCG64
    return [[Generator(PCG64(FixedSeed(w))) for w in rows]
            for rows in _seed_words(prefixes, trials)]


def _run_chunk(rows, codebook, trials):
    """Error tallies of a range of trials, one per row: (errors, relayed block
    errors (B-1,), direct block errors (B-1,), clipped blocks, ties).

    The rows share the code, the trials, the master seed, the relay mode and
    the permutation flag, and differ only in the jammer.  The trials' own
    generators ([master_seed, t]) and the jammer generators of each strategy
    that draws ([seed, master_seed, t]) are seeded once, by one _seed_words
    pass over the chunk.  Each trial's own stream draws m1, m2, the
    permutation and then the relay noise, as for a trial alone, and the
    chunk is encoded and relayed once as (T, B, n) arrays, `transmit`
    checking the power budgets (a PowerCapError ends the run).  Each
    strategy then draws once (`draw_state`), and its rows are walked in
    order, `make_state` fitting the draw at each row's Lambda; only the
    previous row's states are kept.  A trial whose state equals (==) its
    state in the row before sees the same observation, so it keeps that
    row's decode; only the other trials' observations are made.  Those of
    all the rows go onto one stack, in that order, which one decode_backward
    call decides when the next row's trials would take it over
    _DECODE_STACK_CHUNKS chunks' worth, and at the end; its decisions are
    then copied into the running error and tie arrays row by row, in the
    same order, and each row's tally is taken after its own.
    """
    cb, base = codebook, rows[0]
    B, n = cb.num_blocks, cb.n
    jammers = {}   # the strategy up to Lambda -> the indices of its rows
    for i, row in enumerate(rows):
        jammers.setdefault(replace(row.strategy, Lambda=1.0), []).append(i)
    drawing = [strategy for strategy in jammers if strategy.kind in DRAWING_KINDS]
    rngs, *drawn = _generators([[base.master_seed]] + [[strategy.seed, base.master_seed]
                                                        for strategy in drawing], trials)
    # the zero and fixed kinds never draw, so they get no generators
    jam_rngs = {strategy: [None] * len(trials) for strategy in jammers} | dict(zip(drawing, drawn))
    msgs = draw_messages(cb, rngs)
    perm = permutations(rngs, n) if base.permute else None
    tx, _, x1 = transmit(cb, msgs, rngs, base.relay_mode, perm)   # checks the budgets
    clipped = int(tx.power_clipped.sum())
    signal = tx.x_prime + x1   # what the destination hears before the state

    tallies = [None] * len(rows)
    err = np.zeros(msgs.shape, dtype=bool)   # (T, B-1, 2): wrong m1, wrong m2 per block
    ties = np.zeros(len(msgs), dtype=int)
    limit = _DECODE_STACK_CHUNKS * max(1, _CHUNK_ENTRIES // (B * n))   # trials a stack
    planned, observed = [], []   # (row, trials, count) in walk order; their observations

    def decode_planned():
        if observed:
            res = decode_backward(cb, observed[0] if len(observed) == 1
                                  else np.concatenate(observed))
            decided = np.stack([res.m_relayed, res.m_direct], axis=-1)
        lo = 0
        for i, fresh, count in planned:
            if count:
                err[fresh] = decided[lo:lo + count] != msgs[fresh]
                ties[fresh] = res.tie_count[lo:lo + count]
                lo += count
            tallies[i] = (int(err.any(axis=(1, 2)).sum()), *err.sum(axis=0).T, clipped,
                          int(ties.sum()))
        planned.clear()
        observed.clear()

    for strategy, idx in jammers.items():
        drawn = draw_state(strategy, B * n, jam_rngs[strategy], cb, base.relay_mode)
        prev = None
        for i in idx:
            s = make_state(rows[i].strategy, drawn).reshape(-1, B, n)
            # the trials whose state differs from the row before; all, as views, in
            # the first row.  == holds for +0.0 and -0.0, which the decoder's sums,
            # max, argmax and == cannot tell apart either
            fresh = slice(None) if prev is None else np.flatnonzero((s != prev).any(axis=(1, 2)))
            count = len(msgs) if prev is None else len(fresh)
            if sum(map(len, observed)) + count > limit:
                decode_planned()
            planned.append((i, fresh, count))
            if count:
                observed.append(destination_observation(
                    signal[fresh], s[fresh], None if perm is None else perm[fresh]))
            prev = s
    decode_planned()
    return tallies


def _estimates(rows, codebook, workers) -> list:
    """One ErrorEstimate per row of configs that differ only in the jammer
    (see _run_chunk), from chunks of at most _CHUNK_ENTRIES trial symbols
    that every row shares; a thread takes whole chunks, and no more threads
    start than the host has CPUs."""
    trials, B = rows[0].trials, codebook.num_blocks
    size = max(1, _CHUNK_ENTRIES // (B * codebook.n))
    chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]

    def run(chunk):
        return _run_chunk(rows, codebook, chunk)

    threads = min(workers, os.cpu_count() or 1)
    if threads == 1:
        per_chunk = list(map(run, chunks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
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
    if not strategies:
        raise SimConfigError("empty strategy list")
    rows = len(lambdas) * len(strategies)
    if rows * base.trials > MAX_TRIALS:
        raise SimConfigError(f"sweep of {rows} rows x {base.trials} trials is above the cap "
                             f"of {MAX_TRIALS} row-trials")
    # build (and so check) every row's config before any codebook is built
    configs = [replace(base, strategy=replace(strat, Lambda=lam))
               for lam in sorted(lambdas) for strat in sorted(strategies, key=lambda s: s.kind)]
    nworkers = resolve_workers(workers)
    estimates = _estimates(configs, build_codebook(base.codebook), nworkers)
    return [SweepEntry(cfg.strategy.Lambda, cfg.strategy.kind, est.trials, est.errors, est.rate,
                       est.ci_low, est.ci_high, est.clip_rate)
            for cfg, est in zip(configs, estimates)]


def sim_config_from_json(obj) -> tuple:
    """Read a parsed simulation request; returns (SimConfig, sweep dict or None)."""
    if not isinstance(obj, dict):
        raise SimConfigError(f"simulation config must be a JSON object, got {shown(obj)}")
    try:
        sim = SimConfig(codebook=codebook_config_from_json(object_field(obj, "codebook")),
                        strategy=strategy_from_json(object_field(obj, "strategy")),
                        trials=int_field(obj, "trials"),
                        master_seed=seed_field(obj, "master_seed"),
                        relay_mode=obj.get("relay_mode", "min_distance"),
                        permute=bool_field(obj, "permute", False))
        sweep = obj.get("sweep")
        if sweep is not None:
            sweep = object_field(obj, "sweep")
            sweep = {"lambdas": number_list_field(sweep, "lambdas"),
                     "strategies": [sim.strategy] if "strategies" not in sweep else
                                   [strategy_from_json(s)
                                    for s in object_field(sweep, "strategies", many=True)]}
    except KeyError as exc:
        raise SimConfigError(f"simulation config is missing the key {exc}") from exc
    return sim, sweep
