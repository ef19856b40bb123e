"""Block-Markov spherical codec for the jammed Gaussian relay channel.

B blocks of n symbols carry B-1 message pairs (m1, m2): the m1 stream is
decoded by the relay from the orthogonal band and retransmitted with a
one-block delay; the destination decodes backwards, first recovering every
m1 from the following block's relay contribution, then every m2 from its own
block.  Codeword tables are drawn uniformly on the sphere (seeded), so
minimum-distance decoding over each equal-energy table reduces to a maximum
correlation, which is evaluated with exact zero ties on all-zero inputs.

Power accounting, with split (alpha, rho), backoff delta and gamma = P1/P:

    x1(m1)            = sqrt(n*gamma*(P-delta)) * a(m1)        relay codeword
    x'(m1, m2 | prev) = rho*sqrt(alpha/gamma) * x1(prev) + beta * v(m1, m2)
    beta              = sqrt(n*(1-rho^2)*alpha*(P-delta))
    x''(m1)           rescaled Gaussian rows of power n*(1-alpha)*P

A block whose x' exceeds the power budget n*alpha*P, beyond the rounding
allowance POWER_RTOL, is sent as zero (flagged).
`transmit` checks each block's x' + x'' against n*P and x1 against n*P1, and
`adversary.make_state` each state against n*Lambda, all with `check_power`,
whose allowance POWER_RTOL is relative, so no check depends on the unit of power.

The randomized code shares a time permutation perm of the n symbols of every
block: both transmitters send x[:, inv] (inv = argsort(perm)) and both
receivers read their observations back through perm.  Reading a sum of
permuted codewords and an additive term back through perm gives the codewords
plus that term read through perm, element by element and in the same order
of addition.  So the relay sees x'' + z[:, perm] and the destination
x' + x1 + s[:, perm], the same floats as permuting and un-permuting, and the
code applies the permutation to the noise and the state alone.

`encode`, `transmit`, `relay_chain`, `destination_observation` and
`decode_backward` take a stack of T trials with a leading trial axis, each
trial with its own permutation; one trial is a stack of 1.  A stack runs the
same matrix-vector products as its trials one by one, so each trial's floats
do not depend on the stack it came in.
"""

from dataclasses import dataclass

import numpy as np

from ._fields import int_field, number_field, seed_field
from .gaussian import GaussianSfdParams, PowerSplit, cut_gains, cut_rates

FIXED_INDEX = 0   # boundary message carried by the final block and block 0's "previous"
MAX_TABLE_BYTES = 1 << 30   # the largest codeword tables a codebook draws
# most symbols (n * blocks) of one trial: a chunk holds at least one trial's
# arrays, and a sweep's decode stack up to four chunks' worth of observations
# (sim._DECODE_STACK_CHUNKS), four trials at the cap; there (n = 2**18, B = 4,
# M1 = M2 = 4, permuted, 4 trials) a one-row run peaked at about 194 MB and a
# 9-row sweep (three jammers at three Lambda) at 294 MB of ru_maxrss
MAX_TRIAL_SYMBOLS = 1 << 20
POWER_RTOL = 1e-12   # the rounding an energy may carry above its budget, relative to it
_HALF = 1 << 32          # 2**32, the number of values of a 32-bit half word
_PCG_PERIOD = 1 << 128   # PCG64's period; advancing by it less k steps rewinds k words


class CodecConfigError(ValueError):
    pass


class CodebookBudgetError(RuntimeError):
    pass


class PowerCapError(RuntimeError):
    """A transmitted or injected sequence exceeds its power budget."""


def check_power(name, energies, budget):
    """Raise PowerCapError unless every energy is at most budget * (1 + POWER_RTOL)."""
    within = energies <= budget * (1.0 + POWER_RTOL)   # written so that nan fails
    if not within.all():
        raise PowerCapError(f"{name} energy {float(energies[~within][0])!r} exceeds the budget "
                            f"{float(budget)!r}")


@dataclass(frozen=True)
class CodebookConfig:
    n: int
    num_blocks: int
    rate_relayed: float     # bits/use carried by the m1 stream
    rate_direct: float      # bits/use carried by the m2 stream
    params: GaussianSfdParams
    split: PowerSplit
    delta: float | None = None   # power backoff; default 0.01 * P
    seed: int = 0


def codebook_config_to_json(config: CodebookConfig) -> dict:
    """Serializable view; codebooks regenerate from config + seed, never the tables."""
    return {"n": config.n, "blocks": config.num_blocks,
            "rate_relayed": config.rate_relayed, "rate_direct": config.rate_direct,
            "P": config.params.P, "P1": config.params.P1,
            "Lambda": config.params.Lambda, "sigma2": config.params.sigma2,
            "alpha": config.split.alpha, "rho": config.split.rho,
            "delta": config.delta, "seed": config.seed}


def codebook_config_from_json(obj) -> CodebookConfig:
    """Read a parsed JSON object (a dict) into a CodebookConfig."""
    num = {key: number_field(obj, key) for key in
           ("P", "P1", "Lambda", "sigma2", "rate_relayed", "rate_direct", "alpha", "rho")}
    return CodebookConfig(
        n=int_field(obj, "n"), num_blocks=int_field(obj, "blocks"),
        rate_relayed=num["rate_relayed"], rate_direct=num["rate_direct"],
        params=GaussianSfdParams(P=num["P"], P1=num["P1"], Lambda=num["Lambda"],
                                 sigma2=num["sigma2"]),
        split=PowerSplit(alpha=num["alpha"], rho=num["rho"]),
        delta=None if obj.get("delta") is None else number_field(obj, "delta"),
        seed=seed_field(obj, "seed"))


def achievable_rate_pair(params: GaussianSfdParams, split: PowerSplit):
    """Asymptotic per-use rate pair (relayed, direct) of decode-forward at this split.

    With `gaussian.cut_rates` r1 = 0.5*log2(D1/Lambda), r3 = 0.5*log2(E3/sigma2)
    and r2 = 0.5*log2(E2/Lambda): direct = r2, and relayed = min{r1 - r2, r3},
    the smaller of what the destination resolves of the relayed stream,
    0.5*log2(D1/E2), and what the relay link carries, since the relay must
    decode that stream too.  So relayed + direct is the objective f_g.
    """
    r1, r3, r2 = cut_rates(params, cut_gains(params, split.alpha, split.rho))
    return float(min(r1 - r2, r3)), float(r2)


def _unit_rows(rng, count, n):
    rows = rng.standard_normal((count, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


class SfdCodebook:
    """Immutable codeword tables for one (config, seed)."""

    def __init__(self, config: CodebookConfig):
        p, sp = config.params, config.split
        if p.P <= 0 or p.P1 <= 0:
            raise CodecConfigError("codebook needs P > 0 and P1 > 0")
        delta = 0.01 * p.P if config.delta is None else float(config.delta)
        if not (0.0 < delta < p.P):
            raise CodecConfigError("delta must satisfy 0 < delta < P")
        if config.n < 1 or config.num_blocks < 2:
            raise CodecConfigError("need n >= 1 and at least 2 blocks")
        if config.n * config.num_blocks > MAX_TRIAL_SYMBOLS:
            raise CodebookBudgetError(
                f"n={config.n} x blocks={config.num_blocks} symbols per trial is above "
                f"the cap of {MAX_TRIAL_SYMBOLS}")
        for name in ("rate_relayed", "rate_direct"):
            rate = getattr(config, name)
            if not (np.isfinite(rate) and rate >= 0):
                raise CodecConfigError(f"{name} must be finite and >= 0, got {rate!r}")
            # each table holds at least 2^(n*rate) rows; refuse before computing that power
            if config.n * rate > np.log2(MAX_TABLE_BYTES):
                raise CodebookBudgetError(
                    f"{name}={rate!r} at n={config.n} needs 2^{config.n * rate:.6g} codewords, "
                    f"over the table budget of {MAX_TABLE_BYTES} bytes")
        m1 = int(np.floor(2.0 ** (config.n * config.rate_relayed)))
        m2 = int(np.floor(2.0 ** (config.n * config.rate_direct)))
        if m1 < 2 or m2 < 2:
            raise CodecConfigError(
                f"message counts ({m1}, {m2}) below 2; raise the rates or n")
        cnt = (m1 + m1 * m2 + 2 * m1) * config.n * 8
        if cnt > MAX_TABLE_BYTES:
            raise CodebookBudgetError(
                f"codeword tables need {cnt} bytes, budget {MAX_TABLE_BYTES}")

        self.config = config
        self.n = config.n
        self.num_blocks = config.num_blocks
        self.m1_count = m1
        self.m2_count = m2
        self.delta = delta
        self.gamma = p.P1 / p.P
        self.beta = float(np.sqrt(config.n * (1.0 - sp.rho ** 2) * sp.alpha * (p.P - delta)))
        self.combine = sp.rho * np.sqrt(sp.alpha / self.gamma)
        self.clip_budget = config.n * sp.alpha * p.P

        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        self.a = _unit_rows(rng, m1, config.n)
        self.v = _unit_rows(rng, m1 * m2, config.n).reshape(m1, m2, config.n)
        self.x1 = np.sqrt(config.n * self.gamma * (p.P - delta)) * self.a
        direct_power = config.n * (1.0 - sp.alpha) * p.P
        x2 = rng.standard_normal((m1, config.n))
        norms = np.linalg.norm(x2, axis=1, keepdims=True)
        self.x2 = x2 * (np.sqrt(direct_power) / norms) if direct_power > 0 else np.zeros_like(x2)

    def x_prime(self, m1, m2, m1_prev):
        """Destination-band codeword before the power clip."""
        return self.combine * self.x1[m1_prev] + self.beta * self.v[m1, m2]


def build_codebook(config: CodebookConfig) -> SfdCodebook:
    return SfdCodebook(config)


def _stack(arr, core, what):
    """arr, refused unless it is a (T, *core) stack of trials."""
    if arr.shape[1:] != core:
        raise CodecConfigError(f"expected a (T, *{core}) stack of {what}, got {arr.shape}")
    return arr


def _through(a, perm):
    """a (T, B, n) read through each trial's permutation perm (T, n): a[t][:, perm[t]].

    One flat take at the indices (t*B + b)*n + perm[t], refused unless perm is
    a (T, n) integer stack with entries in [0, n): out of range, a flat index
    would read the next block, and a negative one would wrap.
    """
    if perm is None:
        return a
    T, B, n = a.shape
    perm = np.asarray(perm)
    if perm.shape != (T, n) or perm.dtype.kind not in "iu" \
            or (perm.size and not (0 <= perm.min() and perm.max() < n)):
        raise CodecConfigError(f"perm must be a {(T, n)} stack of integers in [0, {n})")
    starts = np.arange(0, T * B * n, n).reshape(T, B, 1)
    return a.reshape(-1).take(starts + perm.astype(np.intp, copy=False)[:, None, :])


@dataclass(frozen=True)
class Transmission:
    x_prime: np.ndarray         # (T, B, n) destination-band blocks, clipped blocks zeroed
    x_direct: np.ndarray        # (T, B, n) relay-band blocks
    power_clipped: np.ndarray   # (T, B) bool
    energy: np.ndarray          # (T, B) row_powers(x_prime), 0 where a block was clipped


def encode(codebook: SfdCodebook, messages) -> Transmission:
    """Map B-1 message pairs to the B transmitted blocks.

    messages is a (T, B-1, 2) stack of T trials' (m1, m2) indices, and the
    arrays carry the same leading trial axis; the final block carries the
    fixed pair.  A block whose destination component overshoots the budget
    n*alpha*P by more than the rounding allowance POWER_RTOL is replaced by
    zero and flagged; a NaN energy is not clipped, so `transmit` refuses it.
    """
    B, n = codebook.num_blocks, codebook.n
    msgs = _stack(np.asarray(messages, dtype=int), (B - 1, 2), "message pairs")
    if (msgs < 0).any() or (msgs[..., 0] >= codebook.m1_count).any() \
            or (msgs[..., 1] >= codebook.m2_count).any():
        raise CodecConfigError("message index out of range")
    T = len(msgs)
    chain = np.full((T, B + 1, 2), FIXED_INDEX)   # row b+1 is block b; row 0 is block 0's previous
    chain[:, 1:B] = msgs
    m1 = chain[:, 1:, 0]
    xp = codebook.x_prime(m1, chain[:, 1:, 1], chain[:, :-1, 0]).reshape(T * B, n)
    energy = row_powers(xp)
    clipped = energy > codebook.clip_budget * (1.0 + POWER_RTOL)
    xp[clipped] = 0.0
    energy[clipped] = 0.0
    return Transmission(xp.reshape(T, B, n), codebook.x2[m1], clipped.reshape(T, B),
                        energy.reshape(T, B))


def draw_messages(codebook: SfdCodebook, rngs):
    """A (T, B-1, 2) stack of uniform message pairs, one frame per generator,
    each generator's B-1 m1 indices and then its B-1 m2 indices: the values
    and the end state of two `integers(0, count, B-1)` calls.

    numpy draws an index below a count m in [2, 2**32] from one 32-bit half
    word u as (u*m) >> 32 (Lemire's multiply-shift), drawing again while
    (u*m) mod 2**32 < 2**32 mod m; a 64-bit word gives its low half, then its
    high half, which the generator keeps.  So each trial takes B-1 raw words
    (one `random_raw` call), the 2(B-1) halves of all trials are multiplied
    out as one array, and the kept half is written back into the generator's
    state.  A trial with a draw numpy would reject, or whose generator already
    holds a half word, is rewound and drawn by `integers`, as are all trials
    when a count is outside [2, 2**32] or a bit generator is not PCG64 (whose
    words, half words and rewind this restates).
    """
    B = codebook.num_blocks
    high = np.repeat([[codebook.m1_count], [codebook.m2_count]], B - 1, axis=1)
    gens = [r.bit_generator for r in rngs]
    if not (2 <= high.min() <= high.max() <= _HALF
            and all(type(g) is np.random.PCG64 for g in gens)):
        msgs = np.array([r.integers(0, high) for r in rngs], dtype=np.int64)
        return msgs.reshape(-1, 2, B - 1).transpose(0, 2, 1)
    words = np.array([g.random_raw(B - 1) for g in gens], dtype=np.uint64).reshape(-1, B - 1)
    # (T, 2(B-1)): each word's low half, then its high half
    halves = np.stack([words & (_HALF - 1), words >> 32], axis=-1).reshape(len(gens), -1)
    counts = high.ravel().astype(np.uint64)
    prod = halves * counts
    msgs = (prod >> 32).astype(np.int64)
    rejected = ((prod & (_HALF - 1)) < np.uint64(_HALF) % counts).any(axis=1)
    for t, (g, redo, kept) in enumerate(zip(gens, rejected.tolist(), halves[:, -1].tolist())):
        state = g.state
        if redo or state["has_uint32"]:
            g.advance(_PCG_PERIOD - (B - 1))   # back to the first word; clears the half word
            back = g.state
            back.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
            g.state = back
            msgs[t] = rngs[t].integers(0, high).ravel()
        else:
            state["uinteger"] = kept
            g.state = state
    return msgs.reshape(-1, 2, B - 1).transpose(0, 2, 1)


def normals(rngs, scale, shape):
    """A (T, *shape) stack of normal(0.0, scale, shape) draws, one row per
    generator: each row is filled by standard_normal, then the stack is
    scaled and 0.0 is added, the floats numpy's normal computes as
    0.0 + scale * g (adding 0.0 turns a -0.0 product into +0.0)."""
    out = np.empty((len(rngs), *shape))
    for r, row in zip(rngs, out):
        r.standard_normal(out=row)
    out *= scale
    out += 0.0
    return out


def permutations(rngs, n):
    """A (T, n) stack of rng.permutation(n), one row per generator: numpy's
    permutation(n) is arange(n) shuffled, so each row of one arange stack is
    shuffled in place."""
    out = np.tile(np.arange(n), (len(rngs), 1))
    for r, row in zip(rngs, out):
        r.shuffle(row)
    return out


def row_powers(rows):
    """row @ row for each row along the last axis of an array, one dot product
    per row: the same floats as the per-row products (einsum's differ)."""
    return (rows[..., None, :] @ rows[..., :, None])[..., 0, 0]


def transmit(codebook: SfdCodebook, messages, rngs, relay_mode: str = "min_distance",
             perm=None):
    """One sender -> relay pass over a (T, B-1, 2) stack of messages: encode,
    draw the relay noise z, run the relay, check the power budgets.

    rngs is a sequence of T generators, each drawing its own trial's (B, n)
    z, and perm (if any) is (T, n), one permutation per trial.  Returns (tx,
    y1, x1): the Transmission, the relay observations x_direct + z (z[:, perm]
    under a shared permutation, see the module docstring) and the relay's
    (T, B, n) codewords.  Raises PowerCapError when a block's x' + x'' is over
    n*P or its x1 over n*P1 (see check_power); encode's clip bounds x' alone.
    """
    tx = encode(codebook, messages)
    T, B, n = tx.x_direct.shape
    if len(rngs) != T:
        raise CodecConfigError(f"need one generator per trial, got {len(rngs)} for {T}")
    if perm is not None and (np.shape(perm) != (T, n)
                             or (np.sort(perm, axis=-1) != np.arange(n)).any()):
        raise CodecConfigError("perm must be a (T, n) stack of permutations of range(n)")
    sd = np.sqrt(codebook.config.params.sigma2)
    z = normals(rngs, sd, (B, n))
    y1 = tx.x_direct + _through(z, perm)
    true_idx = np.asarray(messages)[..., 0] if relay_mode == "ideal" else None
    _, x1 = relay_chain(codebook, y1, relay_mode, true_idx)
    p = codebook.config.params
    check_power("x' + x'' block", tx.energy + row_powers(tx.x_direct), n * p.P)
    check_power("x1 block", row_powers(x1), n * p.P1)
    return tx, y1, x1


def destination_observation(signal, s, perm=None):
    """What the destination decodes: the (T, B, n) signal x' + x1 plus the
    state s, with s[:, perm] under a shared permutation (see the module
    docstring), each trial's state read through its own permutation."""
    return signal + _through(s, perm)


def _argmax_corr(tables, Y):
    """Per block k, the row of tables[k] maximizing <Y[k], row>; equal-energy
    rows make this min-distance.  tables is one (M, n) table shared by all
    blocks or a (K, M, n) stack, Y is (K, n).

    np.matmul does one matrix-vector product per block, the same floats as
    table @ y (a GEMM Y @ table.T differs in the last bits, and ties are exact
    equalities).  Returns (indices (K,), ties (K,), correlations (K, M)), with
    ties resolved to the smallest index and counted per block.
    """
    corr = np.matmul(tables, Y[:, :, None])[..., 0]
    ties = (corr == corr.max(axis=1, keepdims=True)).sum(axis=1) - 1
    return corr.argmax(axis=1), ties, corr


def _argmax_corr_direct(codebook: SfdCodebook, m1, Y):
    """_argmax_corr(beta * v[m1], Y) without the (K, M2, n) gather: the rows
    sharing an m1 are decided against their one table beta * v[m1], the same
    matrix-vector products.  Returns (indices (K,), ties (K,))."""
    idx = np.empty(len(m1), dtype=int)
    ties = np.empty(len(m1), dtype=int)
    for m in np.unique(m1):
        rows = np.flatnonzero(m1 == m)
        idx[rows], ties[rows], _ = _argmax_corr(codebook.beta * codebook.v[m], Y[rows])
    return idx, ties


def relay_chain(codebook: SfdCodebook, y1_blocks, mode: str = "min_distance",
                true_indices=None):
    """Run the relay over all blocks: x1 of block 0 is fixed, then one-block delay.

    The estimate for block b reads only y1[b], so all B-1 are decided at once,
    and a (T, B, n) stack of trials as one batch.  Returns (estimates (T, B-1),
    x1_blocks (T, B, n)).
    """
    B, n = codebook.num_blocks, codebook.n
    y1 = _stack(np.asarray(y1_blocks, dtype=float), (B, n), "relay observations")
    T = len(y1)
    if mode == "ideal":
        if true_indices is None:
            raise CodecConfigError("ideal relay mode needs the true indices")
        est = np.array(true_indices, dtype=int)
        if est.shape != (T, B - 1):
            raise CodecConfigError(f"ideal relay mode needs {B - 1} true indices per trial")
    elif mode == "min_distance":
        est = _argmax_corr(codebook.x2, y1[:, :-1].reshape(-1, n))[0].reshape(T, B - 1)
    else:
        raise CodecConfigError("relay mode must be min_distance or ideal")
    x1 = codebook.x1[np.concatenate((np.full((T, 1), FIXED_INDEX), est), axis=1)]
    return est, x1


@dataclass(frozen=True)
class DecodeResult:
    m_relayed: np.ndarray   # (T, B-1) estimates of the m1 stream
    m_direct: np.ndarray    # (T, B-1) estimates of the m2 stream
    tie_count: np.ndarray   # (T,) exact distance ties per trial


def decode_backward(codebook: SfdCodebook, y_blocks) -> DecodeResult:
    """Two passes over the received blocks, each deciding every block at once.

    Pass 1: m1_hat[b] minimizes
        || y[b+1] - (1 + rho*sqrt(alpha/gamma)) * x1(m) ||.
    Pass 2: with prev = m1_hat[b-1] (fixed index at b=0), m2_hat[b] minimizes
        || y[b] - x1(prev) - x_prime(m1_hat[b], m | prev) ||.
    Pass 2 reads only pass 1's estimates, so the order of the blocks within a
    pass does not matter, and the (T, B, n) stack of trials is decided as one
    batch, with the trial axis leading every result.  Exact distance ties
    resolve to the smallest index and are counted.
    """
    B, n = codebook.num_blocks, codebook.n
    y = _stack(np.asarray(y_blocks, dtype=float), (B, n), "received blocks")
    T = len(y)
    table = (1.0 + codebook.combine) * codebook.x1
    m1_hat, ties1, _ = _argmax_corr(table, y[:, 1:].reshape(-1, n))
    m1_hat = m1_hat.reshape(T, B - 1)
    prev = np.concatenate((np.full((T, 1), FIXED_INDEX), m1_hat[:, :-1]), axis=1)
    resid = (y[:, :-1] - table[prev]).reshape(-1, n)
    m2_hat, ties2 = _argmax_corr_direct(codebook, m1_hat.ravel(), resid)
    ties = (ties1 + ties2).reshape(T, B - 1).sum(axis=1)
    return DecodeResult(m1_hat, m2_hat.reshape(T, B - 1), ties)
