import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avrc import codec
from avrc.codec import (
    CodebookBudgetError,
    CodebookConfig,
    CodecConfigError,
    _argmax_corr,
    _argmax_corr_direct,
    achievable_rate_pair,
    build_codebook,
    decode_backward,
    destination_observation,
    encode,
    relay_chain,
    transmit,
)
from avrc.gaussian import GaussianSfdParams, PowerSplit, f_g


def make_config(n=64, blocks=3, m1=8, m2=8, P=4.0, P1=4.0, Lam=1.0, s2=0.5,
                alpha=0.6, rho=0.0, delta=None, seed=11):
    return CodebookConfig(n=n, num_blocks=blocks,
                          rate_relayed=np.log2(m1 + 0.5) / n,
                          rate_direct=np.log2(m2 + 0.5) / n,
                          params=GaussianSfdParams(P, P1, Lam, s2),
                          split=PowerSplit(alpha, rho), delta=delta, seed=seed)


def transmit_clean(cb, msgs, relay_mode="ideal"):
    """Noiseless, stateless channel pass of a stack of trials; returns the
    received destination blocks."""
    tx = encode(cb, msgs)
    _, x1 = relay_chain(cb, tx.x_direct, relay_mode, msgs[..., 0])
    return tx.x_prime + x1, tx


def test_codebook_norm_invariants():
    cb = build_codebook(make_config())
    p, sp = cb.config.params, cb.config.split
    assert np.allclose(np.linalg.norm(cb.a, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(cb.v.reshape(-1, cb.n), axis=1), 1.0, atol=1e-12)
    x1_power = np.linalg.norm(cb.x1, axis=1) ** 2
    assert np.allclose(x1_power, cb.n * (p.P1 / p.P) * (p.P - cb.delta), rtol=1e-12)
    assert (x1_power < cb.n * p.P1).all()
    x2_power = np.linalg.norm(cb.x2, axis=1) ** 2
    assert (x2_power <= cb.n * (1 - sp.alpha) * p.P + 1e-9).all()


def test_codebook_invariants_exhaustive_small():
    cb = build_codebook(make_config(n=32, m1=16, m2=16, blocks=2))
    p, sp = cb.config.params, cb.config.split
    assert cb.a.shape == (16, 32) and cb.v.shape == (16, 16, 32)
    assert np.abs(np.linalg.norm(cb.a, axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.linalg.norm(cb.v, axis=2) - 1.0).max() < 1e-12
    assert np.allclose(np.linalg.norm(cb.x1, axis=1) ** 2,
                       32 * (p.P1 / p.P) * (p.P - cb.delta))
    assert np.allclose(np.linalg.norm(cb.x2, axis=1) ** 2, 32 * (1 - sp.alpha) * p.P)


def test_message_counts_round_down():
    # 2^(n R) just below 8 must floor to 7 codewords
    cfg = make_config(n=64, m1=8, m2=8)
    cfg = CodebookConfig(n=64, num_blocks=3, rate_relayed=np.log2(7.9) / 64,
                         rate_direct=cfg.rate_direct, params=cfg.params,
                         split=cfg.split, seed=0)
    assert build_codebook(cfg).m1_count == 7


def test_codebook_seed_determinism():
    a = build_codebook(make_config(seed=5))
    b = build_codebook(make_config(seed=5))
    c = build_codebook(make_config(seed=6))
    assert np.array_equal(a.v, b.v) and np.array_equal(a.x2, b.x2)
    assert not np.array_equal(a.v, c.v)


def test_codebook_rejects_tiny_message_counts():
    with pytest.raises(CodecConfigError, match="below 2"):
        build_codebook(make_config(m1=1))


def test_codebook_budget_error(monkeypatch):
    monkeypatch.setattr(codec, "MAX_TABLE_BYTES", 1024)
    with pytest.raises(CodebookBudgetError):
        build_codebook(make_config(n=256, m1=64, m2=64))


def test_codebook_refuses_a_trial_over_the_symbol_cap():
    # a chunk holds at least one trial's (B, n) arrays, about 230 B per symbol
    assert build_codebook(make_config(n=1, blocks=2**20, m1=2, m2=2)).num_blocks == 2**20
    with pytest.raises(CodebookBudgetError,
                       match=r"^n=1 x blocks=1048577 symbols per trial is above the cap of 1048576$"):
        build_codebook(make_config(n=1, blocks=2**20 + 1, m1=2, m2=2))


def test_encode_boundary_and_range_checks():
    cb = build_codebook(make_config(blocks=2))
    tx = encode(cb, [[[3, 4]]])
    assert tx.x_prime.shape == tx.x_direct.shape == (1, 2, cb.n)
    # the final block carries the fixed pair with the previous index = 3
    assert np.allclose(tx.x_prime[0, 1], cb.x_prime(0, 0, 3))
    with pytest.raises(CodecConfigError):
        encode(cb, [[[99, 0]]])
    with pytest.raises(CodecConfigError):
        encode(cb, [[[0, 0], [0, 0]]])


def test_rho_zero_never_clips():
    cb = build_codebook(make_config(rho=0.0))
    rng = np.random.default_rng(0)
    msgs = np.stack([rng.integers(0, 8, 2), rng.integers(0, 8, 2)], axis=1)
    tx = encode(cb, msgs[None])
    assert not tx.power_clipped.any()
    assert all(abs(xp @ xp - cb.beta ** 2) < 1e-9 for xp in tx.x_prime[0, :-1])


def test_collinear_pair_clips_and_zeroes():
    # force v(m1, m2) equal to the previous block's direction: with rho around
    # 0.7 the combined norm exceeds the budget and the block must be zeroed
    cb = build_codebook(make_config(rho=float(np.sqrt(0.5)), delta=0.01 * 4.0))
    cb.v[2, 3] = cb.a[1]
    xp = cb.x_prime(2, 3, 1)
    assert xp @ xp > cb.clip_budget
    tx = encode(cb, [[[2, 3], [0, 0]]])
    # message block 0 has previous index fixed, so build the collision there
    cb.v[2, 3] = cb.a[0]
    tx = encode(cb, [[[2, 3], [0, 0]]])
    assert tx.power_clipped[0, 0]
    assert np.array_equal(tx.x_prime[0, 0], np.zeros(cb.n))
    assert not tx.power_clipped[0, 1]


def test_relay_modes():
    cb = build_codebook(make_config())
    noiseless = cb.x2[[[5, 1, 3]]]        # the final block is not decoded
    est, x1 = relay_chain(cb, noiseless, "min_distance")
    assert np.array_equal(est, [[5, 1]])
    assert np.array_equal(x1, cb.x1[[[0, 5, 1]]])
    est, x1 = relay_chain(cb, noiseless, "ideal", [[2, 4]])
    assert np.array_equal(est, [[2, 4]]) and np.array_equal(x1, cb.x1[[[0, 2, 4]]])
    with pytest.raises(CodecConfigError):
        relay_chain(cb, noiseless, "ideal")
    with pytest.raises(CodecConfigError):
        relay_chain(cb, noiseless, "ideal", [[2]])
    with pytest.raises(CodecConfigError):
        relay_chain(cb, noiseless, "oracle")


def test_relay_min_distance_error_rate_under_noise():
    # direct-band energy per block well above the noise floor
    cfg = make_config(n=256, m1=8, P=4.0, alpha=0.5, s2=0.5, seed=7)
    cb = build_codebook(cfg)
    rng = np.random.default_rng(1)
    y1 = np.tile(cb.x2[0], (cb.num_blocks, 1))   # rows past block 0 stay fixed
    errors = 0
    for _ in range(1000):
        m = int(rng.integers(0, cb.m1_count))
        y1[0] = cb.x2[m] + rng.normal(0, np.sqrt(0.5), cb.n)
        est, _ = relay_chain(cb, y1[None], "min_distance")
        errors += est[0, 0] != m
    assert errors / 1000 <= 0.05


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(K=st.integers(1, 5), M=st.integers(1, 9), n=st.integers(1, 40),
       stacked=st.booleans(), zero_mask=st.integers(0, 31), seed=st.integers(0, 2**32 - 1))
def test_batched_argmax_corr_matches_a_per_row_loop(K, M, n, stacked, zero_mask, seed):
    rng = np.random.default_rng(seed)
    tables = rng.normal(size=(K, M, n) if stacked else (M, n))
    Y = rng.normal(size=(K, n))
    Y[[k for k in range(K) if zero_mask >> k & 1]] = 0.0   # all-zero rows tie exactly
    idx, ties, corr = _argmax_corr(tables, Y)
    for k in range(K):
        row_corr = (tables[k] if stacked else tables) @ Y[k]
        assert np.array_equal(corr[k], row_corr)          # the same bits
        assert idx[k] == int(np.argmax(row_corr))
        assert ties[k] == int((row_corr == row_corr[idx[k]]).sum()) - 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(K=st.integers(1, 12), m1=st.integers(2, 5), m2=st.integers(2, 7), n=st.integers(1, 40),
       rho=st.sampled_from([0.0, 0.5, 1.0]), zero_mask=st.integers(0, 4095),
       seed=st.integers(0, 2**32 - 1))
def test_grouped_second_pass_matches_the_gathered_tables(K, m1, m2, n, rho, zero_mask, seed):
    # deciding the rows that share an m1 against one table beta * v[m1] gives
    # the indices and tie counts of _argmax_corr over the gathered stack, bit
    # for bit; at rho = 1, beta = 0 and every row ties
    cb = build_codebook(make_config(n=n, m1=m1, m2=m2, rho=rho, seed=seed % (1 << 30)))
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, cb.m1_count, K)
    Y = rng.normal(size=(K, n))
    Y[[k for k in range(K) if zero_mask >> k & 1]] = 0.0
    idx, ties = _argmax_corr_direct(cb, keys, Y)
    gathered_idx, gathered_ties, _ = _argmax_corr(cb.beta * cb.v[keys], Y)
    assert np.array_equal(idx, gathered_idx)
    assert np.array_equal(ties, gathered_ties)


def test_a_stack_of_trials_matches_each_trial_alone():
    # encode, transmit, relay_chain, destination_observation and decode_backward
    # take a leading trial axis; each trial of the stack is that trial alone,
    # a stack of 1
    cb = build_codebook(make_config(n=48, blocks=4, m1=5, m2=6, s2=2.0, rho=0.6, delta=0.3))
    rng = np.random.default_rng(12)
    T, B, n = 7, cb.num_blocks, cb.n
    msgs = np.stack([rng.integers(0, cb.m1_count, (T, B - 1)),
                     rng.integers(0, cb.m2_count, (T, B - 1))], axis=-1)
    perm = np.stack([rng.permutation(n) for _ in range(T)])
    s = rng.normal(size=(T, B, n))
    s[2] = 0.0
    for mode in ("min_distance", "ideal"):
        tx, y1, x1 = transmit(cb, msgs, [np.random.default_rng(t) for t in range(T)], mode, perm)
        res = decode_backward(cb, destination_observation(tx.x_prime + x1, s, perm))
        assert tx.x_prime.shape == (T, B, n) and res.m_direct.shape == (T, B - 1)
        assert tx.power_clipped.any()
        for t in range(T):
            one = slice(t, t + 1)
            tx_t, y1_t, x1_t = transmit(cb, msgs[one], [np.random.default_rng(t)], mode, perm[one])
            res_t = decode_backward(
                cb, destination_observation(tx_t.x_prime + x1_t, s[one], perm[one]))
            assert np.array_equal(tx.x_prime[one], tx_t.x_prime)
            assert np.array_equal(tx.power_clipped[one], tx_t.power_clipped)
            assert np.array_equal(y1[one], y1_t) and np.array_equal(x1[one], x1_t)
            assert np.array_equal(res.m_relayed[one], res_t.m_relayed)
            assert np.array_equal(res.m_direct[one], res_t.m_direct)
            assert np.array_equal(res.tie_count[one], res_t.tie_count)
    with pytest.raises(CodecConfigError):
        relay_chain(cb, y1, "ideal", msgs[0, :, 0])     # one trial's indices for a stack
    with pytest.raises(CodecConfigError):
        decode_backward(cb, np.zeros((T, B, n + 1)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 48), blocks=st.integers(2, 5), m1=st.integers(2, 6),
       m2=st.integers(2, 6), P=st.floats(0.01, 10.0), ratio=st.floats(0.1, 10.0),
       alpha=st.floats(0.0, 1.0), rho=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_encode_never_exceeds_destination_power(n, blocks, m1, m2, P, ratio, alpha, rho, seed):
    # the power clip: no emitted x' block carries more than n * alpha * P
    cb = build_codebook(make_config(n=n, blocks=blocks, m1=m1, m2=m2, P=P, P1=ratio * P,
                                    alpha=alpha, rho=rho, seed=seed % (1 << 30)))
    rng = np.random.default_rng(seed)
    msgs = np.stack([rng.integers(0, cb.m1_count, blocks - 1),
                     rng.integers(0, cb.m2_count, blocks - 1)], axis=1)
    xp = encode(cb, msgs[None]).x_prime[0]
    assert all(row @ row <= n * alpha * P for row in xp)


def test_round_trip_zero_state_ideal_relay():
    rng = np.random.default_rng(3)
    for trial in range(20):
        cfg = make_config(n=int(rng.integers(128, 400)), blocks=int(rng.integers(2, 5)),
                          m1=int(rng.integers(2, 12)), m2=int(rng.integers(2, 12)),
                          alpha=float(rng.uniform(0.3, 0.8)), rho=0.0,
                          seed=int(rng.integers(1 << 30)))
        cb = build_codebook(cfg)
        msgs = np.stack([rng.integers(0, cb.m1_count, cb.num_blocks - 1),
                         rng.integers(0, cb.m2_count, cb.num_blocks - 1)], axis=1)
        y, _ = transmit_clean(cb, msgs[None])
        res = decode_backward(cb, y)
        assert np.array_equal(res.m_relayed[0], msgs[:, 0])
        assert np.array_equal(res.m_direct[0], msgs[:, 1])


def test_all_zero_input_tie_contract():
    cb = build_codebook(make_config(blocks=3))
    res = decode_backward(cb, np.zeros((1, 3, cb.n)))
    # every relayed-stream distance ties exactly (equal-energy tables), so the
    # smallest index wins and the ties are counted; the direct-stream metric
    # has a strict minimizer there, so only the first pass contributes
    assert np.array_equal(res.m_relayed, [[0, 0]])
    assert res.tie_count.shape == (1,) and res.tie_count[0] == 2 * (cb.m1_count - 1)
    again = decode_backward(cb, np.zeros((1, 3, cb.n)))
    assert np.array_equal(again.m_direct, res.m_direct)


def test_decode_shape_check():
    cb = build_codebook(make_config())
    B, n = cb.num_blocks, cb.n
    with pytest.raises(CodecConfigError):
        decode_backward(cb, np.zeros((2, cb.n + 1)))
    # one trial's bare arrays, without the leading trial axis, are refused
    with pytest.raises(CodecConfigError, match=r"stack of received blocks, got \(3, 64\)"):
        decode_backward(cb, np.zeros((B, n)))
    with pytest.raises(CodecConfigError, match="stack of relay observations"):
        relay_chain(cb, np.zeros((B, n)), "min_distance")
    with pytest.raises(CodecConfigError, match="stack of message pairs"):
        encode(cb, np.zeros((B - 1, 2), dtype=int))
    with pytest.raises(CodecConfigError, match="stack of message pairs"):
        transmit(cb, np.zeros((B - 1, 2), dtype=int), [np.random.default_rng(0)])
    with pytest.raises(CodecConfigError, match="one generator per trial"):
        transmit(cb, np.zeros((2, B - 1, 2), dtype=int), [np.random.default_rng(0)])


def test_achievable_rate_pair_sum_identity():
    params = GaussianSfdParams(4, 4, 1, 0.5)
    split = PowerSplit(0.6, 0.3)
    r1, r2 = achievable_rate_pair(params, split)
    total = 0.5 * np.log2(1 + (4 + 0.6 * 4 + 2 * 0.3 * np.sqrt(0.6 * 16)) / 1)
    assert abs((r1 + r2) - total) < 1e-12
    assert achievable_rate_pair(GaussianSfdParams(0, 1, 1, 1), split) == (0.0, 0.0)
    # where the relay link binds, the relayed rate is what the link carries,
    # 0.5*log2(E3/sigma2) = 0.0352 bits, not 0.5*log2(D1/E2) = 3.04 bits
    relayed, _ = achievable_rate_pair(GaussianSfdParams(1, 100, 1, 10), PowerSplit(0.5, 0.0))
    assert abs(relayed - 0.5 * np.log2(1 + 0.5 * 1 / 10)) < 1e-12
    # the pair splits the objective at every tuple and split
    rng = np.random.default_rng(43)
    for _ in range(500):
        params = GaussianSfdParams(*np.exp(rng.uniform(-5.0, 5.0, 4)))
        split = PowerSplit(*rng.uniform(0.0, 1.0, 2))
        relayed, direct = achievable_rate_pair(params, split)
        assert relayed >= 0.0 and direct >= 0.0
        assert abs(relayed + direct - f_g(params, split)) <= 1e-12


# ---------------------------------------------------------------------------
# transmit and the shared time permutation
# ---------------------------------------------------------------------------

def test_permutation_norm_identity():
    rng = np.random.default_rng(9)
    y = rng.normal(size=32)
    x = rng.normal(size=32)
    perm = rng.permutation(32)
    inv = np.argsort(perm)
    assert abs(np.linalg.norm(y[perm] - x) - np.linalg.norm(y - x[inv])) < 1e-12


def test_encode_gathers_the_per_block_codewords():
    cb = build_codebook(make_config(blocks=4, rho=0.5, delta=0.4))
    msgs = np.array([[3, 1], [5, 7], [0, 2]])
    tx = encode(cb, msgs[None])
    assert tx.power_clipped.any() and not tx.power_clipped.all()   # both rules run
    chain = [(3, 1, 0), (5, 7, 3), (0, 2, 5), (0, 0, 0)]   # (m1, m2, previous m1)
    for b, (m1, m2, prev) in enumerate(chain):
        xp = cb.x_prime(m1, m2, prev)
        clipped = xp @ xp > cb.clip_budget
        assert tx.power_clipped[0, b] == clipped
        assert np.array_equal(tx.x_prime[0, b], np.zeros(cb.n) if clipped else xp)
        assert np.array_equal(tx.x_direct[0, b], cb.x2[m1])
    assert tx.power_clipped.dtype == bool and tx.power_clipped.shape == (1, 4)


def _wrapped_pass(cb, msgs, rng, perm, s):
    """The randomized code written out: both transmitters send x[:, inv], both
    receivers un-permute.  Returns (relay observations, relay codewords,
    destination observations), each un-permuted."""
    inv = np.argsort(perm)
    tx = encode(cb, msgs[None])
    z = rng.normal(0.0, np.sqrt(cb.config.params.sigma2), (cb.num_blocks, cb.n))
    y1 = (tx.x_direct[0][:, inv] + z)[:, perm]
    x1 = relay_chain(cb, y1[None], "min_distance")[1][0]
    y = (tx.x_prime[0][:, inv] + x1[:, inv] + s)[:, perm]
    return y1, x1, y


def test_transmit_permutation_matches_wrapped_code_bit_for_bit():
    cb = build_codebook(make_config(n=128, blocks=4, s2=2.0, rho=0.5))
    rng = np.random.default_rng(8)
    for _ in range(20):
        msgs = np.stack([rng.integers(0, 8, 3), rng.integers(0, 8, 3)], axis=1)
        perm = rng.permutation(cb.n)
        s = rng.normal(size=(cb.num_blocks, cb.n))
        seed = int(rng.integers(1 << 30))
        tx, y1, x1 = transmit(cb, msgs[None], [np.random.default_rng(seed)], perm=perm[None])
        y1_w, x1_w, y_w = _wrapped_pass(cb, msgs, np.random.default_rng(seed), perm, s)
        assert np.array_equal(y1[0], y1_w)
        assert np.array_equal(x1[0], x1_w)
        assert np.array_equal(destination_observation(tx.x_prime + x1, s[None], perm[None])[0], y_w)


def test_transmit_rejects_a_non_permutation():
    cb = build_codebook(make_config())
    msgs = np.array([[[1, 1], [2, 2]]])
    with pytest.raises(CodecConfigError):
        transmit(cb, msgs, [np.random.default_rng(0)], perm=np.zeros((1, cb.n), dtype=int))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(T=st.integers(1, 6), B=st.integers(1, 4), n=st.integers(1, 40),
       identity=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_flat_gather_matches_take_along_axis(T, B, n, identity, seed):
    # one flat take at (t*B + b)*n + perm[t] reads the bits take_along_axis
    # reads, -0.0 included
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(T, B, n))
    zeros = rng.random((T, B, n)) < 0.3
    a[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    perm = np.tile(np.arange(n), (T, 1)) if identity else np.stack(
        [rng.permutation(n) for _ in range(T)])
    got = codec._through(a, perm)
    assert got.shape == (T, B, n)
    assert got.tobytes() == np.take_along_axis(a, perm[:, None, :], axis=-1).tobytes()
    signal = np.zeros((T, B, n))
    for bad in (perm[0], np.concatenate([perm, np.zeros((T, 1), dtype=int)], axis=1),
                perm.astype(float)):
        with pytest.raises(CodecConfigError):
            destination_observation(signal, a, bad)
    for entry in (n, -1):
        out = perm.copy()
        out[T - 1, seed % n] = entry
        with pytest.raises(CodecConfigError):
            destination_observation(signal, a, out)


def test_identity_permutation_matches_plain():
    cb = build_codebook(make_config())
    rng = np.random.default_rng(2)
    msgs = np.stack([rng.integers(0, 8, 2), rng.integers(0, 8, 2)], axis=1)
    tx_p, y1_p, x1_p = transmit(cb, msgs[None], [np.random.default_rng(3)])
    tx_i, y1_i, x1_i = transmit(cb, msgs[None], [np.random.default_rng(3)],
                                perm=np.arange(cb.n)[None])
    assert np.array_equal(tx_p.x_prime, tx_i.x_prime)
    assert np.array_equal(tx_p.x_direct, tx_i.x_direct)
    assert np.array_equal(y1_p, y1_i) and np.array_equal(x1_p, x1_i)


def _seeded_permutation(n, seed):
    return np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)


def test_wrapped_round_trip_any_permutation():
    cb = build_codebook(make_config(n=128))
    perm = _seeded_permutation(cb.n, 77)
    rng = np.random.default_rng(4)
    msgs = np.stack([rng.integers(0, 8, 2), rng.integers(0, 8, 2)], axis=1)
    # the ideal relay ignores its noisy observations; the state is a ramp,
    # so reading it through the wrong permutation (or none) changes y
    tx, _, x1 = transmit(cb, msgs[None], [rng], "ideal", perm[None])
    s = np.tile(np.linspace(-0.1, 0.1, cb.n), (cb.num_blocks, 1))
    y = destination_observation(tx.x_prime + x1, s[None], perm[None])
    inv = np.argsort(perm)
    assert np.array_equal(y[0], (tx.x_prime[0][:, inv] + x1[0][:, inv] + s)[:, perm])
    res = decode_backward(cb, y)
    assert np.array_equal(res.m_relayed[0], msgs[:, 0])
    assert np.array_equal(res.m_direct[0], msgs[:, 1])


def test_wrapped_beats_plain_on_burst_state():
    # the state is a fixed in-budget fake transmission: its codewords line up
    # with the plain code's tables, and read through a permutation they do not
    cfg = make_config(n=256, blocks=3, m1=4, m2=4, P=2.0, P1=2.0, Lam=4.0,
                      alpha=0.5, rho=0.0, seed=13)
    cb = build_codebook(cfg)
    n = cb.n
    fake = np.array([[1, 2], [3, 0]])
    fake_tx = encode(cb, fake[None])
    _, fake_x1 = relay_chain(cb, fake_tx.x_direct, "ideal", fake[None, :, 0])
    state = (fake_tx.x_prime + fake_x1)[0]
    per_symbol = np.einsum("bi,bi->b", state, state) / n   # 2.69, 3.00, 3.31
    assert (per_symbol < 4.0).all()                          # in budget block by block
    assert 2.7 <= per_symbol.mean() <= 3.3
    rng = np.random.default_rng(5)
    plain_err = wrapped_err = 0
    for trial in range(300):
        msgs = np.stack([rng.integers(0, 4, 2), rng.integers(0, 4, 2)], axis=1)
        wrapped = _seeded_permutation(n, trial)
        for perm, bucket in ((None, "plain"), (wrapped, "wrapped")):
            # the ideal relay ignores its noisy observations
            perms = None if perm is None else perm[None]
            tx, _, x1 = transmit(cb, msgs[None], [np.random.default_rng(0)], "ideal", perms)
            res = decode_backward(cb, destination_observation(tx.x_prime + x1, state[None], perms))
            bad = (not np.array_equal(res.m_relayed[0], msgs[:, 0])
                   or not np.array_equal(res.m_direct[0], msgs[:, 1]))
            if bucket == "plain":
                plain_err += bad
            else:
                wrapped_err += bad
    assert plain_err > 0
    assert wrapped_err <= plain_err
