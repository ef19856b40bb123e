import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avrc import discrete
from avrc.discrete import (
    ChannelFormatError,
    Dmc,
    ResourceLimitError,
    binary_pipe_dmc,
    classify_capacity,
    cutset_bound,
    degradedness_classify,
    df_bound,
    dmc_from_json,
    dmc_to_json,
    minimax_receiver_information,
    mutual_information,
    residual_of_witness,
    single_use_code_table,
    symmetrizability,
)
from avrc.optimize import simplex_grid

def additive_channel():
    W = np.zeros((2, 2, 3))
    for x in range(2):
        for s in range(2):
            W[x, s, x + s] = 1.0
    return W


def relay_product_channel():
    W = np.zeros((2, 2, 2))
    for x in range(2):
        for s in range(2):
            W[x, s, x * (1 - s)] = 1.0
    return W


def exhaustive_mi(p, q, W):
    # independent finite-sum oracle
    X, S, O = W.shape
    joint = np.zeros((X, O))
    for x in range(X):
        for s in range(S):
            joint[x] += p[x] * q[s] * W[x, s]
    out = joint.sum(axis=0)
    total = 0.0
    for x in range(X):
        for o in range(O):
            if joint[x, o] > 0:
                total += joint[x, o] * np.log2(joint[x, o] / (p[x] * out[o]))
    return total


def _entropy(P):
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(P > 0, P * np.log2(P), 0.0).sum(axis=-1)


def mi_grid(P, Q, W):
    # independent grid oracle: I(X;O) = H(O) - H(O|X) for every (q, p) pair,
    # returned as an array of shape (len(Q), len(P))
    WQ = np.einsum("qs,xso->qxo", Q, W)
    return _entropy(np.einsum("px,qxo->qpo", P, WQ)) - _entropy(WQ) @ P.T


# ---------------------------------------------------------------------------
# types and serialization
# ---------------------------------------------------------------------------

def test_dmc_validation_reports_offending_slice():
    W = np.zeros((2, 2, 2, 2))
    W[:, :, 0, 0] = 1.0
    W[1, 1, 0, 0] = 0.5
    with pytest.raises(ChannelFormatError, match=r"x=1, s=1"):
        Dmc(W)


def test_dmc_rejects_nan_kernel_entry():
    W = binary_pipe_dmc().kernel.copy()
    W[0, 0, 0, 0] = np.nan
    with pytest.raises(ChannelFormatError, match="kernel entries"):
        Dmc(W)


def test_dmc_rejects_infinite_slice_sum():
    # an infinite entry passes the sign check and fails the slice sum
    W = binary_pipe_dmc().kernel.copy()
    W[1, 0, 0, 0] = np.inf
    with pytest.raises(ChannelFormatError, match=r"x=1, s=0"):
        Dmc(W)


@pytest.mark.parametrize("rate", [np.nan, -0.5])
def test_dmc_rejects_bad_relay_rate(rate):
    with pytest.raises(ChannelFormatError, match=r"relay_rate \(C1\)"):
        Dmc(binary_pipe_dmc().kernel, relay_rate=rate)


@pytest.mark.parametrize("p", [[np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan], [-0.1, 1.1],
                               [0.5, 0.6]])
def test_validate_pmf_rejects_nan_negative_and_missum(p):
    with pytest.raises(ChannelFormatError):
        discrete.validate_pmf(p)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(X=st.integers(1, 3), S=st.integers(1, 3), Y=st.integers(1, 3), Y1=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       defect=st.sampled_from(["none", "nan", "negative", "missum"]))
def test_validation_accepts_pmfs_and_rejects_any_bad_entry(X, S, Y, Y1, seed, defect):
    rng = np.random.default_rng(seed)
    W = _zeroed_pmfs(rng, (X, S), Y * Y1).reshape(X, S, Y, Y1)
    p = _zeroed_pmfs(rng, (), X)
    where = tuple(int(rng.integers(n)) for n in W.shape)
    j = int(rng.integers(X))
    if defect == "none":
        Dmc(W, relay_rate=float(rng.uniform(0, 2)))
        assert np.array_equal(discrete.validate_pmf(p), p)
        return
    if defect == "nan":
        W[where] = p[j] = np.nan
    elif defect == "negative":
        W[where] = p[j] = -float(rng.uniform(1e-9, 1.0))
    else:   # one entry off by more than the tolerance, so its sum misses 1
        off = float(rng.uniform(1e-9, 1.0))
        W[where] += off
        p[j] += off
    with pytest.raises(ChannelFormatError):
        Dmc(W)
    with pytest.raises(ChannelFormatError):
        discrete.validate_pmf(p)


def test_dmc_json_round_trip():
    dmc = binary_pipe_dmc()
    blob = json.dumps(dmc_to_json(dmc))
    back = dmc_from_json(json.loads(blob))
    assert np.array_equal(back.kernel, dmc.kernel)
    assert back.relay_rate == 1.0
    with pytest.raises(ChannelFormatError):
        dmc_from_json({"X": 2, "S": 2, "Y": 3, "Y1": 2, "C1": 1.0, "W": [[0.0]]})


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mi_identity_channel():
    W = np.zeros((2, 1, 2))
    W[0, 0, 0] = W[1, 0, 1] = 1.0
    assert abs(mutual_information([0.5, 0.5], [1.0], W) - 1.0) < 1e-12


def test_mi_independent_output():
    W = np.tile(np.array([0.3, 0.7]), (2, 2, 1))
    assert abs(mutual_information([0.5, 0.5], [0.4, 0.6], W)) < 1e-12


def test_mi_additive_uniform_half_bit():
    v = mutual_information([0.5, 0.5], [0.5, 0.5], additive_channel())
    assert abs(v - 0.5) < 1e-12   # H(Y) = 1.5, H(Y|X) = 1


def test_mi_matches_exhaustive_oracle_randomized():
    rng = np.random.default_rng(5)
    for _ in range(20):
        X, S, O = rng.integers(2, 5, 3)
        W = rng.dirichlet(np.ones(O), size=(X, S))
        p = rng.dirichlet(np.ones(X))
        q = rng.dirichlet(np.ones(S))
        assert abs(mutual_information(p, q, W) - exhaustive_mi(p, q, W)) < 1e-10


def test_mi_permutation_invariance():
    rng = np.random.default_rng(6)
    W = rng.dirichlet(np.ones(4), size=(3, 2))
    p = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(2))
    base = mutual_information(p, q, W)
    px = rng.permutation(3)
    po = rng.permutation(4)
    assert abs(mutual_information(p[px], q, W[px][:, :, po]) - base) < 1e-12


def _zeroed_pmfs(rng, shape, k):
    """Random pmfs on k atoms with about a third of the entries exactly zero."""
    P = rng.dirichlet(np.ones(k), size=shape) * (rng.random(shape + (k,)) > 0.33)
    P[..., 0] += P.sum(axis=-1) == 0
    return P / P.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("lead", [(7,), (3, 5)])
def test_mi_kernel_matches_exhaustive_oracle_on_batches_with_zeros(lead):
    rng = np.random.default_rng(17)
    X, S, O = 3, 2, 4
    p = _zeroed_pmfs(rng, lead, X)
    q = _zeroed_pmfs(rng, lead, S)
    W = _zeroed_pmfs(rng, lead + (X, S), O)
    J = p[..., :, None] * np.einsum("...s,...xso->...xo", q, W)
    assert (J == 0).any()
    got = discrete._mi(J)
    assert got.shape == lead
    for idx in np.ndindex(*lead):
        assert abs(got[idx] - exhaustive_mi(p[idx], q[idx], W[idx])) < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(U=st.integers(1, 4), X=st.integers(1, 4), O=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_mi_chain_rule_equals_conditional_sum(U, X, O, seed):
    # U - X - O Markov: I(X;O) - I(U;O) is I(X;O|U) = sum_u p(u) I(X;O | U=u)
    rng = np.random.default_rng(seed)
    Pux = _zeroed_pmfs(rng, (), U * X).reshape(U, X)
    Pux[rng.integers(U)] = 0.0                 # an unused value of U
    if Pux.sum() == 0:
        Pux[0, 0] = 1.0
    Pux /= Pux.sum()
    WQ = _zeroed_pmfs(rng, (X,), O)
    chain = discrete._mi(Pux.sum(axis=0)[:, None] * WQ) - discrete._mi(Pux @ WQ)
    direct = sum(Pux[u].sum() * discrete._mi((Pux[u] / Pux[u].sum())[:, None] * WQ)
                 for u in range(U) if Pux[u].sum() > 0)
    assert abs(chain - direct) < 1e-12
    assert chain >= -1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(U=st.integers(1, 4), X=st.integers(1, 4), O=st.integers(1, 4),
       S=st.integers(1, 3), N=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_pooled_informations_match_the_kernel_on_built_joints(U, X, O, S, N, seed):
    # I(X;O) and I(U;O) for every (candidate, q) pair, from marginal entropies,
    # against _mi on each joint built out
    rng = np.random.default_rng(seed)
    Pux = _zeroed_pmfs(rng, (3,), U * X).reshape(3, U, X)
    Pux[0, rng.integers(U)] = 0.0                 # an unused value of U
    Pux[0, 0, 0] += Pux[0].sum() == 0
    Pux[0] /= Pux[0].sum()
    P = Pux.sum(axis=1)
    W = _zeroed_pmfs(rng, (X, S), O)
    Q = _zeroed_pmfs(rng, (N,), S)
    WQ = discrete._wq_batch(Q, W)
    assert np.allclose(WQ, np.einsum("ns,xso->nxo", Q, W), rtol=0, atol=1e-15)
    i_xo = discrete._info_xo(P, WQ)
    i_uo = discrete._info_uo(Pux, WQ)
    assert i_xo.shape == i_uo.shape == (3, N)
    for c in range(3):
        for n in range(N):
            assert abs(i_xo[c, n] - discrete._mi(P[c][:, None] * WQ[n])) < 1e-12
            assert abs(i_uo[c, n] - discrete._mi(Pux[c] @ WQ[n])) < 1e-12


def test_mi_grid_oracle_matches_exhaustive_oracle():
    rng = np.random.default_rng(3)
    W = rng.dirichlet(np.ones(4), size=(3, 2))
    P = _zeroed_pmfs(rng, (5,), 3)
    Q = _zeroed_pmfs(rng, (4,), 2)
    grid = mi_grid(P, Q, W)
    for i, q in enumerate(Q):
        for j, p in enumerate(P):
            assert abs(grid[i, j] - exhaustive_mi(p, q, W)) < 1e-12


def test_mi_dimension_mismatch():
    with pytest.raises(ChannelFormatError):
        mutual_information([0.5, 0.5], [1.0], np.ones((3, 1, 2)) / 2)


# ---------------------------------------------------------------------------
# symmetrizability
# ---------------------------------------------------------------------------

def test_additive_channel_witness_is_the_matching_rule():
    verdict = symmetrizability(additive_channel())
    assert verdict.symmetrizable
    assert verdict.max_residual <= 1e-9
    assert np.allclose(verdict.witness, np.eye(2), atol=1e-9)
    assert residual_of_witness(additive_channel(), np.eye(2)) <= 1e-12


def test_relay_product_channel_witness_is_the_crossing_rule():
    verdict = symmetrizability(relay_product_channel())
    assert verdict.symmetrizable
    assert residual_of_witness(relay_product_channel(), verdict.witness) <= 1e-9
    # the crossing rule J(s|x) = 1{s = 1-x} is an exact witness
    assert residual_of_witness(relay_product_channel(),
                               np.array([[0.0, 1.0], [1.0, 0.0]])) <= 1e-12


def test_state_free_identity_not_symmetrizable():
    W = np.zeros((2, 2, 2))
    for x in range(2):
        W[x, :, x] = 1.0
    verdict = symmetrizability(W)
    assert not verdict.symmetrizable
    assert verdict.max_residual > 0.5
    assert verdict.witness is None


def test_single_input_vacuous():
    W = np.random.default_rng(0).dirichlet(np.ones(3), size=(1, 2))
    verdict = symmetrizability(W)
    assert verdict.symmetrizable and verdict.max_residual <= 1e-12


def test_ternary_additive_channel_symmetrizable():
    # Y = X + S over 0..4 with ternary input and state: the matching rule
    # J(s|x) = 1{s=x} makes the averaged channel symmetric
    W = np.zeros((3, 3, 5))
    for x in range(3):
        for s in range(3):
            W[x, s, x + s] = 1.0
    verdict = symmetrizability(W)
    assert verdict.symmetrizable
    assert residual_of_witness(W, np.eye(3)) <= 1e-12


def test_returned_witnesses_reverify_randomized():
    rng = np.random.default_rng(9)
    for _ in range(15):
        W = rng.dirichlet(np.ones(3), size=(2, 2))
        verdict = symmetrizability(W)
        if verdict.symmetrizable:
            assert residual_of_witness(W, verdict.witness) <= 1e-9


# ---------------------------------------------------------------------------
# degradedness
# ---------------------------------------------------------------------------

def test_strongly_degraded_by_construction():
    rng = np.random.default_rng(1)
    A = rng.dirichlet(np.ones(2), size=2)            # (X, Y1), state-free
    B = rng.dirichlet(np.ones(3), size=(2, 2))       # (Y1, S, Y)
    W = np.einsum("xk,ksy->xsyk", A, B)
    rep = degradedness_classify(Dmc(W, 1.0))
    assert rep.label == "strongly_degraded"


def test_reversely_strongly_degraded_by_construction():
    rng = np.random.default_rng(2)
    A = rng.dirichlet(np.ones(3), size=(2, 2))       # (X, S, Y)
    B = rng.dirichlet(np.ones(2), size=3)            # (Y, Y1), state-free
    W = np.einsum("xsy,yk->xsyk", A, B)
    rep = degradedness_classify(Dmc(W, 1.0))
    assert rep.label == "reversely_strongly_degraded"


def test_binary_pipe_is_reversely_degraded_only():
    rep = degradedness_classify(binary_pipe_dmc())
    assert rep.label == "reversely_degraded_only"
    assert rep.reversely_degraded and not rep.degraded


def test_degraded_only_with_state_dependent_relay_factor():
    rng = np.random.default_rng(14)
    m1 = rng.dirichlet(np.ones(2), size=(2, 2))      # (X, S, Y1), s-dependent
    B = rng.dirichlet(np.ones(3), size=(2, 2))       # (Y1, S, Y)
    W = np.einsum("xsk,ksy->xsyk", m1, B)
    rep = degradedness_classify(Dmc(W, 1.0))
    assert rep.label == "degraded_only"


def degradedness_oracle(W, tol=1e-9):
    """The four factor reconstructions written out.  Each conditional is read
    off the kernel with x summed out (and s too for the state-free factor);
    rows of zero mass are uniform."""
    X, S, Y, Y1 = W.shape
    m_relay, m_recv = W.sum(axis=2), W.sum(axis=3)

    def cond(num, den, k):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, num / den, 1.0 / k)

    B = cond(W.sum(axis=0).transpose(2, 0, 1), m_relay.sum(axis=0).T[:, :, None], Y)
    degraded = np.abs(np.einsum("xsk,ksy->xsyk", m_relay, B) - W).max() <= tol
    B1 = cond(W.sum(axis=0).transpose(1, 0, 2), m_recv.sum(axis=0).T[:, :, None], Y1)
    reversely = np.abs(np.einsum("xsy,ysk->xsyk", m_recv, B1) - W).max() <= tol
    B1p = cond(W.sum(axis=(0, 1)), m_recv.sum(axis=(0, 1))[:, None], Y1)
    rsd = np.abs(np.einsum("xsy,yk->xsyk", m_recv, B1p) - W).max() <= tol
    strongly = degraded and np.abs(m_relay - m_relay.mean(axis=1, keepdims=True)).max() <= tol
    if strongly:
        return "strongly_degraded", degraded, reversely
    if rsd:
        return "reversely_strongly_degraded", degraded, reversely
    if degraded:
        return "degraded_only", degraded, reversely
    return ("reversely_degraded_only" if reversely else "neither"), degraded, reversely


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(X=st.integers(1, 3), S=st.integers(1, 3), Y=st.integers(1, 3), Y1=st.integers(1, 3),
       kind=st.sampled_from(["degraded", "strongly", "reverse", "reverse_strongly", "free"]),
       seed=st.integers(0, 2**32 - 1))
def test_degradedness_labels_match_oracle(X, S, Y, Y1, kind, seed):
    # factors with exact zeros leave some parent outputs without mass
    rng = np.random.default_rng(seed)
    if kind == "degraded":
        W = np.einsum("xsk,ksy->xsyk", _zeroed_pmfs(rng, (X, S), Y1), _zeroed_pmfs(rng, (Y1, S), Y))
    elif kind == "strongly":
        W = np.einsum("xk,ksy->xsyk", _zeroed_pmfs(rng, (X,), Y1), _zeroed_pmfs(rng, (Y1, S), Y))
    elif kind == "reverse":
        W = np.einsum("xsy,ysk->xsyk", _zeroed_pmfs(rng, (X, S), Y), _zeroed_pmfs(rng, (Y, S), Y1))
    elif kind == "reverse_strongly":
        W = np.einsum("xsy,yk->xsyk", _zeroed_pmfs(rng, (X, S), Y), _zeroed_pmfs(rng, (Y,), Y1))
    else:
        W = _zeroed_pmfs(rng, (X, S), Y * Y1).reshape(X, S, Y, Y1)
    W /= W.sum(axis=(2, 3), keepdims=True)
    rep = degradedness_classify(Dmc(W, 1.0))
    assert (rep.label, rep.degraded, rep.reversely_degraded) == degradedness_oracle(W)
    if kind in ("degraded", "strongly"):
        assert rep.degraded
    if kind in ("reverse", "reverse_strongly"):
        assert rep.reversely_degraded
    if kind == "strongly":
        assert rep.label == "strongly_degraded"
    if kind == "reverse_strongly":
        assert rep.label in ("strongly_degraded", "reversely_strongly_degraded")


def test_mi_bounds_property():
    rng = np.random.default_rng(15)
    for _ in range(20):
        X, S, O = rng.integers(2, 5, 3)
        W = rng.dirichlet(np.ones(O), size=(X, S))
        p = rng.dirichlet(np.ones(X))
        q = rng.dirichlet(np.ones(S))
        v = mutual_information(p, q, W)
        assert -1e-12 <= v <= np.log2(X) + 1e-12


# ---------------------------------------------------------------------------
# cutset / decode-forward bounds
# ---------------------------------------------------------------------------

def test_cutset_zero_for_useless_outputs():
    v = cutset_bound(Dmc(np.full((2, 2, 2, 2), 0.25), 1.0))
    assert abs(v) < 1e-9


def test_rates_are_floored_at_zero_when_the_input_does_not_matter():
    # every input sees the same kernel, so each bound is 0 up to the entropies' rounding
    W = np.broadcast_to(np.random.default_rng(17).dirichlet(np.ones(4), size=3).reshape(3, 2, 2),
                        (2, 3, 2, 2))
    dmc = Dmc(W, 0.5)
    values = [df_bound(dmc, mode=mode) for mode in ("aux", "direct", "full")]
    assert all(0.0 <= v < 1e-12 for v in values), values      # aux and direct were -2.2e-16


def test_cutset_binary_pipe_is_one_bit():
    v = cutset_bound(binary_pipe_dmc())
    assert abs(v - 1.0) < 1e-3


def test_cutset_additive_receiver_only():
    # Y = X + S with a constant relay observation and no pipe: the value is
    # the saddle of I(X;Y), which a nested exhaustive grid puts at 0.5
    W = additive_channel()[:, :, :, None]
    v = cutset_bound(Dmc(W, 0.0))
    assert abs(v - 0.5) < 1e-3


def test_df_direct_equals_maxmin_oracle():
    v = df_bound(binary_pipe_dmc(), mode="direct")
    assert abs(v - 0.5) < 1e-3     # saddle of I(X; X+S)


def test_df_full_on_strongly_degraded_toy():
    # Y = X + S, Y1 = X noiselessly, pipe rate 0.5:
    # max_p min{min_q I(X;X+S) + 0.5, H(X)} = 1 at the uniform input
    W = np.zeros((2, 2, 3, 2))
    for x in range(2):
        for s in range(2):
            W[x, s, x + s, x] = 1.0
    toy = Dmc(W, relay_rate=0.5)
    v = df_bound(toy, mode="full")
    assert abs(v - 1.0) < 2e-3


def test_aux_information_terms_embedding_identities():
    # with U = X (diagonal joint) the U-terms reduce to plain I(X;O) and the
    # conditional term vanishes; with U independent of X they swap roles
    from avrc.discrete import _mi, _wq_batch

    rng = np.random.default_rng(21)
    W = rng.dirichlet(np.ones(3), size=(2, 2))
    q = rng.dirichlet(np.ones(2))
    p = rng.dirichlet(np.ones(2))
    WQ = _wq_batch(q[None, :], W)
    i_xy = mutual_information(p, q, W)

    def i_uy(Pux):
        return _mi(np.einsum("ux,nxo->nuo", Pux, WQ))[0]

    def i_xy_given_u(Pux):   # chain rule, as in the aux objective
        return _mi(Pux.sum(axis=0)[None, :, None] * WQ)[0] - i_uy(Pux)

    diag = np.diag(p)
    assert abs(i_uy(diag) - i_xy) < 1e-12
    assert abs(i_xy_given_u(diag)) < 1e-12

    u_marg = rng.dirichlet(np.ones(3))
    indep = u_marg[:, None] * p[None, :]
    assert abs(i_uy(indep)) < 1e-12
    assert abs(i_xy_given_u(indep) - i_xy) < 1e-12


def test_df_blocks_leave_values_unchanged(monkeypatch):
    # a 64-entry block cap splits every pooled objective into many blocks:
    # the three df modes, the cutset and the min-max
    rng = np.random.default_rng(41)
    dmc = Dmc(rng.dirichlet(np.ones(6), size=(2, 2)).reshape(2, 2, 3, 2), relay_rate=0.3)

    def values():
        return ([df_bound(dmc, mode=m) for m in ("direct", "full", "aux")]
                + [cutset_bound(dmc), minimax_receiver_information(dmc, "qp")])

    whole = values()
    monkeypatch.setattr(discrete, "_BLOCK_ENTRIES", 64)
    assert values() == whole


def test_df_general_dominates_special_modes():
    rng = np.random.default_rng(4)
    for _ in range(3):
        W = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        dmc = Dmc(W, relay_rate=float(rng.uniform(0, 1)))
        v_dir = df_bound(dmc, mode="direct")
        v_aux = df_bound(dmc, mode="aux")
        assert v_aux >= v_dir - 1e-6


def test_df_aux_below_input_size():
    # |U| < |X| leaves no room for the U = X start; the search still starts
    # from the direct optimum, so it ends no lower than the direct mode
    W = np.random.default_rng(7).dirichlet(np.ones(6), size=(3, 2)).reshape(3, 2, 3, 2)
    for dmc, aux in ((binary_pipe_dmc(), 1), (Dmc(W, relay_rate=0.4), 2)):
        v_aux = df_bound(dmc, aux_size=aux)
        assert v_aux >= df_bound(dmc, mode="direct") - 1e-9


def test_df_cutset_sandwich_randomized():
    rng = np.random.default_rng(8)
    for _ in range(5):
        W = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        dmc = Dmc(W, relay_rate=float(rng.uniform(0, 1.2)))
        assert df_bound(dmc) <= cutset_bound(dmc) + 1e-3


def test_three_letter_state_alphabet():
    rng = np.random.default_rng(31)
    W = rng.dirichlet(np.ones(4), size=(2, 3)).reshape(2, 3, 2, 2)
    dmc = Dmc(W, relay_rate=0.5)
    lo = df_bound(dmc, mode="direct")
    hi = cutset_bound(dmc)
    assert 0.0 <= lo <= hi + 1e-3


def test_resource_budget_error(monkeypatch):
    W = np.full((2, 2, 2, 2), 0.25)
    monkeypatch.setattr(discrete, "MAX_KERNEL_ENTRIES", 4)
    with pytest.raises(ResourceLimitError):
        cutset_bound(Dmc(W, 0.0))


def test_ten_states_fit_the_default_budget():
    # S = 10 is past the exhaustive q grid; search_simplex samples the simplex
    # instead, and its refinement batches (6 * C(11, 2) = 330 candidates) fit
    rng = np.random.default_rng(10)
    W = rng.dirichlet(np.ones(4), size=(2, 10)).reshape(2, 10, 2, 2)
    value = df_bound(Dmc(W, relay_rate=0.5), mode="direct")
    assert -1e-12 <= value <= 1.0


def test_aux_search_past_the_grid_budget_is_refused(monkeypatch):
    # with X = 30 the aux joint p(u, x) has 31 * 30 = 930 atoms, so one
    # refinement round would build 6 * C(931, 2) candidates of 930 entries
    # each (about 20 GB); the channel is refused before any search runs
    rng = np.random.default_rng(30)
    W = rng.dirichlet(np.ones(4), size=(30, 2)).reshape(30, 2, 2, 2)
    dmc = Dmc(W, relay_rate=0.5)
    discrete._check_budget(dmc)                      # X and S alone fit

    def no_search(*args, **kwargs):
        raise AssertionError("a simplex search ran before the budget check")

    monkeypatch.setattr(discrete, "search_simplex", no_search)
    with pytest.raises(ResourceLimitError, match="930-point simplex"):
        df_bound(dmc)                                 # aux is the default mode
    with pytest.raises(ResourceLimitError, match="930-point simplex"):
        classify_capacity(dmc)


# ---------------------------------------------------------------------------
# minimax equality
# ---------------------------------------------------------------------------

def test_minimax_orders_agree_on_reversely_strongly_degraded():
    rng = np.random.default_rng(12)
    for _ in range(3):
        A = rng.dirichlet(np.ones(3), size=(2, 2))
        B = rng.dirichlet(np.ones(2), size=3)
        W = np.einsum("xsy,yk->xsyk", A, B)
        dmc = Dmc(W, 1.0)
        v_qp = minimax_receiver_information(dmc, "qp")
        v_pq = minimax_receiver_information(dmc, "pq")
        assert abs(v_qp - v_pq) < 1e-3


def test_minimax_orders_agree_on_strongly_degraded_program():
    # both nestings of the pipe-limited program
    # min{ I_q(X;Y) + C1, I(X;Y1) } agree (concave in p, quasi-convex in q);
    # it is also the program classification clause 3 solves
    rng = np.random.default_rng(13)
    ps = np.linspace(1e-6, 1 - 1e-6, 201)
    qs = np.linspace(0, 1, 201)
    P = np.stack([ps, 1 - ps], axis=1)
    Q = np.stack([qs, 1 - qs], axis=1)
    for _ in range(3):
        A = rng.dirichlet(np.ones(2), size=2)            # state-free (X, Y1)
        B = rng.dirichlet(np.ones(3), size=(2, 2))       # (Y1, S, Y)
        W = np.einsum("xk,ksy->xsyk", A, B)
        dmc = Dmc(W, relay_rate=float(rng.uniform(0.1, 0.8)))
        # order max_p min_q via the library's full decode-forward mode
        v_pq = df_bound(dmc, mode="full")
        # order min_q max_p via an exhaustive nested grid (independent)
        v = np.minimum(mi_grid(P, Q, dmc.receiver_marginal()) + dmc.relay_rate,
                       mi_grid(P, Q, dmc.relay_marginal()))
        v_qp = v.max(axis=1).min()
        assert abs(v_qp - v_pq) < 1e-3
        cls = classify_capacity(dmc)
        assert cls.clause == 3 and cls.exact_value == v_pq


@pytest.mark.parametrize("seed", [0, 2])
def test_four_input_min_max_matches_nested_grid(seed):
    # at |X| = 4 the p pool steering the q search is the p search's own start
    # grid; the min-max and the cutset agree with an exhaustive nested grid
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(6), size=(4, 2)).reshape(4, 2, 3, 2)
    dmc = Dmc(W, relay_rate=0.1)
    P = simplex_grid(4, 40)
    qs = np.linspace(0, 1, 201)
    Q = np.stack([qs, 1 - qs], axis=1)
    i_y = np.concatenate([mi_grid(P, Qc, dmc.receiver_marginal())
                          for Qc in np.array_split(Q, 8)])
    i_j = np.concatenate([mi_grid(P, Qc, dmc.joint_output()) for Qc in np.array_split(Q, 8)])
    v_mm = i_y.max(axis=1).min()
    v_cs = np.minimum(i_y + dmc.relay_rate, i_j).max(axis=1).min()
    assert abs(minimax_receiver_information(dmc, "qp") - v_mm) < 1e-3
    assert abs(cutset_bound(dmc) - v_cs) < 1e-3


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_zero_when_joint_output_symmetrizable():
    W = np.zeros((2, 2, 3, 3))
    for x in range(2):
        for s in range(2):
            W[x, s, x + s, x + s] = 1.0
    cls = classify_capacity(Dmc(W, 1.0))
    assert cls.verdict == "zero" and cls.clause == 4


def test_classify_binary_pipe_undetermined_not_zero():
    cls = classify_capacity(binary_pipe_dmc())
    assert cls.verdict == "undetermined"
    assert cls.relay_marginal_symmetrizable
    assert not cls.joint_output_symmetrizable
    assert cls.df_lower <= cls.cs_upper + 1e-3
    # consistency hook: the exhaustive single-use table certifies one bit with
    # zero error, so the classification must not be "zero"
    assert all(r.error == 0 for r in single_use_code_table())


@pytest.mark.parametrize("tol", [-1e-12, float("inf"), float("nan")])
def test_verdicts_refuse_a_tol_that_is_not_a_finite_number_at_least_0(tol):
    dmc = binary_pipe_dmc()
    with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
        symmetrizability(dmc.joint_output(), tol)


def test_classify_strongly_degraded_closed_form():
    # Y = X + S, Y1 = X noiselessly, pipe rate 0.5: distinct relay rows, so
    # the capacity equals max_p min{min_q I(X;X+S) + C1, I(X;Y1)} = 1
    W = np.zeros((2, 2, 3, 2))
    for x in range(2):
        for s in range(2):
            W[x, s, x + s, x] = 1.0
    cls = classify_capacity(Dmc(W, relay_rate=0.5))
    assert cls.verdict == "equals_random_capacity" and cls.clause == 3
    assert abs(cls.exact_value - 1.0) < 2e-3


def test_classify_sandwich_clause_without_degradedness():
    # state-dependent crossover on BOTH outputs with flip mass bounded away
    # from the correct mass: no factorization holds, neither marginal is
    # symmetrizable, so the verdict is the sandwich clause
    W = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for s, (ey, e1) in enumerate(((0.05, 0.1), (0.2, 0.15))):
            for y in range(2):
                for y1 in range(2):
                    py = 1 - ey if y == x else ey
                    p1 = 1 - e1 if y1 == x else e1
                    W[x, s, y, y1] = py * p1
    cls = classify_capacity(Dmc(W, relay_rate=0.5))
    assert cls.verdict == "equals_random_capacity" and cls.clause == 1
    assert cls.aux_size == 3
    assert 0.0 < cls.df_lower <= cls.cs_upper + 1e-3


def test_classify_reversely_strongly_degraded_closed_form():
    # binary channel whose state picks the crossover (0.05 or 0.2), relay
    # observation a noisy state-free copy of Y: the flip mass never reaches
    # the correct mass, so neither marginal is symmetrizable, and the value
    # is min over q of the BSC capacity 1 - h2(0.05 + 0.15 q)
    A = np.zeros((2, 2, 2))
    for x in range(2):
        for s, eps in enumerate((0.05, 0.2)):
            A[x, s, x] = 1 - eps
            A[x, s, 1 - x] = eps
    B = np.array([[0.9, 0.1], [0.1, 0.9]])
    W = np.einsum("xsy,yk->xsyk", A, B)
    cls = classify_capacity(Dmc(W, relay_rate=1.0))
    assert cls.degradedness == "reversely_strongly_degraded"
    assert cls.verdict == "equals_random_capacity" and cls.clause == 2
    h2 = lambda e: -e * np.log2(e) - (1 - e) * np.log2(1 - e)
    assert abs(cls.exact_value - (1 - h2(0.2))) < 2e-3
