import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avrc import cli, discrete, optimize
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
from avrc.optimize import simplex_grid, start_pool
from search_oracle import search_every_block

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


def _mi(J):
    # the joint-pmf form: I(A;O) = H(A) + H(O) - H(A,O) in bits from joint
    # pmfs J[..., a, o], broadcast over the leading axes
    return (discrete._negent(J).sum(axis=-1) - discrete._negent(J.sum(axis=-1))
            - discrete._negent(J.sum(axis=-2)))


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


@pytest.mark.parametrize("shape", [(2, 2, 4), (2, 2, 2, 2, 1)])
def test_dmc_rejects_a_kernel_that_is_not_4d(shape):
    kernel = np.full(shape, 0.25)   # each [x][s] slice sums to 1
    with pytest.raises(ChannelFormatError, match=r"^kernel must have shape \(X, S, Y, Y1\)$"):
        Dmc(kernel)


@pytest.mark.parametrize("rate", [np.nan, -0.5])
def test_dmc_rejects_bad_relay_rate(rate):
    with pytest.raises(ChannelFormatError, match=r"relay_rate \(C1\)"):
        Dmc(binary_pipe_dmc().kernel, relay_rate=rate)


@pytest.mark.parametrize("p", [[np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan], [-0.1, 1.1],
                               [0.5, 0.6], [[0.5, 0.5]], 1.0])
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
    got = _mi(J)
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
    chain = _mi(Pux.sum(axis=0)[:, None] * WQ) - _mi(Pux @ WQ)
    direct = sum(Pux[u].sum() * _mi((Pux[u] / Pux[u].sum())[:, None] * WQ)
                 for u in range(U) if Pux[u].sum() > 0)
    assert abs(chain - direct) < 1e-12
    assert chain >= -1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(U=st.integers(1, 4), X=st.integers(1, 4), O=st.integers(1, 4),
       S=st.integers(1, 3), N=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_pooled_informations_match_the_kernel_on_built_joints(U, X, O, S, N, seed):
    # I(X;O), I(U;O) and I(X;O|U) for every (candidate, q) pair, from marginal
    # entropies, and mutual_information at each (candidate, q), against _mi on
    # each joint built out; I(X;O|U) against sum_u p(u) I(X;O | U=u)
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
    i_uo, i_xo_u = discrete._info_u(Pux, WQ, discrete._negent(WQ))
    assert discrete._info_u(Pux, WQ)[1] is None
    assert np.array_equal(discrete._info_u(Pux, WQ)[0], i_uo)
    assert i_xo.shape == i_uo.shape == i_xo_u.shape == (3, N)
    for c in range(3):
        for n in range(N):
            reference = _mi(P[c][:, None] * WQ[n])
            assert abs(i_xo[c, n] - reference) < 1e-12
            assert abs(mutual_information(P[c], Q[n], W) - reference) < 1e-12
            assert abs(i_uo[c, n] - _mi(Pux[c] @ WQ[n])) < 1e-12
            pu = Pux[c].sum(axis=1)
            given_u = sum(pu[u] * _mi((Pux[c, u] / pu[u])[:, None] * WQ[n])
                          for u in range(U) if pu[u] > 0)
            assert abs(i_xo_u[c, n] - given_u) < 1e-12


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


SYM_GAP = 1e-10    # the largest max_residual - lower_bound the property test allows


def _sym_test_channel(X, S, O, kind, seed):
    """A random channel, an additive one (S = X, W(.|x,s) depends on x + s only,
    so J(s|x) = 1{s = x} symmetrizes it), or an additive one mixed with a
    random channel at a weight of 1e-7 .. 1e-2."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.dirichlet(np.ones(O), size=(X, S))
    V = rng.dirichlet(np.ones(O), size=2 * X - 1)
    W = V[np.add.outer(np.arange(X), np.arange(X))]
    if kind == "additive":
        return W
    eps = 10.0 ** rng.uniform(-7, -2)
    return (1 - eps) * W + eps * rng.dirichlet(np.ones(O), size=(X, X))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(X=st.integers(2, 4), S=st.integers(1, 4), O=st.integers(1, 6),
       kind=st.sampled_from(["random", "additive", "near_additive"]),
       seed=st.integers(0, 2**32 - 1))
def test_symmetrizability_verdicts_are_certified_both_ways(X, S, O, kind, seed):
    W = _sym_test_channel(X, S, O, kind, seed)
    S = W.shape[1]
    tol = discrete.VERDICT_TOL
    verdict = symmetrizability(W)
    assert verdict.symmetrizable == (verdict.max_residual <= tol)
    assert verdict.max_residual - verdict.lower_bound <= SYM_GAP
    if kind == "additive":
        assert verdict.symmetrizable
    if verdict.symmetrizable:
        J = verdict.witness
        assert (J >= 0).all() and np.allclose(J.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert residual_of_witness(W, J) == verdict.max_residual
    else:
        assert verdict.witness is None and verdict.lower_bound > tol
    # the lower bound holds for every row-stochastic J, the solver aside: the
    # S**X deterministic ones (the vertices) and Dirichlet draws
    rng = np.random.default_rng(seed)
    vertices = np.eye(S)[np.stack(np.meshgrid(*[np.arange(S)] * X), -1).reshape(-1, X)]
    for J in [*vertices, *rng.dirichlet(np.ones(S), size=(200, X))]:
        assert verdict.lower_bound <= residual_of_witness(W, J) + 1e-12


@pytest.mark.parametrize("stall_pivots", [0, 10**9])
def test_either_pricing_rule_alone_reaches_the_certified_optimum(monkeypatch, stall_pivots):
    # STALL_PIVOTS = 0 prices by Bland's rule from the first pivot, 10**9 by
    # Dantzig's throughout; each must end at the same LP value
    rng = np.random.default_rng(41)
    channels = [_sym_test_channel(int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                                  int(rng.integers(1, 5)), kind, int(rng.integers(2**32)))
                for kind in ("random", "additive", "near_additive") for _ in range(10)]
    default = [symmetrizability(W) for W in channels]
    monkeypatch.setattr(discrete, "STALL_PIVOTS", stall_pivots)
    for W, ref in zip(channels, default):
        verdict = symmetrizability(W)
        assert verdict.symmetrizable == ref.symmetrizable
        assert abs(verdict.max_residual - ref.max_residual) <= SYM_GAP
        assert abs(verdict.lower_bound - ref.lower_bound) <= SYM_GAP


def test_the_dual_step_keeps_the_certificates_tight_past_rounding(monkeypatch):
    # with a pivot tolerance of 1e-9 and Bland's rule after 8 stalled pivots,
    # the pivots on these channels leave basic variables below -FEAS_TOL on
    # the refactored tableau; without the dual step that restores them, the
    # gap between the two certificates grows to about 7e-7
    cases = [(3, 7, 22), (3, 7, 57), (4, 3, 1), (4, 5, 12), (4, 7, 0)]
    channels = [_sym_test_channel(X, X, O, "near_additive", seed) for X, O, seed in cases]
    default = [symmetrizability(W) for W in channels]
    monkeypatch.setattr(discrete, "PIVOT_TOL", 1e-9)
    monkeypatch.setattr(discrete, "STALL_PIVOTS", 8)
    for W, ref in zip(channels, default):
        verdict = symmetrizability(W)
        assert verdict.symmetrizable == ref.symmetrizable
        assert verdict.max_residual - verdict.lower_bound <= SYM_GAP
        assert abs(verdict.lower_bound - ref.lower_bound) <= SYM_GAP


def test_an_lp_whose_certificates_do_not_close_raises(monkeypatch, capsys, tmp_path):
    # a solver that returns v = 0 and the uniform J proves neither side: the
    # uniform J leaves a residual of 1 on the identity, and the bound is 0
    W = np.zeros((2, 2, 2))
    for x in range(2):
        W[x, :, x] = 1.0
    monkeypatch.setattr(discrete, "_max_dual", lambda D, X, S: (np.zeros(len(D)),
                                                                 np.full(X * S + 1, 1.0 / S)))
    with pytest.raises(RuntimeError, match="proved no verdict"):
        symmetrizability(W)
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(dmc_to_json(Dmc(W[..., None], 0.0))))
    assert cli.main(["symcheck", "--channel", str(path), "--target", "receiver"]) == 2
    assert capsys.readouterr().err.startswith("error: the symmetrizability LP proved no verdict")


def test_symmetrizability_refuses_an_lp_past_the_tableau_budget(monkeypatch, capsys, tmp_path):
    # X = 100, S = 10, O = 1000 is a 10^6-entry kernel, within MAX_KERNEL_ENTRIES,
    # but its 4.95e6 defect rows would take about 40 GB; a broadcast view
    # stands in for it, and no defect array may be built before the refusal
    def no_defects(W):
        raise AssertionError("a defect array was built before the budget check")

    monkeypatch.setattr(discrete, "_defect_rows", no_defects)
    with pytest.raises(ResourceLimitError, match=r"X=100, S=10, O=1000 .* budget 10000000$"):
        symmetrizability(np.broadcast_to(0.001, (100, 10, 1000)))
    # the budget is read at the call: a 2x2x2 LP builds a 6 x 14 tableau
    monkeypatch.setattr(discrete, "MAX_LP_ENTRIES", 83)
    with pytest.raises(ResourceLimitError, match=r"X=2, S=2, O=2 builds a 84-entry"):
        symmetrizability(relay_product_channel())
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(dmc_to_json(binary_pipe_dmc())))
    assert cli.main(["symcheck", "--channel", str(path), "--target", "relay"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the symmetrizability LP of a channel with X=2, S=2, O=2 ")
    assert cli.main(["primitive", "--channel", str(path), "--bound", "classify"]) == 2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(X=st.integers(2, 3), S=st.integers(1, 3), Y=st.integers(1, 3), Y1=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_a_relay_lower_bound_proves_the_joint_output_not_symmetrizable(X, S, Y, Y1, seed):
    W = np.random.default_rng(seed).dirichlet(np.ones(Y * Y1), size=(X, S)).reshape(X, S, Y, Y1)
    dmc = Dmc(W, 1.0)
    relay = symmetrizability(dmc.relay_marginal())
    if relay.lower_bound > Y * discrete.VERDICT_TOL:
        joint = symmetrizability(dmc.joint_output())
        assert not joint.symmetrizable
        assert joint.lower_bound >= relay.lower_bound / Y - 1e-12


def _rsd_channel():
    # the state picks the crossover of Y (0.05 or 0.2); Y1 is Y through a
    # state-free BSC(0.1), so the relay marginal is not symmetrizable
    A = np.zeros((2, 2, 2))
    for x in range(2):
        for s, eps in enumerate((0.05, 0.2)):
            A[x, s, x], A[x, s, 1 - x] = 1 - eps, eps
    return Dmc(np.einsum("xsy,yk->xsyk", A, np.array([[0.9, 0.1], [0.1, 0.9]])), 1.0)


def test_classify_skips_only_joint_lps_the_relay_bound_decides(monkeypatch):
    rng = np.random.default_rng(77)
    channels = [Dmc(rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2),
                    float(rng.uniform(0, 1.5))) for _ in range(3)]
    channels += [_rsd_channel(), binary_pipe_dmc(), Dmc(additive_channel()[..., None], 1.0)]
    records = [classify_capacity(dmc) for dmc in channels]
    solve = discrete.symmetrizability
    # a relay verdict without its lower bound: every joint LP runs
    monkeypatch.setattr(discrete, "symmetrizability",
                        lambda W: dataclasses.replace(solve(W), lower_bound=-np.inf))
    assert [classify_capacity(dmc) for dmc in channels] == records


def test_a_criterion_07_style_channel_runs_one_lp(monkeypatch):
    calls = []
    solve = discrete.symmetrizability
    monkeypatch.setattr(discrete, "symmetrizability", lambda W: calls.append(W.shape) or solve(W))
    cls = classify_capacity(_rsd_channel())
    assert cls.clause == 2 and not cls.relay_marginal_symmetrizable
    assert calls == [(2, 2, 2)]     # the relay marginal's LP only


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
    from avrc.discrete import _wq_batch

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
                + [cutset_bound(dmc), minimax_receiver_information(dmc)])

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


@pytest.mark.parametrize("nu, nx", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (4, 3)])
def test_u_orbits_name_the_first_point_of_each_relabeling_orbit(nu, nx):
    # df's whole aux pool: the grid, the vertices and the centre, then
    # Dirichlet starts, a relabeled copy of each and the centre once more
    rng = np.random.default_rng(nu * 10 + nx)
    extra = rng.dirichlet(np.ones(nu * nx), size=4).reshape(4, nu, nx)
    copies = np.stack([point[rng.permutation(nu)] for point in extra])
    pool = np.vstack([start_pool(nu * nx, None, rng), extra.reshape(4, -1),
                      copies.reshape(4, -1), np.full(nu * nx, 1.0 / (nu * nx))])
    first, orbit = discrete._u_orbits(pool, nu)
    # oracle: the rows of p(u,x) as a multiset, first seen in pool order
    seen = {}
    for i, point in enumerate(pool.reshape(len(pool), nu, nx)):
        seen.setdefault(tuple(sorted(map(tuple, point))), i)
    assert orbit.shape == (len(pool),) and len(first) == len(seen)
    assert sorted(first.tolist()) == sorted(seen.values())
    for i, point in enumerate(pool.reshape(len(pool), nu, nx)):
        assert first[orbit[i]] == seen[tuple(sorted(map(tuple, point)))]


def _check_leading_starts(mp):
    """Patch discrete._leading_starts to check that the rows it keeps hold the
    whole pool's stable top MULTISTART_TOP, the search's first centres; returns
    the list it appends each pool's size to."""
    leading, sizes = discrete._leading_starts, []

    def top(objective, rows):
        return rows[np.argsort(-objective(rows), kind="stable")[:discrete.MULTISTART_TOP]]

    def checked_leading_starts(objective, pool, nu):
        kept = leading(objective, pool, nu)
        assert np.array_equal(top(objective, kept), top(objective, pool))
        sizes.append(len(pool))
        return kept

    mp.setattr(discrete, "_leading_starts", checked_leading_starts)
    return sizes


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(X=st.integers(2, 3), S=st.integers(2, 3), Y=st.integers(2, 3), Y1=st.integers(2, 3),
       aux=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_df_aux_search_from_orbits_equals_the_full_pool_search(X, S, Y, Y1, aux, seed):
    # a table of one orbit per grid point evaluates the whole start pool, as
    # the search did before it was split into orbits.  The equality rests on
    # the start pool and on the objective's symmetry in U, not on the state
    # grid, so a coarser one keeps each example to a fraction of a second.  The
    # searches can end at one point from different centres, so the kept rows'
    # top centres are checked too
    rng = np.random.default_rng(seed)
    dmc = Dmc(rng.dirichlet(np.ones(Y * Y1), size=(X, S)).reshape(X, S, Y, Y1),
              relay_rate=float(rng.uniform(0, 1.5)))
    aux = min(aux, X + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete, "Q_RESOLUTION", 16)
        with pytest.MonkeyPatch.context() as stub:
            stub.setattr(discrete, "_u_orbits",
                         lambda pool, nu: (np.arange(len(pool)), np.arange(len(pool))))
            whole_pool = df_bound(dmc, aux, "aux")
        _check_leading_starts(mp)
        assert df_bound(dmc, aux, "aux") == whole_pool


def test_df_aux_search_from_a_sampled_pool_equals_the_full_pool_search(monkeypatch):
    # past optimize.MAX_GRID_POINTS start_pool samples: the 1287-point aux grid
    # of |U| = 3, |X| = 2 becomes 4096 Dirichlet draws, while the 17- and
    # 129-point grids over q and p still fit
    rng = np.random.default_rng(22)
    dmc = Dmc(rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2), relay_rate=0.7)
    monkeypatch.setattr(discrete, "Q_RESOLUTION", 16)
    monkeypatch.setattr(optimize, "MAX_GRID_POINTS", 1000)
    sizes = _check_leading_starts(monkeypatch)
    by_orbit = df_bound(dmc)
    # the sample, the 6 vertices and the centre, then df's own 3 + AUX_STARTS starts
    assert sizes == [4096 + 7 + 3 + discrete.AUX_STARTS]
    monkeypatch.setattr(discrete, "_u_orbits", lambda pool, nu: (np.arange(len(pool)),) * 2)
    assert df_bound(dmc) == by_orbit


@pytest.mark.parametrize("seed, shape", [(175, (2, 2, 2, 2)), (184, (2, 2, 3, 2)),
                                         (293, (2, 2, 2, 2))])
def test_bounds_equal_those_of_a_search_that_evaluates_every_block(seed, shape, monkeypatch):
    # search_simplex evaluates each distinct centre's block once.  A smaller
    # batch can move the last bit of _df_value's one-row products over the q
    # batch; on these channels a df value moves by 1 or 2 ulp.  Over the
    # benchmark's pool and three fresh pools (324 channels) no bound moved by
    # more than 2.2e-16, and no verdict or clause changed
    X, S, Y, Y1 = shape
    rng = np.random.default_rng(seed)
    dmc = Dmc(rng.dirichlet(np.ones(Y * Y1), size=(X, S)).reshape(shape),
              relay_rate=float(rng.uniform(0, 1.5)))

    def bounds():
        cls = classify_capacity(dmc)
        return ([cutset_bound(dmc), minimax_receiver_information(dmc), cls.df_lower,
                 cls.cs_upper, *(df_bound(dmc, mode=m) for m in ("direct", "full", "aux"))],
                (cls.verdict, cls.clause))

    shipped, verdict = bounds()
    monkeypatch.setattr(discrete, "search_simplex", search_every_block)
    every_block, verdict_every_block = bounds()
    assert np.allclose(shipped, every_block, rtol=0.0, atol=1e-15)
    assert verdict == verdict_every_block


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
        v_qp = minimax_receiver_information(dmc)
        v_pq = df_bound(dmc, mode="direct")
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
    assert abs(minimax_receiver_information(dmc) - v_mm) < 1e-3
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


@pytest.mark.parametrize("shape", [(2, 4), (2, 2, 2, 2)])
def test_symmetrizability_rejects_a_channel_that_is_not_3d(shape):
    with pytest.raises(ChannelFormatError, match=r"^channel must have shape \(X, S, O\)$"):
        symmetrizability(np.full(shape, 0.25))


@pytest.mark.parametrize("kwargs, error, message", [
    ({"mode": "both"}, ValueError, r"^mode must be one of direct\|full\|aux$"),
    ({"aux_size": 0}, ChannelFormatError, r"^aux cardinality must be >= 1$"),
], ids=["mode", "aux_size"])
def test_df_rejects_an_unknown_mode_and_an_empty_aux_alphabet(kwargs, error, message):
    with pytest.raises(error, match=message):
        df_bound(binary_pipe_dmc(), **kwargs)


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
