"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see every line.  Every
criterion must be green.  Criteria 2 and 9 derive their expected values in the
test itself, and their report lines print the derivation: criterion 2 the
closed-form maximum of the objective at the high-relay-power tuple, criterion 9
the finite-blocklength operating point (normal approximation, Polyanskiy, Poor
& Verdu, IEEE Trans. IT 56(5), 2010) at which n = 512 can deliver the error
target.
"""

import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from avrc.adversary import StateStrategy
from avrc.cli import write_csv
from avrc.codec import (
    CodebookConfig,
    achievable_rate_pair,
    build_codebook,
    decode_backward,
    encode,
    relay_chain,
)
from avrc.discrete import (
    Dmc,
    binary_pipe_dmc,
    cutset_bound,
    df_bound,
    minimax_receiver_information,
    residual_of_witness,
    single_use_code_table,
    symmetrizability,
)
from avrc.gaussian import (
    GaussianSfdParams,
    PowerSplit,
    figure_sweep,
    gavc_point_to_point,
    random_code_capacity,
    sweep_range,
)
from avrc.sim import SimConfig, run_monte_carlo, SweepEntry


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_figure_reproduction():
    t0 = time.time()
    rows = figure_sweep(sweep_range(0.05, 8.0, 0.05), 1.0, 0.5)
    elapsed = time.time() - t0
    low_zero = all(r.det_upper == 0.0 for r in rows if r.P < 0.25)
    ordered = all(r.det_lower <= r.det_upper + 1e-9
                  and r.det_upper <= r.random_capacity + 1e-9 for r in rows)
    r8 = [r for r in rows if abs(r.P - 8.0) < 1e-9][0]
    coincide = (abs(r8.det_lower - r8.random_capacity) <= 1e-6
                and abs(r8.det_upper - r8.random_capacity) <= 1e-6)
    ok = low_zero and ordered and coincide and elapsed <= 60.0
    report(1, ok, f"sweep: low-P zeros={low_zero} ordered={ordered} "
                  f"P=8 coincide={coincide} runtime={elapsed:.1f}s")


def test_criterion_02_high_relay_power_value():
    P, P1, Lam, s2 = 2.0, 1e4, 0.4, 0.5
    v, _ = random_code_capacity(GaussianSfdParams(P=P, P1=P1, Lambda=Lam, sigma2=s2))
    # The MAC cut is at least 0.5*log2(1 + P1/Lambda) (about 7.3 bits) at every
    # split, so the broadcast cut decides.  That cut falls as rho grows, so
    # rho = 0, where it is 0.5*log2((s2 + (1-a)P)(Lambda + aP) / (s2 Lambda)).
    # The product peaks where its two factors are equal, at
    # a* = (s2 + P - Lambda) / (2P), each factor then being (P + Lambda + s2) / 2.
    mac_floor = 0.5 * math.log2(1 + P1 / Lam)
    alpha_star = (s2 + P - Lam) / (2 * P)
    closed_form = math.log2((P + Lam + s2) / (2 * math.sqrt(Lam * s2)))
    assert 0.0 <= alpha_star <= 1.0 and mac_floor > closed_form
    # The corner (alpha, rho) = (1, 0) ignores the relay band: direct transmission.
    direct = 0.5 * math.log2(1 + P / Lam)
    gap = abs(v - closed_form)
    report(2, gap <= 1e-4 and v > direct,
           f"random_capacity={v:.8f}, closed form log2((P+Lambda+sigma2)/"
           f"(2*sqrt(Lambda*sigma2)))={closed_form:.8f} at alpha*={alpha_star:.4f}, "
           f"rho=0 (gap {gap:.1e}); direct transmission 0.5*log2(1+P/Lambda)="
           f"{direct:.8f}")


def test_criterion_03_dichotomy_randomized():
    rng = np.random.default_rng(2026)
    bad = 0
    for i in range(100):
        P = float(rng.uniform(0, 3)) if i % 10 else 0.0
        Lam = P if i % 7 == 0 and P > 0 else float(rng.uniform(0.05, 3))
        s2 = float(rng.uniform(0.05, 2))
        _, det = gavc_point_to_point(P, Lam, s2)
        if (det == 0.0) != (Lam >= P):
            bad += 1
    report(3, bad == 0, f"dichotomy violations: {bad}/100")


def test_criterion_04_single_use_table():
    t0 = time.time()
    rows = single_use_code_table()
    elapsed = time.time() - t0
    ok = len(rows) == 4 and all(r.error == 0 for r in rows) and elapsed <= 1.0
    report(4, ok, f"4 trials, errors={sum(r.error for r in rows)}, runtime={elapsed:.3f}s")


def test_criterion_05_symmetrizability_witnesses():
    dmc = binary_pipe_dmc()
    recv = symmetrizability(dmc.receiver_marginal())
    relay = symmetrizability(dmc.relay_marginal())
    matching = np.eye(2)                                # state copies the input
    crossing = np.array([[0.0, 1.0], [1.0, 0.0]])       # state flips the input
    closed_forms = (residual_of_witness(dmc.receiver_marginal(), matching) <= 1e-9
                    and residual_of_witness(dmc.relay_marginal(), crossing) <= 1e-9)
    solver = (recv.symmetrizable and recv.max_residual <= 1e-9
              and relay.symmetrizable and relay.max_residual <= 1e-9)
    reverified = (residual_of_witness(dmc.receiver_marginal(), recv.witness) <= 1e-9
                  and residual_of_witness(dmc.relay_marginal(), relay.witness) <= 1e-9)
    ident = np.zeros((2, 2, 2))
    ident[0, :, 0] = ident[1, :, 1] = 1.0
    ident_not = not symmetrizability(ident).symmetrizable
    ok = closed_forms and solver and reverified and ident_not
    report(5, ok, f"closed-form witnesses={closed_forms} solver={solver} "
                  f"reverified={reverified} identity non-symmetrizable={ident_not}")


def test_criterion_06_bound_sandwich():
    rng = np.random.default_rng(606)
    worst = -np.inf
    for _ in range(20):
        W = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        dmc = Dmc(W, relay_rate=float(rng.uniform(0, 1.5)))
        worst = max(worst, df_bound(dmc) - cutset_bound(dmc))
    pipe = binary_pipe_dmc()
    worst = max(worst, df_bound(pipe) - cutset_bound(pipe))
    pipe_cutset = cutset_bound(pipe)
    ok = worst <= 1e-3 and abs(pipe_cutset - 1.0) <= 1e-3
    report(6, ok, f"max(df - cutset) = {worst:.2e}, pipe cutset = {pipe_cutset:.6f}")


def test_criterion_07_minimax_equality():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(10):
        A = rng.dirichlet(np.ones(3), size=(2, 2))      # (X, S, Y)
        B = rng.dirichlet(np.ones(2), size=3)           # (Y, Y1), state-free
        dmc = Dmc(np.einsum("xsy,yk->xsyk", A, B), relay_rate=1.0)
        v_qp = minimax_receiver_information(dmc)
        v_pq = df_bound(dmc, mode="direct")
        worst = max(worst, abs(v_qp - v_pq))
    report(7, worst <= 1e-3, f"max |min-max - max-min| = {worst:.2e}")


def test_criterion_08_round_trip_randomized():
    rng = np.random.default_rng(20260808)
    fails = invariant_bad = 0
    for trial in range(100):
        n = int(rng.integers(128, 513))
        B = int(rng.integers(2, 5))
        m1, m2 = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        P = float(rng.uniform(0.5, 8))
        P1 = float(rng.uniform(0.5 * P, 4 * P))
        params = GaussianSfdParams(P, P1, float(rng.uniform(0.2, 2)),
                                   float(rng.uniform(0.05, 1)))
        alpha = float(rng.uniform(0.2, 0.9))
        rho = 0.0 if trial % 2 == 0 else float(rng.uniform(0.1, 0.8))
        cfg = CodebookConfig(n=n, num_blocks=B,
                             rate_relayed=np.log2(m1 + 0.5) / n,
                             rate_direct=np.log2(m2 + 0.5) / n,
                             params=params, split=PowerSplit(alpha, rho),
                             delta=0.01 * P if rho == 0.0 else 0.3 * P,
                             seed=int(rng.integers(1 << 30)))
        cb = build_codebook(cfg)
        msgs = np.stack([rng.integers(0, cb.m1_count, B - 1),
                         rng.integers(0, cb.m2_count, B - 1)], axis=1)
        tx = encode(cb, msgs[None])
        for xp, xd in zip(tx.x_prime[0], tx.x_direct[0]):
            xp2 = xp @ xp
            if xp2 > n * alpha * P + 1e-9:
                invariant_bad += 1
            if xp2 + xd @ xd > n * P + 1e-9:
                invariant_bad += 1
        if (np.linalg.norm(cb.x1, axis=1) ** 2 > n * P1).any():
            invariant_bad += 1
        _, x1 = relay_chain(cb, tx.x_direct, "ideal", msgs[None, :, 0])
        res = decode_backward(cb, tx.x_prime + x1)
        if not (np.array_equal(res.m_relayed[0], msgs[:, 0])
                and np.array_equal(res.m_direct[0], msgs[:, 1])):
            fails += 1
    ok = fails == 0 and invariant_bad == 0
    report(8, ok, f"decode failures {fails}/100, power-invariant violations {invariant_bad}")


def _criterion_9_config():
    """An operating point that n = 512 can deliver at error <= 0.05 per trial.

    The code is built for an asymptotic load of nC = 20 bits per block on each
    stream: the direct stream's SNR alpha*P/Lambda = 2^(2C) - 1 sets P, and the
    relay power is chosen so the relayed stream's rate equals C as well.  The
    relay link is nearly noiseless so the destination decoder is the only
    bottleneck.  Each stream then carries 2^floor(L) messages, where L is the
    normal approximation of the largest log2 M at that SNR,

        L = nC - sqrt(n V) Q^-1(eps) + 0.5 log2 n,
        V = S (S + 2) / (2 (S + 1)^2) * log2(e)^2     (AWGN dispersion),

    with eps = 0.05 / (2(B-1)) spread over the 2(B-1) messages of a trial.
    Returns the config, Lambda and a dict of the derived quantities.
    """
    n, B, lam, alpha, nC = 512, 4, 1.0, 0.5, 20.0
    C = nC / n
    snr = 2 ** (2 * C) - 1
    V = snr * (snr + 2) / (2 * (snr + 1) ** 2) * math.log2(math.e) ** 2
    eps = 0.05 / (2 * (B - 1))
    L = nC - math.sqrt(n * V) * NormalDist().inv_cdf(1 - eps) + 0.5 * math.log2(n)
    bits = math.floor(L)
    P = snr * lam / alpha
    gamma = (((alpha * P + lam) * 2 ** (2 * C) - lam) / P) - alpha
    params = GaussianSfdParams(P=P, P1=gamma * P, Lambda=lam, sigma2=1e-6)
    split = PowerSplit(alpha, 0.0)
    cfg = CodebookConfig(n=n, num_blocks=B, rate_relayed=bits / n,
                         rate_direct=bits / n, params=params, split=split, seed=20)
    return cfg, lam, {"nC": nC, "L": L, "messages": 2 ** bits}


def test_criterion_09_achievability_smoke():
    cfg, lam, plan = _criterion_9_config()
    r1, r2 = achievable_rate_pair(cfg.params, cfg.split)
    assert cfg.rate_relayed < r1 and cfg.rate_direct < r2
    cb = build_codebook(cfg)
    assert cb.m1_count == plan["messages"] and cb.m2_count == plan["messages"]
    sim = SimConfig(cfg, StateStrategy("iid_gaussian", Lambda=lam, variance=lam, seed=4),
                    trials=1000, master_seed=10)
    t0 = time.time()
    est = run_monte_carlo(sim)
    elapsed = time.time() - t0
    ok = est.rate <= 0.05 and elapsed <= 300.0
    report(9, ok, f"error rate {est.rate:.3f} with nC={plan['nC']:.0f} bits/block, "
                  f"normal-approximation limit L={plan['L']:.2f} bits, "
                  f"({cb.m1_count}, {cb.m2_count}) messages per stream = "
                  f"{cfg.rate_relayed / r1:.0%} of the rate pair "
                  f"(n=512, B=4), runtime={elapsed:.1f}s")


def test_criterion_10_impostor_floor():
    # jammer budget above P1 + P + 2 sqrt(P P1) = 0.8
    params = GaussianSfdParams(P=0.2, P1=0.2, Lambda=1.0, sigma2=1e-4)
    cfg = CodebookConfig(n=128, num_blocks=3, rate_relayed=1.5 / 128,
                         rate_direct=1.5 / 128, params=params,
                         split=PowerSplit(0.5, 0.0), seed=5)
    sim = SimConfig(cfg, StateStrategy("impostor", Lambda=1.0, seed=9),
                    trials=1000, master_seed=2)
    est = run_monte_carlo(sim)
    report(10, est.rate >= 0.1, f"impostor-induced error rate {est.rate:.3f} "
                                f"on the unwrapped code")


def test_criterion_11_determinism_across_workers(tmp_path):
    params = GaussianSfdParams(P=2.0, P1=2.0, Lambda=1.0, sigma2=0.25)
    cfg = CodebookConfig(n=64, num_blocks=3, rate_relayed=3 / 64, rate_direct=3 / 64,
                         params=params, split=PowerSplit(0.6, 0.0), seed=3)
    sim = SimConfig(cfg, StateStrategy("iid_gaussian", Lambda=1.0, variance=1.0, seed=4),
                    trials=400, master_seed=11)
    payloads = []
    for workers in (1, 8):
        est = run_monte_carlo(sim, workers=workers)
        row = SweepEntry(sim.strategy.Lambda, sim.strategy.kind, est.trials,
                         est.errors, est.rate, est.ci_low, est.ci_high, est.clip_rate)
        path = tmp_path / f"workers{workers}.csv"
        write_csv([row], path)
        payloads.append(path.read_bytes())
    report(11, payloads[0] == payloads[1],
           "CSV byte-identical across 1 and 8 workers")
