import json
from dataclasses import asdict

import numpy as np
import pytest

from avrc.adversary import StateStrategy
from avrc.codec import CodebookConfig
from avrc.gaussian import GaussianSfdParams, PowerSplit
from avrc.sim import (
    SimConfig,
    SimConfigError,
    attack_sweep,
    run_monte_carlo,
    sim_config_from_json,
    wilson_interval,
    write_attack_csv,
)


def base_codebook_config(n=64, blocks=3, P=4.0, P1=4.0, Lam=1.0, s2=0.25, seed=11):
    return CodebookConfig(n=n, num_blocks=blocks, rate_relayed=3 / n, rate_direct=3 / n,
                          params=GaussianSfdParams(P, P1, Lam, s2),
                          split=PowerSplit(0.6, 0.0), seed=seed)


def test_wilson_interval_contains_point():
    for errors, trials in [(0, 100), (5, 100), (100, 100)]:
        lo, hi = wilson_interval(errors, trials)
        assert lo <= errors / trials <= hi
        assert 0.0 <= lo <= hi <= 1.0


def test_zero_state_ideal_relay_is_error_free():
    cfg = SimConfig(base_codebook_config(), StateStrategy("zero", Lambda=1.0),
                    trials=40, master_seed=3, relay_mode="ideal")
    est = run_monte_carlo(cfg)
    assert est.errors == 0 and est.rate == 0.0
    assert est.clip_rate == 0.0 and est.tie_count == 0
    assert sum(est.relayed_block_errors) == 0


def test_reproducibility_across_worker_counts():
    cfg = SimConfig(base_codebook_config(),
                    StateStrategy("iid_gaussian", Lambda=1.0, variance=1.0, seed=5),
                    trials=150, master_seed=7)
    est1 = run_monte_carlo(cfg, workers=1)
    est8 = run_monte_carlo(cfg, workers=8)
    assert est1 == est8


def test_conservation_and_ranges():
    cfg = SimConfig(base_codebook_config(P=1.0, P1=1.0),
                    StateStrategy("iid_gaussian", Lambda=1.0, variance=1.0, seed=5),
                    trials=120, master_seed=1)
    est = run_monte_carlo(cfg)
    assert 0 <= est.errors <= est.trials
    assert 0.0 <= est.clip_rate <= 1.0
    assert est.ci_low <= est.rate <= est.ci_high
    assert len(est.relayed_block_errors) == 2
    assert max(est.relayed_block_errors) <= est.trials


def test_trials_validation():
    with pytest.raises(SimConfigError):
        SimConfig(base_codebook_config(), StateStrategy("zero", Lambda=1.0), trials=0)


def test_error_grows_with_jammer_power():
    cfg = base_codebook_config(P=2.0, P1=2.0, Lam=4.0)
    rates = []
    for lam in (0.25, 4.0):
        sim = SimConfig(cfg, StateStrategy("iid_gaussian", Lambda=lam,
                                           variance=lam, seed=2),
                        trials=250, master_seed=9)
        rates.append(run_monte_carlo(sim).rate)
    assert rates[0] <= rates[1] + 0.02


def test_attack_sweep_rows_and_csv(tmp_path):
    base = SimConfig(base_codebook_config(),
                     StateStrategy("iid_gaussian", Lambda=1.0, variance=1.0, seed=5),
                     trials=30, master_seed=2)
    strategies = [StateStrategy("zero", Lambda=1.0),
                  StateStrategy("iid_gaussian", Lambda=1.0, variance=1.0, seed=5)]
    rows = attack_sweep(base, [1.0, 0.5], strategies)
    assert [(r.Lambda, r.strategy) for r in rows] == [
        (0.5, "iid_gaussian"), (0.5, "zero"), (1.0, "iid_gaussian"), (1.0, "zero")]
    assert all(r.rate == 0.0 for r in rows if r.strategy == "zero")
    path = tmp_path / "sweep.csv"
    write_attack_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "Lambda,strategy,trials,errors,rate,ci_low,ci_high,clip_rate"
    assert len(lines) == 5
    mirror = asdict(rows[0])
    assert list(mirror) == ["Lambda", "strategy", "trials", "errors", "rate",
                            "ci_low", "ci_high", "clip_rate"]
    with pytest.raises(SimConfigError):
        attack_sweep(base, [])


def test_single_lambda_single_strategy_row():
    base = SimConfig(base_codebook_config(), StateStrategy("zero", Lambda=1.0),
                     trials=10, master_seed=4)
    rows = attack_sweep(base, [1.0])
    assert len(rows) == 1 and rows[0].strategy == "zero"


def test_estimate_json_fields():
    cfg = SimConfig(base_codebook_config(), StateStrategy("zero", Lambda=1.0),
                    trials=5, master_seed=0, relay_mode="ideal")
    blob = asdict(run_monte_carlo(cfg))
    assert list(blob) == ["trials", "errors", "rate", "ci_low", "ci_high",
                          "relayed_block_errors", "direct_block_errors",
                          "clip_rate", "tie_count"]
    json.dumps(blob)   # must be serializable as-is


def test_worker_resolution_env():
    from avrc.sim import resolve_workers

    assert resolve_workers() == 1           # the default ignores the host's core count
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3


def test_codebook_config_json_round_trip():
    from avrc.codec import codebook_config_from_json, codebook_config_to_json

    cfg = base_codebook_config()
    back = codebook_config_from_json(json.dumps(codebook_config_to_json(cfg)))
    assert back == cfg


def test_sim_config_json_round_trip():
    obj = {
        "codebook": {"n": 32, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 2.0, "P1": 2.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.5, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 12,
        "master_seed": 5,
        "relay_mode": "ideal",
    }
    config, sweep = sim_config_from_json(json.dumps(obj))
    assert sweep is None
    assert config.codebook.n == 32 and config.strategy.kind == "zero"
    est = run_monte_carlo(config)
    assert est.trials == 12

    obj["sweep"] = {"lambdas": [0.5, 1.0]}
    config, sweep = sim_config_from_json(json.dumps(obj))
    assert sweep["lambdas"] == [0.5, 1.0]
    assert sweep["strategies"][0].kind == "zero"
