import itertools
import json
import tempfile
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avrc import adversary, sim
from avrc.adversary import STRATEGY_KINDS, StateStrategy
from avrc.cli import write_csv
from avrc.codec import (
    CodebookConfig,
    PowerCapError,
    build_codebook,
    encode,
    relay_chain,
    row_powers,
)
from avrc.gaussian import GaussianSfdParams, PowerSplit, cut_gains
from avrc.sim import (
    SimConfig,
    SimConfigError,
    attack_sweep,
    run_monte_carlo,
    sim_config_from_json,
    wilson_interval,
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


def test_sim_config_refuses_an_unknown_relay_mode():
    with pytest.raises(SimConfigError, match=r"^relay_mode must be min_distance or ideal$"):
        SimConfig(base_codebook_config(), StateStrategy("zero", Lambda=1.0), trials=1,
                  relay_mode="oracle")


@pytest.mark.parametrize("trials", [2.5, True, "3", None])
def test_trials_must_be_an_integer(trials):
    # 2.5 used to build a config that failed inside range(), and True ran 1 trial
    with pytest.raises(SimConfigError, match=r"^trials must be an integer, got "):
        SimConfig(base_codebook_config(), StateStrategy("zero", Lambda=1.0), trials=trials)


def test_an_integral_float_trials_is_read_as_its_int():
    cfg = SimConfig(base_codebook_config(), StateStrategy("zero", Lambda=1.0), trials=3.0)
    assert type(cfg.trials) is int and cfg.trials == 3


def test_trials_cap_admits_the_cap_and_refuses_one_more():
    cb, zero = base_codebook_config(), StateStrategy("zero", Lambda=1.0)
    assert SimConfig(cb, zero, trials=sim.MAX_TRIALS).trials == 10**7
    with pytest.raises(SimConfigError, match=r"^trials 10000001 is above the cap of 10000000$"):
        SimConfig(cb, zero, trials=sim.MAX_TRIALS + 1)


def test_error_grows_with_jammer_power():
    cfg = base_codebook_config(P=2.0, P1=2.0, Lam=4.0)
    rates = []
    for lam in (0.25, 4.0):
        sim = SimConfig(cfg, StateStrategy("iid_gaussian", Lambda=lam,
                                           variance=lam, seed=2),
                        trials=250, master_seed=9)
        rates.append(run_monte_carlo(sim).rate)
    assert rates[0] <= rates[1] + 0.02


def test_impostor_error_steps_up_where_its_fake_fits_the_budget():
    # criterion 10's code: the impostor's fake transmission x' + x1 has the
    # power of the upper cut's gain at the code's split, backed off by delta,
    # plus the cross terms of its codewords.  Below the least fake power every
    # fake falls back to zeros and the plain code cannot err; once every fake
    # fits, it errs at a floor, and a shared permutation hides the code
    params = GaussianSfdParams(P=0.2, P1=0.2, Lambda=1.0, sigma2=1e-4)
    cfg = CodebookConfig(n=128, num_blocks=3, rate_relayed=1.5 / 128, rate_direct=1.5 / 128,
                         params=params, split=PowerSplit(0.5, 0.0), seed=5)
    cb = build_codebook(cfg)
    pairs = list(itertools.product(range(cb.m1_count), range(cb.m2_count)))
    msgs = np.array(list(itertools.product(pairs, repeat=cb.num_blocks - 1)))
    assert len(msgs) == 16
    tx = encode(cb, msgs)
    _, x1 = relay_chain(cb, tx.x_direct, "ideal", msgs[..., 0])
    power = row_powers((tx.x_prime + x1).reshape(len(msgs), -1)) / (cb.num_blocks * cb.n)
    gain = cut_gains(params, 0.5, 0.0)[0] * (1.0 - cb.delta / params.P)   # 0.297
    assert gain < power.min() and power.max() < 1.1 * gain   # 0.3004 to 0.3239
    below, above = [0.25, 0.29], [0.35, 0.5]
    assert max(below) < power.min() and power.max() < min(above)
    for permute in (False, True):
        base = SimConfig(cfg, StateStrategy("impostor", Lambda=1.0, seed=9), trials=400,
                         master_seed=2, permute=permute)
        rate = {row.Lambda: row.rate for row in attack_sweep(base, below + above)}
        assert [rate[lam] for lam in below] == [0.0, 0.0]
        if permute:
            assert [rate[lam] for lam in above] == [0.0, 0.0]
        else:
            assert min(rate[lam] for lam in above) >= 0.4


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
    write_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "Lambda,strategy,trials,errors,rate,ci_low,ci_high,clip_rate"
    assert len(lines) == 5
    mirror = asdict(rows[0])
    assert list(mirror) == ["Lambda", "strategy", "trials", "errors", "rate",
                            "ci_low", "ci_high", "clip_rate"]
    with pytest.raises(SimConfigError):
        attack_sweep(base, [])
    with pytest.raises(SimConfigError, match="^empty strategy list$"):
        attack_sweep(base, [1.0], [])


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


@pytest.mark.parametrize("workers, cpus, threads", [(10**9, 2, [2]), (3, 8, [3]), (4, None, [])])
def test_worker_threads_never_outnumber_the_cpus(monkeypatch, workers, cpus, threads):
    # a fake pool records its size and maps serially, so no thread starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    cfg = SimConfig(base_codebook_config(), StateStrategy("impostor", Lambda=1.0, seed=5),
                    trials=200, master_seed=7)          # 85 trials a chunk: 3 chunks
    alone = run_monte_carlo(cfg, workers=1)
    monkeypatch.setattr(sim, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
    assert run_monte_carlo(cfg, workers=workers) == alone
    assert sizes == threads


def test_codebook_config_json_round_trip():
    from avrc.codec import codebook_config_from_json, codebook_config_to_json

    cfg = base_codebook_config()
    back = codebook_config_from_json(json.loads(json.dumps(codebook_config_to_json(cfg))))
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
    config, sweep = sim_config_from_json(json.loads(json.dumps(obj)))
    assert sweep is None
    assert config.codebook.n == 32 and config.strategy.kind == "zero"
    est = run_monte_carlo(config)
    assert est.trials == 12

    obj["sweep"] = {"lambdas": [0.5, 1.0]}
    config, sweep = sim_config_from_json(json.loads(json.dumps(obj)))
    assert sweep["lambdas"] == [0.5, 1.0]
    assert sweep["strategies"][0].kind == "zero"


def test_attack_sweep_builds_one_codebook(monkeypatch, tmp_path):
    base = SimConfig(base_codebook_config(),
                     StateStrategy("iid_gaussian", Lambda=1.0, variance=1.0, seed=5),
                     trials=30, master_seed=2, permute=True)
    strategies = [StateStrategy("zero", Lambda=1.0),
                  StateStrategy("iid_gaussian", Lambda=1.0, variance=2.0, seed=5),
                  StateStrategy("impostor", Lambda=1.0, seed=3)]
    lambdas = [0.5, 1.0, 4.0]
    # one run per row, each building its own codebook
    alone = [run_monte_carlo(replace(base, strategy=replace(strat, Lambda=lam)))
             for lam in lambdas for strat in strategies]
    builds = []
    real = sim.build_codebook
    monkeypatch.setattr(sim, "build_codebook", lambda config: builds.append(config) or real(config))
    rows = attack_sweep(base, lambdas, strategies)
    assert builds == [base.codebook]
    assert [(r.errors, r.clip_rate) for r in rows] == [(e.errors, e.clip_rate) for e in alone]
    write_csv(rows, tmp_path / "shared.csv")
    write_csv([sim.SweepEntry(r.Lambda, r.strategy, e.trials, e.errors, e.rate,
                                     e.ci_low, e.ci_high, e.clip_rate)
                      for r, e in zip(rows, alone)], tmp_path / "alone.csv")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def _determinism_config(kind, permute, relay_mode, rho):
    # small and loud: errors occur, rho = 0.8 clips blocks, and at rho = 1
    # (beta = 0) every second-pass decision is a counted tie
    cb = CodebookConfig(n=32, num_blocks=3, rate_relayed=np.log2(4.5) / 32,
                        rate_direct=np.log2(4.5) / 32,
                        params=GaussianSfdParams(0.4, 0.4, 1.0, 0.3),
                        split=PowerSplit(0.6, rho), delta=0.004, seed=4)
    n = cb.num_blocks * cb.n
    vector = tuple(0.9 * np.sin(0.7 * np.arange(n))) if kind == "fixed" else None
    strategy = StateStrategy(kind, Lambda=1.0, seed=6, vector=vector,
                             variance=1.5 if kind == "iid_gaussian" else None)
    return SimConfig(cb, strategy, trials=11, master_seed=8, relay_mode=relay_mode,
                     permute=permute)


def _estimate_and_sweep_bytes(config, workers):
    est = run_monte_carlo(config, workers)
    rows = attack_sweep(config, [0.5, 2.0], workers=workers)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        write_csv(rows, path)
        return est, path.read_bytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(STRATEGY_KINDS), permute=st.booleans(),
       relay_mode=st.sampled_from(["min_distance", "ideal"]), rho=st.sampled_from([0.8, 1.0]),
       chunk_trials=st.sampled_from([1, 3, None]), workers=st.sampled_from([1, 2, 3]))
def test_results_independent_of_chunk_size_and_workers(kind, permute, relay_mode, rho,
                                                       chunk_trials, workers):
    # ROADMAP item 5: the per-trial seeds make every tally independent of how
    # the trials are chunked and of how many threads take the chunks
    config = _determinism_config(kind, permute, relay_mode, rho)
    reference = _estimate_and_sweep_bytes(config, 1)
    cap = sim._CHUNK_ENTRIES if chunk_trials is None else chunk_trials * 3 * 32
    with mock.patch.object(sim, "_CHUNK_ENTRIES", cap):
        assert _estimate_and_sweep_bytes(config, workers) == reference


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(permute=st.booleans(), relay_mode=st.sampled_from(["min_distance", "ideal"]),
       rho=st.sampled_from([0.8, 1.0]), chunk_trials=st.sampled_from([1, None]),
       workers=st.sampled_from([1, 2]),
       lambdas=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=3))
def test_rows_sharing_a_chunk_equal_each_row_alone(permute, relay_mode, rho, chunk_trials,
                                                   workers, lambdas):
    # every kind, and iid jammers that differ only in seed and variance, each
    # at every Lambda (repeats too), in an order no sweep sorts them into; at
    # variance 1.0 a budget of Lambda = 1.0 rescales some trials and not others
    strategies = [_determinism_config(kind, permute, relay_mode, rho).strategy
                  for kind in STRATEGY_KINDS]
    strategies += [replace(strategies[2], seed=7, variance=0.5),
                   replace(strategies[2], seed=9, variance=1.0)]
    base = _determinism_config("zero", permute, relay_mode, rho)
    rows = [replace(base, strategy=replace(strat, Lambda=lam))
            for strat in strategies for lam in lambdas]
    alone = [run_monte_carlo(row) for row in rows]
    cap = sim._CHUNK_ENTRIES if chunk_trials is None else chunk_trials * 3 * 32
    with mock.patch.object(sim, "_CHUNK_ENTRIES", cap):
        assert sim._estimates(rows, build_codebook(base.codebook), workers) == alone


def test_sweep_runs_the_sender_pass_and_each_jammer_draw_once_per_chunk(monkeypatch):
    base = SimConfig(base_codebook_config(), StateStrategy("zero", Lambda=1.0),
                     trials=10, master_seed=2, permute=True)
    strategies = [StateStrategy("zero", Lambda=1.0),
                  StateStrategy("iid_gaussian", Lambda=1.0, variance=2.0, seed=5),
                  StateStrategy("impostor", Lambda=1.0, seed=3)]
    monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 4 * 3 * 64)    # chunks of 4, 4 and 2 trials
    transmits, seeds = [], []
    real_transmit, real_seed_words = sim.transmit, sim._seed_words

    def counted_transmit(*args, **kwargs):
        transmits.append(len(args[1]))
        return real_transmit(*args, **kwargs)

    def counted_seed_words(prefixes, trials):
        seeds.append((prefixes, trials))
        return real_seed_words(prefixes, trials)

    monkeypatch.setattr(sim, "transmit", counted_transmit)
    monkeypatch.setattr(adversary, "transmit", counted_transmit)
    monkeypatch.setattr(sim, "_seed_words", counted_seed_words)
    rows = attack_sweep(base, [0.5, 1.0, 4.0], strategies)
    assert len(rows) == 9
    # once per chunk for the sender and once for the impostor, not once per row
    assert transmits == [4, 4, 4, 4, 2, 2]
    # one seeding per chunk: the trials with prefix [master_seed], then each drawing
    # jammer with [seed, master_seed] in row order (iid_gaussian, impostor); the
    # zero jammer never draws, so it seeds nothing
    assert seeds == [([[2], [5, 2], [3, 2]], chunk)
                     for chunk in (range(0, 4), range(4, 8), range(8, 10))]


def test_over_power_relay_codeword_raises_on_the_batched_path(monkeypatch):
    real = sim.build_codebook

    def loud(config):
        cb = real(config)
        cb.x1 = 2.0 * cb.x1     # 4x the relay's per-block budget n * P1
        return cb

    monkeypatch.setattr(sim, "build_codebook", loud)
    # caught at every unit of power: at P = P1 = 4 * 4**-20 an absolute
    # allowance of 1e-9 * n would be about 280x the budget
    for scale in (1.0, 4.0 ** -20):
        cfg = SimConfig(base_codebook_config(P=4.0 * scale, P1=4.0 * scale, Lam=scale,
                                             s2=0.25 * scale),
                        StateStrategy("zero", Lambda=scale), trials=20, master_seed=1)
        # plain floats (with an exponent at the small scale), not numpy scalar reprs
        with pytest.raises(PowerCapError,
                           match=r"^x1 block energy \d[\d.e+-]* exceeds the budget \d[\d.e+-]*$"):
            run_monte_carlo(cfg)


def _scaled_sweep(scale, relay_mode, permute, rho, delta):
    """(errors, clip_rate) of a zero/iid/impostor sweep at Lambda 0.5 and 8,
    every power (P, P1, Lambda, sigma2, delta, the grid, the iid variance)
    times scale; delta is relative to P, None for the default."""
    P = 4.0 * scale
    cb = replace(base_codebook_config(P=P, P1=P, Lam=scale, s2=0.25 * scale),
                 split=PowerSplit(0.6, rho), delta=None if delta is None else delta * P)
    strategies = [StateStrategy("zero", Lambda=scale),
                  StateStrategy("iid_gaussian", Lambda=scale, variance=2.0 * scale, seed=5),
                  StateStrategy("impostor", Lambda=scale, seed=3)]
    base = SimConfig(cb, strategies[0], trials=12, master_seed=1, relay_mode=relay_mode,
                     permute=permute)
    rows = attack_sweep(base, [0.5 * scale, 8.0 * scale], strategies)
    return [(r.errors, r.clip_rate) for r in rows]


def test_monte_carlo_counts_do_not_depend_on_the_unit_of_power():
    # scaling every power by 4**k scales every amplitude by exactly 2**k, so
    # each clip, fallback, rescale and decision, and each budget check, must
    # come out the same; at delta = 1e-200 * P an x1 block's energy can round
    # above n * P1, so the checks must allow rounding relative to the budget
    counts = []
    for relay_mode, permute, rho, delta in itertools.product(
            ["min_distance", "ideal"], [False, True], [0.0, 0.6], [None, 1e-200]):
        expected = _scaled_sweep(1.0, relay_mode, permute, rho, delta)
        if rho == 0.0:
            # each x' block carries n*alpha*(P - delta), which at delta = 1e-200*P
            # rounds to the clip budget n*alpha*P and may land an ulp above it;
            # the clip allows that rounding, as check_power does
            assert [clip for _, clip in expected] == [0.0] * 6, (relay_mode, permute, delta)
        for k in (-60, -20, 20, 60):
            assert _scaled_sweep(4.0 ** k, relay_mode, permute, rho, delta) == expected, \
                (relay_mode, permute, rho, delta, k)
        counts += expected
    # the rows err and clip, so the decisions and clips are compared, not only zeros
    assert any(errors for errors, _ in counts) and any(clip for _, clip in counts)


def test_sweep_decodes_only_the_trials_whose_state_changed(monkeypatch):
    _check_decode_stacks(monkeypatch, [0.5, 6.3, 8.0])


def test_a_long_sweep_decodes_before_the_end_of_a_chunk(monkeypatch):
    # 28 rows: each chunk fills more than one stack
    stacks = _check_decode_stacks(monkeypatch, [0.5, 2.0, 4.0, 6.3, 7.0, 8.0, 12.0])
    assert min(stacks) > 1


def _check_decode_stacks(monkeypatch, lambdas):
    """Check a sweep's decode stacks against the rule; returns each chunk's
    stack count."""
    # impostor states have about 6.3 per symbol of power here, and the iid
    # jammer's variance sits there too, so the middle budgets split both
    base = SimConfig(base_codebook_config(), StateStrategy("zero", Lambda=1.0),
                     trials=10, master_seed=2, permute=True)
    n = base.codebook.num_blocks * base.codebook.n
    strategies = [StateStrategy("zero", Lambda=1.0),
                  StateStrategy("fixed", Lambda=1.0, vector=tuple(0.5 * np.cos(np.arange(n)))),
                  StateStrategy("iid_gaussian", Lambda=1.0, variance=6.3, seed=5),
                  StateStrategy("impostor", Lambda=1.0, seed=3)]
    chunks = [range(0, 4), range(4, 8), range(8, 10)]
    monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 4 * n)
    bound = sim._DECODE_STACK_CHUNKS * 4   # trials of one decode stack
    cb = build_codebook(base.codebook)

    def alone(strategy, lam, t):
        rng = np.random.default_rng(np.random.SeedSequence([strategy.seed, 2, t]))
        drawn = adversary.draw_state(strategy, n, [rng], cb, "min_distance")
        return adversary.make_state(replace(strategy, Lambda=lam), drawn)[0]

    # per chunk and strategy (in the sweep's row order), the first Lambda
    # decodes every trial and each later one the trials whose state changed;
    # a chunk's rows go into a stack in that order, and a stack is decoded when
    # the next row's trials would take it over the bound, and at the chunk's end
    expected, per_chunk, mixed = [], [], 0
    for chunk in chunks:
        stacks = [[]]
        for strategy in sorted(strategies, key=lambda s: s.kind):
            states = [[alone(strategy, lam, t) for t in chunk] for lam in lambdas]
            counts = [len(chunk)]
            for prev, cur in zip(states, states[1:]):
                counts.append(sum(bool((a != b).any()) for a, b in zip(prev, cur)))
                mixed += 0 < counts[-1] < len(chunk)
            # zero and fixed decode once per chunk
            assert sum(counts) == len(chunk) or strategy.kind in adversary.DRAWING_KINDS
            for count in filter(None, counts):
                if sum(stacks[-1]) + count > bound:
                    stacks.append([])
                stacks[-1].append(count)
        expected += [sum(stack) for stack in stacks]
        per_chunk.append(len(stacks))
    assert mixed > 0
    assert max(expected) <= bound
    decoded = []
    real = sim.decode_backward

    def counted(codebook, y):
        decoded.append(len(y))
        # a tie count read off each observation, so that a stale count shows
        return replace(real(codebook, y), tie_count=(y > 0).sum(axis=(1, 2)))

    monkeypatch.setattr(sim, "decode_backward", counted)
    rows = [replace(base, strategy=replace(strategy, Lambda=lam))
            for lam in lambdas for strategy in sorted(strategies, key=lambda s: s.kind)]
    shared = sim._estimates(rows, cb, 1)
    assert decoded == expected
    assert shared == [run_monte_carlo(row) for row in rows]
    return per_chunk


def test_a_sweeps_memory_does_not_grow_with_its_lambda_grid():
    # a chunk holds one trial here, and each Lambda rescales every state, so
    # every row is decoded; its state is fitted row by row, so 32 Lambda values
    # peak within one chunk's (T, B*n) state of 8 (a stack over Lambda held
    # the whole grid's states: 8 and 14 MB)
    n, B = 1 << 14, 2
    cb = CodebookConfig(n=n, num_blocks=B, rate_relayed=1 / n, rate_direct=1 / n,
                        params=GaussianSfdParams(4.0, 4.0, 1.0, 0.25),
                        split=PowerSplit(0.6, 0.0), seed=11)
    base = SimConfig(cb, StateStrategy("iid_gaussian", Lambda=1.0, variance=4.0, seed=5),
                     trials=2, master_seed=2)
    attack_sweep(base, [1.0])   # first-call caches stay out of the peaks

    def peak(count):
        tracemalloc.start()
        try:
            attack_sweep(base, np.linspace(0.1, 3.0, count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) <= peak(8) + B * n * 8
