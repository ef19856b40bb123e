"""Golden CLI bytes, pinned so that a refactor cannot change an output unnoticed.

The `simulate` CSVs are the exact bytes of seeded runs of the Monte Carlo path
(codec, jammer, simulator); between them they reach every strategy kind, both
relay modes and the plain and permuted codes.  Two loud permuted sweeps add
rows with errors and clipped blocks, the second with rows in which some
trials' states equal those of the row before and some do not.  Three
`simulate` stdout documents pin the per-block error counts and the tie count
that the CSV leaves out.  The Gaussian pins are the criterion-01 `figure` CSV
and the `bounds` JSON of criterion 02's tuple and of a tuple with P = 0, where
only the upper region is feasible.  The discrete pins are `primitive` stdout
documents: the classification of a seeded 2x2x2x2 channel and of the binary
pipe, and df's aux search at |U| = 4 on a 3x2x2x2 channel whose centres, kept
apart, refine to a different local optimum than any one of them alone."""

import hashlib
import json

import numpy as np
import pytest

from avrc.cli import main
from avrc.codec import build_codebook, codebook_config_from_json
from avrc.discrete import Dmc, binary_pipe_dmc, dmc_to_json

CODE = {"n": 128, "blocks": 3, "rate_relayed": 1.5 / 128, "rate_direct": 1.5 / 128,
        "P": 0.2, "P1": 0.2, "Lambda": 1.0, "sigma2": 1e-4,
        "alpha": 0.5, "rho": 0.0, "seed": 5}

HEADER = "Lambda,strategy,trials,errors,rate,ci_low,ci_high,clip_rate\n"

PLAIN_IMPOSTOR = (
    {"codebook": CODE, "strategy": {"kind": "impostor", "Lambda": 1.0, "seed": 9},
     "trials": 50, "master_seed": 13},
    HEADER + "1,impostor,50,27,0.54,0.403988714,0.670303478,0\n",
)

PERMUTED_SWEEP = (
    {"codebook": CODE, "strategy": {"kind": "zero", "Lambda": 1.0},
     "trials": 50, "master_seed": 21, "permute": True,
     "sweep": {"lambdas": [1.0, 4.0], "strategies": [
         {"kind": "zero", "Lambda": 1.0},
         {"kind": "iid_gaussian", "Lambda": 1.0, "variance": 3.0, "seed": 4},
         {"kind": "impostor", "Lambda": 1.0, "seed": 9}]}},
    HEADER
    + "1,iid_gaussian,50,2,0.04,0.0110388843,0.134600907,0\n"
    + "1,impostor,50,0,0,0,0.0713475991,0\n"
    + "1,zero,50,0,0,0,0.0713475991,0\n"
    + "4,iid_gaussian,50,11,0.22,0.12753916,0.352415496,0\n"
    + "4,impostor,50,0,0,0,0.0713475991,0\n"
    + "4,zero,50,0,0,0,0.0713475991,0\n",
)

# a fixed fake transmission of the code itself: x1 + beta * v per block, in budget
_CB = build_codebook(codebook_config_from_json(CODE))
FAKE = (_CB.x1[[0, 1, 1]] + _CB.beta * _CB.v[1, [1, 0, 0]]).ravel().tolist()

IDEAL_SWEEP = (
    {"codebook": CODE, "strategy": {"kind": "zero", "Lambda": 1.0},
     "trials": 50, "master_seed": 31, "relay_mode": "ideal",
     "sweep": {"lambdas": [1.0, 4.0], "strategies": [
         {"kind": "zero", "Lambda": 1.0},
         {"kind": "fixed", "Lambda": 1.0, "vector": FAKE},
         {"kind": "iid_gaussian", "Lambda": 1.0, "variance": 3.0, "seed": 4},
         {"kind": "impostor", "Lambda": 1.0, "seed": 9}]}},
    HEADER
    + "1,fixed,50,43,0.86,0.738138063,0.930491666,0\n"
    + "1,iid_gaussian,50,1,0.02,0.00353925927,0.104954436,0\n"
    + "1,impostor,50,36,0.72,0.583348763,0.825258293,0\n"
    + "1,zero,50,0,0,0,0.0713475991,0\n"
    + "4,fixed,50,43,0.86,0.738138063,0.930491666,0\n"
    + "4,iid_gaussian,50,11,0.22,0.12753916,0.352415496,0\n"
    + "4,impostor,50,36,0.72,0.583348763,0.825258293,0\n"
    + "4,zero,50,0,0,0,0.0713475991,0\n",
)

PLAIN_FIXED = (
    {"codebook": CODE, "strategy": {"kind": "fixed", "Lambda": 1.0, "vector": FAKE},
     "trials": 50, "master_seed": 17},
    HEADER + "1,fixed,50,49,0.98,0.895045564,0.996460741,0\n",
)

PERMUTED_FIXED = (
    {"codebook": CODE, "strategy": {"kind": "fixed", "Lambda": 1.0, "vector": FAKE},
     "trials": 50, "master_seed": 17, "permute": True},
    HEADER + "1,fixed,50,0,0,0,0.0713475991,0\n",
)

# small and loud, as tests/test_sim.py's determinism config: rho = 0.8 clips
# about half the blocks, and most trials err under every jammer
LOUD_CODE = {"n": 32, "blocks": 3, "rate_relayed": float(np.log2(4.5) / 32),
             "rate_direct": float(np.log2(4.5) / 32), "P": 0.4, "P1": 0.4, "Lambda": 1.0,
             "sigma2": 0.3, "alpha": 0.6, "rho": 0.8, "delta": 0.004, "seed": 4}

LOUD_SWEEP = (
    {"codebook": LOUD_CODE, "strategy": {"kind": "zero", "Lambda": 1.0},
     "trials": 40, "master_seed": 8, "permute": True,
     "sweep": {"lambdas": [0.5, 2.0], "strategies": [
         {"kind": "zero", "Lambda": 1.0},
         {"kind": "fixed", "Lambda": 1.0, "vector": (0.9 * np.sin(0.7 * np.arange(96))).tolist()},
         {"kind": "iid_gaussian", "Lambda": 1.0, "variance": 1.5, "seed": 6},
         {"kind": "impostor", "Lambda": 1.0, "seed": 6}]}},
    HEADER
    + "0.5,fixed,40,31,0.775,0.624969033,0.876839087,0.508333333\n"
    + "0.5,iid_gaussian,40,30,0.75,0.598060386,0.858128814,0.508333333\n"
    + "0.5,impostor,40,34,0.85,0.709276756,0.929388123,0.508333333\n"
    + "0.5,zero,40,33,0.825,0.680500097,0.912545863,0.508333333\n"
    + "2,fixed,40,31,0.775,0.624969033,0.876839087,0.508333333\n"
    + "2,iid_gaussian,40,34,0.85,0.709276756,0.929388123,0.508333333\n"
    + "2,impostor,40,32,0.8,0.652426937,0.895000103,0.508333333\n"
    + "2,zero,40,33,0.825,0.680500097,0.912545863,0.508333333\n",
)

# the iid jammer's power (about 144 = 96 * 1.5) straddles the middle budget:
# at Lambda = 2, 17 of its 40 states equal those at 1.5 (within budget at
# both) and 23 differ (rescaled at 1.5); the impostor's fallback at 1.5
# differs from 1 on 3 of them.  Each of those rows' counts moves if a changed
# trial keeps the row before's decode
LOUD_MIXED_SWEEP = (
    dict(LOUD_SWEEP[0], master_seed=3,
         sweep=dict(LOUD_SWEEP[0]["sweep"], lambdas=[1.0, 1.5, 2.0])),
    HEADER
    + "1,fixed,40,21,0.525,0.374973621,0.670645299,0.483333333\n"
    + "1,iid_gaussian,40,29,0.725,0.571650442,0.838919838,0.483333333\n"
    + "1,impostor,40,31,0.775,0.624969033,0.876839087,0.483333333\n"
    + "1,zero,40,30,0.75,0.598060386,0.858128814,0.483333333\n"
    + "1.5,fixed,40,21,0.525,0.374973621,0.670645299,0.483333333\n"
    + "1.5,iid_gaussian,40,30,0.75,0.598060386,0.858128814,0.483333333\n"
    + "1.5,impostor,40,29,0.725,0.571650442,0.838919838,0.483333333\n"
    + "1.5,zero,40,30,0.75,0.598060386,0.858128814,0.483333333\n"
    + "2,fixed,40,21,0.525,0.374973621,0.670645299,0.483333333\n"
    + "2,iid_gaussian,40,30,0.75,0.598060386,0.858128814,0.483333333\n"
    + "2,impostor,40,29,0.725,0.571650442,0.838919838,0.483333333\n"
    + "2,zero,40,30,0.75,0.598060386,0.858128814,0.483333333\n",
)


@pytest.mark.parametrize(
    "config, expected",
    [PLAIN_IMPOSTOR, PERMUTED_SWEEP, IDEAL_SWEEP, PLAIN_FIXED, PERMUTED_FIXED, LOUD_SWEEP,
     LOUD_MIXED_SWEEP],
    ids=["plain_impostor", "permuted_sweep", "ideal_sweep", "plain_fixed", "permuted_fixed",
         "loud_sweep", "loud_mixed_sweep"])
def test_simulate_csv_bytes_are_pinned(tmp_path, capsys, config, expected):
    cfg_path, out_path = tmp_path / "sim.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path),
                 "--workers", "1"]) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == expected.encode()


def _estimate_json(trials, errors, rate, ci, relayed, direct, clip_rate, tie_count):
    return json.dumps({"trials": trials, "errors": errors, "rate": rate, "ci_low": ci[0],
                       "ci_high": ci[1], "relayed_block_errors": relayed,
                       "direct_block_errors": direct, "clip_rate": clip_rate,
                       "tie_count": tie_count}, indent=2) + "\n"


ESTIMATE_PINS = {
    "plain_impostor": (PLAIN_IMPOSTOR[0], _estimate_json(
        50, 27, 0.54, (0.403988714, 0.670303478), [13, 8], [12, 8], 0.0, 0)),
    "plain_fixed": (PLAIN_FIXED[0], _estimate_json(
        50, 49, 0.98, (0.895045564, 0.996460741), [26, 23], [23, 9], 0.0, 0)),
    # rho = 1 leaves beta = 0, so every second-pass decision is a counted tie
    "rho_one_ties": (
        {"codebook": dict(LOUD_CODE, rho=1.0),
         "strategy": {"kind": "iid_gaussian", "Lambda": 1.0, "variance": 1.5, "seed": 6},
         "trials": 20, "master_seed": 8},
        _estimate_json(20, 20, 1.0, (0.838874842, 1.0), [0, 0], [15, 15], 0.0, 120)),
}


@pytest.mark.parametrize("name", sorted(ESTIMATE_PINS))
def test_simulate_stdout_is_pinned(tmp_path, capsys, name):
    config, expected = ESTIMATE_PINS[name]
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv"),
                 "--workers", "1"]) == 0
    assert capsys.readouterr().out == expected


# `figure --Lambda 1 --sigma2 0.5 --pmin 0.05 --pmax 8 --step 0.05`: 160 rows
FIGURE_C01_SHA256 = "b38ffa3f35272524d65c416c0d824cea29bbf9e443c8789edb417b0eb7246961"
FIGURE_C01_FIRST = "0.05,0.0614283739,0,0,0"
FIGURE_C01_LAST = "8,2.28083672,2.28083672,2.28083672,1.5849625"


def test_figure_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["figure", "--Lambda", "1", "--sigma2", "0.5", "--pmin", "0.05",
                 "--pmax", "8", "--step", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 161
    assert (lines[1], lines[-1]) == (FIGURE_C01_FIRST, FIGURE_C01_LAST)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_C01_SHA256


def _bounds_json(rates, splits, lower_feasible, upper_feasible):
    names = ("random_capacity", "det_lower", "det_upper", "direct_transmission")
    doc = dict(zip(names, rates))
    for name, (a, r) in zip(("random_split", "lower_split", "upper_split"), splits):
        doc[name] = {"alpha": a, "rho": r}
    doc.update(lower_feasible=lower_feasible, upper_feasible=upper_feasible)
    return json.dumps(doc, indent=2) + "\n"


BOUNDS_PINS = {
    # criterion 02's tuple: every program peaks at the same interior split
    "criterion_02": (["--P", "2", "--P1", "1e4", "--Lambda", "0.4", "--sigma2", "0.5"],
                     _bounds_json((1.69701695, 1.69701695, 1.69701695, 1.29248125),
                                  [(0.525, 0.0)] * 3, True, True)),
    # no source power: the relay alone clears Lambda, so only the upper region is feasible
    "zero_power": (["--P", "0", "--P1", "1.5", "--Lambda", "1", "--sigma2", "0.5"],
                   _bounds_json((0.0, 0.0, 0.0, 0.0), [(0.0, 0.0)] * 3, False, True)),
}


@pytest.mark.parametrize("name", sorted(BOUNDS_PINS))
def test_bounds_stdout_is_pinned(capsys, name):
    argv, expected = BOUNDS_PINS[name]
    assert main(["bounds"] + argv) == 0
    assert capsys.readouterr().out == expected


def _seeded_dmc(seed, shape, relay_rate=None):
    """Dirichlet kernel rows from default_rng(seed), then C1 from the same
    generator's next uniform(0, 1.5) unless relay_rate is given."""
    rng = np.random.default_rng(seed)
    X, S, Y, Y1 = shape
    W = rng.dirichlet(np.ones(Y * Y1), size=(X, S)).reshape(shape)
    return Dmc(W, float(rng.uniform(0, 1.5)) if relay_rate is None else relay_rate)


def _classify_json(verdict, clause, df_lower, cs_upper, relay_sym, degradedness):
    return json.dumps({"verdict": verdict, "clause": clause, "df_lower": df_lower,
                       "cs_upper": cs_upper, "exact_value": None,
                       "relay_marginal_symmetrizable": relay_sym,
                       "joint_output_symmetrizable": False, "degradedness": degradedness,
                       "aux_size": 3}, indent=2) + "\n"


PRIMITIVE_PINS = {
    "classify_seeded": (_seeded_dmc(22, (2, 2, 2, 2), 0.5), ["--bound", "classify"],
                        _classify_json("equals_random_capacity", 1, 0.00202712864,
                                       0.135818684, False, "neither")),
    "classify_pipe": (binary_pipe_dmc(), ["--bound", "classify"],
                      _classify_json("undetermined", None, 0.5, 1.0, True,
                                     "reversely_degraded_only")),
    "df_aux_4": (_seeded_dmc(103, (3, 2, 2, 2)), ["--bound", "df", "--aux-size", "4"],
                 json.dumps({"df_bound": 0.0233608592, "mode": "aux", "aux_size": 4},
                            indent=2) + "\n"),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_PINS))
def test_primitive_stdout_is_pinned(tmp_path, capsys, name):
    dmc, argv, expected = PRIMITIVE_PINS[name]
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(dmc_to_json(dmc)))
    assert main(["primitive", "--channel", str(path)] + argv) == 0
    assert capsys.readouterr().out == expected
