"""Golden CLI bytes, pinned so that a refactor cannot change an output unnoticed.

The `simulate` CSVs are the exact bytes of seeded runs of the Monte Carlo path
(codec, jammer, simulator); between them they reach every strategy kind, both
relay modes and the plain and permuted codes.  The Gaussian pins are the
criterion-01 `figure` CSV and the `bounds` JSON of criterion 02's tuple and of
a tuple with P = 0, where only the upper region is feasible."""

import hashlib
import json

import pytest

from avrc.cli import main
from avrc.codec import build_codebook, codebook_config_from_json

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


@pytest.mark.parametrize(
    "config, expected",
    [PLAIN_IMPOSTOR, PERMUTED_SWEEP, IDEAL_SWEEP, PLAIN_FIXED, PERMUTED_FIXED],
    ids=["plain_impostor", "permuted_sweep", "ideal_sweep", "plain_fixed", "permuted_fixed"])
def test_simulate_csv_bytes_are_pinned(tmp_path, capsys, config, expected):
    cfg_path, out_path = tmp_path / "sim.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path),
                 "--workers", "1"]) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == expected.encode()


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
