"""Golden `simulate` CSVs: the exact bytes of seeded runs, pinned so that a
refactor of the Monte Carlo path (codec, jammer, simulator) cannot change its
output unnoticed.  Between them the pins reach every strategy kind, both relay
modes and the plain and permuted codes."""

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
