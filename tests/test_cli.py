import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from avrc import cli, sim
from avrc.cli import main
from avrc.discrete import Dmc, binary_pipe_dmc, dmc_to_json


@pytest.fixture
def channel_file(tmp_path):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(dmc_to_json(binary_pipe_dmc())))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example1_table(capsys):
    code, out, _ = run_cli(capsys, "example1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5                       # header + 4 trials
    assert all(line.rstrip().endswith("0") for line in lines[1:])


def test_bounds_zero_power(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--P", "0", "--P1", "1",
                           "--Lambda", "1", "--sigma2", "0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["random_capacity"] == 0.0
    assert rep["det_lower"] == 0.0 and rep["det_upper"] == 0.0


def test_zero_power_runs_print_nothing_on_stderr(capsys, tmp_path):
    # P = 0 divides by P in the lower region, and a subnormal P overflows P1/P;
    # none of that may leak as a warning
    out_path = tmp_path / "fig.csv"
    code, _, err = run_cli(capsys, "figure", "--Lambda", "1", "--sigma2", "0.5", "--pmin", "0",
                           "--pmax", "1", "--step", "0.25", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert out_path.read_text().splitlines()[1] == "0,0,0,0,0"
    inputs = [(p, p1) for p in ("0", "5e-324", "1e-310") for p1 in ("0", "1e-310", "1.5", "10")]
    for p, p1 in inputs + [("1", "5e-324"), ("1", "1e-310")]:
        code, _, err = run_cli(capsys, "bounds", "--P", p, "--P1", p1,
                               "--Lambda", "1", "--sigma2", "0.5")
        assert (code, err) == (0, "")


def test_bounds_scores_an_upper_region_that_only_alpha_one_reaches(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--P", "1", "--P1", "0", "--Lambda", "1",
                           "--sigma2", "0.5")
    rep = json.loads(out)
    assert code == 0 and rep["upper_feasible"] is True
    assert rep["det_upper"] == 0.5 and rep["upper_split"] == {"alpha": 1.0, "rho": 0.0}


def test_figure_csv_low_power_zeros(capsys, tmp_path):
    out_path = tmp_path / "fig.csv"
    code, _, _ = run_cli(capsys, "figure", "--Lambda", "1", "--sigma2", "0.5",
                         "--pmin", "0.05", "--pmax", "0.2", "--step", "0.05",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "P,random_capacity,det_lower,det_upper,direct_transmission"
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[3] == "0"                  # det_upper column
        assert all(len(f.split(".")[-1]) <= 10 for f in fields)


def test_symcheck_targets(capsys, channel_file):
    code, out, _ = run_cli(capsys, "symcheck", "--channel", channel_file,
                           "--target", "relay")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["symmetrizable"] is True
    assert verdict["max_residual"] <= 1e-9

    code, out, _ = run_cli(capsys, "symcheck", "--channel", channel_file,
                           "--target", "joint")
    assert code == 0
    assert json.loads(out)["symmetrizable"] is False


@pytest.mark.parametrize("target, tol", [("receiver", "-1"), ("joint", "inf"),
                                         ("relay", "nan")])
def test_symcheck_refuses_a_tol_that_is_not_a_finite_number_at_least_0(capsys, channel_file,
                                                                       target, tol):
    code, out, err = run_cli(capsys, "symcheck", "--channel", channel_file,
                             "--target", target, f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err == f"error: tol must be a finite number >= 0, got {float(tol)!r}\n"
    # a tol of 0 is a verdict like any other
    code, out, _ = run_cli(capsys, "symcheck", "--channel", channel_file,
                           "--target", target, "--tol=0")
    assert code == 0 and json.loads(out)["symmetrizable"] is (target != "joint")


def test_primitive_classify(capsys, channel_file):
    code, out, _ = run_cli(capsys, "primitive", "--channel", channel_file,
                           "--bound", "classify")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "undetermined"
    assert verdict["aux_size"] == 3


def test_primitive_df_reports_aux(capsys, channel_file):
    code, out, _ = run_cli(capsys, "primitive", "--channel", channel_file,
                           "--bound", "df", "--df-mode", "direct")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["df_bound"] - 0.5) < 1e-3
    assert rep["aux_size"] is None


def test_primitive_df_aux_size_below_input_size(capsys, channel_file):
    code, out, _ = run_cli(capsys, "primitive", "--channel", channel_file,
                           "--bound", "df", "--aux-size", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["aux_size"] == 1
    code, out, _ = run_cli(capsys, "primitive", "--channel", channel_file,
                           "--bound", "df", "--df-mode", "direct")
    assert code == 0
    assert rep["df_bound"] >= json.loads(out)["df_bound"] - 1e-9


def test_primitive_rejects_nan_relay_rate(capsys, tmp_path):
    obj = dmc_to_json(binary_pipe_dmc())
    obj["C1"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))             # json writes the literal NaN
    code, out, err = run_cli(capsys, "primitive", "--channel", str(path),
                             "--bound", "classify")
    assert code == 2
    assert out == ""
    assert "C1" in err


def test_simulate_csv_and_worker_independence(capsys, tmp_path):
    cfg = {
        "codebook": {"n": 48, "blocks": 3, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "iid_gaussian", "Lambda": 1.0, "variance": 1.0, "seed": 4},
        "trials": 60,
        "master_seed": 9,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out8 = tmp_path / "r1.csv", tmp_path / "r8.csv"
    assert run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(out1),
                   "--workers", "1")[0] == 0
    assert run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(out8),
                   "--workers", "8")[0] == 0
    assert out1.read_bytes() == out8.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "Lambda,strategy,trials,errors,rate,ci_low,ci_high,clip_rate"


def test_primitive_cutset(capsys, channel_file):
    code, out, _ = run_cli(capsys, "primitive", "--channel", channel_file,
                           "--bound", "cutset")
    assert code == 0
    assert abs(json.loads(out)["cutset_bound"] - 1.0) < 1e-3


def test_simulate_sweep_branch(capsys, tmp_path):
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 20,
        "master_seed": 9,
        "sweep": {"lambdas": [0.5, 1.0],
                  "strategies": [{"kind": "zero", "Lambda": 1.0},
                                 {"kind": "iid_gaussian", "Lambda": 1.0,
                                  "variance": 1.0, "seed": 4}]},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 5                       # header + 2 lambdas x 2 strategies
    assert len(json.loads(out)) == 4             # JSON mirror on stdout


@pytest.mark.parametrize("where", ["base", "sweep"])
def test_simulate_rejects_symmetrizing_strategy(capsys, tmp_path, where):
    symmetrizing = {"kind": "symmetrizing", "Lambda": 1.0, "witness": [[1.0, 0.0], [0.0, 1.0]]}
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": symmetrizing if where == "base" else {"kind": "zero", "Lambda": 1.0},
        "trials": 20,
    }
    if where == "sweep":
        cfg["sweep"] = {"lambdas": [1.0],
                        "strategies": [{"kind": "zero", "Lambda": 1.0}, symmetrizing]}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert code == 2
    assert "'symmetrizing'" in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("where, field", [("base", "Lambda"), ("base", "variance"),
                                          ("sweep", "Lambda")])
def test_simulate_rejects_non_finite_jammer_inputs(capsys, tmp_path, where, field):
    strategy = {"kind": "iid_gaussian", "Lambda": 1.0, "variance": 1.0, "seed": 4}
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": strategy,
        "trials": 20,
    }
    if where == "sweep":
        cfg["sweep"] = {"lambdas": [1.0, float("nan")]}
    else:
        strategy[field] = float("nan")
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))      # written as NaN, which json.loads reads back
    out_path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert code == 2
    assert f"{field} must be finite" in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_a_worker_count_below_one(capsys, tmp_path, workers):
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 20,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path), "--workers", workers)
    assert code == 2
    assert f"workers must be >= 1, got {workers}" in err
    assert out == "" and not out_path.exists()


def test_simulate_refuses_trials_over_the_cap_before_building_a_codebook(capsys, tmp_path,
                                                                         monkeypatch):
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 10**15,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"

    def no_codebook(config):
        raise AssertionError("a codebook was built")

    monkeypatch.setattr(sim, "build_codebook", no_codebook)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert time.perf_counter() - t0 < 0.5
    assert (code, out) == (2, "") and not out_path.exists()
    assert err == "error: trials 1000000000000000 is above the cap of 10000000\n"


def test_simulate_refuses_a_sweep_over_the_trials_cap_before_building_a_codebook(
        capsys, tmp_path, monkeypatch):
    # each row is within the cap; 3 * 10**5 rows of 10**7 trials are not
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 10**7,
        "sweep": {"lambdas": [1.0 + i / 10**5 for i in range(10**5)],
                  "strategies": [{"kind": "zero", "Lambda": 1.0},
                                 {"kind": "iid_gaussian", "Lambda": 1.0, "variance": 1.0},
                                 {"kind": "impostor", "Lambda": 1.0}]},
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"

    def no_codebook(config):
        raise AssertionError("a codebook was built")

    monkeypatch.setattr(sim, "build_codebook", no_codebook)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert time.perf_counter() - t0 < 0.5
    assert (code, out) == (2, "") and not out_path.exists()
    assert err == ("error: sweep of 300000 rows x 10000000 trials is above the cap "
                   "of 10000000 row-trials\n")


def test_figure_rejects_empty_range(capsys, tmp_path):
    code, _, err = run_cli(capsys, "figure", "--Lambda", "1", "--sigma2", "0.5",
                           "--pmin", "2", "--pmax", "1", "--step", "0.5",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "error" in err


def test_figure_refuses_a_sweep_over_the_point_cap_at_once(capsys, tmp_path):
    # 10^18 points: the list of P values must not be built
    out_path = tmp_path / "fig.csv"
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "figure", "--Lambda", "1", "--sigma2", "0.5", "--pmin", "0",
                             "--pmax", "1e9", "--step", "1e-9", "--out", str(out_path))
    elapsed = time.perf_counter() - t0
    assert (code, out) == (2, "") and not out_path.exists()
    assert err == ("error: pmin 0.0 to pmax 1000000000.0 at step 1e-09 asks for "
                   "1000000000000000000 points, above the cap of 1000000\n")
    assert elapsed < 0.5


def test_cached_parser_carries_no_state_between_calls(capsys):
    calls = [["--help"],
             ["figure"],
             ["bounds", "--P", "0", "--P1", "1", "--Lambda", "1", "--sigma2", "0.5"],
             ["--help"]]
    first = []
    for argv in calls:
        cli._build_parser.cache_clear()      # each call as the first of a process
        first.append(run_cli(capsys, *argv))
    cli._build_parser.cache_clear()
    in_turn = [run_cli(capsys, *argv) for argv in calls]
    assert [r[0] for r in in_turn] == [0, 1, 0, 0]
    assert in_turn == first
    parser = cli._build_parser()
    assert parser is cli._build_parser()
    assert vars(parser.parse_args(["example1"])) == {"command": "example1"}


def test_symcheck_and_classify_run_in_a_fresh_process_without_scipy(capsys, channel_file):
    # sys.modules["scipy"] = None makes any import of scipy raise ImportError
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import avrc.cli\n"
        "sys.exit(avrc.cli.main(sys.argv[1:]))\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    for argv in (["symcheck", "--channel", channel_file, "--target", "relay"],
                 ["primitive", "--channel", channel_file, "--bound", "classify"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and proc.stdout == out


def test_a_fresh_process_loads_numpy_random_only_to_simulate(capsys, tmp_path):
    # the trial generators' seed type is defined on first use, so importing the
    # CLI leaves numpy.random out
    cfg = {
        "codebook": {"n": 48, "blocks": 3, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "impostor", "Lambda": 1.0, "seed": 7},
        "trials": 30,
        "master_seed": 4,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    script = (
        "import sys\n"
        "import avrc, avrc.cli\n"
        "print('numpy.random' in sys.modules)\n"
        "code = avrc.cli.main(sys.argv[1:])\n"
        "print('numpy.random' in sys.modules, code)\n")
    argv = ["simulate", "--config", str(cfg_path), "--out"]
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script, *argv, str(tmp_path / "fresh.csv")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"               # importing the package leaves numpy.random out
    assert lines[-1] == "True 0"             # seeding the trials loaded it
    code, out, _ = run_cli(capsys, *argv, str(tmp_path / "here.csv"))
    assert code == 0
    assert "\n".join(lines[1:-1]) + "\n" == out
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "nonsense")[0] == 1
    code, _, err = run_cli(capsys, "bounds", "--P", "1")
    assert code == 1 and "usage" in err


# the alpha search these flags set is gone: the maxima are solved in closed form
@pytest.mark.parametrize("step", ["2", "0"])
def test_bounds_rejects_step_outside_unit_interval(capsys, step):
    code, out, err = run_cli(capsys, "bounds", "--P", "2", "--P1", "2", "--Lambda", "1",
                             "--sigma2", "0.5", "--step", step)
    assert code == 1 and out == ""
    assert f"unrecognized arguments: --step {step}" in err


def test_figure_rejects_bad_grid_step(capsys, tmp_path):
    code, _, err = run_cli(capsys, "figure", "--Lambda", "1", "--sigma2", "0.5",
                           "--pmin", "1", "--pmax", "1", "--step", "1",
                           "--out", str(tmp_path / "fig.csv"), "--grid-step", "0")
    assert code == 1 and "unrecognized arguments: --grid-step 0" in err
    assert not (tmp_path / "fig.csv").exists()


def test_computation_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "symcheck", "--channel", "/no/such/file.json",
                           "--target", "relay")
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"X": 2, "S": 2, "Y": 2, "Y1": 2, "C1": 1.0,
                               "W": np.zeros((2, 2, 2, 2)).tolist()}))
    code, _, err = run_cli(capsys, "symcheck", "--channel", str(bad),
                           "--target", "relay")
    assert code == 2 and "x=0, s=0" in err


@pytest.mark.parametrize("debug", [None, "0", "1"])
def test_avrc_debug_raises_what_exit_code_2_would_hide(capsys, monkeypatch, debug):
    if debug is None:
        monkeypatch.delenv("AVRC_DEBUG", raising=False)
    else:
        monkeypatch.setenv("AVRC_DEBUG", debug)
    argv = ("symcheck", "--channel", "/no/such/file.json", "--target", "relay")
    if debug == "1":
        with pytest.raises(FileNotFoundError, match="/no/such/file.json"):
            main(list(argv))
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "")
    else:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "/no/such/file.json" in err
    assert run_cli(capsys, "nonsense")[0] == 1   # usage errors keep exit code 1


def test_primitive_df_refuses_an_aux_search_over_budget(capsys, tmp_path):
    # X = 30: the default aux mode would search a 930-point simplex
    W = np.random.default_rng(30).dirichlet(np.ones(4), size=(30, 2)).reshape(30, 2, 2, 2)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dmc_to_json(Dmc(W, relay_rate=0.5))))
    code, out, err = run_cli(capsys, "primitive", "--channel", str(path), "--bound", "df")
    assert code == 2 and out == ""
    assert "930-point simplex" in err and "budget 200000" in err


@pytest.mark.parametrize("flag", ["pmin", "pmax", "step"])
def test_figure_names_a_non_finite_sweep_input(capsys, tmp_path, flag):
    values = {"pmin": "1", "pmax": "2", "step": "0.5"}
    values[flag] = "nan"
    out_path = tmp_path / "fig.csv"
    code, out, err = run_cli(capsys, "figure", "--Lambda", "1", "--sigma2", "0.5",
                             *(a for k, v in values.items() for a in (f"--{k}", v)),
                             "--out", str(out_path))
    assert code == 2 and out == ""
    assert f"{flag} must be finite, got nan" in err
    assert not out_path.exists()


@pytest.mark.parametrize("case, field", [("nan_rate", "rate_relayed"),
                                         ("huge_rate", "rate_relayed"),
                                         ("no_codebook", "'codebook'")])
def test_simulate_names_a_bad_codebook_field(capsys, tmp_path, case, field):
    cfg = {
        "codebook": {"n": 128, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 20,
    }
    if case == "nan_rate":
        cfg["codebook"]["rate_relayed"] = float("nan")
    elif case == "huge_rate":
        cfg["codebook"]["rate_relayed"] = 20.0    # 2^2560 codewords
    else:
        del cfg["codebook"]
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert code == 2 and out == ""
    assert field in err
    assert not out_path.exists()


@pytest.mark.parametrize("path, value", [
    (("codebook", "n"), 48.9), (("codebook", "blocks"), 2.5), (("codebook", "seed"), 2.9),
    (("trials",), 20.9), (("master_seed",), 3.7), (("strategy", "seed"), 1.5),
    (("sweep", "strategies", 0, "seed"), 0.5), (("codebook", "n"), "48"),
])
def test_simulate_rejects_a_fractional_integer_field(capsys, tmp_path, path, value):
    # each was truncated (48.9 read as n = 48) before; now exit 2 naming the field
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0, "seed": 0},
        "trials": 20,
        "master_seed": 2,
        "sweep": {"lambdas": [1.0], "strategies": [{"kind": "zero", "Lambda": 1.0, "seed": 0}]},
    }
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path, out_path = tmp_path / "sim.json", tmp_path / "rows.csv"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert code == 2 and out == ""
    assert f"{path[-1]} must be an integer, got {value!r}" in err
    assert not out_path.exists()


def test_simulate_reads_an_integral_float_as_its_int(capsys, tmp_path):
    cfg = {
        "codebook": {"n": 48.0, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 20.0,
    }
    cfg_path, out_path = tmp_path / "sim.json", tmp_path / "rows.csv"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out", str(out_path))
    assert code == 0 and json.loads(out)["trials"] == 20


@pytest.mark.parametrize("dim", ["X", "S", "Y", "Y1"])
def test_primitive_rejects_a_fractional_channel_dimension(capsys, tmp_path, dim):
    obj = dmc_to_json(binary_pipe_dmc())
    obj[dim] += 0.5
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "primitive", "--channel", str(path),
                             "--bound", "classify")
    assert code == 2 and out == ""
    assert f"{dim} must be an integer, got {obj[dim]!r}" in err


@pytest.mark.parametrize("path, value, message", [
    (("permute",), "false", "permute must be true or false, got 'false'"),
    (("permute",), 1, "permute must be true or false, got 1"),
    (("sweep", "lambdas"), "1", "lambdas must be a non-empty list of numbers, got '1'"),
    (("sweep", "lambdas"), "0.5", "lambdas must be a non-empty list of numbers, got '0.5'"),
    (("sweep", "lambdas"), [], "lambdas must be a non-empty list of numbers, got []"),
    (("sweep", "lambdas"), [1.0, "2"], "lambdas must be a non-empty list of numbers"),
    (("sweep", "lambdas"), [True], "lambdas must be a non-empty list of numbers"),
])
def test_simulate_rejects_malformed_permute_and_lambdas(capsys, tmp_path, path, value, message):
    # "permute": "false" used to turn the permutation on, and "lambdas": "1" read as [1.0]
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 20,
        "permute": False,
        "sweep": {"lambdas": [1.0]},
    }
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path, out_path = tmp_path / "sim.json", tmp_path / "rows.csv"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert code == 2 and out == ""
    assert message in err
    assert not out_path.exists()


@pytest.mark.parametrize("path, value, message", [
    (("strategy", "Lambda"), "1", "Lambda must be a number, got '1'"),
    (("strategy", "Lambda"), True, "Lambda must be a number, got True"),
    (("codebook", "P"), "0.4", "P must be a number, got '0.4'"),
    (("codebook", "P"), None, "P must be a number, got None"),
    (("codebook", "delta"), "0.01", "delta must be a number, got '0.01'"),
    (("strategy", "variance"), "1", "variance must be a number, got '1'"),
    (("sweep", "strategies", 0, "vector"), "abc",
     "vector must be a non-empty list of numbers, got 'abc'"),
    (("codebook", "seed"), -1, "seed must be >= 0, got -1"),
    (("strategy", "seed"), -1, "seed must be >= 0, got -1"),
    (("master_seed",), -1, "master_seed must be >= 0, got -1"),
])
def test_simulate_rejects_a_non_numeric_number_field(capsys, tmp_path, path, value, message):
    # the strings and true were converted and run; null, "abc" and the seed -1
    # failed without naming the field
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "delta": 0.04, "seed": 3},
        "strategy": {"kind": "iid_gaussian", "Lambda": 1.0, "variance": 1.0, "seed": 0},
        "trials": 20,
        "master_seed": 2,
        "sweep": {"lambdas": [1.0], "strategies": [
            {"kind": "fixed", "Lambda": 1.0, "vector": [0.5] * 96}]},
    }
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path, out_path = tmp_path / "sim.json", tmp_path / "rows.csv"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert code == 2 and out == ""
    assert message in err
    assert not out_path.exists()


@pytest.mark.parametrize("value", ["1", True, None])
def test_primitive_rejects_a_non_numeric_relay_rate(capsys, tmp_path, value):
    obj = dmc_to_json(binary_pipe_dmc())
    obj["C1"] = value
    path = tmp_path / "c1.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "primitive", "--channel", str(path),
                             "--bound", "classify")
    assert code == 2 and out == ""
    assert f"C1 must be a number, got {value!r}" in err


def test_simulate_sweep_stops_at_a_fixed_vector_over_one_budget(capsys, tmp_path):
    # within budget at Lambda = 4 (power 2 per symbol) but over it at 0.5: the
    # sweep stops with one error line, and writes neither stdout nor the CSV
    n = 2 * 48
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 20,
        "sweep": {"lambdas": [4.0, 0.5],
                  "strategies": [{"kind": "zero", "Lambda": 1.0},
                                 {"kind": "fixed", "Lambda": 1.0,
                                  "vector": [np.sqrt(2.0)] * n}]},
    }
    cfg_path, out_path = tmp_path / "sim.json", tmp_path / "rows.csv"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path), "--workers", "1")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: fixed vector violates the power constraint"]
    assert not out_path.exists()


@pytest.mark.parametrize("path, value, message", [
    (("strategy",), "zero", "strategy must be an object, got 'zero'"),
    (("codebook",), 5, "codebook must be an object, got 5"),
    (("sweep",), [1.0], "sweep must be an object, got [1.0]"),
    (("sweep", "strategies"), {"kind": "zero", "Lambda": 1.0},
     "strategies must be a non-empty list of objects, got {'kind': 'zero', 'Lambda': 1.0}"),
    (("sweep", "strategies"), [], "strategies must be a non-empty list of objects, got []"),
    (("sweep", "strategies"), ["zero"],
     "strategies must be a non-empty list of objects, got ['zero']"),
])
def test_simulate_names_a_section_of_the_wrong_json_type(capsys, tmp_path, path, value, message):
    # read unchecked, each fails later on what it holds, with an error that names no key
    cfg = {
        "codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 20,
        "sweep": {"lambdas": [1.0]},
    }
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path, out_path = tmp_path / "sim.json", tmp_path / "rows.csv"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv, what", [
    (["simulate", "--config", "{path}", "--out", "{out}"], "simulation config"),
    (["primitive", "--channel", "{path}", "--bound", "classify"], "channel"),
    (["symcheck", "--channel", "{path}", "--target", "joint"], "channel"),
])
@pytest.mark.parametrize("value, shown", [
    ([1], "[1]"), ("zero", "'zero'"), (5, "5"), (None, "None"),
    ([0.0] * 10**5, "[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ...]"),
])
def test_a_file_that_is_not_a_json_object_is_named(capsys, tmp_path, argv, what, value, shown):
    # the top-level value is checked first, so the error names it rather than a failed
    # lookup, and a large value is shortened rather than echoed whole
    path, out_path = tmp_path / "in.json", tmp_path / "rows.csv"
    path.write_text(json.dumps(value))
    code, out, err = run_cli(capsys, *(arg.format(path=path, out=out_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {what} must be a JSON object, got {shown}\n"
    assert not out_path.exists()


_LONG = "~" * 200_000


@pytest.mark.parametrize("command, path, value", [
    ("primitive", ("W",), _LONG),
    ("primitive", ("W",), [[[_LONG]]]),
    ("primitive", ("X",), [0] * 10**5),
    ("symcheck", ("W",), _LONG),
    ("symcheck", ("C1",), _LONG),
    ("symcheck", ("Y1",), [0.5] * 10**5),
    ("simulate", ("codebook", "P"), _LONG),
    ("simulate", ("trials",), [1] * 10**5),
    ("simulate", ("permute",), _LONG),
    ("simulate", ("strategy", "kind"), _LONG),
    ("simulate", ("strategy", "vector"), _LONG),
    ("simulate", ("sweep", "strategies"), [_LONG]),
], ids=["primitive-W-string", "primitive-W-entry", "primitive-X", "symcheck-W", "symcheck-C1",
        "symcheck-Y1", "simulate-P", "simulate-trials", "simulate-permute",
        "simulate-kind", "simulate-vector", "simulate-strategies"])
def test_a_long_refused_value_is_echoed_short(capsys, tmp_path, command, path, value):
    # each wrote the whole value to stderr before, 200 KB or more
    if command == "simulate":
        doc = {"codebook": {"n": 48, "blocks": 2, "rate_relayed": 0.05, "rate_direct": 0.05,
                            "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                            "alpha": 0.6, "rho": 0.0, "seed": 3},
               "strategy": {"kind": "zero", "Lambda": 1.0}, "trials": 20,
               "sweep": {"lambdas": [1.0]}}
        argv = ["simulate", "--config", "{file}", "--out", "{out}"]
    else:
        doc = dmc_to_json(binary_pipe_dmc())
        argv = {"primitive": ["primitive", "--channel", "{file}", "--bound", "classify"],
                "symcheck": ["symcheck", "--channel", "{file}", "--target", "joint"]}[command]
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    file, out_path = tmp_path / "in.json", tmp_path / "rows.csv"
    file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(arg.format(file=file, out=out_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.encode()) < 1024
    assert path[-1] in err
    assert not out_path.exists()


def test_simulate_refuses_a_trial_over_the_symbol_cap_before_running_it(capsys, tmp_path,
                                                                       monkeypatch):
    # 10^8 blocks of one symbol would hold about 20 GB in one trial's arrays
    cfg = {
        "codebook": {"n": 1, "blocks": 10**8, "rate_relayed": 1.5, "rate_direct": 1.5,
                     "P": 4.0, "P1": 4.0, "Lambda": 1.0, "sigma2": 0.25,
                     "alpha": 0.6, "rho": 0.0, "seed": 3},
        "strategy": {"kind": "zero", "Lambda": 1.0},
        "trials": 1,
    }
    cfg_path, out_path = tmp_path / "sim.json", tmp_path / "rows.csv"
    cfg_path.write_text(json.dumps(cfg))

    def no_chunk(*args):
        raise AssertionError("a chunk of trials ran")

    monkeypatch.setattr(sim, "_run_chunk", no_chunk)
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(out_path))
    assert (code, out) == (2, "") and not out_path.exists()
    assert err == ("error: n=1 x blocks=100000000 symbols per trial is above the cap "
                   "of 1048576\n")


def test_the_console_script_entry_point_runs_example1(tmp_path):
    # the module:function that [project.scripts] names, called as an installed
    # console script calls it: with no arguments, reading sys.argv
    tomllib = pytest.importorskip("tomllib")
    root = Path(cli.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["avrc"]
    module, function = target.split(":")
    script = f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n"
    proc = subprocess.run([sys.executable, "-c", script, "example1"], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == "message state y y1 decoded error"
    assert len(proc.stdout.splitlines()) == 5
