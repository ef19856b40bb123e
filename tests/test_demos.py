import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_gaussian_bounds_tour_writes_its_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "gaussian_bounds_tour.py"), run_name="__main__")
    lines = (tmp_path / "gaussian_bounds_tour.csv").read_text().strip().splitlines()
    assert lines[0] == "P,random_capacity,det_lower,det_upper,direct_transmission"
    assert len(lines) == 11                      # header + the tour's 10 powers
    assert "capacity" in capsys.readouterr().out


def test_jamming_showdown_permutation_defeats_the_impostor(capsys):
    runpy.run_path(str(DEMOS / "jamming_showdown.py"), run_name="__main__")
    out = capsys.readouterr().out
    row = next(line.split() for line in out.splitlines() if line.split()[:1] == ["impostor"])
    assert row[1:] == ["0.595", "0.000"]     # plain code, permuted code


def test_discrete_channel_tour_prints_its_bounds_and_verdict(capsys):
    runpy.run_path(str(DEMOS / "discrete_channel_tour.py"), run_name="__main__")
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert "decode-forward (direct mode): 0.5000" in lines
    assert "decode-forward (general):     0.5000" in lines
    assert "cutset:                       1.0000" in lines
    assert "verdict: undetermined (clause None), bounds [0.5000, 1.0000]" in lines
