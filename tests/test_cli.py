"""Command-line interface and experiment file outputs."""

import csv
import json
import math

import numpy as np
import pytest

from l0control import cli, experiments, solver


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_solve_writes_outputs_and_summary(tmp_path, capsys):
    rc = cli.main(["solve", "--mesh-n", "8", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert out.startswith("F=") and "pde=" in out and "term=tolerance" in out

    header, rows = read_csv(tmp_path / "report.csv")
    assert header == ["k", "L", "trials", "f", "g", "F", "support", "step_norm", "chi_dist", "pde_solves"]
    Fs = [float(r[5]) for r in rows]
    assert all(b <= a + 1e-14 for a, b in zip(Fs, Fs[1:]))

    header, control_rows = read_csv(tmp_path / "final_control.csv")
    assert header == ["triangle_index", "centroid_x", "centroid_y", "value"]
    assert len(control_rows) == 2 * 8 * 8

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["termination"] == "tolerance"
    assert summary["pde_solves"] == int(rows[-1][9])
    assert summary["F"] == pytest.approx(Fs[-1], rel=1e-12)


def test_solve_zero_target(tmp_path, capsys):
    rc = cli.main(["solve", "--mesh-n", "6", "--ydzero", "--out", str(tmp_path)])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("F=0 ")
    assert "iters=1" in line


def test_solve_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--mesh-n", "8", "--out", str(a)]) == 0
    assert cli.main(["solve", "--mesh-n", "8", "--out", str(b)]) == 0
    for name in ("report.csv", "final_control.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_bound_flag_accepts_inf(tmp_path):
    assert cli.main(["solve", "--mesh-n", "6", "--beta", "0.5", "--bound", "inf",
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["support"] == 0.0  # large penalty with no bound: zero control


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmesh-n = 6\nydzero = true\nbeta = 0.02\n")
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("F=0")
    # flag overrides the file value
    rc = cli.main(["solve", "--config", str(cfg), "--mesh-n", "4", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "final_control.csv")
    assert len(rows) == 2 * 4 * 4


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesh_m = 6\n")
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_invalid_values_exit_2(tmp_path):
    assert cli.main(["solve", "--beta", "-1", "--out", str(tmp_path)]) == 2
    assert cli.main(["solve", "--theta", "1.5", "--out", str(tmp_path)]) == 2
    assert cli.main(["solve", "--mesh-n", "0", "--out", str(tmp_path)]) == 2
    assert cli.main(["switching", "--mesh-n", "10", "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("mesh_n six\n")
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    assert cli.main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2


def assert_rejected(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_infinite_lfixed_exits_2(tmp_path, capsys):
    assert_rejected(["solve", "--mesh-n", "4", "--strategy", "fixed", "--lfixed", "inf",
                     "--out", str(tmp_path)], capsys)


def test_infinite_lhat0_exits_2(tmp_path, capsys):
    assert_rejected(["solve", "--mesh-n", "4", "--lhat0", "inf", "--out", str(tmp_path)], capsys)


def test_infinite_eta_exits_2(tmp_path, capsys):
    assert_rejected(["solve", "--mesh-n", "4", "--eta", "inf", "--out", str(tmp_path)], capsys)


def test_infinite_tol_exits_2(tmp_path, capsys):
    assert_rejected(["solve", "--mesh-n", "4", "--tol", "inf", "--out", str(tmp_path)], capsys)
    assert not (tmp_path / "summary.json").exists()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--frobnicate"])
    assert exc.value.code == 2


def test_solver_failure_exits_3(tmp_path, monkeypatch):
    def boom(config):
        raise solver.StepSearchError("no acceptable weight")

    monkeypatch.setattr(experiments, "run_solve", boom)
    assert cli.main(["solve", "--out", str(tmp_path)]) == 3


def test_beta_sweep_table_mode(tmp_path):
    rc = cli.main(["beta-sweep", "--mesh-n", "8", "--betas", "0.5", "0.05", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "beta_sweep.csv")
    assert header == ["beta", "support"]
    assert [float(r[0]) for r in rows] == [0.5, 0.05]
    assert float(rows[0][1]) == 0.0  # large beta kills the control entirely


def test_beta_sweep_pareto_mode(tmp_path):
    rc = cli.main(["beta-sweep", "--pareto", "--mesh-n", "8",
                   "--betas", "0.5", "0.1", "0.02", "--out", str(tmp_path)])
    assert rc == 0
    for kind in ("l0", "l1"):
        header, rows = read_csv(tmp_path / f"pareto_{kind}.csv")
        assert header == ["beta", "f", "support"]
        assert len(rows) == 3


def test_mesh_study_files(tmp_path):
    rc = cli.main(["mesh-study", "--n-list", "4", "8", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "mesh_study.csv")
    assert header == ["h", "F", "support", "pde_solves", "F_vertex"]
    assert float(rows[0][0]) == pytest.approx(math.sqrt(2) / 4)
    assert cli.main(["mesh-study", "--n-list", "3", "--out", str(tmp_path)]) == 2


def test_table1_files(tmp_path):
    rc = cli.main(["table1", "--mesh-n", "6", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "table1.csv")
    assert header == ["F", "support", "pde_solves", "L_hat0", "strategy", "F_vertex"]
    assert len(rows) == 10
    assert [r[4] for r in rows] == ["bt"] * 8 + ["btw", "bt0"]
    assert [float(r[3]) for r in rows[:8]] == [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]


def test_unsolvable_files(tmp_path, capsys):
    rc = cli.main(["unsolvable", "--mesh-n", "8", "--alpha", "0.01", "--beta", "0.01",
                   "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "unsolvable_fp.csv")
    assert header == ["L", "fp_residual"]
    assert [float(r[0]) for r in rows] == [0.01, 0.1, 1.0, 10.0]
    assert all(float(r[1]) > 1e-3 for r in rows)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["distance_to_smooth_minimizer"] <= 1e-3
    out = capsys.readouterr().out
    assert "distance to smooth minimizer" in out


def test_switching_files(tmp_path):
    rc = cli.main(["switching", "--mesh-n", "8", "--betas", "0.1", "0.001", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "switching.csv")
    assert header == ["beta", "F", "overlap"]
    assert len(rows) == 2
    header, rows = read_csv(tmp_path / "switching_controls_beta0.1.csv")
    assert header == ["x1", "u1", "u2"]
    assert len(rows) == 8
    assert float(rows[0][0]) == pytest.approx(0.5 / 8)


def test_selftest_passes(tmp_path, capsys):
    rc = cli.main(["selftest", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 6


def test_selftest_failure_exits_4(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "run_selftest", lambda config: False)
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 4
