"""Command-line interface and experiment file outputs."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import l0control
from l0control import cli, experiments, problem, reference, solver


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


def test_invalid_values_exit_2(tmp_path, capsys):
    assert cli.main(["solve", "--beta", "-1", "--out", str(tmp_path)]) == 2
    assert cli.main(["solve", "--theta", "1.5", "--out", str(tmp_path)]) == 2
    assert cli.main(["solve", "--mesh-n", "0", "--out", str(tmp_path)]) == 2
    assert cli.main(["switching", "--mesh-n", "10", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: the switching problem needs 4 | mesh_n, got 10"
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


def test_switching_solve_with_a_bound_exits_2(tmp_path, capsys):
    # solve's default bound is 4; the switching problem takes none
    assert cli.main(["solve", "--penalty", "switching", "--mesh-n", "16", "--out", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert err == "error: the switching problem takes no bound (bound = inf), got 4.0\n"
    assert not (tmp_path / "a" / "summary.json").exists()
    argv = ["solve", "--penalty", "switching", "--bound", "inf", "--mesh-n", "16", "--out", str(tmp_path / "b")]
    assert cli.main(argv) == 0
    header, rows = read_csv(tmp_path / "b" / "final_control.csv")
    assert header == ["x1", "u1", "u2"] and len(rows) == 16


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe x\n")
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(cfg) in err and err.count("\n") == 1


def test_unallocatable_mesh_exits_2(tmp_path, capsys):
    # the mesh's first array would take 8e18 bytes, beyond the virtual address
    # space of any 64-bit host (at most 2^57 bytes), so the request fails at
    # once and nothing is allocated
    assert cli.main(["solve", "--mesh-n", str(10**18), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory:") and "allocate" in err and err.count("\n") == 1


def test_negative_seed_exits_2(capsys):
    assert cli.main(["selftest", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


def test_unusable_out_exits_2_before_solving(tmp_path, monkeypatch, capsys):
    def must_not_run(config):
        raise AssertionError("solved before the output directory was checked")

    monkeypatch.setattr(experiments, "run_solve", must_not_run)
    regular_file = tmp_path / "taken"
    regular_file.write_text("")
    assert_rejected(["solve", "--mesh-n", "4", "--out", str(regular_file)], capsys)
    assert_rejected(["solve", "--mesh-n", "4", "--out", str(regular_file / "sub")], capsys)


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--gamma", "0.02"], ["--no-bound"], ["--full"]])
def test_removed_alias_flags_exit_2(flag):
    # spelled --beta (the l1 weight in l1 mode), --bound inf, --mesh-n 500
    with pytest.raises(SystemExit) as exc:
        cli.main(["beta-sweep", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("line", ["gamma = 0.02", "no_bound = true", "full = 1"])
def test_removed_alias_config_keys_exit_2(tmp_path, capsys, line):
    cfg = tmp_path / "alias.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_solver_failure_exits_3(tmp_path, monkeypatch):
    def boom(config):
        raise solver.StepSearchError("no acceptable weight")

    monkeypatch.setattr(experiments, "run_solve", boom)
    assert cli.main(["solve", "--out", str(tmp_path)]) == 3


def test_non_finite_objective_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(problem.ControlProblem, "eval_f", lambda self, u: math.nan)
    rc = cli.main(["solve", "--mesh-n", "4", "--strategy", "fixed", "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("solver failure: objective F=nan")


# a fixed weight of 0 on the Neumann operator overshoots: the objective
# rises in iterations 1, 2 and 4, and each rise is logged as a warning
FIXED_WEIGHT_WARNS = ["solve", "--mesh-n", "8", "--pde", "neumann", "--strategy", "fixed",
                      "--lfixed", "0", "--max-iter", "4"]


def run_cli_process(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(l0control.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "l0control", *args],
                          capture_output=True, text=True, env=env, check=True)


def test_closed_stdout_exits_quietly():
    # as in `selftest | head -1`: the reader takes one line and closes the pipe;
    # -u makes every line a write of its own, so later lines hit the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(l0control.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-u", "-m", "l0control", "selftest"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.stdout.readline().startswith("PASS")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert "Traceback" not in err
    assert proc.wait(timeout=120) == experiments.EXIT_BROKEN_PIPE
    assert err == ""


def test_monotonicity_warning_goes_through_the_stderr_handler(tmp_path):
    # basicConfig's "LEVEL:logger:message" format, not the bare message of
    # Python's last-resort handler
    result = run_cli_process(*FIXED_WEIGHT_WARNS, "--out", str(tmp_path))
    assert result.stderr.count("WARNING:l0control.solver:objective increased") == 3


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


def test_selftest_switch_reference_without_argmins_fails(monkeypatch, tmp_path, capsys):
    # a grid point 1e-6 below every candidate leaves no admitted argmin:
    # a failed check (exit 4), not a crash reported as a config error
    batch = reference.switch_batch

    def beaten(*args):
        _, cands, cvals = batch(*args)
        return cvals.min(axis=1) - 1e-6, cands, cvals

    monkeypatch.setattr(reference, "switch_batch", beaten)
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert "FAIL prox_switch vs brute force" in captured.out.splitlines()
    assert "error:" not in captured.err
