"""Command-line interface and experiment file outputs."""

import argparse
import csv
import dataclasses
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


# each number setting's message after its key, which opens it; "bound" accepts +inf,
# so its cases take -inf instead
RANGE_MESSAGES = {
    "alpha": "must be a finite nonnegative real",
    "beta": "must be a finite positive real",
    "bound": "must be positive (or +inf)",
    "lhat0": "must be a finite positive real",
    "theta": "must lie in (0, 1)",
    "eta": "must be a finite positive real",
    "lfixed": "must be a finite nonnegative real",
    "tol": "must be a finite positive real",
    "mesh_n": "must be a positive integer",
    "imax": "must be a positive integer",
    "max_iter": "must be a positive integer",
    "seed": "must be a nonnegative integer",
}
FLOAT_CASES = [(name, v) for name in ("alpha", "beta", "bound", "lhat0", "theta", "eta", "lfixed", "tol")
               for v in ("nan", "inf", "-inf", "-1") if (name, v) != ("bound", "inf")]
INT_CASES = [("mesh_n", "0"), ("imax", "0"), ("max_iter", "0"), ("seed", "-1")]


def test_range_cases_cover_every_number_setting():
    numbers = {f.name for f in dataclasses.fields(experiments.RunConfig) if f.type in ("int", "float")}
    assert {name for name, _ in FLOAT_CASES + INT_CASES} == set(RANGE_MESSAGES) == numbers


@pytest.mark.parametrize("name, value", FLOAT_CASES + INT_CASES)
def test_out_of_range_setting_exits_2(name, value, tmp_path, capsys):
    # "--flag=value": argparse would read a separate "-inf" as a flag
    argv = ["solve", f"--{name.replace('_', '-')}={value}", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    shown = value if (name, value) in INT_CASES else float(value)
    assert capsys.readouterr().err.splitlines() == [f"error: {name} {RANGE_MESSAGES[name]}, got {shown}"]
    assert not (tmp_path / "out" / "summary.json").exists()


def test_every_run_setting_has_one_generated_flag():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    settings = dataclasses.fields(experiments.RunConfig)
    for command, sub in commands.choices.items():
        flags = [a for a in sub._actions if a.dest != "help"]
        assert flags[0].option_strings == ["--config"]
        assert [a.dest for a in flags[1 : len(settings) + 1]] == [f.name for f in settings]
        for f, action in zip(settings, flags[1:]):
            flag = "--" + f.name.replace("_", "-")
            assert [a for a in flags if flag in a.option_strings] == [action]
            assert action.option_strings == [flag] and action.dest == f.name
            assert {key: getattr(action, key) for key in f.metadata} == dict(f.metadata)
            argv = [command, flag] if f.type == "bool" else [command, flag, str(f.default)]
            value = getattr(cli.make_config(parser.parse_args(argv)), f.name)
            # the bare --ydzero sets the one non-default value a flag can give
            assert value == (True if f.type == "bool" else f.default)
            assert type(value).__name__ == f.type


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


def test_config_with_byte_order_mark_and_crlf(tmp_path, capsys):
    # as Windows Notepad and PowerShell 5's `Out-File -Encoding utf8` write it
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfmesh-n = 8\r\n# comment\r\nydzero = true\r\n")
    assert experiments.parse_config_file(cfg) == {"mesh_n": 8, "ydzero": True}
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "final_control.csv")
    assert len(rows) == 2 * 8 * 8
    # a bad byte is still reported at its offset in the file, the mark counted
    cfg.write_bytes(b"\xef\xbb\xbfmesh-n = 8\n\xff\n")
    with pytest.raises(experiments.ConfigError, match=r"invalid start byte at byte 14\)$"):
        experiments.parse_config_file(cfg)


def test_unallocatable_mesh_exits_2(tmp_path, capsys):
    # the set-up's eigenvalue grid alone would take 8.0e36 bytes, beyond the
    # virtual address space of any 64-bit host (at most 2^57 bytes), so the
    # request fails at once and nothing is allocated
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


@pytest.mark.parametrize("argv, message", [
    (["switching", "--mesh-n", "8", "--betas", "0.01", "0"], "beta must be a finite positive real, got 0.0"),
    (["beta-sweep", "--mesh-n", "8", "--betas", "0.01", "-1"], "beta must be a finite positive real, got -1.0"),
    (["beta-sweep", "--pareto", "--mesh-n", "8", "--betas", "0.01", "-1"],
     "beta must be a finite positive real, got -1.0"),
    (["mesh-study", "--n-list", "8", "2"], "mesh study needs n >= 4, got 2"),
    (["mesh-study", "--penalty", "switching", "--bound", "inf", "--n-list", "8", "10"],
     "the switching problem needs 4 | mesh_n, got 10"),
    # both profiles would be written to switching_controls_beta0.1.csv
    (["switching", "--mesh-n", "8", "--betas", "0.1", "0.1000000000001"],
     "switching betas must differ in 12 significant digits, got 0.1 0.1"),
])
def test_sweep_rejects_a_bad_later_value_before_any_run(argv, message, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a sweep ran before every value was checked")

    monkeypatch.setattr(solver, "run", must_not_run)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def test_mesh_study_rejects_an_unallocatable_later_mesh_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "run", lambda *a, **k: pytest.fail("a run started before every mesh was checked"))
    out = tmp_path / "out"
    assert cli.main(["mesh-study", "--n-list", "64", str(10**18), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory:")
    assert list(out.iterdir()) == []


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    F, support, pde_solves = capsys.readouterr().out.split()
    assert float(F) > 0 and 0 < float(support) < 1 and int(pde_solves) > 0


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


def test_non_finite_cg_residual_exits_3(tmp_path):
    # alpha = 0 and a first step weight of 1e-308 overflow the first trial's control;
    # the Neumann CG stops at its first residual norm, where scipy's cg ran 2,890 NaN
    # iterations to its cap.  A subprocess, as the overflow warnings are errors here
    result = run_cli_process("solve", "--pde", "neumann", "--alpha", "0", "--lhat0", "1e-308", "--bound", "inf",
                             "--mesh-n", "16", "--out", str(tmp_path), check=False)
    assert result.returncode == cli.EXIT_SOLVER
    last = result.stderr.splitlines()[-1]
    assert last.startswith("solver failure: non-finite CG residual norm inf"), last


@pytest.mark.parametrize("pde, message", [
    ("dirichlet", "objective F=nan at trial weight L=1e-308"),
    ("neumann", "non-finite CG residual norm inf after 0 iterations (n=16)"),
])
def test_overflowing_trial_exits_3_with_one_line_when_warnings_are_errors(pde, message, tmp_path):
    # the run above, on both operators, with every warning an error (as CI runs each command):
    # the trial's own checks give the verdict, and numpy's overflow warnings must not preempt it
    result = run_cli_process("solve", "--pde", pde, "--alpha", "0", "--lhat0", "1e-308", "--bound", "inf",
                             "--mesh-n", "16", "--out", str(tmp_path), check=False, python_flags=("-W", "error"))
    assert result.returncode == cli.EXIT_SOLVER, result.stderr
    assert result.stderr.splitlines() == [f"solver failure: {message}"]


# a fixed weight of 0 on the Neumann operator overshoots: the objective
# rises in iterations 1, 2 and 4, and each rise is logged as a warning
FIXED_WEIGHT_WARNS = ["solve", "--mesh-n", "8", "--pde", "neumann", "--strategy", "fixed",
                      "--lfixed", "0", "--max-iter", "4"]


def run_cli_process(*args, check=True, python_flags=()):
    env = dict(os.environ, PYTHONPATH=str(Path(l0control.__file__).parents[1]))
    return subprocess.run([sys.executable, *python_flags, "-m", "l0control", *args],
                          capture_output=True, text=True, env=env, check=check)


@pytest.mark.parametrize("command, taken", [("solve", "report.csv"), ("table1", "table1.csv")])
def test_unwritable_output_file_exits_2_with_one_message(command, taken, tmp_path):
    # the output directory is usable, but one of its files is a directory
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    result = run_cli_process(command, "--mesh-n", "4", "--out", str(out), check=False)
    assert result.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and taken in lines[0]


@pytest.mark.parametrize("argv, taken", [
    (["solve"], "summary.json"),
    (["table1"], "table1.csv"),
    (["beta-sweep"], "beta_sweep.csv"),
    (["beta-sweep", "--pareto", "--betas", "0.1"], "pareto_l1.csv"),
    (["mesh-study", "--n-list", "8"], "mesh_study.csv"),
    (["unsolvable"], "unsolvable_fp.csv"),
    (["unsolvable"], "summary.json"),
    # a profile file of the second run, named by its beta
    (["switching", "--betas", "0.1", "0.01"], "switching_controls_beta0.01.csv"),
])
def test_unwritable_output_file_exits_2_before_any_solve(argv, taken, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before every output file was checked")

    monkeypatch.setattr(solver, "run", must_not_run)
    monkeypatch.setattr(problem, "ControlProblem", must_not_run)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert cli.main(argv + ["--mesh-n", "8", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and taken in err
    # nothing written: the directory in the way is all there is
    assert list(out.iterdir()) == [out / taken] and list((out / taken).iterdir()) == []


def test_output_under_a_regular_file_fails_before_any_solve(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "run", lambda *a, **k: pytest.fail("solved before the output was checked"))
    regular_file = tmp_path / "taken"
    regular_file.write_text("")
    with pytest.raises(NotADirectoryError, match="table1.csv"):
        experiments.run_table1(experiments.RunConfig(mesh_n=4), out=regular_file / "sub")
    assert regular_file.read_text() == ""


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
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
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
    # elementwise float arithmetic only, so the same lines on every host
    assert out.splitlines()[:3] == [
        "PASS prox_l0 vs brute force (n=300, worst objective gap 1.22e-15)",
        "PASS prox_l1 vs brute force (n=300)",
        "PASS prox_switch vs brute force",
    ]


def test_selftest_failure_exits_4(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "run_selftest", lambda config: False)
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 4


def test_selftest_nan_gradient_fails_the_adjoint_check(monkeypatch, tmp_path, capsys):
    # one NaN gradient among the eight: the relative error is NaN, and a NaN
    # is not dropped by the finite errors around it; the solves stay finite
    value_and_grad, calls = problem.ControlProblem.value_and_grad, []

    def nan_first(self, u):
        f, grad = value_and_grad(self, u)
        calls.append(None)
        return f, (dataclasses.replace(grad, values=np.full_like(grad.values, np.nan)) if len(calls) == 1 else grad)

    monkeypatch.setattr(problem.ControlProblem, "value_and_grad", nan_first)
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL adjoint gradient vs finite differences (worst rel nan)"
    ]


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
