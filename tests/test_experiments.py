"""Experiment-harness behavior beyond the CLI surface."""

import json
import math

import numpy as np
import pytest

from l0control import experiments as ex
from l0control import fem
from l0control.experiments import RunConfig


def test_table1_rows_monotone_and_large_weight_collapses(tmp_path):
    config = RunConfig(mesh_n=10, out=str(tmp_path))
    reports = ex.run_table1(config)
    assert len(reports) == 10
    for report in reports:
        Fs = [report.initial_F] + report.column("F")
        assert all(b <= a + 1e-14 for a, b in zip(Fs, Fs[1:]))
    # the largest initial weight keeps every cell below threshold: the first
    # accepted step is the zero control and the run stops there
    big = reports[7]  # L_hat0 = 10
    assert big.records[-1].support == 0.0
    assert np.all(big.final_control.values == 0.0)


def test_table1_shares_one_factorization(tmp_path, monkeypatch):
    calls = []
    real_assemble = fem.assemble

    def counting_assemble(mesh, kind):
        calls.append(kind)
        return real_assemble(mesh, kind)

    monkeypatch.setattr(fem, "assemble", counting_assemble)
    ex.run_table1(RunConfig(mesh_n=6, out=str(tmp_path)))
    assert len(calls) == 1


def test_pareto_large_beta_points_coincide_at_zero(tmp_path):
    config = RunConfig(mesh_n=8, out=str(tmp_path))
    result = ex.run_beta_sweep(config, betas=[0.5], pareto=True)
    for kind in ("l0", "l1"):
        report = result[kind][0]
        assert report.final_f > 0
        assert report.records[-1].support == 0.0
        assert np.all(report.final_control.values == 0.0)
    assert result["l0"][0].final_f == result["l1"][0].final_f


def test_beta_sweep_default_grid(tmp_path):
    config = RunConfig(mesh_n=8, out=str(tmp_path))
    reports = ex.run_beta_sweep(config)
    assert len(reports) == len(ex.TABLE2_BETAS)
    header = (tmp_path / "beta_sweep.csv").read_text().splitlines()
    assert header[0] == "beta,support"
    assert len(header) == 1 + len(ex.TABLE2_BETAS)


def test_beta_sweep_supports_decrease_with_weight(tmp_path):
    config = RunConfig(mesh_n=16, out=str(tmp_path))
    reports = ex.run_beta_sweep(config, betas=[0.5, 0.05, 0.005])
    supports = [r.records[-1].support for r in reports]
    assert supports[0] <= supports[1] <= supports[2]


def test_unsolvable_summary_payload(tmp_path):
    config = RunConfig(mesh_n=16, alpha=0.01, beta=0.01, out=str(tmp_path))
    report, fp_rows, dist = ex.run_unsolvable(config)
    # the preliminary stationarity diagnostics run with the counter paused
    assert report.pde_solves == 2 * report.iterations + sum(report.column("trials"))
    summary = json.loads((tmp_path / "summary.json").read_text())
    # the gradient at the constant convexified solution is itself constant
    h = math.sqrt(2) / 16
    assert summary["grad_at_ubar_dev"] <= 10 * h * h
    assert summary["distance_to_smooth_minimizer"] == pytest.approx(dist)
    assert summary["smooth_minimizer"] == pytest.approx((1.0 + math.sqrt(2) * 0.01) / 1.01)
    assert all(r > 1e-3 for _, r in fp_rows)
    assert dist <= 1e-3


def test_vertex_rule_objective_reports_interior_misfit(tmp_path):
    # zero control: the vertex-rule objective is the interior vertex sum of
    # the squared target, strictly below the full Galerkin norm here
    from l0control.problem import ControlProblem, ProblemSpec, default_target

    spec = ProblemSpec(alpha=0.01, beta=0.01, bound=4.0, penalty="l0",
                       pde=fem.DIRICHLET_POISSON, y_d=default_target, mesh_n=12)
    problem = ControlProblem(spec)
    u = problem.zero_control()
    fv = ex.vertex_rule_objective(problem, u)
    yd = problem.target.values.copy()
    yd[problem.mesh.boundary_nodes] = 0.0
    lump = np.asarray(problem.pde.mass.sum(axis=1)).ravel()
    assert fv == pytest.approx(0.5 * (yd * yd) @ lump, rel=1e-12)
    assert fv < problem.eval_f(u)


def test_switching_profiles_align_with_strip_centers(tmp_path):
    config = RunConfig(mesh_n=8, out=str(tmp_path))
    ex.run_switching(config, betas=[0.05])
    rows = (tmp_path / "switching_controls_beta0.05.csv").read_text().splitlines()[1:]
    xs = [float(r.split(",")[0]) for r in rows]
    assert xs == pytest.approx([(j + 0.5) / 8 for j in range(8)])


def test_config_coercion_errors():
    with pytest.raises(ex.ConfigError):
        ex._coerce("mesh_n", "ten")
    with pytest.raises(ex.ConfigError):
        ex._coerce("full", "maybe")
    with pytest.raises(ex.ConfigError):
        ex._coerce("alpha", "much")
    assert ex._coerce("bound", "inf") == math.inf
    assert ex._coerce("full", "yes") is True
    assert ex._coerce("penalty", "l1") == "l1"
