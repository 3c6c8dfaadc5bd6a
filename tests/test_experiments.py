"""Experiment-harness behavior beyond the CLI surface."""

import csv
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from l0control import experiments as ex
from l0control import fem
from l0control.experiments import RunConfig
from l0control.problem import SwitchingControl


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


def test_unsolvable_summary_payload(tmp_path, solve_calls):
    config = RunConfig(mesh_n=16, alpha=0.01, beta=0.01, out=str(tmp_path))
    report, fp_rows, dist = ex.run_unsolvable(config)
    # the stationarity diagnostics, the gradient at the convexified solution
    # before the run and the final residual's after it, are not in the count
    assert report.pde_solves == 2 * report.iterations + sum(report.column("trials"))
    assert len(solve_calls) == report.pde_solves + 2 + 2
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
    yd = problem.target.copy()
    yd[problem.mesh.boundary_nodes] = 0.0
    lump = np.asarray(problem.pde.mass.sum(axis=1)).ravel()
    assert fv == pytest.approx(0.5 * (yd * yd) @ lump, rel=1e-12)
    assert fv < problem.eval_f(u)


def test_vertex_rule_lumps_with_the_csr_row_sums():
    # the diagonal mass sums a row in another order than the CSR row sum,
    # which rounds some interior rows of the n = 49 mass differently
    from l0control.problem import ControlProblem, ProblemSpec, default_target

    spec = ProblemSpec(alpha=0.01, beta=0.01, bound=4.0, penalty="l0",
                       pde=fem.DIRICHLET_POISSON, y_d=default_target, mesh_n=49)
    problem = ControlProblem(spec)
    yd = problem.target.copy()
    yd[problem.mesh.boundary_nodes] = 0.0
    lump = np.asarray(problem.pde.mass.tocsr().sum(axis=1)).ravel()
    assert ex.vertex_rule_objective(problem, problem.zero_control()) == 0.5 * float((yd * yd) @ lump)


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
        ex._coerce("ydzero", "maybe")
    with pytest.raises(ex.ConfigError):
        ex._coerce("alpha", "much")
    assert ex._coerce("bound", "inf") == math.inf
    assert ex._coerce("ydzero", "yes") is True
    assert ex._coerce("penalty", "l1") == "l1"


def test_coerce_round_trips_every_field_default():
    # each key is parsed as its RunConfig annotation, so str(default) reads back as itself
    for f in fields(RunConfig):
        value = ex._coerce(f.name, str(f.default))
        assert value == f.default and type(value) is type(f.default), f.name
    for word in ("1", "true", "True", "YES", "on"):
        assert ex._coerce("ydzero", word) is True
    for word in ("0", "false", "False", "NO", "off"):
        assert ex._coerce("ydzero", word) is False


def test_sweeps_drop_the_bound_where_the_paper_does(tmp_path, monkeypatch):
    specs = []
    build_spec = ex.build_spec

    def spy(config, y_d=None):
        specs.append(build_spec(config, y_d=y_d))
        return specs[-1]

    monkeypatch.setattr(ex, "build_spec", spy)
    config = RunConfig(mesh_n=8, bound=2.0, out=str(tmp_path))
    for run, count in [
        (lambda: ex.run_beta_sweep(config, betas=[0.5, 0.05]), 2),
        (lambda: ex.run_switching(config, betas=[0.1, 0.001]), 2),
        (lambda: ex.run_unsolvable(config), 1),
    ]:
        specs.clear()
        run()
        assert len(specs) == count
        assert all(spec.bound == math.inf for spec in specs)
    # the Pareto sweep keeps the configured bound and weighs both penalties by beta
    specs.clear()
    ex.run_beta_sweep(config, betas=[0.05], pareto=True)
    assert [(s.penalty, s.beta, s.bound) for s in specs] == [("l0", 0.05, 2.0), ("l1", 0.05, 2.0)]


# ---------------------------------------------------------------------------
# CSV writer: byte identity with the csv.writer row loop it replaced


def csv_writer_oracle(path, header, rows):
    """The former writer: csv.writer, format(x, ".12g") for floats, str otherwise."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".12g") if isinstance(v, float) else str(v) for v in row])


def assert_same_bytes(tmp_path, header, columns):
    rows = list(zip(*columns))
    csv_writer_oracle(tmp_path / "oracle.csv", header, rows)
    ex._write_csv(tmp_path / "new.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 5e-324, -5e-324, 1e16, 0.1 + 0.2,
    123456789012345.0, 0.123456789012345, 1.2345678901234567, 2.0**0.5, 1 / 3,
    1e12, 999999999999.5, 123456789012.0, -7.25,
]
BIG_INTS = [0, -1, 7, 10**12 - 1, 10**12 + 1, 12345678901234, -(10**13) - 7, 2**62]


def test_writer_float_and_int_arrays_match_csv_writer(tmp_path):
    n = len(EDGE_FLOATS)
    floats = np.array(EDGE_FLOATS)
    ints = np.array((BIG_INTS * 3)[:n], dtype=np.int64)
    assert_same_bytes(tmp_path, ["i", "x", "neg_x"], [ints, floats, -floats])


def test_writer_list_columns_match_csv_writer(tmp_path):
    n = len(BIG_INTS)
    labels = ["bt", "btw", "bt0", "l0", "l1", "x y", "", "1e5"][:n]
    py_floats = EDGE_FLOATS[:n]
    np_floats = [np.float64(x) for x in EDGE_FLOATS[-n:]]
    np_ints = [np.int64(k) for k in BIG_INTS]
    assert_same_bytes(
        tmp_path,
        ["int", "np_int", "float", "np_float", "label"],
        [BIG_INTS, np_ints, py_floats, np_floats, labels],
    )


def test_writer_blocks_match_csv_writer(tmp_path):
    # row counts at and across the block boundaries of the %-passes
    rng = np.random.default_rng(3)
    for nrows in (ex._BLOCK - 1, ex._BLOCK, 2 * ex._BLOCK + 1):
        floats = rng.normal(size=nrows) * 10.0 ** rng.integers(-20, 20, size=nrows)
        labels = [f"r{i}" for i in range(nrows)]
        assert_same_bytes(tmp_path, ["i", "x", "label"], [np.arange(nrows), floats, labels])


def per_value_reference(header, columns):
    """CSV bytes with every float formatted on its own by format(x, ".12g")."""
    def field(v):
        return format(float(v), ".12g") if isinstance(v, (float, np.floating)) else str(v)

    lines = [",".join(header)] + [",".join(map(field, row)) for row in zip(*columns)]
    return "".join(line + "\r\n" for line in lines).encode()


def test_writer_distinct_values_match_per_value_format(tmp_path):
    rng = np.random.default_rng(15)
    nan_payload, neg_nan = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(np.float64)
    pool = np.array(EDGE_FLOATS + [2.2e-308 / 3, -1e-310, nan_payload, neg_nan])
    header = ["i", "x", "x32", "centroid", "label"]
    for nrows in (0, 1, 7, 2 * ex._BLOCK + 5):
        x = rng.choice(pool, size=nrows)
        # float32 values and subnormals, repeated, with the pool's -0.0, NaN and inf cast along
        x32 = np.concatenate([pool.astype(np.float32), np.array([1e-45, -3e-39], dtype=np.float32)])
        x32 = rng.choice(x32, size=nrows)
        centroid = ((np.arange(nrows) % 5) + 1.0 / 3.0) / 5
        columns = [np.arange(nrows), x, x32, centroid, [f"r{i % 3}" for i in range(nrows)]]
        ex._write_csv(tmp_path / "new.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == per_value_reference(header, columns), nrows
    ex._write_csv(tmp_path / "zeros.csv", ["x"], [np.array([-0.0, 0.0, -0.0, math.nan, neg_nan])])
    assert (tmp_path / "zeros.csv").read_bytes() == b"x\r\n-0\r\n0\r\n-0\r\nnan\r\nnan\r\n"


def test_writer_header_only_file(tmp_path):
    assert_same_bytes(tmp_path, ["beta", "support"], list(zip(*[])))
    assert_same_bytes(tmp_path, ["beta", "support"], [np.array([]), np.array([], dtype=int)])
    assert (tmp_path / "new.csv").read_bytes() == b"beta,support\r\n"


def test_writer_rejects_fields_that_need_quoting(tmp_path):
    for bad in ("a,b", 'say "x"', "two\nlines", "cr\r"):
        with pytest.raises(ValueError, match="quoting"):
            ex._write_csv(tmp_path / "bad.csv", ["label"], [[bad]])
    with pytest.raises(ValueError, match="quoting"):
        ex._write_csv(tmp_path / "bad.csv", ["a,b"], [[1.0]])


def test_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        ex._write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
    # a column that is only longer past the first block
    with pytest.raises(ValueError):
        ex._write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(ex._BLOCK + 1), [0.0] * (ex._BLOCK + 2)])
    assert not (tmp_path / "bad.csv").exists()


def test_control_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(8)
    mesh = fem.build_mesh(8)
    values = rng.normal(size=mesh.num_triangles) * (rng.random(mesh.num_triangles) < 0.5)
    values[:3] = (-0.0, 1e-300, 4.0)
    control = fem.ControlField(mesh, values)
    cent = fem.element_means(mesh, mesh.nodes)
    rows = [(i, cent[i, 0], cent[i, 1], values[i]) for i in range(mesh.num_triangles)]
    csv_writer_oracle(tmp_path / "oracle.csv", ["triangle_index", "centroid_x", "centroid_y", "value"], rows)
    ex.write_control_csv(tmp_path / "new.csv", control)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    strips = SwitchingControl(mesh, rng.normal(size=(2, 8)) * (rng.random((2, 8)) < 0.5))
    centers = (np.arange(8) + 0.5) / 8
    rows = [(centers[j], strips.u1[j], strips.u2[j]) for j in range(8)]
    csv_writer_oracle(tmp_path / "oracle.csv", ["x1", "u1", "u2"], rows)
    ex.write_control_csv(tmp_path / "new.csv", strips)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
