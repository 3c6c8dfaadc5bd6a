"""Command-line frontend for the solver and the experiment suite.

Subcommands: solve, table1, beta-sweep, mesh-study, unsolvable, switching,
selftest.  Flags override values from an optional "key = value" config file.
Exit codes: 0 success, 2 invalid configuration, 3 solver failure,
4 selftest assertion failure, 141 (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ends) with nothing on stderr when the reader closes
stdout early, as `l0control selftest | head -1` does.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import experiments as ex
from . import fem, problem, solver


def _add_common_flags(parser):
    parser.add_argument("--config", metavar="FILE", help="key = value config file; flags override it")
    parser.add_argument("--mesh-n", type=int, dest="mesh_n", help="grid subdivisions per side")
    parser.add_argument("--alpha", type=float, help="quadratic control-cost weight")
    parser.add_argument("--beta", type=float, help="support-penalty weight (the l1 weight in l1 mode)")
    parser.add_argument("--bound", type=float, help='box bound on the control (number or "inf")')
    parser.add_argument("--penalty", choices=problem.PENALTY_KINDS, help="penalty kind")
    parser.add_argument("--pde", choices=list(ex.PDE_NAMES), help="state operator")
    parser.add_argument("--strategy", choices=solver.STRATEGY_KINDS, help="step-size rule")
    parser.add_argument("--lhat0", type=float, help="initial prox weight for the adaptive rules")
    parser.add_argument("--theta", type=float, help="weight reduction factor in (0,1)")
    parser.add_argument("--eta", type=float, help="decrease-condition constant")
    parser.add_argument("--imax", type=int, help="maximal widening steps")
    parser.add_argument("--lfixed", type=float, help="prox weight for strategy=fixed")
    parser.add_argument("--max-iter", type=int, dest="max_iter", help="iteration cap")
    parser.add_argument("--tol", type=float, help="stop when |F_{k+1}-F_k| <= tol")
    parser.add_argument("--out", metavar="DIR", help="output directory (default '.')")
    parser.add_argument("--seed", type=int, help="seed for randomized subcommands")
    parser.add_argument("--ydzero", action="store_true", default=None,
                        help="use the zero tracking target")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="l0control",
        description="Hard-thresholding solver for support-penalized control of elliptic PDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("solve", "run one configured problem"),
        ("table1", "compare the step-size strategies"),
        ("beta-sweep", "sweep the penalty weight (add --pareto for the two-penalty trade-off)"),
        ("mesh-study", "run the benchmark problem across mesh resolutions"),
        ("unsolvable", "constant-target configuration without a minimizer"),
        ("switching", "two-band switching control runs"),
        ("selftest", "fast internal consistency checks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "beta-sweep":
            p.add_argument("--pareto", action="store_true",
                           help="run both penalties over the geometric beta grid")
            p.add_argument("--betas", type=float, nargs="+", help="explicit beta values")
        if name == "switching":
            p.add_argument("--betas", type=float, nargs="+", help="explicit beta values")
        if name == "mesh-study":
            p.add_argument("--n-list", type=int, nargs="+", dest="n_list", help="mesh resolutions")
    return parser


def make_config(args):
    """Merge defaults, config file and command-line flags (flags win)."""
    values = {}
    if getattr(args, "config", None):
        values.update(ex.parse_config_file(args.config))
    field_names = {f.name for f in fields(ex.RunConfig)}
    for name in field_names:
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            values[name] = flag_val
    return ex.RunConfig(**values).validate()


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    try:
        config = make_config(args)
        if args.command != "selftest":
            # an unusable output directory fails here, not after the run
            Path(config.out).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ex.EXIT_CONFIG

    try:
        if args.command == "solve":
            report = ex.run_solve(config)
            print(ex.summary_line(report))
        elif args.command == "table1":
            reports = ex.run_table1(config)
            for r in reports:
                print(ex.summary_line(r))
        elif args.command == "beta-sweep":
            result = ex.run_beta_sweep(config, betas=args.betas, pareto=args.pareto)
            reports = result["l0"] + result["l1"] if isinstance(result, dict) else result
            for r in reports:
                print(ex.summary_line(r))
        elif args.command == "mesh-study":
            for r in ex.run_mesh_study(config, n_list=args.n_list):
                print(ex.summary_line(r))
        elif args.command == "unsolvable":
            report, fp_rows, dist = ex.run_unsolvable(config)
            for L, res in fp_rows:
                print(f"fp_residual(L={L:g}) = {res:.6e}")
            print(f"distance to smooth minimizer = {dist:.6e}")
            print(ex.summary_line(report))
        elif args.command == "switching":
            for r in ex.run_switching(config, betas=args.betas):
                print(ex.summary_line(r))
        elif args.command == "selftest":
            return ex.EXIT_OK if ex.run_selftest(config) else ex.EXIT_SELFTEST
        # a reader that closed the pipe shows here, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return ex.EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ex.EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return ex.EXIT_CONFIG
    except (solver.StepSearchError, fem.SolverBreakdown) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return ex.EXIT_SOLVER
    return ex.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
