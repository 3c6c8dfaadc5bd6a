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
from . import fem, solver


def _add_common_flags(parser):
    """--config, then one flag per RunConfig field, declared by the field's metadata."""
    parser.add_argument("--config", metavar="FILE", help="key = value config file; flags override it")
    for f in fields(ex.RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, action="store_true", default=None, **f.metadata)
        else:
            # f.type is the annotation string; a str field keeps argparse's default (no conversion)
            parser.add_argument(flag, type={"int": int, "float": float}.get(f.type), **f.metadata)


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
        if args.command == "selftest":
            return ex.EXIT_OK if ex.run_selftest(config) else ex.EXIT_SELFTEST
        if args.command == "solve":
            reports = [ex.run_solve(config)]
        elif args.command == "table1":
            reports = ex.run_table1(config)
        elif args.command == "beta-sweep":
            result = ex.run_beta_sweep(config, betas=args.betas, pareto=args.pareto)
            reports = result["l0"] + result["l1"] if args.pareto else result
        elif args.command == "mesh-study":
            reports = ex.run_mesh_study(config, n_list=args.n_list)
        elif args.command == "switching":
            reports = ex.run_switching(config, betas=args.betas)
        elif args.command == "unsolvable":
            report, fp_rows, dist = ex.run_unsolvable(config)
            for L, res in fp_rows:
                print(f"fp_residual(L={L:g}) = {res:.6e}")
            print(f"distance to smooth minimizer = {dist:.6e}")
            reports = [report]
        for r in reports:
            print(ex.summary_line(r))
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
