"""Command-line frontend for the solver and the experiment suite.

Each subcommand is one entry of COMMANDS.  Flags override values from an
optional "key = value" config file.
Exit codes: 0 success, 2 invalid configuration or an output that cannot be
written, 3 solver failure, 4 selftest assertion failure, 141 (128 + SIGPIPE,
as a shell reports a process that SIGPIPE ends) with nothing on stderr when
the reader closes stdout early, as `l0control selftest | head -1` does.
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SELFTEST = 4
EXIT_BROKEN_PIPE = 141

_BETAS = ("--betas", dict(type=float, nargs="+", help="explicit beta values"))


def _beta_sweep(config, args):
    result = ex.run_beta_sweep(config, betas=args.betas, pareto=args.pareto)
    return result["l0"] + result["l1"] if args.pareto else result


def _unsolvable(config, args):
    report, fp_rows, dist = ex.run_unsolvable(config)
    for L, res in fp_rows:
        print(f"fp_residual(L={L:g}) = {res:.6e}")
    print(f"distance to smooth minimizer = {dist:.6e}")
    return [report]


# name: (help, its own flags as (flag, argparse keywords), runner(config, args) -> reports);
# selftest has no runner: it writes no file and exits by its own verdict
COMMANDS = {
    "solve": ("run one configured problem", [], lambda config, args: [ex.run_solve(config)]),
    "table1": ("compare the step-size strategies", [], lambda config, args: ex.run_table1(config)),
    "beta-sweep": ("sweep the penalty weight (add --pareto for the two-penalty trade-off)",
                   [("--pareto", dict(action="store_true", help="run both penalties over the geometric beta grid")),
                    _BETAS], _beta_sweep),
    "mesh-study": ("run the benchmark problem across mesh resolutions",
                   [("--n-list", dict(type=int, nargs="+", help="mesh resolutions"))],
                   lambda config, args: ex.run_mesh_study(config, n_list=args.n_list)),
    "unsolvable": ("constant-target configuration without a minimizer", [], _unsolvable),
    "switching": ("two-band switching control runs", [_BETAS],
                  lambda config, args: ex.run_switching(config, betas=args.betas)),
    "selftest": ("fast internal consistency checks", [], None),
}


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
    for name, (help_text, own_flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        for flag, keywords in own_flags:
            p.add_argument(flag, **keywords)
    return parser


def make_config(args):
    """Merge defaults, config file and command-line flags (flags win)."""
    values = ex.parse_config_file(args.config) if args.config else {}
    for f in fields(ex.RunConfig):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return ex.RunConfig(**values).validate()


def summary_line(report):
    return (
        f"F={report.final_F:.9g} L0={report.records[-1].support:.9g} "
        f"pde={report.pde_solves} iters={report.iterations} term={report.termination}"
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    try:
        config = make_config(args)
        runner = COMMANDS[args.command][2]
        if runner is None:
            return EXIT_OK if ex.run_selftest(config) else EXIT_SELFTEST
        # an unusable output directory fails here, not after the run
        Path(config.out).mkdir(parents=True, exist_ok=True)
        for r in runner(config, args):
            print(summary_line(r))
        # a reader that closed the pipe shows here, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (solver.StepSearchError, fem.SolverBreakdown) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
