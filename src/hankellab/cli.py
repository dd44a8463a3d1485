"""Command-line interface.

Subcommands:
    gen-symbol   draw a random Lipschitz-class symbol and save/print it
    apply        apply the Hankel operator of a symbol to an input polynomial
    truncate     apply a (multi)linear skewed truncation
    bht          evaluate a bilinear Hilbert transform in coefficient form
    opnorm       estimate the (2,2) norm of a (truncated) matrix section
    experiment   list or run the reproducible experiments

`experiment run` exits 0 when the experiment's acceptance summary passed
and 2 when it ran to completion but a recorded threshold failed.  Every
command exits 1 on a usage or domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bilinear import BHTParams, bht_fourier, bht_mu_fourier, pv_quadrature
from .errors import HankelLabError, ParameterError
from .experiments import EXPERIMENT_NAMES, ExperimentConfig, run_experiment
from .hankel import (TruncationSpec, hankel_apply, matrix_section,
                     multilinear_truncated_apply, truncated_apply)
from .opnorm import section_norm_2_2
from .reporting import write_summary_json
from .serialize import load_poly, poly_to_triples, save_poly
from .spaces import lipschitz_norm, random_symbol
from .trigpoly import Grid, eval_grid


def _emit_poly(poly, out):
    if out:
        save_poly(out, poly)
    else:
        json.dump(poly_to_triples(poly), sys.stdout)
        sys.stdout.write("\n")


def _seed(args):
    if args.seed < 0:       # numpy takes no negative seed
        raise ParameterError(f"--seed must be nonnegative, got {args.seed}")
    return args.seed


def _cmd_gen_symbol(args):
    b = random_symbol(args.alpha, args.max_block, _seed(args))
    _emit_poly(b, args.out)
    if args.verbose:
        ln = lipschitz_norm(b, args.alpha)
        print(f"degree={b.degree} lipschitz_norm={ln.value:.6g}",
              file=sys.stderr)
    return 0


def _cmd_apply(args):
    b = load_poly(args.symbol)
    f = load_poly(args.input)
    _emit_poly(hankel_apply(b, f, method=args.method), args.out)
    return 0


def _cmd_truncate(args):
    b = load_poly(args.symbol)
    fs = [load_poly(path) for path in args.inputs]
    try:
        beta = tuple(float(x) for x in args.beta.split(","))
    except ValueError:
        raise ParameterError(f"--beta must be comma-separated numbers, "
                             f"got {args.beta!r}") from None
    if len(beta) != len(fs):
        raise ParameterError(
            f"got {len(beta)} slope components for {len(fs)} inputs")
    spec = TruncationSpec(beta, args.gamma, boundary=args.boundary)
    if len(fs) == 1:
        out = truncated_apply(b, spec, fs[0])
    else:
        out = multilinear_truncated_apply(b, spec, fs)
    _emit_poly(out, args.out)
    return 0


def _cmd_bht(args):
    b = load_poly(args.symbol)
    f = load_poly(args.input)
    if args.mu is None:
        out = bht_fourier(b, f, args.k, args.l)
        variant = "plain_kl"
        params = BHTParams(args.k, args.l, 0)
    else:
        params = BHTParams(args.k, args.l, args.mu)
        out = bht_mu_fourier(b, f, params)
        variant = "mu_form"
    _emit_poly(out, args.out)
    if args.check_grid:
        vals = pv_quadrature(b, f, params, args.check_grid, variant=variant)
        ref = eval_grid(out, Grid(args.check_grid))
        scale = max(float(np.abs(ref).max()), 1.0)
        err = float(np.abs(vals - ref).max()) / scale
        print(f"quadrature_rel_sup_error={err:.3e}", file=sys.stderr)
    return 0


def _cmd_opnorm(args):
    b = load_poly(args.symbol)
    spec = None
    if args.beta is not None:
        spec = TruncationSpec((args.beta,), args.gamma,
                              boundary=args.boundary)
    section = matrix_section(b, spec, args.rows, args.cols)
    est = section_norm_2_2(section, tol=args.tol, seed=_seed(args))
    payload = est.to_json_dict()
    if not args.witness:
        payload.pop("witness", None)
    if args.out:
        write_summary_json(args.out, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def _cmd_experiment(args):
    if args.action == "list":
        for name in EXPERIMENT_NAMES:
            print(name)
        return 0
    # action == "run"
    if args.config:
        config = ExperimentConfig.from_yaml(args.config)
        if args.name and args.name != config.experiment:
            raise ParameterError(
                f"config file is for {config.experiment!r}, "
                f"but {args.name!r} was requested")
    else:
        if not args.name:
            raise ParameterError("experiment run needs a name or --config")
        config = ExperimentConfig(args.name)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_experiment(config)
    if args.out:
        path = report.write(args.out)
        print(f"wrote {path}")
    print(f"{config.experiment}: "
          f"{'PASS' if report.passed else 'FAIL'} "
          f"({len(report.rows)} rows, {report.wall_clock:.1f}s)")
    if not args.quiet:
        json.dump(report.summary, sys.stdout, indent=2, sort_keys=True,
                  default=str)
        sys.stdout.write("\n")
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankellab",
        description="Numerical laboratory for Hankel operators, skewed "
                    "truncations, and bilinear Hilbert transforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-symbol", help="draw a random Lipschitz symbol")
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--max-block", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.add_argument("--verbose", action="store_true")
    g.set_defaults(func=_cmd_gen_symbol)

    a = sub.add_parser("apply", help="apply a Hankel operator")
    a.add_argument("--symbol", required=True)
    a.add_argument("--input", required=True)
    a.add_argument("--method", choices=["direct", "projection"],
                   default="direct")
    a.add_argument("--out", default=None)
    a.set_defaults(func=_cmd_apply)

    t = sub.add_parser("truncate", help="apply a skewed truncation")
    t.add_argument("--symbol", required=True)
    t.add_argument("--inputs", nargs="+", required=True)
    t.add_argument("--beta", required=True,
                   help="comma-separated slope vector, one entry per input")
    t.add_argument("--gamma", type=float, default=0.0)
    t.add_argument("--boundary", choices=["include", "half"],
                   default="include")
    t.add_argument("--out", default=None)
    t.set_defaults(func=_cmd_truncate)

    h = sub.add_parser("bht", help="evaluate a bilinear Hilbert transform")
    h.add_argument("--symbol", required=True)
    h.add_argument("--input", required=True)
    h.add_argument("-k", type=int, required=True)
    h.add_argument("-l", type=int, required=True)
    h.add_argument("--mu", type=int, default=None,
                   help="use the modulated form with this shift")
    h.add_argument("--check-grid", type=int, default=None,
                   help="cross-check against quadrature on this grid size")
    h.add_argument("--out", default=None)
    h.set_defaults(func=_cmd_bht)

    o = sub.add_parser("opnorm", help="estimate a section (2,2) norm")
    o.add_argument("--symbol", required=True)
    o.add_argument("--rows", type=int, default=256)
    o.add_argument("--cols", type=int, default=256)
    o.add_argument("--beta", type=float, default=None)
    o.add_argument("--gamma", type=float, default=0.0)
    o.add_argument("--boundary", choices=["include", "half"],
                   default="include")
    o.add_argument("--tol", type=float, default=1e-12,
                   help="stop once the relative error estimate is at most "
                        "this")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--witness", action="store_true",
                   help="include the maximizing vector in the output")
    o.add_argument("--out", default=None)
    o.set_defaults(func=_cmd_opnorm)

    e = sub.add_parser("experiment", help="list or run experiments")
    esub = e.add_subparsers(dest="action", required=True)
    el = esub.add_parser("list", help="list experiment names")
    el.set_defaults(func=_cmd_experiment, action="list")
    er = esub.add_parser("run", help="run one experiment")
    er.add_argument("name", nargs="?", default=None,
                    choices=list(EXPERIMENT_NAMES) + [None])
    er.add_argument("--config", default=None, help="YAML config file")
    er.add_argument("--seed", type=int, default=None)
    er.add_argument("--out", default=None, help="directory for reports")
    er.add_argument("--quiet", action="store_true")
    er.set_defaults(func=_cmd_experiment, action="run")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error and exits 2, which this CLI
        # reserves for a failed experiment gate; --help exits 0
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except HankelLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
