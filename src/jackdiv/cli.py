"""Command-line front door.

Subcommands evaluate the library's functions (jack, pfq, gamma, cdf-max,
cdf-min, cdf-region, density), run the Monte Carlo identity suite (verify),
and emit figure CSVs (figures).  All randomness is seeded; the seed in use is
printed to stderr.  CSV output uses a header row, comma separators and 17
significant digits, and is byte-stable for a fixed configuration and seed.

A config file of key=value lines (via --config) sets the subcommand's flags
that take a value: the key is the flag's name without the leading dashes,
with '-' or '_' between words, and the value is converted as the flag
converts it.  The file's values become the subcommand's defaults, so a flag
on the command line wins over the file in either form (``--sigma 1,2`` or
``--sigma=1,2``).  Flags are spelled in full: an abbreviation such as
``--sig`` is refused.  verify accepts --threads, which never changes
computed values: evaluation order is fixed.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

import numpy as np

from .core import DivisionAlgebra, DomainError, UnsupportedParameterError, parse_partition
from .hypergeom import HypergeomSpec, SeriesTruncation, pfq, pfq_two
from .jack import SpectralArgument, jack_C, jack_J
from .special import mv_gamma, mv_gamma_ln, mv_gamma_weighted, mv_gamma_weighted_ln
from .verify import DEFAULT_REL_MAX, DEFAULT_Z_MAX, run_suite
from .wishart import (
    WishartModel,
    cdf_lambda_max,
    cdf_lambda_min,
    cdf_wishart_region,
    joint_eigen_density,
)

DEFAULT_SEED = 20260811

_FIGURES = {
    # label: (n, sigma, which extreme eigenvalue, default grid)
    "fig1": (4, (1.0, 2.0), "max", (0.0, 24.0, 96)),
    "fig2": (7, (1.0, 2.0), "min", (0.0, 16.0, 96)),
}


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip() != "")
    except ValueError as exc:
        raise DomainError(f"cannot parse number list from {text!r}") from exc


# Most points a grid may hold: every point is one evaluation and one CSV row.
_MAX_GRID_POINTS = 1_000_000


def _parse_grid(text: str) -> np.ndarray:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be start:stop:points, got {text!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"cannot parse grid start:stop:points (two numbers, an integer) from {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)) or points < 2 or stop <= start:
        raise DomainError(f"grid needs finite start < stop and points >= 2, got {text!r}")
    if points > _MAX_GRID_POINTS:
        raise DomainError(f"grid has more than {_MAX_GRID_POINTS} points, got {text!r}")
    return np.linspace(start, stop, points)


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"result is not finite ({x!r})")
    return "%.17g" % x


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: list[str] | None) -> argparse.Namespace:
    """``argv`` parsed again with the config file's key=value entries as the
    subcommand's defaults, so that a flag on the command line wins; ``args``
    when no file is given.

    The keys are the dests of the subcommands' flags that take a value (not
    --config, not a switch); each value is converted by its flag's ``type``.
    """
    path = args.config
    if not path:
        return args

    def valued(sp):
        return {a.dest: a for a in sp._actions if a.option_strings and a.nargs != 0 and a.dest != "config"}

    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known, own = set().union(*map(valued, sub.choices.values())), valued(sub.choices[args.command])
    defaults = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in known:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            if key not in own:
                raise DomainError(
                    f"{path}:{lineno}: config key {key!r} does not apply to {args.command}")
            action, value = own[key], value.strip()
            try:
                converted = (action.type or str)(value)
                if action.choices and converted not in action.choices:
                    raise ValueError(value)
            except ValueError:
                raise DomainError(
                    f"{path}:{lineno}: invalid value {value!r} for config key {key!r}") from None
            defaults[key] = converted
    sub.choices[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _emit(lines: list[str], output: str | None):
    text = "\n".join(lines) + "\n"
    if output and output != "-":
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the (max_degree, rel_tol) defaults of cdf-max and cdf-region, for their help
_CDF_TRUNCATION = ("max(40, tr + 14 sqrt(tr + 1) + 60), tr the trace of the series' argument", "1e-12")


def _truncation(args) -> SeriesTruncation:
    """The truncation flags; a flag not given leaves its field to the series."""
    return SeriesTruncation(args.max_degree, args.rel_tol)


def _command(sub, name: str, run, summary: str, trunc=None, model=False, beta=True):
    """The subparser ``name``, whose parse stores ``run`` for :func:`main` to
    call, with the shared flags: --beta unless ``beta`` is false, --config
    and --output, the model flags when asked for, and the truncation flags
    when ``trunc`` gives the (max_degree, rel_tol) defaults their help
    names."""
    sp = sub.add_parser(name, help=summary, allow_abbrev=False)
    sp.set_defaults(run=run)
    if beta:
        sp.add_argument("--beta", type=int, default=1,
                        help="division algebra dimension (1, 2, 4 or 8)")
    sp.add_argument("--config", help="key=value file setting this subcommand's valued flags")
    sp.add_argument("--output", help="write output to this path instead of stdout")
    if trunc:
        sp.add_argument("--max-degree", type=int, help=f"default {trunc[0]}")
        sp.add_argument("--rel-tol", type=float, help=f"default {trunc[1]}")
    if model:
        sp.add_argument("--m", type=int, default=2)
        sp.add_argument("--n", type=float, required=False)
        sp.add_argument("--sigma", default="1", help="scale eigenvalues, comma separated")
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jackdiv",
        description="Jack-polynomial calculus, matrix-argument hypergeometric "
        "functions and Wishart extreme-eigenvalue distributions for "
        "beta in {1, 2, 4, 8}.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "jack", _cmd_jack, "evaluate a Jack polynomial")
    p.add_argument("--kappa", help="partition, e.g. [2,1]")
    p.add_argument("--eigs", help="eigenvalues, comma separated")
    p.add_argument("--normalization", choices=("C", "J"), default="C")

    p = _command(sub, "pfq", _cmd_pfq, "evaluate a hypergeometric series", trunc=("40", "1e-10"))
    p.add_argument("--upper", default="", help="upper parameters, comma separated")
    p.add_argument("--lower", default="", help="lower parameters, comma separated")
    p.add_argument("--eigs")
    p.add_argument("--eigs2", help="second spectrum (two-argument series)")

    p = _command(sub, "gamma", _cmd_gamma, "multivariate gamma, plain or weighted")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--a", type=float)
    p.add_argument("--kappa", help="weight partition for the weighted variant")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--log", action="store_true", help="print the log value")

    p = _command(sub, "cdf-max", _cmd_cdf, "distribution function of the largest eigenvalue",
                 trunc=_CDF_TRUNCATION, model=True)
    p.add_argument("--x", type=float, help="single evaluation point")
    p.add_argument("--grid", help="start:stop:points for a CSV curve")

    p = _command(sub, "cdf-min", _cmd_cdf, "distribution function of the smallest eigenvalue", model=True)
    p.add_argument("--y", type=float)
    p.add_argument("--grid")

    p = _command(sub, "cdf-region", _cmd_cdf_region, "P(S < Omega) for eigenvalue-aligned Omega",
                 trunc=_CDF_TRUNCATION, model=True)
    p.add_argument("--omega", help="eigenvalues of the region boundary")

    p = _command(sub, "density", _cmd_density, "joint eigenvalue density",
                 trunc=("max(60, 4 c sum(eigs)), c = (beta/2)/min(sigma)", "1e-11"), model=True)
    p.add_argument("--eigs", help="ordered eigenvalues, descending")

    p = _command(sub, "verify", _cmd_verify, "run Monte Carlo identity checks", beta=False)
    p.add_argument("identity", nargs="?", default="all",
                   help="'all' or a substring filter on case labels")
    p.add_argument("--quick", action="store_true", help="reduced sample budgets")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--z-max", type=float, default=DEFAULT_Z_MAX)
    p.add_argument("--rel-max", type=float, default=DEFAULT_REL_MAX)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for interface parity; never changes values")

    p = _command(sub, "figures", _cmd_figures, "emit the distribution-function CSVs", beta=False)
    p.add_argument("figure", choices=sorted(_FIGURES))
    p.add_argument("--grid", help="start:stop:points (default per figure)")

    return parser


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise DomainError(f"--{name} is required (flag or config file)")


def _cmd_jack(args) -> int:
    _require(args, "kappa", "eigs")
    alg = DivisionAlgebra(args.beta)
    kappa = parse_partition(args.kappa)
    x = SpectralArgument(_parse_floats(args.eigs))
    fn = jack_C if args.normalization == "C" else jack_J
    _emit([_fmt(fn(kappa, x, alg))], args.output)
    return 0


def _cmd_pfq(args) -> int:
    _require(args, "eigs")
    alg = DivisionAlgebra(args.beta)
    x = _parse_floats(args.eigs)
    spec = HypergeomSpec(_parse_floats(args.upper), _parse_floats(args.lower), alg, len(x))
    trunc = _truncation(args)
    if args.eigs2:
        res = pfq_two(spec, x, _parse_floats(args.eigs2), trunc)
    else:
        res = pfq(spec, x, trunc)
    if not res.converged:
        print(f"warning: series not converged at degree {res.degrees_used}", file=sys.stderr)
    _emit([_fmt(res.value)], args.output)
    return 0


def _cmd_gamma(args) -> int:
    _require(args, "a")
    alg = DivisionAlgebra(args.beta)
    if args.kappa:
        gamma = mv_gamma_weighted_ln if args.log else mv_gamma_weighted
        value = gamma(args.m, alg, args.a, parse_partition(args.kappa), +1 if args.sign == "+" else -1)
    else:
        value = mv_gamma_ln(args.m, alg, args.a) if args.log else mv_gamma(args.m, alg, args.a)
    _emit([_fmt(value)], args.output)
    return 0


def _model(args) -> WishartModel:
    if args.n is None:
        raise DomainError("--n (degrees of freedom) is required")
    sigma = _parse_floats(args.sigma)
    if len(sigma) == 1 and args.m > 1:
        sigma = sigma * args.m
    return WishartModel(args.m, args.n, sigma, DivisionAlgebra(args.beta))


def _curve(grid, columns, output) -> int:
    """A CSV of x and one column per (label, function) over the grid, each
    function read as 0 at x <= 0."""
    lines = ["x," + ",".join(label for label, _ in columns)]
    for x in map(float, grid):
        lines.append(",".join([_fmt(x), *(_fmt(0.0 if x <= 0 else f(x)) for _, f in columns)]))
    _emit(lines, output)
    return 0


def _cmd_cdf(args) -> int:
    """cdf-max at --x or cdf-min at --y, or either over a --grid curve: one
    of the two, from the command line or the config file alike."""
    model = _model(args)
    if args.command == "cdf-max":
        label, flag, law = "cdf_lambda_max", "x", partial(cdf_lambda_max, trunc=_truncation(args))
    else:
        label, flag, law = "cdf_lambda_min", "y", cdf_lambda_min
    point = getattr(args, flag)
    if (point is None) == (not args.grid):
        raise DomainError(f"provide --{flag} or --grid" + (", not both" if args.grid else ""))
    if args.grid:
        return _curve(_parse_grid(args.grid), [(label, partial(law, model))], args.output)
    _emit([_fmt(law(model, point))], args.output)
    return 0


def _cmd_cdf_region(args) -> int:
    _require(args, "omega")
    model = _model(args)
    trunc = _truncation(args)
    _emit([_fmt(cdf_wishart_region(model, _parse_floats(args.omega), trunc))], args.output)
    return 0


def _cmd_density(args) -> int:
    _require(args, "eigs")
    model = _model(args)
    _emit([_fmt(joint_eigen_density(model, _parse_floats(args.eigs), _truncation(args)))], args.output)
    return 0


def _cmd_verify(args) -> int:
    print(f"seed: {args.seed}", file=sys.stderr)
    only = None if args.identity == "all" else args.identity
    reports = run_suite(quick=args.quick, seed=args.seed, only=only,
                        z_max=args.z_max, rel_max=args.rel_max)
    if not reports:
        raise DomainError(f"no identity matches {args.identity!r}")
    lines = ["identity_id,param_digest,analytic,estimate,std_error,z,rel,pass"]
    lines += [r.to_line() for r in reports]
    npass = sum(r.passed for r in reports)
    _emit(lines, args.output)
    print(f"{npass}/{len(reports)} identities passed", file=sys.stderr)
    return 0 if npass == len(reports) else 1


def _cmd_figures(args) -> int:
    n, sigma, which, default_grid = _FIGURES[args.figure]
    grid = _parse_grid(args.grid) if args.grid else np.linspace(*default_grid)
    cdf = cdf_lambda_max if which == "max" else cdf_lambda_min
    return _curve(grid, [(f"cdf_beta{b}", partial(cdf, WishartModel(2, n, sigma, DivisionAlgebra(b))))
                         for b in (1, 2, 4, 8)], args.output)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        return args.run(args)
    except (DomainError, UnsupportedParameterError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
