"""Command-line front door.

Subcommands evaluate the library's functions (jack, pfq, gamma, cdf-max,
cdf-min, cdf-region, density), run the Monte Carlo identity suite (verify),
and emit figure CSVs (figures).  All randomness is seeded; the seed in use is
printed to stderr.  CSV output uses a header row, comma separators and 17
significant digits, and is byte-stable for a fixed configuration and seed.

A config file of key=value lines (via --config) sets the subcommand's flags
that take a value: the key is the flag's name without the leading dashes,
with '-' or '_' between words, and the value is converted as the flag
converts it.  Explicit command-line flags win over the file.  verify accepts
--threads, which never changes computed values: evaluation order is fixed.
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
from .special import WeightedGammaQuery, mv_gamma, mv_gamma_ln, mv_gamma_weighted
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


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace, argv: list[str]):
    """Overlay key=value config entries under explicit command-line flags.

    The keys are the dests of the subcommands' flags that take a value (not
    --config, not a switch); each value is converted by its flag's ``type``.
    """
    path = getattr(args, "config", None)
    if not path:
        return
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known, own = set(), {}
    for name, sp in sub.choices.items():
        for action in sp._actions:
            if action.option_strings and action.nargs != 0 and action.dest != "config":
                known.add(action.dest)
                if name == args.command:
                    own[action.dest] = action
    explicit = set()
    for tok in argv:
        if tok.startswith("--"):
            explicit.add(tok[2:].split("=", 1)[0].replace("-", "_"))
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
            if key in explicit:
                continue
            action, value = own[key], value.strip()
            try:
                converted = (action.type or str)(value)
                if action.choices and converted not in action.choices:
                    raise ValueError(value)
            except ValueError:
                raise DomainError(
                    f"{path}:{lineno}: invalid value {value!r} for config key {key!r}") from None
            setattr(args, key, converted)


def _emit(lines: list[str], output: str | None):
    text = "\n".join(lines) + "\n"
    if output and output != "-":
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_TRUNCATION_FLAGS = ("max_degree", "rel_tol", "stall_window")


def _truncation(args) -> SeriesTruncation | None:
    """The truncation flags given, with SeriesTruncation defaults for the rest
    (no ``max_degree``: the series sizes its own cap, 40 for ``pfq``, from the
    trace for ``cdf-max`` and ``cdf-region``, from the eigenvalues for
    ``density``); None when no flag is given."""
    given = {name: getattr(args, name) for name in _TRUNCATION_FLAGS if getattr(args, name) is not None}
    return SeriesTruncation(**given) if given else None


def _add_common(sp, trunc=False, model=False, beta=True):
    if beta:
        sp.add_argument("--beta", type=int, default=1,
                        help="division algebra dimension (1, 2, 4 or 8)")
    sp.add_argument("--config", help="key=value file setting this subcommand's valued flags")
    sp.add_argument("--output", help="write output to this path instead of stdout")
    if trunc:
        sp.add_argument("--max-degree", type=int, help="default 40 for pfq; sized from the argument by "
                        "cdf-max, cdf-region and density")
        sp.add_argument("--rel-tol", type=float, help=f"default {SeriesTruncation.rel_tol:g}")
        sp.add_argument("--stall-window", type=int, help=f"default {SeriesTruncation.stall_window}")
    if model:
        sp.add_argument("--m", type=int, default=2)
        sp.add_argument("--n", type=float, required=False)
        sp.add_argument("--sigma", default="1", help="scale eigenvalues, comma separated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jackdiv",
        description="Jack-polynomial calculus, matrix-argument hypergeometric "
        "functions and Wishart extreme-eigenvalue distributions for "
        "beta in {1, 2, 4, 8}.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jack", help="evaluate a Jack polynomial")
    _add_common(p)
    p.add_argument("--kappa", help="partition, e.g. [2,1]")
    p.add_argument("--eigs", help="eigenvalues, comma separated")
    p.add_argument("--normalization", choices=("C", "J"), default="C")

    p = sub.add_parser("pfq", help="evaluate a hypergeometric series")
    _add_common(p, trunc=True)
    p.add_argument("--upper", default="", help="upper parameters, comma separated")
    p.add_argument("--lower", default="", help="lower parameters, comma separated")
    p.add_argument("--eigs")
    p.add_argument("--eigs2", help="second spectrum (two-argument series)")

    p = sub.add_parser("gamma", help="multivariate gamma, plain or weighted")
    _add_common(p)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--a", type=float)
    p.add_argument("--kappa", help="weight partition for the weighted variant")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--log", action="store_true", help="print the log value")

    p = sub.add_parser("cdf-max", help="distribution function of the largest eigenvalue")
    _add_common(p, trunc=True, model=True)
    p.add_argument("--x", type=float, help="single evaluation point")
    p.add_argument("--grid", help="start:stop:points for a CSV curve")

    p = sub.add_parser("cdf-min", help="distribution function of the smallest eigenvalue")
    _add_common(p, model=True)
    p.add_argument("--y", type=float)
    p.add_argument("--grid")

    p = sub.add_parser("cdf-region", help="P(S < Omega) for eigenvalue-aligned Omega")
    _add_common(p, trunc=True, model=True)
    p.add_argument("--omega", help="eigenvalues of the region boundary")

    p = sub.add_parser("density", help="joint eigenvalue density")
    _add_common(p, trunc=True, model=True)
    p.add_argument("--eigs", help="ordered eigenvalues, descending")

    p = sub.add_parser("verify", help="run Monte Carlo identity checks")
    _add_common(p, beta=False)
    p.add_argument("identity", nargs="?", default="all",
                   help="'all' or a substring filter on case labels")
    p.add_argument("--quick", action="store_true", help="reduced sample budgets")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--z-max", type=float, default=DEFAULT_Z_MAX)
    p.add_argument("--rel-max", type=float, default=DEFAULT_REL_MAX)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for interface parity; never changes values")

    p = sub.add_parser("figures", help="emit the distribution-function CSVs")
    _add_common(p, beta=False)
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
        q = WeightedGammaQuery(args.a, args.m, alg, parse_partition(args.kappa),
                               +1 if args.sign == "+" else -1)
        from .special import mv_gamma_weighted_ln

        value = mv_gamma_weighted_ln(q) if args.log else mv_gamma_weighted(q)
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


def _cmd_cdf_max(args) -> int:
    model = _model(args)
    trunc = _truncation(args)
    if args.grid:
        return _curve(_parse_grid(args.grid), [("cdf_lambda_max", lambda x: cdf_lambda_max(model, x, trunc))],
                      args.output)
    if args.x is None:
        raise DomainError("provide --x or --grid")
    _emit([_fmt(cdf_lambda_max(model, args.x, trunc))], args.output)
    return 0


def _cmd_cdf_min(args) -> int:
    model = _model(args)
    if args.grid:
        return _curve(_parse_grid(args.grid), [("cdf_lambda_min", partial(cdf_lambda_min, model))], args.output)
    if args.y is None:
        raise DomainError("provide --y or --grid")
    _emit([_fmt(cdf_lambda_min(model, args.y))], args.output)
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


_COMMANDS = {
    "jack": _cmd_jack,
    "pfq": _cmd_pfq,
    "gamma": _cmd_gamma,
    "cdf-max": _cmd_cdf_max,
    "cdf-min": _cmd_cdf_min,
    "cdf-region": _cmd_cdf_region,
    "density": _cmd_density,
    "verify": _cmd_verify,
    "figures": _cmd_figures,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(parser, args, argv)
        return _COMMANDS[args.command](args)
    except (DomainError, UnsupportedParameterError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
