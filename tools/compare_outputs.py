"""Compare what the program prints at a parent commit and in the working tree.

    python3 tools/compare_outputs.py --parent HEAD~1

Run it from the repository root.  The parent's committed files are exported
as ``tools/bench_pairs.py`` exports them (``git archive`` into a temporary
directory), and the change is the working tree as it is.  On both sides the
script runs, each in a fresh process:

- ``jackdiv figures fig1`` and ``jackdiv figures fig2``;
- ``jackdiv cdf-min`` on a grid at m = 3 (``M3_CDF_MIN``), the smallest-
  eigenvalue path that neither figure nor perfbench reaches;
- ``jackdiv cdf-max`` on a far-tail grid at m = 2 (``FAR_TAIL_CDF_MAX``),
  where the Chernoff bound answers most points;
- ``jackdiv verify all --quick --seed S`` at each of perfbench's
  ``VERIFY_SUITE_SEEDS``;
- every operation of perfbench's ``figures`` and ``cdf_m3`` workloads at
  seed 1, one ``key repr(value)`` line each;
- the bits of every quick-suite report (``VERIFY_BITS``): ``repr`` of the
  estimate and the standard error of each case at the first suite seed,
  which the report lines print rounded;
- Wishart and cone draws (``WISHART_DRAWS``): ``sample_wishart_eigs`` and
  the X and log-determinant of ``ConeSampler.sample`` at m = 1, 2, 3 and
  beta = 1, 2, 4, the m = 1 and m = 3 paths and the beta = 4 embedding that
  no figure and no quick verify run reaches; X as its (count, m, m) array
  on both sides, an m = 2 ``_mat2.Entries`` assembled;
- Haar draws (``HAAR_DRAWS``) at m = 2, 3 and beta = 1, 2, 4: Q, the
  spectra of X H* Y H at a well-conditioned and an ill-conditioned Y, and
  the splitting and two-matrix checks, the m = 3 and beta = 4 Haar paths
  that no other output reaches draw by draw;
- ``joint_eigen_density`` (``DENSITY_VALUES``) at m = 1, 2, 3 and beta =
  1, 2, 4, 8, two scales and two spectra each, one ``repr`` line each with
  the value and degrees of its coupling series: that series' first argument
  (beta/2)(1/sigma_min - 1/sigma) ends in a zero on every call, two where
  the smallest scale repeats, so each line checks the evaluator's dropping
  of trailing zeros apart from the density's constant;
- ``ChatEvaluator.degree_values`` (``JACK_VALUES``) at beta = 1, 2, 4, 8
  and m = 1..5 to degree 12, unbounded and bounded: spectra positive, of
  mixed signs, with trailing and with interior zeros, and batches, one
  sha256 line per case, so that the one-spectrum dict stages (m >= 4) and
  the batched recurrence are compared bit for bit;
- ``jackdiv gamma`` over a grid (``GAMMA_VALUES``), in one process: m = 1,
  2, 3, beta = 1, 2, 4, 8, plain and weighted by (2, 1) and (3) at both
  signs, the value and its log, at a below the domain, inside it and at
  1e306, so that every weighted-gamma path and its ``error:`` lines are
  compared through the command line, the same interface on both sides;
- ``jackdiv.cli.main`` over argument lists (``CLI_ARGV``), in one process
  in a fresh working directory: every subcommand once, a flag as
  ``--flag value`` and as ``--flag=value``, config files (a key the command
  line also gives and one it does not, and each refusal of a config line),
  the abbreviated flags ``--sig``, ``--lo`` and ``--be``, a truncation flag
  alone on each command that has them, the removed ``--stall-window``, and a
  point with a grid from the command line and from a config file, each with
  its output, its ``error:`` line and its exit status.

Standard output and standard error are compared apart.  For each output it
prints ``identical``, or the number of differing lines and the largest
relative difference between the numbers of corresponding lines, with the
first line where it occurs (``inf`` when the text around the numbers, or the
number of lines, differs); then every differing line, its relative
difference and its text on both sides.  The exit status is 0 when every
output is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export  # noqa: E402

# every operation of two perfbench workloads, one line each, run in a side's root
PERFBENCH_VALUES = """
import sys
sys.path[:0] = ["perfbench", "src"]
import workloads
jd = workloads.import_library()
ref = workloads.load_reference()
for workload in ("figures", "cdf_m3"):
    for op in workloads.build_ops(jd, workload, 1, ref):
        try:
            value = repr(float(op.call()))
        except Exception as exc:
            value = f"{type(exc).__name__}: {exc}"
        print(workload, op.key, value)
"""

# repr of the estimate and the standard error of every quick-suite case at
# one suite seed, run in a side's root
VERIFY_BITS = """
import sys
from jackdiv.verify import default_suite
for label, thunk in default_suite(quick=True, seed=int(sys.argv[1])):
    report = thunk()
    print(label, repr(report.estimate), repr(report.std_error))
"""

# Wishart spectra and cone draws at m = 1, 2, 3 and beta = 1, 2, 4 (at m = 2
# also an ill-conditioned scale), run in a side's root: for each case the
# first rows in full and a sha256 of the bytes of every draw; a cone draw's X
# as its (count, m, m) array whichever form the sampler returns
WISHART_DRAWS = """
import hashlib
import numpy as np
from jackdiv import _mat2
from jackdiv.core import DivisionAlgebra
from jackdiv.wishart import ConeSampler, WishartModel, sample_wishart_eigs

def show(case, arrays, rows=4):
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()
    print(case, "sha256", digest)
    for i in range(rows):
        print(case, "row", i, " ".join(repr(v) for a in arrays for v in np.ravel(a[i]).tolist()))

models = [(1, 3, (2.0,)), (2, 4, (1.0, 2.0)), (2, 5, (1.0, 1e-8)), (3, 6, (1.0, 2.0, 3.0))]
for beta in (1, 2, 4):
    alg = DivisionAlgebra(beta)
    for m, n, sigma in models:
        show(f"eigs b{beta} m{m} n{n} sigma{sigma}", [sample_wishart_eigs(WishartModel(m, n, sigma, alg), 61, 5000)])
    for m in (1, 2, 3):
        sampler = ConeSampler(m, alg, 2 * m + 1.5, (0.5, 1.5, 2.5)[:m])
        rng = np.random.default_rng(np.random.PCG64(67))
        x, logdet = sampler.sample(rng, 2000)
        x = _mat2.assemble(*x) if isinstance(x, tuple) else x
        show(f"cone b{beta} m{m}", [x, logdet])
"""

# Haar draws at m = 2, 3 and beta = 1, 2, 4, run in a side's root: for each
# case a sha256 of Q (of the quaternion pair at beta = 4) and its first rows,
# the spectra of X H* Y H at a well-conditioned and an ill-conditioned y, and
# the report lines of the two checks that read H
HAAR_DRAWS = """
import hashlib
import numpy as np
from jackdiv import _mat2, verify
from jackdiv.core import DivisionAlgebra, Partition

def rows(case, arrays, count=4):
    for i in range(count):
        print(case, "row", i, " ".join(repr(v) for a in arrays for v in np.ravel(a[i]).tolist()))

xs = {2: (1.0, 2.0), 3: (1.0, 2.0, 0.5)}
ys = {2: [(3.0, 0.5), (3.0, 3e-12)], 3: [(2.0, 1.0, 0.8), (3.0, 1.0, 3e-12)]}
kappa = Partition((2, 1))
for beta in (1, 2, 4):
    alg = DivisionAlgebra(beta)
    for m in (2, 3):
        case = f"haar b{beta} m{m}"
        h = verify._haar_batch(m, alg, np.random.default_rng(np.random.PCG64(71)), 2000)
        q = list(h) if beta == 4 else [h]
        print(case, "sha256", hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in q)).hexdigest())
        rows(case + " Q", q)
        for y in ys[m]:
            rows(f"{case} spectra y{y}", [_mat2.conjugated_spectra(xs[m], y, alg, h)])
        print(verify.verify_split_integral(kappa, xs[m], ys[m][0], m, alg, 5000, 73).to_line())
        print(verify.verify_two_matrix_0f0(xs[m], ys[m][0], m, alg, 5000, 79).to_line())
"""

# joint_eigen_density over m = 1, 2, 3, beta = 1, 2, 4, 8, two scales and two
# spectra each, run in a side's root: repr of the density, and of the value
# and degrees of its coupling series pfq_two(X + cI, Lambda), whose first
# argument ends in as many zeros as sigma has entries at its minimum
DENSITY_VALUES = """
from jackdiv import wishart
from jackdiv.core import DivisionAlgebra
from jackdiv.wishart import WishartModel, joint_eigen_density

couplings = []

def pfq_two(spec, x, y, trunc=None):
    res = real(spec, x, y, trunc)
    couplings.append((sum(v == 0.0 for v in x), res))
    return res

real, wishart.pfq_two = wishart.pfq_two, pfq_two
cases = {1: [[(1.0,), (2.5,)], [(1.3,), (4.0,)]],
         2: [[(1.0, 2.0), (0.5, 3.0)], [(3.0, 1.0), (10.0, 2.0)]],
         3: [[(1.0, 2.0, 3.0), (0.7, 0.7, 1.9)], [(6.0, 3.0, 1.0), (9.0, 4.0, 0.5)]]}
for m, (sigmas, lams) in cases.items():
    for beta in (1, 2, 4, 8):
        for sigma in sigmas:
            model = WishartModel(m, m + 3, sigma, DivisionAlgebra(beta))
            for lam in lams:
                density = joint_eigen_density(model, lam)
                zeros, res = couplings.pop()
                print(f"m{m} b{beta} sigma{sigma} lam{lam} density {density!r} coupling {res.value!r} "
                      f"degrees {res.degrees_used} zeros {zeros}")
"""

# ChatEvaluator.degree_values over beta = 1, 2, 4, 8 and m = 1..5, run in a
# side's root: spectra positive, of mixed signs, with trailing zeros and with
# interior zeros, and batches of both signs, each unbounded and bounded by a
# shape, to degree 12; per case the count of dicts and values and a sha256 of
# the bytes of every key and value in the order read
JACK_VALUES = """
import hashlib
import numpy as np
from jackdiv.core import DivisionAlgebra
from jackdiv.jack import ChatEvaluator, JackTable

def spectra(m, rng):
    yield "positive", tuple(sorted(rng.uniform(0.1, 1.5, size=m), reverse=True))
    yield "mixed", tuple(sorted(rng.uniform(-1.0, 1.5, size=m), reverse=True))
    if m > 1:
        head = tuple(sorted(rng.uniform(0.1, 1.5, size=(m + 1) // 2), reverse=True))
        yield "trailing-zeros", head + (0.0,) * (m - len(head))
    if m > 2:
        yield "interior-zeros", (1.2,) + (0.0,) * (m - 2) + (-0.7,)
    yield "batch-positive", rng.uniform(0.1, 1.5, size=(3, m))
    yield "batch-mixed", rng.uniform(-1.0, 1.5, size=(3, m))

for beta in (1, 2, 4, 8):
    table = JackTable(DivisionAlgebra(beta))
    rng = np.random.default_rng(83)
    for m in range(1, 6):
        for kind, x in spectra(m, rng):
            for within in (None, (6, 3, 2, 1, 1)[:m]):
                evaluator = ChatEvaluator(x, table, within)
                digest, dicts, values = hashlib.sha256(), 0, 0
                for k in range(13):
                    chat = evaluator.degree_values(k)
                    dicts, values = dicts + 1, values + len(chat)
                    for kappa, value in chat.items():
                        digest.update(repr(kappa).encode() + np.asarray(value, dtype=float).tobytes())
                print(f"b{beta} m{m} {kind} within{within} dicts {dicts} values {values} sha256 {digest.hexdigest()}")
"""

# jackdiv gamma over m, beta, weight, sign, --log and a, run in a side's root:
# each argument list, then what the command printed, errors included
GAMMA_VALUES = """
import contextlib, sys
from jackdiv.cli import main
for m in (1, 2, 3):
    for beta in (1, 2, 4, 8):
        c = (m - 1) * beta / 2
        for weight in ([], ["--kappa", "2,1", "--sign", "+"], ["--kappa", "2,1", "--sign", "-"],
                       ["--kappa", "3", "--sign", "+"], ["--kappa", "3", "--sign", "-"]):
            for log in ([], ["--log"]):
                for a in (c - 2.5, c - 0.25, c + 0.5, c + 3.25, 1e306):
                    argv = ["gamma", "--m", str(m), "--beta", str(beta), f"--a={a!r}", *weight, *log]
                    print(" ".join(argv), end=": ", flush=True)
                    with contextlib.redirect_stderr(sys.stdout):
                        main(argv)
"""

# jackdiv.cli.main over argument lists, run in a side's root: each argument
# list, then its stdout, the error: line and the exit status (argparse's
# refusals included).  The config files are written to a fresh working
# directory under relative names, so that both sides print the same text.
CLI_ARGV = """
import contextlib, io, os, sys, tempfile
from jackdiv.cli import main
configs = {"sigma.cfg": "sigma=1,1", "model.cfg": "# fig1's model\\n\\nm=2\\nn=4\\nsigma=1,2",
           "no-equals.cfg": "beta 2", "unknown.cfg": "b=1", "other.cfg": "threads=2", "type.cfg": "m=abc",
           "choice.cfg": "normalization=c", "grid.cfg": "grid=0:8:3"}
model = ["--m", "2", "--n", "4"]
model3 = ["--m", "3", "--n", "6", "--sigma", "1,2,3"]
runs = [
    ["jack", "--kappa", "[2,1]", "--beta", "2", "--eigs", "1,2,3"],
    ["pfq", "--beta", "4", "--upper", "0.7", "--lower", "2.5", "--eigs", "0.3,-0.1"],
    ["gamma", "--m", "2", "--a", "1.5"],
    ["cdf-max", *model, "--sigma", "1,2", "--x", "5"],
    ["cdf-min", "--beta", "2", *model, "--sigma", "1,2", "--y", "1"],
    ["cdf-region", *model, "--sigma", "1,2", "--omega", "3,5"],
    ["density", *model, "--sigma", "1,2", "--eigs", "3,1"],
    ["verify", "two-matrix-0f0/b1", "--quick"],
    ["figures", "fig1", "--grid", "0:8:5"],
    ["cdf-max", "--m=2", "--n=4", "--sigma=1,2", "--x=5"],
    ["cdf-max", *model, "--sigma", "1,2", "--x", "5", "--config", "sigma.cfg"],
    ["cdf-max", *model, "--sigma=1,2", "--x", "5", "--config", "sigma.cfg"],
    ["cdf-max", *model, "--x", "5", "--config", "sigma.cfg"],
    ["cdf-max", "--x", "5", "--config", "model.cfg"],
    ["gamma", "--a", "2", "--config", "no-equals.cfg"],
    ["gamma", "--a", "2", "--config", "unknown.cfg"],
    ["gamma", "--a", "2", "--config", "other.cfg"],
    ["gamma", "--a", "2", "--config", "type.cfg"],
    ["jack", "--kappa", "[1]", "--eigs", "1,2", "--config", "choice.cfg"],
    ["cdf-max", *model, "--sig", "1,2", "--x", "5", "--config", "sigma.cfg"],
    ["gamma", "--a", "2", "--lo"],
    ["cdf-min", *model, "--y", "1", "--be", "2"],
    ["cdf-max", *model3, "--x", "9", "--max-degree", "400"],
    ["cdf-region", *model3, "--omega", "8,12,20", "--max-degree", "300"],
    ["density", *model3, "--eigs", "6,3,1", "--max-degree", "100"],
    ["pfq", "--upper", "0.7", "--lower", "2.3", "--eigs", "0.6,0.2", "--rel-tol", "1e-10"],
    ["cdf-max", *model3, "--x", "9", "--stall-window", "3"],
    ["cdf-max", *model, "--x", "5", "--grid", "0:8:3"],
    ["cdf-max", *model, "--x", "5", "--config", "grid.cfg"],
]
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    for name, text in configs.items():
        with open(name, "w") as fh:
            fh.write(text + "\\n")
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        print("argv:", " ".join(argv))
        print(out.getvalue(), end="")
        for line in err.getvalue().splitlines():
            if "error:" in line:
                print(line)
        print("exit:", status)
"""

# the m >= 3 smallest-eigenvalue law, 9 points
M3_CDF_MIN = ["cdf-min", "--beta", "2", "--m", "3", "--n", "6", "--sigma", "1,2,3", "--grid", "0:8:9"]
# the far upper tail of the largest eigenvalue, 40 points out to x = 1000
FAR_TAIL_CDF_MAX = ["cdf-max", "--beta", "8", "--m", "2", "--n", "4", "--sigma", "1,2", "--grid", "25:1000:40"]

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def suite_seeds() -> tuple[int, ...]:
    """perfbench's ``VERIFY_SUITE_SEEDS``, from the working tree."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.VERIFY_SUITE_SEEDS


def line_difference(a: str, b: str) -> float:
    """Largest relative difference between the numbers of two lines: 0 when
    they are equal, ``inf`` when the text around the numbers differs."""
    if a == b:
        return 0.0
    if _NUMBER.split(a) != _NUMBER.split(b):
        return math.inf
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return worst


def differing_lines(parent: str, change: str) -> list[tuple[int, float]]:
    """(1-based number, relative difference) of every line whose text
    differs.  Lines past the end of the shorter text differ by ``inf``."""
    a, b = parent.splitlines(), change.splitlines()
    found = [(i, line_difference(x, y)) for i, (x, y) in enumerate(zip(a, b), 1) if x != y]
    found += [(i, math.inf) for i in range(min(len(a), len(b)) + 1, max(len(a), len(b)) + 1)]
    if len(a) == len(b) and parent.endswith("\n") != change.endswith("\n"):
        found.append((len(a) + 1, math.inf))
    return found


def compare(parent: str, change: str) -> tuple[float, int] | None:
    """None when the texts are identical, else (largest relative difference,
    1-based number of the first line where it occurs)."""
    if parent == change:
        return None
    found = differing_lines(parent, change)
    worst = max(d for _, d in found)
    return worst, next(i for i, d in found if d == worst)


def report(name: str, parent: str, change: str) -> str:
    """One line for the output ``name``: ``identical``, or the count of
    differing lines and the largest difference; then each differing line on
    both sides."""
    found = compare(parent, change)
    if found is None:
        return f"{name}: identical"
    worst, line = found
    a, b = parent.splitlines(), change.splitlines()
    every = differing_lines(parent, change)
    shown = [f"{name}: {len(every)} differing lines, largest relative difference {worst:.3g} at line {line}"]
    for i, d in every:
        shown += [f"  line {i}: relative difference {d:.3g}",
                  f"    parent: {a[i - 1] if i <= len(a) else '<no line>'}",
                  f"    change: {b[i - 1] if i <= len(b) else '<no line>'}"]
    return "\n".join(shown)


def run(root: Path, args: list[str]) -> tuple[str, str]:
    """(stdout, stderr) of ``python args`` in ``root``, with its library first on the path."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True, text=True)
    return done.stdout, done.stderr


def outputs(seeds) -> dict[str, list[str]]:
    """The argument list of each output, by name."""
    cli = ["-m", "jackdiv.cli"]
    runs = {f"figures {fig}": cli + ["figures", fig] for fig in ("fig1", "fig2")}
    runs["cdf-min m3"] = cli + M3_CDF_MIN
    runs["cdf-max far tail"] = cli + FAR_TAIL_CDF_MAX
    runs.update({f"verify seed {s}": cli + ["verify", "all", "--quick", "--seed", str(s)] for s in seeds})
    runs[f"verify bits seed {seeds[0]}"] = ["-c", VERIFY_BITS, str(seeds[0])]
    runs["perfbench values"] = ["-c", PERFBENCH_VALUES]
    runs["wishart draws"] = ["-c", WISHART_DRAWS]
    runs["haar draws"] = ["-c", HAAR_DRAWS]
    runs["density values"] = ["-c", DENSITY_VALUES]
    runs["jack values"] = ["-c", JACK_VALUES]
    runs["gamma values"] = ["-c", GAMMA_VALUES]
    runs["cli argv"] = ["-c", CLI_ARGV]
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit the working tree is compared with")
    parser.add_argument("--workdir", type=Path, help="where the export goes (default: a temporary directory)")
    args = parser.parse_args()

    identical = True
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        roots = {"parent": export(args.parent, Path(tmp) / "parent"), "change": ROOT}
        for name, argv in outputs(suite_seeds()).items():
            (p_out, p_err), (c_out, c_err) = (run(roots[side], argv) for side in ("parent", "change"))
            for stream, parent, change in (("stdout", p_out, c_out), ("stderr", p_err, c_err)):
                print(report(f"{name} {stream}", parent, change), flush=True)
                identical &= parent == change
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
