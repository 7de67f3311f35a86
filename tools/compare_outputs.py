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
- Wishart and cone draws (``WISHART_DRAWS``): ``sample_wishart_eigs`` and
  the X and log-determinant of ``ConeSampler.sample`` at m = 1, 2, 3 and
  beta = 1, 2, 4, the m = 1 and m = 3 paths and the beta = 4 embedding that
  no figure and no quick verify run reaches;
- Haar draws (``HAAR_DRAWS``) at m = 2, 3 and beta = 1, 2, 4: Q, the
  spectra of X H* Y H at a well-conditioned and an ill-conditioned Y, and
  the splitting and two-matrix checks, the m = 3 and beta = 4 Haar paths
  that no other output reaches draw by draw.

Standard output and standard error are compared apart.  For each output it
prints ``identical``, or the largest relative difference between the numbers
of corresponding lines and the first line where it occurs (``inf`` when the
text around the numbers, or the number of lines, differs).  The exit status
is 0 when every output is identical and 1 otherwise.
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

# Wishart spectra and cone draws at m = 1, 2, 3 and beta = 1, 2, 4 (at m = 2
# also an ill-conditioned scale), run in a side's root: for each case the
# first rows in full and a sha256 of the bytes of every draw
WISHART_DRAWS = """
import hashlib
import numpy as np
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
        show(f"cone b{beta} m{m}", list(sampler.sample(rng, 2000)))
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


def compare(parent: str, change: str) -> tuple[float, int] | None:
    """None when the texts are identical, else (largest relative difference,
    1-based number of the first line where it occurs).  Lines past the end
    of the shorter text differ by ``inf``."""
    if parent == change:
        return None
    a, b = parent.splitlines(), change.splitlines()
    diffs = [line_difference(x, y) for x, y in zip(a, b)]
    diffs += [math.inf] * abs(len(a) - len(b))
    if len(a) == len(b) and parent.endswith("\n") != change.endswith("\n"):
        diffs.append(math.inf)
    worst = max(diffs)
    return worst, diffs.index(worst) + 1


def report(name: str, parent: str, change: str) -> str:
    """One line for the output ``name``, and the two differing lines."""
    found = compare(parent, change)
    if found is None:
        return f"{name}: identical"
    worst, line = found
    a, b = parent.splitlines(), change.splitlines()
    shown = [f"  parent: {a[line - 1] if line <= len(a) else '<no line>'}",
             f"  change: {b[line - 1] if line <= len(b) else '<no line>'}"]
    return "\n".join([f"{name}: largest relative difference {worst:.3g} at line {line}"] + shown)


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
    runs["perfbench values"] = ["-c", PERFBENCH_VALUES]
    runs["wishart draws"] = ["-c", WISHART_DRAWS]
    runs["haar draws"] = ["-c", HAAR_DRAWS]
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
