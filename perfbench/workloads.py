"""The three benchmark workloads: their operation lists and how each
operation's output is judged.

Every operation is a zero-argument callable that reaches the library through
module attributes looked up at call time, so the tracer's rebinding in
``spans.py`` sees each call.  Inputs depend only on the workload seed.
"""

from __future__ import annotations

import importlib
import json
import math
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Run records and span files (ignored by git).
RESULTS = Path(__file__).with_name("results")

WORKLOADS = ("figures", "cdf_m3", "verify_quick")

BETAS = (1, 2, 4, 8)
SAMPLEABLE_BETAS = (1, 2, 4)

# fig1 / fig2 of the paper: (label, n, which extreme eigenvalue, default grid
# stop, grid of acceptance criterion 13 / 14, eigenvalue column sampled).
FIGURES = (
    ("fig1", 4, "max", 24.0, (0.5, 26.0, 32), 0),
    ("fig2", 7, "min", 16.0, (0.1, 16.0, 32), 1),
)
SIGMA_M2 = (1.0, 2.0)
TAIL_XS = (200.0, 400.0)
EMPIRICAL_DRAWS = 100_000
EMPIRICAL_SUP_MAX = 0.02  # pass rule of acceptance criteria 13 and 14

M3_N = 6
M3_SIGMA = (1.0, 2.0, 3.0)
M3_MAX_XS = {1: range(1, 17), 2: range(1, 11)}
M3_OMEGA = (8.0, 12.0, 20.0)
M3_DENSITY_AT = (6.0, 3.0, 1.0)

# Deterministic values are checked against reference.json (written by
# make_reference.py at the commit that defined the benchmark):
# |value - ref| <= max(REL_TOL * |ref|, ABS_FLOOR).  REL_TOL is the ROADMAP's
# accuracy target for a new series engine; ABS_FLOOR keeps CDF values near 0
# from demanding relative accuracy no user sees.
REL_TOL = 1e-12
ABS_FLOOR = 1e-13
# The far-tail CDF values are within 1e-20 of 1, so the reference is 1.0.
TAIL_ABS_TOL = 1e-10

# Suite seeds at which `verify all --quick` passes 31 of 31 at the commit
# that defined the benchmark.  Each case is a 3-sigma test, so some seeds
# raise a false alarm: of 20260811..20260834, the four left out below do.
# Every workload seed runs one of these, so that a failure means a changed
# program rather than an unlucky draw.  This holds only for the random
# streams of that commit: a change that alters how samples are drawn must
# re-derive the list, showing the parent's outcome at each seed beside its
# own (see NOTES.md).
VERIFY_SUITE_SEEDS = (
    20260811, 20260812, 20260813, 20260814, 20260815, 20260816, 20260817,
    20260818, 20260819, 20260822, 20260823, 20260824, 20260825, 20260827,
    20260828, 20260829, 20260831, 20260832, 20260833, 20260834,
)


@dataclass(frozen=True)
class Op:
    """One timed operation: ``call()`` returns the value that ``kind``'s
    rule judges against ``ref``."""

    key: str
    kind: str  # "cdf", "density", "empirical" or "verify"
    call: Callable[[], object]
    ref: float | None = None
    abs_tol: float | None = None


def judge(op: Op, value) -> str | None:
    """Reason the output fails, or None when it is correct."""
    if op.kind == "verify":
        return None if value.passed else f"passed = False (z = {value.z_score:.3g})"
    value = float(value)
    if not math.isfinite(value):
        return f"non-finite value {value!r}"
    if op.kind == "cdf" and not 0.0 <= value <= 1.0:
        return f"CDF {value!r} outside [0, 1]"
    if op.kind == "density" and value < 0.0:
        return f"negative density {value!r}"
    if op.kind == "empirical":
        return None if value <= EMPIRICAL_SUP_MAX else f"sup distance {value:.4g} > {EMPIRICAL_SUP_MAX}"
    tol = op.abs_tol if op.abs_tol is not None else max(REL_TOL * abs(op.ref), ABS_FLOOR)
    if abs(value - op.ref) > tol:
        return f"{value!r} differs from reference {op.ref!r} by more than {tol:.3g}"
    return None


def known_defects() -> dict[str, str]:
    """Tail operations that failed at the commit that wrote reference.json
    (ROADMAP item 3: `inf` from pfq_positive_m2's linear-space sum, and an
    OverflowError from fsum), each with the failure reason it gave there.

    They are run, checked and counted in fail_ratio like every other
    operation.  A failure there is left out of the result's `failed` count
    only when its reason is that same one, so that any other outcome,
    a wrong finite value included, still counts.
    """
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        outcomes = json.load(fh)["tail_outcomes"]
    known = {}
    for key, outcome in outcomes.items():
        try:
            reason = judge(Op(key, "cdf", None, 1.0, TAIL_ABS_TOL), float(outcome))
        except ValueError:  # the recorded outcome is an exception
            reason = outcome
        if reason is not None:
            known[key] = reason
    return known


def spans_file(workload: str, seed: int) -> Path:
    """Where a traced run of ``workload`` at ``seed`` writes its spans."""
    return RESULTS / f"spans-{workload}-seed{seed}.npz"


def run_op(op: Op) -> tuple[float, float, object, str | None]:
    """Run one operation; returns (perf_counter at its start, at its end,
    value, failure reason or None)."""
    start = time.perf_counter()
    try:
        value = op.call()
    except Exception as exc:  # an operation that raises counts as failed
        return start, time.perf_counter(), None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return start, end, value, judge(op, value)


def derived_seed(seed: int, label: str) -> int:
    """Per-operation sampling seed, fixed by the workload seed and a label."""
    return zlib.crc32(f"{seed}/{label}".encode())


def figure_grid(stop: float) -> np.ndarray:
    """The 95 positive points of the CLI's default 96-point figure grid."""
    return np.linspace(0.0, stop, 96)[1:]


def import_library():
    """Import ``jackdiv`` and every submodule the workloads and the tracer
    reach, so that set-up pays the same imports on every workload."""
    jd = importlib.import_module("jackdiv")
    for name in ("core", "jack", "special", "hypergeom", "wishart", "verify", "cli", "_quat"):
        importlib.import_module(f"jackdiv.{name}")
    return jd


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["values"]


def _figures_ops(jd, seed: int, ref: dict) -> list[Op]:
    wishart = jd.wishart
    ops = []
    for label, n, which, stop, _, _ in FIGURES:
        for beta in BETAS:
            model = wishart.WishartModel(2, n, SIGMA_M2, jd.core.DivisionAlgebra(beta))
            for i, x in enumerate(figure_grid(stop), start=1):
                key = f"{label}/b{beta}/{i}"
                if which == "max":
                    call = lambda model=model, x=float(x): wishart.cdf_lambda_max(model, x)
                else:
                    call = lambda model=model, x=float(x): wishart.cdf_lambda_min(model, x)
                ops.append(Op(key, "cdf", call, ref[key]))
    for beta in BETAS:
        model = wishart.WishartModel(2, 4, SIGMA_M2, jd.core.DivisionAlgebra(beta))
        for x in TAIL_XS:
            call = lambda model=model, x=x: wishart.cdf_lambda_max(model, x)
            ops.append(Op(f"tail/b{beta}/x{x:g}", "cdf", call, 1.0, TAIL_ABS_TOL))
    for label, n, which, _, (lo, hi, points), col in FIGURES:
        grid = [float(g) for g in np.linspace(lo, hi, points)]
        for beta in SAMPLEABLE_BETAS:
            model = wishart.WishartModel(2, n, SIGMA_M2, jd.core.DivisionAlgebra(beta))
            key = f"emp/{label}/b{beta}"
            call = lambda model=model, which=which, grid=grid, col=col, s=derived_seed(seed, key): (
                _sup_distance(wishart, model, which, grid, col, s))
            ops.append(Op(key, "empirical", call))
    return ops


def _sup_distance(wishart, model, which, grid, col, seed) -> float:
    """Largest gap between the empirical and analytic CDF on ``grid``."""
    draws = wishart.sample_wishart_eigs(model, seed, EMPIRICAL_DRAWS)[:, col]
    cdf = wishart.cdf_lambda_max if which == "max" else wishart.cdf_lambda_min
    return max(abs(float((draws < g).mean()) - cdf(model, g)) for g in grid)


def _cdf_m3_ops(jd, ref: dict) -> list[Op]:
    wishart = jd.wishart
    ops = []
    for beta, xs in M3_MAX_XS.items():
        model = wishart.WishartModel(3, M3_N, M3_SIGMA, jd.core.DivisionAlgebra(beta))
        for x in xs:
            key = f"m3/max/b{beta}/x{x}"
            call = lambda model=model, x=float(x): wishart.cdf_lambda_max(model, x)
            ops.append(Op(key, "cdf", call, ref[key]))
        key = f"m3/region/b{beta}"
        call = lambda model=model: wishart.cdf_wishart_region(model, M3_OMEGA)
        ops.append(Op(key, "cdf", call, ref[key]))
    model = wishart.WishartModel(3, M3_N, M3_SIGMA, jd.core.DivisionAlgebra(1))
    key = "m3/density/b1"
    call = lambda: wishart.joint_eigen_density(model, M3_DENSITY_AT)
    ops.append(Op(key, "density", call, ref[key]))
    return ops


def suite_seed(seed: int) -> int:
    """The suite seed a workload seed runs with; listed seeds map to themselves."""
    return seed if seed in VERIFY_SUITE_SEEDS else VERIFY_SUITE_SEEDS[seed % len(VERIFY_SUITE_SEEDS)]


def _verify_ops(jd, seed: int) -> list[Op]:
    # The same thunks `verify.run_suite(quick=True, seed=...)` runs, in order,
    # one operation each.
    cases = jd.verify.default_suite(quick=True, seed=suite_seed(seed))
    return [Op(label, "verify", thunk) for label, thunk in cases]


def build_ops(jd, workload: str, seed: int, ref: dict) -> list[Op]:
    """Operation list of one pass of ``workload``; ``jd`` is the imported
    ``jackdiv`` package with its submodules loaded, ``ref`` the reference
    values (unused by `verify_quick`)."""
    if workload == "figures":
        return _figures_ops(jd, seed, ref)
    if workload == "cdf_m3":
        return _cdf_m3_ops(jd, ref)
    if workload == "verify_quick":
        return _verify_ops(jd, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
