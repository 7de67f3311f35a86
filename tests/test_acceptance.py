"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Monte Carlo criteria use fixed seeds, so outcomes are
reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from jackdiv import _mat2
from jackdiv.core import DivisionAlgebra, Partition, enumerate_partitions
from jackdiv.hypergeom import (
    HypergeomSpec,
    SeriesTruncation,
    euler_2f1,
    kummer_1f1,
    pfq,
)
from jackdiv.jack import ChatEvaluator, get_table, jack_C, jack_C_at_identity, jack_C_batch
from jackdiv.special import (
    WeightedGammaQuery,
    gen_pochhammer,
    mv_gamma,
    mv_gamma_weighted,
)
from jackdiv.verify import (
    _haar_batch,
    _mean_se,
    _rng,
    verify_beta_jack,
    verify_incomplete,
    verify_laplace_jack,
    verify_stiefel_0f1,
    verify_radial_kernel,
    verify_beta2_jack,
    verify_two_matrix_0f0,
)
from jackdiv.wishart import WishartModel, cdf_lambda_max, cdf_lambda_min, sample_wishart_eigs

from oracles import jack_C_oracle

ALGEBRAS = [DivisionAlgebra(b) for b in (1, 2, 4, 8)]
B1, B2, B4, B8 = ALGEBRAS


def _report(num, text):
    print(f"[criterion {num:02d}] PASS: {text}")


def test_criterion_01_jack_normalization():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    checks = 0
    for idx in range(200):
        m = idx % 4 + 1
        x = rng.uniform(0.0, 2.0, size=m)
        tr = x.sum()
        for alg in ALGEBRAS:
            dp = ChatEvaluator(x, get_table(alg))
            for k in range(1, 9):
                total = math.fsum(dp.degree_values(k).values()) * math.factorial(k)
                err = abs(total - tr**k)
                assert err <= 1e-9 * tr**k
                worst = max(worst, err / tr**k)
                checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"{checks} normalization sums, worst rel {worst:.2e}, {elapsed:.1f}s < 30s")


def test_criterion_02_small_weight_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for alg in ALGEBRAS:
        for m in (1, 2, 3):
            x = rng.uniform(0.2, 1.8, size=m)
            for k in range(1, 5):
                for p in enumerate_partitions(k, m):
                    got = jack_C(p, x, alg)
                    want = jack_C_oracle(p, x, alg)
                    assert got == pytest.approx(want, rel=1e-10)
                    worst = max(worst, abs(got - want) / abs(want))
    _report(2, f"linear-system oracle matched, worst rel {worst:.2e}")


def test_criterion_03_identity_closed_form():
    worst = 0.0
    count = 0
    for alg in ALGEBRAS:
        for m in (1, 2, 3, 5):
            ones = np.ones(m)
            for k in range(1, 9):
                for p in enumerate_partitions(k, m):
                    closed = jack_C_at_identity(p, m, alg)
                    direct = jack_C(p, ones, alg)
                    assert closed == pytest.approx(direct, rel=1e-10)
                    if closed:
                        worst = max(worst, abs(closed - direct) / closed)
                    count += 1
    _report(3, f"{count} identity evaluations matched to rel 1e-10 (worst {worst:.2e})")


def test_criterion_04_weighted_gamma_grid():
    points = 0
    for alg in ALGEBRAS:
        beta = alg.beta
        for m in (1, 2, 3, 4):
            c = (m - 1) * beta / 2
            kappas = [p for k in (0, 1, 2, 3, 4, 6) for p in enumerate_partitions(k, m)][:10]
            for p in kappas:
                for da in (0.35, 1.2, 3.7):
                    a = c + da
                    plus = mv_gamma_weighted(WeightedGammaQuery(a, m, alg, p, +1))
                    want = gen_pochhammer(a, p, alg) * mv_gamma(m, alg, a)
                    assert plus == pytest.approx(want, rel=1e-12)
                    a2 = c + p.part(1) + da
                    minus = mv_gamma_weighted(WeightedGammaQuery(a2, m, alg, p, -1))
                    refl = (-1) ** p.weight * mv_gamma(m, alg, a2) / gen_pochhammer(
                        -a2 + c + 1, p, alg
                    )
                    assert minus == pytest.approx(refl, rel=1e-12)
                    points += 2
    assert points >= 500
    _report(4, f"{points} weighted-gamma grid points at rel 1e-12")


def test_criterion_05_1f0_determinant_law():
    spectra = {
        1: [np.array([0.6]), np.array([-0.55])],
        2: [np.array([0.6, 0.25]), np.array([0.5, -0.4])],
        3: [np.array([0.6, 0.35, -0.2]), np.array([0.45, 0.2, 0.1])],
    }
    trunc = SeriesTruncation(max_degree=75, rel_tol=1e-11)
    worst = 0.0
    for alg in ALGEBRAS:
        for m, xs in spectra.items():
            for x in xs:
                for a in (0.5, 1.0, 2.5):
                    res = pfq(HypergeomSpec((a,), (), alg, m), x, trunc)
                    target = float(np.prod((1.0 - x) ** (-a)))
                    rel = abs(res.value - target) / abs(target)
                    assert rel <= 1e-8
                    worst = max(worst, rel)
    _report(5, f"determinant law across all beta, worst rel {worst:.2e}")


def test_criterion_06_kummer_relation():
    rng = np.random.default_rng(106)
    trunc = SeriesTruncation(max_degree=60, rel_tol=1e-12)
    worst = 0.0
    cases = 0
    while cases < 50:
        alg = ALGEBRAS[cases % 4]
        m = int(rng.integers(1, 4))
        c_bound = (m - 1) * alg.beta / 2
        a = float(rng.uniform(0.2, 2.0))
        c = c_bound + float(rng.uniform(0.4, 1.8))
        x = rng.uniform(-1.0, 1.0, size=m)
        lhs, rhs = kummer_1f1(a, c, x, alg, trunc)
        rel = abs(lhs.value - rhs.value) / abs(lhs.value)
        assert rel <= 1e-8
        worst = max(worst, rel)
        cases += 1
    _report(6, f"{cases} Kummer checks, worst rel {worst:.2e}")


def test_criterion_07_euler_relations():
    rng = np.random.default_rng(107)
    trunc = SeriesTruncation(max_degree=60, rel_tol=1e-12)
    worst = 0.0
    cases = 0
    while cases < 30:
        alg = ALGEBRAS[cases % 4]
        m = int(rng.integers(1, 4))
        c_bound = (m - 1) * alg.beta / 2
        a = float(rng.uniform(0.3, 1.6))
        b = float(rng.uniform(0.3, 1.6))
        c = c_bound + float(rng.uniform(0.5, 1.6))
        x = rng.uniform(-0.3, 0.3, size=m)
        r0, r1, r2 = euler_2f1(a, b, c, x, alg, trunc)
        spread = max(abs(r0.value - r1.value), abs(r0.value - r2.value)) / abs(r0.value)
        assert spread <= 1e-7
        worst = max(worst, spread)
        cases += 1
    _report(7, f"{cases} Euler three-way checks, worst rel {worst:.2e}")


def test_criterion_08_splitting_integral():
    start = time.monotonic()
    n_samples = 100_000
    kappas = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    xy = {
        2: [((1.0, 2.0), (3.0, 1.0)), ((0.5, 1.5), (2.0, 0.7))],
        3: [((1.0, 2.0, 0.5), (2.0, 1.0, 0.8)), ((0.4, 1.1, 2.2), (1.5, 0.6, 1.0))],
    }
    results = []
    for m in (2, 3):
        for beta in (1, 2, 4):
            alg = DivisionAlgebra(beta)
            table = get_table(alg)
            for x_eigs, y_eigs in xy[m]:
                rng = _rng(800 + 10 * m + beta)
                h = _haar_batch(m, alg, rng, n_samples)
                spectra = _mat2.conjugated_spectra(x_eigs, y_eigs, alg, h)
                for parts in kappas:
                    p = Partition(parts)
                    if p.length > m or len(results) >= 60:
                        continue
                    vals = jack_C_batch(p, spectra, alg, table)
                    est, se = _mean_se(vals)
                    analytic = (
                        jack_C(p, x_eigs, alg) * jack_C(p, y_eigs, alg)
                        / jack_C_at_identity(p, m, alg)
                    )
                    z = (est - analytic) / se if se > 1e-13 * abs(analytic) else 0.0
                    rel = abs(est - analytic) / abs(analytic)
                    results.append(abs(z) <= 3.0 and rel <= 0.02)
    good = sum(results)
    elapsed = time.monotonic() - start
    assert len(results) >= 60
    assert good >= 0.95 * len(results)
    assert elapsed < 120.0
    _report(8, f"{good}/{len(results)} group-average cases in tolerance, {elapsed:.0f}s < 120s")


def test_criterion_09_laplace_corrected_domain():
    n = 1_000_000
    runs = [
        verify_laplace_jack(1.7, Partition((2,)), (1.0, 0.5), (1.0, 1.0), 2, B1, n, 901),
        # corrected regime: a in ((m-1)beta/2 - k_m, (m-1)beta/2]
        verify_laplace_jack(0.25, Partition((1, 1)), (1.0, 0.5), (1.0, 1.0), 2, B1, n, 902),
        verify_laplace_jack(0.5, Partition((2, 2)), (1.0, 0.5), (1.2, 0.9), 2, B1, n, 903),
        verify_laplace_jack(0.9, Partition((2, 1)), (1.0, 0.5), (1.5, 1.0), 2, B2, n, 904),
        verify_laplace_jack(1.0, Partition((1, 1)), (0.8, 0.6), (1.0, 1.4), 2, B2, n, 905),
    ]
    for r in runs:
        assert abs(r.z_score) <= 3.0 and r.rel_error <= 0.05, r.identity_id
    worst = max(abs(r.z_score) for r in runs)
    _report(9, f"{len(runs)} Laplace-transform checks at 1e6 draws, worst |z| {worst:.2f}")


def test_criterion_10_beta_integrals():
    n = 1_000_000
    runs = [
        verify_beta_jack(2.0, 3.0, Partition((1, 1)), (1.0, 0.7), 2, B2, False, n, 910),
        verify_beta_jack(0.3, 2.0, Partition((1, 1)), (1.0, 0.7), 2, B1, False, n, 911),
        verify_beta_jack(4.6, 2.0, Partition((2,)), (1.0, 0.7), 2, B1, True, n, 912),
        # second-kind analogues, including a corrected-domain b
        verify_beta2_jack(5.6, 1.8, Partition((1, 1)), (1.0, 0.6), 2, B1, "r1", n, 913),
        verify_beta2_jack(5.3, 0.3, Partition((1, 1)), (1.0, 0.6), 2, B1, "r1", n, 914),
        verify_beta2_jack(2.0, 6.1, Partition((2,)), (1.0, 0.6), 2, B2, "r2", n, 915),
    ]
    for r in runs:
        assert abs(r.z_score) <= 3.0 and r.rel_error <= 0.05, r.identity_id
    worst = max(abs(r.z_score) for r in runs)
    _report(10, f"{len(runs)} beta-type integral checks at 1e6 draws, worst |z| {worst:.2f}")


def test_criterion_11_radial_kernels():
    n = 400_000
    runs = [
        verify_radial_kernel("exp", 3.3, Partition((1,)), (0.8, 0.4), (1.0, 1.3), 2, B1, True, n, 920),
        verify_radial_kernel("exp", 1.4, Partition((2,)), (0.8, 0.4), (1.0, 1.3), 2, B1, False, n, 921),
        verify_radial_kernel("exp_power", 1.4, Partition((2,)), (0.8, 0.4), (1.0, 1.3), 2, B1, False,
                        n, 922, j_power=1),
        verify_radial_kernel("exp_power", 3.4, Partition((1, 1)), (0.8, 0.4), (1.0, 1.3), 2, B1, True,
                        n, 923, j_power=2),
        verify_radial_kernel("pareto", 3.2, Partition((1,)), (0.8, 0.4), (1.0, 1.3), 2, B1, True,
                        n, 924, eta=4.0),
        verify_radial_kernel("pareto", 1.6, Partition((1, 1)), (0.8, 0.4), (1.0, 1.3), 2, B1, False,
                        n, 925, eta=5.0),
    ]
    for r in runs:
        assert r.passed, r.identity_id
    worst = max(abs(r.z_score) for r in runs)
    _report(11, f"radial kernels exp/exp*y^j/heavy-tail reproduced, worst |z| {worst:.2f}")


def test_criterion_12_incomplete_gamma_beta():
    # scalar-oracle agreement by quadrature
    a, lam, om = 1.5, 0.9, 1.3
    rep = verify_incomplete("gamma_lower", 1, B1, a, lambda_eigs=(lam,), omega_eigs=(om,),
                            n_samples=1000, seed=930)
    quad, _ = integrate.quad(lambda t: math.exp(-lam * t) * t ** (a - 1), 0, om)
    assert rep.analytic == pytest.approx(quad, rel=1e-3)
    # exact finite-sum upper tail at m=1, a=3 (r=2), symbolically
    lam, om = 1.1, 0.8
    rep2 = verify_incomplete("gamma_upper", 1, B1, 3.0, lambda_eigs=(lam,), omega_eigs=(om,),
                             n_samples=1000, seed=931)
    t = lam * om
    exact = math.exp(-t) * (1 + t + t * t / 2) * math.gamma(3.0) / lam**3
    assert rep2.analytic == pytest.approx(exact, rel=1e-12)
    # m=2 Monte Carlo passes
    runs = [
        verify_incomplete("gamma_lower", 2, B1, 1.5, lambda_eigs=(1.0, 0.5),
                          omega_eigs=(1.2, 0.8), n_samples=400_000, seed=932),
        verify_incomplete("beta", 2, B1, 1.4, b=2.2, xi_eigs=(0.55, 0.3),
                          n_samples=400_000, seed=933),
        verify_incomplete("gamma_upper", 2, B1, 3.5, lambda_eigs=(1.0, 0.7),
                          omega_eigs=(1.0, 0.6), n_samples=400_000, seed=934),
    ]
    for r in runs:
        assert r.passed, r.identity_id
    _report(12, "incomplete gamma/beta: quadrature, exact finite sum and MC all in tolerance")


def _sup_distance(model, analytic_fn, eigs_col, grid, n_samples, seed):
    samples = sample_wishart_eigs(model, seed, n_samples)[:, eigs_col]
    sup = 0.0
    for g in grid:
        emp = float((samples < g).mean())
        ana = analytic_fn(float(g))
        sup = max(sup, abs(emp - ana))
    return sup


def test_criterion_13_figure_one_lambda_max():
    start = time.monotonic()
    grid = np.linspace(0.5, 26.0, 32)
    sups = {}
    for beta in (1, 2, 4):
        model = WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta))
        sups[beta] = _sup_distance(model, lambda x: cdf_lambda_max(model, x), 0,
                                   grid, 100_000, 940 + beta)
        assert sups[beta] <= 0.02
    model8 = WishartModel(2, 4, (1.0, 2.0), B8)
    vals = [cdf_lambda_max(model8, float(x)) for x in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] <= 1e-6 and vals[-1] >= 0.995
    assert all(-1e-9 <= v <= 1 + 1e-6 for v in vals)
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _report(13, "largest-eigenvalue curves: sup-dist "
                + ", ".join(f"b{b}={s:.3f}" for b, s in sups.items())
                + f"; octonion curve monotone with limits 0/1; {elapsed:.0f}s < 180s")


def test_criterion_14_figure_two_lambda_min():
    grid = np.linspace(0.1, 16.0, 32)
    sups = {}
    for beta in (1, 2, 4):
        model = WishartModel(2, 7, (1.0, 2.0), DivisionAlgebra(beta))
        sups[beta] = _sup_distance(model, lambda y: cdf_lambda_min(model, y), 1,
                                   grid, 100_000, 950 + beta)
        assert sups[beta] <= 0.02
    model8 = WishartModel(2, 7, (1.0, 2.0), B8)
    vals = [cdf_lambda_min(model8, float(y)) for y in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] <= 1e-6 and vals[-1] >= 0.995
    _report(14, "smallest-eigenvalue exact sums: sup-dist "
                + ", ".join(f"b{b}={s:.3f}" for b, s in sups.items())
                + "; octonion curve monotone with limits 0/1")


def test_criterion_15_stiefel_integral():
    xx = 0.81
    rep1 = verify_stiefel_0f1((xx,), 1, 2, B1, 1000, 960)
    root = math.sqrt(xx)
    quad, _ = integrate.quad(
        lambda th: math.exp(root * math.cos(th)) / (2 * math.pi), 0, 2 * math.pi
    )
    assert rep1.analytic == pytest.approx(quad, rel=1e-4)
    runs = [
        verify_stiefel_0f1((0.9, 0.4), 2, 4, B1, 100_000, 961),
        verify_stiefel_0f1((0.9, 0.4), 2, 4, B2, 100_000, 962),
    ]
    for r in runs:
        assert r.passed, r.identity_id
    _report(15, "frame-average Bessel-type series: circle quadrature and MC pass")


def test_criterion_16_two_matrix_exponential_average():
    runs = [
        verify_two_matrix_0f0((0.5, 0.2), (0.3, 0.1), 2, DivisionAlgebra(beta), 100_000, 970 + beta)
        for beta in (1, 2, 4)
    ]
    for r in runs:
        assert r.passed, r.identity_id
    worst = max(abs(r.z_score) for r in runs)
    _report(16, f"two-matrix exponential average, worst |z| {worst:.2f}")


def test_criterion_17_determinism(tmp_path, capsys):
    from jackdiv.cli import main

    paths = [tmp_path / f"rep{i}.csv" for i in range(3)]
    argv = ["verify", "all", "--quick"]
    codes = [
        main(argv + ["--output", str(paths[0])]),
        main(argv + ["--output", str(paths[1])]),
        main(argv + ["--threads", "8", "--output", str(paths[2])]),
    ]
    capsys.readouterr()
    assert codes == [0, 0, 0]
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    _report(17, "verify-all reports byte-identical across runs and thread settings")
