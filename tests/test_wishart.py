import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from jackdiv import _mat2, _quat, hypergeom, jack, wishart
from jackdiv.core import DivisionAlgebra, DomainError, UnsupportedParameterError
from jackdiv.hypergeom import HypergeomSpec, RaySeries, SeriesResult, SeriesTruncation
from jackdiv.jack import ChatEvaluator
from jackdiv.wishart import (
    ConvergenceWarning,
    WishartModel,
    cdf_lambda_max,
    cdf_lambda_min,
    cdf_wishart_region,
    joint_eigen_density,
    min_eig_sum_bound,
    sample_wishart_eigs,
)

from memos import clear_memos
from oracles import (complex_wishart_eigen_density, gaussian_wishart_eigs, khatri_lambda_max_cdf,
                     khatri_lambda_min_cdf, lambda_max_cdf_alternating, m2_eigen_density, m2_lambda_max_cdf_cone,
                     m2_lambda_min_cdf, m2_lambda_min_cdf_cone)

B1, B2, B4, B8 = (DivisionAlgebra(b) for b in (1, 2, 4, 8))


class TestModel:
    def test_validation(self):
        with pytest.raises(DomainError):
            WishartModel(2, 4, (1.0,), B1)
        with pytest.raises(DomainError):
            WishartModel(2, 4, (1.0, -2.0), B1)
        with pytest.raises(DomainError):
            WishartModel(3, 1.5, (1.0, 1.0, 1.0), B1)

    def test_octonion_analytic_model_allowed(self):
        WishartModel(2, 4, (1.0, 2.0), B8)


class TestNonFiniteInputs:
    """A NaN or infinite sigma, n, x, y, Omega or Lambda is a DomainError
    naming it, never a nan, an OverflowError or a ValueError."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_model(self, bad):
        with pytest.raises(DomainError, match="sigma_eigs must be positive and finite"):
            WishartModel(2, 4, (1.0, bad), B2)
        with pytest.raises(DomainError, match=" n must be finite"):
            WishartModel(2, bad, (1.0, 2.0), B2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_points(self, bad, m):
        model = WishartModel(m, m + 4, tuple(float(i) for i in range(1, m + 1)), B2)
        with pytest.raises(DomainError, match="x must be positive and finite"):
            cdf_lambda_max(model, bad)
        with pytest.raises(DomainError, match="y must be positive and finite"):
            cdf_lambda_min(model, bad)
        with pytest.raises(DomainError, match="omega_eigs must be positive definite and finite"):
            cdf_wishart_region(model, (1.0,) * (m - 1) + (bad,))
        with pytest.raises(DomainError, match="lambdas must be positive and finite"):
            joint_eigen_density(model, (bad,) + tuple(float(m - i) for i in range(1, m)))


class TestSampling:
    def test_chi_square_reduction(self):
        model = WishartModel(1, 2, (1.0,), B1)
        eigs = sample_wishart_eigs(model, 11, 100_000)[:, 0]
        # S ~ chi^2_2, i.e. Exp(mean 2)
        d, _ = stats.kstest(eigs, "expon", args=(0.0, 2.0))
        assert d < 0.01

    def test_complex_gamma_reduction(self):
        model = WishartModel(1, 3, (1.0,), B2)
        eigs = sample_wishart_eigs(model, 13, 100_000)[:, 0]
        d, _ = stats.kstest(eigs, "gamma", args=(3.0, 0.0, 1.0))
        assert d < 0.01

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quaternion_spectrum_deduplicated(self):
        # m = 2 takes the closed form; m = 3 goes through the embedding and
        # dedupe_pairs, whose pair check must not fire on real draws
        for m, n, sigma in [(2, 4, (1.0, 2.0)), (3, 6, (1.0, 2.0, 3.0))]:
            eigs = sample_wishart_eigs(WishartModel(m, n, sigma, B4), 17, 4000)
            assert eigs.shape == (4000, m)
            assert np.all(np.diff(eigs, axis=1) <= 0)
            assert np.all(eigs > 0)
            # mean trace is n * tr(Sigma)
            assert eigs.sum(axis=1).mean() == pytest.approx(n * sum(sigma), rel=0.05)

    def test_quaternion_pairing_mismatch_warns(self):
        with pytest.warns(RuntimeWarning, match="pairs differ"):
            vals = _quat.dedupe_pairs(np.array([[0.5, 0.5, 2.0, 2.5]]))
        assert np.array_equal(vals, [[2.5, 0.5]])

    def test_rows_have_no_ties(self):
        model = WishartModel(2, 5, (1.0, 1.0), B1)
        eigs = sample_wishart_eigs(model, 19, 8)
        assert eigs.shape == (8, 2)
        assert not np.any(np.diff(eigs, axis=1) == 0.0)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_m2_rows_ordered_and_positive(self, beta):
        eigs = sample_wishart_eigs(WishartModel(2, 3, (1.0, 1.0), DivisionAlgebra(beta)), 41, 100_000)
        assert np.all(eigs[:, 0] >= eigs[:, 1])
        assert np.all(eigs[:, 1] > 0)

    def test_m2_equal_roots_keep_row_order(self):
        # zero off-diagonal and t11^2/z1 == t22^2/z2: both roots are
        # t11^2/z1, and det X / lambda_max rounds one ulp above it here
        t11, z1, z2 = 0.1, 0.1, 0.6
        t22 = math.sqrt(t11 ** 2 / z1 * z2)
        assert t11 ** 2 / z1 == t22 ** 2 / z2
        root = t11 ** 2 / z1
        assert t11 ** 2 * t22 ** 2 / (z1 * z2) / root > root
        eigs = _mat2.factor_spectra(np.array([[t11, t22]]), np.array([[0.0]]), None, (z1, z2))
        assert eigs[0, 0] == root
        assert root >= eigs[0, 1] > 0

    def test_octonion_sampling_rejected(self):
        with pytest.raises(UnsupportedParameterError, match="analytic"):
            sample_wishart_eigs(WishartModel(2, 9, (1.0, 1.0), B8), 1, 10)

    def test_reproducible(self):
        model = WishartModel(2, 4, (1.0, 2.0), B2)
        a = sample_wishart_eigs(model, 23, 100)
        b = sample_wishart_eigs(model, 23, 100)
        assert np.array_equal(a, b)

    def test_non_integer_n_rejected_for_sampling(self):
        with pytest.raises(DomainError, match="integer"):
            sample_wishart_eigs(WishartModel(2, 4.5, (1.0, 1.0), B1), 1, 10)

    @pytest.mark.parametrize("count", [0, -5])
    def test_nonpositive_count_rejected(self, count):
        with pytest.raises(DomainError, match=f"must be positive, got {count}"):
            sample_wishart_eigs(WishartModel(2, 4, (1.0, 1.0), B1), 1, count)

    @pytest.mark.parametrize("m, n, sigma", [(2, 4, (1.0, 2.0)), (3, 6, (1.0, 2.0, 3.0))])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_law_matches_gaussian_data_matrix(self, m, n, sigma, beta):
        # two-sample KS per eigenvalue column against draws built from the
        # data-matrix definition, which shares no code with the sampler
        model = WishartModel(m, n, sigma, DivisionAlgebra(beta))
        eigs = sample_wishart_eigs(model, 37, 20_000)
        ref = gaussian_wishart_eigs(m, n, sigma, beta, np.random.default_rng(53), 20_000)
        for col in range(m):
            _, p = stats.ks_2samp(eigs[:, col], ref[:, col])
            assert p > 1e-3, (col, p)


def _wishart_factor_stream(model, seed):
    """The sampler and random stream ``sample_wishart_eigs`` draws from."""
    beta = model.beta
    sampler = wishart.ConeSampler(model.m, model.algebra, beta * model.n / 2,
                                  tuple(beta / (2 * s) for s in model.sigma_eigs))
    return sampler, np.random.default_rng(np.random.PCG64(seed))


class TestFactorGram:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_matches_plain_matrix_products(self, m, beta):
        # Z^(-1/2) T* T Z^(-1/2) by matrix products of T written out entry by
        # entry (at beta = 4 its complex embedding [[A, B], [-conj B, conj A]]
        # of T = A + B j); every entry is a sum of the same products, so the
        # two agree to a few ulps of sqrt(X_ii X_jj)
        z = (0.5, 1.5, 2.5)[:m]
        sampler = wishart.ConeSampler(m, DivisionAlgebra(beta), m + 2.5, z)
        diag, off, off_j = sampler.bartlett(np.random.default_rng(71), 500)
        got = _mat2.factor_gram(diag, off, off_j, z)
        if m == 2 and beta != 4:
            assert isinstance(got, _mat2.Entries)
            got = _mat2.assemble(*got)
        a = np.zeros((500, m, m), dtype=complex)
        b = np.zeros_like(a)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for col, (i, j) in enumerate(pairs):
            a[:, i, j] = off[:, col]
            if off_j is not None:
                b[:, i, j] = off_j[:, col]
        for i in range(m):
            a[:, i, i] = diag[:, i]
        t, w = a, 1.0 / np.sqrt(np.array(z))
        if beta == 4:
            t = np.block([[a, b], [-b.conj(), a.conj()]])
            w = np.concatenate([w, w])
        ref = w[:, None] * (np.conj(np.transpose(t, (0, 2, 1))) @ t) * w[None, :]
        size = 2 * m if beta == 4 else m
        assert got.shape == ref.shape == (500, size, size)
        assert got.dtype == (float if beta == 1 else complex)
        d = np.sqrt(np.diagonal(ref, axis1=1, axis2=2).real)
        assert np.all(np.abs(got - ref) <= 8 * np.finfo(float).eps * d[:, :, None] * d[:, None, :])


class TestBartlett:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_diagonal_is_the_scale_one_gamma_draw(self, m, beta):
        # numpy's gamma is scale * standard_gamma, so at scale 1 the two give
        # the same bits and leave the stream in the same place: the
        # off-diagonal draws that follow are the same too
        sampler = wishart.ConeSampler(m, DivisionAlgebra(beta), m + 2.5, (0.5, 1.5, 2.5)[:m])
        diag, off, _ = sampler.bartlett(np.random.default_rng(73), 1000)
        rng = np.random.default_rng(73)
        shapes = sampler.shape_a0 - np.arange(m) * beta / 2.0
        assert np.array_equal(diag, np.sqrt(rng.gamma(shapes, size=(1000, m))))
        assert np.array_equal(np.real(off), rng.standard_normal(off.shape) * math.sqrt(0.5))


class TestM1ClosedForm:
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_matches_eigvalsh_of_the_same_draws(self, beta):
        # the spectrum t11^2/z1 against eigvalsh of the drawn X (of its
        # embedding at beta = 4) on the same random stream
        model = WishartModel(1, 3, (2.0,), DivisionAlgebra(beta))
        eigs = sample_wishart_eigs(model, 31, 5000)
        sampler, rng = _wishart_factor_stream(model, 31)
        ref = np.linalg.eigvalsh(sampler.sample(rng, 5000)[0])
        ref = _quat.dedupe_pairs(ref) if beta == 4 else ref
        assert eigs.shape == (5000, 1)
        assert np.all(np.abs(eigs - ref) <= 4 * np.finfo(float).eps * ref)


class TestM1AgainstMpmath:
    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_lambda_max_is_the_regularized_gamma(self, beta):
        # at m = 1 the law is Gamma(beta n/2, 2 sigma/beta): P(lambda < x) is
        # the regularized lower incomplete gamma, by mpmath at 30 digits;
        # measured: at most 2.9e-13 (12.5 digits; beta = 4, n = 12, x = 30)
        with mpmath.workdps(30):
            for n, s in ((3, 1.0), (5.5, 2.0), (12, 0.7)):
                model = WishartModel(1, n, (s,), DivisionAlgebra(beta))
                for x in (0.2, 1.0, 4.0, 10.0, 30.0):
                    want = mpmath.gammainc(beta * n / 2, 0, beta * x / (2 * s), regularized=True)
                    assert abs(cdf_lambda_max(model, x) - want) <= 5e-13 * want, (n, s, x)


class TestM2ClosedForm:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_matches_eigvalsh_of_the_same_draws(self, beta):
        model = WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta))
        eigs = sample_wishart_eigs(model, 43, 5000)
        sampler, rng = _wishart_factor_stream(model, 43)
        x = sampler.sample(rng, 5000)[0]
        ref = np.linalg.eigvalsh(x if beta == 4 else _mat2.assemble(*x))
        ref = _quat.dedupe_pairs(ref) if beta == 4 else ref[:, ::-1]
        # eigvalsh is backward stable: errors of a few ulps of lambda_max
        assert np.all(np.abs(eigs - ref) <= 16 * self.EPS * ref[:, :1])

    @pytest.mark.parametrize("sigma", [(1.0, 1e-8), (1e8, 1.0)])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_ill_conditioned_lambda_min_against_mpmath(self, beta, sigma):
        model = WishartModel(2, 5, sigma, DivisionAlgebra(beta))
        eigs = sample_wishart_eigs(model, 47, 2000)
        sampler, rng = _wishart_factor_stream(model, 47)
        diag, off, off_j = sampler.bartlett(rng, 2000)
        t12 = [off[:, 0]] if off_j is None else [off[:, 0], off_j[:, 0]]
        comps = [f(c) for c in t12 for f in (np.real, np.imag)]
        z1, z2 = sampler.scale_eigs
        det = (diag[:, 0] * diag[:, 1]) ** 2 / (z1 * z2)
        assert np.all(np.abs(eigs[:, 0] * eigs[:, 1] - det) <= 4 * self.EPS * det)
        with mpmath.workdps(50):
            for row in range(0, 2000, 50):
                t11, t22 = (mpmath.mpf(float(v)) for v in diag[row])
                t12_sq = mpmath.fsum(mpmath.mpf(float(c[row])) ** 2 for c in comps)
                x11, x22 = t11 ** 2 / z1, (t12_sq + t22 ** 2) / z2
                x12_sq = t11 ** 2 * t12_sq / (z1 * z2)
                # smaller root of l^2 - (x11 + x22) l + x11 x22 - |x12|^2
                root = (x11 + x22 - mpmath.sqrt((x11 - x22) ** 2 + 4 * x12_sq)) / 2
                assert abs(eigs[row, 1] - root) <= 1e-13 * root, row
                assert eigs[row, 1] < 1e-6 * eigs[row, 0]


class TestRegionCdf:
    def test_scalar_reduction(self):
        model = WishartModel(1, 2, (1.0,), B1)
        for x in (0.4, 2.0, 6.0):
            assert cdf_wishart_region(model, (x,)) == pytest.approx(
                1.0 - math.exp(-x / 2.0), rel=1e-8
            )

    def test_vanishes_at_origin(self):
        model = WishartModel(2, 4, (1.0, 2.0), B2)
        assert cdf_wishart_region(model, (1e-8, 1e-8)) < 1e-12

    def test_matches_sampling(self):
        model = WishartModel(2, 4, (1.0, 2.0), B2)
        analytic = cdf_wishart_region(model, (1.0, 1.0))
        eigs = sample_wishart_eigs(model, 29, 100_000)
        emp = float((eigs[:, 0] < 1.0).mean())  # S < I iff lambda_max < 1
        se = math.sqrt(emp * (1 - emp) / len(eigs))
        assert 0.0 < analytic < 1.0
        assert abs(emp - analytic) <= 3 * se + 1e-4

    def test_domain(self):
        model = WishartModel(2, 4, (1.0, 2.0), B2)
        with pytest.raises(DomainError):
            cdf_wishart_region(model, (1.0, -1.0))

    def test_m2_regions_evict_no_ray(self):
        # each Omega at m = 2 makes a table of its own t2/t1; those tables
        # have their own store, so an m = 3 model keeps its ray
        clear_memos()
        model = WishartModel(3, 6, (1.0, 2.0, 3.0), B2)
        cdf_lambda_max(model, 4.0)
        # the series of cdf_lambda_max: (c1; q) = (3; 9) on the ray of 1 / sigma
        spec, direction = HypergeomSpec((3.0,), (9.0,), B2, 3), 1.0 / np.asarray(model.sigma_eigs)
        ray = hypergeom.ray_series(spec, direction)
        assert hypergeom._ray.cache_info().currsize == 1
        m2 = WishartModel(2, 4, (1.0, 2.0), B2)
        for omega in np.random.default_rng(73).uniform(0.5, 4.0, size=(40, 2)):
            cdf_wishart_region(m2, omega)
        assert hypergeom._m2_series.cache_info().currsize == hypergeom._RAY_CAPACITY
        cdf_lambda_max(model, 5.0)
        assert hypergeom._ray.cache_info().currsize == 1
        assert hypergeom.ray_series(spec, direction) is ray


class TestLambdaMax:
    def test_scalar_reduction(self):
        model = WishartModel(1, 2, (1.0,), B1)
        for x in (0.3, 1.7, 9.0):
            assert cdf_lambda_max(model, x) == pytest.approx(1 - math.exp(-x / 2), rel=1e-9)

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_monotone_bounded(self, beta):
        model = WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta))
        grid = np.linspace(0.3, 26.0, 50)
        vals = [cdf_lambda_max(model, float(x)) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(-1e-12 <= v <= 1.0 + 1e-6 for v in vals)
        assert vals[-1] > 0.97

    def test_transformed_matches_raw_where_raw_converges(self):
        model = WishartModel(2, 4, (1.0, 2.0), B2)
        for x in (0.5, 1.5, 3.0):
            a = cdf_lambda_max(model, x)
            b = lambda_max_cdf_alternating(model, x)
            assert a == pytest.approx(b, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            cdf_lambda_max(WishartModel(1, 2, (1.0,), B1), 0.0)

    @pytest.mark.parametrize("beta, x", [(8, 60.0), (4, 120.0), (2, 200.0)])
    def test_generic_series_far_tail_rounds_to_one(self, beta, x):
        # once refused by the generic series; the Chernoff bound now answers
        # them, and the 30-digit incomplete gamma rounds to 1.0 as well
        model = WishartModel(1, 1, (2.0,), DivisionAlgebra(beta))
        with mpmath.workdps(30):
            want = float(mpmath.gammainc(beta / 2, 0, beta * x / 4, regularized=True))
        assert cdf_lambda_max(model, x) == want == 1.0

    @pytest.mark.parametrize("m, n, beta, sigma, x", [
        (1, 20, 8, (2.0,), 72.0),
        (3, 1e5, 2, (1.0, 2.0, 3.0), 5e5),
    ], ids=["m1", "m3"])
    def test_generic_series_overflow_is_domain_error(self, m, n, beta, sigma, x):
        # the generic series needs a degree whose coefficient underflows
        # before its terms decay, at points the Chernoff bound cannot answer
        model = WishartModel(m, n, sigma, DivisionAlgebra(beta))
        assert not wishart._rounds_to_one(model, x / max(sigma))
        trace = math.fsum(beta / 2 * x / s for s in sigma)
        with pytest.raises(DomainError, match=f"trace {trace:g} .*not scale-safe"):
            cdf_lambda_max(model, x)

    def test_rel_tol_reaches_m2_engine(self, monkeypatch):
        # the user's rel_tol reaches the m = 2 engine whole, so a smaller one
        # sums more degrees; a truncation that leaves it unset, or none, stops
        # at the distribution function's 1e-12 whatever the cap
        seen = []
        engine = hypergeom.pfq_positive_m2

        def spy(*args):
            res = engine(*args)
            seen.append(res.degrees_used)
            return res

        monkeypatch.setattr(hypergeom, "pfq_positive_m2", spy)
        model = WishartModel(2, 4, (1.0, 2.0), B1)
        for trunc in (SeriesTruncation(400, 1e-6), SeriesTruncation(400, 1e-12), SeriesTruncation(400, 1e-15),
                      SeriesTruncation(400), SeriesTruncation(), None):
            cdf_lambda_max(model, 10.0, trunc)
        assert seen == [23, 33, 37, 33, 33, 33]

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_far_tail_finite_bounded_monotone(self, beta):
        # every value finite and in [0, 1], no drop beyond rounding, out to
        # x = 1000; past where the Chernoff bound fires, exactly 1.0
        model = WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta))
        grid = np.concatenate([np.geomspace(0.05, 20.0, 24), np.geomspace(25.0, 1000.0, 24)])
        vals = [cdf_lambda_max(model, float(x)) for x in grid]
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        fired = [v for x, v in zip(grid, vals) if wishart._rounds_to_one(model, x / 2.0)]
        assert len(fired) >= 10 and set(fired) == {1.0}

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", [1, 3.5, 7])
    def test_m1_is_the_regularized_incomplete_gamma(self, beta, n):
        # (beta/2) S / sigma is Gamma(beta n / 2); the series is exact to the
        # trace ~90 past which it needs weights above 170 (see the test below)
        model = WishartModel(1, n, (2.0,), DivisionAlgebra(beta))
        for tau in np.geomspace(0.01, 90.0, 25):
            x = float(4.0 * tau / beta)
            with mpmath.workdps(30):
                want = float(mpmath.gammainc(beta * n / 2, 0, beta * x / 4, regularized=True))
            assert abs(cdf_lambda_max(model, x) - want) <= 1e-12 * want

    def test_m3_points_of_one_model_share_one_series(self, monkeypatch):
        # once x = 10 has run, x = 1..9 and a repeat of 10 need no degree
        # of the Jack recurrence the ray has not already summed
        clear_memos()
        model = WishartModel(3, 6, (1.0, 2.0, 3.0), B1)
        cdf_lambda_max(model, 10.0)
        calls = []
        advance = ChatEvaluator._advance

        def spy(self):
            calls.append(self)
            advance(self)

        monkeypatch.setattr(ChatEvaluator, "_advance", spy)
        for x in range(1, 11):
            cdf_lambda_max(model, float(x))
        assert calls == []

    def test_m3_truncation_warns(self):
        model = WishartModel(3, 6, (1.0, 2.0, 3.0), B1)
        with pytest.warns(ConvergenceWarning, match="degree 10"):
            cdf_lambda_max(model, 10.0, SeriesTruncation(max_degree=10))

    def test_rel_tol_reaches_ray_series(self, monkeypatch):
        # as at m = 2, a smaller rel_tol sums more degrees at m = 3, and an
        # unset one is 1e-12
        seen = []
        evaluate = RaySeries.evaluate

        def spy(self, lead, tr, trunc=None):
            res = evaluate(self, lead, tr, trunc)
            seen.append(res.degrees_used)
            return res

        monkeypatch.setattr(RaySeries, "evaluate", spy)
        model = WishartModel(3, 6, (1.0, 2.0, 3.0), B1)
        for trunc in (SeriesTruncation(400, 1e-6), SeriesTruncation(400, 1e-12), SeriesTruncation(400, 1e-15),
                      SeriesTruncation(400), SeriesTruncation(), None):
            cdf_lambda_max(model, 10.0, trunc)
        assert seen == [23, 34, 38, 34, 34, 34]

    def test_no_degree_cap_decides_a_value(self, monkeypatch):
        # over fig1's grid and the far tail, out to where the Chernoff bound
        # answers, every series stops by the stall rule below 70% of its
        # trace budget max(40, tr + 14 sqrt(tr + 1) + 60)
        used = []
        evaluate = RaySeries.evaluate

        def spy(self, lead, tr, trunc=None):
            res = evaluate(self, lead, tr, trunc)
            used.append((res.converged, res.degrees_used / max(40, int(tr + 14 * math.sqrt(tr + 1) + 60))))
            return res

        monkeypatch.setattr(RaySeries, "evaluate", spy)
        grid = np.concatenate([np.linspace(0.0, 24.0, 96)[1:], np.linspace(25.0, 1000.0, 40), [200.0, 400.0]])
        for beta in (1, 2, 4, 8):
            model = WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta))
            for x in grid:
                cdf_lambda_max(model, float(x))
        assert len(used) > 4 * 95
        assert all(converged for converged, _ in used)
        assert max(share for _, share in used) < 0.7

    @pytest.mark.parametrize("excess, outcome", [
        (0.0, 1.0), (5e-11, 1.0), (1e-9, DomainError), (800.0, DomainError),
    ])
    def test_excess_over_one(self, monkeypatch, excess, outcome):
        # log CDF = log prefactor - trace + log series, forced to `excess`
        model = WishartModel(2, 4, (1.0, 2.0), B1)
        trace = 0.5 * (1.0 + 0.5)
        monkeypatch.setattr(wishart, "_cdf_prefactor", lambda model, t: (0.0, 0.0, trace))
        # the distribution function reads the series' log_value alone
        monkeypatch.setattr(wishart, "_positive_1f1", lambda *args: SeriesResult(None, 0, 0.0, True, excess))
        if outcome is DomainError:
            with pytest.raises(DomainError, match="above 1"):
                cdf_lambda_max(model, 1.0)
        else:
            assert cdf_lambda_max(model, 1.0) == outcome


class TestChernoffTail:
    """Where exp(-a (u - 1 - log u)), a = beta m n / 2, u = beta t_min / (2a),
    bounds 1 - P(S < Omega) by 2^-54, the distribution functions return 1.0
    and sum no series."""

    @pytest.mark.parametrize("a", [0.5, 2.0, 12.0, 60.0])
    def test_bound_holds_against_the_incomplete_gamma(self, a):
        for u in np.concatenate([1.0 + np.geomspace(1e-6, 1.0, 12), np.geomspace(2.0, 50.0, 24)]):
            with mpmath.workdps(30):
                tail = mpmath.gammainc(a, a * float(u), mpmath.inf, regularized=True)
                assert wishart._log_gamma_tail_bound(a, float(u)) >= float(mpmath.log(tail))
        assert wishart._log_gamma_tail_bound(a, 1.0) == wishart._log_gamma_tail_bound(a, 0.3) == 0.0
        assert wishart._log_gamma_tail_bound(a, math.inf) == -math.inf

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", [1, 3.5, 20])
    def test_m1_fires_only_where_the_cdf_rounds_to_one(self, beta, n):
        # at m = 1 the largest eigenvalue is (2 sigma / beta) Gamma(beta n / 2)
        model = WishartModel(1, n, (2.0,), DivisionAlgebra(beta))
        fired = [x for x in np.geomspace(1.0, 4000.0, 80) if wishart._rounds_to_one(model, x / 2.0)]
        assert len(fired) >= 10
        for x in fired:
            with mpmath.workdps(30):
                want = float(mpmath.gammainc(beta * n / 2, 0, beta * x / 4, regularized=True))
            assert want == cdf_lambda_max(model, float(x)) == 1.0

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for name in ("pfq_positive_m2", "ray_series"):
            def spy(*args, engine=getattr(hypergeom, name), name=name):
                calls.append(name)
                return engine(*args)

            monkeypatch.setattr(hypergeom, name, spy)
        return calls

    def test_far_tail_points_reach_no_series(self, monkeypatch):
        # the perfbench tail points at m = 2, n = 4, sigma = (1, 2): 7 of 8
        # answered by the bound; tail/b1/x200 (bound e^-35.9) keeps its bits
        calls = self._spy(monkeypatch)
        for beta in (1, 2, 4, 8):
            model = WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta))
            for x in (200.0, 400.0):
                if (beta, x) != (1, 200.0):
                    assert cdf_lambda_max(model, x) == 1.0
        assert calls == []
        assert repr(cdf_lambda_max(WishartModel(2, 4, (1.0, 2.0), B1), 200.0)) == "0.9999999999996305"
        assert calls == ["pfq_positive_m2"]

    def test_fig1_grid_keeps_its_series_and_bits(self, monkeypatch):
        calls = self._spy(monkeypatch)
        models = [WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta)) for beta in (1, 2, 4, 8)]
        grid = [float(x) for x in np.linspace(0.0, 24.0, 96)[1:]]
        vals = [cdf_lambda_max(model, x) for model in models for x in grid]
        assert calls == ["pfq_positive_m2"] * len(vals)
        monkeypatch.setattr(wishart, "_rounds_to_one", lambda model, t_min: False)
        assert vals == [cdf_lambda_max(model, x) for model in models for x in grid]

    def test_m3_huge_region_and_tail_reach_no_series(self, monkeypatch):
        calls = self._spy(monkeypatch)
        model = WishartModel(3, 6, (1.0, 2.0, 3.0), B2)
        assert cdf_wishart_region(model, (1e4, 2e4, 3e4)) == 1.0
        assert cdf_wishart_region(model, (1e300, 1e300, 1e300)) == 1.0
        assert cdf_lambda_max(model, 1e300) == 1.0
        assert cdf_lambda_max(WishartModel(3, 6, (1e-300,) * 3, B2), 1e300) == 1.0  # t = inf
        assert calls == []
        # a region the bound cannot answer still runs the series
        cdf_wishart_region(model, (8.0, 12.0, 20.0))
        assert calls == ["ray_series"]


class TestKhatriDeterminant:
    """beta = 2, identity scale: the m >= 3 series against an oracle that
    shares no code with it."""

    @pytest.fixture(autouse=True, scope="class")
    def release_b2_table(self):
        # x = 20 at m = 3 fills the shared beta = 2 table to degree ~115
        # (about 17M strips, one float each: ~140 MB); give that memory back
        # to later tests
        yield
        jack._TABLES.pop(2, None)
        clear_memos()

    @pytest.mark.parametrize("m, n, xs", [
        (3, 3, (0.5, 1, 2, 4, 8, 12, 16, 20)),
        (3, 6, (0.5, 1, 2, 4, 8, 12, 16, 20)),
        (4, 7, (0.5, 1, 2, 4)),
    ])
    def test_lambda_max_is_khatris_determinant(self, m, n, xs):
        model = WishartModel(m, n, (1.0,) * m, B2)
        for x in xs:
            want = khatri_lambda_max_cdf(m, n, x)
            assert abs(cdf_lambda_max(model, float(x)) - want) <= 1e-12 * want

    def test_table_keeps_eight_bytes_a_strip(self):
        # the x = 20 point at m = 3 reaches degree ~115: about 2.1M strips of
        # the shapes shorter than 3 (16 MB), each one float in the beta = 2
        # table
        cdf_lambda_max(WishartModel(3, 3, (1.0,) * 3, B2), 20.0)
        table = jack.get_table(B2)
        assert sum(g.nbytes for g in table._full.values()) < 200e6

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 4), (3, 6), (4, 7)])
    def test_lambda_min_is_khatris_determinant(self, m, n):
        model = WishartModel(m, n, (1.0,) * m, B2)
        for y in (0.01, 0.1, 0.5, 1, 2, 5, 10, 20):
            want = khatri_lambda_min_cdf(m, n, y)
            assert abs(cdf_lambda_min(model, float(y)) - want) <= 1e-13 * want


class TestConeCoordinates:
    """fig1's model, m = 2, n = 4, sigma = (1, 2), for lambda_max and fig2's,
    n = 7, for lambda_min, at every beta against the Wishart density
    integrated over the cone's coordinates, which shares no code with the
    series."""

    @pytest.mark.parametrize("beta, x", [(b, x) for b in (2, 4, 8) for x in (2.0, 6.0, 12.0)] + [(1, 6.0)])
    def test_lambda_max_is_the_density_integrated(self, beta, x):
        want = m2_lambda_max_cdf_cone(4, (1.0, 2.0), beta, x)
        got = cdf_lambda_max(WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta)), x)
        # measured: at most 2.5e-13 (beta = 8, x = 12)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("beta", [2, 4, 8])
    def test_a_wrong_measure_fails(self, beta):
        # the sphere exponent off by 1/2 moves the value by 44-53% at x = 6
        want = m2_lambda_max_cdf_cone(4, (1.0, 2.0), beta, 6.0, sphere=beta / 2 + 0.5)
        got = cdf_lambda_max(WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta)), 6.0)
        assert abs(got - want) > 0.1 * want

    # P(S < diag(omega)) is the lambda_max law at x = 1 of the scales sigma / omega
    REGIONS = [((1.0, 2.0), (3.0, 1.5)), ((0.7, 1.9), (2.5, 6.0))]

    @pytest.mark.parametrize("beta, bound", [(1, 2e-15), (2, 1e-14), (4, 3e-14), (8, 1e-13)])
    @pytest.mark.parametrize("sigma, omega", REGIONS)
    def test_region_is_the_density_integrated(self, beta, bound, sigma, omega):
        want = m2_lambda_max_cdf_cone(4, tuple(s / w for s, w in zip(sigma, omega)), beta, 1.0)
        got = cdf_wishart_region(WishartModel(2, 4, sigma, DivisionAlgebra(beta)), omega)
        # measured: at most 7.9e-16, 5.7e-15, 1.4e-14 and 5.7e-14 at beta = 1, 2, 4, 8
        assert abs(got - want) <= bound * want

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    @pytest.mark.parametrize("sigma, omega", REGIONS)
    def test_a_swapped_region_fails(self, beta, sigma, omega):
        # omega against the other scale moves the value by 16-11,900%
        want = m2_lambda_max_cdf_cone(4, tuple(s / w for s, w in zip(sigma, omega[::-1])), beta, 1.0)
        got = cdf_wishart_region(WishartModel(2, 4, sigma, DivisionAlgebra(beta)), omega)
        assert abs(got - want) > 0.1 * want

    @pytest.mark.parametrize("beta, y", [(1, 0.3), (2, 0.3), (4, 0.3), (8, 0.33)])
    def test_small_lambda_min_cdf_is_the_density_integrated(self, beta, y):
        # fig2's model, down to the README's 3.25e-21 at beta = 8
        want = m2_lambda_min_cdf_cone(7, (1.0, 2.0), beta, y)
        got = cdf_lambda_min(WishartModel(2, 7, (1.0, 2.0), DivisionAlgebra(beta)), y)
        # measured: at most 3.1e-14 (beta = 8)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_lambda_min_survival_is_the_density_integrated(self, beta):
        want = m2_lambda_min_cdf_cone(7, (1.0, 2.0), beta, 8.0, survival=True)
        got = 1.0 - cdf_lambda_min(WishartModel(2, 7, (1.0, 2.0), DivisionAlgebra(beta)), 8.0)
        # measured: at most 1.9e-13 (beta = 8, survival 0.012)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("beta", [4, 8])
    def test_a_wrong_measure_fails_for_lambda_min(self, beta):
        # the sphere exponent off by 1/2 moves the survival by 14-15% at y = 8
        want = m2_lambda_min_cdf_cone(7, (1.0, 2.0), beta, 8.0, sphere=beta / 2 + 0.5, survival=True)
        got = 1.0 - cdf_lambda_min(WishartModel(2, 7, (1.0, 2.0), DivisionAlgebra(beta)), 8.0)
        assert abs(got - want) > 0.05 * want


class TestLambdaMin:
    def test_scalar_reduction(self):
        # r = 2 for m=1, beta=2, n=3: exact truncated exponential complement
        model = WishartModel(1, 3, (1.0,), B2)
        for y in (0.3, 1.1, 4.0):
            want = 1 - math.exp(-y) * (1 + y + y * y / 2)
            assert cdf_lambda_min(model, y) == pytest.approx(want, rel=1e-12)

    def test_non_integer_r_rejected(self):
        with pytest.raises(UnsupportedParameterError, match="positive integer"):
            cdf_lambda_min(WishartModel(1, 3, (1.0,), B1), 1.0)  # r = 1/2

    def test_sum_bound_values(self):
        assert min_eig_sum_bound(WishartModel(2, 7, (1.0, 2.0), B1)) == 2
        assert min_eig_sum_bound(WishartModel(2, 7, (1.0, 2.0), B2)) == 5
        assert min_eig_sum_bound(WishartModel(2, 7, (1.0, 2.0), B4)) == 11
        assert min_eig_sum_bound(WishartModel(2, 7, (1.0, 2.0), B8)) == 23

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_monotone_bounded(self, beta):
        model = WishartModel(2, 7, (1.0, 2.0), DivisionAlgebra(beta))
        grid = np.linspace(0.05, 16.0, 50)
        vals = [cdf_lambda_min(model, float(y)) for y in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_never_below_zero_near_origin(self):
        # 1 - e^{-tau} sum_{kappa_1 <= r} would cancel there; the positive form keeps
        # the tiny values to rounding
        model = WishartModel(2, 7, (1.0, 2.0), B8)
        vals = [cdf_lambda_min(model, float(y)) for y in np.linspace(0.0, 1.0, 101)[1:]]
        assert all(0.0 <= v <= 1.0 for v in vals)
        want = m2_lambda_min_cdf(7, (1.0, 2.0), 8, 0.33)
        assert want == pytest.approx(3.2536737e-21, rel=1e-7)
        assert cdf_lambda_min(model, 0.33) == pytest.approx(want, rel=1e-13, abs=0.0)
        # y v underflows: every term is 0
        assert cdf_lambda_min(WishartModel(2, 7, (1e6, 2e6), B2), 5e-324) == 0.0

    def test_past_the_float_range_is_a_domain_error(self):
        # m r = 790: the recurrence's powers overflow before any E_k is formed
        with pytest.raises(DomainError, match="float range"):
            cdf_lambda_min(WishartModel(2, 100, (1.0, 2.0), B8), 100.0)

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_fig2_grid_matches_independent_sum(self, beta):
        # m = 2 chat from its closed form in mpmath, summed at 40 digits
        model = WishartModel(2, 7, (1.0, 2.0), DivisionAlgebra(beta))
        for y in np.linspace(0.0, 16.0, 96)[1:]:
            want = m2_lambda_min_cdf(7, (1.0, 2.0), beta, float(y))
            assert abs(cdf_lambda_min(model, float(y)) - want) <= 1e-13 * want

    @pytest.mark.parametrize("excess, outcome", [(5e-11, 1.0), (1e-9, DomainError)])
    def test_excess_over_one(self, monkeypatch, excess, outcome):
        # the positive form's terms scaled so the sum exceeds 1 by `excess`
        model = WishartModel(2, 7, (1.0, 2.0), B1)  # r = 2, m r = 4
        y, tau = 20.0, 15.0  # tau = y (beta/2) tr Sigma^{-1}
        tail = special.gammainc(5, tau)
        factor = (1.0 + excess - tail) / (cdf_lambda_min(model, y) - tail)
        real = wishart._exp_split

        monkeypatch.setattr(wishart, "_exp_split", lambda *args: tuple(factor * e for e in real(*args)))
        if outcome is DomainError:
            with pytest.raises(DomainError, match="above 1"):
                cdf_lambda_min(model, y)
        else:
            assert cdf_lambda_min(model, y) == outcome

    def test_min_cdf_dominates_max_cdf(self):
        model = WishartModel(2, 7, (1.0, 2.0), B2)
        for y in (0.5, 2.0, 5.0, 9.0):
            assert cdf_lambda_min(model, y) >= cdf_lambda_max(model, y) - 1e-9


def _selberg_density(m: int, n: float, beta: int, s: float, lam) -> mpmath.mpf:
    """The joint density of ordered eigenvalues at Sigma = s I, in mpmath at
    40 digits: K prod l^(a - (m-1) beta/2 - 1) |Delta|^beta e^(-beta tr / (2 s)),
    a = beta n / 2, with K from the Laguerre form of Selberg's integral over
    the m! orderings, m! (beta / (2 s))^(m a) prod_{j<m} Gamma(1 + beta/2) /
    (Gamma(1 + (j+1) beta/2) Gamma(a - j beta/2)).  At m = 1 it is the
    Gamma(a, 2 s / beta) density.  No library code is used."""
    with mpmath.workdps(40):
        b, n, s = mpmath.mpf(beta), mpmath.mpf(n), mpmath.mpf(s)
        lam = [mpmath.mpf(v) for v in lam]
        a = b * n / 2
        const = mpmath.factorial(m) * (b / (2 * s)) ** (m * a) * mpmath.fprod(
            mpmath.gamma(1 + b / 2) / (mpmath.gamma(1 + (j + 1) * b / 2) * mpmath.gamma(a - j * b / 2))
            for j in range(m))
        shape = mpmath.fprod(v ** (a - (m - 1) * b / 2 - 1) for v in lam)
        spread = mpmath.fprod((lam[i] - lam[j]) ** b for i in range(m) for j in range(i + 1, m))
        return const * shape * spread * mpmath.exp(-b * mpmath.fsum(lam) / (2 * s))


def _old_log_constant(m: int, n: float, beta: int, s: float) -> float:
    """log of the spectral constant the library used before it was written
    as the Selberg product: pi^(m^2 beta/2 + rho m) / Gamma_m(beta m/2), rho =
    0, -1, -2, -4 at beta = 1, 2, 4, 8, times (beta/2)^(m a) / (Gamma_m(a)
    s^(m a)), a = beta n / 2.  It is 6^m too small at beta = 8."""
    rho = {1: 0, 2: -1, 4: -2, 8: -4}[beta]

    def log_mv_gamma(a):
        return m * (m - 1) * beta / 4 * math.log(math.pi) + math.fsum(
            math.lgamma(a - i * beta / 2) for i in range(m))

    a = beta * n / 2
    return ((m * m * beta / 2 + rho * m) * math.log(math.pi) - log_mv_gamma(beta * m / 2)
            + m * a * math.log(beta / (2 * s)) - log_mv_gamma(a))


class TestJointDensity:
    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_scalar_reduction(self, beta):
        alg = DivisionAlgebra(beta)
        n = 3 if beta == 1 else 2
        model = WishartModel(1, n, (1.0,), alg)
        a = beta * n / 2.0
        for lam in (0.4, 1.3, 3.0):
            want = (
                (beta / 2.0) ** a / math.gamma(a) * lam ** (a - 1) * math.exp(-beta * lam / 2)
            )
            assert joint_eigen_density(model, (lam,)) == pytest.approx(want, rel=1e-12)

    def test_coincident_eigenvalues_vanish(self):
        model = WishartModel(2, 4, (1.0, 2.0), B1)
        assert joint_eigen_density(model, (1.3, 1.3)) == 0.0

    def test_domain_errors(self):
        model = WishartModel(2, 4, (1.0, 2.0), B1)
        with pytest.raises(DomainError):
            joint_eigen_density(model, (1.0, 2.0))  # unsorted
        with pytest.raises(DomainError):
            joint_eigen_density(model, (2.0, -1.0))

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_normalizes_scalar_scale(self, beta):
        model = WishartModel(2, 4, (1.5, 1.5), DivisionAlgebra(beta))
        val, err = integrate.dblquad(
            lambda l2, l1: joint_eigen_density(model, (l1, l2)),
            0, 90.0, 0, lambda l1: l1, epsabs=1e-7, epsrel=1e-6,
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_general_scale_normalizes_by_mc(self):
        # importance sample the ordered cone with independent gamma proposals
        model = WishartModel(2, 5, (1.0, 2.0), B1)
        rng = np.random.default_rng(31)
        n = 2500
        shape, scale = 2.5, 2.0
        lam = np.sort(rng.gamma(shape, scale, size=(n, 2)), axis=1)[:, ::-1]
        logq = stats.gamma.logpdf(lam, shape, scale=scale).sum(axis=1) + math.log(2.0)
        dens = np.array([joint_eigen_density(model, tuple(v)) for v in lam])
        w = dens / np.exp(logq)
        est, se = w.mean(), w.std(ddof=1) / math.sqrt(n)
        assert abs(est - 1.0) <= max(3 * se, 0.03)

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    @pytest.mark.parametrize("m, n, lam", [(2, 5, (3.0, 1.0)), (3, 6, (20.0, 8.0, 2.0)), (1, 3, (2.0,))])
    def test_scalar_scale_is_the_closed_form(self, beta, m, n, lam):
        # at Sigma = s I the shifted coupling argument is 0: the series is 1 at
        # degree 0 and the density the prefactor times exp(-beta tr(Lambda) / (2 s)),
        # which is Selberg's closed form; at m = 1 the Gamma(beta n/2, 2 s/beta)
        # density
        for s in (0.3, 1.5):
            model = WishartModel(m, n, (s,) * m, DivisionAlgebra(beta))
            got = joint_eigen_density(model, lam)
            prefactor = math.exp(wishart._log_eigen_prefactor(model, np.asarray(lam)) - beta * sum(lam) / (2 * s))
            assert got == pytest.approx(prefactor, rel=1e-15, abs=0)
            # measured: at most 4.4e-14 (beta = 8, m = 3, s = 0.3, a density of 2.5e-92)
            assert abs(got / _selberg_density(m, n, beta, s, lam) - 1) <= 1e-13
            if m == 1:
                gamma = stats.gamma.pdf(lam[0], beta * n / 2, scale=2 * s / beta)
                assert got == pytest.approx(gamma, rel=1e-13, abs=0)

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_old_constant_misses_only_at_beta_8(self, beta, m):
        # control: the constant before the Selberg product matches it at
        # beta <= 4 and is 6^m too small at beta = 8
        n, s = m + 2.5, 1.5
        with mpmath.workdps(40):
            lam = [mpmath.mpf(m + 1 - i) for i in range(m)]
            selberg = _selberg_density(m, n, beta, s, lam)
            shape = (mpmath.fprod(v ** (beta * (n - m + 1) / 2 - 1) for v in lam)
                     * mpmath.fprod((lam[i] - lam[j]) ** beta for i in range(m) for j in range(i + 1, m))
                     * mpmath.exp(-beta * mpmath.fsum(lam) / (2 * s)))
            ratio = float(mpmath.exp(_old_log_constant(m, n, beta, s)) * shape / selberg)
        if beta == 8:
            assert ratio == pytest.approx(6.0 ** -m, rel=1e-12)
        else:
            assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_the_old_constant_does_not_normalize_at_beta_8(self, monkeypatch):
        # control: with the constant before the Selberg product the beta = 8
        # density of test_normalizes_scalar_scale integrates to 1/36
        def old_prefactor(model, lam):
            return (_old_log_constant(2, 4, 8, 1.5) + (8 * 3 / 2 - 1) * math.log(lam[0] * lam[1])
                    + 8 * math.log(lam[0] - lam[1]))

        monkeypatch.setattr(wishart, "_log_eigen_prefactor", old_prefactor)
        model = WishartModel(2, 4, (1.5, 1.5), B8)
        val, _ = integrate.dblquad(lambda l2, l1: joint_eigen_density(model, (l1, l2)),
                                   0, 90.0, 0, lambda l1: l1, epsabs=1e-7, epsrel=1e-6)
        assert val == pytest.approx(1 / 36, rel=1e-4)

    def test_matches_hciz_on_its_own_draws(self):
        # beta = 2: the density against James's formula with the HCIZ
        # determinant for its coupling, on draws from the model itself
        model = WishartModel(3, 6, (1.0, 2.0, 3.0), B2)
        for lam in sample_wishart_eigs(model, 7, 50):
            got = joint_eigen_density(model, tuple(lam))
            want = complex_wishart_eigen_density(6, (1.0, 2.0, 3.0), lam)
            assert got > 0.0 and got == pytest.approx(want, rel=1e-11, abs=0)

    def test_same_bits_in_any_order_and_from_threads(self):
        # the points of one model share the Jack table's strip coefficients:
        # no value may depend on which point filled them, or in which thread
        model = WishartModel(3, 6, (1.0, 2.0, 3.0), B2)
        lams = [tuple(lam) for lam in sample_wishart_eigs(model, 11, 8)]
        forwards = [joint_eigen_density(model, lam).hex() for lam in lams]
        backwards = [joint_eigen_density(model, lam).hex() for lam in lams[::-1]]
        assert backwards[::-1] == forwards

        def run(order):
            return {i: joint_eigen_density(model, lams[i]).hex() for i in order}

        orders = [range(8), range(7, -1, -1), range(0, 8, 2), range(1, 8, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, orders, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert all(v == forwards[i] for i, v in got.items())

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    @pytest.mark.parametrize("sigma, lam", [((1.0, 2.0), (10.0, 2.0)), ((1.0, 2.0), (30.0, 25.0)),
                                            ((0.5, 3.0), (6.0, 0.4))])
    def test_m2_matches_the_closed_form(self, beta, sigma, lam):
        # at beta = 8, sigma = (1, 2), lam = (10, 2) the alternating series was
        # off by a factor of 2.7e16
        model = WishartModel(2, 5, sigma, DivisionAlgebra(beta))
        want = m2_eigen_density(5, sigma, lam, beta)
        assert joint_eigen_density(model, lam) == pytest.approx(want, rel=1e-11, abs=0)

    def test_past_the_float_range_is_a_domain_error(self):
        # at degree 112, a degree the series needs, the coupling's ratio
        # chat_(112)(600, 100) / chat_(112)(I) ~ 8e310 leaves the float range
        model = WishartModel(2, 6, (1.0, 2.0), B1)
        with pytest.raises(DomainError, match=r"^series terms of degree 112 leave the float range$"):
            joint_eigen_density(model, (600.0, 100.0))

    def test_density_past_the_float_range_is_a_domain_error(self):
        # lambda^(beta n / 2 - 1) = (1e-320)^-0.9995 puts the density near e^729
        with pytest.raises(DomainError, match=r"joint density exp\(728\.858\) leaves the float range"):
            joint_eigen_density(WishartModel(1, 0.001, (1.0,), B1), (1e-320,))

    def test_underflowing_jack_values_are_a_domain_error(self):
        # chat_kappa(I) underflows to 0 at weight 181, while the degree sums
        # are still large: summing zeros from there would return a wrong
        # value (9.8e-87 where the 40-digit closed form gives 1.83e-86 when
        # chat_(k)(3.996, 0) underflowed from k = 178)
        model = WishartModel(2, 5, (1.0, 1000.0), DivisionAlgebra(8))
        assert m2_eigen_density(5, (1.0, 1000.0), (45.0, 40.0), 8) == pytest.approx(1.8283e-86, rel=1e-4)
        with pytest.raises(DomainError, match=r"^series terms of degree 181 leave the float range$"):
            joint_eigen_density(model, (45.0, 40.0))
        # a point of the same model whose series ends in the float range
        want = m2_eigen_density(5, (1.0, 1000.0), (4.0, 3.0), 8)
        assert joint_eigen_density(model, (4.0, 3.0)) == pytest.approx(want, rel=1e-11, abs=0)


class TestDensityAgainstTheCdfM2:
    """The m = 2 joint density tied to the lambda_max CDF through an oracle
    that shares no library code: the Selberg constant by ``math.lgamma``, the
    coupling 0F0(X, Lambda) = e^(x1 y2 + x2 y1) 1F1(beta/2; beta; (x1 - x2)
    (y1 - y2)) by scipy's ``hyp1f1`` (the m = 2 Haar average, |h11|^2 ~
    Beta(beta/2, beta/2)), and a 40 x 40 tensor Gauss-Jacobi rule in
    l1 = x rho, l2 = x rho t, with weights rho^(2a - 1) and
    t^(a - beta/2 - 1) (1 - t)^beta, a = beta n / 2."""

    N, SIGMA = 4, (1.0, 2.0)
    GRID = np.linspace(0.0, 24.0, 96)[1:]  # fig1's 95 points

    @staticmethod
    def _selberg_log_constant(n, sigma, beta):
        """log of the density's constant for the ordered pair l1 > l2:
        2 ((beta/2)^2 / (s1 s2))^a Gamma(1 + beta/2) / (Gamma(1 + beta)
        Gamma(a) Gamma(a - beta/2))."""
        a = beta * n / 2
        return (math.log(2.0) + a * (2 * math.log(beta / 2) - math.log(sigma[0] * sigma[1]))
                + math.lgamma(1 + beta / 2) - math.lgamma(1 + beta) - math.lgamma(a) - math.lgamma(a - beta / 2))

    @staticmethod
    def _jacobi01(size, p, q):
        """Nodes and weights on (0, 1) for the weight u^p (1 - u)^q."""
        u, w = special.roots_jacobi(size, q, p)
        return (1 + u) / 2, w / 2 ** (p + q + 1)

    @classmethod
    def _cdf(cls, beta, x, log_constant, size=40):
        a = beta * cls.N / 2
        rho, w_rho = cls._jacobi01(size, 2 * a - 1, 0.0)
        t, w_t = cls._jacobi01(size, a - beta / 2 - 1, beta)
        l1 = x * rho[:, None]
        l2 = l1 * t[None, :]
        x1, x2 = (-beta / (2 * s) for s in cls.SIGMA)
        coupling = np.exp(x1 * l2 + x2 * l1) * special.hyp1f1(beta / 2, beta, (x1 - x2) * (l1 - l2))
        return math.exp(log_constant) * x ** (2 * a) * float(w_rho @ coupling @ w_t)

    # the agreement measured over the grid: 4.6e-14, 1.19e-13, 2.70e-13, 6.86e-13
    @pytest.mark.parametrize("beta, bound", [(1, 5e-14), (2, 1.3e-13), (4, 3e-13), (8, 7.5e-13)])
    def test_density_integrates_to_the_cdf(self, beta, bound):
        model = WishartModel(2, self.N, self.SIGMA, DivisionAlgebra(beta))
        constant = self._selberg_log_constant(self.N, self.SIGMA, beta)
        worst = max(abs(self._cdf(beta, x, constant) - cdf_lambda_max(model, float(x))) for x in self.GRID)
        assert worst <= bound

    def test_the_old_constant_misses_at_beta_8(self):
        # s^(m a) with s = sqrt(2) is (s1 s2)^a at sigma = (1, 2)
        model = WishartModel(2, self.N, self.SIGMA, DivisionAlgebra(8))
        old = _old_log_constant(2, self.N, 8, math.sqrt(2.0))
        ratios = [self._cdf(8, x, old) / cdf_lambda_max(model, float(x)) for x in self.GRID[40:]]
        assert max(abs(r - 1 / 36) for r in ratios) < 1e-9
