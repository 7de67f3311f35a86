import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from jackdiv import _quat, wishart
from jackdiv.core import DivisionAlgebra, DomainError, UnsupportedParameterError
from jackdiv.hypergeom import SeriesTruncation
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
        model = WishartModel(2, 4, (1.0, 2.0), B4)
        eigs = sample_wishart_eigs(model, 17, 4000)
        assert eigs.shape == (4000, 2)
        assert np.all(eigs[:, 0] >= eigs[:, 1])
        assert np.all(eigs > 0)
        # mean trace is n * tr(Sigma)
        assert eigs.sum(axis=1).mean() == pytest.approx(12.0, rel=0.05)

    def test_quaternion_pairing_mismatch_warns(self):
        with pytest.warns(RuntimeWarning, match="pairs differ"):
            vals = _quat.dedupe_pairs(np.array([[0.5, 0.5, 2.0, 2.5]]))
        assert np.array_equal(vals, [[2.5, 0.5]])

    def test_rows_have_no_ties(self):
        model = WishartModel(2, 5, (1.0, 1.0), B1)
        eigs = sample_wishart_eigs(model, 19, 8)
        assert eigs.shape == (8, 2)
        assert not np.any(np.diff(eigs, axis=1) == 0.0)

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
            a = cdf_lambda_max(model, x, transformed=True)
            b = cdf_lambda_max(model, x, transformed=False)
            assert a == pytest.approx(b, rel=1e-6)

    def test_raw_form_flags_non_convergence(self):
        model = WishartModel(2, 4, (1.0, 2.0), B4)
        with pytest.warns(ConvergenceWarning):
            cdf_lambda_max(model, 20.0, trunc=SeriesTruncation(max_degree=10),
                           transformed=False)

    def test_domain(self):
        with pytest.raises(DomainError):
            cdf_lambda_max(WishartModel(1, 2, (1.0,), B1), 0.0)

    def test_stall_window_reaches_m2_engine(self, monkeypatch):
        # the user's truncation reaches the m = 2 engine whole, so a longer
        # stall window sums more degrees
        seen = []
        engine = wishart.pfq_positive_m2

        def spy(*args):
            res = engine(*args)
            seen.append(res.degrees_used)
            return res

        monkeypatch.setattr(wishart, "pfq_positive_m2", spy)
        model = WishartModel(2, 4, (1.0, 2.0), B1)
        for s in (1, 3, 12):
            cdf_lambda_max(model, 10.0, SeriesTruncation(400, 1e-12, stall_window=s))
        assert seen == [31, 33, 42]

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_far_tail_finite_bounded_monotone(self, beta):
        # every value finite and in [0, 1], no drop beyond rounding, out to
        # x = 1000 (about 7000 degrees at beta = 8)
        model = WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(beta))
        grid = np.concatenate([np.geomspace(0.05, 20.0, 24), np.geomspace(25.0, 1000.0, 24)])
        vals = [cdf_lambda_max(model, float(x)) for x in grid]
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-11 for a, b in zip(vals, vals[1:]))
        assert vals[-1] >= 1.0 - 1e-10

    @pytest.mark.parametrize("excess, outcome", [
        (0.0, 1.0), (5e-11, 1.0), (1e-9, DomainError), (800.0, DomainError),
    ])
    def test_excess_over_one(self, monkeypatch, excess, outcome):
        # log CDF = log prefactor - trace + log series, forced to `excess`
        model = WishartModel(2, 4, (1.0, 2.0), B1)
        trace = 0.5 * (1.0 + 0.5)
        monkeypatch.setattr(wishart, "_cdf_prefactor", lambda model, t: (0.0, 0.0, trace))
        monkeypatch.setattr(wishart, "_log_1f1_positive", lambda *args: excess)
        if outcome is DomainError:
            with pytest.raises(DomainError, match="above 1"):
                cdf_lambda_max(model, 1.0)
        else:
            assert cdf_lambda_max(model, 1.0) == outcome


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
        assert all(-1e-9 <= v <= 1.0 + 1e-6 for v in vals)

    def test_min_cdf_dominates_max_cdf(self):
        model = WishartModel(2, 7, (1.0, 2.0), B2)
        for y in (0.5, 2.0, 5.0, 9.0):
            assert cdf_lambda_min(model, y) >= cdf_lambda_max(model, y) - 1e-9


class TestJointDensity:
    @pytest.mark.parametrize("beta", [1, 2, 4])
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

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_normalizes_scalar_scale(self, beta):
        model = WishartModel(2, 4, (1.5, 1.5), DivisionAlgebra(beta))
        val, err = integrate.dblquad(
            lambda l2, l1: joint_eigen_density(model, (l1, l2)),
            0, 90.0, 0, lambda l1: l1, epsabs=1e-7, epsrel=1e-6,
        )
        assert val == pytest.approx(1.0, abs=0.02)

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
