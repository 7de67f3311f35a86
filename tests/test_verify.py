import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from jackdiv import _quat, verify
from jackdiv.core import DivisionAlgebra, DomainError, Partition, UnsupportedParameterError
from jackdiv.special import mv_beta, mv_gamma
from jackdiv.verify import (
    _CHUNK,
    ConeSampler,
    VerificationReport,
    _haar_batch,
    _logdet_h,
    _rng,
    _sample_values,
    default_suite,
    verify_beta_jack,
    verify_incomplete,
    verify_laplace_hypergeom,
    verify_laplace_jack,
    verify_split_integral,
    verify_stiefel_0f1,
    verify_radial_kernel,
    verify_beta2_jack,
    verify_two_matrix_0f0,
)

from oracles import scalar_pfq

B1, B2, B4 = DivisionAlgebra(1), DivisionAlgebra(2), DivisionAlgebra(4)


class TestHaar:
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_unitary(self, beta):
        h = _haar_batch(3, DivisionAlgebra(beta), _rng(5), 4)
        if beta == 4:
            h = _quat.embed(*h)
        eye = np.eye(h.shape[-1])
        err = np.abs(np.einsum("bji,bjk->bik", h.conj(), h) - eye).max()
        assert err < 1e-12

    def test_octonion_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            _haar_batch(2, DivisionAlgebra(8), _rng(0), 1)

    def test_column_norms(self):
        h = _haar_batch(4, B2, _rng(9), 4)
        assert np.abs(np.linalg.norm(h, axis=1) - 1.0).max() < 1e-12

    def test_trace_moment_complex(self):
        # E[|tr H|^2] = 1 on the unitary group
        rng = _rng(33)
        h = _haar_batch(3, B2, rng, 10_000)
        t = np.einsum("bii->b", h)
        stat = np.abs(t) ** 2
        se = stat.std(ddof=1) / math.sqrt(len(stat))
        assert abs(stat.mean() - 1.0) <= 5 * se

    def test_left_invariance(self):
        # distribution of an entry functional is unchanged by a fixed rotation
        rng = _rng(35)
        h = _haar_batch(3, B1, rng, 20_000)
        q = _haar_batch(3, B1, _rng(77), 1)[0]
        f_plain = h[:, 0, 0]
        f_rot = np.einsum("ij,bjk->bik", q, h)[:, 0, 0]
        d, p = stats.ks_2samp(f_plain, f_rot)
        assert p > 1e-3


class TestConeSampler:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            ConeSampler(3, B2, 1.5, (1.0, 1.0, 1.0))
        with pytest.raises(UnsupportedParameterError):
            ConeSampler(2, B4, 4.0, (1.0, 1.0))

    @pytest.mark.parametrize("beta", [1, 2])
    def test_trace_and_det_moments(self, beta):
        alg = DivisionAlgebra(beta)
        a = 2.3
        sampler = ConeSampler(2, alg, a, (1.0, 1.0))
        x, logdet = sampler.sample(_rng(3), 200_000)
        tr = np.einsum("bii->b", x).real
        assert tr.mean() == pytest.approx(2 * a, rel=0.01)
        # E |X|^s = Gamma_m(a+s)/Gamma_m(a)
        ds = np.exp(logdet)
        want = mv_gamma(2, alg, a + 1) / mv_gamma(2, alg, a)
        assert ds.mean() == pytest.approx(want, rel=0.01)

    def test_logdet_matches_direct(self):
        sampler = ConeSampler(3, B2, 3.0, (1.0, 2.0, 0.5))
        x, logdet = sampler.sample(_rng(5), 100)
        direct = np.linalg.slogdet(x)[1]
        assert np.abs(direct - logdet).max() < 1e-9


class TestReport:
    def test_line_format_and_threshold_fields(self):
        r = VerificationReport("id-x", 2.0, 2.02, 0.01, 1000, param_digest="ab12cd34")
        line = r.to_line()
        fields = line.split(",")
        assert fields[0] == "id-x" and fields[1] == "ab12cd34"
        assert fields[-1] in ("0", "1")
        assert r.z_score == pytest.approx(2.0)
        assert r.rel_error == pytest.approx(0.01)
        assert r.passed

    def test_pass_iff_both_thresholds(self):
        assert not VerificationReport("a", 1.0, 1.2, 0.01, 10).passed  # z huge
        assert not VerificationReport("a", 1.0, 1.2, 1.0, 10, rel_max=0.05).passed  # rel big
        assert VerificationReport("a", 1.0, 1.001, 0.001, 10).passed

    def test_exact_zero_variance(self):
        r = VerificationReport("a", 3.0, 3.0, 0.0, 10)
        assert r.z_score == 0.0 and r.passed


class TestSampleValues:
    def test_chunks_concatenated_in_draw_order(self):
        counts = []

        def draw(count):
            start = sum(counts)
            counts.append(count)
            return np.arange(start, start + count, dtype=float)

        values = _sample_values(45_000, draw)
        assert counts == [20_000, 20_000, 5_000]
        assert np.array_equal(values, np.arange(45_000.0))

    def test_one_call_below_chunk(self):
        counts = []
        values = _sample_values(_CHUNK - 1, lambda count: counts.append(count) or np.ones(count))
        assert counts == [_CHUNK - 1] and values.size == _CHUNK - 1


class TestDeterminism:
    def test_identical_reports_for_identical_inputs(self):
        kw = dict(n_samples=20_000, seed=17)
        a = verify_split_integral(Partition((2,)), (1.0, 2.0), (3.0, 1.0), 2, B1, **kw)
        b = verify_split_integral(Partition((2,)), (1.0, 2.0), (3.0, 1.0), 2, B1, **kw)
        assert a.to_line() == b.to_line()

    def test_two_disjoint_seeds_agree_within_combined_se(self):
        mk = lambda seed: verify_laplace_jack(
            1.6, Partition((2,)), (1.0, 0.5), (1.0, 1.2), 2, B1, 50_000, seed
        )
        r1, r2 = mk(101), mk(909090)
        comb = math.hypot(r1.std_error, r2.std_error)
        assert abs(r1.estimate - r2.estimate) <= 6 * comb


class TestEmptyWeightReductions:
    """kappa = 0 (or zero arguments) collapse to closed gamma/beta values."""

    def check(self, r):
        assert r.rel_error <= max(3 * r.std_error / max(abs(r.analytic), 1e-300), 1e-10)
        assert r.rel_error <= 1e-2

    def test_split(self):
        self.check(verify_split_integral(Partition(()), (1.0, 2.0), (3.0, 1.0), 2, B1, 2000, 3))

    def test_laplace_jack(self):
        self.check(verify_laplace_jack(1.4, Partition(()), (1.0, 0.5), (1.0, 1.1), 2, B1, 2000, 3))

    def test_beta_jack(self):
        self.check(verify_beta_jack(1.7, 2.2, Partition(()), (1.0, 0.5), 2, B1, False, 2000, 3))

    def test_beta2(self):
        self.check(verify_beta2_jack(1.8, 2.4, Partition(()), (1.0, 0.5), 2, B1, "r2", 2000, 3))

    def test_two_matrix_zero_argument(self):
        r = verify_two_matrix_0f0((0.5, 0.2), (0.0, 0.0), 2, B1, 2000, 3)
        assert r.analytic == 1.0 and r.estimate == pytest.approx(1.0, abs=1e-12)

    def test_stiefel_zero_argument(self):
        r = verify_stiefel_0f1((0.0,), 1, 2, B1, 2000, 3)
        assert r.analytic == 1.0 and r.estimate == pytest.approx(1.0, abs=1e-12)


class TestScalarQuadratureOracles:
    """At m = 1 every analytic side must match adaptive quadrature to 1e-3."""

    def test_laplace_jack(self):
        a, k, r_, z = 1.3, 2, 0.8, 1.2
        rep = verify_laplace_jack(a, Partition((k,)), (r_,), (z,), 1, B1, 1000, 1)
        quad, _ = integrate.quad(lambda x: math.exp(-x * z) * x ** (a - 1) * (x * r_) ** k, 0, np.inf)
        assert rep.analytic == pytest.approx(quad, rel=1e-3)

    def test_beta_jack_forward(self):
        a, b, k, r_ = 1.4, 2.1, 2, 0.7
        rep = verify_beta_jack(a, b, Partition((k,)), (r_,), 1, B1, False, 1000, 1)
        quad, _ = integrate.quad(
            lambda x: x ** (a - 1) * (1 - x) ** (b - 1) * (x * r_) ** k, 0, 1
        )
        assert rep.analytic == pytest.approx(quad, rel=1e-3)

    def test_radial_kernels(self):
        z, u = 1.1, 0.6
        for f_id, fker in [
            ("exp", lambda y: math.exp(-y)),
            ("exp_power", lambda y: math.exp(-y) * y),
            ("pareto", lambda y: (1 + 2 * y / 3.0) ** -(3.4 + 3.0)),
        ]:
            a, k = 3.4, 1
            rep = verify_radial_kernel(f_id, a, Partition((k,)), (u,), (z,), 1, B1, True,
                                  1000, 1, eta=3.0, j_power=1)
            quad, _ = integrate.quad(
                lambda x: fker(x * z) * x ** (a - 1) * (u / x) ** k, 0, np.inf
            )
            assert rep.analytic == pytest.approx(quad, rel=1e-3)

    def test_beta2_variants(self):
        a, b, k, r_ = 3.6, 1.9, 1, 0.8
        rep = verify_beta2_jack(a, b, Partition((k,)), (r_,), 1, B1, "r1", 1000, 1)
        quad, _ = integrate.quad(
            lambda x: x ** (a - 1) * (1 + x) ** -(a + b) * (r_ / x) ** k, 0, np.inf
        )
        assert rep.analytic == pytest.approx(quad, rel=1e-3)
        rep = verify_beta2_jack(1.9, 3.6, Partition((k,)), (r_,), 1, B1, "r2", 1000, 1)
        quad, _ = integrate.quad(
            lambda x: x ** (1.9 - 1) * (1 + x) ** -(1.9 + 3.6) * (r_ * x) ** k, 0, np.inf
        )
        assert rep.analytic == pytest.approx(quad, rel=1e-3)

    def test_incomplete_gamma_lower(self):
        a, lam, om = 1.5, 0.9, 1.3
        rep = verify_incomplete("gamma_lower", 1, B1, a, lambda_eigs=(lam,),
                                omega_eigs=(om,), n_samples=1000, seed=1)
        quad, _ = integrate.quad(lambda x: math.exp(-lam * x) * x ** (a - 1), 0, om)
        assert rep.analytic == pytest.approx(quad, rel=1e-3)

    def test_incomplete_beta(self):
        a, b, xi = 1.2, 2.3, 0.45
        rep = verify_incomplete("beta", 1, B1, a, b=b, xi_eigs=(xi,), n_samples=1000, seed=1)
        quad, _ = integrate.quad(lambda x: x ** (a - 1) * (1 - x) ** (b - 1), 0, xi)
        assert rep.analytic == pytest.approx(quad, rel=1e-3)

    def test_incomplete_gamma_upper_exact_finite_sum(self):
        # r = 2 at a = 3: the closed form is the truncated-exponential identity
        lam, om = 1.1, 0.8
        rep = verify_incomplete("gamma_upper", 1, B1, 3.0, lambda_eigs=(lam,),
                                omega_eigs=(om,), n_samples=1000, seed=1)
        t = lam * om
        exact = math.exp(-t) * (1 + t + t * t / 2) * math.gamma(3.0) * lam ** -3.0
        assert rep.analytic == pytest.approx(exact, rel=1e-12)
        quad, _ = integrate.quad(lambda x: math.exp(-lam * x) * x ** 2.0, om, np.inf)
        assert rep.analytic == pytest.approx(quad, rel=1e-3)

    def test_laplace_hypergeom(self):
        a, u, z = 1.7, 0.25, 1.4
        rep = verify_laplace_hypergeom((0.9,), (2.3,), a, (u,), (z,), 1, B1,
                                       n_samples=1000, seed=1)
        quad, _ = integrate.quad(
            lambda x: math.exp(-x * z) * scalar_pfq((0.9,), (2.3,), x * u) * x ** (a - 1),
            0, np.inf,
        )
        assert rep.analytic == pytest.approx(quad, rel=1e-3)

    def test_stiefel_circle_quadrature(self):
        xx = 0.81
        rep = verify_stiefel_0f1((xx,), 1, 2, B1, 1000, 1)
        root = math.sqrt(xx)
        quad, _ = integrate.quad(
            lambda th: math.exp(root * math.cos(th)) / (2 * math.pi), 0, 2 * math.pi
        )
        assert rep.analytic == pytest.approx(quad, rel=1e-4)


class TestDomainEnforcement:
    def test_laplace_jack_tight_bound(self):
        # a > c - k_m: at m=2, beta=1, kappa=(1,1): bound is -0.5
        with pytest.raises(DomainError):
            verify_laplace_jack(-0.6, Partition((1, 1)), (1.0, 0.5), (1.0, 1.0), 2, B1, 100, 1)
        # inside the corrected region works
        rep = verify_laplace_jack(-0.3, Partition((1, 1)), (1.0, 0.5), (1.0, 1.0), 2, B1, 50_000, 1)
        assert rep.passed

    def test_beta2_domains(self):
        with pytest.raises(DomainError):
            verify_beta2_jack(2.0, 1.0, Partition((2,)), (1.0, 0.5), 2, B1, "r1", 100, 1)
        with pytest.raises(UnsupportedParameterError):
            verify_beta2_jack(2.0, 5.0, Partition((2,)), (1.0, 0.5), 2, B1, "r3", 100, 1)

    def test_incomplete_gamma_upper_integer_condition(self):
        with pytest.raises(UnsupportedParameterError, match="positive integer"):
            verify_incomplete("gamma_upper", 2, B1, 2.7, lambda_eigs=(1.0, 0.5),
                              omega_eigs=(1.0, 0.5), n_samples=100, seed=1)

    def test_logdet_rejects_non_positive_definite(self):
        assert _logdet_h(np.array([np.diag([2.0, 3.0])])) == pytest.approx([math.log(6.0)])
        batch = np.array([np.eye(2), np.diag([1.0, -2.0])])
        with pytest.raises(DomainError, match="positive definite"):
            _logdet_h(batch)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_nonpositive_sample_count(self, n_samples):
        with pytest.raises(DomainError, match="n_samples"):
            verify_two_matrix_0f0((0.5, 0.2), (0.3, 0.1), 2, B1, n_samples, 3)
        with pytest.raises(DomainError, match="n_samples"):
            _sample_values(n_samples, np.ones)

    def test_laplace_analytic_side_that_does_not_converge_raises(self):
        # the analytic 2F1(0.9, 20; 2.3) at largest eigenvalue 0.86 has not
        # converged by the default cap of degree 40; nothing is sampled
        with pytest.raises(DomainError, match="analytic series not converged at degree 40"):
            verify_laplace_hypergeom((0.9,), (2.3,), 20.0, (0.9, 0.8), (1.05, 1.05), 2, B1,
                                     n_samples=200, seed=1)

    def test_laplace_integrand_that_does_not_converge_raises(self, monkeypatch):
        real = verify.pfq_batch

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(verify, "pfq_batch", unconverged)
        with pytest.raises(DomainError, match="integrand series not converged at degree"):
            verify_laplace_hypergeom((0.9,), (2.3,), 3.0, (0.3, 0.2), (1.05, 1.05), 2, B1,
                                     n_samples=200, seed=1)

    def test_inverse_laplace_requires_termination(self):
        with pytest.raises(UnsupportedParameterError, match="terminating"):
            verify_laplace_hypergeom((), (), 3.0, (-0.3, -0.1), (1.0, 1.0), 2, B1,
                                     inverse_arg=True, n_samples=100, seed=1)


class TestSuite:
    def test_labels_unique_and_runnable(self):
        cases = default_suite(quick=True)
        labels = [label for label, _ in cases]
        assert len(labels) == len(set(labels))
        ids = set()
        # spot-run two cheap cases
        for label, thunk in cases[:2]:
            r = thunk()
            assert r.passed
            ids.add(r.identity_id)
        assert len(ids) == 2
