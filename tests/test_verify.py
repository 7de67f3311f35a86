import dataclasses
import math
import pickle

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from jackdiv import _mat2, _quat, verify
from jackdiv.core import DivisionAlgebra, DomainError, Partition, UnsupportedParameterError
from jackdiv.special import mv_beta, mv_gamma
from jackdiv.verify import (
    VerificationReport,
    _eigs_times_diag,
    _haar_batch,
    _matrix_beta1,
    _matrix_beta2,
    _mean_se,
    _rng,
    default_suite,
    run_suite,
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
from jackdiv.wishart import _CHUNK, ConeSampler, _sample_values

from oracles import radial_kernel, scalar_moment, scalar_pfq

B1, B2, B4, B8 = (DivisionAlgebra(b) for b in (1, 2, 4, 8))


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

    @pytest.mark.parametrize("alg", [B1, B2], ids=["b1", "b2"])
    def test_stiefel_frame_is_the_first_columns_of_a_haar_draw(self, alg):
        # the Stiefel check factors only m of n columns; Gram-Schmidt reads
        # no later column, so they are the Haar matrix's bits, drawn from the
        # same stream
        m, n, count, seed = 2, 4, 3000, 21
        r1, r2 = _rng(seed), _rng(seed)
        frame = _mat2.unitary_factor(verify._gaussian(n, alg, r1, count)[:, :, :m])
        full = _haar_batch(n, alg, r2, count)
        assert np.array_equal(frame, full[:, :, :m])
        assert _same_state(r1, r2)
        xx = (1.0, 0.25)
        rep = verify_stiefel_0f1(xx, m, n, alg, n_samples=count, seed=seed)
        tr = (np.sqrt(xx)[None, :] * np.einsum("bii->bi", full[:, :m, :m])).sum(axis=1).real
        assert (rep.estimate, rep.std_error) == _mean_se(np.exp(alg.beta * tr))

    @pytest.mark.parametrize("alg", [B1, B2], ids=["b1", "b2"])
    def test_unitary_factor_is_unitary_on_tall_and_near_parallel_columns(self, alg):
        g = verify._gaussian(4, alg, _rng(23), 20_000)[:, :, :2]
        near = g.copy()
        near[:, :, 1] = g[:, :, 0] + 1e-9 * g[:, :, 1]
        for batch in (g, near):
            q = _mat2.unitary_factor(batch)
            assert q.shape == batch.shape
            assert _rows_max(np.einsum("bji,bjk->bik", q.conj(), q) - np.eye(2)).max() <= 8 * EPS

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
    # At beta = 4 the sample is the complex embedding, whose trace and
    # log-determinant are twice the quaternion ones.

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            ConeSampler(3, B2, 1.5, (1.0, 1.0, 1.0))
        with pytest.raises(UnsupportedParameterError, match="analytic"):
            ConeSampler(2, B8, 4.0, (1.0, 1.0))

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_trace_and_det_moments(self, beta):
        alg = DivisionAlgebra(beta)
        a = 2.3
        sampler = ConeSampler(2, alg, a, (1.0, 1.0))
        x, logdet = sampler.sample(_rng(3), 200_000)
        tr = np.einsum("bii->b", x).real / (2 if beta == 4 else 1)
        assert tr.mean() == pytest.approx(2 * a, rel=0.01)
        # E |X|^s = Gamma_m(a+s)/Gamma_m(a)
        ds = np.exp(logdet)
        want = mv_gamma(2, alg, a + 1) / mv_gamma(2, alg, a)
        assert ds.mean() == pytest.approx(want, rel=0.01)

    def test_logdet_matches_direct(self):
        for alg, a, halve in ((B2, 3.0, 1), (B4, 5.0, 2)):
            sampler = ConeSampler(3, alg, a, (1.0, 2.0, 0.5))
            x, logdet = sampler.sample(_rng(5), 100)
            direct = np.linalg.slogdet(x)[1] / halve
            assert np.abs(direct - logdet).max() < 1e-9


EPS = np.finfo(float).eps


def _hermitian_batch(beta, max_cond, count, seed, m=2):
    """Positive-definite (count, m, m) batch, real at beta = 1 and complex at
    beta = 2, with norms spread over 1e-3..1e3 and condition numbers
    log-uniform on [1, max_cond], the eigenvalues geometric between."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, m, m))
    if beta == 2:
        g = g + 1j * rng.standard_normal((count, m, m))
    q = np.linalg.qr(g)[0]
    lam_min = 10.0 ** -rng.uniform(0.0, math.log10(max_cond), count)
    inner = [lam_min ** (k / (m - 1)) for k in range(1, m - 1)]
    lam = np.stack([np.ones(count), *inner, lam_min], axis=1) * 10.0 ** rng.uniform(-3, 3, count)[:, None]
    a = np.einsum("bij,bj,bkj->bik", q, lam, q.conj())
    return 0.5 * (a + _herm(a))


def _herm(a):
    return np.conj(np.transpose(a, (0, 2, 1)))


def _rows_max(a):
    return np.abs(a).max(axis=(1, 2))


# Each kernel of _mat2 at m = 2 and m = 3, at beta = 1 and 2, on
# well-conditioned batches and on condition numbers up to 1e12.  At m = 3 a
# kernel is the numpy expression it stands for, bit for bit.  At m = 2 it is
# a closed form, checked against the LAPACK call it replaces: both sides are
# backward stable, so they agree to a few ulps of the size of their forward
# error: |A| for eigenvalues and determinants, cond(A) |A^-1| for inverses
# and cond |result| for the factorizations.  unitary_factor is Gram-Schmidt
# at every m, held to that bound against LAPACK's QR at both.
M2_CASES = [(2, beta, cond) for beta in (1, 2) for cond in (10.0, 1e12)]
KERNEL_CASES = M2_CASES + [(3, beta, cond) for beta in (1, 2) for cond in (10.0, 1e12)]


def _case_id(case):
    m, beta, cond = case
    return ("" if m == 2 else f"m{m}-") + f"b{beta}-cond{cond:g}"


def _kernel_batch(case):
    m, beta, cond = case
    return _hermitian_batch(beta, cond, 4000, 7 * beta + int(math.log10(cond)), m)


def _second_batch(a):
    """A positive-definite batch of a's shape and kind, condition <= 1e3."""
    return _hermitian_batch(1 if a.dtype == float else 2, 1e3, len(a), 99, a.shape[-1])


class TestM2Kernels:
    @pytest.fixture(params=M2_CASES, ids=_case_id)
    def batch(self, request):
        return _kernel_batch(request.param)

    @pytest.fixture(params=KERNEL_CASES, ids=_case_id)
    def any_batch(self, request):
        return _kernel_batch(request.param)

    def test_eigvalsh(self, any_batch):
        ref = np.linalg.eigvalsh(any_batch)
        got = _mat2.eigvalsh(any_batch)
        if any_batch.shape[-1] != 2:
            assert np.array_equal(got, ref)
            return
        assert np.all(np.abs(got - ref) <= 16 * EPS * ref[:, 1:])

    def test_det_against_slogdet(self, any_batch):
        sign, logdet = np.linalg.slogdet(any_batch)
        if any_batch.shape[-1] != 2:
            assert np.array_equal(_mat2.logdet(any_batch), np.real(logdet))
            return
        w = np.linalg.eigvalsh(any_batch)
        assert np.all(np.abs(_mat2.det(any_batch) - sign.real * np.exp(logdet)) <= 16 * EPS * w[:, 1] ** 2)
        assert np.all(np.abs(_mat2.logdet(any_batch) - logdet) <= 16 * EPS * w[:, 1] / w[:, 0])

    def test_inv(self, any_batch):
        got = _mat2.inv(any_batch)
        if any_batch.shape[-1] != 2:
            assert np.array_equal(got, np.linalg.inv(any_batch))
            return
        w = np.linalg.eigvalsh(any_batch)
        assert np.all(_rows_max(got - np.linalg.inv(any_batch)) <= 16 * EPS * w[:, 1] / w[:, 0] ** 2)
        assert np.array_equal(got, _herm(got))

    def test_cholesky_whiten_against_cholesky_and_solve(self, any_batch):
        a, s = any_batch, any_batch + _second_batch(any_batch)
        ell = np.linalg.cholesky(s)
        w = np.linalg.solve(ell, a)
        ref = np.linalg.solve(ell, _herm(w))
        ref = 0.5 * (ref + _herm(ref))
        got = _mat2.cholesky_whiten(a, s)
        if any_batch.shape[-1] != 2:
            assert np.array_equal(got, ref)
            return
        ws = np.linalg.eigvalsh(s)
        assert np.all(_rows_max(got - ref) <= 16 * EPS * ws[:, 1] / ws[:, 0] * _rows_max(ref))

    def test_inv_sqrt_whiten_against_eigh(self, any_batch):
        a, b = any_batch, any_batch + _second_batch(any_batch)
        w, q = np.linalg.eigh(b)
        root = np.einsum("bik,bk,bjk->bij", q, w ** -0.5, q.conj())
        ref = root @ a @ root
        ref = 0.5 * (ref + _herm(ref))
        got = _mat2.inv_sqrt_whiten(a, b)
        if any_batch.shape[-1] != 2:
            assert np.array_equal(got, ref)
            return
        assert np.all(_rows_max(got - ref) <= 16 * EPS * w[:, 1] / w[:, 0] * _rows_max(ref))

    def test_unitary_factor_against_qr(self, any_batch):
        # Gram-Schmidt at every m against LAPACK's QR, phases moved into R
        q, r = np.linalg.qr(any_batch)
        d = np.einsum("bii->bi", r)
        ref = q * (d / np.abs(d))[:, None, :]
        got = _mat2.unitary_factor(any_batch)
        sv = np.linalg.svd(any_batch, compute_uv=False)
        assert np.all(_rows_max(got - ref) <= 16 * EPS * sv[:, 0] / sv[:, -1])

    def test_inv_sqrt_against_eigh(self, batch):
        w, q = np.linalg.eigh(batch)
        ref = np.einsum("bik,bk,bjk->bij", q, w ** -0.5, q.conj())
        got = _mat2.inv_sqrt(batch)
        assert np.all(_rows_max(got - ref) <= 16 * EPS * w[:, 1] / w[:, 0] * w[:, 0] ** -0.5)
        assert np.array_equal(got, _herm(got))

    def test_congruence_against_matmul(self, batch):
        m = _hermitian_batch(1, 1e3, len(batch), 5) + 0.5j * np.eye(2)
        ref = m @ batch @ _herm(m)
        scale = np.linalg.norm(m, 2, axis=(1, 2)) ** 2 * np.linalg.norm(batch, 2, axis=(1, 2))
        assert np.all(_rows_max(_mat2.congruence(m, batch) - ref) <= 16 * EPS * scale)

    def test_degenerate_inputs_raise_no_warning(self):
        # RuntimeWarning is an error under the test configuration
        zero = np.zeros((1, 2, 2))
        assert np.array_equal(_mat2.eigvalsh(zero), [[0.0, 0.0]])
        assert np.array_equal(_eigs_times_diag(np.eye(2)[None], (0.0, 0.0)), [[0.0, 0.0]])
        with pytest.raises(DomainError, match="not independent"):
            _mat2.unitary_factor(np.array([[[1.0, 2.0], [0.0, 0.0]]]))
        for kernel in (_mat2.inv_sqrt, lambda b: _mat2.cholesky_whiten(b, b)):
            with pytest.raises(DomainError, match="positive definite"):
                kernel(np.array([[[1.0, 2.0], [2.0, 1.0]]]))
        with pytest.raises(DomainError, match="singular"):
            _mat2.inv(np.array([[[1.0, 1.0], [1.0, 1.0]]]))

    def test_logdet_rejects_indefinite_with_positive_diagonal(self):
        with pytest.raises(DomainError, match="positive definite"):
            _mat2.logdet(np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]]))


def _numpy_cone_draw(sampler, rng, count):
    """X from ``sampler.bartlett`` by the product of factors, as
    ``ConeSampler.sample`` builds it at m != 2."""
    diag, off, _ = sampler.bartlett(rng, count)
    t = np.zeros((count, 2, 2), dtype=off.dtype)
    t[:, 0, 1] = off[:, 0]
    t[:, [0, 1], [0, 1]] = diag
    inv_root = 1.0 / np.sqrt(np.asarray(sampler.scale_eigs))
    return np.einsum("bji,bjk->bik", t.conj(), t) * inv_root[None, :, None] * inv_root[None, None, :]


def _same_state(r1, r2):
    return r1.bit_generator.state == r2.bit_generator.state


@pytest.mark.parametrize("alg", [B1, B2], ids=["b1", "b2"])
class TestM2Samplers:
    # Each m = 2 sampler against the numpy construction on the same draws,
    # leaving the generator where the numpy path leaves it.

    def test_cone_sample(self, alg):
        sampler = ConeSampler(2, alg, 1.7, (1.0, 1.3))
        r1, r2 = _rng(11), _rng(11)
        x, logdet = sampler.sample(r1, 3000)
        ref = _numpy_cone_draw(sampler, r2, 3000)
        assert _same_state(r1, r2)
        assert x.dtype == ref.dtype
        assert np.all(_rows_max(x - ref) <= 4 * EPS * _rows_max(ref))
        assert np.allclose(logdet, np.linalg.slogdet(ref)[1], rtol=0.0, atol=1e-9)

    def test_matrix_beta1(self, alg):
        r1, r2 = _rng(12), _rng(12)
        u = _matrix_beta1(2, alg, 1.4, 2.1, r1, 3000)
        a, _ = ConeSampler(2, alg, 1.4, (1.0, 1.0)).sample(r2, 3000)
        b, _ = ConeSampler(2, alg, 2.1, (1.0, 1.0)).sample(r2, 3000)
        assert _same_state(r1, r2)
        ell = np.linalg.cholesky(a + b)
        ref = np.linalg.solve(ell, _herm(np.linalg.solve(ell, a)))
        ws = np.linalg.eigvalsh(a + b)
        assert np.all(_rows_max(u - 0.5 * (ref + _herm(ref))) <= 16 * EPS * ws[:, 1] / ws[:, 0])

    def test_matrix_beta2(self, alg):
        r1, r2 = _rng(13), _rng(13)
        x = _matrix_beta2(2, alg, 1.4, 2.1, r1, 3000)
        a, _ = ConeSampler(2, alg, 1.4, (1.0, 1.0)).sample(r2, 3000)
        b, _ = ConeSampler(2, alg, 2.1, (1.0, 1.0)).sample(r2, 3000)
        assert _same_state(r1, r2)
        w, q = np.linalg.eigh(b)
        root = np.einsum("bik,bk,bjk->bij", q, w ** -0.5, q.conj())
        ref = root @ a @ root
        assert np.all(_rows_max(x - ref) <= 16 * EPS * w[:, 1] / w[:, 0] * _rows_max(ref))

    def test_haar(self, alg):
        r1, r2 = _rng(14), _rng(14)
        h = _haar_batch(2, alg, r1, 3000)
        g = r2.standard_normal((3000, 2, 2))
        if alg.beta == 2:
            g = g + 1j * r2.standard_normal((3000, 2, 2))
        assert _same_state(r1, r2)
        q, r = np.linalg.qr(g)
        d = np.einsum("bii->bi", r)
        ref = q * (d / np.abs(d))[:, None, :]
        sv = np.linalg.svd(g, compute_uv=False)
        assert np.all(_rows_max(h - ref) <= 16 * EPS * sv[:, 0] / sv[:, 1])
        # and unitary to rounding
        assert _rows_max(np.einsum("bji,bjk->bik", h.conj(), h) - np.eye(2)).max() <= 8 * EPS


@pytest.mark.parametrize("alg", [B1, B2], ids=["b1", "b2"])
def test_haar_m3_is_the_q_of_a_positive_diagonal_qr(alg):
    # H is the Gram-Schmidt Q of a Gaussian G: redrawn from the same seed,
    # G = H R with R upper triangular and its diagonal real and positive
    r1, r2 = _rng(16), _rng(16)
    h = _haar_batch(3, alg, r1, 3000)
    g = r2.standard_normal((3000, 3, 3))
    if alg.beta == 2:
        g = g + 1j * r2.standard_normal((3000, 3, 3))
    assert _same_state(r1, r2)
    r = np.einsum("bji,bjk->bik", h.conj(), g)
    tol = 16 * EPS * _rows_max(g)
    assert np.all(_rows_max(np.tril(r, -1)) <= tol)
    diag = np.einsum("bii->bi", r)
    assert np.all(np.abs(diag.imag).max(axis=1) <= tol)
    assert np.all(diag.real > 0)


def _max_mean_z(x, target):
    """Largest |z| of the entrywise sample means of a Hermitian batch
    against target * I: real parts on and above the diagonal, imaginary
    parts above it."""
    m = x.shape[-1]
    cols = [x.real[:, i, j] - (target if i == j else 0.0) for i in range(m) for j in range(i, m)]
    if np.iscomplexobj(x):
        cols += [x.imag[:, i, j] for i in range(m) for j in range(i + 1, m)]
    return max(abs(est) / se for est, se in map(_mean_se, cols))


@pytest.mark.parametrize("alg", [B1, B2], ids=["b1", "b2"])
class TestMatrixBetaM3:
    # The numpy path (m != 2) of the matrix-beta samplers against their means
    # at c = (m-1) beta/2: a1/(a1+a2) I for type I, a1/(a2 - c - 1) I for type II.
    N = 40_000

    def test_matrix_beta1(self, alg):
        c = alg.beta
        a1, a2 = c + 1.2, c + 4
        u = _matrix_beta1(3, alg, a1, a2, _rng(17), self.N)
        w = np.linalg.eigvalsh(u)
        assert np.all((w > 0) & (w < 1))
        assert _max_mean_z(u, a1 / (a1 + a2)) <= 5

    def test_matrix_beta2(self, alg):
        c = alg.beta
        a1, a2 = c + 1.2, c + 4
        x = _matrix_beta2(3, alg, a1, a2, _rng(18), self.N)
        assert np.all(np.linalg.eigvalsh(x) > 0)
        assert _max_mean_z(x, a1 / (a2 - c - 1)) <= 5


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_m2_split_spectra_match_embedding_eigvalsh(beta):
    alg = DivisionAlgebra(beta)
    x_eigs, y_eigs = (1.0, 2.0), (3.0, 0.5)
    h = _haar_batch(2, alg, _rng(15), 3000)
    e = _quat.embed(*h) if beta == 4 else h
    x, y = (np.tile(v, 2) if beta == 4 else np.asarray(v) for v in (x_eigs, y_eigs))
    inner = np.einsum("bji,j,bjk->bik", e.conj(), y, e)
    vals = np.linalg.eigvalsh(np.sqrt(x)[None, :, None] * inner * np.sqrt(x)[None, None, :])
    ref = _quat.dedupe_pairs(vals) if beta == 4 else vals[:, ::-1]
    got = _mat2.conjugated_spectra(x_eigs, y_eigs, alg, h)
    assert np.all(np.abs(got - ref) <= 16 * EPS * ref[:, :1])


def _embedded(h, *diagonals):
    """A Haar batch as complex matrices (the embedding of a quaternion pair)
    and each diagonal doubled to match."""
    if not isinstance(h, tuple):
        return (h, *(np.asarray(d, dtype=float) for d in diagonals))
    return (_quat.embed(*h), *(np.tile(np.asarray(d, dtype=float), 2) for d in diagonals))


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_m2_split_lambda_min_keeps_relative_accuracy(beta):
    # y nearly singular: lambda_min from a11 a22 - |a12|^2 once lost 1e-4 of
    # its relative accuracy; from det X det Y it keeps all of it
    alg = DivisionAlgebra(beta)
    x_eigs, y_eigs = (1.0, 2.0), (3.0, 3e-12)
    h = _haar_batch(2, alg, _rng(16), 50)
    got = _mat2.conjugated_spectra(x_eigs, y_eigs, alg, h)
    e, x, y = _embedded(h, x_eigs, y_eigs)
    with mpmath.workdps(40):
        root_x = mpmath.diag([mpmath.sqrt(v) for v in x.tolist()])
        for b in range(len(e)):
            hb = mpmath.matrix(e[b].tolist())
            a = root_x * hb.H * mpmath.diag(y.tolist()) * hb * root_x
            lam_min = min(mpmath.re(v) for v in mpmath.eighe(a, eigvals_only=True))
            assert abs(got[b, 1] - lam_min) <= 1e-14 * lam_min


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_moduli_sum_matches_embedding_trace(m, beta):
    # Re tr(X H Y H*) = sum_ij x_i y_j |h_ij|^2; the embedding counts each
    # quaternion trace twice
    alg = DivisionAlgebra(beta)
    x_eigs, y_eigs = np.linspace(0.4, 2.0, m), np.linspace(1.5, 0.3, m)
    h = _haar_batch(m, alg, _rng(17), 2000)
    got = np.einsum("i,bij,j->b", x_eigs, _mat2.moduli_sq(h), y_eigs)
    e, x, y = _embedded(h, x_eigs, y_eigs)
    ref = np.einsum("i,bij,j,bij->b", x, e, y, e.conj()).real / (2 if beta == 4 else 1)
    assert np.all(np.abs(got - ref) <= 8 * EPS * np.abs(ref).max())


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


class TestRealTightDomain:
    # The suite's beta = 1 cases below the classical bound use kappa = (1, 1),
    # whose integrand has zero variance; with kappa = (2, 1) the weight and
    # the Jack factor both vary, so these checks can fail.

    @pytest.mark.parametrize("seed", [1, 2])
    def test_laplace_jack(self, seed):
        r = verify_laplace_jack(0.25, Partition((2, 1)), (1.0, 0.5), (1.0, 1.0), 2, B1,
                                200_000, seed)
        assert r.passed and r.std_error / abs(r.estimate) > 1e-6

    @pytest.mark.parametrize("seed", [1, 2])
    def test_beta_jack(self, seed):
        r = verify_beta_jack(0.3, 2.0, Partition((2, 1)), (1.0, 0.7), 2, B1, False,
                             200_000, seed)
        assert r.passed and r.std_error / abs(r.estimate) > 1e-6


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

    # the three radial cases of the suite: (f_id, a, m, weight, inverse_arg, eta, j_power)
    SUITE_RADIAL = [("exp", 3.3, 2, 1, True, 3.0, 1), ("exp_power", 1.4, 2, 2, False, 3.0, 1),
                    ("pareto", 3.2, 2, 1, True, 4.0, 1)]

    @pytest.mark.parametrize("f_id, a, m, k, inverse_arg, eta, j_power", SUITE_RADIAL + [
        (f_id, a, m, k, inv, eta, j)
        for f_id in ("exp", "exp_power", "pareto")
        for a, m, k, inv in [(0.7, 1, 0, True), (2.9, 1, 2, True), (1.6, 3, 1, False)]
        for eta, j in [(2.0, 2), (5.0, 0)]
    ])
    def test_closed_form_moment_is_the_quadrature(self, f_id, a, m, k, inverse_arg, eta, j_power):
        beta = 1.0
        power = a * m - k if inverse_arg else a * m + k
        got = math.exp(verify._log_radial_moment(f_id, beta, a, m, eta, j_power, power))
        want = scalar_moment(radial_kernel(f_id, beta, a, m, eta, j_power), power)
        # measured: within 4e-15 of quad at the suite kernels, 1e-13 over the
        # grid (quad is asked for 1e-10)
        assert got == pytest.approx(want, rel=1e-12)

    def test_moment_domains(self):
        with pytest.raises(DomainError, match="diverges at 0"):
            verify._log_radial_moment("exp", 1.0, 1.0, 1, 3.0, 1, 0.0)
        with pytest.raises(DomainError, match="diverges at infinity"):
            verify._log_radial_moment("pareto", 1.0, 1.0, 1, 0.5, 1, 2.0)
        with pytest.raises(UnsupportedParameterError, match="unknown kernel"):
            verify._log_radial_moment("gauss", 1.0, 1.0, 1, 3.0, 1, 1.0)

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

    def test_cone_checks_reject_quaternion(self):
        # the cone sampler returns quaternion draws as complex embeddings,
        # which the checks would read as 2m x 2m matrices
        with pytest.raises(UnsupportedParameterError, match="beta in"):
            verify_laplace_jack(1.3, Partition((2,)), (0.8,), (1.2,), 1, B4, 100, 1)
        with pytest.raises(UnsupportedParameterError, match="beta in"):
            verify_beta_jack(2.0, 3.0, Partition((1,)), (1.0,), 1, B4, False, 100, 1)

    def test_logdet_rejects_non_positive_definite(self):
        assert _mat2.logdet(np.array([np.diag([2.0, 3.0])])) == pytest.approx([math.log(6.0)])
        batch = np.array([np.eye(2), np.diag([1.0, -2.0])])
        with pytest.raises(DomainError, match="positive definite"):
            _mat2.logdet(batch)

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
    def test_run_suite_applies_the_thresholds(self):
        default, = run_suite(quick=True, only="two-matrix-0f0/b1")
        strict, = run_suite(quick=True, only="two-matrix-0f0/b1", z_max=1e-9)
        assert default.passed and not strict.passed
        assert strict.to_line()[:-1] == default.to_line()[:-1]

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

    def test_thunks_pickle(self):
        # each case is a partial of a module-level check, so the suite can be
        # shipped to worker processes as it is
        cases = default_suite(quick=True)
        restored = [pickle.loads(pickle.dumps(thunk)) for _, thunk in cases]
        for (_, thunk), back in zip(cases, restored):
            assert (back.func, back.args, back.keywords) == (thunk.func, thunk.args, thunk.keywords)
        for (_, thunk), back in zip(cases[:2], restored):
            assert back().to_line() == thunk().to_line()
