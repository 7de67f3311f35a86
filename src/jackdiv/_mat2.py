"""Batched Hermitian matrix kernels, with closed forms at m = 2.

A batch at m = 2 and beta = 1, 2 is an :class:`Entries`, the three entry
columns a11, a22 (real) and a12 of its matrices; any other batch is a
(count, m, m) array, real or complex.  Each public kernel serves both and
chooses by type: on an :class:`Entries` it runs a closed form on the three
columns and returns its matrix results as an :class:`Entries` again, and on
an array the numpy expression it stands for.  So the choice is made here
alone, for the Wishart and cone draws of :mod:`jackdiv.wishart` as for the
checks of :mod:`jackdiv.verify`: :func:`factor_gram` makes the
:class:`Entries` of a cone draw, and no m = 2 step of a check writes a
(count, 2, 2) array or reads one back.  :func:`entries` and
:func:`assemble` convert between the two forms.  The closed forms return
what the LAPACK call returns, to rounding; :func:`unitary_factor` alone is
one algorithm at every size:

- :func:`eigvalsh`: lambda_max = mean + sqrt(half_gap^2 + |a12|^2) adds two
  nonnegative terms, and lambda_min = det / lambda_max avoids the
  cancellation of the minus root (:func:`spectra`);
- :func:`logdet`: the log of a11 a22 - |a12|^2 (:func:`det`);
- :func:`inv`: adj A / det A;
- :func:`cholesky_whiten`: L^-1 A L^-H for the Cholesky factor L of S;
- :func:`inv_sqrt_whiten`: B^(-1/2) A B^(-1/2), the congruence by the
  Hermitian root B^(-1/2) = (adj B + s I) / (s t), s = sqrt(det B), t =
  sqrt(tr B + 2 s) (:func:`inv_sqrt`);
- :func:`add`, :func:`identity_plus`, :func:`diag_congruence`,
  :func:`rescale` and :func:`trace_diag`: A + B, I +- A, diag(r) A diag(r),
  the entrywise c A / sqrt(z_i z_j) and Re tr(A diag(x)), on the three
  columns the same bits as the array expression on the full matrices;
- :func:`unitary_factor`: the Q of G = QR with R's diagonal positive, by
  two-pass modified Gram-Schmidt over the columns of a (count, n, k) batch
  at every n and k <= n, with no LAPACK call;
- :func:`conjugated_spectra`: the spectra of X H* Y H over unitary group
  elements H, the beta = 4 quaternion pair included; at m = 2 from the
  squared moduli |h_ij|^2 alone (:func:`moduli_sq`), with det = det X det Y
  exact;
- :func:`factor_gram`: X = Z^(-1/2) T* T Z^(-1/2) from a batch of
  triangular factors T, as the :class:`Entries` X11, X22, X12 at m = 2 and
  beta = 1, 2;
- :func:`factor_spectra`: the spectra of that X, from the entries of T at
  every beta (t11^2/z1 at m = 1).

The two factor kernels take T as ``(diag, off, off_j)``, the layout of
:meth:`jackdiv.wishart.ConeSampler.bartlett`, with ``off_j`` not None at
beta = 4 only.  :func:`row_sums` adds the columns of a (count, k) array,
at k = 2 by one add, which costs a twentieth of numpy's reduce over the
short axis.

No closed form takes a square root or a logarithm of a value that rounding
can push below zero, so none emits a RuntimeWarning; a matrix that must be
positive definite and is not raises DomainError, as LAPACK would raise
LinAlgError.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _quat
from .core import DomainError


class Entries(NamedTuple):
    """A batch of 2 x 2 Hermitian matrices as its entry columns: a11 and a22
    real, a12 real or complex, each of shape (count,)."""

    a11: np.ndarray
    a22: np.ndarray
    a12: np.ndarray


def abs_sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise, real-valued for a complex z."""
    return z.real ** 2 + z.imag ** 2 if np.iscomplexobj(z) else z ** 2


def entries(a: np.ndarray) -> Entries:
    """The :class:`Entries` of a (count, 2, 2) Hermitian batch; the diagonal
    as reals."""
    return Entries(a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1])


def assemble(a11: np.ndarray, a22: np.ndarray, a12: np.ndarray) -> np.ndarray:
    """The Hermitian batch (count, 2, 2) with entries a11, a22 (real) and
    a12, of a12's dtype: ``assemble(*x)`` of an :class:`Entries` x."""
    a = np.empty((len(a11), 2, 2), dtype=np.result_type(a11, a12))
    a[:, 0, 0] = a11
    a[:, 1, 1] = a22
    a[:, 0, 1] = a12
    a[:, 1, 0] = a12.conj()
    return a


def row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a (count, k) array, the same bits; at k = 2 the
    one column add a[:, 0] + a[:, 1]."""
    return a[:, 0] + a[:, 1] if a.shape[1] == 2 else a.sum(axis=1)


def spectra(a11, a22, off_sq, det):
    """(lambda_max, lambda_min) of the 2 x 2 positive semidefinite matrices
    with diagonal a11, a22, |a12|^2 = ``off_sq`` and determinant ``det``.

    lambda_min = det / lambda_max keeps its relative accuracy at any
    conditioning when ``det`` is known to full precision; it is clipped to
    lambda_max, which it can pass by an ulp at equal roots, and is 0 for the
    zero matrix.
    """
    half_gap = (a11 - a22) / 2
    lam_max = (a11 + a22) / 2 + np.sqrt(half_gap ** 2 + off_sq)
    lam_min = np.divide(det, lam_max, out=np.zeros_like(lam_max), where=lam_max != 0)
    return lam_max, np.minimum(lam_min, lam_max)


def det(a: Entries) -> np.ndarray:
    """Determinants a11 a22 - |a12|^2 of a 2 x 2 batch, as reals."""
    return a.a11 * a.a22 - abs_sq(a.a12)


def eigvalsh(a) -> np.ndarray:
    """Eigenvalues (count, m) of a positive semidefinite batch, ascending as
    ``np.linalg.eigvalsh`` returns them."""
    if not isinstance(a, Entries):
        return np.linalg.eigvalsh(a)
    off_sq = abs_sq(a.a12)
    lam_max, lam_min = spectra(a.a11, a.a22, off_sq, a.a11 * a.a22 - off_sq)
    return np.stack([lam_min, lam_max], axis=1)


def logdet(a) -> np.ndarray:
    """log det of each matrix in a Hermitian positive-definite batch;
    DomainError when a determinant (of an array, its sign's real part) is <= 0."""
    two = isinstance(a, Entries)
    sign, val = (det(a), None) if two else np.linalg.slogdet(a)
    if np.any(np.real(sign) <= 0):
        raise DomainError("log-determinant of a matrix that is not positive definite")
    return np.log(sign) if two else np.real(val)


def inv(a):
    """Inverses of a Hermitian batch, adj A / det A for an :class:`Entries`;
    DomainError when one of those is singular."""
    if not isinstance(a, Entries):
        return np.linalg.inv(a)
    d = det(a)
    if np.any(d == 0):
        raise DomainError("inverse of a singular matrix")
    return Entries(a.a22 / d, a.a11 / d, -a.a12 / d)


def _congruence(m11, m12, m21, m22, a: Entries) -> Entries:
    """M A M^H for M = [[m11, m12], [m21, m22]] and Hermitian A, from its
    upper triangle."""
    a11, a22, a12 = a
    a21 = a12.conj()
    r11, r12 = m11 * a11 + m12 * a21, m11 * a12 + m12 * a22  # first row of M A
    r21, r22 = m21 * a11 + m22 * a21, m21 * a12 + m22 * a22  # second row
    u11 = (r11 * m11.conj() + r12 * m12.conj()).real
    u22 = (r21 * m21.conj() + r22 * m22.conj()).real
    u12 = r11 * m21.conj() + r12 * m22.conj()
    return Entries(u11, u22, u12)


def cholesky_whiten(a, s):
    """L^-1 A L^-H for the lower Cholesky factor L of each S (S = L L^H);
    DomainError when an :class:`Entries` S is not positive definite."""
    if not isinstance(a, Entries):
        ell = np.linalg.cholesky(s)
        w = np.linalg.solve(ell, a)
        u = np.linalg.solve(ell, np.conj(np.transpose(w, (0, 2, 1))))
        return 0.5 * (u + np.conj(np.transpose(u, (0, 2, 1))))
    s11, s22, s12 = s
    if np.any(s11 <= 0):
        raise DomainError("Cholesky factor of a matrix that is not positive definite")
    l11 = np.sqrt(s11)
    l21 = s12.conj() / l11
    pivot = s22 - abs_sq(l21)
    if np.any(pivot <= 0):
        raise DomainError("Cholesky factor of a matrix that is not positive definite")
    l22 = np.sqrt(pivot)
    # L^-1 = [[1/l11, 0], [-l21/(l11 l22), 1/l22]]
    inv11, inv22 = 1.0 / l11, 1.0 / l22
    inv21 = -l21 * inv11 * inv22
    return _congruence(inv11, np.zeros_like(inv11), inv21, inv22, a)


def inv_sqrt(b: Entries) -> Entries:
    """The Hermitian inverse square roots (adj B + s I) / (s t), s = sqrt(det
    B), t = sqrt(tr B + 2 s), of a 2 x 2 batch; DomainError when a B is not
    positive definite."""
    b11, b22, b12 = b
    d = det(b)
    if np.any(d <= 0) or np.any(b11 <= 0):
        raise DomainError("inverse square root of a matrix that is not positive definite")
    s = np.sqrt(d)
    st = s * np.sqrt(b11 + b22 + 2 * s)
    return Entries((b22 + s) / st, (b11 + s) / st, -b12 / st)


def inv_sqrt_whiten(a, b):
    """B^(-1/2) A B^(-1/2) for the Hermitian inverse square root of each
    positive-definite B, from ``eigh`` for an array."""
    if isinstance(a, Entries):
        root = inv_sqrt(b)
        return _congruence(root.a11, root.a12, root.a12.conj(), root.a22, a)
    w, q = np.linalg.eigh(b)
    inv_root = np.einsum("bik,bk,bjk->bij", q, w**-0.5, q.conj())
    x = inv_root @ a @ inv_root
    return 0.5 * (x + np.conj(np.transpose(x, (0, 2, 1))))


def add(a, b):
    """A + B over two batches of one form."""
    if isinstance(a, Entries):
        return Entries(a.a11 + b.a11, a.a22 + b.a22, a.a12 + b.a12)
    return a + b


def identity_plus(a, sign: int = 1):
    """I + A, or I - A at ``sign`` -1, over a batch."""
    if isinstance(a, Entries):
        if sign > 0:
            return Entries(1.0 + a.a11, 1.0 + a.a22, a.a12)
        return Entries(1.0 - a.a11, 1.0 - a.a22, -a.a12)
    eye = np.eye(a.shape[-1])[None]
    return eye + a if sign > 0 else eye - a


def diag_congruence(a, r):
    """diag(r) A diag(r) for a real vector r, entry (i, j) as (r_i a_ij) r_j."""
    r = np.asarray(r, dtype=float)
    if isinstance(a, Entries):
        return Entries(r[0] * a.a11 * r[0], r[1] * a.a22 * r[1], r[0] * a.a12 * r[1])
    return r[None, :, None] * a * r[None, None, :]


def rescale(a, c, z):
    """The entrywise a_ij c / sqrt(z_i z_j) for one real c per matrix and a
    positive vector z: c Z^(-1/2) A Z^(-1/2), Z = diag(z)."""
    z = np.asarray(z, dtype=float)
    root = np.sqrt(np.outer(z, z))
    if not isinstance(a, Entries):
        return a * c[:, None, None] / root[None]
    if np.iscomplexobj(a.a12):
        # numpy divides a complex entry by a real one as the product with its
        # reciprocal, and the array's diagonal is complex
        diag = a.a11 * c * (1.0 / root[0, 0]), a.a22 * c * (1.0 / root[1, 1])
    else:
        diag = a.a11 * c / root[0, 0], a.a22 * c / root[1, 1]
    return Entries(*diag, a.a12 * c / root[0, 1])


def trace_diag(a, x) -> np.ndarray:
    """Re tr(A diag(x)) for a real vector x: sum_i a_ii x_i."""
    x = np.asarray(x, dtype=float)
    if isinstance(a, Entries):
        return a.a11 * x[0] + a.a22 * x[1]
    return np.einsum("bii->b", a * x[None, None, :]).real


def unitary_factor(g: np.ndarray) -> np.ndarray:
    """Q of the QR factorization G = QR whose R has a real, positive
    diagonal, for a real or complex (count, n, k) batch of full-rank G, k <=
    n; DomainError when a column projects to zero.

    Modified Gram-Schmidt over the columns, each projected off the ones
    before it twice, so that Q is unitary to rounding however close the
    columns are to parallel (one pass leaves errors of order eps cond(G)).
    Column j of Q reads only columns 0..j of G, so the first k columns of an
    n x n batch come out the same bits from G[:, :, :k].
    """
    q = np.empty_like(g)
    for j in range(g.shape[-1]):
        v = g[:, :, j]
        for i in [*range(j)] * 2:  # two passes over the columns before j
            v = v - q[:, :, i] * np.einsum("bi,bi->b", q[:, :, i].conj(), v)[:, None]
        norm = np.sqrt(abs_sq(v).sum(axis=1))
        if not np.all(norm > 0):
            raise DomainError("unitary factor of a matrix whose columns are not independent")
        q[:, :, j] = v / norm[:, None]
    return q


def moduli_sq(h) -> np.ndarray:
    """|h_ij|^2 in the algebra over a group batch: |Z1|^2 + |Z2|^2 for a
    quaternion pair (Z1, Z2), |h|^2 elementwise otherwise."""
    return abs_sq(h[0]) + abs_sq(h[1]) if isinstance(h, tuple) else abs_sq(h)


def conjugated_spectra(x_eigs, y_eigs, algebra, h) -> np.ndarray:
    """Spectra (descending) of X H* Y H for nonnegative diagonal X, Y over a
    batch of unitary group elements H (quaternion pairs at beta = 4); at m
    >= 3 from ``eigvalsh`` of X^(1/2) H* Y H X^(1/2), at beta = 4 of its
    complex embedding."""
    x, y = np.asarray(x_eigs, dtype=float), np.asarray(y_eigs, dtype=float)
    if len(x) == 2:
        return _conjugated_spectra_m2(x, y, moduli_sq(h))
    quaternion = algebra.beta == 4
    if quaternion:  # each diagonal entry doubled to match the embedding
        h, x, y = _quat.embed(*h), np.tile(x, 2), np.tile(y, 2)
    inner = np.einsum("bji,j,bjk->bik", h.conj(), y, h)
    a = np.sqrt(x)[None, :, None] * inner * np.sqrt(x)[None, None, :]
    return _descending_spectra(a, quaternion)


def _descending_spectra(a: np.ndarray, quaternion: bool) -> np.ndarray:
    """Spectra (descending) of a Hermitian batch by ``np.linalg.eigvalsh``;
    for the complex embedding of a quaternion batch its doubled spectrum
    deduplicated."""
    vals = np.linalg.eigvalsh(a)
    return _quat.dedupe_pairs(vals) if quaternion else vals[:, ::-1]


def _conjugated_spectra_m2(x, y, w) -> np.ndarray:
    """:func:`conjugated_spectra` at m = 2 from w = |h_ij|^2 of a unitary H,
    at every beta.  X^(1/2) H* Y H X^(1/2) has diagonal x_k sum_j y_j w_jk;
    its off-diagonal sqrt(x_1 x_2) sum_j y_j conj(h_j1) h_j2 is sqrt(x_1 x_2)
    (y_1 - y_2) conj(h_11) h_12, since the columns of H are orthogonal, of
    squared modulus x_1 x_2 (y_1 - y_2)^2 w_11 w_12; and its determinant is
    x_1 x_2 y_1 y_2, exact to rounding, so lambda_min keeps its relative
    accuracy at any conditioning."""
    diag = x * np.einsum("j,bjk->bk", y, w)
    off_sq = x[0] * x[1] * (y[0] - y[1]) ** 2 * w[:, 0, 0] * w[:, 0, 1]
    lam_max, lam_min = spectra(diag[:, 0], diag[:, 1], off_sq, x[0] * x[1] * y[0] * y[1])
    return np.stack([lam_max, lam_min], axis=1)


def factor_gram(diag, off, off_j, scale_eigs):
    """X = Z^(-1/2) T* T Z^(-1/2), Z = diag(scale_eigs), for a batch of upper
    triangular factors T given as ``(diag, off, off_j)`` (the layout of
    :meth:`jackdiv.wishart.ConeSampler.bartlett`): (count, m, m), or at
    beta = 4 (``off_j`` not None) the (count, 2m, 2m) complex embedding.

    At m = 2 without ``off_j``, X is the :class:`Entries` X11 = t11^2/z1,
    X22 = (|t12|^2 + t22^2)/z2 and X12 = t11 t12/sqrt(z1 z2), with no
    product of factors formed.
    """
    count, m = diag.shape
    inv_root = 1.0 / np.sqrt(np.asarray(scale_eigs))
    if m == 2 and off_j is None:
        (t11, t22), t12, (r1, r2) = diag.T, off[:, 0], inv_root
        return Entries(t11 * t11 * r1 * r1, (abs_sq(t12) + t22 * t22) * r2 * r2, t11 * t12 * r1 * r2)
    iu = np.triu_indices(m, k=1)
    t = np.zeros((count, m, m), dtype=off.dtype)
    t[:, iu[0], iu[1]] = off
    t[:, np.arange(m), np.arange(m)] = diag
    if off_j is not None:
        t_j = np.zeros_like(t)
        t_j[:, iu[0], iu[1]] = off_j
        t = _quat.embed(t, t_j)
        inv_root = np.tile(inv_root, 2)
    x = np.einsum("bji,bjk->bik", t.conj(), t)
    return x * inv_root[None, :, None] * inv_root[None, None, :]


def factor_spectra(diag, off, off_j, scale_eigs) -> np.ndarray:
    """Spectra (count, m), each row descending, of :func:`factor_gram` of the
    same factors, over the algebra (each quaternion eigenvalue once).

    At m = 1 the spectrum is t11^2/z1.  At m = 2 it is closed form, with no X
    formed and, at beta = 4, no complex embedding: X11 = t11^2/z1, X22 =
    (|t12|^2 + t22^2)/z2, |X12|^2 = t11^2 |t12|^2/(z1 z2) (|t12|^2 summed
    over both quaternion components) and :func:`spectra` with det X = (t11
    t22)^2/(z1 z2) exact to rounding, so both eigenvalues keep their relative
    accuracy at any conditioning.  At any other m, ``eigvalsh`` of X.
    """
    m = diag.shape[1]
    if m == 1:
        return diag ** 2 / scale_eigs[0]
    if m != 2:
        return _descending_spectra(factor_gram(diag, off, off_j, scale_eigs), off_j is not None)
    z1, z2 = scale_eigs
    t12_sq = sum(abs_sq(c) for c in (off, off_j) if c is not None)[:, 0]
    t11_sq, t22_sq = diag[:, 0] ** 2, diag[:, 1] ** 2
    lam_max, lam_min = spectra(t11_sq / z1, (t12_sq + t22_sq) / z2,
                               t11_sq * t12_sq / (z1 * z2), t11_sq * t22_sq / (z1 * z2))
    return np.stack([lam_max, lam_min], axis=1)
