"""Closed forms for batches of 2 x 2 matrices.

A batch is a (count, 2, 2) array, real or complex; a Hermitian one is read
through its three entries a11, a22 (real) and a12.  Each kernel stands in
for one batched LAPACK call at m = 2 and returns what that call returns, to
rounding:

- :func:`eigvalsh`: lambda_max = mean + sqrt(half_gap^2 + |a12|^2) adds two
  nonnegative terms, and lambda_min = det / lambda_max avoids the
  cancellation of the minus root (:func:`spectra`);
- :func:`det`: a11 a22 - |a12|^2;
- :func:`inv`: adj A / det A;
- :func:`congruence`: M A M^H, for the matmul products of a conjugation;
- :func:`cholesky_whiten`: L^-1 A L^-H for the Cholesky factor L of S;
- :func:`inv_sqrt`: the Hermitian root B^(-1/2) = (adj B + s I) / (s t),
  s = sqrt(det B), t = sqrt(tr B + 2 s);
- :func:`unitary_factor`: the Q of G = QR with R's diagonal positive, as
  q1 = g1 / |g1| and q2 the unit vector orthogonal to q1, phased so that
  q2^H g2 > 0.

No kernel takes a square root or a logarithm of a value that rounding can
push below zero, so none emits a RuntimeWarning; a matrix that must be
positive definite and is not raises DomainError, as LAPACK would raise
LinAlgError.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError


def abs_sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise, real-valued for a complex z."""
    return z.real ** 2 + z.imag ** 2 if np.iscomplexobj(z) else z ** 2


def entries(a: np.ndarray):
    """(a11, a22, a12) of a Hermitian batch; the diagonal as reals."""
    return a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1]


def assemble(a11: np.ndarray, a22: np.ndarray, a12: np.ndarray) -> np.ndarray:
    """The Hermitian batch (count, 2, 2) with entries a11, a22 (real) and
    a12, of a12's dtype."""
    a = np.empty((len(a11), 2, 2), dtype=np.result_type(a11, a12))
    a[:, 0, 0] = a11
    a[:, 1, 1] = a22
    a[:, 0, 1] = a12
    a[:, 1, 0] = a12.conj()
    return a


def spectra(a11, a22, off_sq, det):
    """(lambda_max, lambda_min) of the positive semidefinite matrices with
    diagonal a11, a22, |a12|^2 = ``off_sq`` and determinant ``det``.

    lambda_min = det / lambda_max keeps its relative accuracy at any
    conditioning when ``det`` is known to full precision; it is clipped to
    lambda_max, which it can pass by an ulp at equal roots, and is 0 for the
    zero matrix.
    """
    half_gap = (a11 - a22) / 2
    lam_max = (a11 + a22) / 2 + np.sqrt(half_gap ** 2 + off_sq)
    lam_min = np.divide(det, lam_max, out=np.zeros_like(lam_max), where=lam_max != 0)
    return lam_max, np.minimum(lam_min, lam_max)


def det(a: np.ndarray) -> np.ndarray:
    """Determinants a11 a22 - |a12|^2 of a Hermitian batch, as reals."""
    a11, a22, a12 = entries(a)
    return a11 * a22 - abs_sq(a12)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues (count, 2) of a positive semidefinite batch, ascending as
    ``np.linalg.eigvalsh`` returns them."""
    a11, a22, a12 = entries(a)
    off_sq = abs_sq(a12)
    lam_max, lam_min = spectra(a11, a22, off_sq, a11 * a22 - off_sq)
    return np.stack([lam_min, lam_max], axis=1)


def inv(a: np.ndarray) -> np.ndarray:
    """Inverses adj A / det A of a Hermitian batch; DomainError when one is
    singular."""
    a11, a22, a12 = entries(a)
    d = det(a)
    if np.any(d == 0):
        raise DomainError("inverse of a singular matrix")
    return assemble(a22 / d, a11 / d, -a12 / d)


def _congruence(m11, m12, m21, m22, a11, a22, a12) -> np.ndarray:
    """M A M^H for M = [[m11, m12], [m21, m22]] and Hermitian A, built
    Hermitian from its upper triangle."""
    a21 = a12.conj()
    r11, r12 = m11 * a11 + m12 * a21, m11 * a12 + m12 * a22  # first row of M A
    r21, r22 = m21 * a11 + m22 * a21, m21 * a12 + m22 * a22  # second row
    u11 = (r11 * m11.conj() + r12 * m12.conj()).real
    u22 = (r21 * m21.conj() + r22 * m22.conj()).real
    u12 = r11 * m21.conj() + r12 * m22.conj()
    return assemble(u11, u22, u12)


def cholesky_whiten(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """L^-1 A L^-H for the lower Cholesky factor L of each S (S = L L^H);
    DomainError when an S is not positive definite."""
    s11, s22, s12 = entries(s)
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
    return _congruence(inv11, np.zeros_like(inv11), inv21, inv22, *entries(a))


def inv_sqrt(b: np.ndarray) -> np.ndarray:
    """The Hermitian inverse square roots (adj B + s I) / (s t), s = sqrt(det
    B), t = sqrt(tr B + 2 s), of a batch; DomainError when a B is not
    positive definite."""
    b11, b22, b12 = entries(b)
    d = det(b)
    if np.any(d <= 0) or np.any(b11 <= 0):
        raise DomainError("inverse square root of a matrix that is not positive definite")
    s = np.sqrt(d)
    st = s * np.sqrt(b11 + b22 + 2 * s)
    return assemble((b22 + s) / st, (b11 + s) / st, -b12 / st)


def congruence(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """M A M^H over a batch, for any 2 x 2 M and Hermitian A."""
    return _congruence(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1], *entries(a))


def unitary_factor(g: np.ndarray) -> np.ndarray:
    """Q of the QR factorization G = QR whose R has a positive diagonal, for
    a batch of full-rank G.

    q1 = g1 / |g1|; in two dimensions the unit vectors orthogonal to q1 are
    the phases of w = (-conj q1[1], conj q1[0]), and the one with w^H g2 > 0
    is q2 = w (w^H g2) / |w^H g2|.  Q is unitary to rounding however close
    g1 and g2 are to parallel.
    """
    g1, g2 = g[:, :, 0], g[:, :, 1]
    q1 = g1 / np.sqrt(abs_sq(g1[:, 0]) + abs_sq(g1[:, 1]))[:, None]
    w0, w1 = -q1[:, 1].conj(), q1[:, 0].conj()
    r22 = w0.conj() * g2[:, 0] + w1.conj() * g2[:, 1]
    mag = np.abs(r22)
    phase = np.divide(r22, mag, out=np.ones_like(r22), where=mag > 0)
    q = np.empty_like(g)
    q[:, :, 0] = q1
    q[:, 0, 1] = w0 * phase
    q[:, 1, 1] = w1 * phase
    return q
