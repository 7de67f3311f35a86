"""Quaternion matrix utilities via the complex 2x2-block embedding.

A quaternion matrix is carried as a pair (Z1, Z2) of complex arrays meaning
Q = Z1 + Z2 j.  The embedding [[Z1, Z2], [-conj(Z2), conj(Z1)]] is a ring
homomorphism compatible with the conjugate transpose, so spectra of quaternion
Hermitian matrices are the (doubled) spectra of their embeddings.
All helpers are batched over a leading sample axis.
"""

from __future__ import annotations

import warnings

import numpy as np


def embed(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Complex embedding of shape (..., 2r, 2c) from components (..., r, c)."""
    top = np.concatenate([z1, z2], axis=-1)
    bot = np.concatenate([-z2.conj(), z1.conj()], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def gaussian_pair(rng: np.random.Generator, shape: tuple, comp_std: float):
    """Quaternion Gaussian with independent N(0, comp_std^2) real components."""
    a, b, c, d = (rng.standard_normal(shape) * comp_std for _ in range(4))
    return a + 1j * b, c + 1j * d


def _qmul(a1, a2, b1, b2):
    return a1 * b1 - a2 * b2.conj(), a1 * b2 + a2 * b1.conj()


def _qdot(u1, u2, v1, v2):
    """Quaternion inner product sum_i conj(u_i) v_i over the last axis."""
    c1, c2 = _qmul(u1.conj(), -u2, v1, v2)
    return c1.sum(axis=-1), c2.sum(axis=-1)


def haar_batch(rng: np.random.Generator, count: int, m: int):
    """Haar-distributed quaternion unitary matrices, via modified Gram-Schmidt
    on a quaternion Gaussian (batch, m, m) pair."""
    v1, v2 = gaussian_pair(rng, (count, m, m), 1.0)
    for j in range(m):
        for i in range(j):
            c1, c2 = _qdot(v1[:, :, i], v2[:, :, i], v1[:, :, j], v2[:, :, j])
            p1, p2 = _qmul(v1[:, :, i], v2[:, :, i], c1[:, None], c2[:, None])
            v1[:, :, j] -= p1
            v2[:, :, j] -= p2
        nrm = np.sqrt((np.abs(v1[:, :, j]) ** 2 + np.abs(v2[:, :, j]) ** 2).sum(axis=-1))
        v1[:, :, j] /= nrm[:, None]
        v2[:, :, j] /= nrm[:, None]
    return v1, v2


def dedupe_pairs(eigs: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Collapse the doubled spectrum of an embedded quaternion Hermitian matrix.

    ``eigs`` has shape (..., 2m) in ascending order (eigvalsh convention).
    Returns the values (..., m) descending.  Warns (RuntimeWarning) when two
    eigenvalues of a pair differ by more than ``rel_tol`` relative to the
    largest magnitude in their spectrum: the input was then not the embedding
    of a quaternion Hermitian matrix to working precision.
    """
    desc = eigs[..., ::-1]
    scale = np.maximum(np.abs(desc).max(axis=-1, keepdims=True), 1e-300)
    mismatch = float((np.abs(desc[..., 0::2] - desc[..., 1::2]) / scale).max())
    if mismatch > rel_tol:
        warnings.warn(
            f"quaternion eigenvalue pairs differ by {mismatch:.3g} relative "
            f"(tolerance {rel_tol:g}); the spectrum is not doubled",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.ascontiguousarray(desc[..., 0::2])
