"""The m = 2 closed forms of :mod:`jackdiv._mat2` as they ran on (count, 2,
2) arrays, before m = 2 batches were carried as ``_mat2.Entries``: each
kernel reads the three entries of its matrices from the array and writes a
matrix result out as an array again.  Written out here, with no call into
``_mat2``, so that the tests can pin the bits of the ``Entries`` kernels to
this array route.
"""

from __future__ import annotations

import numpy as np


def _abs_sq(z):
    return z.real ** 2 + z.imag ** 2 if np.iscomplexobj(z) else z ** 2


def _entries(a):
    return a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1]


def _assemble(a11, a22, a12):
    a = np.empty((len(a11), 2, 2), dtype=np.result_type(a11, a12))
    a[:, 0, 0] = a11
    a[:, 1, 1] = a22
    a[:, 0, 1] = a12
    a[:, 1, 0] = a12.conj()
    return a


def det(a):
    a11, a22, a12 = _entries(a)
    return a11 * a22 - _abs_sq(a12)


def eigvalsh(a):
    a11, a22, a12 = _entries(a)
    off_sq = _abs_sq(a12)
    half_gap = (a11 - a22) / 2
    lam_max = (a11 + a22) / 2 + np.sqrt(half_gap ** 2 + off_sq)
    lam_min = np.divide(a11 * a22 - off_sq, lam_max, out=np.zeros_like(lam_max), where=lam_max != 0)
    return np.stack([np.minimum(lam_min, lam_max), lam_max], axis=1)


def logdet(a):
    return np.log(det(a))


def inv(a):
    a11, a22, a12 = _entries(a)
    d = det(a)
    return _assemble(a22 / d, a11 / d, -a12 / d)


def _congruence(m11, m12, m21, m22, a11, a22, a12):
    a21 = a12.conj()
    r11, r12 = m11 * a11 + m12 * a21, m11 * a12 + m12 * a22
    r21, r22 = m21 * a11 + m22 * a21, m21 * a12 + m22 * a22
    u11 = (r11 * m11.conj() + r12 * m12.conj()).real
    u22 = (r21 * m21.conj() + r22 * m22.conj()).real
    u12 = r11 * m21.conj() + r12 * m22.conj()
    return _assemble(u11, u22, u12)


def cholesky_whiten(a, s):
    s11, s22, s12 = _entries(s)
    l11 = np.sqrt(s11)
    l21 = s12.conj() / l11
    l22 = np.sqrt(s22 - _abs_sq(l21))
    inv11, inv22 = 1.0 / l11, 1.0 / l22
    inv21 = -l21 * inv11 * inv22
    return _congruence(inv11, np.zeros_like(inv11), inv21, inv22, *_entries(a))


def inv_sqrt(b):
    b11, b22, b12 = _entries(b)
    s = np.sqrt(det(b))
    st = s * np.sqrt(b11 + b22 + 2 * s)
    return _assemble((b22 + s) / st, (b11 + s) / st, -b12 / st)


def inv_sqrt_whiten(a, b):
    m = inv_sqrt(b)
    return _congruence(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1], *_entries(a))
