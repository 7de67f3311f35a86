"""Evaluation of Jack polynomials on eigenvalue spectra.

The evaluator runs a per-variable recurrence: the value on ``n`` variables is
a sum over horizontal-strip predecessors of the value on ``n - 1`` variables
times a power of the new variable and a rational coefficient.  One stage
kernel, :func:`_recurrence_stage`, computes a stage for any list of shapes:
:class:`ChatEvaluator` runs it over every partition of each degree, and
:func:`jack_C` / :func:`jack_C_batch` over the subshapes of one partition.

A shape kappa of length exactly ``n`` can only come from predecessors mu with
mu_n = 0, since the other n - 1 variables carry at most n - 1 parts; these are
kappa's *closed* strips.  A stage on more variables than len(kappa) also reads
the *open* strips (mu_n > 0).  Coefficients depend only on (partition,
predecessor, alpha), are computed exactly (integer hook products, rounded
once) for moderate weights, and are memoized in a :class:`JackTable` split
the same way, so a whole series evaluation prices each coefficient once and
never prices a strip no stage reads.

Internally everything is carried in the normalization ``chat = C / k!`` which
keeps magnitudes representable at high degree; the public functions convert to
the ``C`` (trace-power) and ``J`` (monic-monomial) normalizations.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DivisionAlgebra,
    DomainError,
    Partition,
    enumerate_partitions,
    hook_product,
)

# Exact strip coefficients (integer hook products, one correctly rounded
# division) are used up to this weight; beyond it the same products are formed
# in floating point (relative error ~1e-13).
RATIONAL_DEGREE_CUTOFF = 20


@dataclass(frozen=True)
class SpectralArgument:
    """Eigenvalue vector standing in for a Hermitian matrix argument.

    Entries are stored sorted descending, so every evaluation is bit-identical
    under permutation of the input.
    """

    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        if len(vals) == 0:
            raise DomainError("a spectral argument needs at least one eigenvalue")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"eigenvalues must be finite, got {vals}")
        object.__setattr__(self, "eigenvalues", tuple(sorted(vals, reverse=True)))

    @property
    def m(self) -> int:
        return len(self.eigenvalues)

    @property
    def trace(self) -> float:
        return math.fsum(self.eigenvalues)

    @property
    def max_abs(self) -> float:
        return max(abs(v) for v in self.eigenvalues)

    def scaled(self, c: float) -> "SpectralArgument":
        return SpectralArgument(tuple(c * v for v in self.eigenvalues))


def as_spectrum(x) -> SpectralArgument:
    if isinstance(x, SpectralArgument):
        return x
    return SpectralArgument(tuple(np.asarray(x, dtype=float).ravel()))


def _conjugate_counts(parts: tuple[int, ...]) -> list[int]:
    if not parts:
        return []
    cols = [0] * parts[0]
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return cols


def _interlacing_predecessors(parts: tuple[int, ...], closed: bool = False):
    """All mu with kappa_{i+1} <= mu_i <= kappa_i (horizontal strips kappa/mu).

    With ``closed``, only those with mu_n = 0 (n = len(kappa)).  Either way
    the order is reverse-lexicographic, so the closed list is a subsequence of
    the full one.
    """
    n = len(parts)
    out = []

    def rec(i, prefix):
        if i == n:
            t = prefix
            while t and t[-1] == 0:
                t = t[:-1]
            out.append(tuple(t))
            return
        lo = parts[i + 1] if i + 1 < n else 0
        hi = 0 if closed and i == n - 1 else parts[i]
        for v in range(hi, lo - 1, -1):
            rec(i + 1, prefix + (v,))

    rec(0, ())
    return out


def _strip_coefficient(kappa: tuple[int, ...], mu: tuple[int, ...], beta: int) -> float:
    """Coefficient g in chat_kappa(x_1..x_n) = sum_mu chat_mu(x_1..x_{n-1}) x_n^s g,
    correctly rounded.

    g = alpha^s * prod_{cells of mu} h~_mu / prod_{cells of kappa} h~_kappa,
    where at a cell in column j the hook h~ is the lower hook when kappa and
    mu have equal column length there and the upper hook otherwise.  With
    alpha = 2/beta each hook is an integer H over beta: beta (leg + 1) + 2 arm
    (lower) or beta leg + 2 (arm + 1) (upper).  mu has s cells fewer than
    kappa, so g = 2^s prod H_mu / prod H_kappa, and int / int true division
    rounds that rational correctly.
    """
    s = sum(kappa) - sum(mu)
    kc = _conjugate_counts(kappa)
    mc = _conjugate_counts(mu)
    mc += [0] * (len(kc) - len(mc))

    def hooks(parts, counts) -> int:
        prod = 1
        for i, row in enumerate(parts, start=1):
            for j in range(1, row + 1):
                arm = row - j
                leg = counts[j - 1] - i
                if kc[j - 1] == mc[j - 1]:
                    prod *= beta * (leg + 1) + 2 * arm
                else:
                    prod *= beta * leg + 2 * (arm + 1)
        return prod

    return 2**s * hooks(mu, mc) / hooks(kappa, kc)


@lru_cache(maxsize=200_000)
def _hook_cell_data(parts: tuple[int, ...], beta: int):
    """Per-cell hook values and column indices of a partition (float alpha).

    Returns (conjugate counts (int array, length parts[0]), upper hooks,
    lower hooks, 0-based cell column indices); cells in row-major order.
    """
    alpha = 2.0 / beta
    conj = np.asarray(_conjugate_counts(parts), dtype=np.int64)
    cols = np.concatenate([np.arange(row) for row in parts]) if parts else np.zeros(0, dtype=np.int64)
    rows = np.concatenate([np.full(row, i) for i, row in enumerate(parts)]) if parts else cols
    arms = np.asarray(parts, dtype=np.int64)[rows] - cols - 1
    legs = conj[cols] - rows - 1
    upper = legs + alpha * (arms + 1)
    lower = legs + 1 + alpha * arms
    return conj, upper, lower, cols


class JackTable:
    """Memoized recurrence coefficients for one division algebra.

    Each partition kappa has up to two entries: its closed strips (mu_n = 0,
    n = len(kappa)), all that the stage on exactly len(kappa) variables reads,
    and its full strips, read by every later stage.  The full entry reuses the
    closed entry's tuples and prices only the open strips (mu_n > 0), so no
    pair is priced twice.

    Entries are immutable once computed; lookups after the first return the
    identical float objects, and insertion is lock-protected so concurrent
    evaluations from several threads see a consistent cache.  Coefficients of
    weight up to RATIONAL_DEGREE_CUTOFF are priced exactly; higher
    weights use vectorized float hook products (paired, so relative error
    stays near rounding level).
    """

    def __init__(self, algebra: DivisionAlgebra):
        self.algebra = algebra
        self._closed: dict[tuple[int, ...], tuple] = {}
        self._full: dict[tuple[int, ...], tuple] = {}
        self._lock = threading.Lock()

    def strips(self, kappa: tuple[int, ...], closed: bool = False):
        """Tuple of (mu, s, g) over horizontal-strip predecessors of kappa;
        with ``closed``, over those with mu_n = 0 (n = len(kappa)) only."""
        cache = self._closed if closed else self._full
        hit = cache.get(kappa)
        if hit is not None:
            return hit
        if closed:
            entries = self._price(kappa, _interlacing_predecessors(kappa, closed))
        else:
            # merged in enumeration order, so batched sums add the terms in
            # the same order whichever entry they read
            n = len(kappa)
            shut = iter(self.strips(kappa, closed=True))
            preds = _interlacing_predecessors(kappa)
            opened = iter(self._price(kappa, [mu for mu in preds if len(mu) == n]))
            entries = tuple(next(opened) if len(mu) == n else next(shut) for mu in preds)
        with self._lock:
            cache.setdefault(kappa, entries)
        return cache[kappa]

    def _price(self, kappa: tuple[int, ...], preds) -> tuple:
        k = sum(kappa)
        if k <= RATIONAL_DEGREE_CUTOFF:
            beta = self.algebra.beta
            return tuple((mu, k - sum(mu), _strip_coefficient(kappa, mu, beta)) for mu in preds)
        g, s = self._float_coefficients(kappa, preds)
        return tuple((mu, int(si), gi) for mu, si, gi in zip(preds, s, g))

    def _float_coefficients(self, kappa, preds):
        """Hook-product coefficients for every predecessor at once."""
        beta = self.algebra.beta
        alpha = 2.0 / beta
        k = sum(kappa)
        kc, k_up, k_lo, k_cols = _hook_cell_data(kappa, beta)
        width = len(kc)
        nrows = len(kappa)
        mmat = np.zeros((len(preds), nrows), dtype=np.int64)
        for r, mu in enumerate(preds):
            mmat[r, : len(mu)] = mu
        cols = np.arange(width, dtype=np.int64)
        # column counts of each predecessor, padded to kappa's width
        mc = (mmat[:, :, None] > cols[None, None, :]).sum(axis=1)
        match = mc == kc[None, :]
        # predecessor cells: (pair, row, column) tensor masked to the diagram
        exists = mmat[:, :, None] > cols[None, None, :]
        arms = mmat[:, :, None] - cols[None, None, :] - 1
        legs = mc[:, None, :] - np.arange(1, nrows + 1)[None, :, None]
        upper = legs + alpha * (arms + 1)
        lower = legs + 1 + alpha * arms
        chosen = np.where(match[:, None, :], lower, upper)
        num = np.where(exists, chosen, 1.0).prod(axis=(1, 2))
        # cells of kappa, selected per pair by the column-match flags
        den = np.where(match[:, k_cols], k_lo[None, :], k_up[None, :]).prod(axis=1)
        s = k - mmat.sum(axis=1)
        return alpha**s * num / den, s


_TABLES: dict[int, JackTable] = {}
_TABLES_LOCK = threading.Lock()


def get_table(algebra: DivisionAlgebra) -> JackTable:
    """Process-wide shared coefficient table for ``algebra``."""
    table = _TABLES.get(algebra.beta)
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.setdefault(algebra.beta, JackTable(algebra))
    return table


def _recurrence_stage(table: JackTable, shapes, n: int, prev: dict, xn, batched: bool) -> dict:
    """Values on the first ``n`` variables of each shape (length <= n).

    chat_kappa(x_1..x_n) = sum_mu chat_mu(x_1..x_{n-1}) x_n^s g, with ``prev``
    holding chat_mu on the first n - 1 variables for every mu the shapes read.
    A shape of length n reads its closed strips only.  ``xn`` is a float, or
    a (batch,) array when ``batched``.
    """
    cur = {}
    for kappa in shapes:
        terms = [prev[mu] * (xn**s * g) if s else prev[mu] * g
                 for mu, s, g in table.strips(kappa, len(kappa) == n)]
        if batched:
            acc = np.zeros_like(xn)
            for t in terms:
                acc += t
            cur[kappa] = acc
        else:
            cur[kappa] = math.fsum(terms)
    return cur


class ChatEvaluator:
    """Degree-incremental table of chat_kappa = C_kappa / k! for one spectrum.

    ``x`` is either a length-m sequence (scalar evaluation) or a (B, m) array
    (one value per row, vectorized).  Degrees must be requested in increasing
    order; each degree's values are cached.
    """

    def __init__(self, x, table: JackTable, max_first_part: int | None = None):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            self._batched = False
            self._x = [float(v) for v in arr]
            one = 1.0
        elif arr.ndim == 2:
            self._batched = True
            self._x = [np.ascontiguousarray(arr[:, j]) for j in range(arr.shape[1])]
            one = np.ones(arr.shape[0])
        else:
            raise DomainError("spectrum must be a vector or a (batch, m) array")
        self.m = len(self._x)
        self.table = table
        self.max_first_part = max_first_part
        # stage[n] holds values on the first n variables; degree 0 is done
        self._stage: list[dict] = [{(): one} for _ in range(self.m + 1)]
        self._done = 0

    def degree_values(self, k: int) -> dict:
        """chat values for every partition of weight k (length <= m)."""
        while self._done < k:
            self._advance()
        out = {}
        for p in enumerate_partitions(k, self.m, self.max_first_part):
            out[p.parts] = self._stage[self.m][p.parts]
        return out

    def value(self, kappa: tuple[int, ...]):
        k = sum(kappa)
        while self._done < k:
            self._advance()
        return self._stage[self.m].get(kappa, 0.0 if not self._batched else np.zeros_like(self._x[0]))

    def _advance(self):
        k = self._done + 1
        for n in range(1, self.m + 1):
            shapes = [p.parts for p in enumerate_partitions(k, n, self.max_first_part)]
            self._stage[n].update(_recurrence_stage(
                self.table, shapes, n, self._stage[n - 1], self._x[n - 1], self._batched))
        self._done = k


def _subshapes(kappa: tuple[int, ...]):
    """All partitions contained in kappa, sorted by weight then reverse-lex."""
    out = []

    def rec(i, prefix, cap):
        if i == len(kappa):
            t = prefix
            while t and t[-1] == 0:
                t = t[:-1]
            out.append(tuple(t))
            return
        for v in range(min(cap, kappa[i]), -1, -1):
            rec(i + 1, prefix + (v,), v)

    rec(0, (), kappa[0] if kappa else 0)
    return sorted(set(out), key=lambda t: (sum(t), tuple(-v for v in t)))


def _chat_restricted(kappa: tuple[int, ...], x, table: JackTable):
    """chat_kappa (len(kappa) <= m) via the recurrence restricted to
    subshapes of kappa."""
    arr = np.asarray(x, dtype=float)
    batched = arr.ndim == 2
    xs = [np.ascontiguousarray(arr[:, j]) for j in range(arr.shape[1])] if batched else [float(v) for v in arr]
    one = np.ones(arr.shape[0]) if batched else 1.0
    subs = _subshapes(kappa)[1:]  # the empty shape comes first; its value is one
    stage = {(): one}
    for n, xn in enumerate(xs, start=1):
        shapes = [mu for mu in subs if len(mu) <= n]
        stage = {(): one, **_recurrence_stage(table, shapes, n, stage, xn, batched)}
    return stage[kappa]


def _log_nu(p: Partition, algebra: DivisionAlgebra) -> float:
    hooks = hook_product(p, algebra)
    return math.fsum(math.log(float(u)) + math.log(float(l)) for u, l in zip(hooks.upper, hooks.lower))


def jack_C(p: Partition, x, algebra: DivisionAlgebra, table: JackTable | None = None) -> float:
    """Jack polynomial in the normalization where partitions of k sum to (tr x)^k.

    Returns 0 when the partition is longer than the spectrum.  Homogeneous of
    degree ``p.weight``; invariant (bit-identical) under permutations of the
    eigenvalues.
    """
    spec = as_spectrum(x)
    if p.length > spec.m:
        return 0.0
    if p.weight == 0:
        return 1.0
    table = table or get_table(algebra)
    chat = _chat_restricted(p.parts, spec.eigenvalues, table)
    return chat * math.factorial(p.weight)


def jack_C_batch(p: Partition, X: np.ndarray, algebra: DivisionAlgebra, table: JackTable | None = None) -> np.ndarray:
    """Vectorized :func:`jack_C` over the rows of a (batch, m) spectrum array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError("jack_C_batch expects a (batch, m) array")
    if p.length > X.shape[1]:
        return np.zeros(X.shape[0])
    if p.weight == 0:
        return np.ones(X.shape[0])
    table = table or get_table(algebra)
    return _chat_restricted(p.parts, X, table) * math.factorial(p.weight)


def jack_J(p: Partition, x, algebra: DivisionAlgebra, table: JackTable | None = None) -> float:
    """Jack polynomial in the monic normalization (coefficient k! on the
    bottom monomial); related to :func:`jack_C` by the hook-product constant."""
    spec = as_spectrum(x)
    if p.length > spec.m:
        return 0.0
    if p.weight == 0:
        return 1.0
    table = table or get_table(algebra)
    chat = _chat_restricted(p.parts, spec.eigenvalues, table)
    k = p.weight
    log_scale = _log_nu(p, algebra) - k * math.log(float(algebra.alpha))
    return chat * math.exp(log_scale)


@lru_cache(maxsize=None)
def _log_chat_identity_cached(kappa: tuple[int, ...], m: int, beta: int) -> float:
    algebra = DivisionAlgebra(beta)
    p = Partition(kappa)
    alpha = float(algebra.alpha)
    acc = 2.0 * p.weight * math.log(alpha) - _log_nu(p, algebra)
    for i, ki in enumerate(p.parts, start=1):
        base = (m - i + 1) / alpha
        for t in range(ki):
            acc += math.log(base + t)
    return acc


def log_chat_identity(kappa: tuple[int, ...], m: int, algebra: DivisionAlgebra) -> float:
    """log of C_kappa(I_m)/k!, for a partition with length <= m (positive)."""
    if sum(kappa) == 0:
        return 0.0
    return _log_chat_identity_cached(tuple(kappa), m, algebra.beta)


def jack_C_at_identity(p: Partition, m: int, algebra: DivisionAlgebra) -> float:
    """C_kappa at the all-ones spectrum of length m, by closed form.

    Equals ``jack_C(p, ones(m), algebra)`` without running the recurrence;
    0 when the partition is longer than m.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if p.length > m:
        return 0.0
    if p.weight == 0:
        return 1.0
    log_kfact = math.lgamma(p.weight + 1)
    return math.exp(log_chat_identity(p.parts, m, algebra) + log_kfact)
