"""Evaluation of Jack polynomials on eigenvalue spectra.

One evaluator, :class:`ChatEvaluator`, runs a per-variable recurrence: the
value on ``n`` variables is a sum over horizontal-strip predecessors of the
value on ``n - 1`` variables times a power of the new variable and a rational
coefficient.  It fills one degree at a time over every partition inside an
optional bounding shape ``within``.  The series use the rectangle
``(r,) * m`` for a first-part cap, and :func:`jack_C` bounds it by kappa
itself, so only kappa's subshapes are evaluated.  The strips of a shape
inside ``within`` are inside it too, so a bound never changes a value.

A shape kappa of length exactly ``n`` can only come from predecessors mu with
mu_n = 0, since the other n - 1 variables carry at most n - 1 parts; these are
kappa's *closed* strips.  A stage on more variables than len(kappa) also reads
the *open* strips (mu_n > 0).  Coefficients depend only on (partition,
predecessor, alpha).  Each is a product over the cells of kappa of hook
ratios that pair a cell of mu with the same cell of kappa, so every factor
is at most one and no weight overflows.  They are memoized in a
:class:`JackTable` split the same way, so a whole series evaluation prices
each coefficient once and never prices a strip no stage reads.

Internally everything is carried in the normalization ``chat = C / k!``; the
public functions convert to the ``C`` (trace-power) and ``J`` (monic-monomial)
normalizations.  chat is carried with raw powers ``x_n**s``, which is not
scale-safe past weight ~170: strip coefficients below the normal range
underflow to zero and large ``x_n**s`` overflow.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DivisionAlgebra,
    DomainError,
    Partition,
    _partition_tuples,
    conjugate,
    # unused here, but the benchmark's tracer rebinds jack.enumerate_partitions
    enumerate_partitions,  # noqa: F401
)

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


def _interlacing_predecessors(parts: tuple[int, ...], closed: bool = False):
    """All mu with kappa_{i+1} <= mu_i <= kappa_i (horizontal strips kappa/mu).

    With ``closed``, only those with mu_n = 0 (n = len(kappa)).  Either way
    the order is reverse-lexicographic, so the closed list is a subsequence of
    the full one.
    """
    ranges = [range(k, lo - 1, -1) for k, lo in zip(parts, parts[1:] + (0,))]
    if closed:
        ranges[-1] = (0,)
    # mu is nonincreasing, so its zeros are the trailing ones
    return [mu[: len(mu) - mu.count(0)] for mu in itertools.product(*ranges)]


class JackTable:
    """Memoized recurrence coefficients for one division algebra.

    Each partition kappa has up to two entries: its closed strips (mu_n = 0,
    n = len(kappa)), all that the stage on exactly len(kappa) variables reads,
    and its full strips, read by every later stage.  The full entry reuses the
    closed entry's tuples and prices only the open strips (mu_n > 0), so no
    pair is priced twice.

    Entries are immutable once computed; lookups after the first return the
    identical float objects, and insertion is lock-protected so concurrent
    evaluations from several threads see a consistent cache.  One kernel,
    :meth:`_price`, prices every coefficient at every weight as a product of
    paired hook ratios, each at most one, so relative error stays near
    rounding level and nothing overflows.
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
        """(mu, s, g) for every mu in ``preds``, priced in one vectorized pass.

        g = prod_{c in mu} h~_mu(c) / h~_kappa(c) * prod_{c in kappa/mu} alpha / h~_kappa(c),
        where in a column with equal lengths in kappa and mu the hook h~ is
        the lower hook leg + 1 + alpha arm, and elsewhere the upper hook
        leg + alpha (arm + 1).  Pairing each cell of mu with the same cell of
        kappa makes every factor at most one, so the product never overflows
        and loses nothing to underflow until g itself is below the normal
        range.  Each row's product is independent of which other rows share
        the batch.
        """
        alpha = 2.0 / self.algebra.beta
        mmat = np.zeros((len(preds), len(kappa)), dtype=np.int64)
        for r, mu in enumerate(preds):
            mmat[r, : len(mu)] = mu
        kmat = np.asarray(kappa, dtype=np.int64)
        cols = np.arange(kappa[0], dtype=np.int64)
        rows = np.arange(len(kappa), dtype=np.int64)[:, None]
        in_kappa = kmat[:, None] > cols
        in_mu = mmat[:, :, None] > cols
        kc = in_kappa.sum(axis=0)
        mc = in_mu.sum(axis=1)
        lower = (mc == kc)[:, None, :]

        def hooks(arm, leg):
            return np.where(lower, leg + 1 + alpha * arm, leg + alpha * (arm + 1))

        k_hooks = hooks(kmat[:, None] - cols - 1, kc - rows - 1)
        mu_hooks = hooks(mmat[:, :, None] - cols - 1, mc[:, None, :] - rows - 1)
        factors = np.divide(np.where(in_mu, mu_hooks, alpha), k_hooks,
                            out=np.ones(mu_hooks.shape), where=in_kappa)
        g = factors.prod(axis=(1, 2))
        s = sum(kappa) - mmat.sum(axis=1)
        return tuple(zip(preds, s.tolist(), g.tolist()))


_TABLES: dict[int, JackTable] = {}
_TABLES_LOCK = threading.Lock()


def get_table(algebra: DivisionAlgebra) -> JackTable:
    """Process-wide shared coefficient table for ``algebra``."""
    table = _TABLES.get(algebra.beta)
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.setdefault(algebra.beta, JackTable(algebra))
    return table


class ChatEvaluator:
    """Degree-incremental table of chat_kappa = C_kappa / k! for one spectrum.

    ``x`` is either a length-m sequence (scalar evaluation) or a (B, m) array
    (one value per row, vectorized).  ``within`` bounds the partitions
    evaluated to those inside that shape (part i at most ``within[i]``); with
    no bound every partition with at most m parts is.  Degrees are filled in
    increasing order and each degree's values are cached.  Values are not
    scale-safe past weight ~170 (see the module docstring).
    """

    def __init__(self, x, table: JackTable, within: tuple[int, ...] | None = None):
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
        self.within = within
        # stage[n] holds values on the first n variables; degree 0 is done
        self._stage: list[dict] = [{(): one} for _ in range(self.m + 1)]
        self._done = 0

    def _shapes(self, k: int, n: int):
        """Partitions of k with at most n parts inside ``within``."""
        return _partition_tuples(k, (k,) * n if self.within is None else self.within[:n])

    def degree_values(self, k: int) -> dict:
        """chat values for every partition of weight k (length <= m) inside
        ``within``."""
        while self._done < k:
            self._advance()
        top = self._stage[self.m]
        return {kappa: top[kappa] for kappa in self._shapes(k, self.m)}

    def value(self, kappa: tuple[int, ...]):
        """chat_kappa for kappa inside ``within``; zero when kappa has more
        than m parts."""
        if len(kappa) > self.m:
            return np.zeros_like(self._x[0]) if self._batched else 0.0
        while self._done < sum(kappa):
            self._advance()
        return self._stage[self.m][kappa]

    def _advance(self):
        """Fill degree done + 1 on every number of variables.

        chat_kappa(x_1..x_n) = sum_mu chat_mu(x_1..x_{n-1}) x_n^s g over the
        strips of kappa; a shape of length n reads its closed strips only.
        """
        k = self._done + 1
        for n in range(1, self.m + 1):
            prev, cur, xn = self._stage[n - 1], self._stage[n], self._x[n - 1]
            for kappa in self._shapes(k, n):
                terms = [prev[mu] * (xn**s * g) if s else prev[mu] * g
                         for mu, s, g in self.table.strips(kappa, len(kappa) == n)]
                if self._batched:
                    acc = np.zeros_like(xn)
                    for t in terms:
                        acc += t
                    cur[kappa] = acc
                else:
                    cur[kappa] = math.fsum(terms)
        self._done = k


def _log_nu(p: Partition, algebra: DivisionAlgebra) -> float:
    """log of the hook product nu_kappa; 0 for the empty partition.

    The hooks of :func:`core.hook_product`, upper leg + alpha (arm + 1) and
    lower leg + 1 + alpha arm, taken in floats: alpha = 2/beta is a power of
    two, so each is exact and equals the float of the exact rational.
    """
    alpha = 2.0 / algebra.beta
    cols = conjugate(p).parts
    return math.fsum(math.log(leg + alpha * (arm + 1)) + math.log(leg + 1 + alpha * arm)
                     for i, ki in enumerate(p.parts) for j in range(ki)
                     for arm, leg in [(ki - j - 1, cols[j] - i - 1)])


def _chat(p: Partition, x, algebra: DivisionAlgebra, table: JackTable | None):
    """chat_p at the spectrum ``x``, or at each row of a (batch, m) array;
    zero when p has more parts than the spectrum."""
    return ChatEvaluator(x, table or get_table(algebra), within=p.parts).value(p.parts)


def jack_C(p: Partition, x, algebra: DivisionAlgebra, table: JackTable | None = None) -> float:
    """Jack polynomial in the normalization where partitions of k sum to (tr x)^k.

    Returns 0 when the partition is longer than the spectrum.  Homogeneous of
    degree ``p.weight``; invariant (bit-identical) under permutations of the
    eigenvalues.
    """
    return _chat(p, as_spectrum(x).eigenvalues, algebra, table) * math.factorial(p.weight)


def jack_C_batch(p: Partition, X: np.ndarray, algebra: DivisionAlgebra, table: JackTable | None = None) -> np.ndarray:
    """Vectorized :func:`jack_C` over the rows of a (batch, m) spectrum array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError("jack_C_batch expects a (batch, m) array")
    return _chat(p, X, algebra, table) * math.factorial(p.weight)


def jack_J(p: Partition, x, algebra: DivisionAlgebra, table: JackTable | None = None) -> float:
    """Jack polynomial in the monic normalization (coefficient k! on the
    bottom monomial); related to :func:`jack_C` by the hook-product constant."""
    chat = _chat(p, as_spectrum(x).eigenvalues, algebra, table)
    log_scale = _log_nu(p, algebra) - p.weight * math.log(float(algebra.alpha))
    return chat * math.exp(log_scale) if chat else chat


@lru_cache(maxsize=None)
def log_chat_identity(kappa: tuple[int, ...], m: int, algebra: DivisionAlgebra) -> float:
    """log of C_kappa(I_m)/k!, for a partition with length <= m (positive)."""
    if not kappa:
        return 0.0
    p = Partition(kappa)
    alpha = float(algebra.alpha)
    acc = 2.0 * p.weight * math.log(alpha) - _log_nu(p, algebra)
    for i, ki in enumerate(p.parts, start=1):
        base = (m - i + 1) / alpha
        for t in range(ki):
            acc += math.log(base + t)
    return acc


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
