"""Evaluation of Jack polynomials on eigenvalue spectra.

One evaluator, :class:`ChatEvaluator`, runs a per-variable recurrence: the
value on ``n`` variables is a sum over horizontal-strip predecessors of the
value on ``n - 1`` variables times a power of the new variable and a rational
coefficient.  It fills one degree at a time over every partition inside an
optional bounding shape ``within``.  The series use the rectangle
``(r,) * m`` for a first-part cap, and :func:`jack_C` bounds it by kappa
itself, so only kappa's subshapes are evaluated.  The strips of a shape
inside ``within`` are inside it too, so a bound never changes a value.  The
same holds for length: chat_kappa(x) = 0 when kappa has more parts than x
has nonzero entries (Muirhead 1982, ch. 7), so for one spectrum no stage
fills a partition longer than that rank.

A shape kappa of length exactly ``n`` reads no strips: on n variables
P_kappa = x_1 ... x_n P_{kappa - 1^n}, so its value is that of kappa minus its
first column, on the same stage, times one product
(:meth:`ChatEvaluator._fill`).  Only the shapes shorter than n read strips,
and a stage that holds no such shape (stage 1) forms no power of its
variable.  Coefficients depend only on (partition, predecessor, alpha).  Each
is a product over the cells of kappa of hook ratios that pair a cell of mu
with the same cell of kappa, so every factor is at most one and no weight
overflows.  Grouped by rows, that product factors over pairs of rows r <= i
of kappa,

    g(kappa, mu) = prod_{r <= i} H_{r,i}(mu_r, mu_i),

because the cells of row r in the columns (kappa_{i+1}, kappa_i] see only
mu_r (their arms) and whether the column ends above or below mu_i (their
legs); :class:`JackTable` gives the factors and the proof.  So all the
strips of one shape are one broadcast product of n(n + 1)/2 small tables
over the ranges of (mu_r, mu_i), not one hook tensor per strip.

Storage.  The strips of kappa fill a box, mu_i from kappa_i down to
kappa_{i+1}, so mu and s = |kappa| - |mu| are given by a position in the box
and only g is stored: one read-only float array per shape, raveled in the
reverse-lexicographic order of mu, 8 bytes per strip.  A :class:`JackTable`
memoizes these arrays, one per shape, so a whole series evaluation prices
each coefficient once and never prices the strips of a shape that no stage
on more variables than its length fills.  For one spectrum,
:class:`ChatEvaluator` keeps the stages on one and two variables as dense
arrays indexed by parts, so the predecessors of kappa there are one block of
the previous stage, taken by reversed slices in the same order as g; its
other stages, and a batch's, are dicts keyed by partition, read mu by mu in
that order.  Every strip sum of one stage and degree reads one table of
x_n^s, formed once by the first shape there that reads strips.

What each stage keeps.  Stage 0 holds nothing: every shape on stage 1 has
length 1 and is filled from its first column.  Any other stage below the top
one keeps every degree, since
the strips of a shape on the next stage reach down to any lower degree.  The
top stage m keeps only its m most recent degrees: a degree is read out once,
at the step that fills it, and the shapes of length m of degree k + 1 read
degree k + 1 - m; so asking for an older degree raises ValueError.  A
spectrum's trailing zero entries build no stage at all, since each would
repeat the stage before it bit for bit (:func:`_without_trailing_zeros`).

Internally everything is carried in the normalization ``chat = C / k!``; the
public functions convert to the ``C`` (trace-power) and ``J`` (monic-monomial)
normalizations.  On the first variable chat_(k) = x_1^k / k! is one product
per degree, so it leaves the float range only where the value itself does.
The later stages still carry raw powers ``x_n**s``, which are not scale-safe
past weight ~170: strip coefficients below the normal range underflow to zero
and large ``x_n**s`` overflow.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

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


def _rank(x) -> int:
    """The number of nonzero entries of the spectrum ``x``."""
    return sum(v != 0.0 for v in x)


def _interlacing_predecessors(parts: tuple[int, ...]):
    """All mu with kappa_{i+1} <= mu_i <= kappa_i (horizontal strips kappa/mu),
    in reverse-lexicographic order: the order of :meth:`JackTable.strips`'
    entries."""
    ranges = [range(k, lo - 1, -1) for k, lo in zip(parts, parts[1:] + (0,))]
    # mu_i >= kappa_{i+1} > 0 above the last row, so only mu_n can be zero
    return [mu if mu[-1] else mu[:-1] for mu in itertools.product(*ranges)]


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _diagonal_factor(alpha: float, w: int) -> np.ndarray:
    """H_{i,i} of a row of width w = kappa_i - kappa_{i+1}, over mu_i from
    kappa_i down to kappa_{i+1}.

    Shifted by kappa_{i+1}, with t = mu_i - kappa_{i+1}, the entry is the
    running product over the columns j = 1..w of (1 + alpha (t - j)) /
    (1 + alpha (w - j)) for j <= t and 1 / (w - j + 1) beyond: every factor
    depends on t, so each entry is its own O(w) product, paid once per width.
    """
    t = np.arange(w, -1, -1, dtype=float)[:, None]
    j = np.arange(1, w + 1, dtype=float)
    factors = np.where(j <= t, (1 + alpha * (t - j)) / (1 + alpha * (w - j)), 1 / (w - j + 1))
    return _read_only(np.cumprod(factors, axis=1)[:, -1])


def _row_pair_factor(alpha: float, d: int, top: int, w: int) -> np.ndarray:
    """H_{r,i} for rows d = i - r > 0 apart, over mu_r (rows) from kappa_r
    down to kappa_i and mu_i (columns) from kappa_i down to kappa_{i+1}.

    Everything is shifted by kappa_{i+1}: top = kappa_r - kappa_{i+1},
    w = kappa_i - kappa_{i+1}, and the columns are j = 1..w.  A shape reads
    the first kappa_r - kappa_{r+1} + 1 rows (mu_r down to kappa_{r+1} >=
    kappa_i); each row is its own running product, so the rows a shape reads
    do not depend on how many are built.  Along mu_i the entry is a prefix
    product of the lower factors (j <= mu_i) times a suffix product of the
    upper ones.
    """
    j = np.arange(1, w + 1, dtype=float)
    arm = alpha * (np.arange(top, w - 1, -1, dtype=float)[:, None] - j)
    top_arm = alpha * (top - j)
    # prefix, suffix = runs[0], runs[1]: prefix[:, b] takes the columns j <= b
    # and suffix[:, b] those j > b, each a product of factors at most one
    runs = np.ones((2, len(arm), w + 1))
    np.cumprod((arm + (d + 1)) / (top_arm + (d + 1)), axis=1, out=runs[0, :, 1:])
    upper = (arm + (d - 1 + alpha)) / (top_arm + (d + alpha))
    np.cumprod(upper[:, ::-1], axis=1, out=runs[1, :, w - 1 :: -1])
    return _read_only((runs[0] * runs[1])[:, ::-1])


class JackTable:
    """Memoized recurrence coefficients for one division algebra.

    Each partition kappa has one entry, its strips, read by every stage on
    more variables than len(kappa) (the stage on exactly len(kappa) reads
    none; see :meth:`ChatEvaluator._fill`).  An entry is one read-only
    float64 array of g over the strips, raveled in reverse-lexicographic
    order of mu: mu_i runs from kappa_i down to kappa_{i+1}, with the last
    part fastest.  mu and s are that position, so neither is stored.  Lookups
    after the first return the identical array, and insertion is
    lock-protected so concurrent evaluations from several threads see a
    consistent cache.

    The coefficient g(kappa, mu) = alpha^s prod_{c in mu} h~_mu(c) /
    prod_{c in kappa} h~_kappa(c), where a cell takes its lower hook
    leg + 1 + alpha arm in a column where kappa and mu have equal length, and
    its upper hook leg + alpha (arm + 1) elsewhere.  It factors over pairs of
    rows r <= i (0-based, d = i - r):

        g(kappa, mu) = prod_{r <= i} H_{r,i}(mu_r, mu_i),

    H_{r,i} being a product over the columns j in (kappa_{i+1}, kappa_i] of

    - (d + 1 + alpha (mu_r - j)) / (d + 1 + alpha (kappa_r - j)) for j <= mu_i,
    - (d - 1 + alpha (mu_r - j + 1)) / (d + alpha (kappa_r - j + 1)) for
      j > mu_i and d > 0,
    - 1 / (kappa_i - j + 1) for j > mu_i and d = 0.

    Proof.  Every column j of kappa lies in exactly one range
    (kappa_{i+1}, kappa_i], and there it holds the cells (r, j), r <= i, so
    it has length i + 1 in kappa.  As kappa/mu is a horizontal strip, it has
    length i + 1 in mu when j <= mu_i (lower hooks) and i when j > mu_i
    (upper hooks; cell (i, j) is then in kappa/mu).  A cell (r, j) in mu has
    arm mu_r - j in mu and kappa_r - j in kappa, and leg d in kappa; its leg
    in mu is d where the column lengths agree and d - 1 where they do not.
    Those ratios are the first two factors.  The strip cell (i, j) gives
    alpha / (alpha (kappa_i - j + 1)), the third.  So the product over i and
    r <= i takes every cell of kappa once.  Each factor is at most one.

    So a shape's strips are the broadcast product of n(n + 1)/2 small tables
    over the ranges of (mu_r, mu_i), raveled in reverse-lexicographic order
    (:meth:`_coefficients`).  In mu_i, H_{r,i} for r < i is a prefix
    product of the lower factors times a suffix product of the upper ones,
    O(1) per entry.  Built for mu_r from kappa_r down to kappa_i, of which a
    shape reads the rows down to kappa_{r+1}, it depends on kappa only
    through d and the parts kappa_r and kappa_i relative to kappa_{i+1}, and
    the diagonal H_{i,i} (O(w) per entry) only on the width w = kappa_i -
    kappa_{i+1}, so many shapes share them: the table keeps both
    (:func:`_row_pair_factor`, :func:`_diagonal_factor`) as read-only arrays
    in bounded LRU memos of its own.  Every running product only falls towards the value it ends at, so
    relative error stays near rounding level, nothing overflows, and nothing
    underflows unless g itself leaves the normal range.
    """

    def __init__(self, algebra: DivisionAlgebra):
        self.algebra = algebra
        self._full: dict[tuple[int, ...], np.ndarray] = {}
        self._lock = threading.Lock()
        alpha = 2.0 / algebra.beta
        self._diagonal = lru_cache(maxsize=1024)(partial(_diagonal_factor, alpha))
        self._row_pair = lru_cache(maxsize=4096)(partial(_row_pair_factor, alpha))

    def strips(self, kappa: tuple[int, ...]) -> np.ndarray:
        """Read-only array of g over the horizontal-strip predecessors of
        kappa, in reverse-lexicographic order of mu."""
        hit = self._full.get(kappa)
        if hit is not None:
            return hit
        g = self._coefficients(kappa)
        with self._lock:
            return self._full.setdefault(kappa, g)

    def _coefficients(self, kappa: tuple[int, ...]) -> np.ndarray:
        """g over the box of strips of kappa, raveled: the broadcast product
        of the row-pair factors H_{r,i}(mu_r, mu_i) over r <= i."""
        n = len(kappa)
        below = kappa[1:] + (0,)
        sizes = [k - lo + 1 for k, lo in zip(kappa, below)]
        g = np.ones(math.prod(sizes))
        box = g.reshape(sizes)
        # row by row, columns ascending: the order of the cell-by-cell
        # product, so one-row shapes keep its bits
        for r in range(n):
            for i in range(n - 1, r - 1, -1):
                w = kappa[i] - below[i]
                if not w:
                    continue
                shape = [1] * n
                shape[i] = sizes[i]
                if i == r:
                    table = self._diagonal(w)
                else:
                    shape[r] = sizes[r]
                    table = self._row_pair(i - r, kappa[r] - below[i], w)[: sizes[r]]
                box *= table.reshape(shape)
        return _read_only(g)


_TABLES: dict[int, JackTable] = {}
_TABLES_LOCK = threading.Lock()


def get_table(algebra: DivisionAlgebra) -> JackTable:
    """Process-wide shared coefficient table for ``algebra``."""
    table = _TABLES.get(algebra.beta)
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.setdefault(algebra.beta, JackTable(algebra))
    return table


@lru_cache(maxsize=4096)
def _strip_block(kappa: tuple[int, ...], depth: int):
    """Where the strips of kappa sit in a dense stage on ``depth`` variables:
    mu_i from kappa_i down to kappa_{i+1} by a reversed slice on axis i, and
    part 0 on the axes beyond, so the block it picks is in the order of the
    table's entry, and s is the sum of the positions along its axes."""
    index = [slice(hi, lo - 1 if lo else None, -1) for hi, lo in zip(kappa, kappa[1:] + (0,))]
    return tuple(index) + (0,) * (depth - len(index))


# the most variables a dense stage of one spectrum holds (see ChatEvaluator)
_DENSE_DEPTH = 2


class ChatEvaluator:
    """Degree-incremental table of chat_kappa = C_kappa / k! for one spectrum.

    ``x`` is either a length-m sequence (scalar evaluation) or a (B, m) array
    (one value per row, vectorized).  ``within`` bounds the partitions
    evaluated to those inside that shape (part i at most ``within[i]``); with
    no bound every partition with at most m parts is.  Degrees are filled in
    increasing order, and :meth:`degree_values` reads any degree up to the
    last m filled; older degrees of the top stage are dropped as each new
    one is filled, because nothing reads them again (the module docstring
    says what each stage keeps).  Past weight ~170 the values on two or
    more variables are not scale-safe (see the module docstring).

    For one spectrum, ``m`` counts the entries up to the last nonzero one
    (at least one): trailing zeros build no stage.

    Partitions longer than the rank of x are never filled, at any stage:
    chat_kappa(x) = 0 when kappa has more parts than x has nonzero entries,
    and a stage reads only predecessors mu inside kappa, so the values kept
    are the same bits.  The rank is the number of nonzero entries of one
    spectrum, and m for a batch.  ``_parts``, for
    :func:`hypergeom.pfq_two`, lowers it to the smaller rank of two
    arguments, so that both evaluators hold the same partitions.

    Stage n holds the values on the first n variables.  For one spectrum,
    stages 1 and 2 below the top stage m are dense float arrays indexed by
    parts: axis i has size ``cap // (i + 1) + 1`` for a weight capacity
    ``cap`` that doubles as degrees outgrow it, with or without a bound
    (``within`` bounds the shapes filled and the powers formed, not the
    box).  They start as one-cell boxes holding the empty partition, at
    capacity 0.  Entries that are not partitions, or lie outside the bound,
    are never read.  Unbounded, such a box holds at most about 2! 2^2 = 8 cells
    per partition up to the degree reached (the parts in any order, then
    the doubling): 64 bytes at most, below a dict entry; under a narrow
    bound it holds more cells than partitions, at most about 2 k^2 at
    weight k.  On n variables the box grows like n! 2^n,
    and a batch would multiply every cell by its rows, so the other stages,
    and every stage of a batch, are dicts keyed by partition.  The top stage
    is always one of these dicts, so its spent degrees go key by key.
    """

    def __init__(self, x, table: JackTable, within: tuple[int, ...] | None = None,
                 _parts: int | None = None):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            self._batched = False
            self._x = _without_trailing_zeros([float(v) for v in arr])
            one = 1.0
        elif arr.ndim == 2:
            self._batched = True
            self._x = [np.ascontiguousarray(arr[:, j]) for j in range(arr.shape[1])]
            one = np.ones(arr.shape[0])
        else:
            raise DomainError("spectrum must be a vector or a (batch, m) array")
        self.m = len(self._x)
        self.table = table
        self._alpha = 2.0 / table.algebra.beta
        # e_n = x_1 ... x_n, read by the shapes of length n on stage n; it
        # overflows to inf without a warning, as the products of _advance do
        with np.errstate(over="ignore"):
            self._e = list(itertools.accumulate(self._x, operator.mul, initial=one))
        self.within = within
        # the most parts a partition with a nonzero value has
        self.parts = _parts if _parts is not None else self.m if self._batched else _rank(self._x)
        # degree 0 is done: the empty partition is one on every stage but 0,
        # which no stage reads (stage 1's shapes have length 1)
        self._dense = 0 if self._batched else min(self.m - 1, _DENSE_DEPTH)
        self._stage: list = [{}] + [np.ones((1,) * n) if n <= self._dense else {(): one}
                                    for n in range(1, self.m + 1)]
        self._cap = 0  # the weight that the dense stages hold
        self._done = 0

    def _reserve(self, k: int):
        """Size the dense stages to hold every partition of weight k, doubling
        the capacity when k outgrows it."""
        if not self._dense or k <= self._cap:
            return
        self._cap = max(k, 2 * self._cap)
        sizes = [self._cap // (i + 1) + 1 for i in range(self._dense)]
        for n in range(1, self._dense + 1):
            stage, old = np.zeros(sizes[:n]), self._stage[n]
            stage[tuple(map(slice, old.shape))] = old
            self._stage[n] = stage

    def _shapes(self, k: int, n: int):
        """Partitions of k with at most n parts, and at most the rank's,
        inside ``within``."""
        n = min(n, self.parts)
        return _partition_tuples(k, (k,) * n if self.within is None else self.within[:n])

    def degree_values(self, k: int) -> dict:
        """chat values for every partition of weight k inside ``within``
        with at most as many parts as the rank of x; the longer ones are 0.
        ValueError for a degree the top stage has dropped: below the m most
        recent degrees filled."""
        if k <= self._done - self.m:
            raise ValueError(f"degree {k} is no longer held: the top stage keeps degrees "
                             f"{self._done - self.m + 1}..{self._done} once degree {self._done} is filled")
        while self._done < k:
            self._advance()
        top = self._stage[self.m]
        return {kappa: top[kappa] for kappa in self._shapes(k, self.m)}

    def _advance(self):
        """Fill degree done + 1 on every number of variables.

        chat_kappa(x_1..x_n) = sum_mu chat_mu(x_1..x_{n-1}) x_n^s g over the
        strips of kappa, for a shape shorter than n; a shape of length n is
        one product (:meth:`_fill`).  For one spectrum the terms of a shape
        are summed by ``math.fsum`` (nan where they hold inf of both signs:
        :func:`_fsum`); a batch adds them row by row, in the order of the
        strips.
        """
        k = self._done + 1
        self._reserve(k)
        # products overflow to inf without a warning, as the Python floats of
        # one spectrum's terms always did; the caller judges the values
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, self.m + 1):
                self._fill(k, n)
        self._done = k
        # degree k - m is spent: the next degree's shapes of length m read
        # k + 1 - m, and degree_values reads k (a negative degree has no shape)
        for kappa in self._shapes(k - self.m, self.m):
            del self._stage[self.m][kappa]

    def _fill(self, k: int, n: int):
        """Degree k on the first n variables: a shape shorter than n from its
        strips on stage n - 1, one of length n from its first column.

        The latter is chat_kappa = chat_{kappa - 1^n} e_n rho_kappa, with
        e_n = x_1 ... x_n and rho_kappa = prod_{i < n} alpha /
        (alpha kappa_i + n - 1 - i) (0-based i).  Proof: on n variables
        P_kappa = e_n P_{kappa - 1^n} (Macdonald, Symmetric Functions and
        Hall Polynomials, 1995, VI (4.17)), and chat_kappa = alpha^k P_kappa /
        c'_kappa, c'_kappa the product of the upper hooks alpha (a + 1) + l.
        Taking off the first column (length n) leaves every other cell's arm
        and leg, and removes the upper hooks alpha kappa_i + n - 1 - i of the
        column's cells.  So stage n reads its own value at kappa - 1^n,
        filled at degree k - n: that shape has at most n parts, lies inside
        kappa, and so inside ``within`` and the rank.
        """
        prev, cur, xn = self._stage[n - 1], self._stage[n], self._x[n - 1]
        # a dense stage is indexed by all n parts, zeros included
        pad = (lambda mu: mu) if isinstance(cur, dict) else (lambda mu: mu + (0,) * (n - len(mu)))
        powers = None
        for kappa in self._shapes(k, n):
            if len(kappa) == n:
                base = tuple(p - 1 for p in kappa if p > 1)
                cur[pad(kappa)] = cur[pad(base)] * (self._e[n] * _first_column(kappa, self._alpha))
                continue
            if powers is None:
                # x_n^s for every s that a strip of this degree has (at most
                # kappa_1), formed by the first shape that reads strips and
                # shared by every shape of this stage and degree
                reach = min(k, self.within[0]) if self.within else k
                powers = [xn**s for s in range(reach + 1)]
                if not isinstance(prev, dict):
                    powers = np.array(powers)
            if isinstance(prev, dict):
                terms = (prev[mu] * (powers[k - sum(mu)] * g)
                         for mu, g in zip(_interlacing_predecessors(kappa), self.table.strips(kappa).tolist()))
            else:
                # the block of stage n - 1 that holds the strips, against x_n^s:
                # s = the sum of the positions, so every axis steps one power
                block = prev[_strip_block(kappa, n - 1)]
                pw = np.ndarray(block.shape, float, powers, 0, (powers.itemsize,) * block.ndim)
                terms = (block * (pw * self.table.strips(kappa).reshape(block.shape))).ravel().tolist()
            # a batch adds its terms in place, in the order of the strips
            cur[pad(kappa)] = reduce(operator.iadd, terms, np.zeros_like(xn)) if self._batched else _fsum(terms)


def _without_trailing_zeros(x: list) -> list:
    """``x`` without its trailing zero entries, keeping at least one.

    On a zero variable x_n the only strip with s = 0 is mu = kappa, whose g
    is 1, and no shape of length n is filled (it is longer than the rank),
    so stage n repeats stage n - 1 bit for bit.  Interior zeros stay: taking
    one out would fill the shapes as long as the stage from their first
    column rather than from their strips, which moves their bits."""
    end = len(x)
    while end > 1 and x[end - 1] == 0.0:
        end -= 1
    return x[:end]


def _fsum(terms: list) -> float:
    """``math.fsum`` of ``terms``, or nan where they hold inf of both signs
    or their sum overflows: the caller refuses it as any value outside the
    float range."""
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return math.nan


def _first_column(kappa: tuple[int, ...], alpha: float) -> float:
    """rho_kappa = prod_{i < n} alpha / (alpha kappa_i + n - 1 - i), n =
    len(kappa): on n variables chat_kappa = chat_{kappa - 1^n} e_n rho_kappa
    (:meth:`ChatEvaluator._fill`)."""
    n = len(kappa)
    return math.prod(alpha / (alpha * p + (n - 1 - i)) for i, p in enumerate(kappa))


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


def _chat(p: Partition, x, algebra: DivisionAlgebra, table: JackTable | None, scale=None):
    """chat_p at the spectrum ``x``, or at each row of a (batch, m) array,
    times each factor ``scale()`` returns, applied in turn, when that is
    given and a value is not zero; zero when p has more parts than the
    spectrum's nonzero entries.  A constant above 1 given as two equal
    factors h, h overflows no intermediate where value * h^2 fits.

    DomainError naming the weight when a value leaves the float range, by an
    overflow of the recurrence's powers or of the scale, or underflows to
    0.0 where it cannot vanish: at a spectrum (or row) with at least len(p)
    nonzero entries, all of one sign, since C_p has nonnegative monomial
    coefficients and its monomial of p itself is then nonzero.  A 0.0 at
    such a spectrum of mixed signs is evaluated again at |x|: the same
    coefficients give |C_p(x)| <= C_p(|x|), so where that underflows too,
    the value is below the float range, and it raises; otherwise the 0.0 is
    returned as a true zero.
    """
    x = np.asarray(x, dtype=float)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = ChatEvaluator(x, table or get_table(algebra), within=p.parts).degree_values(p.weight)
            value = values.get(p.parts, np.zeros(len(x)) if x.ndim == 2 else 0.0)
            if scale is not None and np.any(value):
                for factor in scale():
                    value = value * factor
    except OverflowError:
        value = math.inf
    if not np.all(np.isfinite(value)):
        raise DomainError(f"the Jack polynomial of weight {p.weight} leaves the float range "
                          "at this argument")
    if not np.all(value):
        suspect = (value == 0) & (np.count_nonzero(x, axis=-1) >= p.length)
        mixed = np.any(x > 0, axis=-1) & np.any(x < 0, axis=-1)
        if np.any(suspect & ~mixed):
            raise DomainError(f"the Jack polynomial of weight {p.weight} underflows to 0 at this "
                              "argument, where it cannot vanish")
        if np.any(suspect & mixed):  # raises, as above, where C_p(|x|) underflows too
            _chat(p, np.abs(x if x.ndim == 1 else x[suspect & mixed]), algebra, table, scale)
    return value


# the largest k whose k! fits a double
_MAX_C_WEIGHT = 170


def _factorial_of(p: Partition) -> int:
    """k! = |p|! for the C normalization, C = chat * k!; refused past weight
    170, where k! leaves the float range."""
    if p.weight > _MAX_C_WEIGHT:
        raise DomainError(
            f"C_kappa at weight {p.weight} is out of reach: it is carried as chat * k!, "
            f"and k! leaves the float range past weight {_MAX_C_WEIGHT}")
    return math.factorial(p.weight)


def jack_C(p: Partition, x, algebra: DivisionAlgebra, table: JackTable | None = None) -> float:
    """Jack polynomial in the normalization where partitions of k sum to (tr x)^k.

    Returns 0 when the partition is longer than the spectrum.  Homogeneous of
    degree ``p.weight``; invariant (bit-identical) under permutations of the
    eigenvalues.  The value is chat * k!, so a weight above 170 raises
    :class:`DomainError`.  Up to 170, chat can underflow to 0.0 where C
    cannot vanish (for example (170,) at x = 0.5, whose C is 0.5^170 ~
    6.7e-52), and that raises :class:`DomainError` too, until the recurrence
    carries the C normalization itself; so does a value past the float
    range.  A C that is truly 0 at a spectrum of mixed signs (as (1,) at
    (1, -1)) is returned as 0.0; a 0.0 there whose bound C(|x|) underflows
    too raises (as (170,) at (0.5, -0.25), whose C is ~5.45e-52).
    """
    kfact = _factorial_of(p)
    return _chat(p, as_spectrum(x).eigenvalues, algebra, table, lambda: (kfact,))


def jack_C_batch(p: Partition, X: np.ndarray, algebra: DivisionAlgebra, table: JackTable | None = None) -> np.ndarray:
    """Vectorized :func:`jack_C` over the rows of a (batch, m) spectrum array,
    with the same weight reach."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError("jack_C_batch expects a (batch, m) array")
    kfact = _factorial_of(p)
    return _chat(p, X, algebra, table, lambda: (kfact,))


def jack_J(p: Partition, x, algebra: DivisionAlgebra, table: JackTable | None = None) -> float:
    """Jack polynomial in the monic normalization (coefficient k! on the
    bottom monomial); related to :func:`jack_C` by the hook-product constant.
    The constant is applied as two half factors, since past weight ~90 it
    leaves the float range where chat * constant does not (J_(k) = (2k - 1)!!
    at x = 1, beta = 1).  A value past the float range raises
    :class:`DomainError`."""
    log_half = (_log_nu(p, algebra) - p.weight * math.log(float(algebra.alpha))) / 2
    return _chat(p, as_spectrum(x).eigenvalues, algebra, table, lambda: (math.exp(log_half),) * 2)


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
