"""Truncated hypergeometric series of one and two matrix arguments.

The series are sums over partitions, degree by degree, of generalized
Pochhammer ratios times Jack polynomials of the eigenvalue argument(s).
Truncation policy: stop once _STALL_WINDOW (3) consecutive degree sums are
each below ``rel_tol`` times the accumulated value; non-convergence within
``max_degree`` is reported, never silently ignored.  A
:class:`SeriesTruncation` field left None takes the default of the series
that receives it (:func:`with_defaults`).

:func:`_series` is the one driver of :func:`pfq`, :func:`pfq_two` and
:func:`pfq_batch`, and :func:`_degree_terms` the one term formula.
In :func:`pfq_two` neither argument fills a partition longer than the
smaller rank, whose terms are 0.  For one spectrum, each degree's terms are
``math.fsum``-ed for :func:`_run_series`, the adaptive degree loop that holds
the stop rule (and also serves :class:`RaySeries`); it reads a plain
float running total and returns ``math.fsum`` of the degree sums.  A batch of
spectra adds them as arrays, which ``fsum`` cannot, in :func:`_run_batch`,
under the same stop rule.
:func:`_exp_split` is the exponential series split at a first part r, exactly.
:class:`RaySeries` is the one memoized positive confluent series on a ray:
it keeps the log degree sums log D_k at one base point, extended in order by
a source function, and sums every point of the ray from them with each term
scaled by exp(-trace), so that nothing overflows and each further point
costs one exp per degree.  It sizes its own degree budget from that trace.
It has two sources, each with its own bounded process-wide ``lru_cache``, so
one kind never evicts the other: :func:`ray_series` (``_ray``) runs the Jack
recurrence once per (spec, unit-trace direction) at any m, and
:func:`pfq_positive_m2` (``_m2_series``), the m = 2 engine for far tails,
fills closed-form tables with O(1) work per partition once per (parameters,
beta, t2/t1).  That key is each point's t2/t1, not its model's: the points
t = x/sigma of one model share a table only where x/sigma1 and x/sigma2
round alike, as at sigma = (1, 2) (4 tables over fig1's grid and four
betas), not at sigma = (1.3, 2.9) (16).  :func:`_positive_1f1`, the
positive 1F1 of the Wishart distribution functions, picks between them by
the number of eigenvalues.

Matrix arguments are accepted only as eigenvalue vectors.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DivisionAlgebra, DomainError
from .jack import ChatEvaluator, _fsum, _rank, as_spectrum, get_table, log_chat_identity
from .special import lgamma_run


# the degree cap and relative tolerance of pfq, pfq_two and pfq_batch where a
# truncation leaves them unset; a RaySeries takes the same tolerance, and this
# cap as the least of its trace budget
_DEFAULT_MAX_DEGREE = 40
_DEFAULT_REL_TOL = 1e-10
# consecutive degree sums below rel_tol times the running total that end a series
_STALL_WINDOW = 3
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class SeriesTruncation:
    """Total-degree cap and stop tolerance of a partition series.

    A field left None takes the default of the series that receives it
    (:func:`with_defaults`): for :func:`pfq`, :func:`pfq_two` and
    :func:`pfq_batch` a cap of 40 and ``rel_tol`` 1e-10; for every
    :class:`RaySeries` the trace budget of :meth:`RaySeries.evaluate` and
    1e-10; the largest-eigenvalue and region laws of :mod:`jackdiv.wishart`
    set ``rel_tol`` 1e-12 and leave the cap to their ray, and the joint
    density sets its own cap and 1e-11.  A field given is kept as given.
    """

    max_degree: int | None = None
    rel_tol: float | None = None

    def __post_init__(self):
        if self.max_degree is not None and self.max_degree < 0:
            raise DomainError(f"max_degree must be >= 0, got {self.max_degree}")
        if self.rel_tol is not None and not 0 < self.rel_tol < 1:
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")


def with_defaults(trunc: SeriesTruncation | None, max_degree: int | None,
                  rel_tol: float) -> tuple[int | None, float]:
    """(max_degree, rel_tol) of ``trunc``, each the default given where
    ``trunc`` or its field is None."""
    if trunc is None:
        return max_degree, rel_tol
    return (max_degree if trunc.max_degree is None else trunc.max_degree,
            rel_tol if trunc.rel_tol is None else trunc.rel_tol)


@dataclass
class SeriesResult:
    """Value and truncation metadata of one series evaluation; ``value`` is an
    array, one entry per row, for a batch (:func:`pfq_batch`)."""

    value: float | np.ndarray
    degrees_used: int
    last_term_ratio: float
    converged: bool
    log_value: float | None = None


@dataclass(frozen=True)
class HypergeomSpec:
    """Parameter set of a hypergeometric function of matrix argument(s)."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    algebra: DivisionAlgebra
    m: int

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(float(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(float(b) for b in self.lower))
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        for name, params in (("upper", self.upper), ("lower", self.lower)):
            if not all(math.isfinite(par) for par in params):
                raise DomainError(f"{name} parameters must be finite")
        beta = self.algebra.beta
        for b in self.lower:
            for j in range(1, self.m + 1):
                v = -b + (j - 1) * beta / 2
                if v > -1e-12 and abs(v - round(v)) < 1e-9:
                    raise DomainError(
                        f"lower parameter {b} is a pole: -b + (j-1)*beta/2 = {v} "
                        f"is a nonnegative integer at j = {j}"
                    )

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)


def _termination_bound(spec: HypergeomSpec) -> int | None:
    """Largest first part with a nonzero coefficient, when an upper parameter
    truncates the series; None when it does not terminate."""
    best = None
    for a in spec.upper:
        if a <= 1e-12 and abs(a - round(a)) < 1e-9:
            r = int(-round(a))
            best = r if best is None else min(best, r)
    return best


@lru_cache(maxsize=64)
def _poch_memo(spec: HypergeomSpec) -> dict:
    """The Pochhammer ratios of ``spec`` found so far, by partition; the
    memos of the last 64 specs are kept."""
    return {(): 1.0}


def _poch_ratio(spec: HypergeomSpec, kappa: tuple[int, ...], memo: dict | None = None) -> float:
    """prod_i [a_i]_kappa / prod_j [b_j]_kappa with factor-level pairing.

    The cells are taken row by row, each row left to right, one factor
    prod_a (a - shift + t) / prod_b (b - shift + t) per cell, so the ratio of
    kappa is that of kappa less its last cell times one factor: the same
    products in the same order as a loop over every cell.  Each ratio is
    memoized per spec (:func:`_poch_memo`), so a series pays one factor per
    partition; a caller pricing many partitions passes that ``memo`` itself.
    """
    if memo is None:
        memo = _poch_memo(spec)
    shorter = []
    while kappa not in memo:
        shorter.append(kappa)
        kappa = kappa[:-1] + (kappa[-1] - 1,) if kappa[-1] > 1 else kappa[:-1]
    acc = memo[kappa]
    beta = spec.algebra.beta
    for kap in reversed(shorter):
        shift, t = (len(kap) - 1) * beta / 2, kap[-1] - 1
        num = 1.0
        for a in spec.upper:
            num *= a - shift + t
        den = 1.0
        for b in spec.lower:
            den *= b - shift + t
        acc = memo[kap] = acc * (num / den)
    return acc


def _convergence_check(spec: HypergeomSpec, norm: float, terminating: int | None):
    if terminating is not None:
        return
    if spec.p == spec.q + 1:
        if not norm < 1.0:
            raise DomainError(
                f"series with p = q+1 converges only for max |eigenvalue| < 1, got {norm}"
            )
    elif spec.p > spec.q + 1:
        raise DomainError(
            "series with p > q+1 diverges unless an upper parameter is a "
            "nonpositive integer making it terminate"
        )


def _run_series(rel_tol, term_of_degree, hard_cap, exact_finite=False, nonnegative=False):
    """Shared degree loop: term_of_degree(k) -> float sum of that degree,
    summed to degree ``hard_cap`` at most, stopped by the stall rule at
    ``rel_tol``.

    The stop rule reads a plain float running total; the returned total is
    ``math.fsum`` of the degree sums.  When ``exact_finite`` the series is a
    finite sum by construction and every degree up to ``hard_cap`` is summed.
    When ``nonnegative`` every term is >= 0 and every degree sum > 0, so a
    sum of exactly 0 after one the stop rule could not yet ignore is an
    underflow, not convergence, and raises DomainError naming the degree.
    """
    sums = []
    running = 0.0
    converged = exact_finite
    for k in range(hard_cap + 1):
        dsum = term_of_degree(k)
        if nonnegative and dsum == 0.0 and k > 0 and sums[-1] > rel_tol * running:
            raise DomainError(f"series terms of degree {k} underflow to 0 after a degree sum of "
                              f"{sums[-1]:g}: the series is not scale-safe there")
        sums.append(dsum)
        running += dsum
        if not exact_finite and k + 1 > _STALL_WINDOW and running != 0.0:
            # the newest sum first: the window passes only if it does
            small = rel_tol * abs(running)
            if abs(dsum) <= small and all(abs(s) <= small for s in sums[-_STALL_WINDOW:]):
                converged = True
                break
    total = math.fsum(sums)
    last_ratio = abs(dsum) / abs(total) if total != 0.0 else abs(dsum)
    log_value = math.log(total) if total > 0.0 else None
    return SeriesResult(total, k, last_ratio, converged, log_value)


def _degree_terms(spec: HypergeomSpec, xvals: dict, yvals: dict | None = None):
    """poch(kappa) chat_kappa(x), times chat_kappa(y) / chat_kappa(I) when
    ``yvals`` is given, for every partition of one degree.  ``xvals`` and
    ``yvals`` are that degree's chat values; those of x may be arrays (a
    batch of spectra), and the coefficient multiplies them last."""
    memo = _poch_memo(spec)
    for kap, v in xvals.items():
        coef = _poch_ratio(spec, kap, memo)
        if yvals is not None:
            ci = math.exp(log_chat_identity(kap, spec.m, spec.algebra)) if kap else 1.0
            coef *= yvals[kap] / ci
        yield coef * v


def _run_batch(rel_tol, sum_of_degree, hard_cap, exact_finite, rows):
    """The stop rule of :func:`_run_series` on a batch of ``rows`` series:
    sum_of_degree(k) is an array, and the loop stops once every row meets
    the rule.  Degree sums are added as arrays, which ``math.fsum`` cannot."""
    total = np.zeros(rows)
    recent = []
    converged = exact_finite
    for k in range(hard_cap + 1):
        dsum = sum_of_degree(k)
        total += dsum
        recent = (recent + [dsum])[-_STALL_WINDOW:]
        if not exact_finite and k + 1 > _STALL_WINDOW:
            small = np.abs(recent) <= rel_tol * np.abs(total)
            if np.all(small.all(axis=0) & (total != 0.0)):
                converged = True
                break
    ratios = np.abs(dsum) / np.where(total != 0.0, np.abs(total), 1.0)
    return SeriesResult(total, k, float(ratios.max(initial=0.0)), converged)


def _series(spec, x_eigs, y_eigs, norm, trunc) -> SeriesResult:
    """Sum of :func:`_degree_terms` degree by degree, with the convergence
    domain and termination shared by :func:`pfq`, :func:`pfq_two` and
    :func:`pfq_batch`; ``norm`` is the spectral radius the domain is judged
    on (at 0 every term past degree 0 vanishes).  ``x_eigs`` is one spectrum,
    whose degree sums are ``math.fsum``-ed for :func:`_run_series`, or a
    (batch, m) array, whose value is an array with one entry per row
    (:func:`_run_batch`).  A degree sum outside the float range raises."""
    max_degree, rel_tol = with_defaults(trunc, _DEFAULT_MAX_DEGREE, _DEFAULT_REL_TOL)
    r_cap = _termination_bound(spec)
    _convergence_check(spec, norm, r_cap)
    batched = np.ndim(x_eigs) == 2
    if norm == 0.0:
        return SeriesResult(np.ones(len(x_eigs)) if batched else 1.0, 0, 0.0, True, None if batched else 0.0)
    exact_finite = r_cap is not None
    hard_cap = spec.m * r_cap if exact_finite else max_degree

    table = get_table(spec.algebra)
    within = (r_cap,) * spec.m if exact_finite else None
    if y_eigs is None:
        dpx, dpy = ChatEvaluator(x_eigs, table, within), None
    else:
        # a term vanishes once kappa is longer than either rank
        parts = min(spec.m if batched else _rank(x_eigs), _rank(y_eigs))
        dpx = ChatEvaluator(x_eigs, table, within, parts)
        dpy = ChatEvaluator(y_eigs, table, within, parts)

    def sum_of_degree(k: int):
        try:  # a power x^s overflows, or chat_kappa(I) underflows to 0
            terms = _degree_terms(spec, dpx.degree_values(k), None if dpy is None else dpy.degree_values(k))
            dsum = sum(terms, np.zeros(len(x_eigs))) if batched else _fsum(list(terms))
        except (OverflowError, ZeroDivisionError):
            dsum = math.inf
        if not np.all(np.isfinite(dsum)):
            raise DomainError(f"series terms of degree {k} leave the float range")
        return dsum

    if batched:
        return _run_batch(rel_tol, sum_of_degree, hard_cap, exact_finite, len(x_eigs))
    # nonnegative arguments and positive shifted parameters: every term is >= 0
    nonnegative = (not exact_finite and min(x_eigs) >= 0.0 and (y_eigs is None or min(y_eigs) >= 0.0)
                   and _positive_shifts(spec.upper + spec.lower, spec.algebra.beta, spec.m))
    return _run_series(rel_tol, sum_of_degree, hard_cap, exact_finite, nonnegative)


def pfq(spec: HypergeomSpec, x, trunc: SeriesTruncation | None = None) -> SeriesResult:
    """Hypergeometric function of one matrix argument, as a truncated series.

    ``x`` is the eigenvalue vector of the argument.  Convergence domains are
    enforced up front: for p = q+1 the spectral radius must be below 1, and
    for p > q+1 the series must terminate.
    """
    sx = as_spectrum(x)
    if sx.m != spec.m:
        raise DomainError(f"argument has {sx.m} eigenvalues but spec.m = {spec.m}")
    return _series(spec, sx.eigenvalues, None, sx.max_abs, trunc)


def pfq_two(
    spec: HypergeomSpec,
    x,
    y,
    trunc: SeriesTruncation | None = None,
) -> SeriesResult:
    """Hypergeometric function of two matrix arguments.

    Each term carries the product of Jack values of both spectra divided by
    the value at the identity (computed by closed form, never by recurrence).

    Neither spectrum's Jack values are filled past the partitions with as
    many parts as the smaller rank of x and y, since C_kappa of either
    argument is 0 past its own rank.  Both arguments are sorted descending,
    so a nonnegative one's zeros trail it, and its evaluator builds no
    stage for them (:class:`jack.ChatEvaluator`): the density's shifted
    argument (beta/2)(1/sigma_min - 1/sigma) has one such zero per smallest
    scale, so at m = 3 with distinct scales its values come from a
    two-variable recurrence.  Neither changes a bit of any term.
    """
    sx = as_spectrum(x)
    sy = as_spectrum(y)
    if sx.m != sy.m:
        raise DomainError(f"arguments have different sizes: {sx.m} vs {sy.m}")
    if sx.m != spec.m:
        raise DomainError(f"arguments have {sx.m} eigenvalues but spec.m = {spec.m}")
    return _series(spec, sx.eigenvalues, sy.eigenvalues, sx.max_abs * sy.max_abs, trunc)


def pfq_batch(spec: HypergeomSpec, X, y_eigs=None) -> SeriesResult:
    """The series of :func:`pfq` on every row of the (batch, m) array ``X``,
    or that of :func:`pfq_two` with the fixed second argument ``y_eigs``.

    Truncation (the default), termination and the convergence domain are
    those of :func:`pfq`, judged on the largest |eigenvalue| of the whole
    batch; the loop stops once every row has converged.  ``value`` is an
    array with one entry per row, ``last_term_ratio`` the worst row's, and
    ``log_value`` is None.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.m:
        raise DomainError(f"X must be (batch, {spec.m}), got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DomainError("eigenvalues must be finite")
    norm = float(np.abs(X).max(initial=0.0))
    y = None
    if y_eigs is not None:
        sy = as_spectrum(y_eigs)
        if sy.m != spec.m:
            raise DomainError(f"y_eigs has {sy.m} eigenvalues but spec.m = {spec.m}")
        y, norm = sy.eigenvalues, norm * sy.max_abs
    return _series(spec, X, y, norm, None)


@lru_cache(maxsize=32)
def _exp_split(algebra: DivisionAlgebra, r: int, v: tuple[float, ...], above: bool):
    """One side of etr(v) = sum_kappa chat_kappa(v) split at first part r: over
    k = 0..m r, ``math.fsum`` of chat_kappa(v) over |kappa| = k, kappa_1 > r if
    ``above``, else kappa_1 <= r.  For v > 0 both are positive and add up to
    (tr v)^k / k!.  ``v`` is sorted descending; the last 32 sides are kept.

    The above side runs unbounded and keeps kappa_1 > r as it reads each
    degree out: its shapes of length m read kappa - 1^m, whose first part can
    be r or below.  The below side is bounded by (r,) * m."""
    evaluator = ChatEvaluator(v, get_table(algebra), None if above else (r,) * len(v))
    return tuple(math.fsum(c for kappa, c in evaluator.degree_values(k).items() if (sum(kappa[:1]) > r) == above)
                 for k in range(len(v) * r + 1))


def _scaled(res: SeriesResult, log_scale: float) -> SeriesResult:
    """``res`` with its value multiplied by exp(``log_scale``); truncation
    metadata kept.  ``value`` is +-inf once it leaves the float range, while
    the ``log_value`` of a positive value stays finite."""
    log_value = None if res.log_value is None else res.log_value + log_scale
    if log_scale < _LOG_FLOAT_MAX or not res.value:  # a zero stays 0 at any scale
        value = res.value * math.exp(min(log_scale, _LOG_FLOAT_MAX))
    else:  # exp(log_scale) alone leaves the float range
        log_abs = math.log(abs(res.value)) + log_scale
        value = math.copysign(math.exp(log_abs) if log_abs < _LOG_FLOAT_MAX else math.inf, res.value)
    return SeriesResult(value, res.degrees_used, res.last_term_ratio, res.converged, log_value)


def kummer_1f1(
    a: float,
    c: float,
    x,
    algebra: DivisionAlgebra,
    trunc: SeriesTruncation | None = None,
) -> tuple[SeriesResult, SeriesResult]:
    """Both sides of the Kummer relation for the confluent series.

    Returns (lhs, rhs) where lhs is the series at ``x`` with parameters
    (a; c) and rhs is ``etr(x)`` times the series at ``-x`` with parameters
    (c - a; c).  The caller asserts agreement.
    """
    sx = as_spectrum(x)
    lhs_spec = HypergeomSpec((a,), (c,), algebra, sx.m)
    rhs_spec = HypergeomSpec((c - a,), (c,), algebra, sx.m)
    lhs = pfq(lhs_spec, sx, trunc)
    inner = pfq(rhs_spec, sx.scaled(-1.0), trunc)
    return lhs, _scaled(inner, sx.trace)


def euler_2f1(
    a: float,
    b: float,
    c: float,
    x,
    algebra: DivisionAlgebra,
    trunc: SeriesTruncation | None = None,
) -> tuple[SeriesResult, SeriesResult, SeriesResult]:
    """The Gauss series and its two Euler/Pfaff-transformed evaluations.

    Returns (direct, pfaff, euler): the series at ``x`` with (a, b; c); the
    determinant-weighted series at ``-x (I - x)^{-1}`` with (c-a, b; c); and
    the determinant-weighted series at ``x`` with (c-a, c-b; c).  All three
    agree on the common domain.
    """
    sx = as_spectrum(x)
    if not sx.max_abs < 1:
        raise DomainError(f"Gauss series requires max |eigenvalue| < 1, got {sx.max_abs}")
    direct = pfq(HypergeomSpec((a, b), (c,), algebra, sx.m), sx, trunc)

    u = tuple(-lam / (1.0 - lam) for lam in sx.eigenvalues)
    if not max(abs(v) for v in u) < 1:
        raise DomainError(
            "transformed argument -x(I-x)^{-1} leaves the unit ball; the "
            "Pfaff-transformed series does not converge here"
        )
    logdet = math.fsum(math.log1p(-lam) for lam in sx.eigenvalues)
    pfaff = _scaled(pfq(HypergeomSpec((c - a, b), (c,), algebra, sx.m), u, trunc), -b * logdet)
    euler = _scaled(pfq(HypergeomSpec((c - a, c - b), (c,), algebra, sx.m), sx, trunc), (c - a - b) * logdet)
    return direct, pfaff, euler


# ---------------------------------------------------------------------------
# Memoized positive confluent series on a ray.
#
# Jack polynomials are homogeneous, C_kappa(t s) = t^|kappa| C_kappa(s), so on
# the ray t * s of a base point s every degree sum of a one-argument series is
# D_k t^k, with D_k the degree-k sum at s, fixed by s alone.  One RaySeries
# keeps log D_k, extended in order by a source function as later calls need
# more degrees, and evaluates each point of the ray from them in O(degrees).
# Each term is exp(log D_k + k log t - tr), tr the trace of the point: for
# 0 < a <= c the Pochhammer ratio is at most 1, so the scaled terms sum to at
# most 0F0 exp(-tr) = 1 and no degree sum overflows, however far the tail.
#
# There are two sources, each with its own bounded process-wide lru_cache of
# series, so one kind never evicts the other:
# - the Jack recurrence on a unit-trace direction s at any m (_ray, read by
#   ray_series), where t = tr = tau.  chat = C / k! on s is at most 1/k!, so
#   D_k leaves the normal float range near weight 170; its log is then -inf,
#   and a degree the stop rule needs past that point raises DomainError
#   instead of summing zeros;
# - the closed-form m = 2 tables at s = (1, r) (_m2_series, read by
#   pfq_positive_m2), where t = t1 and tr = t1 + t2, stable to thousands of
#   degrees.
# ---------------------------------------------------------------------------

# Entries kept by each process-wide series memo, _ray and _m2_series.
_RAY_CAPACITY = 32
_LOG_FLOAT_MIN = math.log(sys.float_info.min)


class RaySeries:
    """A positive confluent series on the ray of one base point, from its
    log degree sums log D_k there: ``log_degree_sums(k)`` is the list of
    log D_k, log D_{k+1}, ... (at least one) for the first degree k not yet
    kept.

    The sums are kept in order, under a lock, so every caller sees the same
    floats whatever the order of its calls and however many threads share
    the series.  The process keeps the last _RAY_CAPACITY series of each
    source in an ``lru_cache``, which guards only its own table: two threads
    that miss one key at once may each build a series, and both fill the
    same floats.
    """

    def __init__(self, log_degree_sums):
        self._source = log_degree_sums
        self._log_d: list[float] = []
        self._lock = threading.Lock()

    def log_degree_sum(self, k: int) -> float:
        """log D_k; -inf where D_k is below the normal float range."""
        if k >= len(self._log_d):
            with self._lock:
                while k >= len(self._log_d):
                    self._log_d.extend(self._source(len(self._log_d)))
        return self._log_d[k]

    def evaluate(self, lead: float, tr: float, trunc: SeriesTruncation | None = None) -> SeriesResult:
        """The series at ``lead`` times the base point, whose trace is ``tr``,
        under ``trunc``'s stop rule and degree cap, as :func:`pfq` there.

        Where ``trunc`` or its ``rel_tol`` is None, ``rel_tol`` is 1e-10, and
        where it or its ``max_degree`` is None, the cap is max(40, tr + 14
        sqrt(tr + 1) + 60): for 0 < a <= c every degree sum is at most
        tr^k / k!, so the scaled terms lie under the Poisson(tr) weights, and
        the cap sits more than 14 of that law's standard deviations, plus 60
        degrees, past its mean.  On fig1's grid and the far tail the stall
        rule ends every series below 70% of this cap.

        Every term is scaled by exp(-tr) and the sum scaled back, so
        ``log_value`` is finite and exact to rounding, and ``value`` is
        ``inf`` once the function itself leaves the float range.  Raises
        DomainError when a degree the stop rule needs has log D_k = -inf, or
        when every term summed underflows."""
        cap, rel_tol = with_defaults(trunc, max(_DEFAULT_MAX_DEGREE, int(tr + 14 * math.sqrt(tr + 1) + 60)),
                                     _DEFAULT_REL_TOL)
        log_lead, log_d = math.log(lead), self._log_d

        def term_of_degree(k: int) -> float:
            if k >= len(log_d):  # the store only grows: an entry once read is final
                self.log_degree_sum(k)
            term = math.exp(log_d[k] + k * log_lead - tr)
            if not term and log_d[k] == -math.inf:
                raise DomainError(f"confluent series at trace {tr:g} needs degree {k}, whose coefficient "
                                  f"underflows: the generic series is not scale-safe there")
            return term

        res = _run_series(rel_tol, term_of_degree, cap)
        if res.log_value is None:
            raise DomainError(f"every term up to degree {res.degrees_used} underflows after scaling by "
                              f"exp(-{tr:g}); max_degree is far below the trace")
        return _scaled(res, tr)


# ---------------------------------------------------------------------------
# The m = 2 source: closed-form tables of log D_k.
#
# The generic evaluator (ChatEvaluator) prices the strips of each shape in one
# broadcast and sums them, so its work per shape grows with the shape's
# strips, and it carries chat = C/k!, whose values underflow past weight ~170;
# far tails of eigenvalue distribution functions need thousands of degrees.
# For m = 2 the strip sum has a closed form.  With g = 1/alpha = beta/2,
# n = k1 - k2 and r = t2/t1 <= 1,
#
#   chat_(k1,k2)(t1, t2) = t1^k1 t2^k2 * Gamma(g) (g + n) c_n(r)
#                          / (Gamma(g + k1 + 1) k2!),
#   c_n(r) = sum_{i=0}^{n} a_{n-i} a_i r^i,   a_i = (g)_i / i!,
#
# which is the sum over the interlacing mu1 = k2 + j of the per-pair strip
# coefficients (substitute j = mu1 - k2 in their product form).  The row
# polynomials c_n come from one convolution, and the Pochhammer ratio splits
# into a row-1 factor of k1 and a row-2 factor of k2, so every table is a
# vector indexed by a part size or by n: O(1) work per partition, where the
# recurrence sums O(k) strips per partition.
#
# The tables depend on (parameters, beta, r) alone: the base point of the
# RaySeries is (1, r) and its lead t1, so each further t1 of one model costs
# one exp per degree.  log D_k is a log-sum-exp over k2 = 0..floor(k/2) of the
# three rows at (1, r), taken for a block of _M2_BLOCK degrees at once from
# strided views of the rows; blocks start at multiples of _M2_BLOCK, so
# log D_k depends on k alone, never on which points ran first.  The rows are
# regrown by doubling, the blocks appended as the stop rule reaches them.
# ---------------------------------------------------------------------------

# Degrees per block of log D_k.
_M2_BLOCK = 64


def _lgamma_at(starts, size: int) -> list[np.ndarray]:
    """log Gamma(s + i), i = 0..size, for each s of ``starts``: starts with
    the same fractional part, a whole number apart, read one
    :func:`special.lgamma_run` from the least of them."""
    classes = {}
    for s in starts:
        classes.setdefault(s % 1.0, []).append(s)
    runs = {}
    for frac, members in classes.items():
        least = min(members)
        runs[frac] = least, lgamma_run(least, size + int(max(members) - least))
    out = []
    for s in starts:
        least, run = runs[s % 1.0]
        offset = int(s - least)
        out.append(run[offset : offset + size + 1])
    return out


def _m2_log_tables(a: float, c: float, r: float, beta: int, size: int):
    """(row1, row2, rows_n) for degrees 0..size of 1F1(a; c) at t = (1, r):
    the logs of the three factors of a term of D_k, the parts of log chat and
    of the Pochhammer ratio that depend on k1 only, on k2 only, and on n = k1
    - k2 only."""
    g = beta / 2.0
    i = np.arange(size + 1, dtype=float)
    # log Gamma(start + i) of a and c on rows 1 and 2, of g and of 1
    a1, c1, a2, c2, log_gamma_g, log_fact = _lgamma_at([a, c, a - g, c - g, g, 1.0], size + 1)
    poch1 = (a1[:-1] - a1[0]) - (c1[:-1] - c1[0])
    poch2 = (a2[:-1] - a2[0]) - (c2[:-1] - c2[0])
    log_fact = log_fact[:-1]
    row1 = poch1 + log_gamma_g[0] - log_gamma_g[1:]
    if r > 0.0:
        row2 = i * math.log(r) + poch2 - log_fact
    else:  # only k2 = 0 survives
        row2 = np.full(size + 1, -math.inf)
        row2[0] = 0.0
    coef = np.exp(log_gamma_g[:-1] - log_gamma_g[0] - log_fact)
    poly = np.convolve(coef, coef * r ** i)[: size + 1]
    return row1, row2, np.log(g + i) + np.log(poly)


@lru_cache(maxsize=_RAY_CAPACITY)
def _m2_series(a: float, c: float, r: float, beta: int) -> RaySeries:
    """The RaySeries of the m = 2 positive series 1F1(a; c) at (1, r), filled
    from the m = 2 tables one block of degrees at a time."""
    rows = None

    def block(k0: int) -> list[float]:
        """log D_k for k = k0..k0 + _M2_BLOCK - 1: a (degree, k2) array of the
        rows' sums, k2 = 0..h, read through strided views.  row1 and rows_n
        carry _M2_BLOCK leading -inf, so a k2 past floor(k/2) (n < 0) adds
        -inf and contributes 0."""
        nonlocal rows
        b = _M2_BLOCK
        if rows is None or len(rows[1]) < k0 + b:
            row1, row2, rows_n = _m2_log_tables(a, c, r, beta, 2 * (k0 + b))
            pad = np.full(b, -math.inf)
            rows = np.concatenate([pad, row1]), row2, np.concatenate([pad, rows_n])
        row1, row2, rows_n = rows
        h = (k0 + b - 1) // 2
        s1, sn = b + k0 - h, b + k0 - 2 * h  # where k1 = k0 - h and n = k0 - 2h sit
        logs = np.add(sliding_window_view(row1, h + 1)[s1 : s1 + b, ::-1], row2[: h + 1])
        logs += sliding_window_view(rows_n, 2 * h + 1)[sn : sn + b, ::-2]
        top = logs.max(axis=1)
        logs -= top[:, None]
        # a term below the normal range adds nothing to a sum whose largest
        # term is 1, and exp is slowest there
        normal = logs > _LOG_FLOAT_MIN
        return (top + np.log(np.exp(logs, out=logs, where=normal).sum(axis=1, where=normal))).tolist()

    return RaySeries(block)


def _positive_shifts(params, beta: int, m: int) -> bool:
    """Whether every shifted parameter par - (i-1) beta/2, rows i <= m, is
    positive (the last row's is the smallest), so that every Pochhammer
    ratio, hence every term of a series at a nonnegative argument, is."""
    return all(par - (m - 1) * beta / 2 > 0 for par in params)


def _ray_parameters(upper, lower, beta: int, m: int, engine: str) -> tuple[float, float]:
    """(a, c) of the series (upper; lower) at m eigenvalues, refused with
    DomainError unless it is 1F1(a; c) with finite a <= c and a - (m-1)
    beta/2 > 0: the domain of both :class:`RaySeries` sources, where every
    Pochhammer ratio lies in (0, 1], as the trace budget and the exp(-trace)
    scaling of :meth:`RaySeries.evaluate` need."""
    if len(upper) != 1 or len(lower) != 1:
        raise DomainError(f"{engine} is confluent: one upper and one lower parameter")
    (a,), (c,) = upper, lower
    if not a <= c < math.inf:
        raise DomainError(f"{engine} needs finite a <= c, got a = {a}, c = {c}")
    if not _positive_shifts((a,), beta, m):
        raise DomainError(f"parameter {a} has nonpositive shift at row {m}; "
                          f"outside the positive-series domain of {engine}")
    return a, c


def pfq_positive_m2(
    upper: tuple[float, ...],
    lower: tuple[float, ...],
    t,
    algebra: DivisionAlgebra,
    trunc: SeriesTruncation | None = None,
) -> SeriesResult:
    """1F1(a; c; t) for m = 2, upper = (a,) and lower = (c,), with 0 < a <= c,
    positive shifted parameters and nonnegative eigenvalues, stable to very
    high degree.

    Costs O(1) per partition, once per (a, c, beta, t2/t1): the log
    degree sums at t = (1, t2/t1) are kept in a bounded memo of
    :class:`RaySeries` (see the comment blocks above), and each t1 is one exp
    per degree, evaluated by :meth:`RaySeries.evaluate` with lead t1 and
    trace t1 + t2, which applies ``trunc``, each field it leaves unset
    taken from the ray's defaults.  Raises DomainError outside that
    domain, before any table is built (use :func:`pfq` there instead).
    """
    a, c = _ray_parameters(upper, lower, algebra.beta, 2, "the high-degree engine")
    t1, t2 = sorted((float(t[0]), float(t[1])), reverse=True)
    if t2 < 0:
        raise DomainError("the high-degree engine requires nonnegative eigenvalues")
    if t1 == 0.0:
        return SeriesResult(1.0, 0, 0.0, True, 0.0)
    return _m2_series(a, c, t2 / t1, algebra.beta).evaluate(t1, t1 + t2, trunc)


# ---------------------------------------------------------------------------
# The Jack source, at any m.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_RAY_CAPACITY)
def _ray(spec: HypergeomSpec, direction: tuple[float, ...]) -> RaySeries:
    """The RaySeries of ``spec`` = (a; c), checked by :func:`ray_series`, on
    the ray of one unit-trace direction s (nonnegative, sorted descending):
    log D_k is the log of the ``math.fsum`` of the degree-k terms of the Jack
    recurrence on s, run once per series, and -inf below
    ``sys.float_info.min``."""
    evaluator = ChatEvaluator(direction, get_table(spec.algebra))

    def log_degree_sums(k: int) -> list[float]:
        d = math.fsum(_degree_terms(spec, evaluator.degree_values(k)))
        return [math.log(d) if d >= sys.float_info.min else -math.inf]

    return RaySeries(log_degree_sums)


def ray_series(spec: HypergeomSpec, direction) -> RaySeries:
    """The memoized :class:`RaySeries` of ``spec`` along ``direction``, from
    the Jack recurrence; its value at tau * s is ``evaluate(tau, tau, trunc)``.

    ``direction`` is scaled to unit trace and sorted here, so every call with
    the same vector (bit for bit, in any order) shares one series; pass one
    computed from the model alone, not from the point on the ray.  Raises
    DomainError unless ``spec`` is 1F1(a; c), 0 < a <= c, with positive
    shifted parameters.
    """
    _ray_parameters(spec.upper, spec.lower, spec.algebra.beta, spec.m, "the ray series")
    s = as_spectrum(direction).eigenvalues
    if len(s) != spec.m or s[-1] < 0.0 or s[0] == 0.0:
        raise DomainError(f"a ray direction needs {spec.m} nonnegative entries, "
                          f"not all zero; got {s}")
    tr = math.fsum(s)
    return _ray(spec, tuple(v / tr for v in s))


def _positive_1f1(a: float, c: float, t, direction, algebra: DivisionAlgebra,
                  trunc: SeriesTruncation | None) -> SeriesResult:
    """1F1(a; c; t), 0 < a <= c, for a spectrum t >= 0 on the ray of
    ``direction``, a vector the caller fixes from its model, not from t.

    At m = 2 this is :func:`pfq_positive_m2` on t itself, whose table is
    kept per t2/t1 of each t, so two points of one ray share it only where
    their ratios round alike; at any other m the memoized :func:`ray_series`
    of the direction at the trace of t, which every t of the ray shares and
    which raises DomainError where the series needs a degree past weight
    ~170.  Either way :meth:`RaySeries.evaluate` applies ``trunc``, each
    field it leaves unset taken from the ray's defaults.
    """
    if len(t) == 2:
        return pfq_positive_m2((a,), (c,), t, algebra, trunc)
    tr = float(np.sum(t))
    return ray_series(HypergeomSpec((a,), (c,), algebra, len(t)), direction).evaluate(tr, tr, trunc)
