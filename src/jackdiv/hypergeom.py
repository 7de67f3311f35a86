"""Truncated hypergeometric series of one and two matrix arguments.

The series are sums over partitions, degree by degree, of generalized
Pochhammer ratios times Jack polynomials of the eigenvalue argument(s).
Truncation policy: stop once ``stall_window`` consecutive degree sums are each
below ``rel_tol`` times the accumulated value; non-convergence within
``max_degree`` is reported, never silently ignored.

:func:`_series` is the one driver of :func:`pfq`, :func:`pfq_two` and
:func:`pfq_batch`, and :func:`_degree_terms` the one term formula.  For one
spectrum, each degree's terms are ``math.fsum``-ed for :func:`_run_series`,
the adaptive degree loop that holds the stop rule (and also serves
:func:`pfq_positive_m2`); it reads a plain float running total and returns
``math.fsum`` of the degree sums.  A batch of spectra adds them as arrays,
which ``fsum`` cannot, in :func:`_run_batch`, under the same stop rule.
``pfq(..., max_first_part=r)`` is the first-part-restricted exact sum.
:func:`pfq_positive_m2` is the m = 2 engine for far tails: O(1) work per
partition, every term scaled by exp(-trace) so that nothing overflows.

Matrix arguments are accepted only as eigenvalue vectors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import DivisionAlgebra, DomainError
from .jack import ChatEvaluator, as_spectrum, get_table, log_chat_identity


@dataclass(frozen=True)
class SeriesTruncation:
    """Total-degree cutoff and early-stop policy for the partition series."""

    max_degree: int = 40
    rel_tol: float = 1e-10
    stall_window: int = 3

    def __post_init__(self):
        if self.max_degree < 0:
            raise DomainError(f"max_degree must be >= 0, got {self.max_degree}")
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.stall_window < 1:
            raise DomainError(f"stall_window must be >= 1, got {self.stall_window}")


DEFAULT_TRUNCATION = SeriesTruncation()


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


def _poch_ratio(spec: HypergeomSpec, kappa: tuple[int, ...]) -> float:
    """prod_i [a_i]_kappa / prod_j [b_j]_kappa with factor-level pairing."""
    beta = spec.algebra.beta
    acc = 1.0
    for i, ki in enumerate(kappa, start=1):
        shift = (i - 1) * beta / 2
        for t in range(ki):
            num = 1.0
            for a in spec.upper:
                num *= a - shift + t
            den = 1.0
            for b in spec.lower:
                den *= b - shift + t
            acc *= num / den
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


def _run_series(trunc, term_of_degree, hard_cap, exact_finite=False):
    """Shared degree loop: term_of_degree(k) -> float sum of that degree.

    The stop rule reads a plain float running total; the returned total is
    ``math.fsum`` of the degree sums.  When ``exact_finite`` the series is a
    finite sum by construction and every degree up to ``hard_cap`` is summed.
    """
    sums = []
    running = 0.0
    converged = exact_finite
    for k in range(hard_cap + 1):
        dsum = term_of_degree(k)
        sums.append(dsum)
        running += dsum
        if not exact_finite and k + 1 > trunc.stall_window and running != 0.0:
            if all(abs(s) <= trunc.rel_tol * abs(running) for s in sums[-trunc.stall_window:]):
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
    for kap, v in xvals.items():
        coef = _poch_ratio(spec, kap)
        if yvals is not None:
            ci = math.exp(log_chat_identity(kap, spec.m, spec.algebra)) if kap else 1.0
            coef *= yvals[kap] / ci
        yield coef * v


def _run_batch(trunc, terms_of_degree, hard_cap, exact_finite, rows):
    """The stop rule of :func:`_run_series` on a batch of ``rows`` series:
    terms_of_degree(k) yields arrays, and the loop stops once every row meets
    the rule.  Degree sums are added as arrays, which ``math.fsum`` cannot."""
    total = np.zeros(rows)
    recent = []
    converged = exact_finite
    for k in range(hard_cap + 1):
        dsum = sum(terms_of_degree(k), np.zeros(rows))
        total += dsum
        recent = (recent + [dsum])[-trunc.stall_window:]
        if not exact_finite and k + 1 > trunc.stall_window:
            small = np.abs(recent) <= trunc.rel_tol * np.abs(total)
            if np.all(small.all(axis=0) & (total != 0.0)):
                converged = True
                break
    ratios = np.abs(dsum) / np.where(total != 0.0, np.abs(total), 1.0)
    return SeriesResult(total, k, float(ratios.max(initial=0.0)), converged)


def _series(spec, x_eigs, y_eigs, norm, trunc, max_first_part) -> SeriesResult:
    """Sum of :func:`_degree_terms` degree by degree, with the convergence
    domain and the first-part restriction shared by :func:`pfq`,
    :func:`pfq_two` and :func:`pfq_batch`; ``norm`` is the spectral radius the
    domain is judged on.  ``x_eigs`` is one spectrum, whose degree sums are
    ``math.fsum``-ed for :func:`_run_series`, or a (batch, m) array, whose
    value is an array with one entry per row (:func:`_run_batch`)."""
    trunc = trunc or DEFAULT_TRUNCATION
    terminating = _termination_bound(spec)
    _convergence_check(spec, norm, terminating)
    r_cap = max_first_part
    if terminating is not None:
        r_cap = terminating if r_cap is None else min(r_cap, terminating)
    exact_finite = r_cap is not None
    hard_cap = spec.m * r_cap if exact_finite else trunc.max_degree

    table = get_table(spec.algebra)
    within = None if r_cap is None else (r_cap,) * spec.m
    dpx = ChatEvaluator(x_eigs, table, within)
    dpy = None if y_eigs is None else ChatEvaluator(y_eigs, table, within)

    def terms_of_degree(k: int):
        yvals = None if dpy is None else dpy.degree_values(k)
        return _degree_terms(spec, dpx.degree_values(k), yvals)

    if np.ndim(x_eigs) == 2:
        return _run_batch(trunc, terms_of_degree, hard_cap, exact_finite, len(x_eigs))
    return _run_series(trunc, lambda k: math.fsum(terms_of_degree(k)), hard_cap, exact_finite)


def pfq(
    spec: HypergeomSpec,
    x,
    trunc: SeriesTruncation | None = None,
    max_first_part: int | None = None,
) -> SeriesResult:
    """Hypergeometric function of one matrix argument, as a truncated series.

    ``x`` is the eigenvalue vector of the argument.  Convergence domains are
    enforced up front: for p = q+1 the spectral radius must be below 1, and
    for p > q+1 the series must terminate.  ``max_first_part`` restricts the
    partitions to first part <= r, which makes the sum exact and finite
    (degree at most m * r), so the result is always reported converged.
    """
    if max_first_part is not None and max_first_part < 0:
        raise DomainError(f"max_first_part must be >= 0, got {max_first_part}")
    sx = as_spectrum(x)
    if sx.m != spec.m:
        raise DomainError(f"argument has {sx.m} eigenvalues but spec.m = {spec.m}")
    return _series(spec, sx.eigenvalues, None, sx.max_abs, trunc, max_first_part)


def pfq_two(
    spec: HypergeomSpec,
    x,
    y,
    trunc: SeriesTruncation | None = None,
) -> SeriesResult:
    """Hypergeometric function of two matrix arguments.

    Each term carries the product of Jack values of both spectra divided by
    the value at the identity (computed by closed form, never by recurrence).
    """
    sx = as_spectrum(x)
    sy = as_spectrum(y)
    if sx.m != sy.m:
        raise DomainError(f"arguments have different sizes: {sx.m} vs {sy.m}")
    if sx.m != spec.m:
        raise DomainError(f"arguments have {sx.m} eigenvalues but spec.m = {spec.m}")
    return _series(spec, sx.eigenvalues, sy.eigenvalues, sx.max_abs * sy.max_abs, trunc, None)


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
    return _series(spec, X, y, norm, None, None)


def _scaled(res: SeriesResult, scale: float) -> SeriesResult:
    """``res`` with its value multiplied by ``scale``; truncation metadata kept."""
    value = scale * res.value
    return SeriesResult(value, res.degrees_used, res.last_term_ratio, res.converged,
                        math.log(value) if value > 0 else None)


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
    return lhs, _scaled(inner, math.exp(sx.trace))


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
    pfaff = _scaled(pfq(HypergeomSpec((c - a, b), (c,), algebra, sx.m), u, trunc),
                    math.exp(-b * logdet))
    euler = _scaled(pfq(HypergeomSpec((c - a, c - b), (c,), algebra, sx.m), sx, trunc),
                    math.exp((c - a - b) * logdet))
    return direct, pfaff, euler


# ---------------------------------------------------------------------------
# High-degree positive-term engine for two eigenvalues.
#
# The generic evaluator prices strip coefficients per (partition, predecessor)
# pair, which is wasteful once thousands of degrees are needed (far tails of
# eigenvalue distribution functions).  For m = 2 the strip sum has a closed
# form.  With g = 1/alpha = beta/2, n = k1 - k2 and r = t2/t1 <= 1,
#
#   chat_(k1,k2)(t1, t2) = t1^k1 t2^k2 * Gamma(g) (g + n) c_n(r)
#                          / (Gamma(g + k1 + 1) k2!),
#   c_n(r) = sum_{i=0}^{n} a_{n-i} a_i r^i,   a_i = (g)_i / i!,
#
# which is the sum over the interlacing mu1 = k2 + j of the per-pair strip
# coefficients (substitute j = mu1 - k2 in their product form).  The row
# polynomials c_n come from one convolution, and the Pochhammer ratio splits
# into a row-1 factor of k1 and a row-2 factor of k2, so every table is a
# vector indexed by a part size or by n, built once per call and regrown by
# doubling only when a degree outruns it.  Each degree is then three slices,
# one exp and one sum over its floor(k/2) + 1 partitions: O(1) work per
# partition, where pricing every (kappa, mu1) pair costs O(k) per partition.
#
# Every term carries the factor exp(-(t1 + t2)).  For 0 < a <= c the
# Pochhammer ratio is at most 1, so the scaled terms sum to at most
# 0F0 * exp(-tr) = 1 and no degree sum overflows, however far the tail.
# ---------------------------------------------------------------------------


def _m2_log_tables(upper, lower, t1: float, t2: float, beta: int, size: int):
    """(row1, row2, rows_n) for degrees 0..size: the logs of the three factors
    of a scaled term, the parts of log chat and of the Pochhammer ratio that
    depend on k1 only (with -tr), on k2 only, and on n = k1 - k2 only."""
    g = beta / 2.0
    i = np.arange(size + 1, dtype=float)
    poch1 = np.zeros(size + 1)
    poch2 = np.zeros(size + 1)
    for par, sign in [(a, 1.0) for a in upper] + [(b, -1.0) for b in lower]:
        poch1 += sign * (gammaln(par + i) - gammaln(par))
        poch2 += sign * (gammaln(par - g + i) - gammaln(par - g))
    row1 = i * math.log(t1) - (t1 + t2) + poch1 + gammaln(g) - gammaln(g + 1.0 + i)
    if t2 > 0.0:
        row2 = i * math.log(t2) + poch2 - gammaln(1.0 + i)
    else:  # only k2 = 0 survives
        row2 = np.full(size + 1, -math.inf)
        row2[0] = 0.0
    a = np.exp(gammaln(g + i) - gammaln(g) - gammaln(1.0 + i))
    c = np.convolve(a, a * (t2 / t1) ** i)[: size + 1]
    return row1, row2, np.log(g + i) + np.log(c)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def pfq_positive_m2(
    upper: tuple[float, ...],
    lower: tuple[float, ...],
    t,
    algebra: DivisionAlgebra,
    trunc: SeriesTruncation,
) -> SeriesResult:
    """One-argument series for m = 2 with nonnegative eigenvalues and positive
    shifted parameters, stable to very high degree.

    Costs O(1) per partition (see the comment block above).  Degree sums are
    scaled by exp(-(t1 + t2)), so for 0 < a <= c they never overflow, and all
    terms are positive, so ``log_value`` is finite and exact to rounding;
    ``value`` is ``inf`` once the function itself leaves the float range.
    ``trunc`` sets the stop rule and the degree cap, applied by
    :func:`_run_series` as for every other series.  Raises when a shifted
    parameter is not positive (use :func:`pfq` there instead).
    """
    beta = algebra.beta
    t1, t2 = sorted((float(t[0]), float(t[1])), reverse=True)
    if t2 < 0:
        raise DomainError("the high-degree engine requires nonnegative eigenvalues")
    for par in tuple(upper) + tuple(lower):
        for i in (1, 2):
            if not par - (i - 1) * beta / 2 > 0:
                raise DomainError(
                    f"parameter {par} has nonpositive shift at row {i}; outside the "
                    "positive-series domain of the high-degree engine"
                )
    if t1 == 0.0:
        return SeriesResult(1.0, 0, 0.0, True, 0.0)

    tables = ()

    def term_of_degree(k: int) -> float:
        nonlocal tables
        if not tables or k >= len(tables[0]):
            tables = _m2_log_tables(upper, lower, t1, t2, beta, min(trunc.max_degree, max(64, 2 * k)))
        row1, row2, rows_n = tables
        h = k // 2  # k2 = 0..h, so k1 = k..k - h and n = k, k - 2, ...
        logs = row1[k - h : k + 1][::-1] + row2[: h + 1] + rows_n[k::-2]
        return float(np.exp(logs).sum())

    res = _run_series(trunc, term_of_degree, trunc.max_degree)
    if res.log_value is None:
        raise DomainError(
            f"every term up to degree {res.degrees_used} underflows after scaling by "
            f"exp(-{t1 + t2:g}); max_degree is far below the trace"
        )
    tr = t1 + t2
    log_value = res.log_value + tr
    if tr < _LOG_FLOAT_MAX:
        value = res.value * math.exp(tr)
    else:
        value = math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf
    return SeriesResult(value, res.degrees_used, res.last_term_ratio, res.converged, log_value)
