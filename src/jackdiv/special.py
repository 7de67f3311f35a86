"""Multivariate gamma and beta functions, weighted variants, Pochhammer symbols,
and the scalar gamma helpers the series need: runs of log-gammas at unit steps
(:func:`lgamma_run`) and the regularized lower incomplete gamma at integer
order (:func:`gamma_lower_regularized`).

All gammas are computed in log space from products of scalar log-gammas and
exponentiated at the end; ratios that appear in series coefficients should be
assembled from the ``*_ln`` variants.  Domain conditions are enforced exactly
as stated (the tight ones, shifted by the extreme parts of the weight
partition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DivisionAlgebra, DomainError, Partition


def _signed_loggamma(a: float) -> tuple[float, float]:
    """(log |Gamma(a)|, sign of Gamma(a)); off the poles Gamma(a) has the sign
    (-1)^floor(a) for a < 0.  DomainError at a pole, and where log Gamma(a)
    itself leaves the float range (from a = 2.6e305 on)."""
    if a > 0:
        try:
            return math.lgamma(a), 1.0
        except OverflowError:
            raise DomainError(f"log-gamma at a = {a!r} leaves the float range") from None
    if a == math.floor(a):
        raise DomainError(f"gamma pole at {a}")
    return math.lgamma(a), -1.0 if math.floor(a) % 2 else 1.0


# Points per run of lgamma_run from one math.lgamma anchor to the next.
_LGAMMA_STRIDE = 128


def lgamma_run(start: float, size: int) -> np.ndarray:
    """log Gamma(start + i) for i = 0..size, start > 0.

    ``math.lgamma`` at i = 0 and then at every _LGAMMA_STRIDE-th point (the
    anchors); from each anchor x on, log Gamma(x + j + 1) = log Gamma(x) +
    sum_{t<=j} log(x + t), the sums of logs accumulated from 0 and added to
    their anchor last, so each value carries about one rounding of its own
    size (6.6e-16 of max(1, |value|) at most against
    ``scipy.special.gammaln``, measured up to i = 6,000).  Entry 0 is
    ``math.lgamma(start)`` exactly.  One array is allocated, filled in place.
    """
    blocks = -(-size // _LGAMMA_STRIDE)
    run = np.empty(1 + blocks * _LGAMMA_STRIDE)
    np.add(np.arange(blocks * _LGAMMA_STRIDE, dtype=float), start, out=run[1:])
    body = run[1:].reshape(blocks, _LGAMMA_STRIDE)
    anchors = np.array([math.lgamma(v) for v in body[:, 0].tolist()])
    run[0] = math.lgamma(start)
    np.log(body, out=body)
    np.add.accumulate(body, axis=1, out=body)
    body += anchors[:, None]
    return run[: size + 1]


# A term of either incomplete gamma series below this fraction of its first
# term, 1, ends the sum: from there on the terms fall at least geometrically,
# so all that is left out is within about 2^-52 of the sum.
_GAMMA_TERM_TINY = 2.0 ** -54


def _log_poisson_mode(a: int) -> float:
    """log(a^a e^-a / a!) to about one rounding: from the exact ratio a^a / a!
    below 32, else Stirling's series -log(2 pi a)/2 - mu(a), whose first term
    left out is below 1/(1188 a^9) < 3e-17."""
    if a < 32:
        return math.log(a**a / math.factorial(a) * math.exp(-a))
    r = 1.0 / a
    r2 = r * r
    mu = r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)))
    return -0.5 * math.log(2.0 * math.pi * a) - mu


def gamma_lower_regularized(order: int, x: float) -> float:
    """P(order, x), the regularized lower incomplete gamma at a positive
    integer order, for x >= 0: the Poisson probability of at least ``order``
    events at mean x (0 at x = 0, 1 at x = inf).

    Every sum has positive terms, added from the first, 1, until a term is
    at most 2^-54 of it.  With a = order, below x = a it is x^a e^-x / a!
    times sum_k x^k a! / (a + k)!, whose terms fall by x / (a + k); from
    there on it is 1 minus the Poisson head e^-x sum_{k<a} x^k / k!, summed
    from its largest term x^(a-1) e^-x / (a-1)! down, its terms falling by
    (a - k) / x, which is below 1/2 there so nothing cancels.  The lead
    factor x^a e^-x / a! is exp(a log(x/a) - (x - a)) a^a e^-a / a! with
    log(x/a) = log1p((x - a)/a) within a factor 2 of a, where x - a is
    exact: its error is then about |x - a| roundings, as the function's own
    condition number, not a |log x| + x.
    """
    a, h = float(order), x - order
    if x < a:
        if x == 0.0:
            return 0.0
        s = term = k = 1.0
        while term > _GAMMA_TERM_TINY:
            term *= x / (a + k)
            s += term
            k += 1.0
        log_ratio = math.log1p(h / a) if x >= 0.5 * a else math.log(x / a)
        return math.exp(a * log_ratio - h + _log_poisson_mode(order)) * s
    if x == math.inf:
        return 1.0
    s = term = k = 1.0
    while term > _GAMMA_TERM_TINY and k < a:
        term *= (a - k) / x
        s += term
        k += 1.0
    z = a / x
    log_ratio = math.log1p(h / a) if x <= 2.0 * a else -math.log(z)
    return 1.0 - math.exp(a * log_ratio - h + _log_poisson_mode(order)) * z * s


def _log_gamma_sum(terms: list[float], a: float) -> float:
    """``math.fsum`` of the log-gamma terms of a multivariate gamma at ``a``;
    DomainError naming ``a`` when the sum leaves the float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise DomainError(f"log of the multivariate gamma at a = {a!r} leaves the float range") from None


def mv_gamma_ln(m: int, algebra: DivisionAlgebra, a: float) -> float:
    """log of the multivariate gamma for an m-dimensional argument.

    Requires ``(m - 1) * beta / 2 < a < inf``; the two equivalent product orderings
    (ascending and descending shifts) agree bit for bit because the summands
    are identical multisets accumulated with ``math.fsum``.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    beta = algebra.beta
    bound = (m - 1) * beta / 2
    if not bound < a < math.inf:
        raise DomainError(
            f"multivariate gamma requires a > (m-1)*beta/2 = {bound}, a finite, got a = {a}"
        )
    terms = [m * (m - 1) * beta / 4 * math.log(math.pi)]
    for i in range(1, m + 1):
        terms.append(_signed_loggamma(a - (i - 1) * beta / 2)[0])
    return _log_gamma_sum(terms, a)


def _exp_in_range(log_value: float, what: str, log_form: str) -> float:
    """exp(log_value); DomainError naming ``what`` and the log form to use
    instead when the value leaves the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"{what} leaves the float range; use {log_form} for its logarithm") from None


def mv_gamma(m: int, algebra: DivisionAlgebra, a: float) -> float:
    """Multivariate gamma; see :func:`mv_gamma_ln` for the domain condition.
    DomainError when the value leaves the float range."""
    return _exp_in_range(mv_gamma_ln(m, algebra, a), f"multivariate gamma at a = {a!r}",
                         "mv_gamma_ln or jackdiv gamma --log")


def gen_pochhammer(a: float, p: Partition, algebra: DivisionAlgebra) -> float:
    """Generalized Pochhammer symbol: prod_i (a - (i-1)*beta/2)_{k_i}.

    Defined for every real ``a``; the empty partition gives 1.  May be zero or
    negative.
    """
    beta = algebra.beta
    acc = 1.0
    for i, ki in enumerate(p.parts, start=1):
        base = a - (i - 1) * beta / 2
        for t in range(ki):
            acc *= base + t
    return acc


@dataclass(frozen=True)
class WeightedGammaQuery:
    """Arguments of a weighted multivariate gamma.

    ``sign=+1`` selects the weight-kappa variant (domain
    ``a > (m-1)*beta/2 - k_m``); ``sign=-1`` the inverse-weight variant
    (domain ``a > (m-1)*beta/2 + k_1``).
    """

    a: float
    m: int
    algebra: DivisionAlgebra
    weight: Partition
    sign: int = +1

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        if self.sign not in (+1, -1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign}")
        if self.weight.length > self.m:
            raise DomainError(
                f"weight partition has {self.weight.length} parts but m = {self.m}"
            )

    @property
    def domain_bound(self) -> float:
        c = (self.m - 1) * self.algebra.beta / 2
        if self.sign > 0:
            return c - self.weight.part(self.m)
        return c + self.weight.part(1)

    def check(self):
        if not self.domain_bound < self.a < math.inf:
            side = "- k_m" if self.sign > 0 else "+ k_1"
            raise DomainError(
                f"weighted gamma requires a > (m-1)*beta/2 {side} = "
                f"{self.domain_bound}, a finite, got a = {self.a}"
            )


def mv_gamma_weighted_ln(q: WeightedGammaQuery) -> float:
    """log of the weighted multivariate gamma, via the gamma-product form."""
    q.check()
    beta = q.algebra.beta
    terms = [q.m * (q.m - 1) * beta / 4 * math.log(math.pi)]
    for i in range(1, q.m + 1):
        ki = q.weight.part(i)
        if q.sign > 0:
            arg = q.a + ki - (i - 1) * beta / 2
        else:
            arg = q.a - ki - (q.m - i) * beta / 2
        value, sgn = _signed_loggamma(arg)
        if sgn < 0:
            raise DomainError(
                f"weighted gamma product hit a negative gamma factor at i={i} "
                f"(argument {arg}); outside the supported domain"
            )
        terms.append(value)
    return _log_gamma_sum(terms, q.a)


def mv_gamma_weighted(q: WeightedGammaQuery) -> float:
    """Weighted multivariate gamma.

    For ``sign=+1`` this equals ``[a]_kappa * Gamma_m[a]``; for ``sign=-1`` it
    equals ``(-1)^k Gamma_m[a] / [-a + (m-1)*beta/2 + 1]_kappa`` on the stated
    domain, both to machine precision.  DomainError when the value leaves the
    float range.
    """
    return _exp_in_range(mv_gamma_weighted_ln(q), f"weighted multivariate gamma at a = {q.a!r}",
                         "mv_gamma_weighted_ln or jackdiv gamma --log")


def mv_beta_ln(m: int, algebra: DivisionAlgebra, a: float, b: float) -> float:
    """log multivariate beta: log Gamma_m[a] + log Gamma_m[b] - log Gamma_m[a+b]."""
    bound = (m - 1) * algebra.beta / 2
    if not bound < a < math.inf:
        raise DomainError(f"multivariate beta requires a > (m-1)*beta/2 = {bound}, a finite, got a = {a}")
    if not bound < b < math.inf:
        raise DomainError(f"multivariate beta requires b > (m-1)*beta/2 = {bound}, b finite, got b = {b}")
    return mv_gamma_ln(m, algebra, a) + mv_gamma_ln(m, algebra, b) - mv_gamma_ln(m, algebra, a + b)


def mv_beta(m: int, algebra: DivisionAlgebra, a: float, b: float) -> float:
    """Multivariate beta function, symmetric in (a, b); DomainError when the
    value leaves the float range."""
    return _exp_in_range(mv_beta_ln(m, algebra, a, b), f"multivariate beta at a = {a!r}, b = {b!r}",
                         "mv_beta_ln")
