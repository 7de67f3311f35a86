"""Multivariate gamma and beta functions, weighted variants, Pochhammer symbols.

All gammas are computed in log space from products of scalar log-gammas and
exponentiated at the end; ratios that appear in series coefficients should be
assembled from the ``*_ln`` variants.  Domain conditions are enforced exactly
as stated (the tight ones, shifted by the extreme parts of the weight
partition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln, gammasgn

from .core import DivisionAlgebra, DomainError, Partition


def _signed_loggamma(a: float) -> tuple[float, float]:
    if a > 0:
        return math.lgamma(a), 1.0
    if a == math.floor(a):
        raise DomainError(f"gamma pole at {a}")
    return float(gammaln(a)), float(gammasgn(a))


def mv_gamma_ln(m: int, algebra: DivisionAlgebra, a: float) -> float:
    """log of the multivariate gamma for an m-dimensional argument.

    Requires ``a > (m - 1) * beta / 2``; the two equivalent product orderings
    (ascending and descending shifts) agree bit for bit because the summands
    are identical multisets accumulated with ``math.fsum``.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    beta = algebra.beta
    bound = (m - 1) * beta / 2
    if not a > bound:
        raise DomainError(
            f"multivariate gamma requires a > (m-1)*beta/2 = {bound}, got a = {a}"
        )
    terms = [m * (m - 1) * beta / 4 * math.log(math.pi)]
    for i in range(1, m + 1):
        terms.append(_signed_loggamma(a - (i - 1) * beta / 2)[0])
    return math.fsum(terms)


def mv_gamma(m: int, algebra: DivisionAlgebra, a: float) -> float:
    """Multivariate gamma; see :func:`mv_gamma_ln` for the domain condition."""
    return math.exp(mv_gamma_ln(m, algebra, a))


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
        if not self.a > self.domain_bound:
            side = "- k_m" if self.sign > 0 else "+ k_1"
            raise DomainError(
                f"weighted gamma requires a > (m-1)*beta/2 {side} = "
                f"{self.domain_bound}, got a = {self.a}"
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
    return math.fsum(terms)


def mv_gamma_weighted(q: WeightedGammaQuery) -> float:
    """Weighted multivariate gamma.

    For ``sign=+1`` this equals ``[a]_kappa * Gamma_m[a]``; for ``sign=-1`` it
    equals ``(-1)^k Gamma_m[a] / [-a + (m-1)*beta/2 + 1]_kappa`` on the stated
    domain, both to machine precision.
    """
    return math.exp(mv_gamma_weighted_ln(q))


def mv_beta_ln(m: int, algebra: DivisionAlgebra, a: float, b: float) -> float:
    """log multivariate beta: log Gamma_m[a] + log Gamma_m[b] - log Gamma_m[a+b]."""
    bound = (m - 1) * algebra.beta / 2
    if not a > bound:
        raise DomainError(f"multivariate beta requires a > (m-1)*beta/2 = {bound}, got a = {a}")
    if not b > bound:
        raise DomainError(f"multivariate beta requires b > (m-1)*beta/2 = {bound}, got b = {b}")
    return mv_gamma_ln(m, algebra, a) + mv_gamma_ln(m, algebra, b) - mv_gamma_ln(m, algebra, a + b)


def mv_beta(m: int, algebra: DivisionAlgebra, a: float, b: float) -> float:
    """Multivariate beta function, symmetric in (a, b)."""
    return math.exp(mv_beta_ln(m, algebra, a, b))
