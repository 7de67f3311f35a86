"""Independent oracles used by the test suite.

The centerpiece solves the defining conditions of the Jack symmetric function
directly: the second-order invariant operator acts triangularly on monomial
symmetric functions (exact rational arithmetic), so the coefficient vector is
the solution of a triangular eigenproblem pinned by the value at the all-ones
point.  This never touches the production recurrence and is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import betainc, gammaln, roots_genlaguerre, roots_sh_jacobi

from jackdiv import wishart
from jackdiv.core import DivisionAlgebra, DomainError, Partition, conjugate, hook_product
from jackdiv.hypergeom import HypergeomSpec, SeriesTruncation, pfq


def dominance_leq(tau: Partition, kappa: Partition) -> bool:
    """Dominance order on partitions of equal weight.

    True iff every prefix sum of ``tau`` is <= the matching prefix sum of
    ``kappa``.  Partitions of different weight are not comparable.
    """
    if tau.weight != kappa.weight:
        raise DomainError(
            f"dominance compares partitions of equal weight, got {tau.weight} != {kappa.weight}"
        )
    run_t = run_k = 0
    for i in range(1, max(tau.length, kappa.length) + 1):
        run_t += tau.part(i)
        run_k += kappa.part(i)
        if run_t > run_k:
            return False
    return True


def brute_force_partitions(k: int, max_parts: int, max_first_part: int | None = None):
    """Generate-and-filter enumeration of partitions of k.

    Every composition of k with at most ``max_parts`` parts is one subset of
    the k - 1 cut points between k unit boxes; the non-increasing ones within
    ``max_first_part`` are the partitions.  At most 2^(k-1) candidates, so
    small k only.
    """
    if k == 0:
        return [()]
    cap = k if max_first_part is None else min(k, max_first_part)
    found = []
    for n_cuts in range(min(max_parts, k)):
        for cuts in itertools.combinations(range(1, k), n_cuts):
            ends = (0,) + cuts + (k,)
            t = tuple(ends[i + 1] - ends[i] for i in range(n_cuts + 1))
            if t[0] <= cap and all(t[i] >= t[i + 1] for i in range(n_cuts)):
                found.append(t)
    return sorted(found, key=lambda t: tuple(-v for v in t))


def distinct_permutations(parts: tuple[int, ...], m: int):
    padded = tuple(parts) + (0,) * (m - len(parts))
    return sorted(set(itertools.permutations(padded)), reverse=True)


def monomial_value(parts: tuple[int, ...], x) -> float:
    x = np.asarray(x, dtype=float)
    total = 0.0
    for delta in distinct_permutations(parts, len(x)):
        total += float(np.prod(x ** np.asarray(delta)))
    return total


def _d2_action(tau: tuple[int, ...], m: int, beta: Fraction):
    """Exact action of the invariant second-order operator on a monomial
    symmetric function, as {exponent-partition: coefficient}.

    Coefficients are accumulated per exact exponent vector; the coefficient of
    a monomial symmetric function is then the entry at its sorted
    representative (not the orbit sum).
    """
    per_vec: dict[tuple[int, ...], Fraction] = {}

    def bump(vec, coef):
        key = tuple(vec)
        per_vec[key] = per_vec.get(key, Fraction(0)) + coef

    for delta in distinct_permutations(tau, m):
        coef_a = Fraction(sum(d * (d - 1) for d in delta))
        bump(delta, coef_a)
        for i in range(m):
            for j in range(i + 1, m):
                p, q = delta[i], delta[j]
                if p == q:
                    bump(delta, beta * p)
                elif p > q:
                    # handle the swapped partner here as well, so each
                    # unordered monomial pair is visited exactly once
                    swapped = list(delta)
                    swapped[i], swapped[j] = q, p
                    bump(delta, beta * p)
                    bump(tuple(swapped), beta * p)
                    for t in range(q + 1, p):
                        mid = list(delta)
                        mid[i], mid[j] = t, p + q - t
                        bump(tuple(mid), beta * (p - q))
    out: dict[tuple[int, ...], Fraction] = {}
    for vec, coef in per_vec.items():
        rep = tuple(sorted(vec, reverse=True))
        if rep == vec:
            while rep and rep[-1] == 0:
                rep = rep[:-1]
            out[rep] = coef
    return out


def _eigenvalue(parts: tuple[int, ...], m: int, beta: Fraction) -> Fraction:
    return Fraction(sum(k * (k - 1) for k in parts)) + beta * sum(
        (m - i) * k for i, k in enumerate(parts, start=1)
    )


def _rising(x: Fraction, n: int) -> Fraction:
    acc = Fraction(1)
    for t in range(n):
        acc *= x + t
    return acc


def jack_J_coefficients(kappa: Partition, m: int, algebra: DivisionAlgebra):
    """Monomial-basis coefficients of the Jack symmetric function, exact.

    Solved from: triangularity over dominance, the eigenvalue equation of the
    invariant operator, and the closed value at the all-ones point.
    """
    if kappa.length > m:
        return {}
    k = kappa.weight
    beta = Fraction(algebra.beta)
    alpha = algebra.alpha

    taus = [
        Partition(t)
        for t in brute_force_partitions(k, m)
        if dominance_leq(Partition(t), kappa)
    ]
    # reverse-lex order refines dominance downward from kappa
    taus.sort(key=lambda p: tuple(-v for v in p.parts))
    assert taus[0].parts == kappa.parts

    action = {p.parts: _d2_action(p.parts, m, beta) for p in taus}
    eig = {p.parts: _eigenvalue(p.parts, m, beta) for p in taus}
    e_kappa = eig[kappa.parts]

    coeffs: dict[tuple[int, ...], Fraction] = {kappa.parts: Fraction(1)}
    for tau in taus[1:]:
        acc = Fraction(0)
        for sigma, nu_sigma in coeffs.items():
            b = action[sigma].get(tau.parts)
            if b:
                acc += nu_sigma * b
        gap = e_kappa - eig[tau.parts]
        assert gap != 0, "eigenvalue collision below the top partition"
        coeffs[tau.parts] = acc / gap

    # pin the scale at the all-ones point
    target = alpha**k
    for i, ki in enumerate(kappa.parts, start=1):
        target *= _rising(Fraction(m - i + 1) / alpha, ki)
    at_ones = sum(
        nu * len(distinct_permutations(tau, m)) for tau, nu in coeffs.items()
    )
    scale = target / at_ones
    return {tau: nu * scale for tau, nu in coeffs.items()}


def jack_C_oracle(kappa: Partition, x, algebra: DivisionAlgebra) -> float:
    """C-normalized Jack value through the linear-system coefficients."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    if kappa.length > m:
        return 0.0
    if kappa.weight == 0:
        return 1.0
    coeffs = jack_J_coefficients(kappa, m, algebra)
    j_val = math.fsum(float(nu) * monomial_value(tau, x) for tau, nu in coeffs.items())
    k = kappa.weight
    const = algebra.alpha**k * math.factorial(k) / hook_product(kappa, algebra).nu
    return float(const) * j_val


def schur_value(kappa: Partition, x) -> float:
    """Schur polynomial via the bialternant determinant ratio (distinct x)."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    if kappa.length > m:
        return 0.0
    lam = [kappa.part(i) for i in range(1, m + 1)]
    num = np.array([[xi ** (lam[j] + m - 1 - j) for j in range(m)] for xi in x])
    den = np.array([[xi ** (m - 1 - j) for j in range(m)] for xi in x])
    return float(np.linalg.det(num) / np.linalg.det(den))


def scalar_pfq(upper, lower, z: float, terms: int = 300, tol: float = 1e-16) -> float:
    """Classical one-variable hypergeometric series by direct summation."""
    total = 1.0
    term = 1.0
    for n in range(terms):
        factor = z / (n + 1.0)
        for a in upper:
            factor *= a + n
        for b in lower:
            factor /= b + n
        term *= factor
        total += term
        if abs(term) <= tol * max(1.0, abs(total)):
            break
    return total


def poch_ratio_by_cells(spec, kappa: tuple[int, ...]) -> float:
    """prod_i [a_i]_kappa / prod_j [b_j]_kappa of a ``hypergeom.HypergeomSpec``,
    one factor per cell of kappa, row by row, each row left to right."""
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


def strip_coefficient_fraction(kappa, mu, algebra: DivisionAlgebra) -> Fraction:
    """Strip coefficient g of kappa over mu in exact rationals, from the hook
    definition: alpha^s times the strip hooks of mu over those of kappa, where
    a cell takes its lower hook when kappa and mu have equal column length
    there and its upper hook otherwise."""
    alpha = algebra.alpha
    kc = conjugate(Partition(kappa)).parts
    mc = conjugate(Partition(mu)).parts
    mc = mc + (0,) * (len(kc) - len(mc))

    def strip_hooks(parts, counts):
        acc = Fraction(1)
        for i, row in enumerate(parts, start=1):
            for j in range(1, row + 1):
                arm, leg = row - j, counts[j - 1] - i
                acc *= leg + 1 + alpha * arm if kc[j - 1] == mc[j - 1] else leg + alpha * (arm + 1)
        return acc

    return alpha ** (sum(kappa) - sum(mu)) * strip_hooks(mu, mc) / strip_hooks(kappa, kc)


def strip_coefficients_per_cell(kappa, preds, algebra: DivisionAlgebra) -> tuple:
    """(mu, s, g) for every mu in ``preds``, in floats, one paired hook ratio
    per cell of kappa in one vectorized pass.

    g = prod_{c in mu} h~_mu(c) / h~_kappa(c) * prod_{c in kappa/mu} alpha / h~_kappa(c),
    where in a column with equal lengths in kappa and mu the hook h~ is the
    lower hook leg + 1 + alpha arm, and elsewhere the upper hook
    leg + alpha (arm + 1).  Every factor is at most one, so the product never
    overflows and loses nothing to underflow until g itself is below the
    normal range.  This is the unfactorized form of ``jack.JackTable``'s
    row-pair product: O(rows x kappa_1) work per strip.
    """
    alpha = 2.0 / algebra.beta
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


def pfq_positive_m2_per_pair(upper, lower, t, beta: int, degree: int) -> float:
    """The m = 2 positive series summed through ``degree`` by pricing every
    (kappa, mu1) strip pair of every degree in log space, then summing in
    linear space with ``math.fsum``: the unfactorized form of the sum in
    ``pfq_positive_m2``, O(k^2) work per degree."""
    alpha = 2.0 / beta
    t1, t2 = sorted((float(t[0]), float(t[1])), reverse=True)
    n = np.arange(degree + 3, dtype=float)
    logphi = n * math.log(alpha) + gammaln(1.0 / alpha + n) - gammaln(1.0 / alpha)
    logt1 = math.log(t1)
    logt2 = math.log(t2) if t2 > 0 else -math.inf

    def logpoch(par, k, row):
        base = par - (row - 1) * beta / 2
        return gammaln(base + k) - gammaln(base)

    sums = []
    for k in range(degree + 1):
        terms = []
        for k1 in range((k + 1) // 2, k + 1):
            k2 = k - k1
            coef = sum(logpoch(a, k1, 1) + logpoch(a, k2, 2) for a in upper)
            coef -= sum(logpoch(b, k1, 1) + logpoch(b, k2, 2) for b in lower)
            mu1 = np.arange(k2, k1 + 1)
            logg = (
                k2 * math.log(alpha) - gammaln(mu1 - k2 + 1.0) - gammaln(k2 + 1.0)
                - gammaln(k1 - mu1 + 1.0) + logphi[mu1 - k2] - logphi[k1 + 1]
                + logphi[k1 - k2 + 1] - logphi[k1 - k2] + logphi[k1 - mu1]
            )
            with np.errstate(invalid="ignore"):
                power2 = np.where(k - mu1 > 0, (k - mu1) * logt2, 0.0)
            terms.extend(np.exp(mu1 * logt1 + power2 + logg + coef))
        sums.append(math.fsum(terms))
    return math.fsum(sums)


def khatri_lambda_max_cdf(m: int, n: int, x: float) -> float:
    """P(lambda_max <= x) of the complex (beta = 2) Wishart with identity
    scale, m x m and n >= m degrees of freedom, by Khatri's determinant

        det[gamma(n - m + i + j - 1, x)]_{i,j=1..m} / prod_{k=1..m} Gamma(n-k+1) Gamma(m-k+1),

    gamma being the lower incomplete gamma function, in mpmath at 30 digits.
    The eigenvalue density it integrates is proportional to
    prod lambda_i^(n-m) e^(-lambda_i) times the squared Vandermonde, the
    beta = 2 law of this library (real components of variance 1/beta).
    """
    with mpmath.workdps(30):
        mat = mpmath.matrix([[mpmath.gammainc(n - m + i + j - 1, 0, x) for j in range(1, m + 1)]
                             for i in range(1, m + 1)])
        norm = mpmath.fprod(mpmath.gamma(n - k + 1) * mpmath.gamma(m - k + 1)
                            for k in range(1, m + 1))
        return float(mpmath.det(mat) / norm)


def khatri_lambda_min_cdf(m: int, n: int, y: float) -> float:
    """P(lambda_min <= y) of the beta = 2, identity-scale Wishart of
    :func:`khatri_lambda_max_cdf`, by Khatri's determinant

        1 - det[Gamma(n - m + i + j - 1, y)]_{i,j=1..m} / prod_{k=1..m} Gamma(n-k+1) Gamma(m-k+1),

    Gamma(a, y) being the upper incomplete gamma function.  The difference
    loses about m (n - m + 1) log10(1/y) digits near y = 0, so the
    determinant is taken at 40 digits more than that.
    """
    lost = max(0, math.ceil(m * (n - m + 1) * math.log10(1.0 / y)))
    with mpmath.workdps(40 + lost):
        mat = mpmath.matrix([[mpmath.gammainc(n - m + i + j - 1, y) for j in range(1, m + 1)]
                             for i in range(1, m + 1)])
        norm = mpmath.fprod(mpmath.gamma(n - k + 1) * mpmath.gamma(m - k + 1)
                            for k in range(1, m + 1))
        return float(1 - mpmath.det(mat) / norm)


def m2_chat(k1: int, k2: int, t1, t2, beta: int):
    """chat_(k1, k2)(t1, t2), t1 >= t2 > 0, in mpmath from the m = 2 closed form
    of the Jack sum (no recurrence): with g = beta/2, n = k1 - k2 and
    a_i = (g)_i / i!,

        t1^k1 t2^k2 Gamma(g) (g + n) sum_{i=0}^{n} a_{n-i} a_i (t2/t1)^i / (Gamma(g + k1 + 1) k2!).
    """
    g = mpmath.mpf(beta) / 2
    n = k1 - k2
    c = _m2_row_poly(n, t2 / t1, beta, mpmath.mp.prec)
    return (t1 ** k1 * t2 ** k2 * mpmath.gamma(g) * (g + n) * c
            / (mpmath.gamma(g + k1 + 1) * mpmath.factorial(k2)))


@functools.lru_cache(maxsize=None)
def _m2_row_poly(n: int, r, beta: int, prec: int):
    """c_n(r) of :func:`m2_chat` at ``prec`` bits, kept so that a sum over
    many partitions of one (r, beta) pays O(n) once per n."""
    with mpmath.workprec(prec):
        a = _m2_row_coefficients(n, beta, prec)
        return mpmath.fsum(a[n - i] * a[i] * r ** i for i in range(n + 1))


@functools.lru_cache(maxsize=None)
def _m2_row_coefficients(n: int, beta: int, prec: int):
    """a_i = (g)_i / i!, i = 0..n, of :func:`m2_chat` at ``prec`` bits, kept
    so that the rows of many r share them."""
    with mpmath.workprec(prec):
        g = mpmath.mpf(beta) / 2
        return [mpmath.rf(g, i) / mpmath.factorial(i) for i in range(n + 1)]


def m2_confluent(a: float, c: float, t, beta: int) -> float:
    """1F1(a; c; t) at m = 2, t1 >= t2 > 0, as an mpmath sum at 40 digits of
    [a]_kappa / [c]_kappa chat_kappa(t) over kappa = (k1, k2), with chat from
    :func:`m2_chat` and [a]_kappa = (a)_k1 (a - beta/2)_k2: no term is shared
    with the library's series.  Degrees are added until one past the trace
    adds less than 1e-30 of the sum (past the trace the degree sums fall off
    faster than geometrically)."""
    with mpmath.workdps(40):
        g = mpmath.mpf(beta) / 2
        t1, t2 = sorted((mpmath.mpf(v) for v in t), reverse=True)
        a, c = mpmath.mpf(a), mpmath.mpf(c)
        # ratios[i][k] = (a - i g)_k / (c - i g)_k, the factor of row i + 1 at part k
        ratios = [[mpmath.mpf(1)], [mpmath.mpf(1)]]
        total, k = mpmath.mpf(0), 0
        while True:
            for ratio, shift in zip(ratios, (0, g)):
                j = len(ratio) - 1
                ratio.append(ratio[-1] * (a - shift + j) / (c - shift + j))
            dsum = mpmath.fsum(ratios[0][k - k2] * ratios[1][k2] * m2_chat(k - k2, k2, t1, t2, beta)
                               for k2 in range(k // 2 + 1))
            total += dsum
            if k > t1 + t2 and dsum < 1e-30 * total:
                return float(total)
            k += 1


@functools.lru_cache(maxsize=None)
def _m2_lambda_min_coefficients(n: int, sigma_eigs: tuple[float, ...], beta: int):
    """(r, tr v, E) for :func:`m2_lambda_min_cdf`: E[k - r - 1] is the sum of
    chat_kappa(v) over |kappa| = k with kappa_1 > r, k = r+1..2r, at 40 digits."""
    r = round((n - 1) * beta / 2 - 1)
    with mpmath.workdps(40):
        t1, t2 = sorted((mpmath.mpf(beta) / 2 / mpmath.mpf(s) for s in sigma_eigs), reverse=True)
        coefs = [mpmath.fsum(m2_chat(k1, k - k1, t1, t2, beta) for k1 in range(r + 1, k + 1))
                 for k in range(r + 1, 2 * r + 1)]
        return r, t1 + t2, coefs


def m2_lambda_min_cdf(n: int, sigma_eigs, beta: int, y: float) -> float:
    """P(lambda_min < y) at m = 2 in mpmath at 40 digits, as the positive sum

        e^{-tau} sum_{k=r+1}^{2r} y^k sum_{kappa_1 > r, |kappa| = k} chat_kappa(v) + P(2r + 1, tau)

    over v = (beta/2) Sigma^{-1}, tau = y tr v, r = (n - 1) beta/2 - 1, with
    chat from :func:`m2_chat` and P mpmath's regularized lower incomplete
    gamma: no term is shared with the library's recurrence.
    """
    r, trace, coefs = _m2_lambda_min_coefficients(n, tuple(float(s) for s in sigma_eigs), beta)
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        tau = y * trace
        terms = mpmath.fsum(e * y ** k for k, e in enumerate(coefs, r + 1))
        return float(mpmath.exp(-tau) * terms + mpmath.gammainc(2 * r + 1, 0, tau, regularized=True))


def _m2_cone_weight(n: float, sigma_eigs, beta: int, sphere: float | None):
    """(weight(q, p), b, g) of the cone oracles: with a = beta n/2, b = a -
    beta/2, g = beta/2 (or ``sphere``), A = b + g and r_i = beta / (2 sigma_i),
    the normalized weight (r1 r2)^A / Gamma(A)^2 (pq)^(A-1) e^(-r1 p - r2 q)
    that the s integral, a regularized incomplete beta in (g, b), multiplies."""
    a = beta * n / 2
    g = beta / 2 if sphere is None else sphere
    b = a - beta / 2
    big_a = b + g
    r1, r2 = (beta / (2 * s) for s in sigma_eigs)
    log_norm = big_a * math.log(r1 * r2) - 2 * math.lgamma(big_a)

    def weight(q, p):
        return math.exp((big_a - 1) * math.log(p * q) - r1 * p - r2 * q + log_norm)

    return weight, b, g


def m2_lambda_max_cdf_cone(n: float, sigma_eigs, beta: int, x: float, sphere: float | None = None) -> float:
    """P(lambda_max < x) of the beta-scaled 2 x 2 Wishart law of
    :func:`m2_eigen_density`, integrated over the cone's own coordinates
    (Faraut & Koranyi, *Analysis on Symmetric Cones*, 1994): S = [[p, w],
    [w*, q]] with w in R^beta, whose Lebesgue measure is dp dq pi^(beta/2) /
    Gamma(beta/2) s^(g - 1) ds, s = |w|^2 and g = beta/2, and det S = pq - s.

    The event is p, q < x and s < (x - p)(x - q), beside s < pq.  With s =
    pq t the s integral is B(g, a - beta/2) (pq)^(A - 1) I_u(g, a - beta/2),
    so, with a = beta n/2, r_i = beta / (2 sigma_i) and A = a - beta/2 + g,

        (r1 r2)^A / Gamma(A)^2 int int_{0<p,q<x} (pq)^(A-1) e^(-r1 p - r2 q) I_u(g, a - beta/2) dp dq,

    u = min(1, (x - p)(x - q) / (pq)); I_u is 1 below the line p + q = x, so
    the square is two ``dblquad`` regions split on that line.  ``sphere``
    replaces g, the sphere exponent, with the law normalized again: a wrong
    measure, for a control.  No library code is used."""
    weight, b, g = _m2_cone_weight(n, sigma_eigs, beta, sphere)

    def cut(q, p):
        return weight(q, p) * betainc(g, b, (x - p) * (x - q) / (p * q))

    below, _ = integrate.dblquad(weight, 0, x, 0, lambda p: x - p, epsabs=0, epsrel=1e-13)
    above, _ = integrate.dblquad(cut, 0, x, lambda p: x - p, x, epsabs=0, epsrel=1e-13)
    return below + above


def m2_lambda_min_cdf_cone(n: float, sigma_eigs, beta: int, y: float, sphere: float | None = None,
                           survival: bool = False) -> float:
    """P(lambda_min < y) of the law of :func:`m2_lambda_max_cdf_cone`, in the
    same coordinates, or P(lambda_min > y) with ``survival``.  lambda_min > y
    is p, q > y and s < (p - y)(q - y), so with U = (p - y)(q - y) / (pq) the
    survival is the weight over p, q > y times I_U(g, a - beta/2), and the CDF
    the weight over p < y, over p >= y > q, and over p, q > y times
    I_{1-U}(a - beta/2, g), each region its own ``dblquad``: neither value is
    1 minus the other, so a small one keeps its digits.  1 - U = y (p + q - y)
    / (pq) is formed without cancellation.  ``sphere`` as there.  No library
    code is used."""
    weight, b, g = _m2_cone_weight(n, sigma_eigs, beta, sphere)
    if survival:
        def tail(q, p):
            return weight(q, p) * betainc(g, b, (p - y) * (q - y) / (p * q))

        return integrate.dblquad(tail, y, math.inf, y, math.inf, epsabs=0, epsrel=1e-13)[0]

    def cut(q, p):
        return weight(q, p) * betainc(b, g, y * (p + q - y) / (p * q))

    low_p, _ = integrate.dblquad(weight, 0, y, 0, math.inf, epsabs=0, epsrel=1e-13)
    low_q, _ = integrate.dblquad(weight, y, math.inf, 0, y, epsabs=0, epsrel=1e-13)
    both, _ = integrate.dblquad(cut, y, math.inf, y, math.inf, epsabs=0, epsrel=1e-13)
    return low_p + low_q + both


def _m2_cone_rule(a: float, degree: int, r, z, beta: int, sphere: float | None, integrand):
    """The cone integral of etr(-XZ) |X|^(a - beta/2 - 1) f(XR) over 2 x 2 X > 0,
    R = diag(r) and Z = diag(z), for f a polynomial of degree ``degree`` in the
    entries of XR given as ``integrand(t1, t2)`` of its eigenvalues, in the
    coordinates of :func:`m2_lambda_max_cdf_cone`.  With s = pq u and g =
    beta/2 the integrand is

        pi^g / Gamma(g) (pq)^(a-1) e^(-z1 p - z2 q) u^(g-1) (1 - u)^(a - g - 1) f(XR)

    and f(XR) is a polynomial of degree ``degree`` in p, q and u (XR has trace
    r1 p + r2 q and determinant r1 r2 pq (1 - u)), so a tensor rule of degree
    + 4 nodes in each, generalized Gauss-Laguerre in p and q and Gauss-Jacobi
    in u, is exact.  ``sphere`` replaces g in the measure s^(g-1) ds, and so
    in the powers of pq and u, the constant kept: a wrong measure, for a
    control.  Needs a > beta/2.  Returns an mpmath number."""
    g = beta / 2
    sg = g if sphere is None else sphere
    big_a = a - g + sg  # the power of pq is big_a - 1
    nodes = degree + 4
    t, wt = roots_genlaguerre(nodes, big_a - 1)
    u, wu = roots_sh_jacobi(nodes, a - g - 1 + sg, sg)
    total = []
    for p, wp in zip(t / z[0], wt):
        for q, wq in zip(t / z[1], wt):
            for uu, wuu in zip(u, wu):
                trace, det = r[0] * p + r[1] * q, r[0] * r[1] * p * q * (1 - uu)
                lead = (trace + math.sqrt(max(trace * trace - 4 * det, 0.0))) / 2
                total.append(wp * wq * wuu * integrand(lead, det / lead))
    return math.pi ** g / math.gamma(g) * (z[0] * z[1]) ** -big_a * mpmath.fsum(total)


def m2_laplace_jack_cone(a: float, kappa: tuple[int, int], r, z, beta: int, sphere: float | None = None) -> float:
    """The cone integral of etr(-XZ) |X|^(a - beta/2 - 1) C_kappa(XR) by the
    exact rule of :func:`_m2_cone_rule`, with C_kappa = k! chat_kappa from
    :func:`m2_chat` on the eigenvalues of XR, k = |kappa|.  ``sphere`` as
    there.  No library code is used."""
    k = sum(kappa)
    return float(_m2_cone_rule(a, k, r, z, beta, sphere,
                               lambda t1, t2: math.factorial(k) * m2_chat(*kappa, t1, t2, beta)))


def m2_laplace_pfq_cone(a: float, upper, lower, degree: int, r, z, beta: int,
                        sphere: float | None = None) -> float:
    """The cone integral of etr(-XZ) |X|^(a - beta/2 - 1) times the series
    pFq(upper; lower; XR) truncated at total degree ``degree``, by the exact
    rule of :func:`_m2_cone_rule`: the integrand is the polynomial

        sum_{|kappa| <= degree} prod_i [upper_i]_kappa / prod_j [lower_j]_kappa chat_kappa(XR)

    over kappa = (k1, k2), with chat from :func:`m2_chat` and [c]_kappa = (c)_k1
    (c - beta/2)_k2 from mpmath's rising factorial.  ``sphere`` as there.  No
    library code is used."""
    g = mpmath.mpf(beta) / 2
    kappas = [(k - k2, k2) for k in range(degree + 1) for k2 in range(k // 2 + 1)]

    def poch(c, kappa):
        return mpmath.rf(c, kappa[0]) * mpmath.rf(c - g, kappa[1])

    coefs = [mpmath.fprod(poch(c, kap) for c in upper) / mpmath.fprod(poch(c, kap) for c in lower)
             for kap in kappas]
    return float(_m2_cone_rule(a, degree, r, z, beta, sphere, lambda t1, t2: mpmath.fsum(
        coef * m2_chat(*kap, t1, t2, beta) for coef, kap in zip(coefs, kappas))))


def hciz_0f0(x, y):
    """0F0(X, Y) at beta = 2 by the Harish-Chandra-Itzykson-Zuber determinant

        prod_{j<m} j! det[e^{x_i y_j}] / (Delta(x) Delta(y)),

    Delta(x) = prod_{i<j} (x_i - x_j), as an mpmath number at 40 digits; the
    entries of x, and those of y, must be distinct."""
    m = len(x)
    with mpmath.workdps(40):
        x, y = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in y]
        det = mpmath.det(mpmath.matrix([[mpmath.exp(xi * yj) for yj in y] for xi in x]))
        vand = mpmath.fprod(v[i] - v[j] for v in (x, y) for i in range(m) for j in range(i + 1, m))
        return +(mpmath.fprod(mpmath.factorial(j) for j in range(1, m)) * det / vand)


def m2_0f0(x, y, beta: int):
    """0F0(X, Y) at m = 2 and any beta in closed form, as an mpmath number at
    40 digits:

        e^{tr X tr Y / 2} 0F1(; (beta + 1)/2; z^2/4),  z = (x1 - x2)(y1 - y2)/2,

    the Haar average of e^{z c} over the cosine c of twice the angle between
    the two eigenbases, whose density is proportional to (1 - c^2)^((beta - 1)/2)."""
    with mpmath.workdps(40):
        (x1, x2), (y1, y2) = ([mpmath.mpf(v) for v in p] for p in (x, y))
        z = (x1 - x2) * (y1 - y2) / 2
        return +(mpmath.exp((x1 + x2) * (y1 + y2) / 2)
                 * mpmath.hyp0f1(mpmath.mpf(beta + 1) / 2, z * z / 4))


def complex_wishart_eigen_density(n: int, sigma_eigs, lam) -> float:
    """Joint density of the ordered eigenvalues of a complex (beta = 2)
    Wishart matrix with density proportional to etr(-Sigma^{-1} S), by James
    (1964):

        pi^{m(m-1)} det(Sigma)^{-n} / (G_m(m) G_m(n))
        * prod lam_i^{n-m} prod_{i<j} (lam_i - lam_j)^2 0F0(-Sigma^{-1}, Lambda),

    G_m(a) = pi^{m(m-1)/2} prod_{i<m} Gamma(a - i), in mpmath at 40 digits,
    with the coupling from :func:`hciz_0f0`: no code shared with the
    library's series."""
    m = len(lam)
    with mpmath.workdps(40):
        sig, lm = [mpmath.mpf(v) for v in sigma_eigs], [mpmath.mpf(v) for v in lam]

        def gamma_m(a):
            return mpmath.pi ** (m * (m - 1) / mpmath.mpf(2)) * mpmath.fprod(
                mpmath.gamma(a - i) for i in range(m))

        const = mpmath.pi ** (m * (m - 1)) / (gamma_m(m) * gamma_m(n) * mpmath.fprod(sig) ** n)
        shape = mpmath.fprod(v ** (n - m) for v in lm)
        vand = mpmath.fprod((lm[i] - lm[j]) ** 2 for i in range(m) for j in range(i + 1, m))
        return float(const * shape * vand * hciz_0f0([-1 / v for v in sig], lm))


def m2_eigen_density(n: float, sigma_eigs, lam, beta: int) -> float:
    """Joint density of the ordered eigenvalues l1 > l2 of the beta-scaled
    2 x 2 Wishart law, density proportional to etr(-(beta/2) Sigma^{-1} S)
    |S|^(beta n/2 - beta/2 - 1), in mpmath at 40 digits:

        K (l1 l2)^(beta (n-1)/2 - 1) (l1 - l2)^beta 0F0(-(beta/2) Sigma^{-1}, Lambda),
        K = V (beta/2)^(beta n) / (Gamma_2(beta n/2) (s1 s2)^(beta n/2)),

    with the coupling from :func:`m2_0f0`.  Gamma_2(a) = pi^(beta/2)
    Gamma(a) Gamma(a - beta/2) is the cone's gamma integral in the
    coordinates of :func:`m2_lambda_max_cdf_cone`, and V = 2^(1-beta)
    pi^((beta+1)/2) / Gamma((beta+1)/2) the volume factor of the spectral
    decomposition of the rank-2 spin factor (Faraut & Koranyi, *Analysis on
    Symmetric Cones*, 1994).  There S = (l1 + l2)/2 + (l1 - l2)/2 u, with u
    on the unit sphere of R^(beta+1) ((p - q)/2 and w its coordinates), so
    dp dq dw = (l1 - l2)^beta / 2^beta dl1 dl2 du and V is the sphere's area
    2 pi^((beta+1)/2) / Gamma((beta+1)/2) over 2^beta.  V is pi, pi, pi^2/6
    and pi^4/840 at beta = 1, 2, 4 and 8; at beta = 1 and 2, K is the
    constant of the real (Muirhead 1982, Thm 3.2.18) and complex (James
    1964) laws."""
    with mpmath.workdps(40):
        b, n = mpmath.mpf(beta), mpmath.mpf(n)
        (s1, s2), (l1, l2) = ([mpmath.mpf(v) for v in p] for p in (sigma_eigs, lam))
        volume = 2 ** (1 - b) * mpmath.pi ** ((b + 1) / 2) / mpmath.gamma((b + 1) / 2)
        gamma2 = mpmath.pi ** (b / 2) * mpmath.gamma(b * n / 2) * mpmath.gamma(b * (n - 1) / 2)
        k = volume * (b / 2) ** (b * n) / (gamma2 * (s1 * s2) ** (b * n / 2))
        coupling = m2_0f0((-b / (2 * s1), -b / (2 * s2)), (l1, l2), beta)
        return float(k * (l1 * l2) ** (b * (n - 1) / 2 - 1) * (l1 - l2) ** b * coupling)


def lambda_max_cdf_alternating(model, x: float) -> float:
    """P(lambda_max < x) by the raw alternating form prefactor * 1F1(beta n/2;
    q; -(beta/2) t), t = x / sigma, summed by ``pfq`` to degree 100 at most:
    the Kummer partner of the library's positive series, usable only while
    the alternating series still converges.  The prefactor and q are the
    library's ``wishart._cdf_prefactor``."""
    t = x / np.asarray(model.sigma_eigs)
    _, q, log_pref = wishart._cdf_prefactor(model, t)
    beta = model.beta
    res = pfq(HypergeomSpec((beta * model.n / 2,), (q,), model.algebra, model.m),
              -(beta / 2.0) * t, SeriesTruncation(max_degree=100, rel_tol=1e-12))
    assert res.converged, f"alternating series not converged at degree {res.degrees_used}"
    return math.exp(log_pref) * res.value


def laplace_beltrami_fd(fun, x, beta: float, h: float = 1e-4) -> float:
    """Central finite differences of the invariant second-order operator."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    total = 0.0
    f0 = fun(x)
    for i in range(m):
        step = h * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += step
        xm = x.copy(); xm[i] -= step
        fp, fm = fun(xp), fun(xm)
        total += x[i] ** 2 * (fp - 2.0 * f0 + fm) / step**2
        deriv = (fp - fm) / (2.0 * step)
        for j in range(m):
            if j != i:
                total += beta * x[i] ** 2 / (x[i] - x[j]) * deriv
    return total


def gaussian_wishart_eigs(m: int, n: int, sigma_eigs, beta: int, rng: np.random.Generator,
                          count: int) -> np.ndarray:
    """Eigenvalues, descending, of ``count`` beta-scaled Wishart draws built
    from the definition: S = G* G for an n x m Gaussian G whose real
    components have variance 1/beta, with column j scaled by sigma_j^(1/2).

    At beta = 4, G is carried by its complex 2x2-block embedding, whose
    spectrum repeats each eigenvalue of S.
    """
    comps = rng.standard_normal((beta, count, n, m)) * np.sqrt(np.asarray(sigma_eigs) / beta)
    if beta == 1:
        g = comps[0]
    elif beta == 2:
        g = comps[0] + 1j * comps[1]
    else:
        z1, z2 = comps[0] + 1j * comps[1], comps[2] + 1j * comps[3]
        g = np.block([[z1, z2], [-z2.conj(), z1.conj()]])
    eigs = np.linalg.eigvalsh(np.swapaxes(g.conj(), -1, -2) @ g)[:, ::-1]
    return eigs[:, ::2] if beta == 4 else eigs


def radial_kernel(f_id: str, beta: float, a: float, m: int, eta: float, j_power: int):
    """The scalar kernel f of ``verify_radial_kernel``, as a callable."""
    if f_id == "exp":
        return lambda y: np.exp(-y)
    if f_id == "exp_power":
        return lambda y: np.exp(-y) * y**j_power
    if f_id == "pareto":
        expo = beta * (a * m + eta)
        return lambda y: (1.0 + 2.0 * y / eta) ** (-expo)
    raise ValueError(f"unknown kernel {f_id!r}")


def scalar_moment(f, power: float) -> float:
    """The integral of f(z) z^(power-1) over (0, inf) by adaptive quadrature,
    with its error estimate checked."""
    val, err = integrate.quad(
        lambda z: f(z) * z ** (power - 1.0), 0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400
    )
    if not math.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
        raise ValueError(f"kernel moment quadrature failed: value {val}, error {err}")
    return val
