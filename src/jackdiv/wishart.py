"""Central Wishart sampling and eigenvalue distribution functions.

The Wishart law here is beta-scaled: S has density proportional to
etr(-(beta/2) Sigma^{-1} S) |S|^(beta n/2 - (m-1)beta/2 - 1), so the
analytic distribution functions below hold without rescaling.  Libraries
whose Gaussian entries have unit-variance real components draw beta S
instead; divide their samples by beta to compare.

Sampling draws S by the triangular (Bartlett) construction of
:class:`ConeSampler` with a0 = beta n / 2 and Z0 = (beta/2) Sigma^{-1}: a
chi diagonal and Gaussian off-diagonals, as Dumitriu and Edelman build the
beta-Laguerre ensembles.  It covers beta in {1, 2, 4}; beta = 8 is
supported on the analytic paths only.  The spectra come from that factor
through one :func:`jackdiv._mat2.factor_spectra` call per chunk, and
:mod:`jackdiv._mat2` alone chooses the path: closed forms at m = 1 and 2,
with no matrix formed and no quaternion embedding, and ``eigvalsh`` of S (at
beta = 4 of its complex embedding) at any other m.

Every series summed here has nonnegative terms.  The largest-eigenvalue and
region distribution functions are confluent series at (beta/2) t, t the
spectrum of Omega Sigma^{-1}, on :func:`hypergeom._positive_1f1` along a
direction fixed by the model: it chooses the engine (the m = 2 tables or the
Jack recurrence) and sizes the degree budget from the trace, and memoizes
the series' degree sums along the ray of t, so every x of one model shares
one table or one recurrence.  Where a Chernoff bound on the trace shows that
the value rounds to 1.0, no series runs.  The smallest-eigenvalue law adds
the exponential series past first part r and an incomplete gamma tail; the
joint density shifts its coupling 0F0 to a nonnegative argument and sizes
its own degree budget.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import PCG64, default_rng

from . import _mat2, _quat
from .core import DivisionAlgebra, DomainError, UnsupportedParameterError
from .hypergeom import HypergeomSpec, SeriesResult, SeriesTruncation, _exp_split, _positive_1f1, pfq_two
# unused here, but perfbench's tracer test reads wishart.pfq_positive_m2
from .hypergeom import pfq_positive_m2  # noqa: F401
from .jack import as_spectrum
from .special import gamma_lower_regularized, mv_gamma_ln


# Largest excess over 1 of a computed CDF that is taken as rounding and
# returned as 1.0; a larger one raises DomainError.
CDF_ROUNDING = 1e-10

# Largest number of draws a sampler makes in one batch: bounds memory, and the
# random stream is consumed in the same order whatever the total count.
_CHUNK = 20_000


class ConvergenceWarning(UserWarning):
    """A truncated series did not meet its convergence target."""


def _warn_unconverged(res: SeriesResult, what: str, stacklevel: int = 3):
    """ConvergenceWarning naming the degree when ``res`` did not converge;
    ``stacklevel`` counts from the caller, as in :func:`warnings.warn`."""
    if not res.converged:
        warnings.warn(f"{what} series not converged at degree {res.degrees_used} "
                      f"(last term ratio {res.last_term_ratio:.2e})",
                      ConvergenceWarning, stacklevel=stacklevel + 1)


# Constant of the spectral-decomposition volume element, per algebra.
_SPECTRAL_RHO = {1: 0, 2: -1, 4: -2, 8: -4}  # multiplied by m


@dataclass(frozen=True)
class WishartModel:
    """Parameters of a central Wishart distribution.

    ``sigma_eigs`` are the eigenvalues of the scale matrix (the general case
    is handled through the spectrum, since every formula below depends on the
    scale only through eigenvalues).  Requires ``n >= (m-1)*beta``.
    """

    m: int
    n: float
    sigma_eigs: tuple[float, ...]
    algebra: DivisionAlgebra

    def __post_init__(self):
        object.__setattr__(self, "sigma_eigs", tuple(float(s) for s in self.sigma_eigs))
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        if len(self.sigma_eigs) != self.m:
            raise DomainError(
                f"sigma_eigs must have length m = {self.m}, got {len(self.sigma_eigs)}"
            )
        if not all(0 < s < math.inf for s in self.sigma_eigs):
            raise DomainError("scale eigenvalues sigma_eigs must be positive and finite")
        if not math.isfinite(self.n):
            raise DomainError("degrees of freedom n must be finite")
        # Normalizability of the density: beta*n/2 must clear the gamma bound
        # (m-1)*beta/2, i.e. n > m - 1.  This is weaker than the rank bound
        # n >= (m-1)*beta, which only sampling needs to approach.
        if not self.n > self.m - 1:
            raise DomainError(
                f"degrees of freedom must satisfy n > m - 1 = {self.m - 1}, got n = {self.n}"
            )

    @property
    def beta(self) -> int:
        return self.algebra.beta


@dataclass(frozen=True)
class ConeSampler:
    """Matrix-gamma sampler on the positive-definite cone, beta in {1, 2, 4}.

    Draws X with density etr(-X Z0) |X|^(a0 - (m-1)beta/2 - 1) |Z0|^a0 /
    Gamma_m[a0] via the triangular-factor construction: X = Z0^(-1/2) T* T
    Z0^(-1/2) with chi-squared diagonal and Gaussian off-diagonal entries.
    At beta = 4, X is returned as its (2m, 2m) complex embedding.
    :meth:`bartlett` draws the factor T, and :meth:`sample` forms X from it
    with one :func:`jackdiv._mat2.factor_gram`, which alone chooses how (at
    m = 2, beta = 1, 2 from X's three entries); callers that need no X take
    the factor alone.
    """

    m: int
    algebra: DivisionAlgebra
    shape_a0: float
    scale_eigs: tuple[float, ...]

    def __post_init__(self):
        beta = self.algebra.beta
        if beta == 8:
            raise UnsupportedParameterError(
                "sampling is unavailable for beta = 8 (octonion); analytic paths only"
            )
        if not self.shape_a0 > (self.m - 1) * beta / 2:
            raise DomainError(
                f"proposal shape must exceed (m-1)*beta/2 = {(self.m - 1) * beta / 2}, "
                f"got {self.shape_a0}"
            )
        if len(self.scale_eigs) != self.m or any(z <= 0 for z in self.scale_eigs):
            raise DomainError("scale eigenvalues must be m positive reals")

    def bartlett(self, rng: np.random.Generator, count: int):
        """Triangular factors T of ``count`` draws, as (diag, off, off_j).

        ``diag`` (count, m) is the chi diagonal; ``off`` (count, m(m-1)/2) is
        the strict upper triangle in ``np.triu_indices`` order, real at beta =
        1 and complex otherwise; ``off_j`` is its j component at beta = 4 and
        None otherwise.  :meth:`sample` draws through this method, so both
        consume the random stream alike.
        """
        m, beta = self.m, self.algebra.beta
        shapes = self.shape_a0 - np.arange(m) * beta / 2.0
        diag = np.sqrt(rng.gamma(shapes, size=(count, m)))
        shape = (count, m * (m - 1) // 2)  # at m = 1 an empty draw, which takes nothing
        if beta == 4:
            off, off_j = _quat.gaussian_pair(rng, shape, math.sqrt(0.5))
            return diag, off, off_j
        off = rng.standard_normal(shape) * math.sqrt(0.5)
        if beta == 2:
            off = off + 1j * rng.standard_normal(shape) * math.sqrt(0.5)
        return diag, off, None

    def sample(self, rng: np.random.Generator, count: int):
        """Returns (X, logdet_X) with X of shape (count, m, m), or (count, 2m,
        2m) at beta = 4; logdet_X is the determinant over the algebra."""
        diag, off, off_j = self.bartlett(rng, count)
        logdet = 2.0 * np.log(diag).sum(axis=1) - math.fsum(math.log(v) for v in self.scale_eigs)
        return _mat2.factor_gram(diag, off, off_j, self.scale_eigs), logdet

    def log_norm(self) -> float:
        """log of Gamma_m[a0] |Z0|^{-a0}, the proposal's inverse density scale."""
        return mv_gamma_ln(self.m, self.algebra, self.shape_a0) - self.shape_a0 * math.fsum(
            math.log(v) for v in self.scale_eigs
        )


def _rng(seed: int) -> np.random.Generator:
    """The generator every sampler draws from: PCG64 seeded with ``seed``."""
    return default_rng(PCG64(seed))


def _sample_values(n_samples: int, draw) -> np.ndarray:
    """``draw(count)`` over consecutive chunks of at most ``_CHUNK`` samples,
    concatenated in draw order."""
    if n_samples <= 0:
        raise DomainError(f"n_samples must be positive, got {n_samples}")
    chunks = []
    done = 0
    while done < n_samples:
        count = min(_CHUNK, n_samples - done)
        chunks.append(draw(count))
        done += count
    return np.concatenate(chunks)


def sample_wishart_eigs(model: WishartModel, seed: int, count: int) -> np.ndarray:
    """Eigenvalue spectra of ``count`` Wishart draws, shape (count, m), each
    row sorted descending.  Reproducible given the seed.

    Each chunk is one :func:`jackdiv._mat2.factor_spectra` of the
    triangular factors :meth:`ConeSampler.bartlett` draws, which chooses
    between the closed forms at m = 1, 2 and ``eigvalsh`` of X at any other
    m; every path consumes the same random stream.
    """
    n = model.n
    if abs(n - round(n)) > 1e-12:
        raise DomainError(f"sampling requires integer degrees of freedom, got n = {n}")
    beta = model.beta
    sampler = ConeSampler(model.m, model.algebra, beta * round(n) / 2,
                          tuple(beta / (2 * s) for s in model.sigma_eigs))
    rng = _rng(seed)
    return _sample_values(count, lambda chunk: _mat2.factor_spectra(*sampler.bartlett(rng, chunk),
                                                                    sampler.scale_eigs))


def _cdf_prefactor(model: WishartModel, t: np.ndarray) -> tuple[float, float, float]:
    """(c1, q, log prefactor) of P(S < Omega) = prefactor * 1F1(beta n / 2; q;
    -(beta/2) t) for the spectrum t of Omega Sigma^{-1}, with c1 = q - beta n / 2."""
    m, n, beta = model.m, model.n, model.beta
    alg = model.algebra
    c1 = (m - 1) * beta / 2 + 1
    q = (n + m - 1) * beta / 2 + 1
    log_pref = (
        mv_gamma_ln(m, alg, c1)
        - mv_gamma_ln(m, alg, q)
        - (beta * m * n / 2) * math.log(2.0 / beta)
        + (beta * n / 2) * float(np.log(t).sum())
    )
    return c1, q, log_pref


# log 2^-54: a CDF within 2^-54 of 1 rounds to exactly 1.0 (ties go to even)
_LOG_ROUNDS_TO_ONE = -54.0 * math.log(2.0)


def _log_gamma_tail_bound(a: float, u: float) -> float:
    """An upper bound on log P(G >= a u) for G ~ Gamma(a): the Chernoff bound
    -a (u - 1 - log u) for u > 1, and 0 otherwise.

    The bound is taken 8 epsilons of a (|u - 1| + |u - 1 - log u|) above the
    computed exponent, more than the few roundings of ``a``, of ``u`` and of
    the exponent itself can move it, so the float returned is itself a bound.
    """
    if u == math.inf:
        return -math.inf
    if not u > 1.0:
        return 0.0
    d = u - 1.0
    excess = d - math.log1p(d)
    return -a * (excess - 8.0 * sys.float_info.epsilon * (d + excess))


def _rounds_to_one(model: WishartModel, t_min: float) -> bool:
    """True when a proven bound puts 1 - P(S < Omega) at or below 2^-54, so
    that the correctly rounded P(S < Omega) is 1.0; t_min is the smallest
    eigenvalue of Omega Sigma^{-1}.

    The bound is exp(-a (u - 1 - log u)), a = beta m n / 2 and u = beta t_min
    / (2a) > 1.  Proof:

    - S < Omega fails only if Omega^(-1/2) S Omega^(-1/2), a Wishart matrix
      of scale eigenvalues 1/t_i, has an eigenvalue >= 1, so only if its
      trace is >= 1.
    - The Laplace transform |I + (2/beta) Z Sigma|^(-beta n/2) makes the trace
      of a Wishart matrix a sum of independent Gamma(beta n/2) variables of
      scales 2 sigma_i/beta.  Here every scale is at most 2/(beta t_min), so
      the trace lies below 2/(beta t_min) times a Gamma(a) variable G, at any
      real n > m - 1.  Hence 1 - P(S < Omega) <= P(G >= a u).
    - The Chernoff bound on Gamma(a) (:func:`_log_gamma_tail_bound`) gives
      the exponential.

    Python floats only, so an evaluation the bound does not answer pays a few
    float operations for it.
    """
    a = model.beta * model.m * model.n / 2
    return _log_gamma_tail_bound(a, model.beta * t_min / (2 * a)) <= _LOG_ROUNDS_TO_ONE


def _cdf_positive_series(model: WishartModel, t, direction, trunc: SeriesTruncation | None) -> float:
    """P(S < Omega) from the spectrum t of Omega Sigma^{-1}, a sequence of
    floats on the ray of ``direction``, a vector computed from the model
    alone, so every point of one model shares one series
    (:func:`hypergeom._positive_1f1`).  With ``trunc=None`` the series stops
    at ``rel_tol`` 1e-12; a given truncation is honored as given, and the
    series sizes the degree cap wherever none is given.

    Where the Chernoff bound 1 - P(S < Omega) <= exp(-a (u - 1 - log u)), a =
    beta m n / 2, u = beta min(t) / (2a), is at most 2^-54
    (:func:`_rounds_to_one`), this returns 1.0, the correctly rounded value,
    before any prefactor or series, whatever ``trunc``.
    """
    if _rounds_to_one(model, min(t)):
        return 1.0
    t = np.asarray(t, dtype=float)
    c1, q, log_pref = _cdf_prefactor(model, t)
    arg = (model.beta / 2.0) * t
    res = _positive_1f1(c1, q, arg, direction, model.algebra, trunc or SeriesTruncation(rel_tol=1e-12))
    _warn_unconverged(res, "confluent")
    log_cdf = log_pref - float(arg.sum()) + res.log_value
    return _at_most_one(math.exp(min(log_cdf, 0.0)), log_cdf)


def _at_most_one(cdf: float, log_cdf: float) -> float:
    """``cdf``, of log ``log_cdf``, as 1.0 when it exceeds 1 by at most CDF_ROUNDING; DomainError beyond."""
    if log_cdf > math.log1p(CDF_ROUNDING):
        raise DomainError(f"distribution function evaluates to exp({log_cdf:.6g}), "
                          f"above 1 by more than the rounding allowance {CDF_ROUNDING:g}")
    return min(cdf, 1.0)


def cdf_wishart_region(model: WishartModel, omega_eigs, trunc: SeriesTruncation | None = None) -> float:
    """P(S < Omega) for Omega given by eigenvalues aligned with the scale.

    ``omega_eigs[i] / sigma_eigs[i]`` form the spectrum of Omega Sigma^{-1};
    for a non-commuting pair pass that product's spectrum directly with a
    model whose scale eigenvalues are ones.  Where 1 - P(S < Omega) <=
    exp(-a (u - 1 - log u)), a = beta m n / 2, u = beta t_min / (2a) and
    t_min the smallest omega_eigs[i] / sigma_eigs[i], is at most 2^-54, the
    value is 1.0 with no series summed (:func:`_rounds_to_one`).
    """
    omega = np.asarray(omega_eigs, dtype=float)
    if omega.shape != (model.m,):
        raise DomainError(f"omega_eigs must have length m = {model.m}")
    if not np.all((omega > 0) & (omega < math.inf)):
        raise DomainError("region boundary omega_eigs must be positive definite and finite")
    t = omega / np.asarray(model.sigma_eigs)
    return _cdf_positive_series(model, t.tolist(), t, trunc)


def cdf_lambda_max(model: WishartModel, x: float, trunc: SeriesTruncation | None = None) -> float:
    """P(largest eigenvalue < x): a decaying exponential prefactor times a
    confluent series of positive terms (the Kummer form).

    In the far upper tail, where the Chernoff bound 1 - P <= exp(-a (u - 1 -
    log u)), a = beta m n / 2 and u = beta x / (2 a sigma_max), is at most
    2^-54, the value is 1.0 with no series summed (:func:`_rounds_to_one`),
    at every m and any x however large.
    """
    if not 0 < x < math.inf:
        raise DomainError("x must be positive and finite")
    t = [x / s for s in model.sigma_eigs]
    return _cdf_positive_series(model, t, [1.0 / s for s in model.sigma_eigs], trunc)


def min_eig_sum_bound(model: WishartModel) -> int:
    """The finite-sum order r = (n - m + 1) * beta / 2 - 1 of the smallest-
    eigenvalue distribution, validated to be a positive integer."""
    r = (model.n - model.m + 1) * model.beta / 2 - 1
    if abs(r - round(r)) > 1e-9 or round(r) < 1:
        raise UnsupportedParameterError(
            f"smallest-eigenvalue distribution requires r = (n-m+1)*beta/2 - 1 "
            f"to be a positive integer; got r = {r} for n = {model.n}, m = {model.m}, "
            f"beta = {model.beta}"
        )
    return int(round(r))


def cdf_lambda_min(model: WishartModel, y: float) -> float:
    """P(smallest eigenvalue < y), an exact finite sum (no truncation error).

    Available only when r = (n-m+1)*beta/2 - 1 is a positive integer.  With
    v = (beta/2) Sigma^{-1} and tau = y tr v, 1 - e^{-tau} sum_{kappa_1 <= r}
    chat_kappa(y v) is summed as e^{-tau} sum_{k=r+1}^{m r} E_k y^k + P(m r +
    1, tau), E_k the sum of chat_kappa(v) over |kappa| = k, kappa_1 > r
    (:func:`hypergeom._exp_split`) and P the regularized lower incomplete gamma
    (:func:`special.gamma_lower_regularized`, itself a sum of positive terms):
    positive terms, each taken in log space, so the relative error stays near
    m r |log y| roundings at every y.  Past m r ~ 250 the E_k can leave the
    float range, which raises DomainError.
    """
    if not 0 < y < math.inf:
        raise DomainError("y must be positive and finite")
    r = min_eig_sum_bound(model)
    degree = model.m * r
    v = as_spectrum((model.beta / 2.0) / np.asarray(model.sigma_eigs))
    # E_k of v 2^j at trace ~ (m r / e)^(1/2), where the largest power the
    # recurrence forms and the smallest E_k are about reciprocal; y 2^-j is exact
    j = round(math.log2(math.sqrt(degree / math.e) / v.trace))
    try:
        coefs = _exp_split(model.algebra, r, v.scaled(2.0 ** j).eigenvalues, True)[r + 1:]
    except OverflowError:  # a power x^s inside the recurrence
        coefs = (math.inf,)
    if not all(sys.float_info.min <= e < math.inf for e in coefs):
        raise DomainError(f"smallest-eigenvalue sum of degree m r = {degree} leaves the float range")
    tau = y * v.trace
    y_scaled = math.ldexp(y, -j)  # 0 only where y v underflows, and then every term does
    log_y = math.log(y_scaled) if y_scaled > 0.0 else -math.inf
    cdf = math.fsum([math.exp(math.log(e) + k * log_y - tau) for k, e in enumerate(coefs, r + 1)]
                    + [gamma_lower_regularized(degree + 1, tau)])
    return _at_most_one(cdf, math.log(max(cdf, 1.0)))


def _log_eigen_prefactor(model: WishartModel, lam: np.ndarray) -> float:
    """log of the joint eigenvalue density over its coupling 0F0(-(beta/2)
    Sigma^{-1}, Lambda), for distinct eigenvalues ``lam``."""
    m, n, beta = model.m, model.n, model.beta
    log_const = (
        (m * m * beta / 2 + _SPECTRAL_RHO[beta] * m) * math.log(math.pi)
        - (beta * m * n / 2) * math.log(2.0 / beta)
        - mv_gamma_ln(m, model.algebra, beta * n / 2)
        - mv_gamma_ln(m, model.algebra, beta * m / 2)
        - (beta * n / 2) * float(np.log(model.sigma_eigs).sum())
    )
    upper, lower = np.triu_indices(m, k=1)
    return (log_const + (beta * (n - m + 1) / 2 - 1) * float(np.log(lam).sum())
            + beta * float(np.log(lam[upper] - lam[lower]).sum()))


def joint_eigen_density(model: WishartModel, lambdas, trunc: SeriesTruncation | None = None) -> float:
    """Joint density of the ordered eigenvalue spectrum.

    Input must be sorted descending and positive; coincident eigenvalues give
    density zero through the vanishing spread factor.  The coupling 0F0(X,
    Lambda), X = -(beta/2) Sigma^{-1}, is etr(-c Lambda) 0F0(X + cI, Lambda) at
    c = (beta/2) / min(sigma) (the Haar-integral form of 0F0): a series of
    nonnegative terms, which is 1 at Sigma proportional to I.
    """
    lam = np.asarray(lambdas, dtype=float)
    m, beta = model.m, model.beta
    if lam.shape != (m,):
        raise DomainError(f"expected {m} eigenvalues, got shape {lam.shape}")
    if not np.all((lam > 0) & (lam < math.inf)):
        raise DomainError("eigenvalues lambdas must be positive and finite")
    if np.any(np.diff(lam) > 0):
        raise DomainError("eigenvalues must be sorted descending")
    if np.any(np.diff(lam) == 0.0):
        return 0.0
    sigma = np.asarray(model.sigma_eigs)
    shift = (beta / 2.0) / sigma.min()
    budget = max(60, int(4 * shift * lam.sum()))
    trunc = SeriesTruncation(budget, 1e-11) if trunc is None else replace(trunc, max_degree=trunc.degree_cap(budget))
    res = pfq_two(HypergeomSpec((), (), model.algebra, m), shift - (beta / 2.0) / sigma, lam, trunc)
    _warn_unconverged(res, "eigenvalue coupling", stacklevel=2)
    log_density = _log_eigen_prefactor(model, lam) - shift * float(lam.sum()) + res.log_value
    try:
        return math.exp(log_density)
    except OverflowError:
        raise DomainError(f"the joint density exp({log_density:.6g}) leaves the float range") from None
