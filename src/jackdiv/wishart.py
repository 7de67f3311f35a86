"""Central Wishart sampling and eigenvalue distribution functions.

Sampling follows the beta-scaled Gaussian convention in which every real
component of the n x m data matrix has variance 1/beta, so the analytic
distribution functions below hold without rescaling.  Most numerical
libraries use the unscaled convention; divide samples by beta to compare.

Sampling covers beta in {1, 2, 4} (quaternions via the complex embedding);
beta = 8 is supported on the analytic paths only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _quat
from .core import DivisionAlgebra, DomainError, UnsupportedParameterError
from .hypergeom import (
    DEFAULT_TRUNCATION,
    HypergeomSpec,
    SeriesTruncation,
    pfq,
    pfq_positive_m2,
    pfq_two,
    truncated_pfq_restricted,
)
from .special import mv_gamma_ln


# Largest excess over 1 of a computed CDF that is taken as rounding and
# returned as 1.0; a larger one raises DomainError.
CDF_ROUNDING = 1e-10


class ConvergenceWarning(UserWarning):
    """A truncated series did not meet its convergence target."""


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
        if any(s <= 0 for s in self.sigma_eigs):
            raise DomainError(f"scale eigenvalues must be positive, got {self.sigma_eigs}")
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
class EigenSample:
    """One sampled eigenvalue spectrum, sorted descending.

    ``has_ties`` flags exactly equal consecutive eigenvalues (probability-zero
    event; indicates a degenerate draw or pairing trouble at beta = 4).
    """

    eigenvalues: tuple[float, ...]
    has_ties: bool = False


def _gaussian_data_matrix(model: WishartModel, rng: np.random.Generator, count: int):
    """(count, n, m) data matrices with the beta-scaled variance convention,
    already scaled by sigma^(1/2); beta = 4 returns the complex embedding."""
    m, n, beta = model.m, int(model.n), model.beta
    root_sigma = np.sqrt(np.asarray(model.sigma_eigs))
    if beta == 1:
        g = rng.standard_normal((count, n, m))
        return g * root_sigma
    if beta == 2:
        g = (rng.standard_normal((count, n, m)) + 1j * rng.standard_normal((count, n, m)))
        return g * (root_sigma / math.sqrt(2.0))
    if beta == 4:
        z1, z2 = _quat.gaussian_pair(rng, (count, n, m), 0.5)
        z1 *= root_sigma
        z2 *= root_sigma
        return _quat.embed(z1, z2)
    raise UnsupportedParameterError(
        "sampling is unavailable for beta = 8 (octonion); analytic paths only"
    )


def sample_wishart_eigs(model: WishartModel, seed: int, count: int) -> np.ndarray:
    """Eigenvalue spectra of ``count`` Wishart draws, shape (count, m), each
    row sorted descending.  Reproducible given the seed."""
    if model.beta == 8:
        raise UnsupportedParameterError(
            "sampling is unavailable for beta = 8 (octonion); analytic paths only"
        )
    n = model.n
    if abs(n - round(n)) > 1e-12:
        raise DomainError(f"sampling requires integer degrees of freedom, got n = {n}")
    if int(round(n)) < model.m:
        raise DomainError(f"sampling requires n >= m, got n = {n}, m = {model.m}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    out = np.empty((count, model.m))
    block = 65536
    done = 0
    while done < count:
        b = min(block, count - done)
        g = _gaussian_data_matrix(model, rng, b)
        s = np.einsum("bij,bik->bjk", g.conj(), g)
        eigs = np.linalg.eigvalsh(s)
        if model.beta == 4:
            vals = _quat.dedupe_pairs(eigs)
        else:
            vals = eigs[:, ::-1]
        out[done : done + b] = vals
        done += b
    return out


def sample_wishart(model: WishartModel, seed: int, count: int) -> Iterator[EigenSample]:
    """Stream of :class:`EigenSample`; see :func:`sample_wishart_eigs`."""
    eigs = sample_wishart_eigs(model, seed, count)
    for row in eigs:
        ties = bool(np.any(np.diff(row) == 0.0))
        yield EigenSample(tuple(row), ties)


def spectral_from_matrix(mat: np.ndarray, algebra: DivisionAlgebra) -> np.ndarray:
    """Eigenvalues (descending) of a numeric symmetric/Hermitian matrix.

    The series engines accept eigenvalue vectors only; this adapter covers
    beta = 1 (symmetric) and beta = 2 (Hermitian) inputs.
    """
    if algebra.beta not in (1, 2):
        raise UnsupportedParameterError(
            "matrix adapter supports beta in {1, 2}; pass eigenvalues directly"
        )
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {mat.shape}")
    if not np.allclose(mat, mat.conj().T, rtol=1e-10, atol=1e-12):
        raise DomainError("matrix is not Hermitian")
    return np.linalg.eigvalsh(mat)[::-1]


def _log_1f1_positive(a_up: float, c_lo: float, t: np.ndarray, algebra: DivisionAlgebra,
                      trunc: SeriesTruncation | None) -> tuple[float, bool]:
    """log of 1F1(a_up; c_lo; t) for t >= 0, choosing an engine by size.

    With ``trunc=None`` the degree budget is set from the trace so far tails
    converge; a user truncation is honored as given.
    """
    m = len(t)
    tr = float(np.sum(t))
    beta = algebra.beta
    shifted_ok = all(
        par - (i - 1) * beta / 2 > 0 for par in (a_up, c_lo) for i in range(1, m + 1)
    )
    if m == 2 and shifted_ok:
        rel = trunc.rel_tol if trunc is not None else 1e-12
        cap = trunc.max_degree if trunc is not None else max(400, int(tr + 14 * math.sqrt(tr + 1) + 60))
        res = pfq_positive_m2((a_up,), (c_lo,), tuple(t), algebra, rel_tol=rel, max_degree=cap)
    else:
        if trunc is None:
            cap = max(DEFAULT_TRUNCATION.max_degree, int(tr + 14 * math.sqrt(tr + 1) + 40))
            trunc = SeriesTruncation(max_degree=cap, rel_tol=1e-12)
        res = pfq(HypergeomSpec((a_up,), (c_lo,), algebra, m), t, trunc)
    if not res.converged:
        warnings.warn(
            f"confluent series not converged at degree {res.degrees_used} "
            f"(last term ratio {res.last_term_ratio:.2e})",
            ConvergenceWarning,
            stacklevel=3,
        )
    if res.log_value is None:
        raise DomainError("confluent series produced a nonpositive value")
    return res.log_value, res.converged


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


def _cdf_via_transformed_series(model: WishartModel, t: np.ndarray,
                                trunc: SeriesTruncation | None) -> float:
    """P(S < Omega) from the spectrum t of Omega Sigma^{-1}, using the
    exponentially-weighted positive series (the numerically stable form)."""
    c1, q, log_pref = _cdf_prefactor(model, t)
    arg = (model.beta / 2.0) * t
    log_series, _ = _log_1f1_positive(c1, q, arg, model.algebra, trunc)
    log_cdf = log_pref - float(arg.sum()) + log_series
    if log_cdf > 0.0:
        if log_cdf > math.log1p(CDF_ROUNDING):
            raise DomainError(f"distribution function evaluates to exp({log_cdf:.6g}), "
                              f"above 1 by more than the rounding allowance {CDF_ROUNDING:g}")
        return 1.0
    return math.exp(log_cdf)


def cdf_wishart_region(model: WishartModel, omega_eigs, trunc: SeriesTruncation | None = None) -> float:
    """P(S < Omega) for Omega given by eigenvalues aligned with the scale.

    ``omega_eigs[i] / sigma_eigs[i]`` form the spectrum of Omega Sigma^{-1};
    for a non-commuting pair pass that product's spectrum directly with a
    model whose scale eigenvalues are ones.
    """
    omega = np.asarray(omega_eigs, dtype=float)
    if omega.shape != (model.m,):
        raise DomainError(f"omega_eigs must have length m = {model.m}")
    if np.any(omega <= 0):
        raise DomainError("region boundary must be positive definite")
    t = omega / np.asarray(model.sigma_eigs)
    return _cdf_via_transformed_series(model, t, trunc)


def cdf_lambda_max(model: WishartModel, x: float, trunc: SeriesTruncation | None = None,
                   transformed: bool = True) -> float:
    """P(largest eigenvalue < x).

    The default path multiplies a decaying exponential prefactor into a
    positive-term confluent series; ``transformed=False`` evaluates the raw
    alternating form instead (kept for the equivalence check, usable only
    while the untransformed series still converges acceptably).
    """
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    t = x / np.asarray(model.sigma_eigs)
    if transformed:
        return _cdf_via_transformed_series(model, t, trunc)
    _, q, log_pref = _cdf_prefactor(model, t)
    beta = model.beta
    use = trunc or SeriesTruncation(max_degree=100, rel_tol=1e-12)
    res = pfq(HypergeomSpec((beta * model.n / 2,), (q,), model.algebra, model.m),
              -(beta / 2.0) * t, use)
    if not res.converged:
        warnings.warn(
            f"untransformed series not converged at degree {res.degrees_used}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return math.exp(log_pref) * res.value


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

    Available only when r = (n-m+1)*beta/2 - 1 is a positive integer.
    """
    if not y > 0:
        raise DomainError(f"y must be positive, got {y}")
    r = min_eig_sum_bound(model)
    beta = model.beta
    u = (beta / 2.0) * y / np.asarray(model.sigma_eigs)
    spec = HypergeomSpec((), (), model.algebra, model.m)
    s = truncated_pfq_restricted(spec, u, r)
    return 1.0 - math.exp(-float(u.sum())) * s.value


def joint_eigen_density(model: WishartModel, lambdas, trunc: SeriesTruncation | None = None) -> float:
    """Joint density of the ordered eigenvalue spectrum.

    Input must be sorted descending and positive; coincident eigenvalues give
    density zero through the vanishing spread factor.
    """
    lam = np.asarray(lambdas, dtype=float)
    m, n, beta = model.m, model.n, model.beta
    if lam.shape != (m,):
        raise DomainError(f"expected {m} eigenvalues, got shape {lam.shape}")
    if np.any(lam <= 0):
        raise DomainError("eigenvalues must be positive")
    if np.any(np.diff(lam) > 0):
        raise DomainError("eigenvalues must be sorted descending")
    if np.any(np.diff(lam) == 0.0):
        return 0.0
    alg = model.algebra
    sigma = np.asarray(model.sigma_eigs)
    rho = _SPECTRAL_RHO[beta] * m
    log_const = (
        (m * m * beta / 2 + rho) * math.log(math.pi)
        - (beta * m * n / 2) * math.log(2.0 / beta)
        - mv_gamma_ln(m, alg, beta * n / 2)
        - mv_gamma_ln(m, alg, beta * m / 2)
        - (beta * n / 2) * float(np.log(sigma).sum())
    )
    log_shape = (beta * (n - m + 1) / 2 - 1) * float(np.log(lam).sum())
    diffs = lam[:, None] - lam[None, :]
    log_vand = beta * float(np.log(diffs[np.triu_indices(m, k=1)]).sum())
    if np.allclose(sigma, sigma[0], rtol=1e-14, atol=0.0):
        coupling = math.exp(-beta / (2 * sigma[0]) * float(lam.sum()))
    else:
        spec = HypergeomSpec((), (), alg, m)
        use = trunc or SeriesTruncation(max_degree=max(60, int(4 * (beta / 2) * lam.sum() / sigma.min())), rel_tol=1e-11)
        res = pfq_two(spec, -(beta / 2.0) / sigma, lam, use)
        if not res.converged:
            warnings.warn(
                f"eigenvalue coupling series not converged at degree {res.degrees_used}",
                ConvergenceWarning,
                stacklevel=2,
            )
        coupling = res.value
    return math.exp(log_const + log_shape + log_vand) * coupling
