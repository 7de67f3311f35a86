"""Monte Carlo verification of the library's integral identities.

Each ``verify_*`` function estimates one side of an identity by sampling
(Haar matrices, cone matrices via the triangular construction, or matrix-beta
draws), computes the other side analytically, and returns a
:class:`VerificationReport` with the z-score and relative error, judged
against the default thresholds ``DEFAULT_Z_MAX`` and ``DEFAULT_REL_MAX``.
The suite applies other thresholds: :func:`run_suite` judges each report
once more against the ``z_max`` and ``rel_max`` it is given.

Samplers are chosen so that for the exponential kernels the proposal matches
the integrand exactly and only the polynomial factor carries variance; general
parameters fall back to importance weights with finite-variance guards.
Everything is seed-deterministic: estimates depend only on the identity, its
parameters, the seed and the sample count.

Each check is its analytic side plus one ``draw(rng, count)`` function that
returns ``count`` samples of the integrand.  :func:`_report`, the one driver,
seeds the generator, calls ``draw`` through the chunk loop that Wishart
sampling shares (:func:`jackdiv.wishart._sample_values`: at most ``_CHUNK``
rows at a time, so memory stays bounded and the random stream is consumed in
the same order whatever the sample count) and judges the sample mean.  Cone
draws come from :class:`jackdiv.wishart.ConeSampler`.

Every matrix step (the Q of a Gaussian QR for Haar draws, eigenvalues,
inverses, log-determinants and the matrix-beta conjugations by a Cholesky
factor or a Hermitian inverse root) is one kernel of :mod:`jackdiv._mat2`,
which runs a closed form on a :class:`jackdiv._mat2.Entries` and numpy's
LAPACK path on an array, except the Haar Q: one Gram-Schmidt at every m,
which for the Stiefel check factors only the columns it reads (at beta = 4
the one-pass quaternion loop of :func:`jackdiv._quat.haar_batch`).  At m =
2 a cone draw is the :class:`jackdiv._mat2.Entries` of its three entry
columns from :meth:`jackdiv.wishart.ConeSampler.sample` on, and so is every
batch a check forms from it: the sums, I +- X, the diagonal scalings and the
traces between the steps are :mod:`jackdiv._mat2` operations too, so no
check branches on m and no step writes a (count, 2, 2) array.
The two-matrix check, and the splitting check at m = 2, read a Haar draw H
only through its squared moduli |h_ij|^2 in the algebra
(:func:`jackdiv._mat2.moduli_sq`), with no quaternion product and no complex
embedding.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import _mat2, _quat
from .core import DivisionAlgebra, DomainError, Partition, UnsupportedParameterError
from .hypergeom import HypergeomSpec, SeriesResult, _exp_split, _termination_bound, pfq, pfq_batch, pfq_two
from .jack import as_spectrum, jack_C, jack_C_at_identity, jack_C_batch
from .special import mv_beta_ln, mv_gamma_ln, mv_gamma_weighted_ln
from .wishart import ConeSampler, _rng, _sample_values

DEFAULT_Z_MAX = 3.0
DEFAULT_REL_MAX = 0.05


@dataclass
class VerificationReport:
    """Monte Carlo estimate vs analytic value with pass/fail verdict."""

    identity_id: str
    analytic: float
    estimate: float
    std_error: float
    n_samples: int
    z_score: float = field(init=False)
    rel_error: float = field(init=False)
    passed: bool = field(init=False)
    z_max: float = DEFAULT_Z_MAX
    rel_max: float = DEFAULT_REL_MAX
    param_digest: str = ""

    def __post_init__(self):
        diff = self.estimate - self.analytic
        scale = max(abs(self.analytic), abs(self.estimate))
        # floor the standard error at rounding level so exact (zero-variance)
        # cases do not turn float noise into huge z-scores
        se = max(self.std_error, 1e-13 * scale)
        if se > 0:
            self.z_score = diff / se
        else:
            self.z_score = 0.0 if diff == 0.0 else math.inf
        self.rel_error = abs(diff) / abs(self.analytic) if self.analytic != 0 else abs(diff)
        self.passed = abs(self.z_score) <= self.z_max and self.rel_error <= self.rel_max

    def to_line(self) -> str:
        """identity_id,param_digest,analytic,estimate,std_error,z,rel,pass"""
        return ",".join(
            [
                self.identity_id,
                self.param_digest,
                "%.17g" % self.analytic,
                "%.17g" % self.estimate,
                "%.17g" % self.std_error,
                "%.17g" % self.z_score,
                "%.17g" % self.rel_error,
                "1" if self.passed else "0",
            ]
        )


def _digest(*params) -> str:
    return "%08x" % zlib.crc32(repr(params).encode())


def _tag(kappa: Partition) -> str:
    return "".join(map(str, kappa.parts))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return mean, 0.0
    var = float(values.var(ddof=1))
    return mean, math.sqrt(var / n)


def _report(identity_id, params, analytic, n_samples, seed, draw) -> VerificationReport:
    """The one Monte Carlo driver: ``draw(rng, count)`` over chunks, from the
    generator of ``seed``, its mean judged against ``analytic``."""
    values = _sample_values(n_samples, partial(draw, _rng(seed)))
    est, se = _mean_se(values)
    return VerificationReport(
        identity_id=identity_id,
        analytic=float(analytic),
        estimate=est,
        std_error=se,
        n_samples=values.size,
        param_digest=_digest(*params),
    )


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def _gaussian(m: int, algebra: DivisionAlgebra, rng: np.random.Generator, count: int) -> np.ndarray:
    """A (count, m, m) batch of standard Gaussian matrices, real at beta = 1
    and complex at beta = 2."""
    g = rng.standard_normal((count, m, m))
    return g + 1j * rng.standard_normal((count, m, m)) if algebra.beta == 2 else g


def _haar_batch(m: int, algebra: DivisionAlgebra, rng: np.random.Generator, count: int):
    """Haar-distributed group elements (count, m, m): the Q of a Gaussian
    matrix's QR factorization with R's diagonal made positive
    (:func:`jackdiv._mat2.unitary_factor`); at beta = 4 the quaternion pair
    of :func:`jackdiv._quat.haar_batch`."""
    beta = algebra.beta
    if beta == 4:
        return _quat.haar_batch(rng, count, m)
    if beta not in (1, 2):
        raise UnsupportedParameterError("Haar sampling supports beta in {1, 2, 4}")
    return _mat2.unitary_factor(_gaussian(m, algebra, rng, count))


def verify_split_integral(
    kappa: Partition,
    x_eigs,
    y_eigs,
    m: int,
    algebra: DivisionAlgebra,
    n_samples: int,
    seed: int,
) -> VerificationReport:
    """Haar average of C_kappa(X H* Y H) against C(X) C(Y) / C(I)."""
    if any(v < 0 for v in x_eigs) or any(v < 0 for v in y_eigs):
        raise DomainError("x_eigs and y_eigs must be nonnegative")
    analytic = (
        jack_C(kappa, np.asarray(x_eigs, dtype=float), algebra)
        * jack_C(kappa, np.asarray(y_eigs, dtype=float), algebra)
        / jack_C_at_identity(kappa, m, algebra)
        if kappa.weight
        else 1.0
    )

    def draw(rng, count):
        h = _haar_batch(m, algebra, rng, count)
        return jack_C_batch(kappa, _mat2.conjugated_spectra(x_eigs, y_eigs, algebra, h), algebra)

    params = ("split", kappa.parts, tuple(x_eigs), tuple(y_eigs), m, algebra.beta, n_samples, seed)
    return _report(f"split-m{m}-b{algebra.beta}-k{_tag(kappa)}",
                   params, analytic, n_samples, seed, draw)


# ---------------------------------------------------------------------------
# Matrix-beta sampling from cone draws
# ---------------------------------------------------------------------------


def _cone_beta(algebra: DivisionAlgebra, m: int) -> tuple[int, float]:
    """(beta, c = (m-1) beta/2) of a check that reads its cone draws as m x m
    matrices: the quaternion sampler returns embeddings, so beta is 1 or 2."""
    if algebra.beta not in (1, 2):
        raise UnsupportedParameterError("cone sampling checks support beta in {1, 2}")
    return algebra.beta, (m - 1) * algebra.beta / 2


def _matrix_beta1(m, algebra, a1, a2, rng, count):
    """Matrix beta type I draws U = L^-1 A L^-H in (0, I) with parameters
    (a1, a2), for cone draws A, B and the Cholesky factor L of A + B."""
    a, _ = ConeSampler(m, algebra, a1, (1.0,) * m).sample(rng, count)
    b, _ = ConeSampler(m, algebra, a2, (1.0,) * m).sample(rng, count)
    return _mat2.cholesky_whiten(a, _mat2.add(a, b))


def _matrix_beta2(m, algebra, a1, a2, rng, count):
    """Matrix beta type II (F-type) draws X > 0 with density proportional to
    |X|^(a1 - c - 1) |I + X|^-(a1 + a2).

    The conjugation must use the symmetric inverse square root of the
    denominator draw: a triangular factor changes the law here (the exponent
    couples to tr(XB), which only the Hermitian root preserves).
    """
    a, _ = ConeSampler(m, algebra, a1, (1.0,) * m).sample(rng, count)
    b, _ = ConeSampler(m, algebra, a2, (1.0,) * m).sample(rng, count)
    return _mat2.inv_sqrt_whiten(a, b)


def _eigs_times_diag(x, d: np.ndarray, logdet_x: np.ndarray | None = None) -> np.ndarray:
    """Spectra (descending) of X diag(d) for a batch of Hermitian positive X
    (at m = 2 a :class:`jackdiv._mat2.Entries`) and sign-definite d.

    With ``logdet_x`` supplied (known exactly from a triangular construction),
    the smallest eigenvalue is rebuilt from the determinant so that extreme
    condition numbers do not poison products that cancel analytically.
    """
    d = np.asarray(d, dtype=float)
    if np.all(d >= 0):
        vals = _mat2.eigvalsh(_mat2.diag_congruence(x, np.sqrt(d)))[:, ::-1]
        if logdet_x is not None and np.all(d > 0):
            total = logdet_x + math.fsum(math.log(v) for v in d)
            lead = np.log(vals[:, :-1]).sum(axis=1)
            vals[:, -1] = np.exp(total - lead)
        return vals
    if np.all(d <= 0):
        return -_mat2.eigvalsh(_mat2.diag_congruence(x, np.sqrt(-d)))
    raise DomainError("diagonal factor must not mix signs")


def _jack_values(kappa, algebra, x, d, inverse=False, logdet_x=None) -> np.ndarray:
    """C_kappa of the spectra of X^(+-1) diag(d) over a batch of X, the Jack
    integrand of the cone and matrix-beta checks; ``logdet_x`` as in :func:`_eigs_times_diag`."""
    spectra = _eigs_times_diag(_mat2.inv(x) if inverse else x, d, logdet_x=logdet_x)
    return jack_C_batch(kappa, spectra, algebra)


def _auto_proposal_shape(a: float, c: float, k_extreme: int) -> float:
    """Proposal shape for |X|^(a - a0) reweighting with a C_kappa factor whose
    boundary decay contributes 2*k_extreme; keeps the second moment finite."""
    if a > c + 0.25:
        return a
    bound = 2 * a - c + 2 * k_extreme
    a0 = min(c + 0.9, 0.5 * (c + bound))
    if not (c < a0 < bound - 0.05):
        raise DomainError(
            f"no finite-variance proposal shape: a = {a} is within 0.05 of "
            f"its lower bound {c - k_extreme}"
        )
    return a0


def verify_laplace_jack(
    a: float,
    kappa: Partition,
    r_eigs,
    z_eigs,
    m: int,
    algebra: DivisionAlgebra,
    n_samples: int,
    seed: int,
) -> VerificationReport:
    """Cone integral of etr(-XZ) |X|^(a-c-1) C_kappa(XR) against its closed form.

    Valid down to the tight bound a > (m-1)*beta/2 - k_m, where k_m is the
    m-th part of kappa; below the classical bound the proposal shape shifts
    and the determinant weight carries the difference.
    """
    beta, c = _cone_beta(algebra, m)
    k_m = kappa.part(m)
    r = np.asarray(r_eigs, dtype=float)
    z = np.asarray(z_eigs, dtype=float)
    if np.any(r < 0) or np.any(z <= 0):
        raise DomainError("r_eigs must be nonnegative and z_eigs positive")

    log_gamma_w = mv_gamma_weighted_ln(m, algebra, a, kappa, +1)
    analytic = math.exp(log_gamma_w - a * float(np.log(z).sum())) * jack_C(kappa, r / z, algebra)

    a0 = _auto_proposal_shape(a, c, k_m)
    sampler = ConeSampler(m, algebra, a0, tuple(z))
    log_w0 = sampler.log_norm()

    def draw(rng, count):
        x, logdet = sampler.sample(rng, count)
        cvals = _jack_values(kappa, algebra, x, r, logdet_x=logdet)
        return np.exp(log_w0 + (a - a0) * logdet) * cvals

    params = ("laplace_jack", a, kappa.parts, tuple(r), tuple(z), m, beta, n_samples, seed, a0)
    return _report(f"laplace-jack-m{m}-b{beta}-k{_tag(kappa)}-a{a:g}",
                   params, analytic, n_samples, seed, draw)


def verify_beta_jack(
    a: float,
    b: float,
    kappa: Partition,
    r_eigs,
    m: int,
    algebra: DivisionAlgebra,
    inverse_arg: bool = False,
    n_samples: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Beta-type integral over 0 < X < I with a C_kappa(XR) factor, or the
    inverse-argument variant C_kappa(R X^{-1})."""
    beta, c = _cone_beta(algebra, m)
    k_m = kappa.part(m)
    r = np.asarray(r_eigs, dtype=float)

    sign = -1 if inverse_arg else +1
    log_num = mv_gamma_weighted_ln(m, algebra, a, kappa, sign)
    log_den = mv_gamma_weighted_ln(m, algebra, a + b, kappa, sign)
    analytic = math.exp(log_num + mv_gamma_ln(m, algebra, b) - log_den) * jack_C(kappa, r, algebra)

    a1 = _auto_proposal_shape(a, c, k_m)
    a2 = b if b > c + 0.25 else c + 0.75
    log_w0 = mv_beta_ln(m, algebra, a1, a2)

    def draw(rng, count):
        u = _matrix_beta1(m, algebra, a1, a2, rng, count)
        cvals = _jack_values(kappa, algebra, u, r, inverse=inverse_arg)
        logw = (a - a1) * _mat2.logdet(u) + (b - a2) * _mat2.logdet(_mat2.identity_plus(u, -1))
        return np.exp(log_w0 + logw) * cvals

    params = ("beta_jack", a, b, kappa.parts, tuple(r), m, beta, inverse_arg, n_samples, seed)
    tag = "inv" if inverse_arg else "fwd"
    return _report(f"beta-jack-{tag}-m{m}-b{beta}-k{_tag(kappa)}-a{a:g}-b{b:g}",
                   params, analytic, n_samples, seed, draw)


# ---------------------------------------------------------------------------
# General radial kernels
# ---------------------------------------------------------------------------


def _log_radial_moment(f_id: str, beta: float, a: float, m: int, eta: float, j_power: int,
                       power: float) -> float:
    """log of the kernel's scalar moment, the integral of f(z) z^(power-1)
    over (0, inf), in closed form: Gamma(power) for f = e^-z,
    Gamma(power + j) for f = e^-z z^j, and (eta/2)^power B(power, e - power)
    for f = (1 + 2z/eta)^-e, e = beta (a m + eta)."""
    if f_id not in ("exp", "exp_power", "pareto"):
        raise UnsupportedParameterError(f"unknown kernel {f_id!r}; use exp, exp_power or pareto")
    if power <= 0:
        raise DomainError(f"kernel moment diverges at 0: exponent {power}")
    if f_id == "exp":
        return math.lgamma(power)
    if f_id == "exp_power":
        return math.lgamma(power + j_power)
    expo = beta * (a * m + eta)
    if not expo > power:
        raise DomainError(f"kernel moment diverges at infinity: decay {expo} <= exponent {power}")
    return (power * math.log(eta / 2.0) + math.lgamma(power) + math.lgamma(expo - power)
            - math.lgamma(expo))


def verify_radial_kernel(
    f_id: str,
    a: float,
    kappa: Partition,
    u_eigs,
    z_eigs,
    m: int,
    algebra: DivisionAlgebra,
    inverse_arg: bool = True,
    n_samples: int = 100_000,
    seed: int = 0,
    eta: float = 3.0,
    j_power: int = 1,
) -> VerificationReport:
    """Cone integral of f(tr XZ) |X|^(a-c-1) C_kappa(X^{+-1} U) against the
    closed form whose constant is the kernel's scalar moment, itself a Gamma
    or Beta function (:func:`_log_radial_moment`).

    ``inverse_arg=True`` is the C_kappa(X^{-1} U) form (domain a > c + k_1);
    ``inverse_arg=False`` uses C_kappa(X U) (domain a > c - k_m).
    """
    beta, c = _cone_beta(algebra, m)
    k = kappa.weight
    if inverse_arg:
        if not a > c + kappa.part(1):
            raise DomainError(f"requires a > (m-1)*beta/2 + k_1 = {c + kappa.part(1)}")
        moment_power = a * m - k
        sign = -1
    else:
        if not a > c - kappa.part(m):
            raise DomainError(f"requires a > (m-1)*beta/2 - k_m = {c - kappa.part(m)}")
        moment_power = a * m + k
        sign = +1
    u = np.asarray(u_eigs, dtype=float)
    z = np.asarray(z_eigs, dtype=float)
    if np.any(z <= 0) or np.any(u < 0):
        raise DomainError("u_eigs must be nonnegative and z_eigs positive")

    log_moment = _log_radial_moment(f_id, beta, a, m, eta, j_power, moment_power)
    log_gw = mv_gamma_weighted_ln(m, algebra, a, kappa, sign)
    arg = u * z if inverse_arg else u / z
    analytic = (
        math.exp(log_gw - math.lgamma(moment_power) + log_moment - a * float(np.log(z).sum()))
        * jack_C(kappa, arg, algebra)
    )

    if not a > c:
        raise DomainError("the sampler needs a > (m-1)*beta/2; tighter domains are "
                          "exercised by verify_laplace_jack")

    if f_id == "pareto":
        q0 = beta * (a * m + eta) - a * m
        if q0 <= 0.25:
            raise DomainError(f"pareto kernel needs beta*(a*m + eta) - a*m > 0.25, got {q0}")
        log_c0 = (
            a * float(np.log(z).sum())
            + a * m * math.log(2.0 / eta)
            + math.lgamma(a * m + q0)
            - math.lgamma(q0)
            - mv_gamma_ln(m, algebra, a)
        )
        sampler = ConeSampler(m, algebra, a, tuple(np.ones(m)))

        def draw(rng, count):
            s, _ = sampler.sample(rng, count)
            g = rng.gamma(q0, size=count)
            scale = eta / (2.0 * g)
            x = _mat2.rescale(s, scale, z)
            return math.exp(-log_c0) * _jack_values(kappa, algebra, x, u, inverse=inverse_arg)
    else:
        sampler = ConeSampler(m, algebra, a, tuple(z))
        log_w0 = sampler.log_norm()

        def draw(rng, count):
            x, _ = sampler.sample(rng, count)
            cvals = _jack_values(kappa, algebra, x, u, inverse=inverse_arg)
            w = np.exp(log_w0)
            if f_id == "exp_power":
                tr_xz = _mat2.trace_diag(x, z)
                w = w * tr_xz**j_power
            return w * cvals

    params = ("radial_kernel", f_id, a, kappa.parts, tuple(u), tuple(z), m, beta,
              inverse_arg, eta, j_power, n_samples, seed)
    tag = "inv" if inverse_arg else "fwd"
    return _report(f"radial-{f_id}-{tag}-m{m}-b{beta}-k{_tag(kappa)}",
                   params, analytic, n_samples, seed, draw)


def verify_beta2_jack(
    a: float,
    b: float,
    kappa: Partition,
    r_eigs,
    m: int,
    algebra: DivisionAlgebra,
    variant: str = "r2",
    n_samples: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Type-II beta integral |X|^(a-c-1) |I+X|^-(a+b) with C_kappa(R X) (r2)
    or C_kappa(R X^{-1}) (r1), against the weighted-gamma closed form."""
    beta, c = _cone_beta(algebra, m)
    if variant == "r1":
        sign_a, sign_b = -1, +1
    elif variant == "r2":
        sign_a, sign_b = +1, -1
    else:
        raise UnsupportedParameterError(f"variant must be r1 or r2, got {variant!r}")
    r = np.asarray(r_eigs, dtype=float)

    log_ga = mv_gamma_weighted_ln(m, algebra, a, kappa, sign_a)
    log_gb = mv_gamma_weighted_ln(m, algebra, b, kappa, sign_b)
    analytic = math.exp(log_ga + log_gb - mv_gamma_ln(m, algebra, a + b)) * jack_C(kappa, r, algebra)

    a1 = a if a > c + 0.25 else c + 0.75
    a2 = b if b > c + 0.25 else c + 0.75
    log_w0 = mv_beta_ln(m, algebra, a1, a2)

    def draw(rng, count):
        x = _matrix_beta2(m, algebra, a1, a2, rng, count)
        cvals = _jack_values(kappa, algebra, x, r, inverse=variant == "r1")
        logw = (a - a1) * _mat2.logdet(x) + ((a1 + a2) - (a + b)) * _mat2.logdet(_mat2.identity_plus(x))
        return np.exp(log_w0 + logw) * cvals

    params = ("beta2_jack", variant, a, b, kappa.parts, tuple(r), m, beta, n_samples, seed)
    return _report(f"beta2-{variant}-m{m}-b{beta}-k{_tag(kappa)}-a{a:g}-b{b:g}",
                   params, analytic, n_samples, seed, draw)


# ---------------------------------------------------------------------------
# Incomplete gamma and beta
# ---------------------------------------------------------------------------


def verify_incomplete(
    kind: str,
    m: int,
    algebra: DivisionAlgebra,
    a: float,
    lambda_eigs=None,
    omega_eigs=None,
    b: float | None = None,
    xi_eigs=None,
    n_samples: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Region integrals over {0 < X < Omega}, {0 < Y < Xi} or {X > Omega}
    against their confluent/Gauss/finite-sum closed forms.

    ``kind``: ``gamma_lower``, ``beta`` or ``gamma_upper``.
    """
    beta, c = _cone_beta(algebra, m)

    if kind == "gamma_lower":
        lam = np.asarray(lambda_eigs, dtype=float)
        om = np.asarray(omega_eigs, dtype=float)
        if np.any(om <= 0):
            raise DomainError("region boundary must be positive definite")
        if not a > c:
            raise DomainError(f"sampler requires a > (m-1)*beta/2 = {c}")
        marg = om * lam
        series = pfq(HypergeomSpec((a,), (a + c + 1,), algebra, m), -marg)
        log_w0 = mv_beta_ln(m, algebra, a, c + 1) + a * float(np.log(om).sum())
        analytic = math.exp(log_w0) * series.value

        def draw(rng, count):
            u = _matrix_beta1(m, algebra, a, c + 1, rng, count)
            return np.exp(log_w0) * np.exp(-_mat2.trace_diag(u, marg))

        identity = f"incgamma-lower-m{m}-b{beta}-a{a:g}"
        params = (kind, a, tuple(lam), tuple(om), m, beta, n_samples, seed)

    elif kind == "beta":
        if b is None or xi_eigs is None:
            raise DomainError("kind='beta' needs b and xi_eigs")
        xi = np.asarray(xi_eigs, dtype=float)
        if np.any(xi <= 0) or np.any(xi >= 1):
            raise DomainError("xi_eigs must lie strictly inside (0, 1)")
        if not a > c:
            raise DomainError(f"sampler requires a > (m-1)*beta/2 = {c}")
        if not b > c:
            raise DomainError(f"requires b > (m-1)*beta/2 = {c}")
        series = pfq(HypergeomSpec((a, -b + c + 1), (a + c + 1,), algebra, m), xi)
        log_w0 = mv_beta_ln(m, algebra, a, c + 1) + a * float(np.log(xi).sum())
        analytic = math.exp(log_w0) * series.value
        root = np.sqrt(xi)

        def draw(rng, count):
            y = _mat2.diag_congruence(_matrix_beta1(m, algebra, a, c + 1, rng, count), root)
            return np.exp(log_w0 + (b - c - 1) * _mat2.logdet(_mat2.identity_plus(y, -1)))

        identity = f"incbeta-m{m}-b{beta}-a{a:g}-b{b:g}"
        params = (kind, a, b, tuple(xi), m, beta, n_samples, seed)

    elif kind == "gamma_upper":
        lam = np.asarray(lambda_eigs, dtype=float)
        om = np.asarray(omega_eigs, dtype=float)
        if np.any(om <= 0) or np.any(lam <= 0):
            raise DomainError("gamma_upper needs positive lambda_eigs and omega_eigs")
        r = a - c - 1
        if abs(r - round(r)) > 1e-9 or round(r) < 1:
            raise UnsupportedParameterError(
                f"upper tail requires r = a - (m-1)*beta/2 - 1 to be a positive integer, got {r}"
            )
        r = int(round(r))
        marg = om * lam
        below = math.fsum(_exp_split(algebra, r, as_spectrum(marg).eigenvalues, False))
        analytic = math.exp(mv_gamma_ln(m, algebra, a) - a * float(np.log(lam).sum()) - float(marg.sum())) * below
        log_w0 = (
            a * float(np.log(om).sum())
            - float(marg.sum())
            + mv_gamma_ln(m, algebra, c + 1)
            - (c + 1) * float(np.log(marg).sum())
        )
        sampler = ConeSampler(m, algebra, c + 1, tuple(marg))

        def draw(rng, count):
            xr, _ = sampler.sample(rng, count)
            return np.exp(log_w0 + r * _mat2.logdet(_mat2.identity_plus(xr)))

        identity = f"incgamma-upper-m{m}-b{beta}-a{a:g}"
        params = (kind, a, tuple(lam), tuple(om), m, beta, n_samples, seed)

    else:
        raise UnsupportedParameterError(
            f"kind must be gamma_lower, beta or gamma_upper, got {kind!r}"
        )

    return _report(identity, params, analytic, n_samples, seed, draw)


# ---------------------------------------------------------------------------
# Laplace transforms of hypergeometric integrands
# ---------------------------------------------------------------------------


def _converged(res: SeriesResult, side: str):
    """``res.value``; DomainError naming the degree if the series did not converge."""
    if not res.converged:
        raise DomainError(f"{side} series not converged at degree {res.degrees_used} "
                          f"(last term ratio {res.last_term_ratio:.2e})")
    return res.value


def verify_laplace_hypergeom(
    upper,
    lower,
    a: float,
    u_eigs,
    z_eigs,
    m: int,
    algebra: DivisionAlgebra,
    y_eigs=None,
    inverse_arg: bool = False,
    n_samples: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Cone Laplace transform of a hypergeometric integrand against the
    parameter-shifted series on the other side.

    Forward argument (XU) appends ``a`` to the upper parameters; inverse
    argument (X^{-1}U, with U negative semidefinite) appends the reflected
    parameter to the lower list with argument -UZ.  The sampled integrand is
    truncated by the default rule of the analytic side; DomainError when
    either side does not converge.
    """
    beta, c = _cone_beta(algebra, m)
    upper = tuple(float(v) for v in upper)
    lower = tuple(float(v) for v in lower)
    if len(upper) > len(lower):
        raise DomainError("integrand needs p <= q")
    u = np.asarray(u_eigs, dtype=float)
    z = np.asarray(z_eigs, dtype=float)
    if np.any(z <= 0):
        raise DomainError("z_eigs must be positive")
    if not a > c:
        raise DomainError(f"requires a > (m-1)*beta/2 = {c}")
    if not inverse_arg and len(upper) == len(lower) and np.any(1.0 / z >= 1.0):
        raise DomainError("p = q forward-argument integrands need all z eigenvalues > 1")

    two_arg = y_eigs is not None
    int_spec = HypergeomSpec(upper, lower, algebra, m)
    if inverse_arg:
        if np.any(u > 0):
            raise DomainError("inverse-argument transforms need U <= 0")
        # The inverse-argument transform is exact only when the integrand
        # series terminates; otherwise it carries a complementary Bessel-type
        # term (visible already at m = 1) and is formal.
        if _termination_bound(int_spec) is None:
            raise UnsupportedParameterError(
                "inverse-argument transforms are verified only for terminating "
                "integrands (some upper parameter a nonpositive integer)"
            )
        rhs_spec = HypergeomSpec(upper, lower + (-a + c + 1,), algebra, m)
        rhs_arg = -u * z
    else:
        rhs_spec = HypergeomSpec(upper + (a,), lower, algebra, m)
        rhs_arg = u / z
    if two_arg:
        rhs = pfq_two(rhs_spec, rhs_arg, np.asarray(y_eigs, dtype=float))
    else:
        rhs = pfq(rhs_spec, rhs_arg)
    analytic = (math.exp(mv_gamma_ln(m, algebra, a) - a * float(np.log(z).sum()))
                * _converged(rhs, "analytic"))

    sampler = ConeSampler(m, algebra, a, tuple(z))
    log_w0 = sampler.log_norm()

    def draw(rng, count):
        x, _ = sampler.sample(rng, count)
        spectra = _eigs_times_diag(_mat2.inv(x) if inverse_arg else x, u)
        if not upper and not lower and not two_arg:
            fvals = np.exp(_mat2.row_sums(spectra))
        else:
            fvals = _converged(pfq_batch(int_spec, spectra, y_eigs=y_eigs), "integrand")
        return np.exp(log_w0) * fvals

    params = ("laplace_hypergeom", upper, lower, a, tuple(u), tuple(z), m, beta,
              inverse_arg, n_samples, seed)
    tag = "inv" if inverse_arg else "fwd"
    return _report(f"laplace-{len(upper)}f{len(lower)}-{tag}-m{m}-b{beta}",
                   params, analytic, n_samples, seed, draw)


def verify_euler_1f1_integral(
    a: float,
    cpar: float,
    x_eigs,
    m: int,
    algebra: DivisionAlgebra,
    n_samples: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Euler-type integral representation of the confluent series: the
    beta-weighted average of etr(XY) over 0 < Y < I equals 1F1(a; c; X)."""
    beta, c = _cone_beta(algebra, m)
    if not (cpar > a + c and a > c):
        raise DomainError(f"requires c > a + (m-1)*beta/2 and a > (m-1)*beta/2 = {c}")
    x = np.asarray(x_eigs, dtype=float)
    series = pfq(HypergeomSpec((a,), (cpar,), algebra, m), x)
    analytic = series.value

    def draw(rng, count):
        u = _matrix_beta1(m, algebra, a, cpar - a, rng, count)
        return np.exp(_mat2.trace_diag(u, x))

    params = ("euler_1f1", a, cpar, tuple(x), m, beta, n_samples, seed)
    return _report(f"euler-1f1-m{m}-b{beta}", params, analytic, n_samples, seed, draw)


# ---------------------------------------------------------------------------
# Group integrals
# ---------------------------------------------------------------------------


def verify_stiefel_0f1(
    xx_eigs,
    m: int,
    n: int,
    algebra: DivisionAlgebra,
    n_samples: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Average of etr(beta X H1) over the first m columns of a Haar matrix
    against 0F1(beta n / 2; beta^2 X X* / 4); beta in {1, 2}."""
    if algebra.beta not in (1, 2):
        raise UnsupportedParameterError("Stiefel check supports beta in {1, 2}")
    if n < m:
        raise DomainError(f"requires n >= m, got n = {n} < m = {m}")
    beta = algebra.beta
    xx = np.asarray(xx_eigs, dtype=float)
    if np.any(xx < 0):
        raise DomainError("xx_eigs are eigenvalues of X X* and must be nonnegative")
    analytic = pfq(
        HypergeomSpec((), (beta * n / 2.0,), algebra, m), (beta**2 / 4.0) * xx
    ).value
    root = np.sqrt(xx)

    def draw(rng, count):
        # the first m columns of an n x n Haar draw, from the same Gaussian:
        # Gram-Schmidt reads no later column
        h = _mat2.unitary_factor(_gaussian(n, algebra, rng, count)[:, :, :m])
        diag = np.einsum("bii->bi", h[:, :m])
        # trace in the algebra means the real part for the complex case
        tr = _mat2.row_sums(root[None, :] * diag).real
        return np.exp(beta * tr)

    params = ("stiefel", tuple(xx), m, n, algebra.beta, n_samples, seed)
    return _report(f"stiefel-0f1-m{m}-n{n}-b{beta}", params, analytic, n_samples, seed, draw)


def verify_two_matrix_0f0(
    x_eigs,
    y_eigs,
    m: int,
    algebra: DivisionAlgebra,
    n_samples: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Haar average of etr(X H Y H*) against the two-argument exponential
    series; beta in {1, 2, 4}.  The integrand reads H only through its
    squared moduli |h_ij|^2 in the algebra."""
    x = np.asarray(x_eigs, dtype=float)
    y = np.asarray(y_eigs, dtype=float)
    analytic = pfq_two(HypergeomSpec((), (), algebra, m), x, y).value

    def draw(rng, count):
        # Re tr(X H Y H*) = sum_ij x_i y_j |h_ij|^2 in the algebra
        w = _mat2.moduli_sq(_haar_batch(m, algebra, rng, count))
        return np.exp(np.einsum("i,bij,j->b", x, w, y))

    params = ("two_matrix_0f0", tuple(x), tuple(y), m, algebra.beta, n_samples, seed)
    return _report(f"two-matrix-0f0-m{m}-b{algebra.beta}", params, analytic, n_samples, seed, draw)


# ---------------------------------------------------------------------------
# Default identity suite
# ---------------------------------------------------------------------------


def _case_seed(base: int, label: str) -> int:
    return base + (zlib.crc32(label.encode()) & 0xFFFF)


def default_suite(quick: bool = False, seed: int = 20260811):
    """The curated identity list behind ``jackdiv verify all``.

    Returns (label, thunk) pairs; each thunk runs one Monte Carlo check and
    returns its report, judged at the default thresholds (:func:`run_suite`
    applies the caller's).  ``quick`` divides the sample budgets by five.
    """
    from .core import COMPLEX, QUATERNION, REAL

    div = 5 if quick else 1
    n_haar = 100_000 // div
    n_cone = 400_000 // div
    n_big = 1_000_000 // div

    P_ = Partition
    cases = []

    def add(label, fn, *args, **kw):
        cases.append((label, partial(fn, *args, seed=_case_seed(seed, label), **kw)))

    add("split/m2/b1/k21", verify_split_integral,
        P_((2, 1)), (1.0, 2.0), (3.0, 1.0), 2, REAL, n_haar)
    add("split/m2/b2/k2", verify_split_integral,
        P_((2,)), (1.0, 2.0), (3.0, 1.0), 2, COMPLEX, n_haar)
    add("split/m2/b4/k21", verify_split_integral,
        P_((2, 1)), (1.0, 2.0), (3.0, 1.0), 2, QUATERNION, n_haar)
    add("split/m3/b1/k3", verify_split_integral,
        P_((3,)), (1.0, 2.0, 0.5), (2.0, 1.0, 1.0), 3, REAL, n_haar)

    add("laplace-jack/m1/b1", verify_laplace_jack,
        1.3, P_((2,)), (0.8,), (1.2,), 1, REAL, n_cone)
    add("laplace-jack/m2/b1/std", verify_laplace_jack,
        1.7, P_((2,)), (1.0, 0.5), (1.0, 1.0), 2, REAL, n_cone)
    add("laplace-jack/m2/b1/corrected", verify_laplace_jack,
        0.25, P_((1, 1)), (1.0, 0.5), (1.0, 1.0), 2, REAL, n_big)
    add("laplace-jack/m2/b2/corrected", verify_laplace_jack,
        0.9, P_((2, 1)), (1.0, 0.5), (1.5, 1.0), 2, COMPLEX, n_big)

    add("beta-jack/fwd/m2/b2", verify_beta_jack,
        2.0, 3.0, P_((1, 1)), (1.0, 0.7), 2, COMPLEX, False, n_cone)
    add("beta-jack/fwd/m2/b1/corrected", verify_beta_jack,
        0.3, 2.0, P_((1, 1)), (1.0, 0.7), 2, REAL, False, n_big)
    add("beta-jack/inv/m2/b1", verify_beta_jack,
        4.6, 2.0, P_((2,)), (1.0, 0.7), 2, REAL, True, n_cone)

    add("radial/exp/inv", verify_radial_kernel,
        "exp", 3.3, P_((1,)), (0.8, 0.4), (1.0, 1.3), 2, REAL, True, n_cone)
    add("radial/exp-power/fwd", verify_radial_kernel,
        "exp_power", 1.4, P_((2,)), (0.8, 0.4), (1.0, 1.3), 2, REAL, False, n_cone, j_power=1)
    add("radial/pareto/inv", verify_radial_kernel,
        "pareto", 3.2, P_((1,)), (0.8, 0.4), (1.0, 1.3), 2, REAL, True, n_cone, eta=4.0)

    add("beta2/r1/m2/b1", verify_beta2_jack,
        5.6, 1.8, P_((1, 1)), (1.0, 0.6), 2, REAL, "r1", n_cone)
    add("beta2/r1/m2/b1/corrected", verify_beta2_jack,
        5.3, 0.3, P_((1, 1)), (1.0, 0.6), 2, REAL, "r1", n_big)
    add("beta2/r2/m2/b2", verify_beta2_jack,
        2.0, 6.1, P_((2,)), (1.0, 0.6), 2, COMPLEX, "r2", n_cone)

    add("incomplete/gamma-lower", verify_incomplete,
        "gamma_lower", 2, REAL, 1.5, lambda_eigs=(1.0, 0.5), omega_eigs=(1.2, 0.8), n_samples=n_cone)
    add("incomplete/beta", verify_incomplete,
        "beta", 2, REAL, 1.4, b=2.2, xi_eigs=(0.55, 0.3), n_samples=n_cone)
    add("incomplete/gamma-upper", verify_incomplete,
        "gamma_upper", 2, REAL, 3.5, lambda_eigs=(1.0, 0.7), omega_eigs=(1.0, 0.6), n_samples=n_cone)

    add("laplace-hg/0f0-to-1f0", verify_laplace_hypergeom,
        (), (), 1.8, (0.25, 0.1), (1.3, 1.1), 2, REAL, n_samples=n_cone)
    add("laplace-hg/1f1-to-2f1", verify_laplace_hypergeom,
        (0.9,), (2.3,), 2.1, (0.3, 0.15), (1.4, 1.2), 2, COMPLEX, n_samples=n_haar)
    add("laplace-hg/inv-terminating", verify_laplace_hypergeom,
        (-2.0,), (2.7,), 3.6, (-0.4, -0.2), (1.0, 0.8), 2, REAL, inverse_arg=True, n_samples=n_cone)
    add("laplace-hg/two-arg-0f0", verify_laplace_hypergeom,
        (), (), 1.9, (0.3, 0.12), (1.5, 1.2), 2, COMPLEX, y_eigs=(0.7, 0.3), n_samples=n_haar // 2)

    add("euler-integral/1f1", verify_euler_1f1_integral,
        1.6, 3.4, (0.8, 0.3), 2, REAL, n_cone)

    add("stiefel/m1/b1", verify_stiefel_0f1,
        (0.81,), 1, 2, REAL, n_haar)
    add("stiefel/m2/b1", verify_stiefel_0f1,
        (0.9, 0.4), 2, 4, REAL, n_haar)
    add("stiefel/m2/b2", verify_stiefel_0f1,
        (0.9, 0.4), 2, 4, COMPLEX, n_haar)

    add("two-matrix-0f0/b1", verify_two_matrix_0f0,
        (0.5, 0.2), (0.3, 0.1), 2, REAL, n_haar)
    add("two-matrix-0f0/b2", verify_two_matrix_0f0,
        (0.5, 0.2), (0.3, 0.1), 2, COMPLEX, n_haar)
    add("two-matrix-0f0/b4", verify_two_matrix_0f0,
        (0.5, 0.2), (0.3, 0.1), 2, QUATERNION, n_haar)

    return cases


def run_suite(quick: bool = False, seed: int = 20260811, only: str | None = None,
              z_max: float = DEFAULT_Z_MAX, rel_max: float = DEFAULT_REL_MAX):
    """Run the default suite (optionally filtered by substring) and return
    the reports in declaration order, each judged once more against
    ``z_max`` and ``rel_max`` (the checks judge at the defaults)."""
    reports = []
    for label, thunk in default_suite(quick=quick, seed=seed):
        if only and only not in label:
            continue
        reports.append(replace(thunk(), z_max=z_max, rel_max=rel_max))
    return reports
