import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc, gammaln, gammasgn

from jackdiv.core import DivisionAlgebra, DomainError, Partition, enumerate_partitions
from jackdiv.jack import jack_C
from jackdiv.special import (
    _signed_loggamma,
    gamma_lower_regularized,
    gen_pochhammer,
    lgamma_run,
    mv_beta,
    mv_beta_ln,
    mv_gamma,
    mv_gamma_ln,
    mv_gamma_weighted,
    mv_gamma_weighted_ln,
)

from oracles import m2_laplace_jack_cone

ALGEBRAS = [DivisionAlgebra(b) for b in (1, 2, 4, 8)]


class TestMvGamma:
    def test_scalar_cases(self):
        assert mv_gamma(1, DivisionAlgebra(1), 0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert mv_gamma(2, DivisionAlgebra(1), 1.5) == pytest.approx(math.pi / 2, rel=1e-14)
        assert mv_gamma(2, DivisionAlgebra(2), 2.0) == pytest.approx(math.pi, rel=1e-14)

    def test_gamma_product_oracle(self):
        # plain product of scalar gammas with the half-integer shifts
        for alg in ALGEBRAS:
            for m in (1, 2, 3, 4):
                a = (m - 1) * alg.beta / 2 + 1.3
                direct = math.pi ** (m * (m - 1) * alg.beta / 4)
                for i in range(1, m + 1):
                    direct *= math.gamma(a - (i - 1) * alg.beta / 2)
                assert mv_gamma(m, alg, a) == pytest.approx(direct, rel=1e-12)

    def test_domain_error_names_condition(self):
        with pytest.raises(DomainError, match=r"\(m-1\)\*beta/2"):
            mv_gamma(3, DivisionAlgebra(2), 2.0)

    @pytest.mark.filterwarnings("error")
    def test_past_the_float_range_is_domain_error(self):
        assert math.isfinite(mv_gamma_ln(2, DivisionAlgebra(1), 200.0))
        with pytest.raises(DomainError, match=r"a = 200\.0 leaves the float range; use mv_gamma_ln"):
            mv_gamma(2, DivisionAlgebra(1), 200.0)

    def test_product_orderings_bit_identical(self):
        # both gamma-shift orderings produce the same multiset of summands
        for alg in ALGEBRAS:
            m, a = 4, (4 - 1) * alg.beta / 2 + 0.7
            asc = [m * (m - 1) * alg.beta / 4 * math.log(math.pi)]
            asc += [math.lgamma(a - (i - 1) * alg.beta / 2) for i in range(1, m + 1)]
            desc = [m * (m - 1) * alg.beta / 4 * math.log(math.pi)]
            desc += [math.lgamma(a - (m - i) * alg.beta / 2) for i in range(1, m + 1)]
            assert math.fsum(asc) == math.fsum(desc) == mv_gamma_ln(m, alg, a)


class TestGenPochhammer:
    def test_empty_partition(self):
        for alg in ALGEBRAS:
            assert gen_pochhammer(1.7, Partition(()), alg) == 1.0

    def test_single_row(self):
        for alg in ALGEBRAS:
            a = 1.3
            assert gen_pochhammer(a, Partition((2,)), alg) == pytest.approx(a * (a + 1))

    def test_two_rows(self):
        for alg in ALGEBRAS:
            a = 0.8
            expected = a * (a - alg.beta / 2)
            assert gen_pochhammer(a, Partition((1, 1)), alg) == pytest.approx(expected)

    def test_can_vanish_or_go_negative(self):
        alg = DivisionAlgebra(2)
        assert gen_pochhammer(0.0, Partition((2,)), alg) == 0.0
        assert gen_pochhammer(-0.5, Partition((1,)), alg) < 0


class TestWeightedGamma:
    def test_empty_weight_reduces_to_plain(self):
        for alg in ALGEBRAS:
            a = (3 - 1) * alg.beta / 2 + 0.9
            got = mv_gamma_weighted(3, alg, a, Partition(()), +1)
            assert got == pytest.approx(mv_gamma(3, alg, a), rel=1e-14)

    def test_scalar_plus_weights(self):
        alg = DivisionAlgebra(1)
        assert mv_gamma_weighted(1, alg, 3.0, Partition((2,)), +1) == pytest.approx(24.0, rel=1e-13)  # Gamma(5)
        assert mv_gamma_weighted(1, alg, 5.0, Partition((2,)), -1) == pytest.approx(2.0, rel=1e-13)  # Gamma(3)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_plus_weight_is_pochhammer_times_gamma(self, alg):
        for m in (1, 2, 3, 4):
            for k in range(0, 7):
                for p in enumerate_partitions(k, m):
                    for da in (0.4, 1.1, 2.6):
                        a = (m - 1) * alg.beta / 2 + da
                        lhs = mv_gamma_weighted_ln(m, alg, a, p, +1)
                        rhs = math.log(gen_pochhammer(a, p, alg)) + mv_gamma_ln(m, alg, a)
                        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_minus_weight_reflection(self, alg):
        for m in (1, 2, 3):
            for parts in [(1,), (2,), (2, 1), (2, 2)]:
                p = Partition(parts)
                if p.length > m:
                    continue
                a = (m - 1) * alg.beta / 2 + p.part(1) + 0.7
                lhs = mv_gamma_weighted(m, alg, a, p, -1)
                refl = (-1) ** p.weight * mv_gamma(m, alg, a) / gen_pochhammer(
                    -a + (m - 1) * alg.beta / 2 + 1, p, alg
                )
                assert lhs == pytest.approx(refl, rel=1e-12)

    def test_domain_conditions(self):
        alg = DivisionAlgebra(2)
        p = Partition((3, 1))
        # sign=+ bound is c - k_m; sign=- bound is c + k_1
        with pytest.raises(DomainError, match="k_m"):
            mv_gamma_weighted(2, alg, -0.2, p, +1)
        with pytest.raises(DomainError, match="k_1"):
            mv_gamma_weighted(2, alg, 3.5, p, -1)
        # inside the shifted domain even below the classical bound
        assert math.isfinite(mv_gamma_weighted_ln(2, alg, 0.5, Partition((2, 2)), +1))

    @pytest.mark.filterwarnings("error")
    def test_past_the_float_range_is_domain_error(self):
        q = (2, DivisionAlgebra(1), 200.0, Partition((1,)), +1)
        assert math.isfinite(mv_gamma_weighted_ln(*q))
        with pytest.raises(DomainError, match=r"a = 200\.0 leaves the float range; use mv_gamma_weighted_ln"):
            mv_gamma_weighted(*q)


# each refusal of the gammas and its full text
_REFUSALS = [
    (lambda: mv_gamma_ln(2, DivisionAlgebra(1), 0.3),
     "multivariate gamma requires a > (m-1)*beta/2 = 0.5, a finite, got a = 0.3"),
    (lambda: mv_gamma_weighted_ln(2, DivisionAlgebra(2), -0.2, Partition((3, 1)), +1),
     "weighted gamma requires a > (m-1)*beta/2 - k_m = 0.0, a finite, got a = -0.2"),
    (lambda: mv_gamma_weighted(2, DivisionAlgebra(2), 3.5, Partition((3, 1)), -1),
     "weighted gamma requires a > (m-1)*beta/2 + k_1 = 4.0, a finite, got a = 3.5"),
    (lambda: mv_gamma_weighted_ln(0, DivisionAlgebra(2), 3.5, Partition((3, 1)), -1), "m must be >= 1, got 0"),
    (lambda: mv_gamma_ln(0, DivisionAlgebra(1), 1.0), "m must be >= 1, got 0"),
    (lambda: mv_gamma_weighted_ln(2, DivisionAlgebra(2), 3.5, Partition((3, 1)), 0),
     "sign must be +1 or -1, got 0"),
    (lambda: mv_gamma_weighted(2, DivisionAlgebra(1), 3.5, Partition((3, 2, 1))),
     "weight partition has 3 parts but m = 2"),
]


@pytest.mark.parametrize("call, message", _REFUSALS, ids=["plain", "weighted-plus", "weighted-minus", "weighted-m",
                                                          "plain-m", "sign", "weight-length"])
def test_refusal_messages_in_full(call, message):
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == message


class TestConeLaplaceJack:
    """The Laplace-Jack identity at m = 2, beta = 4 and 8: Gamma_2[a, kappa]
    |Z|^-a C_kappa(R Z^-1) against the cone integral summed by an exact Gauss
    rule, which shares no code with the gammas or the Jack recurrence."""

    R, Z = (1.0, 0.5), (1.0, 1.1)

    @staticmethod
    def closed_form(a, kappa, r, z, alg):
        weight = Partition(tuple(k for k in kappa if k))
        log_gamma = mv_gamma_weighted_ln(2, alg, a, weight) - a * math.log(z[0] * z[1])
        return math.exp(log_gamma) * jack_C(weight, (r[0] / z[0], r[1] / z[1]), alg)

    @pytest.mark.parametrize("beta", [4, 8])
    @pytest.mark.parametrize("kappa", [(2, 1), (3, 0), (2, 2)], ids=["21", "3", "22"])
    def test_identity(self, beta, kappa):
        a = beta / 2 + 1.3
        want = m2_laplace_jack_cone(a, kappa, self.R, self.Z, beta)
        got = self.closed_form(a, kappa, self.R, self.Z, DivisionAlgebra(beta))
        # measured: at most 2.6e-15
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("beta", [4, 8])
    def test_a_wrong_measure_fails(self, beta):
        # the sphere exponent off by 1/2 misses by 185-434%
        a = beta / 2 + 1.3
        want = m2_laplace_jack_cone(a, (2, 1), self.R, self.Z, beta, sphere=beta / 2 + 0.5)
        got = self.closed_form(a, (2, 1), self.R, self.Z, DivisionAlgebra(beta))
        assert abs(got - want) > 0.5 * got


class TestMvBeta:
    def test_scalar_cases(self):
        alg = DivisionAlgebra(1)
        assert mv_beta(1, alg, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert mv_beta(1, alg, 2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_gamma_product_oracle(self):
        alg = DivisionAlgebra(2)
        got = mv_beta(2, alg, 2.0, 2.0)
        want = mv_gamma(2, alg, 2.0) ** 2 / mv_gamma(2, alg, 4.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_symmetry_exact(self):
        for alg in ALGEBRAS:
            a, b = (2 - 1) * alg.beta / 2 + 0.4, (2 - 1) * alg.beta / 2 + 1.9
            assert mv_beta(2, alg, a, b) == mv_beta(2, alg, b, a)

    def test_domain(self):
        with pytest.raises(DomainError):
            mv_beta(3, DivisionAlgebra(4), 1.0, 9.0)

    @pytest.mark.filterwarnings("error")
    def test_past_the_float_range_is_domain_error(self):
        # B(a, a) ~ 2/a near 0: past the float range at a = 1e-310
        with pytest.raises(DomainError, match=r"a = 1e-310, b = 1e-310 leaves the float range; use mv_beta_ln"):
            mv_beta(1, DivisionAlgebra(1), 1e-310, 1e-310)

    @pytest.mark.parametrize("a", [1e3, 1e6, 1e10, 1e15, 1e20, 1e306])
    def test_large_a_keeps_relative_accuracy(self, a):
        # B_2(a, 1) = pi / (a (a - 1/2)) at beta = 1; the three log Gamma_2,
        # of size a log a, once cancelled to 3.9 of error at a = 1e15
        with mpmath.workdps(60):
            want = mpmath.log(mpmath.pi) - mpmath.log(mpmath.mpf(a) * (mpmath.mpf(a) - 0.5))
            for got in (mv_beta_ln(2, REAL, a, 1.0), mv_beta_ln(2, REAL, 1.0, a)):
                assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: f"b{alg.beta}")
    def test_large_arguments_against_mpmath(self, alg, m):
        c = (m - 1) * alg.beta / 2
        for a, b in [(40.0, c + 0.7), (1e5, c + 3.1), (50.0, 1e4), (c + 0.01, 1e12), (1e8, 1e8)]:
            with mpmath.workdps(60):
                def log_gamma_m(x):
                    return m * (m - 1) * alg.beta / 4 * mpmath.log(mpmath.pi) + sum(
                        mpmath.loggamma(x - i * mpmath.mpf(alg.beta) / 2) for i in range(m))
                x, y = mpmath.mpf(a), mpmath.mpf(b)
                want = log_gamma_m(x) + log_gamma_m(y) - log_gamma_m(x + y)
                assert abs(mv_beta_ln(m, alg, a, b) - want) <= 1e-14 * abs(want), (a, b)

    @pytest.mark.parametrize("a, b", [(1e306, 1e306), (3e305, 2.6e305), (1e5, 1e5), (40.0, 35.0), (32.0, 32.0)])
    def test_both_arguments_large_against_mpmath(self, a, b):
        # from min(a, b) = 32 on each row is one Stirling expression, finite
        # where log Gamma(min(a, b)) leaves the float range (2.6e305)
        with mpmath.workdps(60 + int(math.log10(a))):
            x, y = mpmath.mpf(a), mpmath.mpf(b)
            want = sum(mpmath.loggamma(v) + mpmath.loggamma(v - 0.5) for v in (x, y))
            want += 0.5 * mpmath.log(mpmath.pi) - mpmath.loggamma(x + y) - mpmath.loggamma(x + y - 0.5)
            # measured: at most 1.7e-16
            assert abs(mv_beta_ln(2, REAL, a, b) - want) <= 1e-15 * abs(want)

    def test_past_the_float_range_of_its_log_is_domain_error(self):
        # log B_1(a, a) is -2a log 2 to 1e-305 relative, log B_2(a, a) twice that
        assert mv_beta_ln(1, REAL, 1e308, 1e308) == pytest.approx(-1e308 * (2 * math.log(2)), rel=1e-15)
        with pytest.raises(DomainError, match=r"log of the multivariate beta at a = 1e\+308, b = 1e\+308 leaves"):
            mv_beta_ln(2, REAL, 1e308, 1e308)

    def test_small_arguments_keep_the_gamma_sum(self):
        # below 32 the value is the three multivariate gammas as before, bit for bit
        for m, alg, a, b in [(2, REAL, 1.7, 2.75), (2, DivisionAlgebra(2), 2.0, 3.0), (2, REAL, 5.6, 1.8),
                             (2, REAL, 1.5, 1.5), (3, DivisionAlgebra(4), 31.9, 9.0)]:
            assert mv_beta_ln(m, alg, a, b) == (mv_gamma_ln(m, alg, a) + mv_gamma_ln(m, alg, b)
                                                - mv_gamma_ln(m, alg, a + b))

    def test_underflow_is_domain_error(self):
        # log B is finite at a = 1e200, B itself is 3e-400
        assert math.isfinite(mv_beta_ln(2, REAL, 1e200, 1.0))
        with pytest.raises(DomainError, match=r"a = 1e\+200, b = 1.0 leaves the float range; use mv_beta_ln"):
            mv_beta(2, REAL, 1e200, 1.0)


REAL = DivisionAlgebra(1)
# every gamma and beta, called with the argument ``a``
_GAMMAS = {
    "mv_gamma": lambda a: mv_gamma(2, REAL, a),
    "mv_gamma_ln": lambda a: mv_gamma_ln(2, REAL, a),
    "mv_gamma_weighted": lambda a: mv_gamma_weighted(2, REAL, a, Partition((1,))),
    "mv_gamma_weighted_ln": lambda a: mv_gamma_weighted_ln(2, REAL, a, Partition((1,)), -1),
    "mv_beta": lambda a: mv_beta(2, REAL, a, 1.0),
    "mv_beta_ln": lambda a: mv_beta_ln(2, REAL, a, 1.0),
    "mv_beta_ln-b": lambda a: mv_beta_ln(2, REAL, 1.0, a),
}


class TestArgumentPastTheFloatRange:
    # math.lgamma overflows from a = 2.6e305 on; at a = inf the gammas once
    # returned inf and the betas nan.  log B(a, 1) is finite at a = 1e306
    # (TestMvBeta), and B(a, 1) = 3e-612 leaves the float range below.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, a", [(name, a) for name in _GAMMAS for a in (1e306, math.inf)
                                         if not (name.startswith("mv_beta_ln") and a == 1e306)])
    def test_is_domain_error(self, name, a):
        with pytest.raises(DomainError, match=re.escape(f" = {a!r}")):
            _GAMMAS[name](a)

    def test_log_gamma_sum_past_the_float_range_is_domain_error(self):
        # each log-gamma term is finite at a = 1.3e305, their sum at m = 2 is not
        assert math.isfinite(mv_gamma_ln(1, REAL, 1.3e305))
        with pytest.raises(DomainError, match=r"a = 1\.3e\+305 leaves the float range"):
            mv_gamma_ln(2, REAL, 1.3e305)

    def test_signed_loggamma_overflow_names_a(self):
        with pytest.raises(DomainError, match=r"log-gamma at a = 1e\+306 leaves the float range"):
            _signed_loggamma(1e306)
        assert _signed_loggamma(2.5e305) == (math.lgamma(2.5e305), 1.0)

    def test_finite_values_keep_their_bits(self):
        for a in (0.7, 3.0, 171.5, 1e300):
            assert mv_gamma_ln(2, REAL, a) == math.fsum([0.5 * math.log(math.pi), math.lgamma(a),
                                                         math.lgamma(a - 0.5)])


class TestSignedLogGamma:
    @pytest.mark.parametrize("a", [-0.5, -1.5, -2.25, -3.9, -7.1, -50.5, -170.3, -0.001, 0.3, 2.5, 171.2])
    def test_matches_scipy_off_the_poles(self, a):
        value, sign = _signed_loggamma(a)
        assert sign == gammasgn(a)
        # math.lgamma is within a few ulps: 5.4e-16 of max(1, |value|) at -3.9
        assert abs(value - float(gammaln(a))) <= 1e-15 * max(1.0, abs(value))

    @pytest.mark.parametrize("a", [0.0, -1.0, -4.0, -60.0])
    def test_poles_raise(self, a):
        with pytest.raises(DomainError, match="pole"):
            _signed_loggamma(a)


class TestLgammaRun:
    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    @pytest.mark.parametrize("size", [0, 1, 127, 128, 129, 1000, 6000])
    def test_matches_scipy_gammaln(self, beta, size):
        for start in (0.5, 1.0, beta / 2, beta / 2 + 1):
            run = lgamma_run(start, size)
            want = gammaln(start + np.arange(size + 1, dtype=float))
            assert run.shape == (size + 1,) and run[0] == math.lgamma(start)
            # measured: at most 6.6e-16 of max(1, |value|)
            assert np.all(np.abs(run - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


_ORDERS = list(range(1, 31)) + list(range(37, 252, 17)) + [251]


class TestGammaLowerRegularized:
    @pytest.mark.parametrize("order", _ORDERS)
    def test_matches_mpmath_on_both_sides_of_the_order(self, order):
        mpmath.mp.dps = 30
        xs = np.geomspace(1e-3, 745.0, 40).tolist()
        xs += [order * (1 - 1e-9), float(order), order * (1 + 1e-9), order - 0.5, order + 0.5]
        for x in xs:
            want = mpmath.gammainc(order, 0, x, regularized=True)
            if want < mpmath.mpf("1e-300"):
                continue
            got = gamma_lower_regularized(order, x)
            # measured: worst 1.6e-13 (order 190, x = 2.9, where the value is
            # 1e-270), scipy's own 2.1e-13 on this grid
            assert abs(mpmath.mpf(got) / want - 1) < 3e-13, (order, x)

    def test_matches_scipy_gammainc(self):
        for order in _ORDERS:
            for x in np.geomspace(1e-3, 745.0, 200):
                want = float(gammainc(order, x))
                got = gamma_lower_regularized(order, float(x))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (order, x)

    def test_limits(self):
        for order in (1, 7, 251):
            assert gamma_lower_regularized(order, 0.0) == 0.0
            assert gamma_lower_regularized(order, math.inf) == 1.0
        assert gamma_lower_regularized(1, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-15)
