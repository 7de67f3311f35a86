import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc, gammaln, gammasgn

from jackdiv.core import DivisionAlgebra, DomainError, Partition, enumerate_partitions
from jackdiv.special import (
    WeightedGammaQuery,
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
            q = WeightedGammaQuery(a, 3, alg, Partition(()), +1)
            assert mv_gamma_weighted(q) == pytest.approx(mv_gamma(3, alg, a), rel=1e-14)

    def test_scalar_plus_weights(self):
        alg = DivisionAlgebra(1)
        q = WeightedGammaQuery(3.0, 1, alg, Partition((2,)), +1)
        assert mv_gamma_weighted(q) == pytest.approx(24.0, rel=1e-13)  # Gamma(5)
        q = WeightedGammaQuery(5.0, 1, alg, Partition((2,)), -1)
        assert mv_gamma_weighted(q) == pytest.approx(2.0, rel=1e-13)  # Gamma(3)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_plus_weight_is_pochhammer_times_gamma(self, alg):
        for m in (1, 2, 3, 4):
            for k in range(0, 7):
                for p in enumerate_partitions(k, m):
                    for da in (0.4, 1.1, 2.6):
                        a = (m - 1) * alg.beta / 2 + da
                        q = WeightedGammaQuery(a, m, alg, p, +1)
                        lhs = mv_gamma_weighted_ln(q)
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
                q = WeightedGammaQuery(a, m, alg, p, -1)
                lhs = mv_gamma_weighted(q)
                refl = (-1) ** p.weight * mv_gamma(m, alg, a) / gen_pochhammer(
                    -a + (m - 1) * alg.beta / 2 + 1, p, alg
                )
                assert lhs == pytest.approx(refl, rel=1e-12)

    def test_domain_conditions(self):
        alg = DivisionAlgebra(2)
        p = Partition((3, 1))
        # sign=+ bound is c - k_m; sign=- bound is c + k_1
        with pytest.raises(DomainError, match="k_m"):
            mv_gamma_weighted(WeightedGammaQuery(-0.2, 2, alg, p, +1))
        with pytest.raises(DomainError, match="k_1"):
            mv_gamma_weighted(WeightedGammaQuery(3.5, 2, alg, p, -1))
        # inside the shifted domain even below the classical bound
        q = WeightedGammaQuery(0.5, 2, alg, Partition((2, 2)), +1)
        assert math.isfinite(mv_gamma_weighted_ln(q))

    @pytest.mark.filterwarnings("error")
    def test_past_the_float_range_is_domain_error(self):
        q = WeightedGammaQuery(200.0, 2, DivisionAlgebra(1), Partition((1,)), +1)
        assert math.isfinite(mv_gamma_weighted_ln(q))
        with pytest.raises(DomainError, match=r"a = 200\.0 leaves the float range; use mv_gamma_weighted_ln"):
            mv_gamma_weighted(q)


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


REAL = DivisionAlgebra(1)
# every gamma and beta, called with the argument ``a``
_GAMMAS = {
    "mv_gamma": lambda a: mv_gamma(2, REAL, a),
    "mv_gamma_ln": lambda a: mv_gamma_ln(2, REAL, a),
    "mv_gamma_weighted": lambda a: mv_gamma_weighted(WeightedGammaQuery(a, 2, REAL, Partition((1,)))),
    "mv_gamma_weighted_ln": lambda a: mv_gamma_weighted_ln(WeightedGammaQuery(a, 2, REAL, Partition((1,)), -1)),
    "mv_beta": lambda a: mv_beta(2, REAL, a, 1.0),
    "mv_beta_ln": lambda a: mv_beta_ln(2, REAL, a, 1.0),
    "mv_beta_ln-b": lambda a: mv_beta_ln(2, REAL, 1.0, a),
}


class TestArgumentPastTheFloatRange:
    # math.lgamma overflows from a = 2.6e305 on; at a = inf the gammas once
    # returned inf and the betas nan
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [1e306, math.inf])
    @pytest.mark.parametrize("name", list(_GAMMAS))
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
