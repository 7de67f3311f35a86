import math

import numpy as np
import pytest

from jackdiv.core import DivisionAlgebra, DomainError, Partition, enumerate_partitions
from jackdiv.special import (
    WeightedGammaQuery,
    gen_pochhammer,
    mv_beta,
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
