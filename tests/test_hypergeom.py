import dataclasses
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from jackdiv import hypergeom
from jackdiv.core import DivisionAlgebra, DomainError, Partition, enumerate_partitions
from jackdiv.hypergeom import (
    HypergeomSpec,
    _exp_split,
    _run_series,
    _scaled,
    _series,
    SeriesResult,
    SeriesTruncation,
    euler_2f1,
    kummer_1f1,
    pfq,
    pfq_batch,
    pfq_positive_m2,
    pfq_two,
    ray_series,
)
from jackdiv.special import mv_gamma_ln

from memos import clear_memos
from oracles import (hciz_0f0, m2_0f0, m2_confluent, m2_laplace_pfq_cone, pfq_positive_m2_per_pair,
                     poch_ratio_by_cells, scalar_pfq)

ALGEBRAS = [DivisionAlgebra(b) for b in (1, 2, 4, 8)]
B1 = DivisionAlgebra(1)
# the high-degree engine's truncation for far tails
DEEP = SeriesTruncation(max_degree=4000, rel_tol=1e-12)


class TestSpecValidation:
    def test_lower_pole_rejected(self):
        with pytest.raises(DomainError, match="pole"):
            HypergeomSpec((1.0,), (0.0,), B1, 2)
        with pytest.raises(DomainError, match="pole"):
            # -b + (j-1)*beta/2 = 0 at j = 3 for beta = 2
            HypergeomSpec((), (2.0,), DivisionAlgebra(2), 3)
        HypergeomSpec((), (2.0,), DivisionAlgebra(2), 2)  # fine with m = 2

    def test_truncation_validation(self):
        for name, value in [("rel_tol", 0.0), ("rel_tol", 1.0), ("rel_tol", math.inf), ("max_degree", -1)]:
            with pytest.raises(DomainError, match=name):
                SeriesTruncation(**{name: value})

    @pytest.mark.parametrize("upper, lower, name", [
        ((math.nan,), (1.0,), "upper"), ((1.0, math.inf), (2.0,), "upper"),
        ((1.0,), (math.inf,), "lower"), ((1.0,), (2.0, -math.inf), "lower"), ((), (math.nan,), "lower"),
    ])
    def test_non_finite_parameter_rejected(self, upper, lower, name):
        with pytest.raises(DomainError, match=f"{name} parameters must be finite"):
            HypergeomSpec(upper, lower, B1, 2)


class TestClosedForms:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_0f0_is_exponential(self, alg):
        spec = HypergeomSpec((), (), alg, 2)
        res = pfq(spec, (0.3, -0.1))
        assert res.converged
        assert res.value == pytest.approx(math.exp(0.2), rel=1e-10)

    def test_1f0_scalar(self):
        res = pfq(HypergeomSpec((2.0,), (), B1, 1), (0.5,))
        assert res.value == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    def test_1f0_determinant_law_cross_beta(self, alg, a):
        x = np.array([0.6, 0.25])
        res = pfq(HypergeomSpec((a,), (), alg, 2), x, SeriesTruncation(max_degree=70))
        target = float(np.prod((1.0 - x) ** (-a)))
        assert res.value == pytest.approx(target, rel=1e-8)

    def test_1f0_determinant_law_three_variables(self):
        # the full m <= 3 cross-beta sweep runs in the acceptance suite
        x = np.array([0.6, 0.35, -0.2])
        res = pfq(HypergeomSpec((1.4,), (), DivisionAlgebra(2), 3),
                  x, SeriesTruncation(max_degree=70))
        target = float(np.prod((1.0 - x) ** (-1.4)))
        assert res.value == pytest.approx(target, rel=1e-8)

    def test_divergence_domain_rejected(self):
        with pytest.raises(DomainError, match="p = q\\+1"):
            pfq(HypergeomSpec((1.0, 2.0), (3.0,), B1, 1), (1.5,))
        with pytest.raises(DomainError, match="terminate"):
            pfq(HypergeomSpec((1.0, 2.0, 3.0), (4.0,), B1, 1), (0.5,))

    def test_terminating_series_allowed_beyond_unit_ball(self):
        res = pfq(HypergeomSpec((-2.0, 1.5), (2.2,), B1, 1), (1.5,))
        want = scalar_pfq((-2.0, 1.5), (2.2,), 1.5)
        assert res.converged
        assert res.value == pytest.approx(want, rel=1e-12)


class TestScalarReduction:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_m1_collapses_to_classical_series(self, alg):
        cases = [
            ((), (), 0.8),
            ((1.2,), (2.3,), 0.9),
            ((0.7, 1.4), (2.2,), 0.4),
            ((), (1.7,), 1.3),
        ]
        for upper, lower, z in cases:
            res = pfq(HypergeomSpec(upper, lower, alg, 1), (z,), SeriesTruncation(max_degree=80))
            assert res.value == pytest.approx(scalar_pfq(upper, lower, z), rel=1e-10)


class TestScalarAgainstMpmath:
    """m = 1 against mpmath at 30 digits, which shares no code with the
    series; at one variable the series is the same at every beta.  The
    digits reached (-log10 of the worst relative difference) are 12.0 for
    1F1 at the default truncation and 9.2 for 2F1 at x = 0.9 under the
    default rel_tol (10.4 up to x = 0.6)."""

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_1f1(self, alg):
        with mpmath.workdps(30):
            for a, c in ((0.5, 1.5), (2.0, 3.5), (-1.5, 2.25)):
                for x in (-6.0, -1.0, 0.3, 2.0, 7.0):
                    got = pfq(HypergeomSpec((a,), (c,), alg, 1), (x,)).value
                    want = mpmath.hyp1f1(a, c, x)
                    # measured: at most 9.4e-13 (a = 0.5, c = 1.5, x = 7)
                    assert abs(got - want) <= 1e-12 * abs(want), (a, c, x)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_2f1(self, alg):
        deep = SeriesTruncation(max_degree=400)
        with mpmath.workdps(30):
            for a, b, c in ((0.5, 1.0, 1.5), (1.25, -0.75, 2.5), (2.0, 1.5, 4.0)):
                for x, bound in ((-0.5, 1e-11), (0.3, 3e-12), (0.6, 5e-11), (0.9, 1e-9)):
                    res = pfq(HypergeomSpec((a, b), (c,), alg, 1), (x,), deep)
                    want = mpmath.hyp2f1(a, b, c, x)
                    # measured: at most 7.1e-12, 2.3e-12, 4.1e-11 and 6.6e-10 at
                    # x = -0.5, 0.3, 0.6 and 0.9 (the series' stop rule at 1e-10)
                    assert res.converged and abs(res.value - want) <= bound * abs(want), (a, b, c, x)


class TestTwoArguments:
    def test_identity_argument_reduces_to_one_argument(self):
        alg = DivisionAlgebra(2)
        spec = HypergeomSpec((1.2,), (2.5,), alg, 2)
        two = pfq_two(spec, (0.4, 0.2), (1.0, 1.0))
        one = pfq(spec, (0.4, 0.2))
        assert two.value == pytest.approx(one.value, rel=1e-12)

    def test_zero_second_argument(self):
        res = pfq_two(HypergeomSpec((), (), B1, 2), (0.5, 0.2), (0.0, 0.0))
        assert res.value == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            pfq_two(HypergeomSpec((), (), B1, 2), (0.5, 0.2), (0.3,))

    def test_norm_product_rule(self):
        with pytest.raises(DomainError):
            pfq_two(HypergeomSpec((1.0, 1.5), (2.0,), B1, 2), (1.2, 0.4), (0.9, 0.2))


class TestZeroArgument:
    @pytest.mark.parametrize("alg", ALGEBRAS)
    def test_one_at_degree_zero(self, alg):
        spec = HypergeomSpec((1.5,), (2.5,), alg, 3)
        for res in (pfq(spec, (0.0, 0.0, 0.0)), pfq_two(spec, (0.0, 0.0, 0.0), (4.0, 2.0, 1.0)),
                    pfq_two(spec, (4.0, 2.0, 1.0), (0.0, 0.0, 0.0))):
            assert (res.value, res.degrees_used, res.converged, res.log_value) == (1.0, 0, True, 0.0)
        batch = pfq_batch(spec, np.zeros((4, 3)), y_eigs=(4.0, 2.0, 1.0))
        assert batch.value.tolist() == [1.0] * 4 and batch.degrees_used == 0


class TestCouplingOracles:
    """0F0(X, Y) against closed forms that share no code with the series."""

    DEEP = SeriesTruncation(max_degree=200, rel_tol=1e-15)

    @pytest.mark.parametrize("x, y", [
        ((0.5, 0.0), (6.0, 1.5)),
        ((0.0, 0.5, 2.0 / 3.0), (22.4, 8.3, 2.5)),
        ((0.9, 0.6, 0.25, 0.0), (5.0, 3.0, 2.0, 0.5)),
    ])
    def test_hciz_determinant_at_beta_2(self, x, y):
        res = pfq_two(HypergeomSpec((), (), DivisionAlgebra(2), len(x)), x, y, self.DEEP)
        assert res.converged
        assert res.value == pytest.approx(float(hciz_0f0(x, y)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("alg", ALGEBRAS)
    @pytest.mark.parametrize("x, y", [((0.5, 0.2), (3.0, 1.0)), ((2.0, 0.0), (10.0, 2.0)),
                                      ((1.0, 0.5), (7.0, 6.0))])
    def test_m2_closed_form_at_every_beta(self, alg, x, y):
        res = pfq_two(HypergeomSpec((), (), alg, 2), x, y, self.DEEP)
        assert res.converged
        assert res.value == pytest.approx(float(m2_0f0(x, y, alg.beta)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("x, y", [
        ((6.0, 1.5), (0.5, 0.0)),
        ((22.4, 8.3, 2.5), (0.5, 0.0, -1.0 / 3.0)),
        ((5.0, 3.0, 2.0, 0.5), (0.9, 0.4, 0.0, -0.25)),
    ])
    def test_zero_in_y_only(self, x, y):
        # the first argument has full rank; the second has a zero, sorted
        # between a positive and a negative entry at m >= 3, so its rank
        # bounds the partitions of both
        for alg in ALGEBRAS if len(x) == 2 else [DivisionAlgebra(2)]:
            res = pfq_two(HypergeomSpec((), (), alg, len(x)), x, y, self.DEEP)
            want = m2_0f0(x, y, alg.beta) if len(x) == 2 else hciz_0f0(x, y)
            assert res.converged
            assert res.value == pytest.approx(float(want), rel=1e-13, abs=0)

    def test_identity_underflow_is_a_domain_error(self):
        # chat_kappa(I) at weight 181 is below the float range at beta = 8
        with pytest.raises(DomainError, match="degree 181 leave the float range"):
            pfq_two(HypergeomSpec((), (), DivisionAlgebra(8), 2), (3.996, 0.5), (45.0, 40.0),
                    SeriesTruncation(max_degree=800, rel_tol=1e-11))


class TestKummerEuler:
    def test_zero_argument(self):
        lhs, rhs = kummer_1f1(1.0, 2.5, (0.0, 0.0), DivisionAlgebra(4))
        assert lhs.value == 1.0 and rhs.value == pytest.approx(1.0, rel=1e-14)

    def test_scalar_closed_form(self):
        lhs, rhs = kummer_1f1(1.0, 2.0, (0.7,), B1)
        want = (math.exp(0.7) - 1.0) / 0.7
        assert lhs.value == pytest.approx(want, rel=1e-10)
        assert rhs.value == pytest.approx(want, rel=1e-10)

    def test_multivariate_agreement(self):
        lhs, rhs = kummer_1f1(2.0, 5.0, (0.4, 0.1), DivisionAlgebra(4))
        assert abs(lhs.value - rhs.value) <= 1e-8 * abs(lhs.value)

    def test_euler_scalar(self):
        deep = SeriesTruncation(max_degree=90, rel_tol=1e-12)
        r0, r1, r2 = euler_2f1(1.0, 1.0, 2.0, (0.4,), DivisionAlgebra(2), deep)
        want = -math.log(0.6) / 0.4
        for r in (r0, r1, r2):
            assert r.value == pytest.approx(want, rel=1e-9)
        # the 2F1 value of the half-point example, via the direct series
        direct = pfq(HypergeomSpec((1.0, 1.0), (2.0,), B1, 1), (0.5,),
                     SeriesTruncation(max_degree=150, rel_tol=1e-13))
        assert direct.value == pytest.approx(2.0 * math.log(2.0), rel=1e-9)

    def test_euler_three_way_multivariate(self):
        r0, r1, r2 = euler_2f1(0.7, 1.3, 2.4, (0.3, 0.1), B1)
        vals = [r0.value, r1.value, r2.value]
        assert max(vals) - min(vals) <= 1e-8 * abs(vals[0])

    def test_euler_zero_argument(self):
        r0, r1, r2 = euler_2f1(0.7, 1.3, 2.4, (0.0, 0.0), B1)
        assert (r0.value, r1.value, r2.value) == (1.0, 1.0, 1.0)

    def test_transformed_argument_domain(self):
        with pytest.raises(DomainError, match="unit ball"):
            euler_2f1(1.0, 1.0, 2.0, (0.5,), B1)

    def test_scale_past_the_float_range_keeps_a_finite_log(self):
        # exp(720), and the Pfaff and Euler determinant powers exp(1232) and
        # exp(1231), leave the float range: each value is +-inf, the log of a
        # positive one is finite, and nothing raises
        _, rhs = kummer_1f1(0.5, 1.5, (720.0,), B1, SeriesTruncation(max_degree=3))
        assert rhs.value == -math.inf and rhs.log_value is None
        _, pfaff, euler = euler_2f1(0.5, 2000.0, 1.5, (0.4, 0.1), B1)
        inner = pfq(HypergeomSpec((1.0, 2000.0), (1.5,), B1, 2), (-0.4 / 0.6, -0.1 / 0.9))
        log_scale = -2000.0 * math.fsum((math.log1p(-0.4), math.log1p(-0.1)))
        assert pfaff.value == euler.value == math.inf
        assert pfaff.log_value == pytest.approx(inner.log_value + log_scale, rel=1e-14, abs=0)
        assert math.isfinite(euler.log_value)

    def test_scale_past_the_float_range_of_a_small_value(self):
        # exp(720) alone overflows, 1e-10 exp(720) does not
        small = SeriesResult(1e-10, 5, 1e-12, True, math.log(1e-10))
        got = _scaled(small, 720.0)
        assert got.value == pytest.approx(math.exp(720.0 + math.log(1e-10)), rel=1e-13, abs=0)
        assert got.log_value == math.log(1e-10) + 720.0
        assert (got.degrees_used, got.last_term_ratio, got.converged) == (5, 1e-12, True)
        # in range: the product of the value and the scale, as before
        assert _scaled(small, 1.5).value == 1e-10 * math.exp(1.5)

    def test_nonpositive_values_have_no_log(self):
        # 1F1(5/2; 2; -6) < 0 because Gamma(c - a) < 0 there
        lhs, rhs = kummer_1f1(2.5, 2.0, (-6.0,), B1)
        assert rhs.value < 0 and rhs.log_value is None
        assert rhs.value == pytest.approx(lhs.value, rel=1e-9)
        # 2F1(2, -3; 1; 1/3) = 1 - 2 + 1 - 4/27, and both transforms terminate
        for r in euler_2f1(2.0, -3.0, 1.0, (1.0 / 3.0,), B1):
            assert r.value == pytest.approx(-4.0 / 27.0, rel=1e-12)
            assert r.log_value is None


class TestRestricted:
    """The exponential series split at first part r (``_exp_split``)."""

    def test_r_zero_keeps_only_empty(self):
        assert _exp_split(B1, 0, (0.4, 0.2), False) == (1.0,)
        assert _exp_split(B1, 0, (0.4, 0.2), True) == (0.0,)

    def test_scalar_truncated_exponential(self):
        below = _exp_split(B1, 2, (0.9,), False)
        assert math.fsum(below) == pytest.approx(1 + 0.9 + 0.81 / 2, rel=1e-14)
        assert _exp_split(B1, 2, (0.9,), True) == (0.0, 0.0, 0.0)

    def test_term_count_m2_r2(self):
        count = sum(len(enumerate_partitions(k, 2, 2)) for k in range(0, 5))
        assert count == 6  # enumeration oracle over k = 0..4, parts <= 2, first part <= 2
        for above in (False, True):
            assert len(_exp_split(B1, 2, (0.4, 0.2), above)) == 5  # degrees 0..m r

    def test_exactness_no_truncation_error(self):
        # both sides equal the brute-force accumulation over their partitions,
        # and each degree's sides make up (tr x)^k / k!
        from jackdiv.jack import jack_C

        x = (0.7, 0.4)
        alg = DivisionAlgebra(4)
        below, above = (_exp_split(alg, 3, x, side) for side in (False, True))
        for k in range(0, 7):
            terms = [(p.part(1), jack_C(p, x, alg) / math.factorial(k)) for p in enumerate_partitions(k, 2)]
            want_below = math.fsum(c for first, c in terms if first <= 3)
            want_above = math.fsum(c for first, c in terms if first > 3)
            assert below[k] == pytest.approx(want_below, rel=1e-14, abs=0.0)
            assert above[k] == pytest.approx(want_above, rel=1e-14, abs=0.0)
            assert below[k] + above[k] == pytest.approx(1.1 ** k / math.factorial(k), rel=1e-14)

    def test_above_at_m3_matches_the_unbounded_recurrence(self):
        # the last stage alone is cut to kappa_1 > r; the stages under it are whole
        from jackdiv.jack import ChatEvaluator, get_table

        x, alg = (0.9, 0.5, 0.2), DivisionAlgebra(2)
        full = ChatEvaluator(x, get_table(alg))
        want = [math.fsum(c for kap, c in full.degree_values(k).items() if kap and kap[0] > 2)
                for k in range(7)]
        assert _exp_split(alg, 2, x, True) == tuple(want)

    def test_memo_is_bounded(self):
        capacity = _exp_split.cache_info().maxsize
        for i in range(capacity + 8):
            _exp_split(B1, 1, (1.0 + i, 0.5), True)
        assert _exp_split.cache_info().currsize <= capacity == 32


class TestConeLaplacePfq:
    """The Laplace transform of a series at m = 2, beta = 4 and 8: the cone
    integral of etr(-XZ) |X|^(a - beta/2 - 1) 1F1(0.7; 2.3; XU), both sides
    truncated at degree K, is Gamma_2[a] |Z|^-a 2F1(0.7, a; 2.3; U Z^-1).
    The integral's integrand is then a polynomial, which the (K + 4)^3 Gauss
    rule of the oracle sums exactly with no library code."""

    U, Z, K = (0.8, 0.4), (1.0, 1.1), 6

    def closed_form(self, a, alg):
        # a tolerance no degree sum meets sums exactly K degrees
        res = pfq(HypergeomSpec((0.7, a), (2.3,), alg, 2), (self.U[0] / self.Z[0], self.U[1] / self.Z[1]),
                  SeriesTruncation(self.K, 1e-30))
        assert res.degrees_used == self.K
        return math.exp(mv_gamma_ln(2, alg, a) - a * math.log(self.Z[0] * self.Z[1])) * res.value

    @pytest.mark.parametrize("beta", [4, 8])
    def test_identity(self, beta):
        a = beta / 2 + 1.3
        want = m2_laplace_pfq_cone(a, (0.7,), (2.3,), self.K, self.U, self.Z, beta)
        got = self.closed_form(a, DivisionAlgebra(beta))
        # measured: 0 and 6.0e-16
        assert abs(got - want) <= 2e-15 * want

    @pytest.mark.parametrize("beta", [4, 8])
    def test_a_wrong_measure_fails(self, beta):
        # the sphere exponent off by 1/2 misses by 209-477%
        a = beta / 2 + 1.3
        want = m2_laplace_pfq_cone(a, (0.7,), (2.3,), self.K, self.U, self.Z, beta, sphere=beta / 2 + 0.5)
        got = self.closed_form(a, DivisionAlgebra(beta))
        assert abs(got - want) > 0.5 * got


class TestSeriesBehavior:
    def test_partial_sums_nondecreasing_for_positive_data(self):
        alg = DivisionAlgebra(2)
        spec = HypergeomSpec((1.1,), (2.7,), alg, 2)
        x = np.array([0.8, 0.5])
        values = []
        for cap in range(1, 14):
            res = pfq(spec, x, SeriesTruncation(max_degree=cap, rel_tol=1e-30))
            values.append(res.value)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_non_convergence_reported(self):
        res = pfq(HypergeomSpec((), (), B1, 2), (4.0, 2.0), SeriesTruncation(max_degree=3))
        assert not res.converged
        assert res.degrees_used == 3

    def test_converged_metadata(self):
        res = pfq(HypergeomSpec((), (), B1, 2), (0.5, 0.1), SeriesTruncation(rel_tol=1e-10))
        assert res.converged
        assert res.last_term_ratio <= 1e-10

    def test_unset_max_degree_caps_at_40(self):
        # a truncation that leaves max_degree unset sums to degree 40, the
        # cap of pfq, pfq_two and pfq_batch
        assert SeriesTruncation().max_degree is None
        spec = HypergeomSpec((), (), B1, 2)
        unset = SeriesTruncation(rel_tol=1e-30)
        for res in (pfq(spec, (4.0, 2.0), unset), pfq_two(spec, (4.0, 2.0), (1.0, 0.5), unset)):
            assert res.degrees_used == 40 and not res.converged
        assert pfq(spec, (4.0, 2.0), unset).value == pfq(spec, (4.0, 2.0), SeriesTruncation(40, 1e-30)).value

    def test_unset_rel_tol_stops_at_1e_10(self):
        # the two fields are the cap and the tolerance, and a truncation that
        # leaves rel_tol unset stops pfq, pfq_two and pfq_batch at 1e-10
        assert [f.name for f in dataclasses.fields(SeriesTruncation)] == ["max_degree", "rel_tol"]
        assert SeriesTruncation().rel_tol is None
        spec = HypergeomSpec((), (), B1, 2)
        for run in (lambda trunc: pfq(spec, (4.0, 2.0), trunc),
                    lambda trunc: pfq_two(spec, (4.0, 2.0), (1.0, 0.5), trunc),
                    lambda trunc: _series(spec, np.array([[4.0, 2.0]]), None, 4.0, trunc)):
            got, want = run(SeriesTruncation(60)), run(SeriesTruncation(60, 1e-10))
            assert got.converged and got.degrees_used == want.degrees_used < 60
            assert np.array_equal(got.value, want.value)

    @pytest.mark.parametrize("tr", [0.75, 3.0, 24.0])
    def test_ray_series_unset_cap_is_the_trace_budget(self, empty_memos, tr):
        # a RaySeries left without max_degree, from either source, sums as
        # under the cap max(40, tr + 14 sqrt(tr + 1) + 60), and one left
        # without rel_tol as under 1e-10; t1 + t2 == tr exactly
        budget = max(40, int(tr + 14 * math.sqrt(tr + 1) + 60))
        ray = ray_series(HypergeomSpec((1.5,), (3.5,), B1, 2), (2.0, 1.0))
        runs = (lambda trunc: pfq_positive_m2((1.5,), (3.5,), (2 * tr / 3, tr / 3), B1, trunc),
                lambda trunc: ray.evaluate(tr, tr, trunc))
        # a tolerance no degree sum up to the budget meets runs every series to its cap
        for rel_tol in (1e-12, 1e-300):
            for run in runs:
                got, want = run(SeriesTruncation(None, rel_tol)), run(SeriesTruncation(budget, rel_tol))
                assert (got.value, got.degrees_used) == (want.value, want.degrees_used)
                assert (got.degrees_used == budget) == (rel_tol < 1e-12)
        for run in runs:
            got = run(None)
            for want in (run(SeriesTruncation(budget)), run(SeriesTruncation(rel_tol=1e-10))):
                assert (got.value, got.degrees_used) == (want.value, want.degrees_used)

    def test_adaptive_degree_tracks_argument_size(self):
        small = pfq(HypergeomSpec((), (), B1, 1), (0.1,))
        large = pfq(HypergeomSpec((), (), B1, 1), (4.0,), SeriesTruncation(max_degree=60))
        assert small.degrees_used < large.degrees_used
        assert large.value == pytest.approx(math.exp(4.0), rel=1e-10)


class TestHighDegreeEngine:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_agrees_with_generic_engine(self, alg):
        up = (2.0 * alg.beta,)
        lo = (2.5 * alg.beta + 1.0,)
        t = (3.0, 1.5)
        a_res = pfq(HypergeomSpec(up, lo, alg, 2), t, SeriesTruncation(max_degree=80))
        b_res = pfq_positive_m2(up, lo, t, alg, DEEP)
        assert b_res.value == pytest.approx(a_res.value, rel=1e-11)
        assert b_res.converged

    def test_far_tail_log_value(self):
        res = pfq_positive_m2((5.0,), (21.0,), (96.0, 48.0), DivisionAlgebra(8), DEEP)
        assert res.converged
        assert res.log_value == pytest.approx(78.860635, abs=1e-4)

    # the fig1 series (n = 4), 1F1(beta/2 + 1; 5 beta/2 + 1; t), at t2 = 0,
    # at t1 = t2, and out to about 300 degrees
    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    @pytest.mark.parametrize("t", [(3.0, 1.5), (5.0, 0.0), (7.0, 7.0), (40.0, 20.0),
                                   (130.0, 65.0)])
    def test_matches_per_pair_sum(self, beta, t):
        up, lo = (beta / 2 + 1,), (5 * beta / 2 + 1,)
        res = pfq_positive_m2(up, lo, t, DivisionAlgebra(beta), DEEP)
        assert res.converged
        want = pfq_positive_m2_per_pair(up, lo, t, beta, res.degrees_used)
        assert res.value == pytest.approx(want, rel=1e-13, abs=0)
        assert res.log_value == pytest.approx(math.log(want), rel=1e-13, abs=0)

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_matches_closed_form_chat_at_40_digits(self, beta):
        # fig1's series against an mpmath sum of the closed-form chat, which
        # shares no code with the engine.  The error follows the size of the
        # log terms, which grows with the trace (beta/2) x 3/2: the worst
        # measured over these x is 2.0e-14, 7.1e-14, 2.2e-13 and 4.7e-13 at
        # beta = 1, 2, 4 and 8.
        up, lo = (beta / 2 + 1,), (5 * beta / 2 + 1,)
        for x in (1.0, 4.0, 9.0, 16.0, 24.0):
            t = (beta / 2 * x, beta / 4 * x)
            got = pfq_positive_m2(up, lo, t, DivisionAlgebra(beta), DEEP).value
            assert got == pytest.approx(m2_confluent(up[0], lo[0], t, beta), rel=1e-13 * beta, abs=0)

    def test_log_value_finite_beyond_float_range(self):
        # the series of cdf_lambda_max at x = 400 (beta 8, n = 4, sigma = (1, 2)),
        # where the CDF is 1 to 20 digits: log value = trace - log prefactor
        res = pfq_positive_m2((5.0,), (21.0,), (1600.0, 800.0), DivisionAlgebra(8), DEEP)
        assert res.converged and res.value == math.inf
        assert res.log_value == pytest.approx(2244.8314925621535, abs=1e-9)

    def test_degree_cap_far_below_trace_raises(self):
        with pytest.raises(DomainError, match="underflows"):
            pfq_positive_m2((5.0,), (21.0,), (1600.0, 800.0), DivisionAlgebra(8),
                            SeriesTruncation(max_degree=40, rel_tol=1e-12))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(DomainError):
            pfq_positive_m2((2.0,), (4.0,), (1.0, -0.5), B1, DEEP)

    def test_rejects_nonpositive_shifts(self):
        with pytest.raises(DomainError):
            pfq_positive_m2((1.5,), (13.0,), (10.0, 5.0), DivisionAlgebra(8), DEEP)

    @pytest.mark.parametrize("upper, lower, t, message", [
        # once an OverflowError from the tables
        ((1.0, 1.0, 1.0), (), (5.0, 2.0), "is confluent: one upper and one lower"),
        # once 4.36e43, unconverged, where pfq refuses p = q + 1 at max |x| >= 1
        ((1.0, 1.0), (2.0,), (3.0, 1.0), "is confluent: one upper and one lower"),
        ((2.0,), (), (3.0, 1.0), "is confluent: one upper and one lower"),
        ((3.0,), (2.0,), (3.0, 1.0), "needs finite a <= c, got a = 3.0, c = 2.0"),
        ((1.0,), (math.inf,), (3.0, 1.0), "needs finite a <= c"),
        ((math.nan,), (2.0,), (3.0, 1.0), "needs finite a <= c"),
    ], ids=["3f0", "2f1", "1f0", "a-above-c", "c-inf", "a-nan"])
    def test_refuses_what_the_ray_series_refuses(self, empty_memos, monkeypatch, upper, lower, t, message):
        # one domain for both RaySeries sources, checked before any table
        monkeypatch.setattr(hypergeom, "_m2_log_tables", None)
        with pytest.raises(DomainError, match=f"the high-degree engine {re.escape(message)}"):
            pfq_positive_m2(upper, lower, t, B1, DEEP)
        spec = HypergeomSpec(upper, lower, B1, 2) if all(map(math.isfinite, upper + lower)) else None
        if spec is not None:
            with pytest.raises(DomainError, match=f"the ray series {re.escape(message)}"):
                ray_series(spec, t)
        assert hypergeom._m2_series.cache_info().currsize == hypergeom._ray.cache_info().currsize == 0


def _cancelling(rng, n):
    """n floats over 40 decades whose pairs nearly cancel."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    y = -x * (1.0 + rng.standard_normal(n) * 1e-15)
    seq = np.concatenate([x, y])
    rng.shuffle(seq)
    return [float(v) for v in seq]


class TestPochRatio:
    @pytest.mark.parametrize("spec", [
        HypergeomSpec((0.7,), (1.9,), DivisionAlgebra(1), 3),
        HypergeomSpec((1.5, -0.3), (2.5,), DivisionAlgebra(2), 4),
        HypergeomSpec((-3.0,), (2.2,), DivisionAlgebra(4), 3),
        HypergeomSpec((2.5, 0.25), (3.5, 4.75), DivisionAlgebra(8), 2),
    ], ids=["1f1-b1", "2f1-b2", "terminating-b4", "2f2-b8"])
    def test_prefix_memo_matches_the_cell_loop_bit_for_bit(self, spec):
        hypergeom._poch_memo.cache_clear()
        shapes = [p.parts for k in range(31) for p in enumerate_partitions(k, spec.m)]
        # heaviest first, so a cold call walks a whole chain of shorter shapes
        for kappa in shapes[::-1] + shapes:
            got = hypergeom._poch_ratio(spec, kappa)
            assert got.hex() == poch_ratio_by_cells(spec, kappa).hex(), kappa


class TestRunningSum:
    def test_series_total_is_fsum_of_degree_sums(self):
        rng = np.random.default_rng(12)
        seq = _cancelling(rng, 30)
        res = _run_series(1e-10, lambda k: seq[k], len(seq) - 1, exact_finite=True)
        assert res.value == math.fsum(seq) and res.degrees_used == len(seq) - 1
        # with the stop rule: three sums below rel_tol end it; the total is
        # fsum of exactly the sums read
        seen = []
        decaying = [1.0, -0.5, 0.25, 1e-30, -1e-31, 1e-32, 1.0]

        def term(k):
            seen.append(decaying[k])
            return decaying[k]

        res = _run_series(1e-10, term, 6)
        assert res.converged and res.degrees_used == 5 and seen == decaying[:6]
        assert res.value == math.fsum(seen)

    @staticmethod
    def _window_rule(rel_tol, seq):
        """(stop degree, total, converged) under the stop rule as first
        written: every sum of the last window, in order, against rel_tol
        times the running total."""
        window = hypergeom._STALL_WINDOW
        sums, running = [], 0.0
        for k, dsum in enumerate(seq):
            sums.append(dsum)
            running += dsum
            if k + 1 > window and running != 0.0:
                if all(abs(s) <= rel_tol * abs(running) for s in sums[-window:]):
                    return k, math.fsum(sums), True
        return len(seq) - 1, math.fsum(sums), False

    def test_stop_rule_is_the_window_rule(self):
        # testing the newest sum first must stop every series where the
        # window rule does, with the same total
        rng = np.random.default_rng(72)
        stops = set()
        for trial in range(600):
            n = int(rng.integers(1, 60))
            kind = trial % 3
            if kind == 0:  # decaying, signs mixed
                seq = np.cumprod(rng.uniform(0.05, 1.2, n)) * rng.choice([-1.0, 1.0], n)
            elif kind == 1:  # pairs that nearly or exactly cancel
                seq = np.array(_cancelling(rng, n // 2 + 1))
                seq[rng.random(len(seq)) < 0.2] = 0.0
            else:  # runs of exact zeros
                seq = rng.standard_normal(n) * 10.0 ** rng.integers(-18, 3, n)
                seq[rng.random(n) < 0.5] = 0.0
            seq = [float(v) for v in seq]
            rel_tol = float(rng.choice([1e-12, 1e-6, 1e-2, 0.5]))
            res = _run_series(rel_tol, lambda k: seq[k], len(seq) - 1)
            k, total, converged = self._window_rule(rel_tol, seq)
            assert (res.degrees_used, res.converged) == (k, converged)
            assert res.value == total or (math.isnan(total) and math.isnan(res.value))
            stops.add((converged, k < len(seq) - 1))
        # the sequences reach every outcome: early stops, late stops, no stop
        assert stops == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("seq", [
        [1.0, math.inf, 2.0],
        [1.0, -math.inf, -1e308],
        [1e-300, math.nan],
    ], ids=["inf", "-inf", "nan"])
    def test_non_finite_like_fsum(self, seq):
        res = _run_series(1e-10, lambda k: seq[k], len(seq) - 1, exact_finite=True)
        want = math.fsum(seq)
        assert res.value == want or (math.isnan(want) and math.isnan(res.value))

    @pytest.mark.parametrize("seq, error", [
        ([1e308, 1e308], OverflowError),
        ([1.0, -math.inf, 1e308, 1e308], OverflowError),
        ([1.0, math.inf, -math.inf], ValueError),
    ])
    def test_errors_like_fsum(self, seq, error):
        with pytest.raises(error) as want:
            math.fsum(seq)
        with pytest.raises(error, match=re.escape(str(want.value))):
            _run_series(1e-10, lambda k: seq[k], len(seq) - 1, exact_finite=True)


class TestUnderflowIsNotConvergence:
    """A nonnegative series whose degree sum drops to exactly 0 after one the
    stop rule could not ignore has underflowed: it raises, naming the
    degree, where the stall rule read the zeros as convergence."""

    def test_zero_after_a_significant_sum_raises(self):
        seq = [1.0, 0.5, 0.25, 0.0, 0.0, 0.0]
        with pytest.raises(DomainError, match="degree 3 underflow to 0 after a degree sum of 0.25"):
            _run_series(1e-10, lambda k: seq[k], len(seq) - 1, nonnegative=True)
        # the same sums without the promise of nonnegative terms stop as before
        res = _run_series(1e-10, lambda k: seq[k], len(seq) - 1)
        assert res.converged and res.degrees_used == 5 and res.value == 1.75

    def test_zero_after_a_negligible_sum_is_convergence(self):
        seq = [1.0, 1e-200, 0.0, 0.0, 0.0]
        res = _run_series(1e-10, lambda k: seq[k], len(seq) - 1, nonnegative=True)
        assert res.converged and res.value == 1.0

    def test_tiny_argument_underflows_harmlessly(self):
        # degree 2 of 0F0 at x = (1e-200, 1e-200) is below the float range
        spec = HypergeomSpec((), (), B1, 2)
        res = pfq(spec, (1e-200, 1e-200))
        assert res.converged and res.value == 1.0

    @pytest.mark.parametrize("x", [(1.0, -1.0), (2.5, 0.0, -2.5)], ids=["m2", "m3"])
    def test_traceless_argument(self, x):
        # 0F0(x) = etr(x) = 1: every degree sum (tr x)^k / k! vanishes, from
        # terms of both signs, so the rule does not apply
        spec = HypergeomSpec((), (), B1, len(x))
        res = pfq(spec, x)
        assert res.converged and res.value == pytest.approx(1.0, rel=1e-14)

    def test_terminating_and_batched_series_do_not_trip_it(self):
        spec = HypergeomSpec((-2.0,), (3.5,), ALGEBRAS[1], 2)
        assert pfq(spec, (0.4, 0.2)).converged
        X = np.array([[1.0, -1.0], [1e-200, 1e-200], [0.3, 0.1]])
        batch = pfq_batch(HypergeomSpec((), (), B1, 2), X)
        assert batch.converged and batch.value[1] == 1.0

    def test_pfq_two_at_the_density_reproduction(self):
        # the density's coupling at beta = 8, sigma = (1, 1000), Lambda = (45, 40):
        # chat_(k)(3.996, 0) = 3.996^k / k! stays in the float range, and the
        # series runs until chat_kappa(I) underflows to 0 at weight 181
        spec = HypergeomSpec((), (), DivisionAlgebra(8), 2)
        x = (4.0 - 4.0 / 1000.0, 0.0)
        with pytest.raises(DomainError, match=r"^series terms of degree 181 leave the float range$"):
            pfq_two(spec, x, (45.0, 40.0), SeriesTruncation(max_degree=400, rel_tol=1e-11))


class TestBatch:
    def test_matches_scalar_evaluations(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0.0, 0.8, size=(25, 2))
        spec = HypergeomSpec((1.3,), (2.9,), DivisionAlgebra(2), 2)
        batch = pfq_batch(spec, X)
        assert batch.last_term_ratio < 1e-9
        for row, val in zip(X, batch.value):
            ref = pfq(spec, row)
            assert val == pytest.approx(ref.value, rel=1e-11)

    def test_two_argument_batch(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0.0, 0.6, size=(10, 2))
        y = (0.7, 0.3)
        spec = HypergeomSpec((), (), B1, 2)
        batch = pfq_batch(spec, X, y_eigs=y)
        for row, val in zip(X, batch.value):
            ref = pfq_two(spec, row, y)
            assert val == pytest.approx(ref.value, rel=1e-10)

    def test_terminating_batch_is_the_finite_sum(self):
        # a = -2 ends every first part at 2, so the sum stops at degree m * 2
        rng = np.random.default_rng(5)
        X = rng.uniform(-3.0, 3.0, size=(12, 3))
        spec = HypergeomSpec((-2.0, 1.5), (0.7,), DivisionAlgebra(4), 3)
        batch = pfq_batch(spec, X)
        assert batch.converged and batch.degrees_used == 6
        for row, val in zip(X, batch.value):
            ref = pfq(spec, row)
            assert ref.converged and ref.degrees_used == 6
            assert val == pytest.approx(ref.value, rel=1e-13, abs=1e-13)

    def test_domain_is_judged_on_the_whole_batch(self):
        spec = HypergeomSpec((1.3, 0.4), (2.9,), B1, 2)
        X = np.array([[0.5, 0.2], [0.3, -1.0]])
        with pytest.raises(DomainError, match="< 1"):
            pfq(spec, X[1])
        with pytest.raises(DomainError, match="< 1"):
            pfq_batch(spec, X)
        # with two arguments the radius is max |X| times max |y|, as in pfq_two
        with pytest.raises(DomainError, match="< 1"):
            pfq_two(spec, X[0], (2.5, 1.0))
        with pytest.raises(DomainError, match="< 1"):
            pfq_batch(spec, X[:1], y_eigs=(2.5, 1.0))

    # the second row does not converge by degree 40
    @pytest.mark.parametrize("x", [(0.6, -0.3), (12.0, 6.0)])
    def test_one_row_stops_where_pfq_does(self, x):
        spec = HypergeomSpec((1.3,), (2.9,), DivisionAlgebra(2), 2)
        ref = pfq(spec, x)
        batch = pfq_batch(spec, np.array([x]))
        assert (batch.degrees_used, batch.converged) == (ref.degrees_used, ref.converged)
        assert batch.value[0] == pytest.approx(ref.value, rel=1e-14, abs=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("y", [None, (1.0, 0.5)], ids=["one-argument", "two-argument"])
    def test_overflow_is_refused_without_a_numpy_warning(self, y):
        # 1e200 squared overflows in the batched recurrence at degree 2
        with pytest.raises(DomainError, match="degree 2 leave the float range"):
            pfq_batch(HypergeomSpec((), (), B1, 2), [[1e200, 1.0], [2.0, 1.0]], y)

    def test_batch_loop_keeps_a_custom_truncation(self):
        spec = HypergeomSpec((1.3,), (2.9,), DivisionAlgebra(2), 2)
        trunc = SeriesTruncation(max_degree=60, rel_tol=1e-13)
        ref = pfq(spec, (1.5, 0.5), trunc)
        batch = _series(spec, np.array([[1.5, 0.5]]), None, 1.5, trunc)
        assert (batch.degrees_used, batch.converged) == (ref.degrees_used, ref.converged)
        assert batch.value[0] == pytest.approx(ref.value, rel=1e-14, abs=0)


@pytest.fixture
def empty_memos():
    """Empty series memos, so a test builds its rays and tables from scratch."""
    clear_memos()
    yield
    clear_memos()


def _wishart_ray(beta, m=3, n=6, sigma=(1.0, 2.0, 3.0)):
    """(spec, direction) of the lambda_max series of a Wishart model: the
    argument at x is x (beta/2) / sigma, on the ray of 1 / sigma."""
    spec = HypergeomSpec(((m - 1) * beta / 2 + 1,), ((n + m - 1) * beta / 2 + 1,),
                         DivisionAlgebra(beta), m)
    return spec, 1.0 / np.asarray(sigma)


class TestRaySeries:
    TRUNC = SeriesTruncation(max_degree=200, rel_tol=1e-12)

    @pytest.mark.parametrize("spec, direction, taus", [
        (*_wishart_ray(1), [0.5 * x * 11 / 6 for x in range(1, 7)]),
        (*_wishart_ray(2), [x * 11 / 6 for x in range(1, 7)]),
        (HypergeomSpec((1.0,), (2.5,), DivisionAlgebra(4), 1), (1.0,), [0.5, 5.0, 30.0]),
        (HypergeomSpec((4.0,), (9.0,), DivisionAlgebra(2), 4), (4.0, 3.0, 2.0, 1.0), [1.0, 4.0]),
    ], ids=["m3-b1", "m3-b2", "m1-b4", "m4-b2"])
    def test_matches_pointwise_pfq(self, empty_memos, spec, direction, taus):
        ray = ray_series(spec, direction)
        unit = np.asarray(direction) / math.fsum(direction)
        for tau in taus:
            got = ray.evaluate(tau, tau, self.TRUNC)
            want = pfq(spec, tau * unit, self.TRUNC)
            assert got.converged and want.converged
            assert got.value == pytest.approx(want.value, rel=1e-13, abs=0)
            assert got.log_value == pytest.approx(math.log(want.value), rel=1e-13, abs=1e-15)

    def test_same_bits_in_any_order_and_after_eviction(self, empty_memos):
        spec, direction = _wishart_ray(1)
        taus = [0.25 * x * 11 / 6 for x in range(1, 17)]
        first = [ray_series(spec, direction).evaluate(t, t, self.TRUNC).log_value for t in taus]
        clear_memos()
        backwards = [ray_series(spec, direction).evaluate(t, t, self.TRUNC).log_value
                     for t in reversed(taus)]
        assert backwards[::-1] == first
        # the direction is keyed up to scale and order
        assert ray_series(spec, 2.0 * direction[::-1]) is ray_series(spec, direction)
        for i in range(hypergeom._RAY_CAPACITY):
            ray_series(spec, (1.0, 1.0 + i, 2.0))
        assert hypergeom._ray.cache_info().currsize == hypergeom._RAY_CAPACITY
        rebuilt = ray_series(spec, direction)
        assert rebuilt.log_degree_sum(0) == 0.0 and len(rebuilt._log_d) == 1
        assert [rebuilt.evaluate(t, t, self.TRUNC).log_value for t in taus] == first

    def test_threads_sharing_a_fresh_ray_get_the_serial_bits(self, empty_memos):
        spec, direction = _wishart_ray(2)
        taus = [x * 11 / 6 for x in range(1, 11)]
        serial = [ray_series(spec, direction).evaluate(t, t, self.TRUNC).log_value for t in taus]
        clear_memos()

        def run(order):
            ray = ray_series(spec, direction)
            return {i: ray.evaluate(taus[i], taus[i], self.TRUNC).log_value for i in order}

        orders = [range(10), range(9, -1, -1), range(0, 10, 2), range(1, 10, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, orders, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert all(v == serial[i] for i, v in got.items())

    def test_jack_and_m2_sources_agree(self, empty_memos):
        # fig1's beta = 1 model on the ray of (2, 1): the Jack recurrence and
        # the m = 2 tables fill one RaySeries each, summed by one evaluate
        spec = HypergeomSpec((1.5,), (3.5,), B1, 2)
        trunc = SeriesTruncation(max_degree=400, rel_tol=1e-12)
        ray = ray_series(spec, (2.0, 1.0))
        for tau in (0.5, 3.0, 12.0, 30.0, 60.0):
            t = (2.0 * tau / 3.0, tau / 3.0)
            want = pfq(spec, t, trunc).value
            for got in (ray.evaluate(tau, tau, trunc), pfq_positive_m2((1.5,), (3.5,), t, B1, trunc)):
                assert got.converged
                assert got.value == pytest.approx(want, rel=1e-13, abs=0)
        assert isinstance(ray, hypergeom.RaySeries)
        assert isinstance(hypergeom._m2_series(1.5, 3.5, 0.5, 1), hypergeom.RaySeries)
        assert hypergeom._m2_series.cache_info().currsize == hypergeom._ray.cache_info().currsize == 1

    def test_underflowing_degree_raises(self, empty_memos):
        # D_k = 1 / (k + 1)! at m = 1 leaves the normal range at k = 170
        ray = ray_series(HypergeomSpec((1.0,), (2.0,), DivisionAlgebra(2), 1), (1.0,))
        with pytest.raises(DomainError, match="trace 100 needs degree 170, .*not scale-safe"):
            ray.evaluate(100.0, 100.0, SeriesTruncation(max_degree=400, rel_tol=1e-12))
        assert ray.evaluate(60.0, 60.0, SeriesTruncation(max_degree=400, rel_tol=1e-12)).converged

    @pytest.mark.parametrize("spec, direction", [
        (HypergeomSpec((3.0,), (2.0,), B1, 2), (1.0, 1.0)),
        (HypergeomSpec((1.0,), (4.0,), DivisionAlgebra(4), 2), (1.0, 1.0)),
        (HypergeomSpec((1.0, 2.0), (4.0,), B1, 2), (1.0, 1.0)),
        (HypergeomSpec((1.0,), (4.0,), B1, 2), (1.0, -1.0)),
        (HypergeomSpec((1.0,), (4.0,), B1, 2), (1.0, 1.0, 1.0)),
    ], ids=["a-above-c", "nonpositive-shift", "not-confluent", "negative-direction", "wrong-length"])
    def test_rejects_outside_its_domain(self, empty_memos, spec, direction):
        with pytest.raises(DomainError):
            ray_series(spec, direction)


class TestM2Memo:
    """The m = 2 engine keeps log D_k per (upper, lower, beta, t2/t1) in the
    ray memo; fig1's models have t2/t1 = 1/2 at every x."""

    XS = [float(x) for x in np.linspace(0.0, 24.0, 96)[1:]]

    @staticmethod
    def _run(beta, xs):
        up, lo, alg = (beta / 2 + 1,), (5 * beta / 2 + 1,), DivisionAlgebra(beta)
        return {x: pfq_positive_m2(up, lo, (beta / 2 * x, beta / 4 * x), alg, DEEP) for x in xs}

    @pytest.mark.parametrize("beta", [1, 8])
    def test_same_bits_forwards_backwards_and_after_a_far_tail(self, empty_memos, beta):
        forwards = self._run(beta, self.XS + [400.0])
        clear_memos()
        backwards = self._run(beta, self.XS[::-1] + [400.0])
        clear_memos()
        after_tail = self._run(beta, [400.0] + self.XS)
        assert forwards == backwards == after_tail

    def test_second_pass_builds_no_table(self, empty_memos, monkeypatch):
        sizes = []
        build = hypergeom._m2_log_tables

        def spy(*args):
            sizes.append(args[-1])
            return build(*args)

        monkeypatch.setattr(hypergeom, "_m2_log_tables", spy)
        first = self._run(4, self.XS + [200.0])
        # one table for the whole model, its rows regrown by doubling
        assert hypergeom._m2_series.cache_info().currsize == 1
        assert hypergeom._ray.cache_info().currsize == 0
        assert sizes and all(b >= 2 * a for a, b in zip(sizes, sizes[1:]))
        sizes.clear()
        assert self._run(4, self.XS + [200.0]) == first
        assert sizes == []

    def test_threads_sharing_a_fresh_table_get_the_serial_bits(self, empty_memos):
        xs = self.XS[::8] + [200.0, 400.0]
        serial = self._run(2, xs)
        clear_memos()
        orders = [xs, xs[::-1], xs[::2], xs[1::2]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda order: self._run(2, order), orders, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert all(res == serial[x] for x, res in got.items())

    def test_memo_stays_at_ray_capacity(self, empty_memos):
        up, lo, alg = (3.0,), (11.0,), DivisionAlgebra(4)
        first = pfq_positive_m2(up, lo, (3.0, 1.5), alg, DEEP)
        ray = ray_series(*_wishart_ray(2))
        for i in range(hypergeom._RAY_CAPACITY):
            pfq_positive_m2(up, lo, (3.0, 1.0 + i / 64), alg, DEEP)
        assert hypergeom._m2_series.cache_info().currsize == hypergeom._RAY_CAPACITY
        # the tables live in a cache of their own and evict no ray
        assert hypergeom._ray.cache_info().currsize == 1 and ray_series(*_wishart_ray(2)) is ray
        # evicted, rebuilt, and the same floats
        assert pfq_positive_m2(up, lo, (3.0, 1.5), alg, DEEP) == first
