import math
import re

import numpy as np
import pytest

from jackdiv.core import DivisionAlgebra, DomainError, Partition, enumerate_partitions
from jackdiv.hypergeom import (
    HypergeomSpec,
    _run_series,
    _series,
    SeriesTruncation,
    euler_2f1,
    kummer_1f1,
    pfq,
    pfq_batch,
    pfq_positive_m2,
    pfq_two,
)

from oracles import pfq_positive_m2_per_pair, scalar_pfq

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
        for name, value in [("stall_window", 0), ("rel_tol", 0.0), ("max_degree", -1)]:
            with pytest.raises(DomainError, match=name):
                SeriesTruncation(**{name: value})


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
    def test_r_zero_keeps_only_empty(self):
        res = pfq(HypergeomSpec((), (), B1, 2), (0.4, 0.2), max_first_part=0)
        assert res.value == 1.0 and res.converged

    def test_negative_r_rejected(self):
        with pytest.raises(DomainError, match="max_first_part"):
            pfq(HypergeomSpec((), (), B1, 2), (0.4, 0.2), max_first_part=-1)

    def test_scalar_truncated_exponential(self):
        res = pfq(HypergeomSpec((), (), B1, 1), (0.9,), max_first_part=2)
        assert res.value == pytest.approx(1 + 0.9 + 0.81 / 2, rel=1e-14)

    def test_term_count_m2_r2(self):
        count = sum(len(enumerate_partitions(k, 2, 2)) for k in range(0, 5))
        assert count == 6  # enumeration oracle over k = 0..4, parts <= 2, first part <= 2

    def test_exactness_no_truncation_error(self):
        # restricted sum equals the brute-force restricted accumulation
        from jackdiv.jack import jack_C

        x = np.array([0.7, 0.4])
        alg = DivisionAlgebra(4)
        res = pfq(HypergeomSpec((), (), alg, 2), x, max_first_part=3)
        brute = math.fsum(
            jack_C(p, x, alg) / math.factorial(k)
            for k in range(0, 7)
            for p in enumerate_partitions(k, 2, 3)
        )
        assert res.value == pytest.approx(brute, rel=1e-14)


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

    @pytest.mark.parametrize("kwargs, name", [
        (dict(stall_window=0), "stall_window"),
        (dict(rel_tol=0.0), "rel_tol"),
        (dict(max_degree=-1), "max_degree"),
    ])
    def test_rejects_invalid_truncation(self, kwargs, name):
        with pytest.raises(DomainError, match=name):
            pfq_positive_m2((2.0,), (4.0,), (1.0, 0.5), B1, SeriesTruncation(**kwargs))


def _cancelling(rng, n):
    """n floats over 40 decades whose pairs nearly cancel."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    y = -x * (1.0 + rng.standard_normal(n) * 1e-15)
    seq = np.concatenate([x, y])
    rng.shuffle(seq)
    return [float(v) for v in seq]


class TestRunningSum:
    def test_series_total_is_fsum_of_degree_sums(self):
        rng = np.random.default_rng(12)
        seq = _cancelling(rng, 30)
        res = _run_series(SeriesTruncation(), lambda k: seq[k], len(seq) - 1, exact_finite=True)
        assert res.value == math.fsum(seq) and res.degrees_used == len(seq) - 1
        # with the stop rule: three sums below rel_tol end it; the total is
        # fsum of exactly the sums read
        seen = []
        decaying = [1.0, -0.5, 0.25, 1e-30, -1e-31, 1e-32, 1.0]

        def term(k):
            seen.append(decaying[k])
            return decaying[k]

        res = _run_series(SeriesTruncation(max_degree=6), term, 6)
        assert res.converged and res.degrees_used == 5 and seen == decaying[:6]
        assert res.value == math.fsum(seen)

    @pytest.mark.parametrize("seq", [
        [1.0, math.inf, 2.0],
        [1.0, -math.inf, -1e308],
        [1e-300, math.nan],
    ], ids=["inf", "-inf", "nan"])
    def test_non_finite_like_fsum(self, seq):
        res = _run_series(SeriesTruncation(), lambda k: seq[k], len(seq) - 1, exact_finite=True)
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
            _run_series(SeriesTruncation(), lambda k: seq[k], len(seq) - 1, exact_finite=True)


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

    def test_batch_loop_keeps_a_custom_truncation(self):
        spec = HypergeomSpec((1.3,), (2.9,), DivisionAlgebra(2), 2)
        trunc = SeriesTruncation(max_degree=60, rel_tol=1e-13, stall_window=2)
        ref = pfq(spec, (1.5, 0.5), trunc)
        batch = _series(spec, np.array([[1.5, 0.5]]), None, 1.5, trunc, None)
        assert (batch.degrees_used, batch.converged) == (ref.degrees_used, ref.converged)
        assert batch.value[0] == pytest.approx(ref.value, rel=1e-14, abs=0)
