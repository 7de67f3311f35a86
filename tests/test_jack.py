import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from jackdiv.core import DivisionAlgebra, DomainError, Partition, enumerate_partitions, hook_product
from jackdiv.jack import (
    ChatEvaluator,
    JackTable,
    SpectralArgument,
    _interlacing_predecessors,
    _log_nu,
    get_table,
    jack_C,
    jack_C_at_identity,
    jack_C_batch,
    jack_J,
)

from oracles import (
    jack_C_oracle,
    laplace_beltrami_fd,
    schur_value,
    strip_coefficient_fraction,
    strip_coefficients_per_cell,
)

ALGEBRAS = [DivisionAlgebra(b) for b in (1, 2, 4, 8)]


class TestSpectralArgument:
    def test_sorted_descending(self):
        assert SpectralArgument((1.0, 3.0, 2.0)).eigenvalues == (3.0, 2.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            SpectralArgument((1.0, float("nan")))
        with pytest.raises(DomainError):
            SpectralArgument(())


class TestExamples:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_weight_one_is_trace(self, alg):
        assert jack_C(Partition((1,)), (0.7, -0.2, 1.1), alg) == pytest.approx(1.6, rel=1e-14)
        # J is monic in the single monomial at k=1
        assert jack_J(Partition((1,)), (0.5, 0.25), alg) == pytest.approx(0.75, rel=1e-14)

    def test_too_long_partition_vanishes(self):
        assert jack_J(Partition((2, 1)), (0.7,), DivisionAlgebra(2)) == 0.0
        assert jack_C_at_identity(Partition((1, 1, 1)), 2, DivisionAlgebra(4)) == 0.0

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_single_variable_row(self, alg):
        assert jack_C(Partition((2,)), (0.7,), alg) == pytest.approx(0.49, rel=1e-14)

    def test_identity_value_closed_form(self):
        # (m-i+1)-shifted rising factorial form at the all-ones vector
        assert jack_J(Partition((2,)), (1.0, 1.0), DivisionAlgebra(1)) == pytest.approx(8.0, rel=1e-13)
        assert jack_C_at_identity(Partition((1,)), 3, DivisionAlgebra(2)) == pytest.approx(3.0)

    @pytest.mark.parametrize("k", [171, 250])
    def test_weight_past_170_is_domain_error(self, k):
        p, alg = Partition((k,)), DivisionAlgebra(2)
        with pytest.raises(DomainError, match=f"weight {k} .*past weight 170"):
            jack_C(p, (1.0,), alg)
        with pytest.raises(DomainError, match=f"weight {k} .*past weight 170"):
            jack_C_batch(p, np.ones((3, 1)), alg)

    def test_weight_170_is_in_reach(self):
        p, alg = Partition((170,)), DivisionAlgebra(2)
        assert jack_C(p, (1.0,), alg) == pytest.approx(1.0, rel=1e-13)
        assert jack_C_batch(p, np.ones((2, 1)), alg) == pytest.approx([1.0, 1.0], rel=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_jack_C_past_the_float_range_is_domain_error(self):
        with pytest.raises(DomainError, match="weight 2 leaves the float range"):
            jack_C(Partition((2,)), (1e200, 1.0), DivisionAlgebra(1))

    @pytest.mark.filterwarnings("error")
    def test_jack_J_past_the_float_range_is_domain_error(self):
        with pytest.raises(DomainError, match="weight 2 leaves the float range"):
            jack_J(Partition((2,)), (1e200, 1.0), DivisionAlgebra(1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [100, 110, 120])
    def test_jack_J_past_weight_90_stays_in_range(self, k):
        # J_(k)(1) = (2k - 1)!! at beta = 1, about 1e187 at k = 100, though
        # the constant J/chat alone leaves the float range near weight 90
        want = float(math.prod(range(1, 2 * k, 2)))
        assert jack_J(Partition((k,)), (1.0,), DivisionAlgebra(1)) == pytest.approx(want, rel=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_jack_J_out_of_range_at_weight_155_is_domain_error(self):
        # 309!! is about 1e323
        with pytest.raises(DomainError, match="weight 155 leaves the float range"):
            jack_J(Partition((155,)), (1.0,), DivisionAlgebra(1))

    @pytest.mark.filterwarnings("error")
    def test_jack_C_batch_past_the_float_range_is_domain_error(self):
        # one overflowing row refuses the batch, with no numpy warning
        X = np.array([[1.0, 2.0], [1e200, 1.0]])
        with pytest.raises(DomainError, match="weight 2 leaves the float range"):
            jack_C_batch(Partition((2,)), X, DivisionAlgebra(1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("evaluate, k, x", [
        (jack_C, 170, (0.5,)),     # C = 0.5^170, about 6.7e-52
        (jack_C, 170, (-0.5,)),
        (jack_J, 171, (0.5,)),     # J = 341!! 0.5^171, about 5e307
        (jack_J, 200, (0.01,)),    # J = 399!! 0.01^200, about 5e33
        (jack_J, 100, (1e-3,)),    # J = 199!! 1e-300, about 1e-113
    ], ids=["C-170", "C-170-negative", "J-171", "J-200", "J-100"])
    def test_underflow_to_zero_is_domain_error(self, evaluate, k, x):
        # chat = C/k! underflows though the value cannot vanish: one sign and
        # at least len(kappa) nonzero entries
        with pytest.raises(DomainError, match=f"weight {k} underflows"):
            evaluate(Partition((k,)), x, DivisionAlgebra(1))

    def test_batch_row_underflow_is_domain_error(self):
        with pytest.raises(DomainError, match="weight 170 underflows"):
            jack_C_batch(Partition((170,)), np.array([[0.5], [1.0]]), DivisionAlgebra(1))

    def test_true_zeros_are_returned(self):
        alg = DivisionAlgebra(1)
        assert jack_C(Partition((1,)), (1.0, -1.0), alg) == 0.0
        assert jack_C(Partition((1, 1)), (1.0, 0.0), alg) == 0.0
        X = np.array([[1.0, -1.0], [0.5, 0.0], [1.0, 2.0]])
        assert jack_C_batch(Partition((1,)), X, alg).tolist() == [0.0, 0.5, 3.0]
        assert jack_C_batch(Partition((1, 1)), X[1:], alg)[0] == 0.0

    def test_k2_linear_system_value(self):
        # beta=1 value forced by the defining conditions at weight 2
        x = (1.3, 0.4)
        expected = (2.0 / 3.0) * ((x[0] + x[1]) ** 2 - (x[0] ** 2 + x[1] ** 2))
        assert jack_C(Partition((1, 1)), x, DivisionAlgebra(1)) == pytest.approx(expected, rel=1e-13)


class TestInvariants:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_normalization_sums_to_trace_power(self, alg):
        rng = np.random.default_rng(42)
        for _ in range(6):
            m = int(rng.integers(1, 5))
            x = rng.uniform(0.0, 2.0, size=m)
            for k in (1, 4, 8):
                total = math.fsum(
                    jack_C(p, x, alg) for p in enumerate_partitions(k, m)
                )
                assert abs(total - x.sum() ** k) <= 1e-9 * x.sum() ** k

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_homogeneity(self, alg):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 2.0, size=3)
        for parts in [(2,), (2, 1), (3, 2)]:
            p = Partition(parts)
            base = jack_C(p, x, alg)
            for c in (0.5, 2.0, 10.0):
                assert jack_C(p, c * x, alg) == pytest.approx(c**p.weight * base, rel=1e-12)

    def test_permutation_invariance_bit_identical(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 2.0, size=4)
        p = Partition((3, 1))
        alg = DivisionAlgebra(4)
        ref = jack_C(p, np.sort(x)[::-1], alg)
        for perm in ([2, 0, 3, 1], [3, 2, 1, 0], [1, 3, 0, 2]):
            assert jack_C(p, x[perm], alg) == ref

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    @pytest.mark.parametrize("m", [2, 3])
    def test_eigenfunction_of_invariant_operator(self, alg, m):
        rng = np.random.default_rng(11)
        table = get_table(alg)
        for k in range(1, 5):
            for p in enumerate_partitions(k, m):
                x = np.sort(rng.uniform(0.6, 2.4, size=m))[::-1]
                x += np.linspace(0.3, 0.0, m)  # keep the spectrum well separated
                fun = lambda v: jack_J(p, v, alg, table)
                lhs = laplace_beltrami_fd(fun, x, float(alg.beta))
                eig = sum(
                    ki * (ki - 1 + alg.beta * (m - i))
                    for i, ki in enumerate(p.parts, start=1)
                )
                assert lhs == pytest.approx(eig * fun(x), rel=2e-5, abs=1e-8)

    def test_beta2_reduces_to_schur(self):
        alg = DivisionAlgebra(2)
        rng = np.random.default_rng(19)
        for parts in [(1,), (2,), (2, 1), (3, 1), (2, 2, 1)]:
            p = Partition(parts)
            ratios = []
            for _ in range(100):
                x = rng.uniform(0.5, 2.0, size=3)
                s = schur_value(p, x)
                ratios.append(jack_C(p, x, alg) / s)
            spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
            assert spread <= 1e-10

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_exponential_resummation(self, alg):
        x = np.array([0.8, 0.3, 0.1])
        target = math.exp(x.sum())
        remainders = []
        for cap in (4, 8, 12, 16):
            total = math.fsum(
                jack_C(p, x, alg) / math.factorial(k)
                for k in range(cap + 1)
                for p in enumerate_partitions(k, len(x))
            )
            remainders.append(abs(target - total))
        assert all(b <= a for a, b in zip(remainders, remainders[1:]))
        assert remainders[-1] <= 1e-8 * target


class TestOracle:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_small_weight_linear_system(self, alg):
        rng = np.random.default_rng(23)
        for m in (1, 2, 3, 4):
            x = rng.uniform(0.2, 1.8, size=m)
            for k in range(1, 9):
                for p in enumerate_partitions(k, m):
                    got = jack_C(p, x, alg)
                    want = jack_C_oracle(p, x, alg)
                    assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_rank_deficient_spectra(self, alg):
        # 1 to m - 1 exact zeros, sorted between positive and negative
        # entries: no partition longer than the rank is filled, jack_C gives
        # 0.0 for those, and the values kept match the linear system
        rng = np.random.default_rng(29)
        table = get_table(alg)
        for m in (2, 3, 4):
            for zeros in range(1, m):
                rank = m - zeros
                signs = [(-1.0) ** i for i in range(rank)] if m > 2 else [rng.choice([-1.0, 1.0])]
                x = np.concatenate([np.multiply(signs, rng.uniform(0.2, 1.8, size=rank)), np.zeros(zeros)])
                rng.shuffle(x)
                evaluator = ChatEvaluator(tuple(sorted(x, reverse=True)), table)
                for k in range(1, 7):
                    assert set(evaluator.degree_values(k)) == {p.parts for p in enumerate_partitions(k, rank)}
                    scale = np.abs(x).sum() ** k
                    for p in enumerate_partitions(k, m):
                        got = jack_C(p, x, alg)
                        if p.length > rank:
                            assert got.hex() == "0x0.0p+0"
                            assert jack_C_oracle(p, x, alg) == 0.0
                        else:
                            assert got == pytest.approx(jack_C_oracle(p, x, alg), rel=1e-13, abs=1e-14 * scale)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_identity_against_recurrence(self, alg):
        for m in (1, 3, 5):
            for k in range(1, 7):
                for p in enumerate_partitions(k, m):
                    closed = jack_C_at_identity(p, m, alg)
                    direct = jack_C(p, np.ones(m), alg)
                    assert closed == pytest.approx(direct, rel=1e-10)


class TestHookProduct:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_float_hooks_match_exact_hooks_bit_for_bit(self, alg):
        for k in range(1, 21):
            for p in enumerate_partitions(k, 5):
                hooks = hook_product(p, alg)
                exact = math.fsum(math.log(float(u)) + math.log(float(l))
                                  for u, l in zip(hooks.upper, hooks.lower))
                assert _log_nu(p, alg) == exact, p.parts
        assert _log_nu(Partition(()), alg) == 0.0


class TestStripCoefficient:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_integer_hooks_round_like_exact_fraction(self, alg):
        # every hook is an integer over beta, held exactly in a float, so the
        # paired ratios leave only a few roundings per cell
        table = JackTable(alg)
        for k in range(1, 13):
            for p in enumerate_partitions(k, 4):
                strips = table.strips(p.parts)
                preds = _interlacing_predecessors(p.parts)
                assert len(strips) == len(preds)
                for mu, g in zip(preds, strips.tolist()):
                    want = float(strip_coefficient_fraction(p.parts, mu, alg))
                    assert g == pytest.approx(want, rel=4e-15)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_high_weight_finite_and_accurate(self, alg):
        # hook products of these shapes overflow when numerator and
        # denominator are formed apart; below the normal range the oracle
        # itself underflows, hence the absolute floor
        table = JackTable(alg)
        rng = np.random.default_rng(37)
        for kappa in [(160,), (200,), (300,), (150, 6, 4), (190, 6, 4), (290, 6, 4)]:
            strips = table.strips(kappa)
            preds = _interlacing_predecessors(kappa)
            assert len(strips) == len(preds)
            assert np.all(np.isfinite(strips))
            for i in rng.choice(len(strips), size=20, replace=False):
                want = float(strip_coefficient_fraction(kappa, preds[i], alg))
                assert float(strips[i]) == pytest.approx(want, rel=1e-13, abs=sys.float_info.min)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_row_pair_product_matches_per_cell_formula(self, alg):
        table = JackTable(alg)
        for k in range(1, 21):
            for p in enumerate_partitions(k, 4):
                for closed in (False, True):
                    got = table.strips(p.parts, closed)
                    want = strip_coefficients_per_cell(
                        p.parts, _interlacing_predecessors(p.parts, closed), alg)
                    assert len(got) == len(want)
                    for g, (_, _, ref) in zip(got.tolist(), want):
                        assert abs(g - ref) <= 4e-15 * ref

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_every_high_weight_strip_matches_per_cell_formula(self, alg):
        # far below the normal range the reference and the running products
        # round differently, but only a reference below it may be zero
        table = JackTable(alg)
        for kappa in [(300,), (290, 6, 4)]:
            for closed in (False, True):
                got = table.strips(kappa, closed)
                want = strip_coefficients_per_cell(
                    kappa, _interlacing_predecessors(kappa, closed), alg)
                assert len(got) == len(want)
                for g, (_, _, ref) in zip(got.tolist(), want):
                    if ref >= sys.float_info.min:
                        assert abs(g - ref) <= 1e-14 * ref
                    else:
                        assert abs(g - ref) <= sys.float_info.min

    def test_threads_sharing_a_fresh_table_get_the_serial_bits(self):
        alg = DivisionAlgebra(4)
        shapes = [p.parts for p in enumerate_partitions(40, 4)]
        serial = {(kappa, closed): JackTable(alg).strips(kappa, closed)
                  for kappa in shapes for closed in (True, False)}
        table = JackTable(alg)

        def run(order):
            return {(kappa, closed): table.strips(kappa, closed)
                    for kappa in order for closed in (True, False)}

        orders = [shapes, shapes[::-1], shapes[::2] + shapes[1::2], shapes[1::2] + shapes[::2]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, orders, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert got.keys() == serial.keys()
            assert all(np.array_equal(got[key], serial[key]) for key in serial)

    def test_high_weight_sums_to_trace_power(self):
        k = 160
        chat = ChatEvaluator((2.0, 1.0), JackTable(DivisionAlgebra(1))).degree_values(k)
        want = float(Fraction(3**k, math.factorial(k)))
        assert math.fsum(chat.values()) == pytest.approx(want, rel=1e-13)


class TestStripSplit:
    def test_predecessors_match_brute_force(self):
        # every mu inside kappa (weight >= |kappa| - kappa_1, since the strip
        # kappa/mu has at most kappa_1 boxes) with kappa_{i+1} <= mu_i <= kappa_i,
        # sorted reverse-lexicographically; closed keeps those with mu_n = 0
        for k in range(1, 21):
            for p in enumerate_partitions(k, 4):
                kappa = p.parts
                n = len(kappa)

                def padded(mu):
                    return mu + (0,) * (n - len(mu))

                want = sorted(
                    (q.parts for w in range(k - kappa[0], k + 1)
                     for q in enumerate_partitions(w, n, kappa[0])
                     if all(lo <= v <= hi for lo, v, hi
                            in zip(kappa[1:] + (0,), padded(q.parts), kappa))),
                    key=padded, reverse=True)
                assert _interlacing_predecessors(kappa) == want
                closed = [mu for mu in want if len(mu) < n]
                assert _interlacing_predecessors(kappa, closed=True) == closed

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_closed_strips_are_the_last_part_zero_subset(self, alg):
        table = get_table(alg)
        for k in range(1, 31):
            for p in enumerate_partitions(k, 4):
                kappa = p.parts
                preds = _interlacing_predecessors(kappa)
                every = table.strips(kappa)
                assert len(every) == len(preds)
                closed = table.strips(kappa, closed=True)
                assert closed.tolist() == [g for mu, g in zip(preds, every.tolist())
                                           if len(mu) < len(kappa)]
                # the mu_n = 0 slice of the row-pair tables gives the same
                # bits as the full product, cold or memoized, in either order
                fresh = JackTable(alg)
                assert np.array_equal(fresh.strips(kappa, closed=True), closed)
                assert np.array_equal(fresh.strips(kappa), every)


class TestBatchAndTable:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0.0, 2.0, size=(40, 4))
        alg = DivisionAlgebra(1)
        for parts in [(2, 1), (2, 2, 1), (3, 1, 1, 1), (4, 2, 2)]:
            p = Partition(parts)
            for m in range(len(parts), 5):
                batch = jack_C_batch(p, X[:, :m], alg)
                for row, value in zip(X[:, :m], batch):
                    assert value == pytest.approx(jack_C(p, row, alg), rel=1e-12)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"b{a.beta}")
    def test_restriction_never_changes_a_value(self, alg):
        # jack_C runs the evaluator bounded by kappa; the unbounded one must
        # give the same bits, scalar and batched
        rng = np.random.default_rng(41)
        table = get_table(alg)
        for m in range(1, 5):
            x = tuple(sorted(rng.uniform(-1.0, 2.0, size=m), reverse=True))
            X = rng.uniform(-1.0, 2.0, size=(6, m))
            scalar, batched = ChatEvaluator(x, table), ChatEvaluator(X, table)
            for k in range(11):
                chat, chat_rows = scalar.degree_values(k), batched.degree_values(k)
                for p in enumerate_partitions(k, m):
                    assert jack_C(p, x, alg) == chat[p.parts] * math.factorial(k)
                    assert np.array_equal(jack_C_batch(p, X, alg),
                                          chat_rows[p.parts] * math.factorial(k))

    @pytest.mark.parametrize("m, degree, bounds", [
        (3, 40, [(40, 20, 13), (25, 9, 4), (6, 6, 6), (12, 3), (17,), (2,)]),
        (4, 24, [(24, 12, 8, 6), (9, 7, 3, 2), (5, 5, 5, 5), (10, 4, 1), (2,)]),
    ], ids=["m3", "m4"])
    def test_bound_never_changes_a_value_as_capacity_grows(self, m, degree, bounds):
        # one spectrum's unbounded dense stages double their capacity
        # several times on the way; a bound, shorter than m or not, sizes
        # them once, and both must give the same bits, scalar and batched
        alg = DivisionAlgebra(2)
        table = JackTable(alg)
        rng = np.random.default_rng(43)
        x = tuple(sorted(rng.uniform(0.1, 1.5, size=m), reverse=True))
        X = rng.uniform(0.1, 1.5, size=(3, m))
        for spectrum in (x, X):
            free = ChatEvaluator(spectrum, table)
            chat = [free.degree_values(k) for k in range(degree + 1)]
            for within in bounds:
                bounded = ChatEvaluator(spectrum, table, within)
                for k in range(min(degree, sum(within)) + 1):
                    values = bounded.degree_values(k)
                    assert values and values.keys() <= chat[k].keys()
                    for kappa, value in values.items():
                        assert np.array_equal(value, chat[k][kappa]), (within, kappa)
        assert np.array_equal(jack_C_batch(Partition((2,)), X, alg, table), chat[2][(2,)] * 2)

    @pytest.mark.parametrize("m, degree, within, rows", [
        (6, 24, None, 0), (8, 12, (10,) * 8, 0), (4, 20, None, 50), (3, 40, None, 0),
    ], ids=["m6", "m8-bounded", "m4-batch", "m3"])
    def test_stages_hold_few_values_per_partition(self, m, degree, within, rows):
        # every stage as a box indexed by parts would take n! 2^n cells per
        # partition or more (19M cells for stage 7 of the m = 8 box, times
        # the rows of a batch); the stages may take at most 8 times the
        # values of one per partition they hold
        rng = np.random.default_rng(47)
        x = rng.uniform(0.1, 1.5, size=(rows, m) if rows else m)
        evaluator = ChatEvaluator(x, JackTable(DivisionAlgebra(1)), within)
        evaluator.degree_values(degree)
        for n, stage in enumerate(evaluator._stage):
            held = sum(len(evaluator._shapes(k, n)) for k in range(degree + 1))
            stored = stage.size if isinstance(stage, np.ndarray) else sum(map(np.size, stage.values()))
            assert stored <= 8 * held * max(rows, 1), n

    def test_table_entries_immutable_and_shared(self):
        alg = DivisionAlgebra(2)
        t1 = get_table(alg)
        t2 = get_table(DivisionAlgebra(2))
        assert t1 is t2
        first = t1.strips((3, 1))
        assert t1.strips((3, 1)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_concurrent_evaluation_matches_sequential(self):
        alg = DivisionAlgebra(4)
        table = JackTable(alg)
        rng = np.random.default_rng(5)
        xs = [rng.uniform(0.1, 2.0, size=3) for _ in range(8)]
        p = Partition((3, 2))
        expected = [jack_C(p, x, alg, get_table(alg)) for x in xs]
        results = [None] * len(xs)

        def work(i):
            results[i] = jack_C(p, xs[i], alg, table)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == expected
