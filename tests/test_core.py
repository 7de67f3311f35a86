import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jackdiv.core import (
    DivisionAlgebra,
    DomainError,
    Partition,
    UnsupportedParameterError,
    _partition_tuples,
    conjugate,
    enumerate_partitions,
    format_partition,
    hook_product,
    parse_partition,
)

from oracles import brute_force_partitions, dominance_leq


partitions_st = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=5).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


class TestDivisionAlgebra:
    def test_valid_betas(self):
        for beta in (1, 2, 4, 8):
            alg = DivisionAlgebra(beta)
            assert alg.alpha * beta == 2

    @pytest.mark.parametrize("beta", [0, 3, 5, 16, -1])
    def test_invalid_betas_rejected(self, beta):
        with pytest.raises(UnsupportedParameterError):
            DivisionAlgebra(beta)

    def test_alpha_exact(self):
        assert DivisionAlgebra(8).alpha == Fraction(1, 4)


class TestPartition:
    def test_strips_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)).parts == (3, 1)
        assert Partition((0, 0)).parts == ()

    def test_weight_length(self):
        p = Partition((4, 2, 1))
        assert p.weight == 7
        assert p.length == 3
        assert p.part(1) == 4 and p.part(5) == 0

    def test_rejects_increasing(self):
        with pytest.raises(DomainError):
            Partition((1, 2))
        with pytest.raises(DomainError):
            Partition((2, -1))

    def test_serialization_round_trip(self):
        assert format_partition(Partition((3, 1))) == "[3,1]"
        assert format_partition(Partition(())) == "[]"
        assert parse_partition("[3,1]").parts == (3, 1)
        assert parse_partition("[]").parts == ()
        assert parse_partition("4,2,2").parts == (4, 2, 2)
        with pytest.raises(DomainError):
            parse_partition("[a,b]")


class TestEnumeration:
    def test_empty_weight(self):
        assert [p.parts for p in enumerate_partitions(0, 3)] == [()]

    def test_spec_cases(self):
        assert [p.parts for p in enumerate_partitions(4, 2)] == [(4,), (3, 1), (2, 2)]
        assert [p.parts for p in enumerate_partitions(3, 3, 1)] == [(1, 1, 1)]

    @pytest.mark.parametrize("k", range(0, 13))
    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_counts_match_brute_force(self, k, m):
        ours = [p.parts for p in enumerate_partitions(k, m)]
        brute = brute_force_partitions(k, m)
        assert ours == list(brute)

    def test_first_part_restriction(self):
        ours = [p.parts for p in enumerate_partitions(6, 3, 2)]
        assert ours == list(brute_force_partitions(6, 3, 2))

    def test_bounded_by_a_shape_matches_brute_force(self):
        # partitions of k with at most n parts inside kappa, order included
        brute = {(k, n): brute_force_partitions(k, n) for k in range(13) for n in range(1, 5)}
        for w in range(13):
            for p in enumerate_partitions(w, 4):
                kappa = p.parts
                for n in range(1, 5):
                    for k in range(w + 1):
                        want = [q for q in brute[k, n] if len(q) <= len(kappa)
                                and all(v <= b for v, b in zip(q, kappa))]
                        assert list(_partition_tuples(k, kappa[:n])) == want, (kappa, n, k)

    def test_reverse_lex_order_is_deterministic(self):
        a = [p.parts for p in enumerate_partitions(9, 4)]
        b = [p.parts for p in enumerate_partitions(9, 4)]
        assert a == b
        assert a == sorted(a, key=lambda t: tuple(-v for v in t))


class TestConjugate:
    def test_spec_cases(self):
        assert conjugate(Partition((2, 1))).parts == (2, 1)
        assert conjugate(Partition((3,))).parts == (1, 1, 1)
        assert conjugate(Partition((4, 2, 1))).parts == (3, 2, 1, 1)

    @given(partitions_st)
    @settings(max_examples=200, deadline=None)
    def test_involution(self, p):
        assert conjugate(conjugate(p)).parts == p.parts


class TestDominance:
    def test_spec_cases(self):
        assert dominance_leq(Partition((1, 1)), Partition((2,)))
        assert not dominance_leq(Partition((2,)), Partition((1, 1)))
        assert dominance_leq(Partition((2, 1, 1)), Partition((3, 1)))

    def test_weight_mismatch(self):
        with pytest.raises(DomainError):
            dominance_leq(Partition((2,)), Partition((2, 1)))

    def test_partial_order_axioms(self):
        for k in range(1, 9):
            ps = [Partition(t) for t in brute_force_partitions(k, k)]
            for p in ps:
                assert dominance_leq(p, p)
            for p in ps:
                for q in ps:
                    if dominance_leq(p, q) and dominance_leq(q, p):
                        assert p.parts == q.parts
                    for r in ps:
                        if dominance_leq(p, q) and dominance_leq(q, r):
                            assert dominance_leq(p, r)


class TestHookProduct:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            hook_product(Partition(()), DivisionAlgebra(2))

    def test_spec_single_cell(self):
        assert hook_product(Partition((1,)), DivisionAlgebra(2)).nu == 1
        assert hook_product(Partition((1,)), DivisionAlgebra(1)).nu == 2

    def test_cell_gap_is_alpha_minus_one(self):
        for beta in (1, 2, 4, 8):
            alg = DivisionAlgebra(beta)
            hooks = hook_product(Partition((4, 2, 1)), alg)
            for u, l in zip(hooks.upper, hooks.lower):
                assert u - l == alg.alpha - 1

    def test_positive(self):
        for beta in (1, 2, 4, 8):
            alg = DivisionAlgebra(beta)
            for k in range(1, 9):
                for t in brute_force_partitions(k, 4):
                    assert hook_product(Partition(t), alg).nu > 0

    def test_beta2_is_squared_standard_hooks(self):
        # independent per-cell oracle: classical hook lengths
        alg = DivisionAlgebra(2)
        for t in [(1,), (2,), (2, 1), (3, 1, 1), (4, 2, 2, 1)]:
            p = Partition(t)
            conj = conjugate(p)
            classic = 1
            for (i, j) in p.cells():
                classic *= (p.part(i) - j) + (conj.part(j) - i) + 1
            assert hook_product(p, alg).nu == Fraction(classic) ** 2
