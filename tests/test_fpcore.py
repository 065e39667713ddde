from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import brute_rank_row, enumerate_span, is_independent_oracle
from fpmap.errors import CapExceededError, InputError
from fpmap.fpcore import (
    GroupElement,
    OrderedBasis,
    Prime,
    Truncation,
    is_independent,
    rank,
    rank_digits,
    solve_in_span,
    word_digits,
)


def e(p, *pairs):
    return GroupElement.make(p, pairs)


class TestGroupElement:
    def test_make_reduces_and_sorts(self):
        g = GroupElement.make(3, [(5, 4), (2, 1), (5, 2)])
        # 4 + 2 = 6 = 0 mod 3, so index 5 drops out entirely
        assert g.items == ((2, 1),)

    def test_add_cancels(self):
        g = e(3, (1, 2))
        assert (g + g).items == ((1, 1),)  # 2 + 2 = 4 = 1 mod 3

    def test_add_merges_supports(self):
        g = e(2, (1, 1), (3, 1))
        h = e(2, (2, 1), (3, 1))
        assert (g + h).items == ((1, 1), (2, 1))

    def test_neg_and_sub(self):
        g = e(5, (1, 2), (4, 3))
        assert (-g).items == ((1, 3), (4, 2))
        assert (g - g).is_zero()

    def test_smul_wraps(self):
        g = e(3, (2, 2))
        assert (2 * g).items == ((2, 1),)
        assert (3 * g).is_zero()
        assert (-1 * g).items == (-g).items

    @given(p=st.sampled_from([2, 3, 5, 7, 97]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_is_coefficientwise_mod_p(self, p, data):
        # +, unary - and smul all go through make; each must agree with the
        # coefficient vectors added, negated and scaled mod p
        vectors = st.dictionaries(st.integers(1, 8), st.integers(-3 * p, 3 * p), max_size=8)
        a = GroupElement.make(p, data.draw(vectors))
        b = GroupElement.make(p, data.draw(vectors))
        k = data.draw(st.sampled_from([0, 1, p - 1]) | st.integers(-5 * p, -1))
        indices = range(1, 9)
        assert [(a + b).coeff(i) for i in indices] == [
            (a.coeff(i) + b.coeff(i)) % p for i in indices]
        assert [(-a).coeff(i) for i in indices] == [-a.coeff(i) % p for i in indices]
        assert [(k * a).coeff(i) for i in indices] == [k * a.coeff(i) % p for i in indices]
        assert a.smul(k) == k * a
        assert (a + (-a)).is_zero()
        assert a - b == a + (-b)

    def test_support_and_max_index(self):
        g = e(3, (2, 2), (5, 1))
        assert g.support == (2, 5)
        assert g.max_index == 5
        assert GroupElement.zero(3).max_index == 0

    def test_coeff_lookup(self):
        g = e(7, (3, 4))
        assert g.coeff(3) == 4
        assert g.coeff(1) == 0

    def test_rejects_bad_indices(self):
        with pytest.raises(InputError):
            GroupElement.make(2, [(0, 1)])
        with pytest.raises(InputError):
            GroupElement.make(2, [(-3, 1)])

    def test_rejects_unsorted_items(self):
        with pytest.raises(InputError):
            GroupElement(Prime(2), ((3, 1), (1, 1)))

    def test_rejects_unreduced_coefficients(self):
        with pytest.raises(InputError):
            GroupElement(Prime(3), ((1, 3),))
        with pytest.raises(InputError):
            GroupElement(Prime(3), ((1, 0),))

    def test_mixed_primes_rejected(self):
        with pytest.raises(InputError, match="mismatched primes"):
            e(2, (1, 1)) + e(3, (1, 1))

    def test_prime_validation(self):
        with pytest.raises(InputError):
            Prime(4)
        with pytest.raises(InputError):
            Prime(1)
        with pytest.raises(InputError):
            Prime(101)  # above the default cap


class TestLinearAlgebra:
    def test_rank_of_dependent_pair(self):
        # over F_3, 2*(2e1 + e2) = 4e1 + 2e2 = e1 + 2e2
        a = e(3, (1, 2), (2, 1))
        b = e(3, (1, 1), (2, 2))
        assert rank([a, b]) == 1

    def test_rank_independent_pair(self):
        # value frozen from the reference row reduction: two pivots
        a = e(3, (1, 1), (2, 1))
        b = e(3, (1, 1), (2, 2))
        assert rank([a, b]) == 2
        assert is_independent([a, b])

    def test_solve_in_span_unit_over_skew_basis(self):
        # basis b1 = e1, b2 = e1 + e2 over F_2; then e2 = b1 + b2
        basis = OrderedBasis(Prime(2), (e(2, (1, 1)), e(2, (1, 1), (2, 1))))
        assert solve_in_span(e(2, (2, 1)), basis.elems) == (1, 1)

    def test_solve_in_span_dependent_set(self):
        # spanning set with a redundant vector still solves
        a = e(2, (1, 1))
        b = e(2, (2, 1))
        c = e(2, (1, 1), (2, 1))
        coeffs = solve_in_span(e(2, (2, 1)), [a, b, c])
        assert coeffs is not None
        total = GroupElement.zero(2)
        for k, g in zip(coeffs, [a, b, c]):
            total = total + g.smul(k)
        assert total == e(2, (2, 1))

    def test_solve_outside_support_short_circuit(self):
        assert solve_in_span(e(2, (9, 1)), [e(2, (1, 1))]) is None

    def test_ordered_basis_rejects_dependent(self):
        with pytest.raises(InputError):
            OrderedBasis(Prime(2), (e(2, (1, 1)), e(2, (1, 1))))

    def test_ordered_basis_rejects_zero(self):
        with pytest.raises(InputError):
            OrderedBasis(Prime(2), (GroupElement.zero(2),))


class TestEnumerationAndOracle:
    def test_enumerate_span_order_and_count(self):
        basis = OrderedBasis.standard(3, 3)
        span = list(enumerate_span(basis))
        assert len(span) == 27
        assert span[0].is_zero()
        assert span[-1] == e(3, (1, 2), (2, 2), (3, 2))
        assert len(set(span)) == 27

    def test_enumerate_span_lex_order(self):
        basis = OrderedBasis.standard(2, 2)
        got = [g.items for g in enumerate_span(basis)]
        assert got == [(), ((2, 1),), ((1, 1),), ((1, 1), (2, 1))]

    def test_enumerate_span_empty_inputs(self):
        with pytest.raises(InputError):
            list(enumerate_span([]))

    def test_enumerate_span_cap(self):
        basis = OrderedBasis.standard(2, 5)
        with pytest.raises(CapExceededError):
            list(enumerate_span(basis, cap=31))

    def test_oracle_agrees_with_rank_check(self):
        # exhaustive cross-check on small families over F_2
        fams = [
            [e(2, (1, 1)), e(2, (2, 1))],
            [e(2, (1, 1)), e(2, (1, 1), (2, 1))],
            [e(2, (1, 1), (2, 1)), e(2, (2, 1), (3, 1)), e(2, (1, 1), (3, 1))],
            [e(2, (1, 1)), e(2, (2, 1)), e(2, (3, 1))],
        ]
        for fam in fams:
            assert is_independent_oracle(fam) == is_independent(fam)

    def test_oracle_rejects_zero(self):
        assert not is_independent_oracle([GroupElement.zero(2), e(2, (1, 1))])

    def test_oracle_cap(self):
        fam = [e(2, (i, 1)) for i in range(1, 13)]
        with pytest.raises(CapExceededError):
            is_independent_oracle(fam, cap=1000)


class TestTruncation:
    def test_rank_roundtrip(self):
        tr = Truncation(3, 4)
        for r in range(tr.size):
            assert tr.rank_of(tr.element_of(r)) == r

    def test_rank_matches_enumeration_order(self):
        tr = Truncation(2, 3)
        span = list(enumerate_span(OrderedBasis.standard(2, 3)))
        for r, g in enumerate(span):
            assert tr.element_of(r) == g

    def test_add_rank_row_matches_elementwise_addition(self):
        for p, d in [(2, 3), (3, 2), (5, 2)]:
            tr = Truncation(p, d)
            for r in range(tr.size):
                row = tr.add_rank_row(r)
                gr = tr.element_of(r)
                for s in range(tr.size):
                    assert int(row[s]) == tr.rank_of(tr.element_of(s) + gr)

    def test_sub_and_neg(self):
        tr = Truncation(3, 2)
        for r in range(tr.size):
            assert int(tr.neg_perm[r]) == tr.rank_of(-tr.element_of(r))
            row = tr.sub_rank_row(r)
            for s in range(tr.size):
                assert int(row[s]) == tr.rank_of(tr.element_of(s) - tr.element_of(r))

    # dim 1 leaves the high half empty; odd dims split unevenly
    @pytest.mark.parametrize("p, dim", [(2, 1), (3, 1), (7, 1), (5, 2), (3, 3),
                                        (7, 3), (3, 4), (5, 5), (2, 6), (3, 7)])
    @pytest.mark.parametrize("end", ["first", "last"])
    def test_rank_rows_at_both_ends_match_oracle(self, p, dim, end):
        tr = Truncation(p, dim)
        r = 0 if end == "first" else tr.size - 1
        assert tr.add_rank_row(r).tolist() == brute_rank_row(tr, r, 1)
        assert tr.sub_rank_row(r).tolist() == brute_rank_row(tr, r, -1)
        assert int(tr.neg_perm[r]) == brute_rank_row(tr, r, -1, [0])[0]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_rows_match_oracle(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        dim = data.draw(st.integers(1, 6).filter(lambda d: p ** d <= 4096))
        tr = Truncation(p, dim)
        r = data.draw(st.integers(0, tr.size - 1))
        assert tr.add_rank_row(r).tolist() == brute_rank_row(tr, r, 1)
        assert tr.sub_rank_row(r).tolist() == brute_rank_row(tr, r, -1)
        assert tr.neg_perm.tolist() == \
            [brute_rank_row(tr, g, -1, [0])[0] for g in range(tr.size)]
        ranks = data.draw(st.lists(st.integers(0, tr.size - 1), max_size=20))
        assert tr.add_ranks(r, np.array(ranks, dtype=np.int64)).tolist() == \
            brute_rank_row(tr, r, 1, ranks)

    def test_rank_rows_at_the_cap_edge_skip_the_digit_table(self):
        # 97^3 = 912,673 elements: a (size, dim) digit table would be 21.9 MB
        tr = Truncation(97, 3)
        rng = Random(0)
        positions = [0, 1, 96, 97, 9408, 9409, tr.size - 1] + \
            [rng.randrange(tr.size) for _ in range(40)]
        for r in [0, 1, 9409, 456_789, tr.size - 1]:
            assert tr.add_rank_row(r)[positions].tolist() == brute_rank_row(tr, r, 1, positions)
            assert tr.sub_rank_row(r)[positions].tolist() == brute_rank_row(tr, r, -1, positions)
            assert tr.add_ranks(r, np.array(positions)).tolist() == \
                brute_rank_row(tr, r, 1, positions)
        assert tr.neg_perm[positions].tolist() == \
            [brute_rank_row(tr, g, -1, [0])[0] for g in positions]

    @given(p=st.sampled_from([2, 3, 5, 7, 97]), k=st.integers(0, 6),
           raw=st.lists(st.integers(0, 10 ** 12), max_size=20))
    @example(p=97, k=0, raw=[0, 5])  # the empty high half of a dim-1 truncation
    @example(p=97, k=1, raw=[0, 1, 96])
    @example(p=2, k=1, raw=[0, 1])
    @settings(max_examples=80, deadline=None)
    def test_digit_codec(self, p, k, raw):
        assume(p ** k <= 10 ** 6)
        ranks = [r % p ** k for r in raw]
        table = rank_digits(ranks, p, k)
        assert table.shape == (len(ranks), k) and table.dtype == np.int64
        tr = Truncation(p, k) if k else None
        for r, row in zip(ranks, table.tolist()):
            digits = word_digits(r, p, k)
            assert tuple(row) == digits
            assert all(0 <= c < p for c in digits)
            assert sum(c * p ** (k - 1 - j) for j, c in enumerate(digits)) == r
            if tr is not None:
                g = tr.element_of(r)
                assert g.items == tuple((i, c) for i, c in enumerate(digits, 1) if c)
                assert tr.rank_of(g) == r

    def test_out_of_range_rejected(self):
        tr = Truncation(2, 2)
        with pytest.raises(InputError):
            tr.rank_of(e(2, (3, 1)))
        with pytest.raises(InputError):
            tr.element_of(4)
        with pytest.raises(InputError):
            tr.element_of(-1)

    def test_size_cap(self):
        with pytest.raises(CapExceededError):
            Truncation(2, 30, cap=1000)


small_prime = st.sampled_from([2, 3, 5])


@st.composite
def elements(draw, p=None, max_index=6):
    pp = p if p is not None else draw(small_prime)
    n = draw(st.integers(0, min(4, max_index)))
    idxs = draw(st.lists(st.integers(1, max_index), min_size=n, max_size=n, unique=True))
    pairs = [(i, draw(st.integers(1, pp - 1))) for i in idxs]
    return GroupElement.make(pp, pairs)


class TestAlgebraProperties:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_group_laws(self, data):
        p = data.draw(small_prime)
        g = data.draw(elements(p=p))
        h = data.draw(elements(p=p))
        k = data.draw(elements(p=p))
        assert g + h == h + g
        assert (g + h) + k == g + (h + k)
        assert g + GroupElement.zero(p) == g
        assert (g + (-g)).is_zero()
        assert g.smul(p).is_zero()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_solve_in_span_reconstructs(self, data):
        p = data.draw(small_prime)
        dim = data.draw(st.integers(1, 4))
        basis = OrderedBasis.standard(p, dim)
        g = data.draw(elements(p=p, max_index=dim))
        coeffs = solve_in_span(g, basis.elems)
        total = GroupElement.zero(p)
        for k, b in zip(coeffs, basis):
            total = total + b.smul(k)
        assert total == g

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_oracle_matches_rank_on_random_small_families(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.integers(1, 3 if p == 2 else 2))
        fam = [data.draw(elements(p=p, max_index=4)) for _ in range(n)]
        if any(g.is_zero() for g in fam):
            assert not is_independent_oracle(fam)
        else:
            assert is_independent_oracle(fam) == is_independent(fam)
