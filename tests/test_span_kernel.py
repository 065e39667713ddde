"""The span kernel against the nested-loop word scans in tests/oracles.py.

Norm.span_values and Truncation.span_ranks replace every hand-built word
loop; each ported scan must give the same report, violation lists included,
as the loop it replaced. Null-subsequence selection reads candidate values
from the same tables and top positions without a solve, against the
per-candidate loop it replaced.
"""

from fractions import Fraction as F
from random import Random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_coarser,
    brute_member_word_bound,
    brute_modulus,
    brute_pair_domination,
    brute_reduce_basis,
    brute_reduced_properties,
    brute_select_null_subsequence,
    brute_ultrametric_values,
)
from fpmap.errors import ExhaustedError, InputError
from fpmap.extraction import (
    IndependentFamily,
    independence_modulus,
    norm_sorted_span,
    product_coarser_check,
    reduced_max_position,
    select_null_subsequence,
)
from fpmap.fpcore import (
    GroupElement,
    OrderedBasis,
    Truncation,
    as_prime,
    enumerate_span,
    rank,
)
from fpmap.norms import (
    CostCompletionNorm,
    GraevBooleanNorm,
    TableNorm,
    UltrametricProductNorm,
    graded_cost,
    random_cost,
    random_metric_space,
    validate_axioms,
)
from fpmap.reduction import (
    ReducedBasis,
    ReductionStep,
    check_member_word_bound,
    check_pair_domination,
    reduce_basis,
    verify_reduced_properties,
)


def build_norm(kind, p, dim, seed):
    rng = Random(seed)
    if kind == "table":
        # values in [1, 2] satisfy the triangle inequality outright
        cost = random_cost(seed, p, dim, 1, 2, steps=3)
        tr = cost.truncation
        return TableNorm(p, dim, [(tr.element_of(r), cost.value_of_rank(r))
                                  for r in range(1, tr.size)])
    if kind == "cost":
        return CostCompletionNorm(random_cost(seed, p, dim, F(1, 10), 1, steps=4))
    if kind == "graded":
        return CostCompletionNorm(graded_cost(seed, p, dim, steps=4))
    if kind == "ultrametric":
        # few distinct weights, some below the modulus thresholds, so ties
        # and small words both occur
        return UltrametricProductNorm(
            p, dim, [F(1, (4 * p) ** rng.randrange(3) * rng.randrange(1, 3))
                     for _ in range(dim)])
    return GraevBooleanNorm(random_metric_space(seed, dim + 1, 1, 3, steps=4))


@st.composite
def norms(draw):
    kind = draw(st.sampled_from(["table", "cost", "graded", "ultrametric", "graev"]))
    if kind == "graev":
        p, dim = 2, draw(st.integers(1, 6))
    else:
        p, dim = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 5))
    norm = build_norm(kind, p, dim, draw(st.integers(0, 10 ** 6)))
    assert validate_axioms(norm).ok
    return norm


def random_basis(p, dim, rng):
    """Unit upper-triangular rows: independent, with dense words."""
    return OrderedBasis(as_prime(p), tuple(
        GroupElement.make(p, [(i, 1)] + [(j, rng.randrange(p)) for j in range(i + 1, dim + 1)])
        for i in range(1, dim + 1)))


def planted(basis, norm):
    """The basis itself posing as its own reduction."""
    steps = tuple(ReductionStep(n, (0,) * (n - 1) + (1,), g, norm.eval(g), 1, None)
                  for n, g in enumerate(basis, start=1))
    return ReducedBasis(basis, basis, steps)


def family_of(elems, norm):
    return IndependentFamily(tuple(elems), tuple(range(1, len(elems) + 1)),
                             tuple(norm.eval(g) for g in elems), None)


def same_modulus(family, norm, l, m):
    """Equal reports, or for l > m the same InputError from both."""
    if l > m:
        for modulus in (independence_modulus, brute_modulus):
            with pytest.raises(InputError, match=f"l must be in 1..{m}, got {l}"):
                modulus(family, norm, l, m)
        return
    assert (independence_modulus(family, norm, l, m).to_json_dict()
            == brute_modulus(family, norm, l, m).to_json_dict())


def same_scans(reduced, norm, max_tuple, l, m):
    d = len(reduced)
    assert (verify_reduced_properties(reduced, norm, max_tuple=max_tuple).to_json_dict()
            == brute_reduced_properties(reduced, norm, max_tuple=max_tuple).to_json_dict())
    bound = min(max_tuple or d, 4)
    assert (check_member_word_bound(reduced, norm, max_tuple=bound).to_json_dict()
            == brute_member_word_bound(reduced, norm, max_tuple=bound).to_json_dict())
    assert (check_pair_domination(reduced, norm).to_json_dict()
            == brute_pair_domination(reduced, norm).to_json_dict())
    family = family_of(reduced.reduced.elems, norm)
    same_modulus(family, norm, l, m)
    assert (product_coarser_check(family, norm, m).to_json_dict()
            == brute_coarser(family, norm, m).to_json_dict())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(norm=norms(), data=st.data())
def test_ported_scans_match_nested_loops(norm, data):
    d = norm.dim
    std = OrderedBasis.standard(norm.prime, d)
    reduced = reduce_basis(std, norm)
    assert reduced.to_json_dict() == brute_reduce_basis(std, norm).to_json_dict()
    max_tuple = data.draw(st.one_of(st.none(), st.integers(1, d)))
    m = data.draw(st.integers(1, d))
    l = data.draw(st.integers(1, m + 1))
    same_scans(reduced, norm, max_tuple, l, m)
    # a basis that is not reduced: the violation lists, in order
    basis = random_basis(norm.prime.p, d, Random(data.draw(st.integers(0, 99))))
    same_scans(planted(basis, norm), norm, max_tuple, l, m)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), dim=st.integers(1, 4), data=st.data())
def test_modulus_and_coarser_match_on_unvalidated_tables(p, dim, data):
    # neither check gates on the axioms: values that break the triangle
    # inequality, or vanish off zero, reach the split-combo and coarser
    # violations, and members may even be dependent
    tr = Truncation(p, dim)
    rng = Random(data.draw(st.integers(0, 10 ** 6)))
    norm = TableNorm(p, dim, [(tr.element_of(r), F(rng.randrange(4), (4 * p) ** rng.randrange(4)))
                              for r in range(1, tr.size)])
    members = [tr.element_of(rng.randrange(1, tr.size)) for _ in range(data.draw(st.integers(1, 4)))]
    family = family_of(members, norm)
    m = data.draw(st.integers(1, len(members)))
    l = data.draw(st.integers(1, m + 1))
    same_modulus(family, norm, l, m)
    assert (product_coarser_check(family, norm, m).to_json_dict()
            == brute_coarser(family, norm, m).to_json_dict())


def test_python_int_storage_matches_nested_loops():
    # numerators near 2^70 do not fit int64, so the table holds Python ints
    p, dim = 3, 3
    tr = Truncation(p, dim)
    rng = Random(5)
    big = {}
    for r in range(1, tr.size):
        big.setdefault(min(r, int(tr.neg_perm[r])), F(2 ** 70 + rng.randrange(3), 2 ** 75))
    norm = TableNorm(p, dim, [(tr.element_of(r), big[min(r, int(tr.neg_perm[r]))])
                              for r in range(1, tr.size)])
    assert norm._table[0].dtype == object
    assert validate_axioms(norm).ok
    std = OrderedBasis.standard(p, dim)
    reduced = reduce_basis(std, norm)
    assert reduced.to_json_dict() == brute_reduce_basis(std, norm).to_json_dict()
    same_scans(reduced, norm, None, 1, dim)
    same_scans(planted(random_basis(p, dim, rng), norm), norm, 2, 2, dim)


def test_planted_violations_are_listed_in_loop_order():
    norm = build_norm("ultrametric", 3, 4, 7)
    validate_axioms(norm)
    basis = random_basis(3, 4, Random(1))
    reduced = planted(basis, norm)
    props = verify_reduced_properties(reduced, norm)
    words = check_member_word_bound(reduced, norm, max_tuple=4)
    assert props.violations and words.violations
    assert props.to_json_dict() == brute_reduced_properties(reduced, norm).to_json_dict()
    assert (words.to_json_dict()
            == brute_member_word_bound(reduced, norm, max_tuple=4).to_json_dict())


def as_fractions(pair):
    nums, den = pair
    return [F(int(n), den) for n in nums]


def test_table_and_generic_routes_agree():
    # span values before and after validate_axioms, against one max of the
    # weights per word
    norm = UltrametricProductNorm(3, 4, [F(1, 2), F(1, 5), F(1, 2), F(1, 7)])
    rng = Random(3)
    tr = Truncation(3, 4)
    elems = [tr.element_of(rng.randrange(tr.size)) for _ in range(3)]
    ref = brute_ultrametric_values(3, norm.weights)
    values = as_fractions(norm.span_values(elems))
    assert values == [ref[tr.rank_of(w)] for w in enumerate_span(elems)]
    validate_axioms(norm)
    assert as_fractions(norm.span_values(elems)) == values
    assert as_fractions(norm.span_values(OrderedBasis.standard(3, 4).elems)) == ref


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(1, 4), data=st.data())
def test_span_ranks_match_enumerate_span(p, dim, data):
    tr = Truncation(p, dim)
    k = data.draw(st.integers(1, 3))
    elems = [tr.element_of(data.draw(st.integers(0, tr.size - 1))) for _ in range(k)]
    assert tr.span_ranks(elems).tolist() == [tr.rank_of(w) for w in enumerate_span(elems)]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(2, 5), data=st.data())
def test_extending_past_the_last_index_adds_ranks(p, dim, data):
    # a span of elements over e_1..e_k grown by g: with g past e_k the ranks
    # are added without a carry, and with g reaching back to e_k or below the
    # half rows take over; both must give the enumerate_span ranks
    tr = Truncation(p, dim)
    k = data.draw(st.integers(1, dim - 1))
    elems = [tr.element_of(data.draw(st.integers(0, p ** k - 1)) * p ** (dim - k))
             for _ in range(data.draw(st.integers(0, 2)))]
    first = data.draw(st.integers(1, dim))
    g = GroupElement.make(p, [(i, data.draw(st.integers(0, p - 1)) if i > first else 1)
                              for i in range(first, dim + 1)])
    ranks = tr.span_ranks(elems)
    assert tr.extend_span(ranks, g).tolist() == [tr.rank_of(w) for w in enumerate_span(elems + [g])]


def test_span_ranks_skip_the_digit_table():
    tr = Truncation(97, 3)
    a = GroupElement.make(97, [(1, 5), (3, 96)])
    b = GroupElement.make(97, [(2, 1), (3, 40)])
    ranks = tr.span_ranks([a, b])
    assert ranks.size == 97 ** 2
    for c1, c2 in [(0, 0), (0, 1), (1, 0), (3, 77), (96, 96)]:
        assert ranks[c1 * 97 + c2] == tr.rank_of(a.smul(c1) + b.smul(c2))
    assert rank([a, b]) == 2 and len(set(ranks.tolist())) == 97 ** 2


def same_selection(seq, norm, reduced, length, ranks=None):
    """select_null_subsequence and the per-candidate loop agree, down to the
    ExhaustedError fields and the error raised for a candidate outside the span.
    Given the ranks of seq too, selection over them must agree as well."""
    inputs = [seq] if ranks is None else [seq, ranks]
    try:
        want = brute_select_null_subsequence(seq, norm, reduced, length)
    except (ExhaustedError, InputError) as exc:
        for candidates in inputs:
            with pytest.raises(type(exc)) as info:
                select_null_subsequence(candidates, norm, reduced, length)
            assert str(info.value) == str(exc)
            if isinstance(exc, ExhaustedError):
                got = info.value
                assert ((got.achievable_length, got.failed_slot, got.constraint)
                        == (exc.achievable_length, exc.failed_slot, exc.constraint))
        return
    for candidates in inputs:
        assert select_null_subsequence(candidates, norm, reduced, length) == want


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(norm=norms(), data=st.data())
def test_selection_matches_per_candidate_loop(norm, data):
    d = norm.dim
    rng = Random(data.draw(st.integers(0, 10 ** 6)))
    span = [norm.truncation.element_of(r) for r in norm_sorted_span(norm).tolist()]
    # length d + 1 cannot be met on a standard original, so exhaustion shows up
    length = data.draw(st.integers(1, d + 1))
    standard = reduce_basis(OrderedBasis.standard(norm.prime, d), norm)
    # a planted non-standard original reads coordinates from its span ranks
    other = planted(random_basis(norm.prime.p, d, rng), norm)
    for reduced in (standard, other):
        for seq in (span, rng.sample(span, rng.randrange(len(span) + 1))):
            same_selection(seq, norm, reduced, length)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(norm=norms(), data=st.data())
def test_rank_space_selection_matches_per_candidate_loop(norm, data):
    # norm_sorted_span's ranks, and a random subset of them in random order,
    # against the loop over the same candidates as elements
    d, tr = norm.dim, norm.truncation
    rng = Random(data.draw(st.integers(0, 10 ** 6)))
    span = norm_sorted_span(norm)
    assert span.dtype == np.int64
    length = data.draw(st.integers(1, d + 1))
    standard = reduce_basis(OrderedBasis.standard(norm.prime, d), norm)
    other = planted(random_basis(norm.prime.p, d, rng), norm)
    subset = np.array(rng.sample(span.tolist(), rng.randrange(span.size + 1)), dtype=np.int64)
    for reduced in (standard, other):
        for ranks in (span, subset):
            elems = [tr.element_of(r) for r in ranks.tolist()]
            same_selection(elems, norm, reduced, length, ranks=ranks)


def random_dense_basis(p, dim, k, rng):
    """k independent elements with uniformly random coefficients."""
    elems = []
    while len(elems) < k:
        g = GroupElement.make(p, [(i, rng.randrange(p)) for i in range(1, dim + 1)])
        if rank(elems + [g]) == len(elems) + 1:
            elems.append(g)
    return OrderedBasis(as_prime(p), tuple(elems))


def test_selection_on_a_random_original_at_dim_10():
    # a dense original spanning the truncation, and one of 6 elements, whose
    # span leaves out most candidates: selection over the candidates inside
    # it, and the error for the first one outside
    norm = build_norm("graded", 2, 10, 4)
    validate_axioms(norm)
    tr = norm.truncation
    span = norm_sorted_span(norm)
    rng = Random(10)
    for k in (10, 6):
        reduced = reduce_basis(random_dense_basis(2, 10, k, rng), norm)
        inside = span[np.isin(span, tr.span_ranks(reduced.original.elems))]
        for ranks in (inside, span):
            for length in (1, 4, k, k + 1):
                same_selection([tr.element_of(r) for r in ranks.tolist()], norm, reduced,
                               length, ranks=ranks)


def test_rank_candidates_out_of_range():
    norm = UltrametricProductNorm(3, 2)
    validate_axioms(norm)
    reduced = reduce_basis(OrderedBasis.standard(3, 2), norm)
    for bad in ([0, 9], [-1]):
        with pytest.raises(InputError, match="candidate ranks must lie in 0..8"):
            select_null_subsequence(np.array(bad, dtype=np.int64), norm, reduced, 1)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(p=st.sampled_from([2, 3]), dim=st.integers(1, 3), data=st.data())
def test_selection_over_values_around_the_thresholds(p, dim, data):
    # each value sits just below, at or just above some 1/(4p)^n, or at 1,
    # so the candidates of the first slot are a scattered part of the
    # sequence and chains run out by either constraint
    near = [F(1, (4 * p) ** n) + F(k, (4 * p) ** (dim + 3))
            for n in range(1, dim + 2) for k in (-1, 0, 1)] + [F(1)]
    tr = Truncation(p, dim)
    values = [data.draw(st.sampled_from(near)) for _ in range(1, tr.size)]
    norm = TableNorm(p, dim, [(tr.element_of(r), v) for r, v in enumerate(values, 1)])
    rng = Random(data.draw(st.integers(0, 10 ** 6)))
    span = norm_sorted_span(norm)
    ranks = np.array(rng.sample(span.tolist(), rng.randrange(span.size + 1)), dtype=np.int64)
    length = data.draw(st.integers(1, dim + 1))
    for basis in (OrderedBasis.standard(p, dim), random_basis(p, dim, rng)):
        for seq in (span, ranks):
            same_selection([tr.element_of(r) for r in seq.tolist()], norm, planted(basis, norm),
                           length, ranks=seq)


def test_zero_between_the_first_slot_candidates_is_no_candidate():
    # 0 has no top position, so inside the window of first-slot candidates it
    # must not count as small for slot 2, which only the threshold blocks
    norm = TableNorm(2, 2, [(GroupElement.make(2, items), F(1, 9))
                            for items in ([(1, 1)], [(2, 1)], [(1, 1), (2, 1)])])
    tr, reduced = norm.truncation, planted(OrderedBasis.standard(2, 2), norm)
    ranks = np.array([2, 0, 1], dtype=np.int64)
    same_selection([tr.element_of(r) for r in ranks.tolist()], norm, reduced, 2, ranks=ranks)
    with pytest.raises(ExhaustedError) as info:
        select_null_subsequence(ranks, norm, reduced, 2)
    assert (info.value.failed_slot, info.value.constraint) == (2, "threshold")


def test_selection_without_a_table_and_outside_the_span():
    # selection on a norm not yet validated; a shorter reduced basis leaves
    # e3 and e4 outside its span
    norm = UltrametricProductNorm(2, 4, [F(1, 9), F(1, 100), F(1, 2), F(1, 3000)])
    tr = Truncation(2, 4)
    elems = [tr.element_of(r) for r in range(tr.size)]
    for basis in (OrderedBasis.standard(2, 4), random_basis(2, 4, Random(2))):
        for length in (1, 2, 3, 4):
            same_selection(elems, norm, planted(basis, norm), length)
            same_selection(elems[::-1], norm, planted(basis, norm), length)
    validate_axioms(norm)
    short = reduce_basis(OrderedBasis.standard(2, 2), norm)
    same_selection(elems[:4], norm, short, 2)
    same_selection(elems, norm, short, 2)
    # e3 is the first candidate outside, one index past the reduced basis
    same_selection(elems[2:4], norm, short, 1, ranks=np.array([2, 3]))
    with pytest.raises(InputError, match="is not in the span of the reduced basis"):
        select_null_subsequence([elems[1], elems[2]], norm, short, 1)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(norm=norms())
def test_top_position_is_max_index_for_standard_original(norm):
    reduced = reduce_basis(OrderedBasis.standard(norm.prime, norm.dim), norm)
    tr = Truncation(norm.prime, norm.dim)
    for r in range(tr.size):
        g = tr.element_of(r)
        assert reduced_max_position(g, reduced) == g.max_index
