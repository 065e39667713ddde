"""The word layout and the checkers that read it, and the Graev distances as
integers, against the references in tests/oracles.py.

Truncation.top, .support and .strip give each rank its top index, its
support and its strip (the rank without its top term); verify_reduced_properties and
check_member_word_bound read it instead of one digit pass per index, and
must give the reports of the per-index loops they replaced. A metric space
repairs its distances on integers and must store what _scaled makes of the
Fraction repair.
"""

import tracemalloc
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_metric_repair, per_index_member_word_bound, per_index_reduced_properties
from fpmap import jsonio
from fpmap.errors import InputError
from fpmap.fpcore import GroupElement, OrderedBasis, Truncation, as_prime
from fpmap.norms import (
    CostCompletionNorm,
    GraevBooleanNorm,
    PointedMetricSpace,
    TableNorm,
    UltrametricProductNorm,
    _scaled,
    graded_cost,
    norm_from_config,
    random_cost,
    random_metric_space,
    validate_axioms,
)
from fpmap.reduction import (
    ReducedBasis,
    ReductionStep,
    check_member_word_bound,
    reduce_basis,
    verify_reduced_properties,
)

SHAPES = [(2, 1), (2, 7), (3, 5), (5, 3), (7, 2)]


@pytest.mark.parametrize("p, dim", SHAPES)
def test_layout_matches_elements(p, dim):
    tr = Truncation(p, dim)
    assert tr.support is tr.support and tr.strip is tr.strip  # built once per truncation
    assert (tr.top.dtype, tr.support.dtype, tr.strip.dtype) == (np.int8, np.int8, np.int32)
    for a in (tr.top, tr.support, tr.strip):
        assert a.size == tr.size and not a.flags.writeable
    for r in range(tr.size):
        g = tr.element_of(r)
        assert tr.top[r] == g.max_index
        assert tr.support[r] == len(g.items)
        # the strip drops the term at the largest index, not the smallest
        assert tr.strip[r] == tr.rank_of(GroupElement(g.prime, g.items[:-1]))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_layout_strips_reach_every_term(p, data):
    # the k-th strip's top is the k-th index of the support from the top
    dim = data.draw(st.integers(1, {2: 10, 3: 6, 5: 4, 7: 3}[p]))
    tr = Truncation(p, dim)
    r = data.draw(st.integers(0, tr.size - 1))
    support = tr.element_of(r).support
    tops, s = [], r
    while s:
        tops.append(int(tr.top[s]))
        s = int(tr.strip[s])
    assert tops == list(reversed(support))
    assert tr.top[np.array([r, 0])].tolist() == [max(support, default=0), 0]


def planted(basis, norm):
    """The basis itself posing as its own reduction: its words break both
    inequalities."""
    steps = tuple(ReductionStep(n, (0,) * (n - 1) + (1,), g, norm.eval(g), 1, None)
                  for n, g in enumerate(basis, start=1))
    return ReducedBasis(basis, basis, steps)


def dense_basis(p, dim, rng):
    return OrderedBasis(as_prime(p), tuple(
        GroupElement.make(p, [(i, 1)] + [(j, rng.randrange(p)) for j in range(i + 1, dim + 1)])
        for i in range(1, dim + 1)))


def big_table(p, dim, seed):
    """A table norm whose numerators near 2^70 need Python ints."""
    tr = Truncation(p, dim)
    rng = Random(seed)
    vals = {}
    for r in range(1, tr.size):
        vals.setdefault(min(r, int(tr.neg_perm[r])), F(2 ** 70 + 2 * rng.randrange(3) + 1, 2 ** 75))
    return TableNorm(p, dim, [(tr.element_of(r), vals[min(r, int(tr.neg_perm[r]))])
                              for r in range(1, tr.size)])


def make_norm(kind, p, dim, seed):
    if kind == "graded":
        return CostCompletionNorm(graded_cost(seed, p, dim, steps=4))
    if kind == "graev":
        return GraevBooleanNorm(random_metric_space(seed, dim + 1, 1, 3, steps=4))
    if kind == "table":
        cost = random_cost(seed, p, dim, 1, 2, steps=3)
        tr = cost.truncation
        return TableNorm(p, dim, [(tr.element_of(r), cost.value_of_rank(r))
                                  for r in range(1, tr.size)])
    if kind == "ultrametric":
        return UltrametricProductNorm(p, dim, [F(1, Random(seed + i).randrange(1, 4))
                                               for i in range(dim)])
    return big_table(p, dim, seed)


def same_checkers(reduced, norm, max_tuple):
    assert (verify_reduced_properties(reduced, norm, max_tuple=max_tuple).to_json_dict()
            == per_index_reduced_properties(reduced, norm, max_tuple=max_tuple).to_json_dict())
    bound = len(reduced) if max_tuple is None else max_tuple
    assert (check_member_word_bound(reduced, norm, max_tuple=bound).to_json_dict()
            == per_index_member_word_bound(reduced, norm, max_tuple=bound).to_json_dict())


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["graded", "graev", "table", "ultrametric", "object"]),
       data=st.data())
def test_checkers_match_the_per_index_loops(kind, data):
    p = 2 if kind == "graev" else data.draw(st.sampled_from([2, 3, 5]))
    dim = data.draw(st.integers(1, {2: 6, 3: 4, 5: 3}[p]))
    seed = data.draw(st.integers(0, 10 ** 6))
    norm = make_norm(kind, p, dim, seed)
    assert validate_axioms(norm).ok
    if kind == "object":
        assert norm._table[0].dtype == object
    max_tuple = data.draw(st.sampled_from([None, 1, 2, dim]))
    same_checkers(reduce_basis(OrderedBasis.standard(p, dim), norm), norm, max_tuple)
    # a planted defect: the violation lists, in order
    same_checkers(planted(dense_basis(p, dim, Random(seed)), norm), norm, max_tuple)


@pytest.mark.parametrize("max_tuple", [1, 2, 4])
def test_planted_defects_on_the_ultrametric_norm(max_tuple):
    # weights rising with the index make the later basis terms the heavy ones
    norm = UltrametricProductNorm(3, 4, [F(1, 4), F(1, 3), F(1, 2), F(1)])
    validate_axioms(norm)
    reduced = planted(dense_basis(3, 4, Random(1)), norm)
    # a one-term word is a multiple of its own top term, of the same value
    words = (verify_reduced_properties(reduced, norm, max_tuple=max_tuple).violations,
             check_member_word_bound(reduced, norm, max_tuple=max_tuple).violations)
    assert all(words) == (max_tuple > 1)
    same_checkers(reduced, norm, max_tuple)


def test_a_basis_shorter_than_the_truncation():
    # its words are p^k rows of a k-dimensional layout, not the norm's own
    norm = CostCompletionNorm(graded_cost(4, 3, 4))
    validate_axioms(norm)
    basis = OrderedBasis(as_prime(3), OrderedBasis.standard(3, 4).elems[1:3])
    reduced = reduce_basis(basis, norm)
    for max_tuple in (None, 1, 2):
        same_checkers(reduced, norm, max_tuple)
    same_checkers(planted(basis, norm), norm, None)


def test_member_word_bound_peak_memory_stays_below_the_masks():
    # the per-index loop kept one boolean mask per index: dim * size bytes
    p, dim = 2, 16
    norm = CostCompletionNorm(graded_cost(0, p, dim))
    validate_axioms(norm)
    reduced = reduce_basis(OrderedBasis.standard(p, dim), norm)
    norm.truncation.support, norm.truncation.strip  # noqa: B018  built outside the measurement
    tracemalloc.start()
    try:
        report = check_member_word_bound(reduced, norm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < dim * p ** dim


fractions = st.builds(F, st.integers(0, 40), st.integers(1, 12))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    return [[draw(fractions) for _ in range(n)] for _ in range(n)]


def repaired_scaled(matrix):
    rows = fraction_metric_repair(matrix)
    nums, den = _scaled([x for r in rows for x in r])
    return nums.reshape(len(rows), len(rows)), den


def same_space(matrix):
    """The integer repair against _scaled of the Fraction repair: equal
    values, storage and denominator, or equal errors."""
    try:
        want = repaired_scaled(matrix)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            PointedMetricSpace(matrix)
        assert str(info.value) == str(exc)
        return None
    space = PointedMetricSpace(matrix)
    assert space.nums.dtype == want[0].dtype
    assert space.nums.tolist() == want[0].tolist() and space.den == want[1]
    return space


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_integer_repair_matches_the_fraction_repair(matrix):
    space = same_space(matrix)
    if space is not None:
        n = len(matrix)
        assert [[space.dist(i, j) for j in range(n)] for i in range(n)] == fraction_metric_repair(matrix)


def test_repair_edge_cases():
    # the closure removes the only denominator 3, so den drops from 6 to 2
    space = same_space([[0, F(1, 2), F(5, 3)], [F(1, 2), 0, F(1, 2)], [F(5, 3), F(1, 2), 0]])
    assert space.den == 2 and space.nums.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    same_space([[0, -1], [1, 0]])
    same_space([[0, 1, 0], [1, 0, 2], [3, 2, 0]])
    same_space([[F(1, 2)]])
    # numerators past int64 are stored as Python ints
    big = 2 ** 70
    space = same_space([[0, big, F(big, 3)], [big, 0, 1], [F(big, 3), 1, 0]])
    assert space.nums.dtype == object


def graev_cfg(dist, basepoint=0):
    return {"kind": "graev_boolean", "space": {"basepoint": basepoint, "dist": dist}}


@settings(max_examples=60, deadline=None)
@given(matrices(), st.sampled_from(["plain", "unreduced", "negated"]))
def test_config_literals_parse_to_the_same_space(matrix, form):
    # "num/den" strings, written unreduced or with both signs flipped, give
    # the space the Fractions give
    def literal(x):
        k = {"plain": 1, "unreduced": 3, "negated": -1}[form]
        return f"{x.numerator * k}/{x.denominator * k}"

    dist = [[literal(x) for x in row] for row in matrix]
    if len(matrix) < 2:
        with pytest.raises(InputError, match="at least one non-basepoint point"):
            norm_from_config(graev_cfg(dist))
        return
    try:
        want = repaired_scaled(matrix)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            norm_from_config(graev_cfg(dist))
        assert str(info.value) == str(exc)
        return
    space = norm_from_config(graev_cfg(dist)).space
    assert space.nums.tolist() == want[0].tolist() and space.den == want[1]
    assert space.to_json_dict()["dist"] == [[jsonio.frac_to_str(x) for x in row]
                                            for row in fraction_metric_repair(matrix)]


def fraction_literal(text):
    """The Fraction parse of a rational literal, as frac_from_str was
    written before it shared pair_from_str."""
    if isinstance(text, int) and not isinstance(text, bool):
        return F(text)
    if not isinstance(text, str):
        raise InputError(f"expected a rational as 'num/den' string, got {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return F(int(num), int(den))
        return F(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {text!r}: {exc}") from None


@pytest.mark.parametrize("text", ["1/0", "-3/0", "x", "1/2/3", "", "4/", True, 1.5, None])
def test_bad_literals_raise_the_fraction_messages(text):
    with pytest.raises(InputError) as ref:
        fraction_literal(text)
    with pytest.raises(InputError) as info:
        norm_from_config(graev_cfg([[0, text], [1, 0]]))
    assert str(info.value) == str(ref.value)


@pytest.mark.parametrize("text", ["6/-4", "-6/4", "2/4", "7", " 3 / 9 ", 5, -2])
def test_literal_pairs(text):
    num, den = jsonio.pair_from_str(text)
    assert den > 0 and F(num, den) == fraction_literal(text) == jsonio.frac_from_str(text)
