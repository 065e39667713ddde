"""Rank space from the cost draw through selection.

The seeded costs are built as integer numerators over one denominator, and
must equal the Fraction builders in tests/oracles.py down to the storage.
Leading indices are arithmetic on ranks, norm_sorted_span returns ranks, and
a run builds GroupElements only for the terms it selects.
"""

import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import brute_graded_cost, brute_random_cost
from fpmap.cli import main
from fpmap.errors import InputError
from fpmap.extraction import norm_sorted_span
from fpmap.fpcore import Truncation
from fpmap.norms import (
    CostCompletionNorm,
    CostFunction,
    UltrametricProductNorm,
    _scaled,
    graded_cost,
    random_cost,
    validate_axioms,
)

INT64_MAX = 2 ** 63 - 1


def assert_same_cost(got, want):
    assert got.den == want.den
    assert got.nums.dtype == want.nums.dtype
    assert got.nums.tolist() == want.nums.tolist()
    for r in range(1, got.truncation.size):
        assert got.value_of_rank(r) == want.value_of_rank(r)


@st.composite
def shapes(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p]))
    # steps near 2^62 push the graded numerators past int64
    steps = draw(st.one_of(st.integers(1, 100), st.integers(2 ** 60, 2 ** 64)))
    return p, dim, steps, draw(st.integers(0, 10 ** 6))


fractions = st.builds(F, st.integers(1, 2 ** 70), st.integers(1, 2 ** 70))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=shapes())
def test_graded_cost_matches_fraction_builder(shape):
    p, dim, steps, seed = shape
    assert_same_cost(graded_cost(seed, p, dim, steps=steps),
                     brute_graded_cost(seed, p, dim, steps=steps))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=shapes(), ends=st.tuples(fractions, fractions))
def test_random_cost_matches_fraction_builder(shape, ends):
    p, dim, steps, seed = shape
    low, high = sorted(ends)
    assert_same_cost(random_cost(seed, p, dim, low, high, steps=steps),
                     brute_random_cost(seed, p, dim, low, high, steps=steps))


@pytest.mark.parametrize("low, high, steps, dtype", [
    (F(1, 10), F(1, 2), 60, np.int64),
    (F(1, 3 ** 45), F(1, 2 ** 70), 60, object),  # the lcm alone is past int64
    (F(1), F(INT64_MAX // 2), 1, np.int64),      # twice the largest just fits
    (F(1), F(INT64_MAX // 2 + 1), 1, object),    # and here it does not
])
def test_random_cost_storage_edges(low, high, steps, dtype):
    for seed in range(4):
        got = random_cost(seed, 3, 2, low, high, steps=steps)
        assert got.nums.dtype == dtype
        assert_same_cost(got, brute_random_cost(seed, 3, 2, low, high, steps=steps))


def test_cost_numerators_are_the_scaled_values():
    cost = random_cost(5, 5, 2, F(1, 6), F(7, 9), steps=7)
    nums, den = _scaled([F(0)] + [cost.value_of_rank(r) for r in range(1, 25)])
    assert (cost.nums.tolist(), cost.den) == (nums.tolist(), den)
    assert cost.nums[0] == 0
    with pytest.raises(InputError, match="the zero element has no cost"):
        cost.value_of_rank(0)


class TestArrayChecks:
    def test_first_nonpositive_rank(self):
        tr = Truncation(3, 2)
        nums = np.full(9, 4, dtype=np.int64)
        nums[0] = 0
        # e1 + e2 at rank 4 pairs with rank 8, and e1 + 2 e2 at 5 with 7
        nums[[4, 8]] = -2
        nums[[5, 7]] = 0
        assert tr.neg_perm[[4, 5]].tolist() == [8, 7]
        with pytest.raises(InputError, match=r"positive, got -1/3 at rank 4$"):
            CostFunction(tr, nums, 6)

    def test_first_asymmetric_rank(self):
        tr = Truncation(3, 2)
        nums = np.arange(9, dtype=np.int64)
        # ranks 1 and 2 are e2 and 2 e2, negatives of each other
        with pytest.raises(InputError, match=r"c\(-g\); differs at rank 1$"):
            CostFunction(tr, nums, 1)

    def test_object_storage_checks(self):
        tr = Truncation(2, 2)
        big = 2 ** 80
        nums = np.array([0, big, big, -big], dtype=object)
        with pytest.raises(InputError, match=f"got {-big} at rank 3"):
            CostFunction(tr, nums, 1)


@pytest.mark.parametrize("p, dim", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2)])
def test_max_indices_match_elements(p, dim):
    tr = Truncation(p, dim)
    want = [tr.element_of(r).max_index for r in range(tr.size)]
    assert tr.top[np.arange(tr.size)].tolist() == want
    some = np.array([tr.size - 1, 0, p ** (dim - 1), 1, 0])
    assert tr.top[some].tolist() == [want[r] for r in some]
    assert tr.top[np.zeros(0, dtype=np.int64)].tolist() == []


@pytest.mark.parametrize("make", [
    lambda: CostCompletionNorm(graded_cost(3, 3, 3, steps=2)),
    lambda: UltrametricProductNorm(2, 4, [F(1, 3), F(1, 2), F(1, 3), F(1, 5)]),
], ids=["cost", "ultrametric"])
def test_norm_sorted_span_returns_ranks_in_value_order(make):
    norm = make()
    tr = Truncation(norm.prime, norm.dim)
    values = [norm.eval(tr.element_of(r)) for r in range(tr.size)]
    want = sorted(range(tr.size), key=lambda r: (values[r], r))
    # the order is sorted once, before or by validate_axioms, and read-only
    first = norm_sorted_span(norm)
    assert first.tolist() == want
    validate_axioms(norm)
    got = norm_sorted_span(norm)
    assert got is first and not got.flags.writeable
    assert got.dtype == np.int64 and got.tolist() == want


def test_run_builds_elements_only_for_the_chosen_terms(tmp_path, monkeypatch):
    m = 5
    cfg = {"prime": 5, "dim": 5, "limits": {"l": 1, "m": m},
           "norm": {"kind": "cost_completion", "prime": 5, "dim": 5, "seed": 0,
                    "graded": True}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    calls = []
    element_of = Truncation.element_of

    def counted(self, r):
        calls.append(r)
        return element_of(self, r)

    monkeypatch.setattr(Truncation, "element_of", counted)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.json")]) == 0
    # one element per rank for the cost draw and one for the sorted span
    # would be 1562 + 3125 calls; reduction builds each chosen element from
    # its rank (dim calls) and selection each chosen term (m calls)
    assert len(calls) <= m + cfg["dim"]
    report = json.loads((tmp_path / "out.json").read_text())
    assert len(report["stages"]["selection"]["terms"]) == m
