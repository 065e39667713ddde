"""Cost draws and the value order in bulk, against the per-call references.

_randrange_draws takes Random(seed).randrange(n) straight from the Mersenne
Twister word stream below 2^32 choices, and value_order sorts packed
(value, rank) keys instead of a stable argsort. Both rest on details of
CPython and numpy (getrandbits' word order, the floor modulo of negative
keys), so each is compared with the call it replaces on every Python the
tests run on. Also here: the graded cost build that reads only the truncation's
top, and the Fractions and thresholds a run builds.
"""

from fractions import Fraction as F
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_coarser, brute_graded_cost, brute_random_cost
from fpmap import extraction, fpcore, jsonio
from fpmap.extraction import IndependentFamily, norm_sorted_span, product_coarser_check
from fpmap.fpcore import OrderedBasis, Truncation
from fpmap.norms import (
    _INT64_MAX,
    CostCompletionNorm,
    TableNorm,
    _randrange_draws,
    graded_cost,
    norm_from_config,
    random_cost,
    validate_axioms,
    value_order,
)
from fpmap.pipeline import RunConfig, run_pipeline
from fpmap.reduction import reduce_basis

CHOICES = [1, 2, 60, 61, 64, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 40]


def reference_draws(seed, n, count):
    rng = Random(seed)
    return [rng.randrange(n) for _ in range(count)]


class TestDraws:
    @pytest.mark.parametrize("n", CHOICES)
    @pytest.mark.parametrize("count", [0, 1, 1562])
    @pytest.mark.parametrize("seed", [0, 3, 12345, 2 ** 40 + 3])
    def test_match_randrange(self, seed, n, count):
        got = _randrange_draws(seed, n, count)
        assert got.dtype == np.int64
        assert got.tolist() == reference_draws(seed, n, count)

    @pytest.mark.parametrize("n", CHOICES)
    def test_match_randrange_at_2_17_draws(self, n):
        # at n = 1 and n = 2^31 about half the words are redrawn, so the
        # spare words of the first block may fall short and more are read
        assert _randrange_draws(7, n, 2 ** 17).tolist() == reference_draws(7, n, 2 ** 17)

    def test_more_than_one_block(self, monkeypatch):
        monkeypatch.setattr("fpmap.norms._DRAW_BLOCK", 64)
        for n in (1, 60, 2 ** 31 + 1):
            assert _randrange_draws(5, n, 1000).tolist() == reference_draws(5, n, 1000)

    def test_python_ints_above_int64(self):
        got = _randrange_draws(1, 2 ** 70, 50)
        assert got.dtype == object
        assert got.tolist() == reference_draws(1, 2 ** 70, 50)

    @given(st.integers(0, 2 ** 64), st.integers(1, 2 ** 33), st.integers(0, 3000))
    @settings(max_examples=80, deadline=None)
    def test_match_randrange_anywhere(self, seed, n, count):
        assert _randrange_draws(seed, n, count).tolist() == reference_draws(seed, n, count)


class TestSeededCosts:
    @pytest.mark.parametrize("steps", [1, 63, 2 ** 32])
    @pytest.mark.parametrize("seed, p, dim", [(0, 2, 6), (1, 3, 4), (2, 5, 3), (3, 7, 2)])
    def test_random_cost_matches_brute(self, seed, p, dim, steps):
        for low, high in ((F(1, 100), F(1)), (F(1, 10000019), F(1, 9999991)), (F(3), F(3))):
            got = random_cost(seed, p, dim, low, high, steps=steps)
            want = brute_random_cost(seed, p, dim, low, high, steps=steps)
            assert (got.den, got.nums.dtype, got.nums.tolist()) == \
                (want.den, want.nums.dtype, want.nums.tolist())

    @pytest.mark.parametrize("steps", [1, 63, 2 ** 32])
    @pytest.mark.parametrize("seed, p, dim", [(0, 2, 6), (1, 3, 4), (2, 5, 3), (3, 7, 2)])
    def test_graded_cost_matches_brute(self, seed, p, dim, steps):
        got = graded_cost(seed, p, dim, steps=steps)
        want = brute_graded_cost(seed, p, dim, steps=steps)
        assert (got.den, got.nums.dtype, got.nums.tolist()) == \
            (want.den, want.nums.dtype, want.nums.tolist())

    def test_python_int_numerators(self):
        big = 1 << 70
        got = random_cost(4, 3, 3, F(big), F(2 * big), steps=2 ** 33)
        want = brute_random_cost(4, 3, 3, F(big), F(2 * big), steps=2 ** 33)
        assert got.nums.dtype == object
        assert (got.den, got.nums.tolist()) == (want.den, want.nums.tolist())

    def test_graded_build_leaves_support_and_strip_unbuilt(self):
        fpcore._shared_truncation.cache_clear()  # a fresh process's truncation
        norm = norm_from_config({"kind": "cost_completion", "prime": 3, "dim": 5,
                                 "seed": 0, "graded": True})
        tr = norm.truncation
        assert "top" in vars(tr) and not {"support", "strip"} & set(vars(tr))
        top = tr.top
        assert top.tolist() == [tr.element_of(r).max_index for r in range(tr.size)]


def ties_and_signs(seed, size, spread):
    """int64 values with many ties and both signs."""
    rng = np.random.default_rng(seed)
    return rng.integers(-spread, spread + 1, size).astype(np.int64)


class TestValueOrder:
    @pytest.mark.parametrize("size", [1, 2, 17, 1000, 3125])
    @pytest.mark.parametrize("spread", [0, 1, 5, 10 ** 9])
    def test_matches_stable_argsort(self, size, spread):
        nums = ties_and_signs(size + spread, size, spread)
        assert value_order(nums).tolist() == np.argsort(nums, kind="stable").tolist()

    @pytest.mark.parametrize("size", [2, 3, 64, 1000])
    def test_at_the_packing_edge(self, size):
        # the largest magnitude that packs, the smallest that does not, and
        # values far beyond, where packed keys would wrap around
        edge = (1 << 62) // size
        rng = np.random.default_rng(size)
        for big in (edge - 1, edge, _INT64_MAX // 2, _INT64_MAX):
            for sign in (1, -1):
                nums = rng.integers(-3, 4, size) * (big // 3)
                nums[rng.integers(0, size)] = sign * big
                assert value_order(nums).tolist() == np.argsort(nums, kind="stable").tolist()

    def test_negative_values_beyond_the_edge(self):
        nums = np.array([-(1 << 61)] * 3 + [-1, 0, -(1 << 61) + 1] * 3, dtype=np.int64)
        assert value_order(nums).tolist() == np.argsort(nums, kind="stable").tolist()

    @pytest.mark.parametrize("size", [40, 1000])
    def test_python_int_values_keep_ties_in_rank_order(self, size):
        nums = np.array([(x % 7) << 70 for x in range(size)[::-1]], dtype=object)
        assert value_order(nums).tolist() == sorted(range(size), key=lambda r: (nums[r], r))

    @given(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=300), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_stable_argsort_anywhere(self, values, data):
        # duplicate some values so that ties are common
        values += data.draw(st.lists(st.sampled_from(values), max_size=100)) if values else []
        nums = np.array(values, dtype=np.int64)
        assert value_order(nums).tolist() == np.argsort(nums, kind="stable").tolist()

    def test_sorted_span_of_an_unvalidated_norm(self):
        tr = Truncation(3, 4)
        values = [F(0)] + [F(1 + r % 5, 7) for r in range(1, tr.size)]
        norm = TableNorm(3, 4, [(tr.element_of(r), v) for r, v in enumerate(values)])
        ranks = norm_sorted_span(norm)
        assert ranks.tolist() == sorted(range(tr.size), key=lambda r: (values[r], r))
        validate_axioms(norm)
        assert norm_sorted_span(norm).tolist() == ranks.tolist()


def counting(monkeypatch, module, name):
    """Counts the calls of module.name, which is still called."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_coarser_tables_build_one_fraction_per_distinct_value(monkeypatch):
    norm = CostCompletionNorm(graded_cost(0, 5, 5))
    validate_axioms(norm)
    members = reduce_basis(OrderedBasis.standard(5, 5), norm).reduced.elems
    family = IndependentFamily(members, tuple(range(1, 6)), tuple(map(norm.eval, members)), None)
    want = brute_coarser(family, norm, 5).to_json_dict()
    made = counting(monkeypatch, extraction, "Fraction")
    report = product_coarser_check(family, norm, 5)
    assert len(made) <= 1 + 2 + 3 + 4 + 5  # the 57 sets F share them
    assert report.to_json_dict() == want


def test_a_run_builds_each_threshold_once_per_stage(monkeypatch):
    made = counting(monkeypatch, extraction, "threshold")
    cfg = {"prime": 5, "dim": 5, "limits": {"m": 5},
           "norm": {"kind": "cost_completion", "prime": 5, "dim": 5, "seed": 0, "graded": True}}
    report = run_pipeline(RunConfig.from_json_dict(cfg))
    assert report.ok
    jsonio.canonical_dumps(report.to_json_dict())
    # selection builds thresholds 1..m, and the family and the report read
    # them; the modulus builds its delta (l = 1) and one bound per split
    assert sorted(made) == sorted([(5, n) for n in range(1, 6)] + [(5, 1)] +
                                  [(5, s) for s in range(1, 5)])
