import itertools
import math
import threading
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_axiom_violations,
    brute_cost_completion,
    brute_graev,
    brute_ultrametric_values,
    enumerate_span,
    graev_completion_table,
    graev_word_value,
)
from fpmap import jsonio
from fpmap.errors import CapExceededError, InputError, InvalidNormError
from fpmap.fpcore import GroupElement, OrderedBasis, Truncation
from fpmap.norms import (
    _INT64_MAX,
    _scaled,
    CostCompletionNorm,
    CostFunction,
    GraevBooleanNorm,
    PointedMetricSpace,
    TableNorm,
    UltrametricProductNorm,
    norm_from_config,
    random_cost,
    random_metric_space,
    validate_axioms,
)
from fpmap.reduction import _require_validated


def e(p, *pairs):
    return GroupElement.make(p, pairs)


# (numerator scale, denominator): a denominator past 2^44 whose numerators stay
# small (int64 storage), and numerators past int64 headroom (Python-int storage)
LARGE_SCALES = [
    pytest.param(1, (1 << 50) + 1, id="big-den"),
    pytest.param(1 << 70, 1, id="big-num"),
    pytest.param(1 << 70, (1 << 50) + 1, id="big-num-and-den"),
]

# largest numerator whose doubled value still fits int64, and the one after it
INT64_EDGE = [(_INT64_MAX // 2, np.int64), (_INT64_MAX // 2 + 1, object)]


class TestPointedMetricSpace:
    def test_plain_metric_kept(self):
        sp = PointedMetricSpace([[0, 1], [1, 0]])
        assert sp.dist(0, 1) == 1
        assert sp.nonbase == (1,)

    def test_symmetrized_by_smaller_entry(self):
        sp = PointedMetricSpace([[0, 5], [2, 0]])
        assert sp.dist(0, 1) == 2
        assert sp.dist(1, 0) == 2

    def test_triangle_repair_takes_shortest_path(self):
        # direct 0-2 entry of 5 is beaten by the two-hop route of cost 2
        sp = PointedMetricSpace([
            [0, 1, 5],
            [1, 0, 1],
            [5, 1, 0],
        ])
        assert sp.dist(0, 2) == 2

    def test_triangle_repair_with_huge_common_denominator(self):
        # entries 1/q for 14 primes q just above 2^40 put the lcm of the
        # denominators past 2^512; all of them are near 2^-40, so only the
        # direct 0-5 entry of 1 loses to a two-hop route
        qs = [(1 << 40) + k for k in
              (15, 27, 55, 97, 115, 141, 157, 177, 253, 277, 303, 343, 385, 415)]
        assert math.lcm(*qs) > 1 << 512
        n = 6
        rows = [[F(0)] * n for _ in range(n)]
        pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if (i, j) != (0, 5)]
        for (i, j), q in zip(pairs, qs, strict=True):
            rows[i][j] = rows[j][i] = F(1, q)
        rows[0][5] = rows[5][0] = F(1)
        sp = PointedMetricSpace(rows)
        assert sp.dist(0, 5) == sp.dist(5, 0) == min(rows[0][k] + rows[k][5]
                                                     for k in range(1, 5))
        assert all(sp.dist(i, j) == rows[i][j] for i, j in pairs)
        for i, j, k in itertools.product(range(n), repeat=3):
            assert sp.dist(i, k) <= sp.dist(i, j) + sp.dist(j, k)

    def test_diagonal_forced_to_zero(self):
        sp = PointedMetricSpace([[F(1, 2)]])
        assert sp.dist(0, 0) == 0

    def test_distinct_points_at_zero_rejected(self):
        with pytest.raises(InputError):
            PointedMetricSpace([[0, 0], [0, 0]])

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            PointedMetricSpace([[0, -1], [-1, 0]])

    def test_float_rejected(self):
        with pytest.raises(InputError):
            PointedMetricSpace([[0, 0.5], [0.5, 0]])

    def test_bad_basepoint(self):
        with pytest.raises(InputError):
            PointedMetricSpace([[0]], basepoint=3)


def no_cover_table(dist, den):
    raise AssertionError(f"ran the subset DP on {len(dist)} points")


def graev_word(space, points):
    """The element of the Boolean group over ``space`` whose support is the
    group indices of ``points``."""
    return GroupElement.make(2, [(space.nonbase.index(x) + 1, 1) for x in points])


class TestGraevNorm:
    """Cover values read through GraevBooleanNorm.eval from its table and
    through graev_word_value, the same DP on one word's block of distances,
    against each other and brute_graev."""

    def test_pair_beats_singletons(self):
        # frozen by hand: pairing costs 3/5, the two singletons cost 1 + 3/2
        sp = PointedMetricSpace([
            [0, 1, F(3, 2)],
            [1, 0, F(3, 5)],
            [F(3, 2), F(3, 5), 0],
        ])
        assert GraevBooleanNorm(sp).eval(graev_word(sp, [1, 2])) == F(3, 5)
        assert graev_word_value(sp, graev_word(sp, [1, 2])) == F(3, 5)

    def test_singleton(self):
        sp = PointedMetricSpace([[0, F(7, 4)], [F(7, 4), 0]])
        assert GraevBooleanNorm(sp).eval(graev_word(sp, [1])) == F(7, 4)

    def test_empty_set_is_zero(self):
        sp = random_metric_space(1, 4, F(1), F(2))
        assert GraevBooleanNorm(sp).eval(GroupElement.zero(2)) == 0
        assert graev_word_value(sp, GroupElement.zero(2)) == 0

    def test_basepoint_not_allowed(self):
        # one group index per non-basepoint point: index 2 of a two-point
        # space would be the basepoint, and the norm does not take it
        sp = PointedMetricSpace([[0, 1], [1, 0]])
        with pytest.raises(InputError, match="^index 2 outside truncation of dimension 1$"):
            GraevBooleanNorm(sp).eval(e(2, (2, 1)))
        with pytest.raises(InputError, match="^mismatched primes: 3 vs 2$"):
            GraevBooleanNorm(sp).eval(e(3, (1, 1)))

    def test_matching_cap(self):
        # a 15-point space builds its norm, which values 12 of its points as
        # partition enumeration does and all 15 as the DP on their block does
        sp = random_metric_space(5, 16, F(1), F(2))
        norm = GraevBooleanNorm(sp)
        for pts, want in ((range(1, 13), brute_graev(sp, range(1, 13))),
                          (sp.nonbase, graev_word_value(sp, graev_word(sp, sp.nonbase)))):
            assert norm.eval(graev_word(sp, pts)) == want

    @given(st.integers(0, 500), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_matches_partition_enumeration(self, seed, npts):
        sp = random_metric_space(seed, npts, F(1, 3), F(5, 2))
        pts = [i for i in sp.nonbase if (seed >> i) & 1] or list(sp.nonbase)
        want = brute_graev(sp, pts)
        assert GraevBooleanNorm(sp).eval(graev_word(sp, pts)) == want
        assert graev_word_value(sp, graev_word(sp, pts)) == want

    @given(dim=st.integers(2, 20), seed=st.integers(0, 10 ** 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_path_matches_partition_enumeration(self, dim, seed, data):
        # the DP covers the block of each word's own points, whatever the
        # size of the space; distances near 2^70 put the space and the DP
        # on Python ints
        low, high = data.draw(st.sampled_from([(F(1, 7), F(3)), (2 ** 70, 2 ** 70 + 10 ** 6),
                                               (1, 2 ** 70)]))
        space = random_metric_space(seed, dim + 1, low, high,
                                    basepoint=data.draw(st.integers(0, dim)))
        pts = data.draw(st.lists(st.sampled_from(space.nonbase), max_size=8, unique=True))
        assert graev_word_value(space, graev_word(space, pts)) == brute_graev(space, pts)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_word_path_matches_the_table(self, dim):
        # every word, big distances on the last dims
        high = F(5, 2) if dim < 6 else 2 ** 70
        space = random_metric_space(dim, dim + 1, F(1, 3), high, basepoint=dim % 3)
        norm = GraevBooleanNorm(space)
        tr = Truncation(2, dim)
        for r in range(tr.size):
            w = tr.element_of(r)
            assert graev_word_value(space, w) == norm.eval(w)


class TestCostFunction:
    """Every cost is built by CostFunction(tr, nums, den), which pins the
    positivity and negation checks; from_pairs adds coverage."""

    def test_requires_full_coverage(self):
        with pytest.raises(InputError, match="^cost missing for element of rank 1$"):
            CostFunction.from_pairs(2, 2, [(e(2, (1, 1)), F(1))])

    def test_pairs_are_read_by_rank(self):
        # _values_by_rank takes an equal duplicate as one entry and refuses a
        # conflict, then a gap; the zero element is refused after both
        one, two, both, zero = e(2, (1, 1)), e(2, (2, 1)), e(2, (1, 1), (2, 1)), e(2)
        full = [(one, F(3)), (two, F(2)), (both, F(4))]
        cost = CostFunction.from_pairs(2, 2, full + [(one, F(6, 2))])
        assert [cost.value_of_rank(r) for r in (1, 2, 3)] == [F(2), F(3), F(4)]
        for pairs, message in (
                ([(zero, F(1)), (one, F(3)), (one, F(2))], r"conflicting cost entries for .*"),
                ([(zero, F(1)), (one, F(3)), (both, F(4))], "cost missing for element of rank 1"),
                (full + [(zero, F(1))], "the zero element takes no cost entry"),
                (full + [(zero, F(0))], "the zero element takes no cost entry")):
            with pytest.raises(InputError, match=f"^{message}$"):
                CostFunction.from_pairs(2, 2, pairs)

    def test_requires_positive(self):
        with pytest.raises(InputError, match="^cost values must be positive, got 0 at rank 1$"):
            CostFunction(Truncation(2, 1), np.array([0, 0]), 1)
        with pytest.raises(InputError, match="^cost values must be positive, got -1/2 at rank 3$"):
            CostFunction.from_pairs(2, 2, [(e(2, (1, 1)), F(1)), (e(2, (2, 1)), F(1)),
                                           (e(2, (1, 1), (2, 1)), F(-1, 2))])

    def test_requires_negation_symmetry(self):
        # over F_3 the elements e1 and 2e1 are negatives of each other
        with pytest.raises(InputError, match=r"^cost must satisfy c\(g\) = c\(-g\); differs at rank 1$"):
            CostFunction(Truncation(3, 1), np.array([0, 1, 2]), 1)

    def test_random_cost_is_deterministic_and_symmetric(self):
        a = random_cost(7, 3, 3, F(1, 10), F(1, 2))
        b = random_cost(7, 3, 3, F(1, 10), F(1, 2))
        tr = a.truncation
        for r in range(1, tr.size):
            assert a.value_of_rank(r) == b.value_of_rank(r)
            assert a.value_of_rank(r) == a.value_of_rank(int(tr.neg_perm[r]))
            assert F(1, 10) <= a.value_of_rank(r) <= F(1, 2)

    def test_random_cost_seed_changes_table(self):
        a = random_cost(1, 2, 3, F(1, 4), F(1, 2))
        b = random_cost(2, 2, 3, F(1, 4), F(1, 2))
        tr = a.truncation
        assert any(a.value_of_rank(r) != b.value_of_rank(r) for r in range(1, tr.size))


class TestCostCompletionNorm:
    def test_direct_cost_already_minimal(self):
        cost = CostFunction.from_pairs(2, 2, [
            (e(2, (1, 1)), F(3)),
            (e(2, (2, 1)), F(2)),
            (e(2, (1, 1), (2, 1)), F(4)),
        ])
        norm = CostCompletionNorm(cost)
        assert norm.eval(e(2, (1, 1), (2, 1))) == F(4)
        assert norm.eval(e(2, (1, 1))) == F(3)
        assert norm.eval(GroupElement.zero(2)) == 0

    def test_split_decomposition_wins(self):
        # frozen by hand: e1 + e2 pays 3 + 2 = 5 through the split, not 6
        cost = CostFunction.from_pairs(2, 2, [
            (e(2, (1, 1)), F(3)),
            (e(2, (2, 1)), F(2)),
            (e(2, (1, 1), (2, 1)), F(6)),
        ])
        norm = CostCompletionNorm(cost)
        assert norm.eval(e(2, (1, 1), (2, 1))) == F(5)
        assert norm.eval(e(2, (1, 1))) == F(3)

    @pytest.mark.parametrize("seed,p,dim", [(0, 2, 2), (1, 2, 3), (2, 3, 2), (3, 5, 1), (4, 3, 3)])
    def test_matches_relaxation_oracle(self, seed, p, dim):
        cost = random_cost(seed, p, dim, F(1, 7), F(3, 5))
        norm = CostCompletionNorm(cost)
        oracle = brute_cost_completion(cost)
        tr = cost.truncation
        for r in range(tr.size):
            assert norm.eval(tr.element_of(r)) == oracle[r]

    @pytest.mark.parametrize("scale,den", LARGE_SCALES)
    def test_large_scaled_values_match_relaxation_oracle(self, scale, den):
        cost = CostFunction.from_pairs(2, 2, [
            (e(2, (1, 1)), F(3 * scale, den)),
            (e(2, (2, 1)), F(2 * scale, den)),
            (e(2, (1, 1), (2, 1)), F(6 * scale, den)),
        ])
        norm = CostCompletionNorm(cost)
        assert norm.eval(e(2, (1, 1), (2, 1))) == F(5 * scale, den)
        oracle = brute_cost_completion(cost)
        tr = cost.truncation
        for r in range(tr.size):
            assert norm.eval(tr.element_of(r)) == oracle[r]

    def test_int64_edge_gives_same_completion(self):
        # c(e1) = 1 and c(e2) = c(e1+e2) = M: the early stop forms M + 1 once
        # e1 is settled, and relaxing from e1 forms 1 + M
        for big, dtype in INT64_EDGE:
            assert _scaled([F(big)])[0].dtype == dtype
            cost = CostFunction.from_pairs(2, 2, [
                (e(2, (1, 1)), F(1)),
                (e(2, (2, 1)), F(big)),
                (e(2, (1, 1), (2, 1)), F(big)),
            ])
            norm = CostCompletionNorm(cost)
            tr = cost.truncation
            values = [norm.eval(tr.element_of(r)) for r in range(tr.size)]
            assert values == brute_cost_completion(cost) == [0, big, 1, big]

    def test_scalar_bound(self):
        # any norm obeys N(k*g) <= k*N(g) <= p*N(g) by repeated addition
        cost = random_cost(11, 5, 2, F(1, 9), F(2, 3))
        norm = CostCompletionNorm(cost)
        tr = cost.truncation
        for r in range(tr.size):
            g = tr.element_of(r)
            for k in range(5):
                assert norm.eval(g.smul(k)) <= 5 * norm.eval(g)


class TestUltrametricProductNorm:
    def test_default_weights(self):
        norm = UltrametricProductNorm(3, 5)
        assert norm.eval(e(3, (2, 2), (5, 1))) == F(1, 2)
        assert norm.eval(e(3, (5, 1))) == F(1, 5)
        assert norm.eval(GroupElement.zero(3)) == 0

    def test_custom_weights(self):
        norm = UltrametricProductNorm(2, 2, [F(1, 4), F(1, 16)])
        assert norm.eval(e(2, (1, 1), (2, 1))) == F(1, 4)

    def test_weight_validation(self):
        with pytest.raises(InputError):
            UltrametricProductNorm(2, 2, [F(1)])
        with pytest.raises(InputError):
            UltrametricProductNorm(2, 2, [F(1), F(0)])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_strong_triangle(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        norm = UltrametricProductNorm(p, 4)
        tr = Truncation(p, 4)
        g = tr.element_of(data.draw(st.integers(0, tr.size - 1)))
        h = tr.element_of(data.draw(st.integers(0, tr.size - 1)))
        assert norm.eval(g + h) <= max(norm.eval(g), norm.eval(h))

    @given(p=st.sampled_from([2, 3, 5]), dim=st.integers(1, 5), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_matches_per_word_max(self, p, dim, data):
        # small weights take int64 storage; numerators past 2^62, or many
        # coprime denominators, take Python ints
        num = st.one_of(st.integers(1, 100), st.integers(2 ** 62, 2 ** 70))
        den = st.one_of(st.integers(1, 100), st.integers(2 ** 30, 2 ** 50))
        weights = [F(data.draw(num), data.draw(den)) for _ in range(dim)]
        norm = UltrametricProductNorm(p, dim, weights)
        assert_same_storage(norm._table, _scaled(brute_ultrametric_values(p, weights)))

    @pytest.mark.parametrize("big, dtype", INT64_EDGE)
    def test_int64_edge_of_the_table(self, big, dtype):
        weights = [F(1), F(big), F(2)]
        norm = UltrametricProductNorm(3, 3, weights)
        assert norm._table[0].dtype == dtype
        assert_same_storage(norm._table, _scaled(brute_ultrametric_values(3, weights)))

    def test_table_is_bounded_by_the_enum_cap(self):
        with pytest.raises(CapExceededError, match="truncation has 32 elements, above cap 31"):
            UltrametricProductNorm(2, 5, cap=31)
        assert UltrametricProductNorm(2, 5, cap=32)._table[0].size == 32
        with pytest.raises(CapExceededError, match="above cap 31"):
            norm_from_config({"kind": "ultrametric", "prime": 2, "dim": 5}, cap=31)


class TestTableNorm:
    def test_requires_full_coverage(self):
        with pytest.raises(InputError, match="missing"):
            TableNorm(2, 2, [(e(2, (1, 1)), F(1))])

    def test_conflicting_entries_rejected(self):
        with pytest.raises(InputError, match="conflicting"):
            TableNorm(2, 1, [(e(2, (1, 1)), F(1)), (e(2, (1, 1)), F(2))])

    def test_entries_are_read_by_rank(self):
        # the reader the costs use: an equal duplicate is one entry, the first
        # missing rank is named, and a negative value is named in rank order,
        # after conflicts and gaps. Rank 0 keeps a value it is given
        one, two, both, zero = e(2, (1, 1)), e(2, (2, 1)), e(2, (1, 1), (2, 1)), e(2)
        norm = TableNorm(2, 2, [(one, F(1)), (two, F(2)), (both, F(3)), (one, F(2, 2))])
        assert [norm.eval(g) for g in (zero, one, two, both)] == [0, 1, 2, 3]
        for entries, message in (
                ([(both, F(-1)), (both, F(-2)), (one, F(1)), (two, F(1))],
                 r"conflicting table entries for .*"),
                ([(both, F(-1)), (one, F(1))], "table missing for element of rank 1"),
                ([(both, F(-1)), (two, F(-2)), (one, F(1))],
                 "table values cannot be negative, got -2"),
                ([(zero, F(-3)), (both, F(-1)), (two, F(1)), (one, F(1))],
                 "table values cannot be negative, got -3")):
            with pytest.raises(InputError, match=f"^{message}$"):
                TableNorm(2, 2, entries)
        norm = TableNorm(2, 1, [(zero, F(1, 2)), (one, F(1))])
        assert norm.eval(zero) == F(1, 2)
        assert not validate_axioms(norm).ok

    def test_lookup(self):
        norm = TableNorm(2, 1, [(e(2, (1, 1)), F(5, 3))])
        assert norm.eval(e(2, (1, 1))) == F(5, 3)
        assert norm.eval(GroupElement.zero(2)) == 0

    def test_domain_checks(self):
        norm = TableNorm(2, 1, [(e(2, (1, 1)), F(1))])
        with pytest.raises(InputError):
            norm.eval(e(2, (2, 1)))
        with pytest.raises(InputError):
            norm.eval(e(3, (1, 1)))


def table_from_values(p, dim, values):
    """Build a TableNorm from {rank: value}, zero omitted."""
    tr = Truncation(p, dim)
    return TableNorm(p, dim, [(tr.element_of(r), v) for r, v in values.items()])


def triangle_pairs(report, p, dim):
    """Rank pairs {g, h} of the report's triangle violations."""
    tr = Truncation(p, dim)
    return {tuple(sorted(tr.rank_of(jsonio.element_from_pairs(p, v[k])) for k in "gh"))
            for v in report.violations if v["axiom"] == 3}


def oracle_triangle_pairs(norm, dim):
    tr = Truncation(norm.prime, dim)
    return {tuple(sorted((tr.rank_of(v[1]), tr.rank_of(v[2]))))
            for v in brute_axiom_violations(norm, dim) if v[0] == "axiom3"}


class TestValidateAxioms:
    def test_clean_norm_passes(self):
        norm = UltrametricProductNorm(3, 3)
        report = validate_axioms(norm)
        assert report.ok
        assert report.elements_checked == 27
        assert report.pairs_checked == 27 * 28 // 2
        _require_validated(norm)
        assert norm.axiom_report is report

    def test_cost_completion_always_passes(self):
        for seed in range(4):
            norm = CostCompletionNorm(random_cost(seed, 3, 2, F(1, 8), F(1, 2)))
            assert validate_axioms(norm).ok

    def test_zero_value_on_nonzero_flagged(self):
        norm = table_from_values(2, 1, {1: F(0)})
        report = validate_axioms(norm)
        assert not report.ok
        assert report.violations[0]["axiom"] == 1
        with pytest.raises(InvalidNormError, match="failed axiom validation"):
            _require_validated(norm)

    def test_nonzero_value_at_zero_flagged(self):
        norm = table_from_values(2, 1, {0: F(1), 1: F(1)})
        report = validate_axioms(norm)
        assert report.violations[0] == {"axiom": 1, "element": [], "value": "1/1"}

    def test_asymmetric_flagged(self):
        norm = table_from_values(3, 1, {1: F(1), 2: F(2)})
        report = validate_axioms(norm)
        assert any(v["axiom"] == 2 for v in report.violations)

    def test_triangle_violation_flagged(self):
        norm = table_from_values(2, 2, {1: F(1), 2: F(1), 3: F(3)})
        report = validate_axioms(norm)
        bad = [v for v in report.violations if v["axiom"] == 3]
        assert bad
        assert bad[0]["value_sum"] == "3/1"
        assert bad[0]["value_g"] == "1/1"

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_nested_loop_oracle(self, seed):
        import random

        rng = random.Random(seed)
        tr = Truncation(2, 3)
        values = {r: F(rng.randrange(0, 5), rng.randrange(1, 7)) for r in range(1, tr.size)}
        norm = table_from_values(2, 3, values)
        report = validate_axioms(norm)
        oracle = brute_axiom_violations(norm, 3)
        assert report.ok == (not oracle)
        found = {1: [], 2: set()}
        for v in report.violations:
            if v["axiom"] in found:
                g = jsonio.element_from_pairs(2, v["element"])
                if v["axiom"] == 1:
                    found[1].append(g)
                else:
                    found[2] |= {g, -g}
        assert found[1] == [v[1] for v in oracle if v[0] == "axiom1"]
        assert found[2] == {v[1] for v in oracle if v[0] == "axiom2"}
        assert triangle_pairs(report, 2, 3) == oracle_triangle_pairs(norm, 3)

    def test_thread_count_does_not_change_report(self, monkeypatch):
        # threads is accepted and ignored: 1/r values on 128 elements give a
        # long violation list, the same for every count, and no thread starts
        norm = table_from_values(2, 7, {r: F(1, r) for r in range(1, 128)})
        r1 = validate_axioms(norm, threads=1)
        monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("thread started"))
        r2 = validate_axioms(norm, threads=2)
        assert not r1.ok  # 1/r values break the triangle inequality plenty
        assert r1.to_json_dict() == r2.to_json_dict()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_rejected(self, threads):
        # no chunk of positions would be scanned, so the report would be empty
        norm = table_from_values(2, 2, {1: F(1), 2: F(1), 3: F(3)})
        with pytest.raises(InputError, match="threads must be a positive integer"):
            validate_axioms(norm, threads=threads)
        assert norm.axiom_report is None

    @pytest.mark.parametrize("scale,den", LARGE_SCALES)
    def test_large_scaled_values_match_nested_loop_oracle(self, scale, den):
        norm = table_from_values(2, 2, {
            1: F(scale, den), 2: F(scale, den), 3: F(3 * scale, den)})
        report = validate_axioms(norm)
        assert triangle_pairs(report, 2, 2) == oracle_triangle_pairs(norm, 2) == {(1, 2)}

    def test_int64_edge_gives_same_violations(self):
        # N(e1+e2) = M breaks the triangle at (e1, e2); the pair (e1+e2, e1+e2)
        # forms M + M, which would wrap in int64 one step past the edge
        reports = []
        for big, dtype in INT64_EDGE:
            assert _scaled([F(big)])[0].dtype == dtype
            norm = table_from_values(2, 2, {1: F(1), 2: F(1), 3: F(big)})
            report = validate_axioms(norm)
            assert triangle_pairs(report, 2, 2) == oracle_triangle_pairs(norm, 2)
            doc = report.to_json_dict()
            for v in doc["violations"]:
                v["value_sum"] = v["value_sum"].replace(str(big), "M")
            reports.append(doc)
        assert reports[0] == reports[1]
        assert [v["value_sum"] for v in reports[0]["violations"]] == ["M/1"]


class TestGraevBooleanNorm:
    def line_space(self, n):
        # basepoint 0, then x = 1, then y_k = 1 + 1/k for k = 1..n
        pts = [F(0), F(1)] + [F(1) + F(1, k) for k in range(1, n + 1)]
        rows = [[abs(a - b) for b in pts] for a in pts]
        return PointedMetricSpace(rows)

    def test_wide_space_without_dense_table(self):
        sp = self.line_space(100)  # 102 points, dimension 101
        # its table would pass the enum cap, which is checked first
        with pytest.raises(CapExceededError,
                           match=f"^truncation has {2 ** 101} elements, above cap 10000000$"):
            GraevBooleanNorm(sp)
        # subset {x}: singleton back to the basepoint
        assert graev_word_value(sp, e(2, (1, 1))) == F(1)
        # subset {x, y_1}: pairing x with y_1 costs 1, beats 1 + 2
        assert graev_word_value(sp, e(2, (1, 1), (2, 1))) == F(1)
        # subset {y_99, y_100}: pairing costs 1/99 - 1/100
        # (group index k+1 carries y_k, since index 1 carries x)
        assert graev_word_value(sp, e(2, (100, 1), (101, 1))) == F(1, 9900)

    def test_memo_reuse(self):
        sp = self.line_space(3)
        norm = GraevBooleanNorm(sp)
        g = e(2, (1, 1), (3, 1))
        assert norm.eval(g) == norm.eval(g)

    def test_matching_cap_enforced(self):
        # the DP on a word's block values a 13-point word of a 14-point line
        # space as the space's table does, and a 6-point one as partition
        # enumeration does
        sp = self.line_space(13)
        word = GroupElement.make(2, [(i, 1) for i in range(1, 14)])
        assert graev_word_value(sp, word) == GraevBooleanNorm(sp).eval(word)
        assert graev_word_value(sp, GroupElement.make(2, [(i, 1) for i in range(1, 7)])) == \
            brute_graev(sp, range(1, 7))

    def test_axioms_on_small_space(self):
        sp = self.line_space(2)  # 4 points, dimension 3
        norm = GraevBooleanNorm(sp)
        assert validate_axioms(norm).ok

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_axioms_on_random_spaces(self, seed):
        sp = random_metric_space(seed, 4, F(1, 2), F(3))
        norm = GraevBooleanNorm(sp)
        assert validate_axioms(norm).ok


def graev_table_and_reference(space):
    """The table the norm builds at construction, and _scaled of one
    brute_graev per word in rank order; validate_axioms keeps that table."""
    norm = GraevBooleanNorm(space)
    table = norm._table
    validate_axioms(norm)
    assert norm._table is table
    words = enumerate_span(OrderedBasis.standard(2, norm.dim))
    ref = _scaled([brute_graev(space, [space.nonbase[i - 1] for i in w.support])
                   for w in words])
    return table, ref


def assert_same_storage(got, want):
    (nums, den), (ref_nums, ref_den) = got, want
    assert den == ref_den
    assert nums.dtype == ref_nums.dtype
    assert nums.tolist() == ref_nums.tolist()


def far_base_space(n_near, base_dist):
    """n_near points one apart, all at base_dist from the basepoint 0."""
    n = n_near + 1
    return PointedMetricSpace([[0 if i == j else base_dist if 0 in (i, j) else 1
                                for j in range(n)] for i in range(n)])


def assert_same_values(got, want):
    assert got[1] == want[1]
    assert got[0].tolist() == want[0].tolist()


class TestGraevTable:
    """GraevBooleanNorm's one-DP value table against brute_graev word by word,
    and against the cost completion, which reaches sizes brute_graev cannot."""

    @pytest.mark.parametrize("dim", [13, 14])
    def test_matches_the_cost_completion(self, dim):
        space = random_metric_space(dim, dim + 1, F(1, 100), F(1), basepoint=dim % 3)
        assert_same_values(GraevBooleanNorm(space)._table, graev_completion_table(space))

    @given(dim=st.integers(1, 10), seed=st.integers(0, 10 ** 6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_cost_completion_on_random_spaces(self, dim, seed, data):
        low = F(1, data.draw(st.integers(1, 10 ** 6)))
        space = random_metric_space(seed, dim + 1, low, low * data.draw(st.integers(1, 50)),
                                    basepoint=data.draw(st.integers(0, dim)),
                                    steps=data.draw(st.integers(1, 60)))
        assert_same_values(GraevBooleanNorm(space)._table, graev_completion_table(space))

    @given(dim=st.integers(1, 8), seed=st.integers(0, 10 ** 6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_word_graev_norm(self, dim, seed, data):
        low = F(1, data.draw(st.integers(1, 10 ** 6)))
        high = low * data.draw(st.integers(1, 50))
        space = random_metric_space(seed, dim + 1, low, high,
                                    basepoint=data.draw(st.integers(0, dim)),
                                    steps=data.draw(st.integers(1, 60)))
        assert_same_storage(*graev_table_and_reference(space))

    def test_nonzero_basepoint(self):
        space = random_metric_space(3, 7, F(1, 3), F(5, 2), basepoint=4)
        assert_same_storage(*graev_table_and_reference(space))

    def test_python_int_storage(self):
        # distance numerators near 2^70 do not fit int64 at all
        big = 2 ** 70
        space = PointedMetricSpace([[0, big + 1, big + 3], [big + 1, 0, big + 2],
                                    [big + 3, big + 2, 0]])
        got, ref = graev_table_and_reference(space)
        assert got[0].dtype == object
        assert_same_storage(got, ref)

    @pytest.mark.parametrize("big, dtype", INT64_EDGE)
    def test_int64_edge_of_the_table(self, big, dtype):
        got, ref = graev_table_and_reference(PointedMetricSpace([[0, big], [big, 0]]))
        assert got[0].dtype == dtype
        assert_same_storage(got, ref)

    @pytest.mark.parametrize("dist", [_INT64_MAX // 4, _INT64_MAX // 4 + 1, _INT64_MAX // 3 + 1])
    def test_int64_edge_of_the_dp(self, dist):
        # four points all dist apart: the DP runs on int64 while 4 * dist fits;
        # at the last distance a singleton plus the value of the other three
        # (3 * dist) would already wrap in int64
        n = 5
        space = PointedMetricSpace([[0 if i == j else dist for j in range(n)] for i in range(n)])
        assert_same_storage(*graev_table_and_reference(space))

    def test_dp_storage_is_not_the_table_storage(self):
        # the far basepoint puts the DP on Python ints (4 * base_dist passes
        # int64), but the near points pair off and the table fits int64
        got, ref = graev_table_and_reference(far_base_space(4, _INT64_MAX // 3))
        assert got[0].dtype == np.int64
        assert_same_storage(got, ref)

    def test_validate_axioms_records_the_table(self):
        space = random_metric_space(8, 6, F(1, 4), F(2))
        norm = GraevBooleanNorm(space)
        assert validate_axioms(norm).ok
        assert_same_storage(norm._table, graev_table_and_reference(space)[1])

    def test_matching_cap_bounds_the_table(self, monkeypatch):
        # the enum cap is the table's one bound: 13 non-basepoint points
        # build and validate unless the cap is under their 8192 elements.
        # At the default cap 23 points build, and their full word is the
        # DP's on its block; 24 points are refused before any subset DP
        space = random_metric_space(2, 14, F(1), F(2))
        assert validate_axioms(GraevBooleanNorm(space)).ok
        with pytest.raises(CapExceededError, match="^truncation has 8192 elements, above cap 8191$"):
            GraevBooleanNorm(space, cap=8191)
        space = random_metric_space(2, 24, F(1), F(2))
        full = graev_word(space, space.nonbase)
        assert GraevBooleanNorm(space).eval(full) == graev_word_value(space, full)
        space = random_metric_space(2, 25, F(1), F(2))
        monkeypatch.setattr("fpmap.norms._cover_table", no_cover_table)
        with pytest.raises(CapExceededError,
                           match="^truncation has 16777216 elements, above cap 10000000$"):
            GraevBooleanNorm(space)

    def test_enum_cap_bounds_the_table_at_construction(self):
        space = random_metric_space(2, 6, F(1), F(2))  # dimension 5
        with pytest.raises(CapExceededError, match="^truncation has 32 elements, above cap 31$"):
            GraevBooleanNorm(space, cap=31)
        assert GraevBooleanNorm(space, cap=32).truncation.size == 32
        # a word's block builds no table, so there is nothing to bound
        assert graev_word_value(space, GroupElement.make(2, [(1, 1), (3, 1)])) == \
            brute_graev(space, [space.nonbase[0], space.nonbase[2]])

    def test_a_wide_norm_evaluates_words_and_refuses_spans(self):
        # a 14-point norm is built, so its spans read its table, word for
        # word what the DP on each word's block gives; a 24-point space
        # builds no norm, and the blocks of its small words still value them
        space = random_metric_space(3, 15, F(1), F(3))  # dimension 14
        norm = GraevBooleanNorm(space)
        x, y = GroupElement.make(2, [(1, 1), (4, 1)]), GroupElement.unit(2, 14)
        nums, den = norm.values_of(norm.truncation.span_ranks([x, y]))
        assert [F(int(v), den) for v in nums] == \
            [graev_word_value(space, w) for w in (GroupElement.zero(2), y, x, x + y)]
        space = random_metric_space(3, 25, F(1), F(3))  # dimension 24
        with pytest.raises(CapExceededError,
                           match="^truncation has 16777216 elements, above cap 10000000$"):
            GraevBooleanNorm(space)
        y = GroupElement.unit(2, 24)
        assert graev_word_value(space, x + y) == \
            brute_graev(space, [space.nonbase[i - 1] for i in (1, 4, 24)])


class TestNormFromConfig:
    def test_a_wide_graev_descriptor_is_refused_before_its_entries(self, monkeypatch):
        # 1200 rows are refused on their count: no entry is parsed and no
        # space repaired
        def reached(*args, **kwargs):
            raise AssertionError("parsed or repaired an entry of an over-cap space")

        monkeypatch.setattr(jsonio, "pair_from_str", reached)
        monkeypatch.setattr("fpmap.norms.PointedMetricSpace", reached)
        cfg = {"kind": "graev_boolean", "space": {"basepoint": 0, "dist": [["1"] * 1200] * 1200}}
        with pytest.raises(CapExceededError,
                           match=f"^truncation has {2 ** 1199} elements, above cap 10000000$"):
            norm_from_config(cfg)
        monkeypatch.undo()
        # so an over-cap matrix of malformed entries is refused on its size
        cfg = {"kind": "graev_boolean", "space": {"basepoint": 0, "dist": [["x"] * 25] * 25}}
        with pytest.raises(CapExceededError,
                           match="^truncation has 16777216 elements, above cap 10000000$"):
            norm_from_config(cfg)
        # 0 and 1 points keep their messages
        for dist, message in (([], "metric space needs at least one point"),
                              ([["0"]], "need at least one non-basepoint point")):
            with pytest.raises(InputError, match=f"^{message}$"):
                norm_from_config({"kind": "graev_boolean",
                                  "space": {"basepoint": 0, "dist": dist}})

    def test_ultrametric_roundtrip(self):
        norm = norm_from_config({"kind": "ultrametric", "prime": 3, "dim": 2,
                                 "weights": ["1/2", "1/9"]})
        assert norm.eval(e(3, (2, 1))) == F(1, 9)
        direct = UltrametricProductNorm(3, 2, [F(1, 2), F(1, 9)])
        assert_same_storage(norm._table, direct._table)

    def test_ultrametric_default_weights(self):
        norm = norm_from_config({"kind": "ultrametric", "prime": 2, "dim": 3})
        assert norm.eval(e(2, (3, 1))) == F(1, 3)

    def test_table_roundtrip(self):
        norm = table_from_values(2, 2, {1: F(1, 2), 2: F(1, 3), 3: F(2, 3)})
        again = norm_from_config({"kind": "table", "prime": 2, "dim": 2, "entries": [
            {"element": jsonio.element_to_pairs(g), "value": jsonio.frac_to_str(norm.eval(g))}
            for g in enumerate_span(OrderedBasis.standard(2, 2))]})
        assert_same_storage(again._table, norm._table)
        assert again.eval(e(2, (1, 1))) == norm.eval(e(2, (1, 1)))

    def test_seeded_cost_completion(self):
        cfg = {"kind": "cost_completion", "prime": 3, "dim": 2,
               "seed": 9, "low": "1/9", "high": "1/2"}
        n1 = norm_from_config(cfg)
        n2 = norm_from_config(cfg)
        tr = Truncation(3, 2)
        for r in range(tr.size):
            assert n1.eval(tr.element_of(r)) == n2.eval(tr.element_of(r))

    def test_explicit_cost_completion(self):
        cfg = {"kind": "cost_completion", "prime": 2, "dim": 1,
               "costs": [{"element": [[1, 1]], "value": "2/5"}]}
        norm = norm_from_config(cfg)
        assert norm.eval(e(2, (1, 1))) == F(2, 5)

    def test_graev_boolean_config(self):
        cfg = {"kind": "graev_boolean", "space": {
            "basepoint": 0,
            "dist": [["0/1", "1/1"], ["1/1", "0/1"]],
        }}
        norm = norm_from_config(cfg)
        assert norm.eval(e(2, (1, 1))) == 1

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown norm kind"):
            norm_from_config({"kind": "euclidean"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError, match="unknown key"):
            norm_from_config({"kind": "ultrametric", "prime": 2, "dim": 1, "extra": 1})
        # the matching cap is a constant, not a descriptor key
        with pytest.raises(InputError, match=r"norm config has unknown key\(s\): matching_cap$"):
            norm_from_config({"kind": "graev_boolean", "matching_cap": 12, "space": {
                "basepoint": 0, "dist": [["0/1", "1/1"], ["1/1", "0/1"]]}})

    def test_graev_boolean_wrong_prime(self):
        with pytest.raises(InputError, match="prime 2"):
            norm_from_config({"kind": "graev_boolean", "prime": 3, "space": {
                "basepoint": 0, "dist": [["0/1", "1/1"], ["1/1", "0/1"]]}})

    def test_non_object_config_rejected(self):
        with pytest.raises(InputError, match="JSON object"):
            norm_from_config(["kind", "ultrametric"])

    def test_entries_must_be_an_array(self):
        with pytest.raises(InputError, match="entries must be a JSON array"):
            norm_from_config({"kind": "table", "prime": 2, "dim": 1,
                              "entries": {"10": "1/3"}})

    def test_entry_must_be_an_object(self):
        with pytest.raises(InputError, match="table entry must be a JSON object"):
            norm_from_config({"kind": "table", "prime": 2, "dim": 1,
                              "entries": ["1/3"]})

    def test_costs_must_be_an_array(self):
        with pytest.raises(InputError, match="costs must be a JSON array"):
            norm_from_config({"kind": "cost_completion", "prime": 2, "dim": 1,
                              "costs": "cheap"})

    def test_weights_must_be_an_array(self):
        with pytest.raises(InputError, match="weights must be a JSON array"):
            norm_from_config({"kind": "ultrametric", "prime": 2, "dim": 1,
                              "weights": 7})

    def test_dist_must_be_an_array_of_rows(self):
        with pytest.raises(InputError, match="dist must be a JSON array"):
            norm_from_config({"kind": "graev_boolean",
                              "space": {"basepoint": 0, "dist": 4}})
        with pytest.raises(InputError, match="dist row must be a JSON array"):
            norm_from_config({"kind": "graev_boolean",
                              "space": {"basepoint": 0, "dist": [0, 1]}})
