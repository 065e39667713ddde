"""Axiom (3) by the generator certificate, against the pair scan and the
references in tests/oracles.py.

At p = 2, validate_axioms proves the triangle inequality either by scanning
the candidate pairs or, when that counts as more work than dim * size, by
checking that the norm is its own shortest-path completion over E, the
elements of support 1 and 2: one Graev cover DP on the table's own values
on E (norms._is_own_completion), whose equations
oracles.generator_rows_certificate checks with one rank row per generator.
Odd p always scans. A refuted certificate falls back to the scan, so every
report must equal the one the scan alone gives, byte for byte, and list the
violations of the full row scan.

The mutants these tests kill are named with their test ids in
tests/mutants/mutants.py; the work rule reversed is killed by TestWorkRule.
"""

from contextlib import contextmanager
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_axiom_violations, generator_rows_certificate, row_scan_triangles
from fpmap import jsonio, norms
from fpmap.errors import InputError
from fpmap.fpcore import Truncation
from fpmap.norms import (
    CostCompletionNorm,
    CostFunction,
    GraevBooleanNorm,
    TableNorm,
    UltrametricProductNorm,
    _cover_table,
    _is_own_completion,
    _scaled,
    graded_cost,
    random_cost,
    random_metric_space,
    validate_axioms,
)

NEAR_BASE = (F(1, 100000), F(1, 50000))  # the point range of the graev-p2 benchmark configs


@contextmanager
def recorded_paths():
    """Records each certificate verdict and the number of positions scanned."""
    log = {"verdicts": [], "scanned": 0}
    certify, scan = norms._is_own_completion, norms._triangle_scan

    def recording_certify(*args):
        log["verdicts"].append(certify(*args))
        return log["verdicts"][-1]

    def counting_scan(*args):
        log["scanned"] += args[-1]
        return scan(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_is_own_completion", recording_certify)
        mp.setattr(norms, "_triangle_scan", counting_scan)
        yield log


def report_triangles(report, tr):
    p = tr.prime.p
    return [tuple(tr.rank_of(jsonio.element_from_pairs(p, v[k])) for k in ("g", "h", "sum"))
            for v in report.violations if v["axiom"] == 3]


def check(norm, threads=1):
    """The report, and the paths it took, after checking it against the
    report of the scan alone and against the full row scan."""
    with recorded_paths() as log:
        report = validate_axioms(norm, threads=threads)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_is_own_completion", lambda *args: False)
        scanned = validate_axioms(norm)
    assert (jsonio.canonical_dumps(report.to_json_dict())
            == jsonio.canonical_dumps(scanned.to_json_dict()))
    tr = norm.truncation
    assert report_triangles(report, tr) == row_scan_triangles(tr, norm._table[0])
    assert report.pairs_checked == tr.size * (tr.size + 1) // 2
    return report, log


def scanned_without_certificate(norm):
    """The report, after checking that validate_axioms never called the
    certificate and scanned, and that it matches the scan alone and the
    row scan: the odd-p path."""
    report, log = check(norm)
    assert log["verdicts"] == [] and log["scanned"]
    return report


def candidate_pairs(norm):
    """Pairs of value-sorted positions i <= j with N(g) + N(h) < max N."""
    s = np.sort(norm._table[0])
    i, j = np.triu_indices(s.size)
    return int(np.count_nonzero(s[i] + s[j] < s.max()))


def table_norm(p, dim, values):
    tr = Truncation(p, dim)
    return TableNorm(p, dim, [(tr.element_of(r), v) for r, v in enumerate(values)])


def graev_values(seed, dim, low=1, high=3, scale=1):
    norm = GraevBooleanNorm(random_metric_space(seed, dim + 1, low, high))
    validate_axioms(norm)
    nums, den = norm._table
    return [F(int(x) * scale, den) for x in nums]


def generator_cost_norm(seed, p, dim):
    """The completion of a cost that is cheap on E and dear elsewhere, so that
    every shortest path runs over E: a norm that is its own E-completion at
    any p."""
    tr = Truncation(p, dim)
    rng = Random(seed)
    gens = set(tr.words_within(2).tolist())
    neg = tr.neg_perm
    values = [None] + [F(2 * dim + 1)] * (tr.size - 1)
    for r in sorted(gens):
        if values[r] == F(2 * dim + 1):
            values[r] = values[int(neg[r])] = F(rng.randint(10, 20), 10)
    return CostCompletionNorm(CostFunction(tr, *_scaled([F(0)] + values[1:])))


def l1_values(p, dim):
    """N(g) = sum of 2^(i-1) over the support of g: additive over the
    singletons, so its own completion over E."""
    tr = Truncation(p, dim)
    return [F(sum(2 ** (i - 1) for i in tr.element_of(r).support)) for r in range(tr.size)]


def popcount_values(dim, shift=0):
    """1 on supports of 1 or 2 points, 1/4 on larger ones: every sum with an
    element of E is bounded, but two large supports can meet in a small one.
    With ``shift`` the lowest bits are ignored, so those ranks are worth 0."""
    return [F(0) if r >> shift == 0 else F(1) if bin(r >> shift).count("1") <= 2 else F(1, 4)
            for r in range(2 ** dim)]


class TestGenerators:
    @pytest.mark.parametrize("p, dim", [(2, 1), (2, 11), (3, 1), (3, 5), (5, 4)])
    def test_supports_of_one_and_two_closed_under_negation(self, p, dim):
        tr = Truncation(p, dim)
        gens = tr.words_within(2).tolist()
        expected = [r for r in range(1, tr.size) if 1 <= len(tr.element_of(r).support) <= 2]
        assert sorted(gens) == expected
        assert len(gens) == dim * (p - 1) + dim * (dim - 1) // 2 * (p - 1) ** 2
        assert set(tr.neg_perm[gens].tolist()) == set(gens)


class TestCompletions:
    @given(st.integers(0, 10 ** 6), st.integers(1, 9),
           st.sampled_from([(1, 3), (F(1, 100), 1), NEAR_BASE]))
    @settings(max_examples=40, deadline=None)
    def test_every_graev_table_passes(self, seed, dim, bounds):
        # the last pair or singleton of an optimal cover is the witness
        norm = GraevBooleanNorm(random_metric_space(seed, dim + 1, *bounds))
        validate_axioms(norm)
        assert _is_own_completion(norm.truncation, norm._table[0])

    @pytest.mark.parametrize("seed, p, dim", [(0, 3, 3), (1, 3, 5), (2, 5, 3), (3, 2, 6)])
    def test_every_e_completion_passes(self, seed, p, dim):
        # the equations hold at every p; only p = 2 has the cover DP, and
        # odd p scans without calling it
        norm = generator_cost_norm(seed, p, dim)
        validate_axioms(norm)
        assert generator_rows_certificate(norm.truncation, norm._table[0])
        if p == 2:
            assert _is_own_completion(norm.truncation, norm._table[0])
        else:
            assert scanned_without_certificate(norm).ok

    @pytest.mark.parametrize("p, dim", [(2, 3), (3, 3), (5, 3)])
    def test_ultrametric_norms_fail(self, p, dim):
        norm = UltrametricProductNorm(p, dim)
        validate_axioms(norm)
        assert not generator_rows_certificate(norm.truncation, norm._table[0])
        if p == 2:
            assert not _is_own_completion(norm.truncation, norm._table[0])
        else:
            assert scanned_without_certificate(norm).ok


@st.composite
def family_norms(draw):
    """Graev norms at p = 2, and table, ultrametric and cost norms at p in {2, 3}."""
    kind = draw(st.sampled_from(["graev", "table", "ultrametric", "cost", "graded"]))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "graev":
        bounds = draw(st.sampled_from([(1, 3), (F(1, 100), 1), NEAR_BASE]))
        return GraevBooleanNorm(random_metric_space(seed, draw(st.integers(2, 11)), *bounds))
    p = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(1, 9 if p == 2 else 5))
    if kind == "table":
        norm = generator_cost_norm(seed, p, dim)
        validate_axioms(norm)
        values = [F(int(x), norm._table[1]) for x in norm._table[0]]
        rng = Random(seed)
        for _ in range(draw(st.integers(0, 3))):
            r = rng.randrange(1, len(values))
            values[r] *= rng.choice([F(3, 2), 2, 5])
        return table_norm(p, dim, values)
    if kind == "ultrametric":
        return UltrametricProductNorm(p, dim, [F(1, draw(st.integers(1, 9))) for _ in range(dim)])
    if kind == "graded":
        return CostCompletionNorm(graded_cost(seed, p, dim))
    low, high = draw(st.sampled_from([(F(1, 100), 1), (F(1, 10), F(1, 2))]))
    return CostCompletionNorm(random_cost(seed, p, dim, low, high))


class TestAgainstTheScan:
    @given(family_norms(), st.sampled_from([1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_families_give_the_scan_report(self, norm, threads):
        check(norm, threads)

    @pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
    def test_p3_takes_the_certificate(self, planted):
        # a weighted l1 norm at p = 3, d = 7: its own completion over the
        # singletons, with 477023 candidate pairs against dim * size = 15309;
        # the certificate is p = 2's, so the scan proves it or lists the plant
        values = l1_values(3, 7)
        if planted:
            values[-1] *= 2
        norm = table_norm(3, 7, values)
        assert generator_rows_certificate(norm.truncation, norm._table[0]) == (not planted)
        assert scanned_without_certificate(norm).ok == (not planted)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_object_storage(self, threads):
        # the Graev d = 9 table scaled past int64, then with one value doubled
        values = graev_values(0, 9, scale=1 << 70)
        report, log = check(table_norm(2, 9, values), threads)
        assert report.ok and log == {"verdicts": [True], "scanned": 0}
        values[300] *= 2
        norm = table_norm(2, 9, values)
        report, log = check(norm, threads)
        assert norm._table[0].dtype == object
        assert log["verdicts"] == [False] and log["scanned"] and not report.ok


def brute_triangle_pairs(norm):
    tr = Truncation(norm.prime, norm.dim)
    return {tuple(sorted((tr.rank_of(v[1]), tr.rank_of(v[2]))))
            for v in brute_axiom_violations(norm, norm.dim) if v[0] == "axiom3"}


class TestSoundness:
    """The certificate's verdict on small norms, against nested loops: where
    it holds, no pair violates axiom (3). At these sizes validate_axioms
    itself would scan, so the certificate is called directly."""

    @pytest.mark.parametrize("make, verdict, clean", [
        (lambda: table_norm(2, 5, graev_values(5, 5)), True, True),
        (lambda: table_norm(2, 5, graev_values(5, 5)[:-1] + [graev_values(5, 5)[-1] * 2]),
         False, False),
        (lambda: table_norm(3, 3, l1_values(3, 3)), True, True),
        (lambda: table_norm(3, 3, l1_values(3, 3)[:-1] + [l1_values(3, 3)[-1] * 2]),
         False, False),
        (lambda: generator_cost_norm(7, 3, 3), True, True),
        (lambda: table_norm(2, 5, popcount_values(5)), False, False),
        (lambda: UltrametricProductNorm(3, 3), False, True),
    ], ids=["graev-2-5", "planted-graev-2-5", "l1-3-3", "planted-l1-3-3", "e-cost-3-3",
            "popcount-2-5", "ultrametric-3-3"])
    def test_verdicts_on_small_norms(self, make, verdict, clean):
        # the row equations' verdict at every p; the cover DP's at p = 2,
        # where odd p scans without calling it
        norm = make()
        validate_axioms(norm)
        assert generator_rows_certificate(norm.truncation, norm._table[0]) == verdict
        if norm.prime.p == 2:
            assert _is_own_completion(norm.truncation, norm._table[0]) == verdict
        else:
            assert scanned_without_certificate(norm).ok == clean
        assert (not brute_triangle_pairs(norm)) == clean

    @given(st.sampled_from([(2, 4), (2, 5), (3, 3)]), st.integers(0, 10 ** 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_certified_norm_has_no_violating_pair(self, shape, seed, data):
        # E-completions with a few values moved up or down
        p, dim = shape
        norm = generator_cost_norm(seed, p, dim)
        validate_axioms(norm)
        values = [F(int(x), norm._table[1]) for x in norm._table[0]]
        rng = Random(seed)
        for _ in range(data.draw(st.integers(0, 2))):
            values[rng.randrange(1, len(values))] *= rng.choice([F(1, 2), F(4, 5), F(5, 4), 2])
        norm = table_norm(p, dim, values)
        validate_axioms(norm)
        certified = generator_rows_certificate(norm.truncation, norm._table[0])
        if p == 2:
            assert _is_own_completion(norm.truncation, norm._table[0]) == certified
        else:
            scanned_without_certificate(norm)
        if certified:
            assert not brute_triangle_pairs(norm)


class TestRefutations:
    def test_a_planted_violation_is_refuted_then_listed(self):
        values = graev_values(0, 11)
        values[1234] *= 2
        report, log = check(table_norm(2, 11, values))
        assert log["verdicts"] == [False] and log["scanned"]
        assert report_triangles(report, Truncation(2, 11))

    def test_a_subadditive_norm_that_is_no_completion_falls_back_clean(self):
        report, log = check(UltrametricProductNorm(2, 11))
        assert report.ok
        assert log["verdicts"] == [False] and log["scanned"]

    def test_bounded_sums_over_e_that_are_not_attained_are_refuted(self):
        # N(x + e) <= N(x) + N(e) for every e in E, and still 7 + 14 = 9 breaks
        # the triangle inequality: only the attained half refutes this norm
        norm = table_norm(2, 8, popcount_values(8))
        validate_axioms(norm)
        nums = norm._table[0]
        ranks = np.arange(2 ** 8)
        gens = Truncation(2, 8).words_within(2).tolist()
        assert all((nums[ranks ^ e] <= nums + nums[e]).all() for e in gens)
        report, log = check(norm)
        assert log["verdicts"] == [False]
        assert (7, 14, 9) in report_triangles(report, norm.truncation)

    def test_a_zero_generator_keeps_the_scan(self):
        # N(1) = 0 makes every value attained through rank 1, so the
        # certificate's equations hold; the axiom (1) guard keeps the cover
        # DP out, whose space refuses the two points at distance 0
        norm = table_norm(2, 8, popcount_values(8, shift=1))
        validate_axioms(norm)
        assert generator_rows_certificate(norm.truncation, norm._table[0])
        with pytest.raises(InputError, match="distinct but at distance 0"):
            _is_own_completion(norm.truncation, norm._table[0])
        report, log = check(norm)
        assert log["verdicts"] == [] and log["scanned"]
        assert [v["element"] for v in report.violations if v["axiom"] == 1] == [[[8, 1]]]
        assert (14, 28, 18) in report_triangles(report, norm.truncation)


class TestWorkRule:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("bounds", [(1, 3), NEAR_BASE], ids=["1-3", "near-base"])
    def test_graev_norms_at_benchmark_size_skip_the_scan(self, seed, bounds):
        report, log = check(GraevBooleanNorm(random_metric_space(seed, 12, *bounds)))
        assert report.ok
        assert log == {"verdicts": [True], "scanned": 0}

    def test_a_graded_p5_norm_takes_the_scan(self):
        report, log = check(CostCompletionNorm(graded_cost(0, 5, 5)))
        assert report.ok
        assert log["verdicts"] == [] and log["scanned"]

    def test_the_choice_is_made_on_counted_work(self):
        # the certificate is charged dim * size, its DP's order: at d = 4
        # this Graev norm has 41 candidate pairs, above size = 16 but below
        # dim * size = 64, so the scan runs although the certificate would
        # pass; at d = 5, 186 pairs against 160, so the certificate runs
        # (|E| * size = 480 would have chosen the scan)
        small = GraevBooleanNorm(random_metric_space(0, 5, 1, 3))
        assert candidate_pairs(small) == 41
        report, log = check(small)
        assert report.ok and log["verdicts"] == [] and log["scanned"]
        assert _is_own_completion(small.truncation, small._table[0])
        larger = GraevBooleanNorm(random_metric_space(0, 6, 1, 3))
        assert candidate_pairs(larger) == 186
        report, log = check(larger)
        assert report.ok and log == {"verdicts": [True], "scanned": 0}

    @pytest.mark.parametrize("seed, dim, bounds, pairs", [(7, 4, (F(1, 2), 1), 44),
                                                          (16, 5, (1, 3), 160)])
    def test_the_candidate_count_is_the_scan_s_pairs(self, seed, dim, bounds, pairs):
        # the scan's pairs are sum(ends[i] - i) over the positions with
        # partners, at most dim * size here (160 = 5 * 32 exactly), so the
        # scan runs although the certificate would pass; sum(ends[i]) alone
        # would count 65 and 226, above dim * size
        norm = GraevBooleanNorm(random_metric_space(seed, dim + 1, *bounds))
        assert candidate_pairs(norm) == pairs <= dim * norm.truncation.size
        report, log = check(norm)
        assert report.ok and log["verdicts"] == [] and log["scanned"]
        assert _is_own_completion(norm.truncation, norm._table[0])

    def test_threads_split_only_the_scan(self):
        # threads is accepted and ignored: the certificate and the scan run
        # as they do at threads=1
        values = graev_values(1, 9)
        one, log = check(table_norm(2, 9, values), threads=3)
        assert log == {"verdicts": [True], "scanned": 0}
        values[77] *= 3
        norm = table_norm(2, 9, values)
        report, log = check(norm, threads=3)
        assert log["verdicts"] == [False] and log["scanned"]
        assert report.to_json_dict() == validate_axioms(norm, threads=1).to_json_dict()


@st.composite
def boolean_tables(draw):
    """p = 2 value lists by rank, 0 at rank 0 and positive elsewhere: Graev
    tables, E-completions with planted moves, ultrametric, popcount and
    random positive tables."""
    kind = draw(st.sampled_from(["graev", "e-completion", "ultrametric", "popcount", "random"]))
    seed = draw(st.integers(0, 10 ** 6))
    dim = draw(st.integers(1, 9))
    rng = Random(seed)
    if kind == "graev":
        return graev_values(seed, dim, *draw(st.sampled_from([(1, 3), (F(1, 100), 1), NEAR_BASE])))
    if kind == "popcount":
        return popcount_values(dim)
    if kind == "random":
        return [F(0)] + [F(rng.randint(1, 20), rng.randint(1, 4)) for _ in range(2 ** dim - 1)]
    if kind == "ultrametric":
        norm = UltrametricProductNorm(2, dim, [F(1, rng.randint(1, 9)) for _ in range(dim)])
    else:
        norm = generator_cost_norm(seed, 2, dim)
    values = [F(int(x), norm._table[1]) for x in norm._table[0]]
    for _ in range(draw(st.integers(0, 3))):
        values[rng.randrange(1, len(values))] *= rng.choice([F(1, 2), F(4, 5), F(5, 4), 2])
    return values


class TestCoverCertificate:
    """The p = 2 certificate is one _cover_table of the table's own values on
    E: it must decide the row equations of oracles.generator_rows_certificate."""

    @given(boolean_tables(), st.sampled_from([1, 1 << 70]))
    @settings(max_examples=80, deadline=None)
    def test_the_cover_dp_decides_the_row_equations(self, values, scale):
        norm = table_norm(2, len(values).bit_length() - 1, [v * scale for v in values])
        tr, nums = norm.truncation, norm._table[0]
        assert (nums.dtype == object) == (scale > 1)
        assert _is_own_completion(tr, nums) == generator_rows_certificate(tr, nums)

    def test_pair_values_that_break_the_triangle_inequality_are_refuted(self):
        # the cover table of an unclosed block, built without the space's
        # closure: d(0, 1) = 190 is above d(0, c) + d(c, 1) <= 120 and below
        # the singletons' sum, so it is the value at e_0 + e_1, rank 3. Only
        # the closure of the table's own pair values refutes the table
        d = 10
        rng = Random(0)
        block = np.zeros((d + 1, d + 1), dtype=np.int64)
        for b in range(d):
            block[b, d] = block[d, b] = rng.randint(100, 200)
            for c in range(b + 1, d):
                block[b, c] = block[c, b] = rng.randint(40, 60)
        block[0, 1] = block[1, 0] = 190
        nums = _cover_table(block[:d], 1)[0]
        assert int(nums[3]) == 190
        norm = table_norm(2, d, [F(int(x)) for x in nums])
        assert not generator_rows_certificate(norm.truncation, norm._table[0])
        report, log = check(norm)
        assert log["verdicts"] == [False] and log["scanned"]
        assert 3 in [s for _, _, s in report_triangles(report, norm.truncation)]

    def test_the_certificate_builds_no_rank_row(self):
        norm = GraevBooleanNorm(random_metric_space(0, 17, 1, 3))

        def refuse(*args, **kwargs):
            raise AssertionError("a rank row was built")

        with recorded_paths() as log, pytest.MonkeyPatch.context() as mp:
            mp.setattr(Truncation, "sub_rank_row", refuse)
            mp.setattr(Truncation, "add_rank_row", refuse)
            report = validate_axioms(norm)
        assert report.ok and log == {"verdicts": [True], "scanned": 0}
