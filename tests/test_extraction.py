import functools
import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import candidate_ranks, graev_word_value, is_independent_oracle
from fpmap import duality, jsonio
from fpmap.duality import (
    BooleanWitnessReport,
    boolean_counterexample,
    convergent_line_space,
    epsilon_delta_certificate,
)
from fpmap.errors import CapExceededError, ExhaustedError, InputError, NormBoundFailedError
from fpmap.fpcore import (
    GroupElement,
    OrderedBasis,
    Truncation,
)
from fpmap.extraction import (
    IndependentFamily,
    NullSequence,
    extract_independent_family,
    independence_modulus,
    norm_sorted_span,
    product_coarser_check,
    reduced_max_position,
    select_null_subsequence,
    threshold,
)
from fpmap.norms import (
    CostCompletionNorm,
    GraevBooleanNorm,
    PointedMetricSpace,
    TableNorm,
    UltrametricProductNorm,
    graded_cost,
    random_cost,
    validate_axioms,
)
from fpmap.reduction import reduce_basis


def e(p, *pairs):
    return GroupElement.make(p, pairs)


def spaced_weights_norm():
    """d=9 ultrametric with handpicked light spots at indices 3, 5, 9."""
    half = F(1, 2)
    weights = [half, half, F(1, 10), half, F(1, 100), half, half, half, F(1, 1000)]
    norm = UltrametricProductNorm(2, 9, weights)
    validate_axioms(norm)
    return norm


def reduced_for(norm):
    return reduce_basis(OrderedBasis.standard(norm.prime, norm.dim), norm)


class TestThresholds:
    def test_values(self):
        assert threshold(2, 1) == F(1, 8)
        assert threshold(2, 3) == F(1, 512)
        assert threshold(3, 2) == F(1, 144)


class TestSelectNullSubsequence:
    def test_accepts_spaced_candidates(self):
        norm = spaced_weights_norm()
        red = reduced_for(norm)
        seq = [e(2, (3, 1)), e(2, (5, 1)), e(2, (9, 1))]
        out = select_null_subsequence(candidate_ranks(norm, seq), norm, red, 3)
        assert out.terms == tuple(seq)
        assert out.maxes == (3, 5, 9)
        assert out.norms == (F(1, 10), F(1, 100), F(1, 1000))

    def test_threshold_is_strict(self):
        norm = UltrametricProductNorm(2, 1, [F(1, 8)])
        validate_axioms(norm)
        red = reduced_for(norm)
        with pytest.raises(ExhaustedError) as info:
            select_null_subsequence(candidate_ranks(norm, [e(2, (1, 1))]), norm, red, 1)
        assert info.value.achievable_length == 0
        assert info.value.failed_slot == 1
        assert info.value.constraint == "threshold"

    def test_equal_maxes_exhaust_at_two(self):
        norm = UltrametricProductNorm(2, 3, [F(1, 200), F(1, 2), F(1, 100)])
        validate_axioms(norm)
        red = reduced_for(norm)
        # both candidates have top position 3 and tiny norms
        seq = [e(2, (3, 1)), e(2, (1, 1), (3, 1))]
        with pytest.raises(ExhaustedError) as info:
            select_null_subsequence(candidate_ranks(norm, seq), norm, red, 2)
        assert info.value.achievable_length == 1
        assert info.value.failed_slot == 2
        assert info.value.constraint == "max-progression"

    def test_empty_request(self):
        norm = spaced_weights_norm()
        red = reduced_for(norm)
        out = select_null_subsequence(candidate_ranks(norm, []), norm, red, 0)
        assert len(out) == 0

    def test_lookahead_skips_dead_end(self):
        # one mixed element is much lighter than anything else, so the
        # reduction absorbs it; a first pick of plain e5 would strand slot 2
        tr = Truncation(2, 5)
        values = {r: F(1, 10) for r in range(1, tr.size)}
        values[tr.rank_of(e(2, (2, 1), (5, 1)))] = F(1, 100)
        norm = TableNorm(2, 5, [(tr.element_of(r), v) for r, v in values.items()])
        validate_axioms(norm)
        assert norm.axiom_report.ok
        red = reduced_for(norm)
        assert red.reduced[4] == e(2, (2, 1), (5, 1))
        seq = [e(2, (5, 1)), e(2, (3, 1)), e(2, (2, 1), (5, 1))]
        out = select_null_subsequence(candidate_ranks(norm, seq), norm, red, 2)
        assert out.terms == (e(2, (3, 1)), e(2, (2, 1), (5, 1)))
        assert out.maxes == (3, 5)

    def test_zero_element_never_selected(self):
        norm = spaced_weights_norm()
        red = reduced_for(norm)
        seq = [GroupElement.zero(2), e(2, (3, 1))]
        out = select_null_subsequence(candidate_ranks(norm, seq), norm, red, 1)
        assert out.terms == (e(2, (3, 1)),)

    def test_sorted_span_feeds_selection(self):
        norm = CostCompletionNorm(graded_cost(0, 2, 4))
        validate_axioms(norm)
        red = reduced_for(norm)
        seq = norm_sorted_span(norm)
        assert seq[0] == 0  # the rank of the zero element
        out = select_null_subsequence(seq, norm, red, 4)
        assert list(out.maxes) == sorted(set(out.maxes))
        assert len(out) == 4

    def test_uniform_band_can_exhaust(self):
        # a narrow one-band cost usually cannot supply a full-length chain:
        # every leading-index class sits at a random depth in the sort order
        cost = random_cost(0, 2, 4, F(1, 8 ** 6), F(1, 2 * 8 ** 4))
        norm = CostCompletionNorm(cost)
        validate_axioms(norm)
        red = reduced_for(norm)
        with pytest.raises(ExhaustedError) as info:
            select_null_subsequence(norm_sorted_span(norm), norm, red, 4)
        assert info.value.achievable_length == 3
        assert info.value.constraint == "max-progression"


class TestNullSequenceType:
    def test_rejects_equal_maxes(self):
        with pytest.raises(InputError, match="strictly increase"):
            NullSequence(2, (e(2, (1, 1)), e(2, (2, 1))), (F(1, 10), F(1, 100)), (2, 2))

    def test_rejects_threshold_norm(self):
        with pytest.raises(InputError, match="not below"):
            NullSequence(2, (e(2, (1, 1)),), (F(1, 8),), (1,))

    def test_rejects_zero_term(self):
        with pytest.raises(InputError, match="nonzero"):
            NullSequence(2, (GroupElement.zero(2),), (F(1, 10),), (1,))

    def test_json_shape(self):
        seq = NullSequence(2, (e(2, (3, 1)),), (F(1, 10),), (3,))
        doc = seq.to_json_dict()
        assert doc["thresholds"] == ["1/8"]
        assert doc["maxes"] == [3]


class TestReducedMaxPosition:
    def test_standard_basis(self):
        norm = spaced_weights_norm()
        red = reduced_for(norm)
        assert reduced_max_position(e(2, (3, 1), (7, 1)), red) == 7
        assert reduced_max_position(GroupElement.zero(2), red) == 0

    def test_skewed_basis(self):
        # when e'_5 = e2 + e5, the element e5 needs positions 2 and 5
        tr = Truncation(2, 5)
        values = {r: F(1, 10) for r in range(1, tr.size)}
        values[tr.rank_of(e(2, (2, 1), (5, 1)))] = F(1, 100)
        norm = TableNorm(2, 5, [(tr.element_of(r), v) for r, v in values.items()])
        validate_axioms(norm)
        red = reduced_for(norm)
        assert reduced_max_position(e(2, (5, 1)), red) == 5
        assert reduced_max_position(e(2, (2, 1), (5, 1)), red) == 5


class TestExtractIndependentFamily:
    def test_transcribes_indices(self):
        norm = spaced_weights_norm()
        red = reduced_for(norm)
        seq = select_null_subsequence(
            candidate_ranks(norm, [e(2, (3, 1)), e(2, (5, 1)), e(2, (9, 1))]), norm, red, 3)
        fam = extract_independent_family(seq, red, norm)
        assert fam.indices == (3, 5, 9)
        assert fam.members == (e(2, (3, 1)), e(2, (5, 1)), e(2, (9, 1)))
        assert fam.norms == (F(1, 10), F(1, 100), F(1, 1000))
        assert is_independent_oracle(fam.members)

    def test_singleton(self):
        norm = spaced_weights_norm()
        red = reduced_for(norm)
        seq = select_null_subsequence(candidate_ranks(norm, [e(2, (3, 1))]), norm, red, 1)
        fam = extract_independent_family(seq, red, norm)
        assert len(fam) == 1

    def test_norm_bound_failure_on_planted_basis(self):
        # a table where the honest reduction would pick e1+e2 as the second
        # element; keeping the standard basis leaves e'_2 too heavy
        tr = Truncation(2, 2)
        norm = TableNorm(2, 2, [
            (tr.element_of(tr.rank_of(e(2, (1, 1)))), F(1, 30)),
            (tr.element_of(tr.rank_of(e(2, (2, 1)))), F(2, 15)),
            (tr.element_of(tr.rank_of(e(2, (1, 1), (2, 1)))), F(1, 10)),
        ])
        validate_axioms(norm)
        assert norm.axiom_report.ok
        from fpmap.reduction import ReducedBasis, ReductionStep
        basis = OrderedBasis.standard(2, 2)
        planted = ReducedBasis(
            basis, basis,
            (ReductionStep(1, (1,), e(2, (1, 1)), F(1, 30), 1, None),
             ReductionStep(2, (0, 1), e(2, (2, 1)), F(2, 15), 1, None)))
        seq = NullSequence(2, (e(2, (1, 1), (2, 1)),), (F(1, 10),), (2,))
        with pytest.raises(NormBoundFailedError, match="not below"):
            extract_independent_family(seq, planted, norm)
        # the honest reduction has no trouble with the same sequence
        red = reduce_basis(basis, norm)
        fam = extract_independent_family(
            select_null_subsequence(candidate_ranks(norm, [e(2, (1, 1), (2, 1))]), norm, red, 1),
            red, norm)
        assert fam.members == (e(2, (1, 1), (2, 1)),)


class TestIndependenceModulus:
    def test_clean_family(self):
        norm = spaced_weights_norm()
        red = reduced_for(norm)
        seq = select_null_subsequence(
            candidate_ranks(norm, [e(2, (3, 1)), e(2, (5, 1)), e(2, (9, 1))]), norm, red, 3)
        fam = extract_independent_family(seq, red, norm)
        report = independence_modulus(fam, norm, 1, 3)
        assert report.ok
        assert report.eps == F(1)
        assert report.delta == F(1, 8)
        assert report.combos_checked == 7
        assert report.small_norm_combos == 7
        assert report.splits_checked == 2

    def test_pipeline_families_stay_clean(self):
        for seed in range(4):
            p = 2 if seed % 2 == 0 else 3
            m = 4
            norm = CostCompletionNorm(graded_cost(seed, p, 4))
            validate_axioms(norm)
            red = reduced_for(norm)
            seq = select_null_subsequence(norm_sorted_span(norm), norm, red, m)
            fam = extract_independent_family(seq, red, norm)
            for l in (1, 2, 3):
                report = independence_modulus(fam, norm, l, m)
                assert report.ok, report.violations[:2]

    def test_planted_violation(self):
        # eleven non-basepoint points, a table of 2048 values; {x, y_10}
        # has norm 1/10 < 1/8
        space = convergent_line_space(10)
        norm = GraevBooleanNorm(space)
        validate_axioms_small = norm  # no axiom run needed; modulus does not gate
        tiny1 = e(2, (9, 1), (10, 1))    # {y_8, y_9}
        tiny2 = e(2, (10, 1), (11, 1))   # {y_9, y_10}
        source = NullSequence(
            2, (tiny1, tiny2),
            (norm.eval(tiny1), norm.eval(tiny2)),
            (10, 11))
        from fpmap.extraction import IndependentFamily
        fam = IndependentFamily(
            members=(e(2, (1, 1)), e(2, (11, 1))),
            indices=(1, 11),
            norms=(norm.eval(e(2, (1, 1))), norm.eval(e(2, (11, 1)))),
            source=source)
        report = independence_modulus(fam, norm, 1, 2)
        assert not report.ok
        kinds = {v["check"] for v in report.violations}
        assert "modulus" in kinds
        assert "split-sum" in kinds
        flagged = [v for v in report.violations if v["check"] == "modulus"]
        assert flagged[0]["value_w"] == "1/10"

    def test_parameter_validation(self):
        norm = spaced_weights_norm()
        red = reduced_for(norm)
        seq = select_null_subsequence(candidate_ranks(norm, [e(2, (3, 1))]), norm, red, 1)
        fam = extract_independent_family(seq, red, norm)
        with pytest.raises(InputError):
            independence_modulus(fam, norm, 0, 1)
        with pytest.raises(InputError):
            independence_modulus(fam, norm, 1, 2)


class TestFamilyWordCap:
    """independence_modulus and product_coarser_check check the p^m words of
    a family against their own cap: a family may be dependent and longer
    than the norm's dim, so the norm's truncation does not bound them."""

    FAMILIES = {
        "standard p=2": (2, 3, [(1,), (2,), (3,)]),
        "standard p=3": (3, 2, [(1,), (2,)]),
        "dependent, past dim": (2, 3, [(1,), (2,), (3,), (1, 2), (2, 3)]),
        "repeated, past dim": (3, 2, [(1,), (1, 2), (1,)]),
    }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_cap_admits_exactly_the_family_words(self, name):
        p, dim, supports = self.FAMILIES[name]
        norm = UltrametricProductNorm(p, dim)
        validate_axioms(norm)
        members = tuple(e(p, *[(i, 1) for i in s]) for s in supports)
        fam = IndependentFamily(members, tuple(range(1, len(members) + 1)),
                                tuple(map(norm.eval, members)), None)
        m = len(members)
        words = p ** m
        for check in (lambda cap: independence_modulus(fam, norm, 1, m, cap=cap),
                      lambda cap: product_coarser_check(fam, norm, m, cap=cap)):
            with pytest.raises(CapExceededError,
                               match=f"^truncation has {words} elements, above cap {words - 1}$"):
                check(words - 1)
            assert check(words).to_json_dict() == check(None).to_json_dict()


class TestEpsilonDeltaCertificate:
    def test_singleton_unconstrained(self):
        norm = spaced_weights_norm()
        cert = epsilon_delta_certificate([e(2, (3, 1))], norm.eval, 2, F(1, 2))
        assert cert.delta == F(1, 8)
        assert not cert.is_counterexample
        assert cert.witness is None
        assert cert.combos_checked == 1

    def test_two_terms_witness(self):
        norm = spaced_weights_norm()
        cert = epsilon_delta_certificate([e(2, (3, 1)), e(2, (5, 1))], norm.eval, 2, F(1, 20))
        # every bad combination uses the first term, of norm 1/10; the first
        # of them in enumeration order, that term alone, is the witness
        assert cert.combos_checked == 3
        assert cert.min_bad_value == F(1, 10)
        assert cert.delta == F(1, 64)
        assert cert.witness["exponents"] == [1, 0]
        assert cert.witness["term_index"] == 1

    def test_monotone_in_eps(self):
        norm = spaced_weights_norm()
        xs = [e(2, (3, 1)), e(2, (5, 1)), e(2, (9, 1))]
        deltas = []
        for eps in (F(1), F(1, 20), F(1, 200), F(1, 2000)):
            cert = epsilon_delta_certificate(xs, norm.eval, 2, eps, search_depth=5)
            deltas.append(cert.delta if cert.delta is not None else F(0))
        assert deltas == sorted(deltas, reverse=True)

    def test_extracted_family_keeps_grid_delta(self):
        norm = spaced_weights_norm()
        red = reduced_for(norm)
        seq = select_null_subsequence(
            candidate_ranks(norm, [e(2, (3, 1)), e(2, (5, 1)), e(2, (9, 1))]), norm, red, 3)
        fam = extract_independent_family(seq, red, norm)
        for l in (1, 2, 3):
            cert = epsilon_delta_certificate(
                list(fam.members), norm.eval, 2, F(1, 2 ** (l - 1)), search_depth=l)
            assert cert.delta is not None
            assert cert.delta >= threshold(2, l)


class _Captured(Exception):
    pass


@functools.lru_cache(maxsize=None)
def demo_value(n):
    """The word value function boolean_counterexample(n) hands its
    certificate scan, captured before the scan runs."""
    def capture(xs, value, *args):
        raise _Captured(value)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(duality, "_certificate_scan", capture)
        try:
            boolean_counterexample(n)
        except _Captured as c:
            return c.args[0]
    raise AssertionError("the certificate scan was not reached")


line_space = functools.lru_cache(maxsize=None)(convergent_line_space)


@functools.lru_cache(maxsize=None)
def line_norm(n):
    return GraevBooleanNorm(line_space(n))


class TestBooleanCounterexample:
    def test_line_space_shape(self):
        space = convergent_line_space(3)
        assert space.n_points == 5
        assert space.dist(1, 2) == 1  # x to y_1
        assert space.dist(0, 2) == 2  # basepoint to y_1

    def test_rejects_tiny(self):
        with pytest.raises(InputError):
            convergent_line_space(1)

    def test_witness_values(self):
        report = boolean_counterexample(10)
        assert isinstance(report, BooleanWitnessReport)
        by_n = {entry["n"]: entry for entry in report.entries}
        assert by_n[1]["value_pair"] == "1/1"
        assert by_n[10]["value_pair"] == "1/10"
        assert by_n[10]["value_x"] == "1/1"
        assert by_n[10]["ratio"] == "10/1"

    def test_certificate_is_counterexample(self):
        report = boolean_counterexample(100)
        cert = report.certificate
        assert cert.is_counterexample
        # the closest bad pair is {y_99, y_100}
        assert cert.min_bad_value == F(1, 9900)
        assert cert.witness["value_w"] == "1/9900"
        # smaller than even the finest grid threshold, hence no delta works
        assert cert.min_bad_value < threshold(2, 3)

    def test_the_certificate_is_checked_before_the_space(self, monkeypatch):
        # 5001 terms pass the enum cap, and 8^4762 has 4301 digits, one more
        # than str() writes (8^4761 has 4300); neither forms the line's
        # coordinates
        def no_line(n_points):
            raise AssertionError(f"formed the line of {n_points + 2} points")

        monkeypatch.setattr(duality, "_line_coordinates", no_line)
        with pytest.raises(CapExceededError,
                           match="^certificate scan needs ~12507501 combinations, above cap 10000000$"):
            boolean_counterexample(5000)
        with pytest.raises(InputError, match=r"^search_depth 4762 gives the grid value "
                                             r"1/8\^4762 more than 4300 digits$"):
            boolean_counterexample(2, search_depth=4762)
        monkeypatch.undo()
        assert boolean_counterexample(2, search_depth=4761).certificate.grid[-1] == \
            threshold(2, 4761)

    def test_the_demo_builds_no_metric_space(self, monkeypatch):
        # the words are valued from the line's coordinates alone: no
        # (N+2)^2 matrix is formed or repaired, and the bytes stay pinned
        def no_space(*args, **kwargs):
            raise AssertionError("built a PointedMetricSpace")

        monkeypatch.setattr(PointedMetricSpace, "__init__", no_space)
        text = jsonio.canonical_dumps(boolean_counterexample(40).to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "12d88ae72d39a3af6aa313a39e3b6b430cc795ca66aadfa43b20f70aef7c00be"

    @pytest.mark.parametrize("n", [2, 3, 4, 12, 60])
    def test_the_line_is_over_its_least_common_denominator(self, n):
        # the coordinates are the repaired distances to the basepoint of the
        # line built from Fractions, over the same least denominator
        pts = [F(0), F(1)] + [1 + F(1, k) for k in range(1, n + 1)]
        ref = PointedMetricSpace([[abs(a - b) for b in pts] for a in pts])
        coords, den = duality._line_coordinates(n)
        assert den == ref.den
        assert coords.tolist() == ref.nums[0].tolist()
        space = convergent_line_space(n)
        assert space.den == den and space.nums.tolist() == ref.nums.tolist()

    @given(n=st.integers(2, 60), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_word_values_match_the_repaired_space(self, n, data):
        # the demo's value of a word of at most 3 points, from its block of
        # line coordinates, against the DP on the block gathered from the
        # repaired matrix and, up to 12 points, against the Graev table
        support = data.draw(st.lists(st.integers(1, n + 1), min_size=1, max_size=3, unique=True))
        w = GroupElement.make(2, [(i, 1) for i in sorted(support)])
        value = demo_value(n)
        assert value(w) == graev_word_value(line_space(n), w)
        if n <= 12:
            assert value(w) == line_norm(n).eval(w)

    def test_ratio_grows_with_points(self):
        small = boolean_counterexample(5)
        big = boolean_counterexample(50)
        last_small = small.entries[-1]
        last_big = big.entries[-1]
        assert F(last_big["ratio"].split("/")[0]) > F(last_small["ratio"].split("/")[0])
