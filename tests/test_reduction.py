import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_member_word_bound, brute_min_norm_in_coset
from fpmap.errors import CapExceededError, InputError, InvalidNormError
from fpmap.fpcore import GroupElement, OrderedBasis, Prime, Truncation
from fpmap.jsonio import canonical_dumps
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
    reduced_basis_from_json,
    verify_reduced_properties,
)


def e(p, *pairs):
    return GroupElement.make(p, pairs)


def table(p, dim, values):
    tr = Truncation(p, dim)
    norm = TableNorm(p, dim, [(tr.element_of(r), v) for r, v in values.items()])
    validate_axioms(norm)
    return norm


def skew_table_norm():
    # e1 is expensive, e2 moderate, their sum cheap: reduction prefers e1+e2
    return table(2, 2, {2: F(3), 1: F(2), 3: F(1)})


class TestReduceBasis:
    def test_two_dim_hand_example(self):
        norm = skew_table_norm()
        red = reduce_basis(OrderedBasis.standard(2, 2), norm)
        assert red.reduced.elems == (e(2, (1, 1)), e(2, (1, 1), (2, 1)))
        step2 = red.steps[1]
        # candidates were (0,1) at norm 2 and (1,1) at norm 1
        assert step2.coeffs == (1, 1)
        assert step2.norm_value == F(1)
        assert step2.tie_count == 1
        assert step2.runner_up_gap == F(1)

    def test_first_element_kept_verbatim(self):
        norm = skew_table_norm()
        red = reduce_basis(OrderedBasis.standard(2, 2), norm)
        assert red.reduced[0] == e(2, (1, 1))
        assert red.steps[0].coeffs == (1,)
        assert red.steps[0].tie_count == 1

    def test_ultrametric_keeps_standard_basis(self):
        for p, d in [(2, 6), (3, 4), (5, 3)]:
            norm = UltrametricProductNorm(p, d)
            validate_axioms(norm)
            red = reduce_basis(OrderedBasis.standard(p, d), norm)
            assert red.reduced.elems == red.original.elems
            # every nonzero multiple of the incoming vector ties at the minimum
            for step in red.steps[1:]:
                assert step.tie_count == p - 1
                assert step.coeffs[-1] == 1

    def test_single_dim(self):
        norm = UltrametricProductNorm(3, 1)
        validate_axioms(norm)
        red = reduce_basis(OrderedBasis.standard(3, 1), norm)
        assert red.reduced.elems == red.original.elems
        assert len(red.steps) == 1

    def test_monotone_norm_chain(self):
        for seed in range(5):
            norm = CostCompletionNorm(random_cost(seed, 3, 4, F(1, 9), F(2, 3)))
            validate_axioms(norm)
            basis = OrderedBasis.standard(3, 4)
            red = reduce_basis(basis, norm)
            for n in range(4):
                assert norm.eval(red.reduced[n]) <= norm.eval(basis[n])

    def test_argmin_matches_coset_oracle(self):
        for seed in range(4):
            p = 2 if seed % 2 == 0 else 3
            norm = CostCompletionNorm(random_cost(seed, p, 4, F(1, 4 * p), F(1, p)))
            validate_axioms(norm)
            red = reduce_basis(OrderedBasis.standard(p, 4), norm)
            for n in range(1, 4):
                prefix = list(red.reduced.elems[:n])
                incoming = red.original[n]
                best = None
                ties = 0
                for mu in range(1, p):
                    val, argmin = brute_min_norm_in_coset(
                        norm, incoming.smul(mu), prefix, Prime(p))
                    if best is None or val < best:
                        best, ties = val, len(argmin)
                    elif val == best:
                        ties += len(argmin)
                assert red.steps[n].norm_value == best
                assert red.steps[n].tie_count == ties

    def test_deterministic_output(self):
        norm = CostCompletionNorm(random_cost(3, 3, 3, F(1, 9), F(1, 3)))
        validate_axioms(norm)
        a = reduce_basis(OrderedBasis.standard(3, 3), norm)
        b = reduce_basis(OrderedBasis.standard(3, 3), norm)
        assert canonical_dumps(a.to_json_dict()) == canonical_dumps(b.to_json_dict())

    def test_requires_validated_norm(self):
        norm = UltrametricProductNorm(2, 2)
        with pytest.raises(InvalidNormError, match="validate_axioms"):
            reduce_basis(OrderedBasis.standard(2, 2), norm)

    def test_rejects_failed_validation(self):
        norm = table(2, 2, {1: F(1), 2: F(1), 3: F(5)})  # triangle violation
        assert not norm.axiom_report.ok
        with pytest.raises(InvalidNormError, match="failed"):
            reduce_basis(OrderedBasis.standard(2, 2), norm)

    def test_mismatched_prime(self):
        norm = skew_table_norm()
        basis = OrderedBasis.standard(3, 2)
        with pytest.raises(InputError, match="mismatched primes"):
            reduce_basis(basis, norm)

    def test_a_basis_past_the_norms_dim_is_refused(self):
        # the enum cap bounds the norm's truncation, and the truncation
        # refuses e4 before its p^4 words are formed
        norm = UltrametricProductNorm(2, 3)
        validate_axioms(norm)
        basis = OrderedBasis.standard(2, 4)
        with pytest.raises(InputError, match="^index 4 outside truncation of dimension 3$"):
            reduce_basis(basis, norm)
        steps = tuple(ReductionStep(n, (0,) * (n - 1) + (1,), g, F(1), 1, None)
                      for n, g in enumerate(basis, start=1))
        with pytest.raises(InputError, match="^index 4 outside truncation of dimension 3$"):
            verify_reduced_properties(ReducedBasis(basis, basis, steps), norm)


class TestReducedBasisType:
    def test_json_roundtrip(self):
        norm = skew_table_norm()
        red = reduce_basis(OrderedBasis.standard(2, 2), norm)
        doc = red.to_json_dict()
        again = reduced_basis_from_json(doc)
        assert again == red
        assert canonical_dumps(again.to_json_dict()) == canonical_dumps(doc)

    def test_malformed_arrays_rejected(self):
        norm = skew_table_norm()
        doc = reduce_basis(OrderedBasis.standard(2, 2), norm).to_json_dict()
        for key, noise in (("original", 3), ("reduced", "e1"), ("steps", {})):
            bad = dict(doc)
            bad[key] = noise
            with pytest.raises(InputError, match=f"{key} must be a JSON array"):
                reduced_basis_from_json(bad)
        bad = json.loads(canonical_dumps(doc))
        bad["steps"][0]["coeffs"] = 1
        with pytest.raises(InputError, match="coeffs must be a JSON array"):
            reduced_basis_from_json(bad)

    def test_prefix_span_enforced(self):
        # (e2, e1) has the right total span but the wrong first prefix
        prime = Prime(2)
        original = OrderedBasis.standard(2, 2)
        bad = OrderedBasis(prime, (e(2, (2, 1)), e(2, (1, 1))))
        steps = (
            ReductionStep(1, (1,), e(2, (2, 1)), F(1), 1, None),
            ReductionStep(2, (0, 1), e(2, (1, 1)), F(1), 1, None),
        )
        with pytest.raises(InputError, match="prefix spans"):
            ReducedBasis(original, bad, steps)

    def test_step_shape_enforced(self):
        with pytest.raises(InputError, match="coefficients"):
            ReductionStep(2, (1,), e(2, (1, 1)), F(1), 1, None)
        with pytest.raises(InputError, match="nonzero"):
            ReductionStep(1, (0,), e(2, (1, 1)), F(1), 1, None)


class TestVerifyReducedProperties:
    def test_hand_example_clean(self):
        norm = skew_table_norm()
        red = reduce_basis(OrderedBasis.standard(2, 2), norm)
        report = verify_reduced_properties(red, norm)
        assert report.ok
        assert report.inequality == "max-term-minimality"
        # eval(e'_2) = 1 against eval(e'_1 + e'_2) = eval(e2) = 2
        assert report.max_ratio <= 1
        assert report.checked == 3

    def test_planted_violation_detected(self):
        norm = skew_table_norm()
        # keep the standard basis: e'_2 = e2 has norm 2, but e1 + e2 in its
        # span prefix has norm 1, so max-term-minimality must fail
        original = OrderedBasis.standard(2, 2)
        planted = ReducedBasis(
            original, original,
            (ReductionStep(1, (1,), e(2, (1, 1)), norm.eval(e(2, (1, 1))), 1, None),
             ReductionStep(2, (0, 1), e(2, (2, 1)), norm.eval(e(2, (2, 1))), 1, None)))
        report = verify_reduced_properties(planted, norm)
        assert not report.ok
        bad = [v for v in report.violations if v["check"] == "max-term-minimality"]
        assert bad
        assert bad[0]["top_index"] == 2
        assert bad[0]["value_top"] == "2/1"
        assert bad[0]["value_w"] == "1/1"

    def test_reduce_output_always_passes(self):
        for seed in range(6):
            p = 2 if seed % 2 == 0 else 3
            norm = CostCompletionNorm(random_cost(seed, p, 4, F(1, 8 * p), F(1, 2 * p)))
            validate_axioms(norm)
            red = reduce_basis(OrderedBasis.standard(p, 4), norm)
            assert verify_reduced_properties(red, norm).ok

    def test_max_tuple_limits_domain(self):
        norm = skew_table_norm()
        red = reduce_basis(OrderedBasis.standard(2, 2), norm)
        full = verify_reduced_properties(red, norm)
        limited = verify_reduced_properties(red, norm, max_tuple=1)
        assert limited.checked < full.checked
        assert limited.checked == 2
        assert "(tuple sizes up to 1)" in limited.domain
        # a bound of at least d is no bound: the same document as None's
        for n in (2, 5):
            bounded = verify_reduced_properties(red, norm, max_tuple=n)
            assert bounded.to_json_dict() == full.to_json_dict()
        assert "(all tuple sizes)" in full.domain


class TestMemberWordBound:
    def test_hand_ratio(self):
        norm = skew_table_norm()
        red = reduce_basis(OrderedBasis.standard(2, 2), norm)
        report = check_member_word_bound(red, norm)
        assert report.ok
        # w = e'_1 + e'_2 = e2 has norm 2 while eval(e'_1) = 3: ratio 3/2 at
        # depth 1, comfortably below the bound factor (2p)^1 = 4
        assert report.ratios_by_k[1] == F(3, 2)
        assert report.ratios_by_k[0] <= 1

    def test_depth_zero_is_max_term_minimality(self):
        for seed in range(3):
            norm = CostCompletionNorm(random_cost(seed, 3, 3, F(1, 12), F(1, 3)))
            validate_axioms(norm)
            red = reduce_basis(OrderedBasis.standard(3, 3), norm)
            report = check_member_word_bound(red, norm)
            assert report.ok
            assert report.ratios_by_k[0] <= 1

    def test_zero_violations_across_families(self):
        cases = []
        for p, d in [(2, 5), (3, 4)]:
            norm = UltrametricProductNorm(p, d)
            validate_axioms(norm)
            cases.append((p, d, norm))
        for seed in range(3):
            norm = CostCompletionNorm(random_cost(seed, 2, 5, F(1, 16), F(1, 4)))
            validate_axioms(norm)
            cases.append((2, 5, norm))
        for p, d, norm in cases:
            red = reduce_basis(OrderedBasis.standard(p, d), norm)
            report = check_member_word_bound(red, norm, max_tuple=5)
            assert report.ok, report.violations[:2]

    @given(st.sampled_from(["graev", "graded", "cost", "ultrametric"]),
           st.sampled_from([(2, 5), (3, 3), (5, 3)]), st.integers(0, 10 ** 6),
           st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_ratios_match_the_fraction_reference(self, kind, shape, seed, max_tuple):
        # per-k ratios kept as integer pairs: the same Fractions, and bytes
        p, d = (2, shape[1] + 2) if kind == "graev" else shape
        norm = {
            "graev": lambda: GraevBooleanNorm(random_metric_space(seed, d + 1, 1, 3)),
            "graded": lambda: CostCompletionNorm(graded_cost(seed, p, d)),
            "cost": lambda: CostCompletionNorm(random_cost(seed, p, d, F(1, 100), 1)),
            "ultrametric": lambda: UltrametricProductNorm(
                p, d, [F(1 + (seed >> i) % 7, 1 + (seed >> 2 * i) % 5) for i in range(d)]),
        }[kind]()
        validate_axioms(norm)
        red = reduce_basis(OrderedBasis.standard(p, d), norm)
        got = check_member_word_bound(red, norm, max_tuple=max_tuple)
        want = brute_member_word_bound(red, norm, max_tuple=max_tuple)
        assert got.ratios_by_k == want.ratios_by_k and got.max_ratio == want.max_ratio
        assert canonical_dumps(got.to_json_dict()) == canonical_dumps(want.to_json_dict())

    def test_cap(self):
        norm = UltrametricProductNorm(2, 8)
        validate_axioms(norm)
        red = reduce_basis(OrderedBasis.standard(2, 8), norm)
        with pytest.raises(CapExceededError):
            check_member_word_bound(red, norm, cap=10)


class TestPairDomination:
    def test_hand_example(self):
        norm = skew_table_norm()
        red = reduce_basis(OrderedBasis.standard(2, 2), norm)
        report = check_pair_domination(red, norm)
        assert report.ok
        assert report.checked == 1
        # eval(e'_2) = 1 <= eval(e'_1 + e'_2) = 2
        assert report.max_ratio == F(1, 2)

    def test_ultrametric_all_pairs(self):
        norm = UltrametricProductNorm(2, 8)
        validate_axioms(norm)
        red = reduce_basis(OrderedBasis.standard(2, 8), norm)
        report = check_pair_domination(red, norm)
        assert report.ok
        assert report.checked == 28

    def test_agrees_with_property_check_on_pairs(self):
        # pair domination is the two-index slice of max-term-minimality;
        # on a planted bad basis both checkers must flag the same pair
        norm = skew_table_norm()
        original = OrderedBasis.standard(2, 2)
        planted = ReducedBasis(
            original, original,
            (ReductionStep(1, (1,), e(2, (1, 1)), norm.eval(e(2, (1, 1))), 1, None),
             ReductionStep(2, (0, 1), e(2, (2, 1)), norm.eval(e(2, (2, 1))), 1, None)))
        pair_report = check_pair_domination(planted, norm)
        prop_report = verify_reduced_properties(planted, norm)
        assert not pair_report.ok
        assert not prop_report.ok
