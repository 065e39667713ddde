from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_continuous_characters,
    brute_open_subgroups,
    brute_rank,
    brute_von_neumann_kernel,
)
from fpmap import duality, fpcore
from fpmap.duality import (
    Character,
    MapReport,
    TopologySpec,
    _annihilator_basis,
    _assert_same_subgroup,
    continuous_characters,
    is_map,
    random_topology,
    topology_from_config,
    von_neumann_kernel,
)
from fpmap.errors import (
    CapExceededError,
    InputError,
    InternalDisagreementError,
)
from fpmap.extraction import (
    IndependentFamily,
    extract_independent_family,
    norm_sorted_span,
    product_coarser_check,
    select_null_subsequence,
)
from fpmap.fpcore import GroupElement, OrderedBasis, Prime, Truncation
from fpmap.norms import (
    CostCompletionNorm,
    UltrametricProductNorm,
    graded_cost,
    random_cost,
    validate_axioms,
)
from fpmap.reduction import reduce_basis


def e(p, *pairs):
    return GroupElement.make(p, pairs)


def span_e3_spec():
    return TopologySpec.from_elements(2, 3, [[e(2, (3, 1))]])


def discrete_spec(p, d):
    return TopologySpec.from_elements(p, d, [[]])


def coeffs_of(tr, r):
    g = tr.element_of(r)
    return [g.coeff(i) for i in range(1, tr.dim + 1)]


def whole_group_spec(p, d):
    tr = Truncation(p, d)
    return TopologySpec.from_elements(p, d, [[tr.element_of(r) for r in range(tr.size)]])


class TestCharacter:
    def test_linearity_exhaustive(self):
        tr = Truncation(3, 2)
        for vr in range(tr.size):
            chi = Character.make(3, coeffs_of(tr, vr))
            for a in range(tr.size):
                for b in range(tr.size):
                    g, h = tr.element_of(a), tr.element_of(b)
                    assert chi(g + h) == (chi(g) + chi(h)) % 3

    def test_trivial(self):
        chi = Character.trivial(5, 3)
        assert not any(chi.coeffs)
        assert chi(e(5, (2, 4))) == 0

    def test_values(self):
        chi = Character.make(3, [1, 2])
        assert chi(e(3, (1, 1))) == 1
        assert chi(e(3, (2, 1))) == 2
        assert chi(e(3, (1, 1), (2, 1))) == 0

    def test_make_normalizes(self):
        assert Character.make(3, [4, -1]).coeffs == (1, 2)

    def test_nontrivial_kernel_has_index_p(self):
        for p, d in ((2, 3), (3, 3)):
            tr = Truncation(p, d)
            for vr in range(1, tr.size):
                chi = Character.make(p, coeffs_of(tr, vr))
                kernel = set(tr.span_ranks(_annihilator_basis([list(chi.coeffs)], p, d)).tolist())
                assert len(kernel) == p ** (d - 1)
                assert all(chi(tr.element_of(r)) == 0 for r in kernel)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(InputError, match="integers"):
            Character(Truncation(3, 2).prime, (1, 3))
        with pytest.raises(InputError, match="at least one"):
            Character.make(2, [])

    def test_eval_domain_checks(self):
        chi = Character.make(2, [1, 0])
        with pytest.raises(InputError, match="primes"):
            chi(e(3, (1, 1)))
        with pytest.raises(InputError, match="outside"):
            chi(e(2, (3, 1)))


class TestTopologySpec:
    def test_zero_added_to_element_sets(self):
        spec = span_e3_spec()
        assert spec.members == (frozenset({0, 1}),)
        sets = spec.element_sets()
        assert sets[0][0].is_zero()

    def test_rejects_empty_base(self):
        with pytest.raises(InputError, match="at least one"):
            TopologySpec.from_elements(2, 2, [])

    def test_direct_construction_requires_zero(self):
        spec = discrete_spec(2, 2)
        with pytest.raises(InputError, match="contain zero"):
            TopologySpec(spec.prime, 2, (frozenset({1, 2}),))
        with pytest.raises(InputError, match="out of range"):
            TopologySpec(spec.prime, 2, (frozenset({0, 4}),))

    def test_balls(self):
        norm = UltrametricProductNorm(2, 2)
        tiny = TopologySpec.from_balls(norm, [F(1, 3)])
        assert tiny.members == (frozenset({0}),)
        everything = TopologySpec.from_balls(norm, [F(2)])
        assert everything.members == (frozenset(range(4)),)
        # balls are open: a radius equal to a value leaves that element out
        edges = TopologySpec.from_balls(norm, [F(1, 2), F(1)])
        assert edges.members == (frozenset({0}), frozenset({0, 1}))
        with pytest.raises(InputError, match="positive"):
            TopologySpec.from_balls(norm, [F(0)])

    def test_json_roundtrip(self):
        spec = random_topology(7, 2, 3)
        again = topology_from_config(spec.to_json_dict())
        assert again == spec

    # p=2, dim 4: the truncation has 16 elements
    CAPPED = {
        "direct": lambda cap: TopologySpec(Prime(2), 4, (frozenset({0, 3}),), cap=cap),
        "elements": lambda cap: TopologySpec.from_elements(2, 4, [[e(2, (4, 1))]], cap=cap),
        "balls": lambda cap: TopologySpec.from_balls(UltrametricProductNorm(2, 4),
                                                     [F(1, 3)], cap=cap),
        "seeded": lambda cap: random_topology(3, 2, 4, cap=cap),
        "config": lambda cap: topology_from_config(
            {"kind": "balls", "norm": {"kind": "ultrametric", "prime": 2, "dim": 4},
             "radii": ["1/3"]}, cap=cap),
    }

    @pytest.mark.parametrize("name", sorted(CAPPED))
    def test_the_cap_is_checked_once_when_the_spec_is_built(self, monkeypatch, name):
        with pytest.raises(CapExceededError, match="^truncation has 16 elements, above cap 15$"):
            self.CAPPED[name](15)
        spec = self.CAPPED[name](16)
        assert spec.tr.size == 16
        # equal by (prime, dim, members) to the spec under the default cap
        default = self.CAPPED[name](None)
        assert spec == default and hash(spec) == hash(default)
        expected = (continuous_characters(default), von_neumann_kernel(default),
                    is_map(default), default.element_sets(), default.to_json_dict())
        # every read serves from the spec's truncation: none builds or checks one
        def refuse(*args, **kwargs):
            raise AssertionError("a read built a truncation")
        monkeypatch.setattr(duality, "truncation", refuse)
        monkeypatch.setattr(fpcore, "require_size", refuse)
        assert (continuous_characters(spec), von_neumann_kernel(spec), is_map(spec),
                spec.element_sets(), spec.to_json_dict()) == expected

    def test_balls_config(self):
        cfg = {
            "kind": "balls",
            "norm": {"kind": "ultrametric", "prime": 2, "dim": 2},
            "radii": ["1/3"],
        }
        assert topology_from_config(cfg).members == (frozenset({0}),)

    def test_seeded_config(self):
        cfg = {"kind": "seeded", "prime": 2, "dim": 3, "seed": 5}
        assert topology_from_config(cfg) == random_topology(5, 2, 3)

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown topology kind"):
            topology_from_config({"kind": "mystery"})
        with pytest.raises(InputError, match="unknown key"):
            topology_from_config({"kind": "seeded", "prime": 2, "dim": 3,
                                  "seed": 5, "extra": 1})

    def test_base_must_be_arrays(self):
        with pytest.raises(InputError, match="base must be a JSON array"):
            topology_from_config({"kind": "elements", "prime": 2, "dim": 2,
                                  "base": 3})
        with pytest.raises(InputError, match="base set must be a JSON array"):
            topology_from_config({"kind": "elements", "prime": 2, "dim": 2,
                                  "base": ["x"]})

    def test_radii_must_be_an_array(self):
        with pytest.raises(InputError, match="radii must be a JSON array"):
            topology_from_config({
                "kind": "balls",
                "norm": {"kind": "ultrametric", "prime": 2, "dim": 2},
                "radii": "1/3"})


class TestContinuousCharacters:
    def test_whole_group_leaves_only_trivial(self):
        chars = continuous_characters(whole_group_spec(2, 3))
        assert len(chars) == 1
        assert not any(chars[0].coeffs)

    def test_discrete_keeps_all(self):
        assert len(continuous_characters(discrete_spec(2, 3))) == 8
        assert len(continuous_characters(discrete_spec(3, 2))) == 9

    def test_span_e3_base(self):
        chars = continuous_characters(span_e3_spec())
        assert {c.coeffs for c in chars} == {
            (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)}

    def test_trivial_first(self):
        chars = continuous_characters(span_e3_spec())
        assert not any(chars[0].coeffs)

    def test_cap(self):
        # the spec checks the cap when it is built; the read takes none
        with pytest.raises(CapExceededError, match="above cap 7"):
            TopologySpec.from_elements(2, 3, [[]], cap=7)
        with pytest.raises(TypeError):
            continuous_characters(discrete_spec(2, 3), cap=7)


class TestVonNeumannKernel:
    def test_discrete_topology(self):
        assert von_neumann_kernel(discrete_spec(2, 3)) == ()
        assert von_neumann_kernel(discrete_spec(3, 2)) == ()

    def test_span_e3_base(self):
        assert von_neumann_kernel(span_e3_spec()) == (e(2, (3, 1)),)

    def test_whole_group(self):
        basis = von_neumann_kernel(whole_group_spec(2, 3))
        assert basis == (e(2, (1, 1)), e(2, (2, 1)), e(2, (3, 1)))

    def test_basis_is_echelon(self):
        spec = TopologySpec.from_elements(2, 3, [[e(2, (1, 1), (2, 1))]])
        basis = von_neumann_kernel(spec)
        # leading indices strictly increase and later members avoid them
        leads = [g.support[0] for g in basis]
        assert leads == sorted(set(leads))
        for i, g in enumerate(basis):
            for h in basis[i + 1:]:
                assert leads[i] not in h.support

    def test_disagreement_guard(self):
        tr = Truncation(2, 2)
        with pytest.raises(InternalDisagreementError, match="disagree"):
            _assert_same_subgroup(frozenset({0, 1}), (), tr)


class TestIsMap:
    def test_discrete_is_map(self):
        report = is_map(discrete_spec(2, 3))
        assert report.is_map
        assert report.witness is None
        assert report.dual_rank == 3
        assert report.kernel_basis == ()
        assert report.n_open_subgroups == 7

    def test_span_e3_fails(self):
        report = is_map(span_e3_spec())
        assert not report.is_map
        assert report.witness == e(2, (3, 1))
        assert report.dual_rank == 2
        assert report.n_continuous == 4
        assert report.n_open_subgroups == 3

    def test_whole_group_fails(self):
        report = is_map(whole_group_spec(2, 3))
        assert not report.is_map
        assert report.dual_rank == 0
        assert report.n_open_subgroups == 0
        assert report.witness == e(2, (1, 1))

    def test_small_ball_of_validated_norm_is_discrete(self):
        norm = UltrametricProductNorm(2, 4)
        validate_axioms(norm)
        # every nonzero element has norm at least 1/4; a smaller radius
        # leaves {0} alone in the ball
        report = is_map(TopologySpec.from_balls(norm, [F(1, 5)]))
        assert report.is_map

    def test_routes_recorded(self):
        report = is_map(span_e3_spec())
        assert (report.route_kernel, report.route_dual_rank,
                report.route_open_subgroups) == (False, False, False)

    def test_dim_formula(self):
        for spec in (discrete_spec(2, 3), span_e3_spec(), whole_group_spec(2, 3),
                     discrete_spec(3, 2), whole_group_spec(3, 2)):
            report = is_map(spec)
            assert len(von_neumann_kernel(spec)) + report.dual_rank == spec.dim

    def test_json_shape(self):
        doc = is_map(span_e3_spec()).to_json_dict()
        assert doc["witness"] == [[3, 1]]
        assert doc["routes"] == {"kernel": False, "dual-rank": False,
                                 "open-subgroups": False}

    def test_seeded_sweep(self):
        for seed in range(60):
            p = 2 if seed % 2 == 0 else 3
            d = 2 + seed % 3
            spec = random_topology(seed, p, d)
            report = is_map(spec)
            assert len(report.kernel_basis) + report.dual_rank == d

    def test_seeded_specs_are_reproducible(self):
        assert random_topology(11, 3, 3) == random_topology(11, 3, 3)


MAX_DIM = {2: 6, 3: 4, 5: 3}


@st.composite
def topologies(draw):
    """Seeded, balls and elements specs at p in {2, 3, 5}. Elements specs
    take up to four base sets, each a fresh random set or a subset or
    superset of an earlier one, so nested and non-nested bases both occur."""
    p = draw(st.sampled_from(sorted(MAX_DIM)))
    d = draw(st.integers(1, MAX_DIM[p]))
    kind = draw(st.sampled_from(["seeded", "balls", "elements"]))
    if kind == "seeded":
        return random_topology(draw(st.integers(0, 10 ** 6)), p, d)
    if kind == "balls":
        if draw(st.booleans()):
            weights = [F(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(d)]
            norm = UltrametricProductNorm(p, d, weights)
        else:
            norm = CostCompletionNorm(random_cost(draw(st.integers(0, 10 ** 6)), p, d,
                                                  F(1, 10), F(1)))
        radii = draw(st.lists(st.fractions(F(1, 20), F(3)).filter(lambda r: r > 0),
                              min_size=1, max_size=3))
        return TopologySpec.from_balls(norm, radii)
    tr = Truncation(p, d)
    ranks = st.integers(0, tr.size - 1)
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        fresh = draw(st.lists(ranks, max_size=d))
        if sets and draw(st.booleans()):
            earlier = draw(st.sampled_from(sets))
            fresh = earlier + fresh if draw(st.booleans()) else earlier[:len(fresh)]
        sets.append(fresh)
    return TopologySpec.from_elements(p, d, [[tr.element_of(r) for r in u] for u in sets])


@settings(max_examples=200, deadline=None)
@given(spec=topologies())
def test_duality_matches_the_enumeration_oracles(spec):
    chars = brute_continuous_characters(spec)
    kernel = brute_von_neumann_kernel(spec)
    n_open, inter = brute_open_subgroups(spec)
    dual_rank = brute_rank([GroupElement.make(spec.prime, enumerate(c.coeffs, 1))
                            for c in chars], spec.prime)
    assert continuous_characters(spec) == chars
    assert von_neumann_kernel(spec) == kernel
    assert is_map(spec) == MapReport(
        spec.prime, spec.dim, not kernel, dual_rank, len(chars), n_open, kernel,
        kernel[0] if kernel else None, not kernel, dual_rank == spec.dim, inter == {0})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), p=st.sampled_from(sorted(MAX_DIM)), data=st.data())
def test_is_map_builds_the_base_spans_once(seed, p, data):
    spec = random_topology(seed, p, data.draw(st.integers(1, MAX_DIM[p])))
    calls = []
    spans = duality._base_spans
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(duality, "_base_spans", lambda *args: calls.append(args) or spans(*args))
        report = is_map(spec)
    assert len(calls) == 1
    kernel = brute_von_neumann_kernel(spec)
    n_open, inter = brute_open_subgroups(spec)
    assert report.kernel_basis == kernel
    assert report.witness == (kernel[0] if kernel else None)
    assert report.n_open_subgroups == n_open
    assert report.is_map == (inter == {0}) == (not kernel)


def test_route_three_reads_the_base_spans(monkeypatch):
    # a kernel route that wrongly claims separation is contradicted by route
    # three, which reads the spans of the base sets and not the kernel basis
    monkeypatch.setattr(duality, "_kernel_basis", lambda spans: ())
    with pytest.raises(InternalDisagreementError,
                       match="kernel True, dual rank False, open subgroups False"):
        is_map(span_e3_spec())


def standard_family(norm, m):
    members = tuple(GroupElement.unit(norm.prime, i) for i in range(1, m + 1))
    return IndependentFamily(
        members=members,
        indices=tuple(range(1, m + 1)),
        norms=tuple(norm.eval(g) for g in members),
        source=None)


class TestProductCoarserCheck:
    def test_ultrametric_closed_form(self):
        # weights 1/i make the minimum over {support meets F} land exactly
        # on the single member with the largest index in F
        norm = UltrametricProductNorm(2, 5)
        validate_axioms(norm)
        fam = standard_family(norm, 5)
        report = product_coarser_check(fam, norm, 5)
        assert report.ok
        assert report.table(1)[(1,)] == F(1)
        assert report.table(5)[(5,)] == F(1, 5)
        for t in range(1, 6):
            for Fset, v in report.table(t).items():
                assert v == F(1, max(Fset))

    def test_binding_threshold_case(self):
        # with eps = 1, only the first member has norm >= eps, and the
        # delta for F = {1} clears the 1/(4p) grid value
        norm = UltrametricProductNorm(2, 5)
        validate_axioms(norm)
        fam = standard_family(norm, 5)
        report = product_coarser_check(fam, norm, 5)
        eps = F(1)
        for Fset, v in report.table(5).items():
            if all(fam.norms[i - 1] >= eps for i in Fset):
                assert v >= F(1, 8)

    def test_monotone_in_prefix_and_F(self):
        norm = CostCompletionNorm(graded_cost(0, 2, 4))
        validate_axioms(norm)
        red = reduce_basis(OrderedBasis.standard(2, 4), norm)
        seq = select_null_subsequence(norm_sorted_span(norm), norm, red, 4)
        fam = extract_independent_family(seq, red, norm)
        report = product_coarser_check(fam, norm, 4)
        assert report.ok
        for t in range(1, 4):
            for Fset, v in report.table(t).items():
                assert report.table(t + 1)[Fset] <= v
        last = report.table(4)
        for Fset, v in last.items():
            for j in range(1, 5):
                if j not in Fset:
                    grown = tuple(sorted((*Fset, j)))
                    assert last[grown] <= v

    def test_dependent_family_reports_zero(self):
        norm = UltrametricProductNorm(2, 1)
        validate_axioms(norm)
        g = e(2, (1, 1))
        fam = IndependentFamily(members=(g, g), indices=(1, 1),
                                norms=(F(1), F(1)), source=None)
        report = product_coarser_check(fam, norm, 2)
        assert not report.ok
        assert report.violations[0] == {
            "check": "coarser", "span": 2, "F": [1], "value": "0/1"}

    def test_parameter_validation(self):
        norm = UltrametricProductNorm(2, 3)
        validate_axioms(norm)
        fam = standard_family(norm, 3)
        with pytest.raises(InputError, match="exceeds the family"):
            product_coarser_check(fam, norm, 4)
        with pytest.raises(InputError, match="positive"):
            product_coarser_check(fam, norm, 0)
        with pytest.raises(CapExceededError):
            product_coarser_check(fam, norm, 3, cap=7)

    def test_json_shape(self):
        norm = UltrametricProductNorm(2, 2)
        validate_axioms(norm)
        fam = standard_family(norm, 2)
        doc = product_coarser_check(fam, norm, 2).to_json_dict()
        assert doc["tables"]["2"] == {"1": "1/1", "2": "1/2", "1,2": "1/2"}
        assert doc["combos_checked"] == 1 + 3
