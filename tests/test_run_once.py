"""Each run's work done once, against the references in tests/oracles.py.

Prefix ranks come from one sparse forward elimination (running_ranks), the
scans that read one span share a single build (Truncation.span_ranks keeps
the last one), the triangle scan steps on Python scalars, and the coarser
tables take delta_F as the least per-member minimum over F. The CLI applies
the environment's caps to the run without echoing them, and checks modulus's
m before it builds anything.
"""

import json
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_coarser, brute_member_word_bound, brute_rank, row_scan_triangles
from fpmap import jsonio
from fpmap.cli import main
from fpmap.errors import CapExceededError, InputError
from fpmap.extraction import IndependentFamily, independence_modulus, product_coarser_check
from fpmap.fpcore import (
    GroupElement,
    OrderedBasis,
    Truncation,
    as_prime,
    enumerate_span,
    rank,
    running_ranks,
)
from fpmap.norms import (
    CostCompletionNorm,
    TableNorm,
    UltrametricProductNorm,
    graded_cost,
    validate_axioms,
)
from fpmap.pipeline import RunConfig
from fpmap.reduction import (
    ReducedBasis,
    ReductionStep,
    check_member_word_bound,
    check_pair_domination,
    reduce_basis,
    reduced_basis_from_json,
    verify_reduced_properties,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def extensions(monkeypatch):
    """Records the element of every extend_span call: one per element of
    each span built."""
    calls = []
    original = Truncation.extend_span

    def counting(self, ranks, g):
        calls.append(g)
        return original(self, ranks, g)

    monkeypatch.setattr(Truncation, "extend_span", counting)
    return calls


@st.composite
def element_lists(draw):
    """Elements over p in {2, 3, 5, 7}, sparse and with unreduced or zero
    coefficients, mixed with repeats, multiples and sums of earlier ones."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    top = draw(st.integers(1, 9))
    elems = []
    for _ in range(draw(st.integers(1, 10))):
        how = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "multiple", "sum"]
                                   if elems else ["fresh", "zero"]))
        if how == "fresh":
            pairs = [(i, draw(st.integers(-p, 2 * p)))
                     for i in draw(st.sets(st.integers(1, top), max_size=top))]
            g = GroupElement.make(p, pairs)
        elif how == "zero":
            g = GroupElement.zero(p)
        else:
            a = elems[draw(st.integers(0, len(elems) - 1))]
            b = elems[draw(st.integers(0, len(elems) - 1))]
            g = {"repeat": a, "multiple": a.smul(draw(st.integers(0, p))),
                 "sum": a + b.smul(draw(st.integers(1, p - 1)))}[how]
        elems.append(g)
    return p, elems


class TestRunningRanks:
    @given(element_lists())
    @settings(max_examples=200, deadline=None)
    def test_every_prefix_matches_the_dense_elimination(self, case):
        p, elems = case
        got = running_ranks(elems)
        assert got == [brute_rank(elems[:n]) for n in range(1, len(elems) + 1)]
        assert rank(elems, p) == got[-1]

    def test_dependent_repeated_and_zero_inputs(self):
        e = lambda p, pairs: GroupElement.make(p, pairs)  # noqa: E731
        a, b = e(7, [(1, 3), (4, 9)]), e(7, [(2, 1), (4, 5)])
        elems = [GroupElement.zero(7), a, a, a.smul(5), b, a + b.smul(6), e(7, [(4, 7), (3, 2)])]
        assert running_ranks(elems) == [0, 1, 1, 1, 2, 2, 3]
        assert running_ranks(elems) == [brute_rank(elems[:n]) for n in range(1, 8)]

    def test_empty_and_mismatched_primes(self):
        assert running_ranks([]) == [] and rank([]) == 0 and rank([], 5) == 0
        with pytest.raises(InputError, match="mismatched primes"):
            running_ranks([GroupElement.unit(2, 1), GroupElement.unit(3, 1)])
        with pytest.raises(InputError, match="mismatched primes"):
            running_ranks([GroupElement.unit(2, 1)], 3)


def planted(basis, norm):
    """The basis itself posing as its own reduction."""
    steps = tuple(ReductionStep(n, (0,) * (n - 1) + (1,), g, norm.eval(g), 1, None)
                  for n, g in enumerate(basis, start=1))
    return ReducedBasis(basis, basis, steps)


def random_basis(p, dim, rng):
    """Unit upper-triangular rows: independent, with dense words."""
    return OrderedBasis(as_prime(p), tuple(
        GroupElement.make(p, [(i, 1)] + [(j, rng.randrange(p)) for j in range(i + 1, dim + 1)])
        for i in range(1, dim + 1)))


class TestPrefixRanks:
    def reduced(self):
        norm = CostCompletionNorm(graded_cost(0, 3, 4))
        validate_axioms(norm)
        return reduce_basis(OrderedBasis.standard(3, 4), norm)

    def test_prefix_ranks_match_the_dense_elimination(self):
        for reduced in (self.reduced(), planted(random_basis(5, 4, Random(2)),
                                                 UltrametricProductNorm(5, 4))):
            expected = tuple(brute_rank(reduced.reduced.elems[:n] + reduced.original.elems[:n])
                             for n in range(1, len(reduced) + 1))
            assert reduced.prefix_ranks == expected == (1, 2, 3, 4)

    def test_broken_prefix_from_json_is_rejected(self):
        doc = self.reduced().to_json_dict()
        # swapping the first two reduced elements keeps the total span but
        # breaks the first prefix
        doc["reduced"][:2] = doc["reduced"][1::-1]
        for n, step in enumerate(doc["steps"][:2], start=1):
            step["element"] = doc["reduced"][n - 1]
        with pytest.raises(InputError, match="prefix spans of length 1 differ"):
            reduced_basis_from_json(doc)


class TestSpanMemo:
    def test_same_tuple_builds_no_second_row(self, extensions):
        tr = Truncation(3, 4)
        a, b = tr.element_of(5), tr.element_of(40)
        first = tr.span_ranks([a, b])
        assert len(extensions) == 2
        # an equal tuple of other element objects hits the memo too
        again = tr.span_ranks((tr.element_of(5), tr.element_of(40)))
        assert again is first and len(extensions) == 2
        assert first.tolist() == [tr.rank_of(w) for w in enumerate_span([a, b])]

    def test_the_array_is_read_only(self):
        ranks = Truncation(2, 3).span_ranks([GroupElement.unit(2, 1)])
        assert not ranks.flags.writeable
        with pytest.raises(ValueError):
            ranks[0] = 1

    def test_a_different_tuple_is_rebuilt(self, extensions):
        tr = Truncation(5, 3)
        a, b = tr.element_of(7), tr.element_of(31)
        ab = tr.span_ranks([a, b])
        ba = tr.span_ranks([b, a])
        assert len(extensions) == 4
        assert ba.tolist() == [tr.rank_of(w) for w in enumerate_span([b, a])]
        assert tr.span_ranks([a, b]).tolist() == ab.tolist() and len(extensions) == 6

    def test_the_checkers_share_one_span(self, extensions):
        norm = CostCompletionNorm(graded_cost(1, 3, 4))
        validate_axioms(norm)
        reduced = reduce_basis(OrderedBasis.standard(3, 4), norm)
        extensions.clear()
        # reduce_basis leaves the reduced basis's span as the last one built
        verify_reduced_properties(reduced, norm)
        check_member_word_bound(reduced, norm)
        check_pair_domination(reduced, norm)
        assert extensions == []
        fresh = Truncation(3, 4).span_ranks(reduced.reduced.elems)
        assert norm.truncation.span_ranks(reduced.reduced.elems).tolist() == fresh.tolist()

    def test_modulus_and_coarser_share_one_span(self, extensions):
        norm = CostCompletionNorm(graded_cost(2, 2, 5))
        validate_axioms(norm)
        members = OrderedBasis.standard(2, 5).elems[:3]
        family = IndependentFamily(members, (1, 2, 3), tuple(map(norm.eval, members)), None)
        extensions.clear()
        independence_modulus(family, norm, 1, 3)
        product_coarser_check(family, norm, 3)
        assert len(extensions) == 3


def table_norm(p, dim, values):
    tr = Truncation(p, dim)
    return TableNorm(p, dim, [(tr.element_of(r), v) for r, v in enumerate(values)])


def injected_values(seed, size, scale=1):
    """Values in [10, 15] times scale, with a few ranks raised to up to three
    times the top, so that sums landing on them break the triangle inequality."""
    rng = Random(seed)
    values = [0] + [rng.randint(10, 15) for _ in range(1, size)]
    for _ in range(4):
        values[rng.randrange(1, size)] = rng.randint(20, 46)
    return [F(v * scale) for v in values]


class TestLeanTriangleLoop:
    @pytest.mark.parametrize("p, dim, scale, dtype", [
        (2, 7, 1, "int64"), (5, 3, 1, "int64"), (3, 4, 1 << 70, "object"),
        (2, 5, 1 << 70, "object")])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_injected_violations_match_the_row_scan(self, p, dim, scale, dtype, threads):
        for seed in range(3):
            norm = table_norm(p, dim, injected_values(seed, p ** dim, scale))
            report = validate_axioms(norm, threads=threads)
            tr = norm._tr
            assert norm._table[0].dtype == dtype
            got = [tuple(tr.rank_of(jsonio.element_from_pairs(p, v[k])) for k in ("g", "h", "sum"))
                   for v in report.violations if v["axiom"] == 3]
            expected = row_scan_triangles(tr, norm._table[0])
            assert got == expected and expected

    def test_the_norm_keeps_its_truncation(self):
        norm = CostCompletionNorm(graded_cost(0, 5, 3))
        tr = norm._tr
        halves, neg = tr._halves, tr.neg_perm
        assert halves is not None
        validate_axioms(norm)
        assert norm._tr is tr and tr._halves is halves and tr.neg_perm is neg

    def test_the_cap_still_holds_for_a_built_truncation(self):
        norm = CostCompletionNorm(graded_cost(0, 2, 4))
        with pytest.raises(CapExceededError, match="truncation has 16 elements, above cap 15"):
            validate_axioms(norm, cap=15)


class TestAgainstNestedLoops:
    def test_member_bound_on_a_sample_with_violations(self):
        violating = 0
        for seed in range(12):
            rng = Random(seed)
            p, dim = rng.choice([(2, 4), (3, 3), (5, 3)])
            norm = UltrametricProductNorm(p, dim, [F(1, rng.randrange(1, 6)) for _ in range(dim)])
            validate_axioms(norm)
            reduced = planted(random_basis(p, dim, rng), norm)
            got = check_member_word_bound(reduced, norm, max_tuple=dim).to_json_dict()
            assert got == brute_member_word_bound(reduced, norm, max_tuple=dim).to_json_dict()
            violating += bool(got["violations"])
        assert violating

    def test_coarser_on_a_sample_with_violations(self):
        # unvalidated tables with zero values and possibly dependent members
        violating = 0
        for seed in range(12):
            rng = Random(seed)
            p, dim = rng.choice([(2, 4), (3, 3), (5, 2)])
            tr = Truncation(p, dim)
            norm = TableNorm(p, dim, [(tr.element_of(r), F(rng.randrange(4), rng.randrange(1, 9)))
                                      for r in range(1, tr.size)])
            members = tuple(tr.element_of(rng.randrange(1, tr.size)) for _ in range(3))
            family = IndependentFamily(members, (1, 2, 3), tuple(map(norm.eval, members)), None)
            for m in (1, 2, 3):
                got = product_coarser_check(family, norm, m).to_json_dict()
                assert got == brute_coarser(family, norm, m).to_json_dict()
                violating += bool(got["violations"])
        assert violating


def graded_run(caps=None):
    doc = {"prime": 2, "dim": 4,
           "norm": {"kind": "cost_completion", "prime": 2, "dim": 4, "seed": 0, "graded": True},
           "limits": {"l": 1, "m": 4}}
    return doc if caps is None else dict(doc, caps=caps)


class TestEnvCapsLeaveTheEcho:
    def test_default_env_caps_keep_the_report_bytes(self, tmp_path, monkeypatch):
        run = write_json(tmp_path / "run.json", graded_run())
        assert main(["run", "--config", run, "--out", str(tmp_path / "a.json")]) == 0
        monkeypatch.setenv("FPMAP_ENUM_CAP", "10000000")
        monkeypatch.setenv("FPMAP_MATCHING_CAP", "12")
        assert main(["run", "--config", run, "--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_a_lower_env_enum_cap_still_exits_three(self, tmp_path, monkeypatch, capsys):
        run = write_json(tmp_path / "run.json", graded_run(caps={"enum": 1000}))
        monkeypatch.setenv("FPMAP_ENUM_CAP", "15")
        assert main(["run", "--config", run]) == 3
        assert "above cap 15" in capsys.readouterr().err

    def test_a_config_caps_key_is_still_echoed(self, tmp_path, monkeypatch, capsys):
        run = write_json(tmp_path / "run.json", graded_run(caps={"enum": 5000}))
        for env in (None, "10000000"):
            if env is not None:
                monkeypatch.setenv("FPMAP_ENUM_CAP", env)
            assert main(["run", "--config", run]) == 0
            assert json.loads(capsys.readouterr().out)["config"]["caps"] == {"enum": 5000}


class TestModulusM:
    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_exits_two_before_the_build(self, tmp_path, monkeypatch, capsys, m):
        norm = write_json(tmp_path / "norm.json", graded_run()["norm"])
        built = []
        monkeypatch.setattr(RunConfig, "build_norm", lambda self: built.append(self))
        assert main(["modulus", "--config", norm, "--l", "1", "--m", str(m)]) == 2
        assert capsys.readouterr().err == f"error: m must be a positive integer, got {m}\n"
        assert built == []
