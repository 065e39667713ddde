"""Microbenchmarks of the rank-row kernels under the norm build and axiom scan,
of the seeded cost builders, of the shortest-path completion and the axiom
check (pair scan, generator certificate, and a refuted certificate followed by
the scan) and of the p = 2 certificate alone, its DP and a live Graev
norm's shared table (test_generator_certificate),
of the span kernel under every exhaustive word scan, of the prefix ranks,
the member word bound and the coarser tables, of the Graev value-table DP
and the ultrametric table build, of the norm-sorted span and
null-subsequence selection, on the standard original and a dense one,
of duality: is_map on two ultrametric balls (test_is_map_balls) and the
von Neumann kernel of a seeded topology (test_von_neumann_kernel_seeded),
of the support and strip build, of the reduction, the properties check and
the Graev norm build from a config on the Graev d=11 kernel norm, and of
the seeded cost draws and the value order at larger sizes
(test_cost_draws, test_value_order).

Run from the repository root: python -m pytest bench -q --benchmark-only

They time, they do not gate: no threshold is asserted, and the directory is
outside the tier-1 test paths.
"""

import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fpmap import norms  # noqa: E402
from fpmap.duality import (  # noqa: E402
    TopologySpec,
    is_map,
    random_topology,
    von_neumann_kernel,
)
from fpmap.extraction import (  # noqa: E402
    IndependentFamily,
    norm_sorted_span,
    product_coarser_check,
    select_null_subsequence,
)
from fpmap.fpcore import GroupElement, OrderedBasis, Truncation, rank, running_ranks  # noqa: E402
from fpmap.norms import (  # noqa: E402
    CostCompletionNorm,
    GraevBooleanNorm,
    UltrametricProductNorm,
    _cover_table,
    _is_own_completion,
    _shortest_path_values,
    graded_cost,
    norm_from_config,
    random_cost,
    random_metric_space,
    validate_axioms,
)
from fpmap.reduction import (  # noqa: E402
    check_member_word_bound,
    reduce_basis,
    verify_reduced_properties,
)

SHAPES = [(5, 5), (3, 8)]


def _warm(p, dim):
    # builds the half-digit tables and neg_perm outside the timed calls
    tr = Truncation(p, dim)
    tr.sub_rank_row(0)
    return tr, tr.size // 3


@pytest.mark.parametrize("p, dim", SHAPES)
def test_add_rank_row(benchmark, p, dim):
    tr, r = _warm(p, dim)
    benchmark(tr.add_rank_row, r)


@pytest.mark.parametrize("p, dim", SHAPES)
def test_sub_rank_row(benchmark, p, dim):
    tr, r = _warm(p, dim)
    benchmark(tr.sub_rank_row, r)


@pytest.mark.parametrize("p, dim", SHAPES)
def test_neg_perm(benchmark, p, dim):
    # a fresh Truncation per round, not the per-process one fpcore.truncation
    # shares, so the permutation and its half-digit tables are rebuilt
    benchmark(lambda: Truncation(p, dim).neg_perm)


def _graded():
    return CostCompletionNorm(graded_cost(0, 5, 5))


def _graev():
    return GraevBooleanNorm(random_metric_space(0, 12, 1, 3))


def _graev16():
    return GraevBooleanNorm(random_metric_space(0, 17, 1, 3))


@pytest.mark.parametrize("p, dim", SHAPES)
def test_graded_cost(benchmark, p, dim):
    benchmark(graded_cost, 0, p, dim)


@pytest.mark.parametrize("p, dim", SHAPES)
def test_random_cost(benchmark, p, dim):
    benchmark(random_cost, 0, p, dim, Fraction(1, 100), 1)


@pytest.mark.parametrize("make_cost", [lambda: graded_cost(0, 5, 5),
                                       lambda: random_cost(0, 3, 6, Fraction(1, 100), 1)],
                         ids=["graded-5-5", "wide-3-6"])
def test_shortest_path_values(benchmark, make_cost):
    # graded costs stop after the source row; costs in [1/100, 1] settle most
    # vertices, where the early stop does not pay
    cost = make_cost()
    cost.truncation.sub_rank_row(0)
    benchmark(_shortest_path_values, cost.truncation, cost)


def _ultrametric():
    return UltrametricProductNorm(2, 11)


@pytest.mark.parametrize("make_norm", [_graded, _graev, _graev16, _ultrametric],
                         ids=["graded-5-5", "graev-2-11", "graev-2-16", "ultrametric-2-11"])
def test_triangle_scan(benchmark, make_norm):
    # the whole validate_axioms call, on the table each norm built.
    # graded-5-5 takes the pair scan, the Graev norms the generator certificate
    # on the table their build made, and ultrametric-2-11 tries the
    # certificate, is refuted, then scans: the worst case of the work rule
    norm = make_norm()
    validate_axioms(norm)
    benchmark(validate_axioms, norm)


@pytest.mark.parametrize("make_norm, live, verdict", [
    (_graev16, False, True),
    (lambda: GraevBooleanNorm(random_metric_space(0, 21, 1, 3)), False, True),
    (_graev16, True, True),
    (lambda: UltrametricProductNorm(2, 16), True, False),
], ids=["graev-2-16", "graev-2-20", "graev-2-16-live", "ultrametric-2-16"])
def test_generator_certificate(benchmark, make_norm, live, verdict):
    # the p = 2 certificate alone: one Graev cover DP on the table's own
    # values on E, which the Graev norms pass and the ultrametric one fails.
    # A Graev norm that is still alive hands its build's table to the
    # certificate through the memo, so graev-2-16-live times that hit; the
    # other Graev ids time the DP on the values of a norm already dropped
    norm = make_norm()
    tr, nums = norm.truncation, norm._table[0]
    if not live:
        nums = nums.copy()
        del norm
        assert norms._last_cover[1]() is None
    assert benchmark(_is_own_completion, tr, nums) == verdict


@pytest.fixture(scope="module", params=[_graded, _graev], ids=["graded-5-5", "graev-2-11"])
def reduced_norm(request):
    norm = request.param()
    validate_axioms(norm)  # reduce_basis reads only a validated norm
    return norm, reduce_basis(OrderedBasis.standard(norm.prime, norm.dim), norm)


def test_span_ranks(benchmark, reduced_norm):
    # a cold build: a repeated tuple is answered from the one-entry memo, so
    # each round takes a fresh truncation, its tables warmed untimed
    norm, reduced = reduced_norm
    benchmark.pedantic(lambda tr: tr.span_ranks(reduced.reduced.elems), rounds=100,
                       setup=lambda: ((_warm(norm.prime, norm.dim)[0],), {}))


def test_span_values(benchmark, reduced_norm):
    # the span's ranks (from the memo) and one gather from the table
    norm, reduced = reduced_norm
    benchmark(lambda elems: norm.values_of(norm.truncation.span_ranks(elems)),
              reduced.reduced.elems)


def test_running_ranks(benchmark):
    # d = 11: the prefix ranks of a reduced basis, reduced[0], original[0], ...
    norm = _graev()
    validate_axioms(norm)
    reduced = reduce_basis(OrderedBasis.standard(2, 11), norm)
    benchmark(running_ranks, [g for pair in zip(reduced.reduced, reduced.original)
                              for g in pair])


def test_check_member_word_bound(benchmark, reduced_norm):
    norm, reduced = reduced_norm
    benchmark(check_member_word_bound, reduced, norm)


def test_product_coarser_check(benchmark, reduced_norm):
    # the first five reduced elements as the family, m = 5
    norm, reduced = reduced_norm
    members = reduced.reduced.elems[:5]
    family = IndependentFamily(members, tuple(range(1, 6)), tuple(map(norm.eval, members)), None)
    benchmark(product_coarser_check, family, norm, 5)


@pytest.mark.parametrize("make_cost", [lambda: graded_cost(0, 5, 5),
                                       lambda: random_cost(0, 2, 16, Fraction(1, 100), 1)],
                         ids=["graded-5-5", "random-2-16"])
def test_cost_draws(benchmark, make_cost):
    # the whole cost build: 1562 and 65535 draws, one per pair {g, -g}
    benchmark(make_cost)


@pytest.mark.parametrize("p, dim", [(2, 16), (5, 6)])
def test_value_order(benchmark, p, dim):
    # norm_sorted_span of a graded norm with its kept order dropped, so each
    # round gathers the table and orders it by (value, rank)
    norm = CostCompletionNorm(graded_cost(0, p, dim))

    def cold():
        norm.__dict__.pop("order", None)  # the cached_property's kept value
        return (norm,), {}

    benchmark.pedantic(norm_sorted_span, setup=cold, rounds=100)


@pytest.mark.parametrize("p, dim", [(2, 16), (5, 6)])
def test_word_layout(benchmark, p, dim):
    # a fresh Truncation per round, not the per-process one fpcore.truncation
    # shares, so its support and strip are rebuilt
    def build():
        tr = Truncation(p, dim)
        return tr.support, tr.strip

    benchmark(build)


def _validated_graev():
    norm = _graev()
    validate_axioms(norm)
    return norm


def test_reduce_basis(benchmark):
    # p=2, dim 11: the Graev kernel norm, built and validated untimed
    norm = _validated_graev()
    benchmark(reduce_basis, OrderedBasis.standard(2, 11), norm)


def test_verify_reduced_properties(benchmark):
    # the span memo holds the reduced basis's span, as in a run
    norm = _validated_graev()
    reduced = reduce_basis(OrderedBasis.standard(2, 11), norm)
    benchmark(verify_reduced_properties, reduced, norm)


@pytest.mark.parametrize("dim", [11, 16])
def test_graev_build(benchmark, dim):
    # dim 11 is a graev-p2-shaped descriptor: 12 points, distances as
    # "num/den" strings on a 60-step grid in [1/100000, 1/50000]
    space = random_metric_space(0, dim + 1, Fraction(1, 100000), Fraction(1, 50000))
    cfg = {"kind": "graev_boolean", "prime": 2, "dim": dim, "space": space.to_json_dict()}
    benchmark(norm_from_config, cfg)


@pytest.mark.parametrize("dim", [11, 16])
def test_graev_table(benchmark, dim):
    # the table the norm builds at construction, all 2^dim subsets at once
    space = random_metric_space(0, dim + 1, 1, 3)
    pts = space.nonbase[::-1]
    benchmark(_cover_table, space.nums[np.ix_(pts, [*pts, space.basepoint])], space.den)


def test_ultrametric_table(benchmark):
    # p=2, dim 16: the whole construction, whose table is d integer passes
    benchmark(UltrametricProductNorm, 2, 16)


def test_select_null_subsequence(benchmark):
    norm = _graded()
    validate_axioms(norm)
    reduced = reduce_basis(OrderedBasis.standard(norm.prime, norm.dim), norm)
    benchmark(select_null_subsequence, norm_sorted_span(norm), norm, reduced, 5)


def _graev_near_base():
    # every point within 1/(4p)^5 of the basepoint, so a length-5 chain exists
    return GraevBooleanNorm(random_metric_space(0, 12, Fraction(1, 10 ** 6), Fraction(3, 10 ** 6)))


@pytest.mark.parametrize("make_norm", [_graded, _graev_near_base],
                         ids=["graded-5-5", "graev-2-11"])
def test_sorted_span_and_selection(benchmark, make_norm):
    # the two calls of the selection stage, on ranks from the norm's table
    norm = make_norm()
    validate_axioms(norm)
    reduced = reduce_basis(OrderedBasis.standard(norm.prime, norm.dim), norm)
    benchmark(lambda: select_null_subsequence(norm_sorted_span(norm), norm, reduced, 5))


def test_selection_on_a_dense_original(benchmark):
    # p=2, dim 12, an original basis of random dense rows: top positions come
    # from one inverse of the original's span ranks, rebuilt each round (the
    # one-entry span memo is cleared untimed)
    norm = CostCompletionNorm(graded_cost(0, 2, 12))
    validate_axioms(norm)
    rng = Random(0)
    elems = []
    while len(elems) < 12:
        g = GroupElement.make(2, [(i, rng.randrange(2)) for i in range(1, 13)])
        if rank(elems + [g]) == len(elems) + 1:
            elems.append(g)
    reduced = reduce_basis(OrderedBasis(norm.prime, tuple(elems)), norm)
    ranks = norm_sorted_span(norm)

    def cold():
        norm.truncation.span_ranks(())
        return (ranks, norm, reduced, 5), {}

    benchmark.pedantic(select_null_subsequence, setup=cold, rounds=50)


def test_is_map_balls(benchmark):
    # p=2, dim 13: two nested ball subgroups of the default ultrametric norm
    spec = TopologySpec.from_balls(UltrametricProductNorm(2, 13), [Fraction(1, 4), Fraction(1, 9)])
    benchmark(is_map, spec)


def test_von_neumann_kernel_seeded(benchmark):
    # p=3, dim 8: three base sets of 2187, 282 and 6561 ranks
    spec = random_topology(10, 3, 8)
    benchmark(von_neumann_kernel, spec)
