"""The two pruned quadratic loops against their unpruned forms.

_shortest_path_values stops Dijkstra once no unsettled distance can shrink,
and validate_axioms sums only the pairs with N(g) + N(h) < max N. Both must
give exactly what the full loops in tests/oracles.py give: the same distances,
and the same triangle violations in the same (g, h) order.
"""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_cost_completion, full_dijkstra, row_scan_triangles
from fpmap import jsonio
from fpmap.fpcore import Truncation
from fpmap.norms import (
    _INT64_MAX,
    _shortest_path_values,
    CostCompletionNorm,
    GraevBooleanNorm,
    TableNorm,
    UltrametricProductNorm,
    graded_cost,
    random_cost,
    random_metric_space,
    validate_axioms,
)

# the cost range of the bigden-p2 benchmark configs: narrow, large denominators
NARROW = (F(1, 10000019), F(1, 9999991))
WIDE = (F(1, 100), F(1))

# seed-0 WIDE costs: the rows the loop builds and the sha256 of its
# distances' bytes and denominator, as the loop that allocated size-long
# temporaries per row gave them
WIDE_SEED0 = [
    (2, 16, 1253, "9335345e802c771acdbc5bfd0be63f2a860ea851cd6f4230af0282c7861f4b25"),
    (3, 10, 1136, "300020c5c534476aa1ee62eedae5651691aed498e943e2290a26b26e1863aa14"),
    (5, 7, 1089, "b4c5d8aadee31331b90a66055f9028407a62751901e4cd06f86e6621a5fcbb2c"),
]

# rows and their minor page faults around one completion, in a new interpreter:
# this process has freed arrays of every size already, and glibc's choice to
# map a fresh size-long block per row depends on that history
FAULTS_SCRIPT = """
import resource
from fractions import Fraction as F
from fpmap.fpcore import Truncation
from fpmap.norms import _shortest_path_values, random_cost
cost = random_cost(0, 2, 16, F(1, 100), F(1))
rows = []
row = Truncation.sub_rank_row
Truncation.sub_rank_row = lambda self, r, *args: rows.append(r) or row(self, r, *args)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_shortest_path_values(cost.truncation, cost)
print(len(rows), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.fixture
def rows(monkeypatch):
    """Records the rank of every sub_rank_row call."""
    calls = []
    original = Truncation.sub_rank_row

    def counting(self, r, *args):
        calls.append(r)
        return original(self, r, *args)

    monkeypatch.setattr(Truncation, "sub_rank_row", counting)
    return calls


def completion_matches_oracles(cost, *, brute=True):
    tr = cost.truncation
    dist, den = _shortest_path_values(tr, cost)
    full, full_den = full_dijkstra(tr, cost)
    assert den == full_den
    assert dist.dtype == full.dtype
    assert dist.tolist() == full.tolist()
    if brute:
        assert [F(int(x), den) for x in dist] == brute_cost_completion(cost)


class TestDijkstraEarlyStop:
    # the source is settled from the direct edge costs without a row, so
    # a cost that stops after the source builds none
    @pytest.mark.parametrize("p, dim", [(2, 3), (3, 2), (5, 2)])
    def test_graded_matches_oracles_after_one_row(self, rows, p, dim):
        cost = graded_cost(0, p, dim)
        completion_matches_oracles(cost)
        rows.clear()
        _shortest_path_values(cost.truncation, cost)
        assert rows == []

    @pytest.mark.parametrize("p, dim", [(2, 9), (3, 5), (5, 4)])
    def test_one_row_on_larger_graded_and_narrow_costs(self, rows, p, dim):
        for cost in (graded_cost(1, p, dim), random_cost(1, p, dim, *NARROW)):
            rows.clear()
            _shortest_path_values(cost.truncation, cost)
            assert rows == []

    @pytest.mark.parametrize("low, high", [NARROW, WIDE], ids=["narrow", "wide"])
    @pytest.mark.parametrize("seed, p, dim", [(0, 2, 3), (1, 3, 2), (2, 5, 2), (3, 2, 4)])
    def test_seeded_costs_match_oracles(self, seed, p, dim, low, high):
        completion_matches_oracles(random_cost(seed, p, dim, low, high))

    def test_costs_in_c_to_2c_stop_at_the_bound(self, rows):
        # the smallest cost plus itself equals the largest: d + w_min >= max
        # holds with equality right after the source row
        cost = random_cost(3, 3, 3, F(1), F(2), steps=1)
        values = {cost.value_of_rank(r) for r in range(1, cost.truncation.size)}
        assert values == {F(1), F(2)}
        completion_matches_oracles(cost, brute=False)
        rows.clear()
        _shortest_path_values(cost.truncation, cost)
        assert rows == []

    def test_wide_costs_need_more_than_one_row(self, rows):
        cost = random_cost(0, 3, 4, *WIDE)
        _shortest_path_values(cost.truncation, cost)
        assert 1 < len(rows) < cost.truncation.size
        assert 0 not in rows

    @pytest.mark.parametrize("seed, p, dim", [(0, 2, 5), (1, 3, 3), (2, 5, 2)])
    def test_costs_beyond_c_to_2c_settle_more_than_the_source(self, rows, seed, p, dim):
        # values in [1, 3]: the smallest twice over does not reach the
        # largest, so rows follow the source, and none is the source's
        cost = random_cost(seed, p, dim, F(1), F(3), steps=2)
        values = {cost.value_of_rank(r) for r in range(1, cost.truncation.size)}
        assert 2 * min(values) < max(values)
        completion_matches_oracles(cost)
        rows.clear()
        _shortest_path_values(cost.truncation, cost)
        assert rows and 0 not in rows

    @pytest.mark.parametrize("low, high", [NARROW, WIDE], ids=["narrow", "wide"])
    def test_python_int_storage(self, low, high):
        big = 1 << 70
        cost = random_cost(5, 3, 2, low * big, high * big)
        assert _shortest_path_values(cost.truncation, cost)[0].dtype == object
        completion_matches_oracles(cost)

    @pytest.mark.parametrize("scale, dtype", [(1, np.int64), (1 << 70, object)],
                             ids=["int64", "object"])
    @pytest.mark.parametrize("p, dim, n_rows", [(2, 5, 26), (3, 3, 14), (5, 2, 14)])
    def test_each_rank_is_settled_once(self, rows, p, dim, n_rows, scale, dtype):
        # the seed-p WIDE cost scaled by 2^70 keeps the rows and takes Python ints
        cost = random_cost(p, p, dim, WIDE[0] * scale, WIDE[1] * scale)
        completion_matches_oracles(cost)
        rows.clear()
        assert _shortest_path_values(cost.truncation, cost)[0].dtype == dtype
        assert len(rows) == len(set(rows)) == n_rows
        assert 0 not in rows

    @pytest.mark.parametrize("p, dim, n_rows, digest", WIDE_SEED0,
                             ids=[f"p{p}-d{d}" for p, d, _, _ in WIDE_SEED0])
    def test_wide_seed0_costs_keep_their_rows_and_distances(self, rows, p, dim, n_rows, digest):
        cost = random_cost(0, p, dim, *WIDE)
        dist, den = _shortest_path_values(cost.truncation, cost)
        assert len(rows) == len(set(rows)) == n_rows
        assert hashlib.sha256(dist.tobytes() + str(den).encode()).hexdigest() == digest

    def test_rows_are_written_into_buffers(self):
        # about 224 faults a row when every row maps fresh size-long temporaries
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
        done = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        n_rows, faults = map(int, done.stdout.split())
        assert n_rows == 1253
        assert faults <= 8 * n_rows

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_costs_match_full_loop(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        dim = data.draw(st.integers(1, 5).filter(lambda d: p ** d <= 729))
        low = F(1, data.draw(st.integers(1, 100)))
        high = low * F(data.draw(st.integers(1, 300)), 100) + low
        steps = data.draw(st.integers(1, 60))
        completion_matches_oracles(
            random_cost(data.draw(st.integers(0, 999)), p, dim, low, high, steps=steps),
            brute=False)


def table_norm(p, dim, values):
    """TableNorm from a full list of values by rank (rank 0 included)."""
    tr = Truncation(p, dim)
    return TableNorm(p, dim, [(tr.element_of(r), v) for r, v in enumerate(values)])


def report_triangles(report, tr):
    """(g, h, sum) ranks of the report's triangle violations, in report order."""
    p = tr.prime.p
    return [tuple(tr.rank_of(jsonio.element_from_pairs(p, v[k])) for k in ("g", "h", "sum"))
            for v in report.violations if v["axiom"] == 3]


def scan_matches_row_scan(norm, threads=1):
    report = validate_axioms(norm, threads=threads)
    tr = norm.truncation
    expected = row_scan_triangles(tr, norm._table[0])
    assert report_triangles(report, tr) == expected
    assert report.pairs_checked == tr.size * (tr.size + 1) // 2
    return report, expected


def planted_values(seed, size, lo, spread, planted, scale=1, den=1):
    """Values in [lo, lo + spread] with ``planted`` ranks raised up to 3x the
    top, so that sums landing on them break the triangle inequality."""
    rng = Random(seed)
    values = [0] + [rng.randint(lo, lo + spread) for _ in range(1, size)]
    for _ in range(planted):
        values[rng.randrange(1, size)] = rng.randint(2 * lo, 3 * (lo + spread) + 1)
    return [F(v * scale, den) for v in values]


@st.composite
def family_norms(draw):
    """A validated-norm family drawn at p in {2, 3, 5}, dim <= 5."""
    kind = draw(st.sampled_from(["ultrametric", "graev", "cost", "graded"]))
    seed = draw(st.integers(0, 999))
    if kind == "graev":
        return GraevBooleanNorm(random_metric_space(seed, draw(st.integers(2, 8)), 1, 4))
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(1, 5).filter(lambda d: p ** d <= 625))
    if kind == "ultrametric":
        weights = [F(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(dim)]
        return UltrametricProductNorm(p, dim, weights)
    if kind == "graded":
        return CostCompletionNorm(graded_cost(seed, p, dim))
    return CostCompletionNorm(random_cost(seed, p, dim, *draw(st.sampled_from([NARROW, WIDE]))))


class TestBoundedTriangleScan:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_planted_tables_match_row_scan(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        dim = data.draw(st.integers(1, 5).filter(lambda d: p ** d <= 1024))
        scale, den = data.draw(st.sampled_from([(1, 1), (1, 7), (1 << 70, 3)]))
        values = planted_values(data.draw(st.integers(0, 2 ** 16)), p ** dim,
                                data.draw(st.integers(0, 10)), data.draw(st.integers(0, 20)),
                                data.draw(st.integers(0, 6)), scale, den)
        scan_matches_row_scan(table_norm(p, dim, values), data.draw(st.sampled_from([1, 2])))

    @given(family_norms(), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_norm_families_match_row_scan(self, norm, threads):
        report, expected = scan_matches_row_scan(norm, threads)
        assert report.ok and expected == []

    @given(family_norms(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_family_tables_with_planted_violations(self, norm, data):
        validate_axioms(norm)
        nums, den = norm._table
        rng = Random(data.draw(st.integers(0, 2 ** 16)))
        values = [F(int(x), den) for x in nums]
        for _ in range(data.draw(st.integers(1, 4))):
            r = rng.randrange(1, len(values))
            values[r] *= rng.choice([F(3, 2), 2, 5])
        planted = table_norm(norm.prime.p, norm.dim, values)
        scan_matches_row_scan(planted, data.draw(st.sampled_from([1, 2])))

    def test_tight_bound(self):
        # N(e2) + N(e1) = M - 1 < M = N(e1 + e2): the only candidate pair of
        # nonzero elements sits one below the bound and violates
        M = 1000
        report, expected = scan_matches_row_scan(table_norm(2, 2, [0, 1, M - 2, M]))
        assert expected == [(1, 2, 3)]

    @pytest.mark.parametrize("big, dtype", [(_INT64_MAX // 2, np.int64),
                                            (_INT64_MAX // 2 + 1, object)])
    def test_int64_edge(self, big, dtype):
        rng = Random(7)
        choices = [1, big // 2 - 1, big // 2, big // 2 + 1, big - 1, big]
        values = [0] + [rng.choice(choices) for _ in range(1, 27)]
        norm = table_norm(3, 3, [F(v) for v in values])
        report, expected = scan_matches_row_scan(norm)
        assert norm._table[0].dtype == dtype
        assert expected

    def test_python_int_storage_at_p5(self):
        values = planted_values(11, 625, 3, 6, 8, scale=1 << 70, den=11)
        norm = table_norm(5, 4, values)
        report, expected = scan_matches_row_scan(norm)
        assert norm._table[0].dtype == object
        assert expected

    @pytest.mark.parametrize("p, dim", [(5, 5), (3, 6), (2, 11)])
    def test_graded_and_planted_at_benchmark_sizes(self, p, dim):
        scan_matches_row_scan(CostCompletionNorm(graded_cost(0, p, dim)))
        report, expected = scan_matches_row_scan(
            table_norm(p, dim, planted_values(dim, p ** dim, 10, 5, 3)), threads=2)
        assert expected

    @pytest.mark.parametrize("zero_value", [-2, 0, 3])
    def test_the_zero_element_against_the_row_scan(self, zero_value):
        # the scan skips the pairs of 0 only when N(0) >= 0; with N(0) < 0
        # every h breaks N(0 + h) <= N(0) + N(h)
        norm = table_norm(3, 3, planted_values(5, 27, 4, 6, 2))
        nums, den = norm._table
        nums = nums.copy()
        nums[0] = zero_value * den
        norm._table = (nums, den)
        report, expected = scan_matches_row_scan(norm)
        assert any(g == 0 for g, _, _ in expected) == (zero_value < 0)

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_threads_give_the_same_report(self, threads):
        norm = table_norm(3, 4, planted_values(2, 81, 1, 8, 10))
        one = validate_axioms(norm, threads=1).to_json_dict()
        assert validate_axioms(norm, threads=threads).to_json_dict() == one
        assert not one["ok"]
