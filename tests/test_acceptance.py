"""Acceptance battery: one test per shipped guarantee, each ending in a
single PASS line. Ordered a01..a10; run with -v for the per-test verdicts.

The seeded corpus used throughout (100 cost-completion norms, p alternating
2/3, dim cycling 4/5/6, graded value bands) is the reference workload for
the full chain: reduce, select, extract, modulus, product tables.
"""

import time
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from oracles import brute_graev, enumerate_span
from fpmap import jsonio
from fpmap.duality import TopologySpec, boolean_counterexample, is_map, random_topology
from fpmap.extraction import (
    extract_independent_family,
    independence_modulus,
    norm_sorted_span,
    product_coarser_check,
    select_null_subsequence,
    threshold,
)
from fpmap.fpcore import GroupElement, OrderedBasis, Truncation, as_prime
from fpmap.norms import (
    CostCompletionNorm,
    GraevBooleanNorm,
    UltrametricProductNorm,
    graded_cost,
    random_metric_space,
    validate_axioms,
)
from fpmap.pipeline import RunConfig, run_pipeline
from fpmap.reduction import (
    check_member_word_bound,
    check_pair_domination,
    reduce_basis,
    verify_reduced_properties,
)

CORPUS = [(i, 2 if i % 2 == 0 else 3, 4 + (i // 2) % 3) for i in range(100)]


def corpus_config(seed, p, d):
    return {
        "prime": p,
        "dim": d,
        "norm": {"kind": "cost_completion", "prime": p, "dim": d,
                 "seed": seed, "graded": True},
        "limits": {"l": 1, "m": min(d, 5)},
    }


@pytest.fixture(scope="module")
def corpus_runs():
    """Live artifacts plus the pipeline report for every corpus seed."""
    runs = []
    for seed, p, d in CORPUS:
        cfg = RunConfig.from_json_dict(corpus_config(seed, p, d))
        report = run_pipeline(cfg)
        norm = cfg.build_norm()
        validate_axioms(norm)
        reduced = reduce_basis(OrderedBasis.standard(cfg.prime, cfg.dim), norm)
        seq = select_null_subsequence(norm_sorted_span(norm), norm, reduced, cfg.m)
        family = extract_independent_family(seq, reduced, norm)
        runs.append((seed, cfg, norm, family, report))
    return runs


@pytest.fixture(scope="module")
def reduced_grid():
    """(label, norm, reduced) for every family on the exhaustive-check grids:
    p=2 d<=8, p=3 d<=5, p=5 d<=4."""
    norms = []
    for p, dims in ((2, range(1, 9)), (3, range(1, 6)), (5, range(1, 5))):
        for d in dims:
            norms.append((f"ultrametric p{p} d{d}", UltrametricProductNorm(p, d)))
    for p, dims, base in ((2, range(1, 9), 400), (3, range(1, 6), 500),
                          (5, range(1, 5), 600)):
        for d in dims:
            norms.append((f"graded-cost p{p} d{d}",
                          CostCompletionNorm(graded_cost(base + d, p, d))))
    for d in range(1, 9):
        space = random_metric_space(700 + d, d + 1, F(1, 3), F(5, 2))
        norms.append((f"graev d{d}", GraevBooleanNorm(space)))
    grid = []
    for label, norm in norms:
        validate_axioms(norm)
        reduced = reduce_basis(OrderedBasis.standard(norm.prime, norm.dim), norm)
        grid.append((label, norm, reduced))
    return grid


def test_a01_axiom_validation_across_families(corpus_runs):
    """Zero axiom violations for every family at full desk scale."""
    t0 = time.perf_counter()
    checked = 0
    for p, dims in ((2, range(1, 11)), (3, range(1, 7)), (5, range(1, 5))):
        for d in dims:
            rep = validate_axioms(UltrametricProductNorm(p, d))
            assert rep.ok, f"ultrametric p{p} d{d}: {rep.violations[:1]}"
            checked += 1
    for seed, cfg, norm, family, report in corpus_runs:
        rep = validate_axioms(norm)
        assert rep.ok, f"cost seed {seed}: {rep.violations[:1]}"
        checked += 1
    for i in range(50):
        space = random_metric_space(1000 + i, 2 + (i % 8), F(1, 3), F(5, 2))
        rep = validate_axioms(GraevBooleanNorm(space))
        assert rep.ok, f"graev space {i}: {rep.violations[:1]}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"a01 axiom validation: PASS ({checked} norms, 0 violations, "
          f"{elapsed:.1f}s)")


def test_a02_reduced_word_floor_exhaustive(reduced_grid):
    """Every word in the reduced span is at least as large as its top term."""
    words = 0
    for label, norm, reduced in reduced_grid:
        rep = verify_reduced_properties(reduced, norm)
        assert rep.ok, f"{label}: {rep.violations[:1]}"
        words += rep.checked
    print(f"a02 reduced word floor: PASS ({len(reduced_grid)} bases, "
          f"{words} words, 0 violations)")


def test_a03_member_word_bound_small_tuples(reduced_grid):
    """Words over up to 5 distinct reduced members respect the scaled floor;
    per-k tightness ratios are collected as data."""
    worst = {}
    checked = 0
    for label, norm, reduced in reduced_grid:
        rep = check_member_word_bound(reduced, norm, max_tuple=5)
        assert rep.ok, f"{label}: {rep.violations[:1]}"
        checked += rep.checked
        p = norm.prime.p
        for k, ratio in (rep.ratios_by_k or {}).items():
            slack_ratio = ratio / (2 * p) ** k
            if k not in worst or slack_ratio > worst[k][0]:
                worst[k] = (slack_ratio, label)
    tightness = ", ".join(
        f"k={k}: {float(worst[k][0]):.3f} of cap ({worst[k][1]})"
        for k in sorted(worst) if k <= 3)
    print(f"a03 member word bound: PASS ({checked} words, 0 violations; "
          f"tightest {tightness})")


def test_a04_pair_domination_all_pairs(reduced_grid):
    """Later reduced members never undercut earlier ones by more than the
    allowed pair factor, for every index pair."""
    pairs = 0
    for label, norm, reduced in reduced_grid:
        rep = check_pair_domination(reduced, norm)
        assert rep.ok, f"{label}: {rep.violations[:1]}"
        pairs += rep.checked
    print(f"a04 pair domination: PASS ({pairs} pairs, 0 violations)")


def test_a05_modulus_pipeline_corpus(corpus_runs):
    """Full chain on all 100 corpus seeds: verdict pass, and the modulus
    holds for every l <= 3, with the tail inequality at every split point."""
    splits = 0
    for seed, cfg, norm, family, report in corpus_runs:
        assert report.verdict == "pass", f"seed {seed}: {report.error}"
        p, m = cfg.prime.p, cfg.m
        for l in (1, 2, 3):
            rep = independence_modulus(family, norm, l, m)
            assert rep.ok, f"seed {seed} l={l}: {rep.violations[:1]}"
        for s in range(1, m):
            tail_max = F(0)
            for coeffs in product(range(p), repeat=m - s):
                w = GroupElement.zero(norm.prime)
                for c, member in zip(coeffs, family.members[s:]):
                    w = w + member.smul(c)
                value = norm.eval(w.smul(p - 1))
                if value > tail_max:
                    tail_max = value
            for l in (1, 2, 3):
                if l <= s:
                    assert tail_max < threshold(p, l), \
                        f"seed {seed} split s={s}: {tail_max} vs l={l}"
            splits += 1
    print(f"a05 modulus pipeline: PASS (100 seeds, l<=3, {splits} split "
          f"points verified)")


def test_a06_graev_dp_matches_brute_partitions():
    """The subset DP equals brute-force partition enumeration exactly."""
    compared = 0
    for i in range(50):
        space = random_metric_space(2000 + i, 2 + (i % 8), F(1, 3), F(5, 2))
        norm = GraevBooleanNorm(space)
        tr = Truncation(2, norm.dim)
        for r in range(1, tr.size):
            g = tr.element_of(r)
            pts = [space.nonbase[i - 1] for i in g.support]
            assert norm.eval(g) == brute_graev(space, pts)
            compared += 1
    print(f"a06 graev oracle equivalence: PASS ({compared} subsets, "
          f"exact rational equality)")


def test_a07_convergent_line_counterexample():
    """Pairs {x, y_n} shrink like 1/n while singles stay at 1, and no grid
    delta forces both members of a small word below eps = 1/2."""
    rep = boolean_counterexample(100)
    assert len(rep.entries) == 100
    for entry in rep.entries:
        n = entry["n"]
        assert entry["value_pair"] == f"1/{n}"
        assert entry["value_x"] == "1/1"
    cert = rep.certificate
    assert cert.eps == F(1, 2)
    assert cert.is_counterexample
    assert cert.delta is None
    assert cert.min_bad_value < min(cert.grid)
    print(f"a07 convergence counterexample: PASS (100 pairs at 1/n vs 1; "
          f"worst pair {cert.min_bad_value} beats every grid delta)")


def test_a08_duality_routes_agree():
    """Three independent continuity computations agree on 500 seeded
    topologies, and kernel size plus dual rank always fills the dimension."""
    for seed in range(500):
        p = 2 if seed % 2 == 0 else 3
        d = 1 + seed % 4
        spec = random_topology(seed, p, d)
        rep = is_map(spec)
        assert len(rep.kernel_basis) + rep.dual_rank == d, f"seed {seed}"

    tr = Truncation(2, 3)
    nonzero = [tr.element_of(r) for r in range(1, tr.size)]
    subgroups = {frozenset({0})}
    for k in range(1, 4):
        for gens in combinations(nonzero, k):
            subgroups.add(frozenset(tr.rank_of(g) for g in enumerate_span(gens)))
    subgroups = sorted(subgroups, key=lambda s: (len(s), sorted(s)))
    assert len(subgroups) == 16
    prime = as_prime(2)
    specs = [TopologySpec(prime, 3, (s,)) for s in subgroups]
    specs += [TopologySpec(prime, 3, (a, b))
              for a, b in combinations(subgroups, 2)]
    assert len(specs) == 136
    for spec in specs:
        rep = is_map(spec)
        assert len(rep.kernel_basis) + rep.dual_rank == 3
    print("a08 duality cross-validation: PASS (500 seeded + 136 exhaustive "
          "subgroup bases, 3 routes agree, kernel+rank = dim)")


def test_a09_product_tables_positive(corpus_runs):
    """Product-topology tables from every corpus run: all entries positive,
    and large member norms force entries above the matching floor."""
    entries = 0
    for seed, cfg, norm, family, report in corpus_runs:
        rep = product_coarser_check(family, norm, cfg.m)
        assert rep.ok, f"seed {seed}: {rep.violations[:1]}"
        p = cfg.prime.p
        for table in rep.tables:
            for members, delta in table.items():
                assert delta > 0, f"seed {seed} F={set(members)}"
                entries += 1
                for l in (1, 2, 3):
                    floor = F(1, 2 ** (l - 1))
                    if all(family.norms[i - 1] >= floor for i in members):
                        assert delta >= threshold(p, l), \
                            f"seed {seed} F={set(members)} l={l}"
    print(f"a09 product tables: PASS (100 runs, {entries} table entries, "
          f"all positive, floor implication holds)")


def test_a10_reports_byte_identical():
    """A fixed config yields byte-identical canonical reports across repeat
    runs and across thread counts."""
    for seed, p, d in CORPUS[:3]:
        base = corpus_config(seed, p, d)
        texts = []
        for threads in (1, 1, 2):
            cfg = RunConfig.from_json_dict(dict(base, threads=threads))
            texts.append(jsonio.canonical_dumps(run_pipeline(cfg).to_json_dict()))
        assert texts[0] == texts[1] == texts[2], f"seed {seed}"
    print("a10 determinism: PASS (3 configs, byte-identical across runs "
          "and thread counts)")
