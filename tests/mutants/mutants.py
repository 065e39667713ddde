"""Named mutants of src/fpmap/ and the tier-1 tests that kill them.

Each mutant is one text substitution in one module of the package: ``old``
must occur exactly once in it and is replaced by ``new``. Every id in
``tests`` must fail on the mutated package; run.py checks both.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


OVER_CAP_LISTS = "tests/test_cli.py::TestInputAndCapExits::test_an_over_cap_list_is_refused_before_its_entries"
DEMO_FIRST = "tests/test_extraction.py::TestBooleanCounterexample"
SORTED_SPAN = "tests/test_rank_space.py::test_norm_sorted_span_returns_ranks_in_value_order"
CERTIFICATE = "tests/test_axiom_certificate.py"

MUTANTS = (
    # a descriptor's lists are read only after its truncation passes the cap
    Mutant("valued-elements-read-as-a-list", "norms.py",
           '''    for e in jsonio.require_list(cfg[key], what=key):
        jsonio.require_keys(e, ["element", "value"], [], what=what)
        yield (jsonio.element_from_pairs(cfg["prime"], e["element"]),
               jsonio.frac_from_str(e["value"]))
''',
           '''    pairs = []
    for e in jsonio.require_list(cfg[key], what=key):
        jsonio.require_keys(e, ["element", "value"], [], what=what)
        pairs.append((jsonio.element_from_pairs(cfg["prime"], e["element"]),
                      jsonio.frac_from_str(e["value"])))
    return pairs
''',
           (f"{OVER_CAP_LISTS}[table-well-formed]", f"{OVER_CAP_LISTS}[costs-bad-entries]")),
    Mutant("weights-read-as-a-list", "norms.py",
           'map(jsonio.frac_from_str, jsonio.iter_list(weights, what="weights"))',
           '[jsonio.frac_from_str(w) for w in jsonio.require_list(weights, what="weights")]',
           (f"{OVER_CAP_LISTS}[weights-well-formed]", f"{OVER_CAP_LISTS}[weights-not-an-array]")),
    Mutant("base-sets-read-as-lists", "duality.py",
           '''        sets = ((jsonio.element_from_pairs(p, pairs)
                 for pairs in jsonio.iter_list(u, what="base set"))
                for u in jsonio.iter_list(cfg["base"], what="base"))''',
           '''        sets = [[jsonio.element_from_pairs(p, pairs)
                 for pairs in jsonio.require_list(u, what="base set")]
                for u in jsonio.require_list(cfg["base"], what="base")]''',
           ("tests/test_cli.py::TestDuality::test_an_over_cap_elements_spec_is_refused_before_its_sets[well-formed]",
            "tests/test_cli.py::TestDuality::test_an_over_cap_elements_spec_is_refused_before_its_sets[not-an-array]")),
    # the one by-rank reader of tables and costs
    Mutant("reader-conflict-check-dropped", "norms.py",
           "        if vals[r] is not None and vals[r] != v:\n",
           "        if False:\n",
           ("tests/test_norms.py::TestTableNorm::test_entries_are_read_by_rank",
            "tests/test_norms.py::TestTableNorm::test_conflicting_entries_rejected",
            "tests/test_norms.py::TestCostFunction::test_pairs_are_read_by_rank")),
    Mutant("cost-accepted-at-rank-0", "norms.py",
           "        if vals[0] is not None:\n",
           "        if False:\n",
           ("tests/test_norms.py::TestCostFunction::test_pairs_are_read_by_rank",)),
    # a Graev descriptor is refused on its row count, before any distance
    Mutant("graev-row-count-check-dropped", "norms.py",
           "            require_size(2, len(rows) - 1, cap)\n",
           "            pass\n",
           ("tests/test_norms.py::TestNormFromConfig::test_a_wide_graev_descriptor_is_refused_before_its_entries",)),
    Mutant("graev-row-count-check-off-by-one", "norms.py",
           "require_size(2, len(rows) - 1, cap)",
           "require_size(2, len(rows), cap)",
           ("tests/test_norms.py::TestNormFromConfig::test_a_wide_graev_descriptor_is_refused_before_its_entries",)),
    # the demo checks its grid depth and certificate estimate before it
    # forms its line
    Mutant("demo-depth-check-past-the-digit-limit", "duality.py",
           "(4 * p) ** search_depth >= 10 ** digits",
           "(4 * p) ** search_depth > 10 ** (digits + 1)",
           (f"{DEMO_FIRST}::test_the_certificate_is_checked_before_the_space",)),
    Mutant("demo-estimate-checked-after-the-space", "duality.py",
           '''    limit = _certificate_limit(n_points + 1, 2, search_depth, 2, cap)
    coords, den = _line_coordinates(n_points)
''',
           '''    coords, den = _line_coordinates(n_points)
    limit = _certificate_limit(n_points + 1, 2, search_depth, 2, cap)
''',
           (f"{DEMO_FIRST}::test_the_certificate_is_checked_before_the_space",
            "tests/test_cli.py::TestDemoAndReport::test_demo_boolean_checks_the_certificate_first[points-5000]")),
    # the line is its coordinates over lcm(1..n), and a word's block holds
    # their distances
    Mutant("line-coordinates-without-the-lcm", "duality.py",
           "den = math.lcm(*range(1, n_points + 1))",
           "den = math.factorial(n_points)",
           (f"{DEMO_FIRST}::test_the_line_is_over_its_least_common_denominator[4]",
            f"{DEMO_FIRST}::test_the_line_is_over_its_least_common_denominator[12]")),
    Mutant("line-distance-signed", "duality.py",
           "block = abs(pts[:, None] - np.append(pts, 0))",
           "block = pts[:, None] - np.append(pts, 0)",
           (f"{DEMO_FIRST}::test_witness_values",
            f"{DEMO_FIRST}::test_word_values_match_the_repaired_space",
            f"{DEMO_FIRST}::test_the_demo_builds_no_metric_space")),
    # a norm's value order is sorted once and read-only
    Mutant("order-as-a-plain-property", "norms.py",
           "    @cached_property\n    def order(self)",
           "    @property\n    def order(self)",
           (f"{SORTED_SPAN}[cost]", f"{SORTED_SPAN}[ultrametric]",
            "tests/test_shared_truncation.py::test_a_large_truncation_goes_with_its_norm")),
    Mutant("order-writable", "norms.py",
           "        order.flags.writeable = False\n",
           "",
           (f"{SORTED_SPAN}[cost]", f"{SORTED_SPAN}[ultrametric]")),
    # axiom (3)'s generator certificate: the cover DP of the table's own
    # values on E, tried at p = 2 only, after axiom (1), charged dim * size
    Mutant("certificate-tried-at-odd-p", "norms.py",
           "if tr.prime.p == 2 and tr.dim * size <",
           "if tr.dim * size <",
           (f"{CERTIFICATE}::TestCompletions::test_every_e_completion_passes[1-3-5]",
            f"{CERTIFICATE}::TestCompletions::test_every_e_completion_passes[2-5-3]",
            f"{CERTIFICATE}::TestAgainstTheScan::test_p3_takes_the_certificate[clean]",
            f"{CERTIFICATE}::TestAgainstTheScan::test_p3_takes_the_certificate[planted]")),
    Mutant("axiom1-checked-after-the-certificate", "norms.py",
           "axiom1.all() \\\n            and _is_own_completion(tr, nums):",
           "_is_own_completion(tr, nums) \\\n            and axiom1.all():",
           (f"{CERTIFICATE}::TestRefutations::test_a_zero_generator_keeps_the_scan",)),
    Mutant("certificate-without-the-closure", "norms.py",
           "    space = PointedMetricSpace([[(int(nums[x ^ y]), 1) for y in pts] for x in pts], tr.dim)\n",
           "    space = PointedMetricSpace([[(int(nums[x ^ y]), 1) for y in pts] for x in pts], tr.dim)\n"
           "    space.nums = np.array([[int(nums[x ^ y]) for y in pts] for x in pts])\n",
           (f"{CERTIFICATE}::TestCoverCertificate::"
            "test_pair_values_that_break_the_triangle_inequality_are_refuted",)),
    Mutant("candidate-count-without-the-correction", "norms.py",
           "candidates = int(ends[:n_pos].sum()) - n_pos * (n_pos - 1) // 2",
           "candidates = int(ends[:n_pos].sum())",
           (f"{CERTIFICATE}::TestWorkRule::test_the_candidate_count_is_the_scan_s_pairs[7-4-bounds0-44]",
            f"{CERTIFICATE}::TestWorkRule::test_the_candidate_count_is_the_scan_s_pairs[16-5-bounds1-160]")),
    Mutant("certificate-charged-size", "norms.py",
           "tr.dim * size <",
           "size <",
           (f"{CERTIFICATE}::TestWorkRule::test_the_choice_is_made_on_counted_work",)),
)
