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
    # cover_value checks a word's indices and its 2^k subsets before its DP
    Mutant("cover-value-size-check-dropped", "norms.py",
           "        require_size(2, len(g.support), None)\n",
           "        pass\n",
           ("tests/test_norms.py::TestGraevNorm::test_matching_cap",
            "tests/test_norms.py::TestGraevTable::test_matching_cap_bounds_the_table")),
    Mutant("cover-value-index-check-off-by-one", "norms.py",
           "if g.max_index > len(nonbase):",
           "if g.max_index > len(nonbase) + 1:",
           ("tests/test_norms.py::TestGraevNorm::test_basepoint_not_allowed",)),
    # the demo checks its grid depth and certificate estimate before its space
    Mutant("demo-depth-check-past-the-digit-limit", "duality.py",
           "(4 * p) ** search_depth >= 10 ** digits",
           "(4 * p) ** search_depth > 10 ** (digits + 1)",
           (f"{DEMO_FIRST}::test_the_certificate_is_checked_before_the_space",)),
    Mutant("demo-estimate-checked-after-the-space", "duality.py",
           '''    limit = _certificate_limit(n_points + 1, 2, search_depth, 2, cap)
    space = convergent_line_space(n_points)
''',
           '''    space = convergent_line_space(n_points)
    limit = _certificate_limit(n_points + 1, 2, search_depth, 2, cap)
''',
           (f"{DEMO_FIRST}::test_the_certificate_is_checked_before_the_space",
            "tests/test_cli.py::TestDemoAndReport::test_demo_boolean_checks_the_certificate_first[points-5000]")),
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
)
