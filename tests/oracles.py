"""Independent reference implementations used to pin expected test values.

Everything in here is deliberately naive: different algorithms from the
package (a dense reduced row-echelon form per rank instead of one sparse
forward elimination, full partition enumeration instead of subset DP, edge
relaxation to a fixpoint instead of Dijkstra, nested loops instead of
vectorized rows, one Fraction per rank instead of integer cost numerators,
word scans that build and evaluate every word instead of reading the
span's ranks from the value table, duality by a dot product of every dual vector with every
element instead of linear algebra on the spans of the base sets, the
reduction checkers with one digit pass per index instead of the word
layout, the metric repair on Fractions instead of integers, axiom (3)'s
generator equations by one rank row per generator instead of a cover DP,
and the epsilon-delta certificate over every exponent vector instead of by
support size), or the package's own loops without their pruning (a Dijkstra step for
every vertex, a triangle row for every g). Agreement between the two is
what the tests assert.
"""

import itertools
import math
from fractions import Fraction
from itertools import combinations, product
from random import Random

import numpy as np

from fpmap import jsonio
from fpmap.duality import CertificateResult, Character
from fpmap.errors import CapExceededError, ExhaustedError, InputError
from fpmap.extraction import (
    CoarserReport,
    IndependentFamily,
    ModulusReport,
    NullSequence,
    reduced_max_position,
    threshold,
)
from fpmap.fpcore import (
    DEFAULT_ENUM_CAP,
    GroupElement,
    OrderedBasis,
    Truncation,
    _rref,
    _same_prime,
    as_prime,
    solve_in_span,
    word_digits,
)
from fpmap.norms import (
    CostCompletionNorm,
    CostFunction,
    Norm,
    _as_fraction,
    _cover_table,
    _scaled,
    _storage,
)
from fpmap.reduction import (
    LemmaReport,
    ReducedBasis,
    ReductionStep,
    _require_validated,
)


def span_word(elems, row):
    """Coefficients and element of word ``row`` of span(elems), built by
    scalar multiples and sums of the elements: the row's base-p digits,
    the coefficient of elems[0] most significant."""
    prime = elems[0].prime
    coeffs = word_digits(row, prime.p, len(elems))
    return coeffs, sum((g.smul(c) for g, c in zip(elems, coeffs)), GroupElement.zero(prime))


def brute_rank(elems, p=None):
    """Rank by a full dense reduced row-echelon form (fpcore._rref) of the
    elements' coefficient rows over the union of their supports."""
    elems = tuple(elems)
    if not elems:
        return 0
    prime = as_prime(p) if p is not None else elems[0].prime
    for g in elems:
        if g.prime != prime:
            raise InputError(f"mismatched primes: {g.prime.p} vs {prime.p}")
    col = {idx: j for j, idx in enumerate(sorted({i for g in elems for i in g.support}))}
    rows = []
    for g in elems:
        row = [0] * len(col)
        for i, c in g.items:
            row[col[i]] = c
        rows.append(row)
    return len(_rref(rows, prime.p)[1])


def enumerate_span(elems, *, cap: int | None = None):
    """All p^n combinations of the given elements, in lexicographic coefficient order.

    The first element yielded is zero, the last has every coefficient p-1.
    Word by word, one GroupElement sum each: the reference for the order and
    the words of Truncation.span_ranks.
    """
    prime = None
    if isinstance(elems, OrderedBasis):
        prime = elems.prime
        elems = elems.elems
    elems = tuple(elems)
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if not elems:
        if prime is None:
            raise InputError("cannot enumerate the span of an empty element list")
        yield GroupElement.zero(prime)
        return
    prime = elems[0].prime
    p = prime.p
    for g in elems:
        _same_prime(g.prime.p, p)
    total = p ** len(elems)
    if total > cap:
        raise CapExceededError(f"span of {len(elems)} elements has {total} members, above cap {cap}")
    multiples = [[e.smul(k) for k in range(p)] for e in elems]
    zero = GroupElement.zero(prime)
    for vec in itertools.product(range(p), repeat=len(elems)):
        yield sum((multiples[j][lam] for j, lam in enumerate(vec) if lam), zero)


def is_independent_oracle(elems, *, cap: int | None = None) -> bool:
    """Independence by subset enumeration.

    For every split X = A | (X \\ A), the spans of the two halves must meet
    only at zero. A set containing the zero element is dependent outright.
    """
    elems = tuple(elems)
    if not elems:
        return True
    prime = elems[0].prime
    for g in elems:
        if g.prime != prime:
            raise InputError(f"mismatched primes: {g.prime.p} vs {prime.p}")
    if any(g.is_zero() for g in elems):
        return False
    n = len(elems)
    p = prime.p
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if (p ** n) * (2 ** n) > cap:
        raise CapExceededError(
            f"independence oracle needs ~{p ** n} * {2 ** n} steps, above cap {cap}")
    for bits in range(1, 2 ** n - 1):
        half = [elems[j] for j in range(n) if bits >> j & 1]
        rest = [elems[j] for j in range(n) if not bits >> j & 1]
        for w in enumerate_span(half, cap=cap):
            if w.is_zero():
                continue
            if solve_in_span(w, rest) is not None:
                return False
    return True


def brute_ultrametric_values(p, weights):
    """The value of every word of the truncation F_p^len(weights), in rank
    order: one Fraction max of the weights over its support."""
    words = enumerate_span(OrderedBasis.standard(p, len(weights)))
    return [max((weights[i - 1] for i in w.support), default=Fraction(0)) for w in words]


def brute_graev(space, points):
    """Minimum pair/singleton cover cost by enumerating every partition."""
    pts = sorted(set(points))
    base = space.basepoint

    def best(remaining):
        if not remaining:
            return Fraction(0)
        x = remaining[0]
        rest = remaining[1:]
        value = space.dist(x, base) + best(rest)
        for k, y in enumerate(rest):
            others = rest[:k] + rest[k + 1:]
            alt = space.dist(x, y) + best(others)
            if alt < value:
                value = alt
        return value

    return best(tuple(pts))


def graev_word_value(space, g):
    """The Graev value of the Boolean word g over ``space``, group index i
    standing for space.nonbase[i - 1]. Not a reference: it gathers the
    block of the word's points alone from the space's distances and runs
    the package's own cover DP, norms._cover_table, on it, so it values a
    word of a space of any size with no table."""
    pts = [space.nonbase[i - 1] for i in g.support]
    block = space.nums[np.ix_(pts, [*pts, space.basepoint])]
    return Fraction(int(_cover_table(block, space.den)[0][-1]), space.den)


def brute_certificate(xs, value, p: int, eps, search_depth: int = 3) -> CertificateResult:
    """epsilon_delta_certificate over every exponent vector of F_p^n, taken
    by itertools.product, each word valued by ``value`` of its explicit sum
    and each term k * x_i by ``value`` of its own multiple. A word is bad
    when some term it uses has value >= eps, and its term_index is the
    first such. Of the bad words of least value, the witness is the first
    in the package's scan order: fewer terms, then the support, then the
    exponents, each compared lexicographically."""
    zero = GroupElement.zero(p)
    grid = tuple(threshold(p, j) for j in range(1, search_depth + 1))
    best, checked = None, 0
    for exps in product(range(p), repeat=len(xs)):
        used = [(i, k) for i, k in enumerate(exps) if k]
        if not used:
            continue
        checked += 1
        bad = [(i, v) for i, v in ((i, value(xs[i].smul(k))) for i, k in used) if v >= eps]
        if not bad:
            continue
        w = sum((xs[i].smul(k) for i, k in used), zero)
        key = (value(w), len(used), [i for i, _ in used], [k for _, k in used])
        if best is None or key < best[0]:
            best = key, {
                "exponents": list(exps),
                "w": jsonio.element_to_pairs(w),
                "term_index": bad[0][0] + 1,
                "value_w": jsonio.frac_to_str(key[0]),
                "value_term": jsonio.frac_to_str(bad[0][1]),
            }
    if best is None:
        return CertificateResult(eps, grid, grid[0], None, None, checked)
    least = best[0][0]
    delta = next((g for g in grid if g <= least), None)
    return CertificateResult(eps, grid, delta, least, best[1], checked)


def graev_completion_table(space):
    """The Graev table of ``space``, (nums, den) by rank, as a shortest-path
    completion instead of a subset DP: the CostCompletionNorm of the cost that
    charges d(x, base) on e_x, d(x, y) on e_x + e_y and, on every other
    nonzero rank, the singletons' sum plus 1, above any cover. It enumerates
    no partitions. Bit b of a rank carries space.nonbase[::-1][b], so e_1 is
    the top rank."""
    pts = space.nonbase[::-1]
    single = [int(space.nums[x, space.basepoint]) for x in pts]
    nums = [0] + [sum(single) + 1] * (2 ** len(pts) - 1)
    for b, x in enumerate(pts):
        nums[1 << b] = single[b]
        for c in range(b + 1, len(pts)):
            nums[1 << b | 1 << c] = int(space.nums[x, pts[c]])
    cost = CostFunction(Truncation(2, len(pts)),
                        np.array(nums, dtype=_storage(sum(single) + 1)), space.den)
    return CostCompletionNorm(cost)._table


def brute_random_cost(seed, p, dim, low, high, *, steps=60, cap=None):
    """random_cost with one Fraction per pair {g, -g}, built rank by rank."""
    low = _as_fraction(low, "low")
    high = _as_fraction(high, "high")
    if not 0 < low <= high:
        raise InputError(f"need 0 < low <= high, got {low} and {high}")
    if steps < 1:
        raise InputError("steps must be positive")
    prime = as_prime(p)
    tr = Truncation(prime, dim, cap=cap)
    rng = Random(seed)
    span = high - low
    neg = tr.neg_perm.tolist()
    vals = [None] * tr.size
    for r in range(1, tr.size):
        if vals[r] is not None:
            continue
        v = low + span * Fraction(rng.randrange(steps + 1), steps)
        vals[r] = v
        vals[neg[r]] = v
    return CostFunction(tr, *_scaled([Fraction(0)] + vals[1:]))


def brute_graded_cost(seed, p, dim, *, steps=60, cap=None):
    """graded_cost with one Fraction per pair {g, -g}, its band read off the
    max_index of a GroupElement built for the rank."""
    if steps < 1:
        raise InputError("steps must be positive")
    prime = as_prime(p)
    tr = Truncation(prime, dim, cap=cap)
    K = Fraction(1, (4 * prime.p) ** dim)
    width = K / (2 * dim)
    rng = Random(seed)
    neg = tr.neg_perm.tolist()
    vals = [None] * tr.size
    for r in range(1, tr.size):
        if vals[r] is not None:
            continue
        k = tr.element_of(r).max_index
        band_low = K / 2 + (k - 1) * width
        v = band_low + width * Fraction(rng.randrange(steps), steps)
        vals[r] = v
        vals[neg[r]] = v
    return CostFunction(tr, *_scaled([Fraction(0)] + vals[1:]))


def brute_rank_row(tr, r, sign, positions=None):
    """Ranks of g + sign * element_of(r), one GroupElement sum per rank g.

    sign is +1 or -1; positions lists the ranks g to compute and defaults to
    every rank of the truncation.
    """
    h = tr.element_of(r) if sign > 0 else -tr.element_of(r)
    if positions is None:
        positions = range(tr.size)
    return [tr.rank_of(tr.element_of(g) + h) for g in positions]


def brute_cost_completion(cost):
    """Minimum decomposition cost for every element, by edge relaxation.

    Treats every ordered pair (u, v) as an edge of weight c(v - u) and relaxes
    until nothing changes (Bellman-Ford without the early exit).
    """
    tr = cost.truncation
    size = tr.size
    dist = [None] * size
    dist[0] = Fraction(0)
    changed = True
    while changed:
        changed = False
        for u in range(size):
            if dist[u] is None:
                continue
            for v in range(size):
                if v == u:
                    continue
                w = cost.value_of_rank(tr.rank_of(tr.element_of(v) - tr.element_of(u)))
                nd = dist[u] + w
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    changed = True
    return dist


def full_dijkstra(tr, cost):
    """Dijkstra without the early stop: one sub_rank_row per vertex, all size
    of them, on the numerators _scaled stores. Returns (dist, den)."""
    size = tr.size
    # weight 0 at rank 0 makes each self-loop a relaxation that changes nothing
    w, den = _scaled([Fraction(0)] + [cost.value_of_rank(r) for r in range(1, size)])
    inf = int(w.max()) + 1
    dist = np.full(size, inf, dtype=w.dtype)
    dist[0] = 0
    done = np.zeros(size, dtype=bool)
    for _ in range(size):
        u = int(np.where(done, inf, dist).argmin())
        done[u] = True
        np.minimum(dist, dist[u] + w[tr.sub_rank_row(u)], out=dist)
    return dist, den


def row_scan_triangles(tr, nums):
    """Axiom (3) violations as (g, h, sum) rank triples, g <= h, by one full
    add_rank_row per g over every h >= g, in (g, h) order."""
    found = []
    for g in range(tr.size):
        idx = tr.add_rank_row(g)[g:]
        bad = nums[idx] > nums[g] + nums[g:]
        for off in np.nonzero(bad)[0]:
            h = g + int(off)
            found.append((g, h, int(idx[int(off)])))
    return found


def generator_rows_certificate(tr, nums):
    """Whether N(g) = min over e in E of N(g - e) + N(e) for every nonzero
    rank g, E the nonzero ranks of support at most 2, at any p: one gathered
    sub_rank_row and one np.minimum per generator, in the storage of
    ``nums`` (each sum adds two of its entries). The reference for the
    equations that norms._is_own_completion decides at p = 2."""
    best = None
    for e in tr.words_within(2).tolist():
        via_e = nums[tr.sub_rank_row(e)] + nums[e]
        best = via_e if best is None else np.minimum(best, via_e, out=best)
    return bool((best[1:] == nums[1:]).all())


def brute_axiom_violations(norm, dim):
    """All axiom violations on the truncation, by plain nested loops."""
    tr = Truncation(norm.prime, dim)
    elems = [tr.element_of(r) for r in range(tr.size)]
    out = []
    for g in elems:
        v = norm.eval(g)
        if g.is_zero():
            if v != 0:
                out.append(("axiom1", g))
        elif v <= 0:
            out.append(("axiom1", g))
    for g in elems:
        if norm.eval(g) != norm.eval(-g):
            out.append(("axiom2", g))
    for g in elems:
        for h in elems:
            if norm.eval(g + h) > norm.eval(g) + norm.eval(h):
                out.append(("axiom3", g, h))
    return out


def brute_min_norm_in_coset(norm, fixed, free_elems, p):
    """Minimum norm over {fixed + w : w in span(free_elems)} with the argmin set.

    Returns (value, [elements attaining it]).
    """
    best = None
    argmin = []
    for w in enumerate_span(free_elems) if free_elems else [GroupElement.zero(p)]:
        g = fixed + w
        v = norm.eval(g)
        if best is None or v < best:
            best = v
            argmin = [g]
        elif v == best:
            argmin.append(g)
    return best, argmin


def brute_reduce_basis(basis: OrderedBasis, norm: Norm, *, cap: int | None = None) -> ReducedBasis:
    """reduce_basis as one nested loop: every candidate built and evaluated by hand."""
    _require_validated(norm)
    p = basis.prime.p
    if norm.prime != basis.prime:
        raise InputError(f"mismatched primes: {basis.prime.p} vs {norm.prime.p}")
    d = len(basis)
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if p ** d * (p - 1) > cap:
        raise CapExceededError(
            f"reduction would evaluate up to {p ** d * (p - 1)} candidates, above cap {cap}")

    reduced: list[GroupElement] = []
    steps = []
    for n in range(d):
        incoming = basis[n]
        best_val = None
        best_coeffs = None
        best_elem = None
        tie_count = 0
        runner_up = None
        for prefix in itertools.product(range(p), repeat=n):
            partial = GroupElement.zero(basis.prime)
            for j, lam in enumerate(prefix):
                if lam:
                    partial = partial + reduced[j].smul(lam)
            for lam_new in range(1, p):
                candidate = partial + incoming.smul(lam_new)
                val = norm.eval(candidate)
                if best_val is None or val < best_val:
                    if best_val is not None:
                        runner_up = best_val if runner_up is None else min(runner_up, best_val)
                    best_val = val
                    best_coeffs = prefix + (lam_new,)
                    best_elem = candidate
                    tie_count = 1
                elif val == best_val:
                    tie_count += 1
                else:
                    runner_up = val if runner_up is None else min(runner_up, val)
        steps.append(ReductionStep(
            index=n + 1,
            coeffs=best_coeffs,
            element=best_elem,
            norm_value=best_val,
            tie_count=tie_count,
            runner_up_gap=None if runner_up is None else runner_up - best_val,
        ))
        reduced.append(best_elem)
    return ReducedBasis(
        original=basis,
        reduced=OrderedBasis(basis.prime, tuple(reduced)),
        steps=tuple(steps),
    )


def brute_reduced_properties(reduced: ReducedBasis, norm: Norm, *,
                              max_tuple: int | None = None,
                              cap: int | None = None) -> LemmaReport:
    """verify_reduced_properties with one GroupElement sum and eval per word."""
    _require_validated(norm)
    p = reduced.prime.p
    d = len(reduced)
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if p ** d > cap:
        raise CapExceededError(f"word scan needs {p ** d} evaluations, above cap {cap}")
    violations: list[dict] = []

    for n in range(1, d + 1):
        joined = list(reduced.reduced.elems[:n]) + list(reduced.original.elems[:n])
        r = brute_rank(joined, reduced.prime)
        if r != n:
            violations.append({"check": "prefix-span-equality", "n": n, "rank": r})
    r = brute_rank(reduced.reduced.elems, reduced.prime)
    if r != d:
        violations.append({"check": "independence", "rank": r, "size": d})

    elems = reduced.reduced.elems
    top_values = [norm.eval(g) for g in elems]
    checked = 0
    max_ratio = None
    for coeffs in itertools.product(range(p), repeat=d):
        support = [j for j, lam in enumerate(coeffs) if lam]
        if not support:
            continue
        if max_tuple is not None and len(support) > max_tuple:
            continue
        top = support[-1]
        w = GroupElement.zero(reduced.prime)
        for j in support:
            w = w + elems[j].smul(coeffs[j])
        vw = norm.eval(w)
        vt = top_values[top]
        checked += 1
        if vw > 0:
            ratio = vt / vw
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
        if vt > vw:
            violations.append({
                "check": "max-term-minimality",
                "coeffs": list(coeffs),
                "w": jsonio.element_to_pairs(w),
                "top_index": top + 1,
                "value_top": jsonio.frac_to_str(vt),
                "value_w": jsonio.frac_to_str(vw),
            })
    tuple_note = ("all tuple sizes" if max_tuple is None or max_tuple >= d
                  else f"tuple sizes up to {max_tuple}")
    return LemmaReport(
        inequality="max-term-minimality",
        domain=(f"all nonzero coefficient vectors over F_{p}^{d} ({tuple_note}); "
                "the top coefficient is nonzero by construction, a zero top "
                "coefficient restates the check for a shorter tuple"),
        checked=checked,
        violations=tuple(violations),
        max_ratio=max_ratio,
    )


def brute_member_word_bound(reduced: ReducedBasis, norm: Norm, *,
                            max_tuple: int = 6, cap: int | None = None) -> LemmaReport:
    """check_member_word_bound over (n, indices, coeffs, k, mu) in Fractions."""
    _require_validated(norm)
    p = reduced.prime.p
    d = len(reduced)
    count_est = sum(
        math.comb(d, n) * (p - 1) ** n * n * p for n in range(1, min(d, max_tuple) + 1))
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if count_est > cap:
        raise CapExceededError(f"bound scan needs ~{count_est} evaluations, above cap {cap}")

    elems = reduced.reduced.elems
    scalar_values = [[norm.eval(g.smul(mu)) for mu in range(p)] for g in elems]
    violations: list[dict] = []
    ratios_by_k: dict[int, Fraction] = {}
    checked = 0
    for n in range(1, min(d, max_tuple) + 1):
        for indices in itertools.combinations(range(d), n):
            for coeffs in itertools.product(range(1, p), repeat=n):
                w = GroupElement.zero(reduced.prime)
                for j, lam in zip(indices, coeffs):
                    w = w + elems[j].smul(lam)
                vw = norm.eval(w)
                for k in range(n):
                    target = indices[n - 1 - k]
                    base_bound = (2 * p) ** k * vw
                    for mu in range(p):
                        slack = max(1, min(mu, p - mu))
                        bound = slack * base_bound
                        vt = scalar_values[target][mu]
                        checked += 1
                        if vw > 0:
                            ratio = vt / (slack * vw)
                            if k not in ratios_by_k or ratio > ratios_by_k[k]:
                                ratios_by_k[k] = ratio
                        if vt > bound:
                            violations.append({
                                "check": "member-word-bound",
                                "indices": [j + 1 for j in indices],
                                "coeffs": list(coeffs),
                                "k": k,
                                "mu": mu,
                                "value_term": jsonio.frac_to_str(vt),
                                "value_w": jsonio.frac_to_str(vw),
                                "bound": jsonio.frac_to_str(bound),
                            })
    return LemmaReport(
        inequality="member-word-bound",
        domain=(f"words over up to {min(d, max_tuple)} distinct reduced indices with "
                f"all-nonzero coefficients; k = 0..n-1; mu over F_{p}"),
        checked=checked,
        violations=tuple(violations),
        max_ratio=max(ratios_by_k.values()) if ratios_by_k else None,
        ratios_by_k=ratios_by_k,
    )


def brute_pair_domination(reduced: ReducedBasis, norm: Norm) -> LemmaReport:
    """check_pair_domination with each combination built and evaluated by hand."""
    _require_validated(norm)
    p = reduced.prime.p
    d = len(reduced)
    elems = reduced.reduced.elems
    violations: list[dict] = []
    max_ratio = None
    checked = 0
    for a in range(d):
        for b in range(a + 1, d):
            combo = elems[a] + elems[b].smul(p - 1)
            vc = norm.eval(combo)
            vb = norm.eval(elems[b])
            checked += 1
            if vc > 0:
                ratio = vb / vc
                if max_ratio is None or ratio > max_ratio:
                    max_ratio = ratio
            if vb > vc:
                violations.append({
                    "check": "pair-domination",
                    "n_prime": a + 1,
                    "n_dprime": b + 1,
                    "value_later": jsonio.frac_to_str(vb),
                    "value_combo": jsonio.frac_to_str(vc),
                })
    return LemmaReport(
        inequality="pair-domination",
        domain=f"all index pairs n' < n'' in 1..{d}",
        checked=checked,
        violations=tuple(violations),
        max_ratio=max_ratio,
    )


def brute_modulus(family: IndependentFamily, norm: Norm, l: int, m: int,
                         *, cap: int | None = None) -> ModulusReport:
    """independence_modulus with every word and every negated tail built by hand."""
    p = norm.prime.p
    if not 1 <= m <= len(family):
        raise InputError(f"m must be in 1..{len(family)}, got {m}")
    if not 1 <= l <= m:
        raise InputError(f"l must be in 1..{m}, got {l}")
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if p ** m > cap:
        raise CapExceededError(f"modulus scan needs {p ** m} words, above cap {cap}")
    eps = Fraction(1, 2 ** (l - 1))
    delta = threshold(p, l)
    members = family.members[:m]
    member_norms = [norm.eval(a) for a in members]
    violations: list[dict] = []
    combos = 0
    small = 0
    for coeffs in itertools.product(range(p), repeat=m):
        support = [i for i, lam in enumerate(coeffs) if lam]
        if not support:
            continue
        w = GroupElement.zero(norm.prime)
        for i in support:
            w = w + members[i].smul(coeffs[i])
        vw = norm.eval(w)
        combos += 1
        if vw < delta:
            small += 1
            for i in support:
                if member_norms[i] >= eps:
                    violations.append({
                        "check": "modulus",
                        "coeffs": list(coeffs),
                        "w": jsonio.element_to_pairs(w),
                        "member_index": i + 1,
                        "value_w": jsonio.frac_to_str(vw),
                        "value_member": jsonio.frac_to_str(member_norms[i]),
                        "eps": jsonio.frac_to_str(eps),
                        "delta": jsonio.frac_to_str(delta),
                    })
    splits = 0
    for s in range(l, m):
        tail_budget = p * sum(member_norms[s:m], Fraction(0))
        splits += 1
        if tail_budget >= threshold(p, s):
            violations.append({
                "check": "split-sum",
                "split": s,
                "tail_budget": jsonio.frac_to_str(tail_budget),
                "bound": jsonio.frac_to_str(threshold(p, s)),
            })
        for coeffs in itertools.product(range(p), repeat=m - s):
            support = [i for i, lam in enumerate(coeffs) if lam]
            if not support:
                continue
            tail = GroupElement.zero(norm.prime)
            for i in support:
                tail = tail + members[s + i].smul(coeffs[i])
            neg_tail = tail.smul(p - 1)
            v = norm.eval(neg_tail)
            if v > tail_budget:
                violations.append({
                    "check": "split-combo",
                    "split": s,
                    "coeffs": list(coeffs),
                    "tail": jsonio.element_to_pairs(tail),
                    "value_negated_tail": jsonio.frac_to_str(v),
                    "tail_budget": jsonio.frac_to_str(tail_budget),
                })
    return ModulusReport(
        prime_p=p, l=l, m=m, eps=eps, delta=delta,
        combos_checked=combos, small_norm_combos=small, splits_checked=splits,
        violations=tuple(violations),
    )


def brute_coarser(family: IndependentFamily, norm: Norm, m: int, *,
                          cap: int | None = None) -> CoarserReport:
    """product_coarser_check with a per-support minimum dictionary for each prefix."""
    if m < 1:
        raise InputError(f"m must be positive, got {m}")
    if m > len(family.members):
        raise InputError(f"m = {m} exceeds the family length {len(family.members)}")
    p = norm.prime.p
    for g in family.members:
        if g.prime != norm.prime:
            raise InputError(f"mismatched primes: {g.prime.p} vs {p}")
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if p ** m > cap:
        raise CapExceededError(f"{p}^{m} span combinations exceed the cap {cap}")

    tables = []
    violations = []
    combos = 0
    for t in range(1, m + 1):
        members = family.members[:t]
        min_by_support: dict[frozenset, Fraction] = {}
        for coeffs in product(range(p), repeat=t):
            support = frozenset(i + 1 for i, c in enumerate(coeffs) if c)
            if not support:
                continue
            w = GroupElement.zero(norm.prime)
            for c, a in zip(coeffs, members):
                if c:
                    w = w + a.smul(c)
            v = norm.eval(w)
            combos += 1
            prev = min_by_support.get(support)
            if prev is None or v < prev:
                min_by_support[support] = v
        table = {}
        for size in range(1, t + 1):
            for F in combinations(range(1, t + 1), size):
                fset = frozenset(F)
                d_F = min(v for s, v in min_by_support.items() if s & fset)
                table[F] = d_F
                if d_F <= 0:
                    violations.append({
                        "check": "coarser",
                        "span": t,
                        "F": list(F),
                        "value": jsonio.frac_to_str(d_F),
                    })
        tables.append(table)
    return CoarserReport(norm.prime, m, tuple(tables), tuple(violations), combos)


def candidate_ranks(norm: Norm, elems) -> np.ndarray:
    """The int64 ranks of elems in the norm's truncation, each checked by
    Truncation.rank_of: the candidates select_null_subsequence takes."""
    tr = norm.truncation
    return np.array([tr.rank_of(g) for g in elems], dtype=np.int64)


def brute_select_null_subsequence(seq, norm: Norm, reduced: ReducedBasis,
                                  length: int) -> NullSequence:
    """select_null_subsequence with one eval and one reduced_max_position solve
    per candidate and a list-of-lists DP, re-run per length on exhaustion."""
    if length < 0:
        raise InputError(f"requested length must be nonnegative, got {length}")
    p = norm.prime.p
    candidates = list(seq)
    if length == 0:
        return NullSequence(p, (), (), ())
    norms = [norm.eval(g) for g in candidates]
    maxes = [reduced_max_position(g, reduced) for g in candidates]
    thresholds = [threshold(p, n) for n in range(1, length + 1)]
    N = len(candidates)

    # feas[s][i]: slots s..length-1 can be filled starting by taking index i.
    # suffix_best[s][i]: largest top position among feasible starts at >= i,
    # which is what the previous slot needs to know to continue the chain.
    feas = [[False] * N for _ in range(length)]
    suffix_best = [[0] * (N + 1) for _ in range(length)]
    for s in range(length - 1, -1, -1):
        for i in range(N - 1, -1, -1):
            ok_here = maxes[i] >= 1 and norms[i] < thresholds[s]
            if ok_here and s < length - 1:
                ok_here = suffix_best[s + 1][i + 1] > maxes[i]
            feas[s][i] = ok_here
            suffix_best[s][i] = max(suffix_best[s][i + 1], maxes[i] if ok_here else 0)

    if not any(feas[0]):
        achievable = brute_achievable_length(norms, maxes, p, length)
        failed = achievable + 1
        t = threshold(p, failed)
        if not any(m >= 1 and v < t for v, m in zip(norms, maxes)):
            constraint = "threshold"
        else:
            constraint = "max-progression"
        raise ExhaustedError(
            f"no qualifying subsequence of length {length}; "
            f"achievable length is {achievable}, slot {failed} blocked by "
            f"the {constraint} constraint",
            achievable_length=achievable, failed_slot=failed, constraint=constraint)

    chosen: list[int] = []
    last_max = 0
    pos = 0
    for s in range(length):
        i = pos
        while True:
            good = feas[s][i] and maxes[i] > last_max
            if good and s < length - 1:
                good = suffix_best[s + 1][i + 1] > maxes[i]
            if good:
                break
            i += 1
        chosen.append(i)
        last_max = maxes[i]
        pos = i + 1
    return NullSequence(
        p,
        tuple(candidates[i] for i in chosen),
        tuple(norms[i] for i in chosen),
        tuple(maxes[i] for i in chosen),
    )


def brute_achievable_length(norms, maxes, p: int, limit: int) -> int:
    """Longest feasible subsequence length, capped at limit: one DP per length."""
    N = len(norms)
    for slots in range(limit, 0, -1):
        first_row = [False] * N
        prev_suffix = [0] * (N + 1)
        for s in range(slots - 1, -1, -1):
            suffix = [0] * (N + 1)
            for i in range(N - 1, -1, -1):
                good = maxes[i] >= 1 and norms[i] < threshold(p, s + 1)
                if good and s < slots - 1:
                    good = prev_suffix[i + 1] > maxes[i]
                if s == 0:
                    first_row[i] = good
                suffix[i] = max(suffix[i + 1], maxes[i] if good else 0)
            prev_suffix = suffix
        if any(first_row):
            return slots
    return 0


def _coefficient_table(p: int, dim: int) -> np.ndarray:
    """(p^dim, dim) int64 table whose row r is the coefficient vector of rank r,
    the coefficient of e_1 first."""
    weights = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    return np.arange(p ** dim, dtype=np.int64)[:, None] // weights % p


def _base_arrays(spec) -> list[np.ndarray]:
    return [np.fromiter(sorted(u), dtype=np.int64, count=len(u)) for u in spec.members]


def brute_continuous_characters(spec, *, cap: int | None = None) -> list[Character]:
    """Every dual vector, in dual-rank order, that vanishes on all of some base
    set: one dot product of each dual vector with every element."""
    p, d = spec.prime.p, spec.dim
    Truncation(spec.prime, d, cap=cap)  # enforces the enumeration cap
    table = _coefficient_table(p, d)
    bases = _base_arrays(spec)
    out = []
    for coeffs in table:
        zero = table.dot(coeffs) % p == 0
        if any(bool(zero[ua].all()) for ua in bases):
            out.append(Character(spec.prime, tuple(int(c) for c in coeffs)))
    return out


def brute_von_neumann_kernel(spec, *, cap: int | None = None) -> tuple[GroupElement, ...]:
    """The elements every continuous character sends to 0, found by dot
    products, then the dense reduced row-echelon form of all their coefficient
    rows: the nonzero rows are the unique reduced-echelon basis."""
    p, d = spec.prime.p, spec.dim
    chars = brute_continuous_characters(spec, cap=cap)
    table = _coefficient_table(p, d)
    duals = np.array([c.coeffs for c in chars], dtype=np.int64)
    kernel = np.flatnonzero(~(table.dot(duals.T) % p).any(axis=1))
    rows, pivots = _rref(table[kernel].tolist(), p)
    return tuple(GroupElement.make(p, [(j + 1, c) for j, c in enumerate(row) if c])
                 for row in rows[:len(pivots)])


def brute_open_subgroups(spec, *, cap: int | None = None) -> tuple[int, frozenset[int]]:
    """(number of index-p subgroups containing some base set, the ranks of
    their intersection), one dual vector with leading coefficient 1 standing
    for each subgroup, its kernel found by dot products."""
    p, d = spec.prime.p, spec.dim
    Truncation(spec.prime, d, cap=cap)
    table = _coefficient_table(p, d)
    bases = _base_arrays(spec)
    inter = set(range(len(table)))
    count = 0
    for coeffs in table[1:]:
        if coeffs[np.flatnonzero(coeffs)[0]] != 1:
            continue
        zero = table.dot(coeffs) % p == 0
        if any(bool(zero[ua].all()) for ua in bases):
            count += 1
            inter &= set(np.flatnonzero(zero).tolist())
    return count, frozenset(inter)


def fraction_metric_repair(matrix) -> list[list[Fraction]]:
    """PointedMetricSpace's repair of a distance matrix on Fractions:
    nonnegativity, zero diagonal, the smaller directed entry per pair, a
    Floyd-Warshall closure entry by entry, and distinct points apart. Raises
    the InputErrors the package raises."""
    n = len(matrix)
    rows = [[_as_fraction(x, "distance") for x in r] for r in matrix]
    for i in range(n):
        for j in range(n):
            if rows[i][j] < 0:
                raise InputError(f"negative distance at ({i}, {j})")
    for i in range(n):
        rows[i][i] = Fraction(0)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = min(rows[i][j], rows[j][i])
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rows[i][j] = min(rows[i][j], rows[i][k] + rows[k][j])
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] == 0:
                raise InputError(f"points {i} and {j} are distinct but at distance 0")
    return rows


def per_index_reduced_properties(reduced: ReducedBasis, norm: Norm, *,
                                 max_tuple: int | None = None) -> LemmaReport:
    """verify_reduced_properties with one full-length digit pass per index
    for the top positions and supports, and one mask per top for its
    minimum, instead of the word layout."""
    _require_validated(norm)
    p = reduced.prime.p
    d = len(reduced)
    violations: list[dict] = []
    elems = reduced.reduced.elems
    vals, den = norm.values_of(norm.truncation.span_ranks(elems))
    rows = np.arange(p ** d)
    top = np.full(rows.size, -1)
    support = np.zeros(rows.size, dtype=np.int64)
    for j in range(d):
        nz = rows // p ** (d - 1 - j) % p != 0
        top[nz] = j
        support += nz
    words = (support >= 1) & (support <= (d if max_tuple is None else max_tuple))
    top_values = vals[p ** (d - 1 - np.arange(d))]
    vt, vw = top_values[top[words]], vals[words]
    ratios = [Fraction(int(top_values[j]), int(vw[sel].min()))
              for j in range(d) if (sel := top[words] == j).any()]
    for row in rows[words][vt > vw].tolist():
        coeffs, w = span_word(elems, row)
        violations.append({
            "check": "max-term-minimality",
            "coeffs": list(coeffs),
            "w": jsonio.element_to_pairs(w),
            "top_index": int(top[row]) + 1,
            "value_top": jsonio.frac_to_str(Fraction(int(top_values[top[row]]), den)),
            "value_w": jsonio.frac_to_str(Fraction(int(vals[row]), den)),
        })
    tuple_note = ("all tuple sizes" if max_tuple is None or max_tuple >= d
                  else f"tuple sizes up to {max_tuple}")
    return LemmaReport(
        inequality="max-term-minimality",
        domain=(f"all nonzero coefficient vectors over F_{p}^{d} ({tuple_note}); "
                "the top coefficient is nonzero by construction, a zero top "
                "coefficient restates the check for a shorter tuple"),
        checked=int(words.sum()),
        violations=tuple(violations),
        max_ratio=max(ratios, default=None),
    )


def per_index_member_word_bound(reduced: ReducedBasis, norm: Norm, *,
                                max_tuple: int = 6) -> LemmaReport:
    """check_member_word_bound with one boolean mask per index, the depth of
    each target counted by adding the masks above it, instead of the word
    layout's strips."""
    _require_validated(norm)
    p = reduced.prime.p
    d = len(reduced)
    elems = reduced.reduced.elems
    vals, den = norm.values_of(norm.truncation.span_ranks(elems))
    rows = np.arange(p ** d)
    used = [rows // p ** (d - 1 - j) % p != 0 for j in range(d)]
    support = sum(used, np.zeros(rows.size, dtype=np.int64))
    words = (support >= 1) & (support <= max_tuple)
    found = []
    best: dict[int, Fraction] = {}
    above = np.zeros(rows.size, dtype=np.int64)
    for j in reversed(range(d)):
        rows_j = np.flatnonzero(words & used[j])
        depth_j = above[rows_j]
        for k in range(min(d, max_tuple)):
            sel_rows = rows_j[depth_j == k]
            if not sel_rows.size:
                continue
            vw = vals[sel_rows]
            smallest = int(vw.min())
            for mu in range(p):
                slack = max(1, min(mu, p - mu))
                factor = slack * (2 * p) ** k
                vt = int(vals[mu * p ** (d - 1 - j)])
                ratio = Fraction(vt, slack * smallest)
                if k not in best or ratio > best[k]:
                    best[k] = ratio
                for row in [r for r, v in zip(sel_rows.tolist(), vw.tolist()) if v * factor < vt]:
                    coeffs = span_word(elems, row)[0]
                    found.append((int(support[row]), [i + 1 for i, c in enumerate(coeffs) if c],
                                  [c for c in coeffs if c], k, mu, row, vt, factor))
        above += used[j]
    violations = [{
        "check": "member-word-bound",
        "indices": indices,
        "coeffs": coeffs,
        "k": k,
        "mu": mu,
        "value_term": jsonio.frac_to_str(Fraction(vt, den)),
        "value_w": jsonio.frac_to_str(Fraction(int(vals[row]), den)),
        "bound": jsonio.frac_to_str(Fraction(factor * int(vals[row]), den)),
    } for _, indices, coeffs, k, mu, row, vt, factor in sorted(found)]
    return LemmaReport(
        inequality="member-word-bound",
        domain=(f"words over up to {min(d, max_tuple)} distinct reduced indices with "
                f"all-nonzero coefficients; k = 0..n-1; mu over F_{p}"),
        checked=p * int(support[words].sum()),
        violations=tuple(violations),
        max_ratio=max(best.values()) if best else None,
        ratios_by_k=best,
    )
