"""Independent reference implementations used to pin expected test values.

Everything in here is deliberately naive: different algorithms from the
package (full partition enumeration instead of subset DP, edge relaxation to
a fixpoint instead of Dijkstra, nested loops instead of vectorized rows).
Agreement between the two is what the tests assert.
"""

from fractions import Fraction

from fpmap.fpcore import GroupElement, Truncation, enumerate_span


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


def brute_axiom_violations(norm, dim):
    """All axiom violations on the truncation, by plain nested loops."""
    tr = Truncation(norm.prime, dim)
    elems = tr.elements()
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
