"""Norm families on truncated groups of prime exponent.

All values are exact rationals (fractions.Fraction); no floating point enters
any comparison. Hot paths run on integer numerators over the least common
denominator, stored as int64 when the sum of any two fits and as Python ints
otherwise; both storages give the same exact arithmetic. A cost is such a
vector: CostFunction holds integer numerators by rank over one denominator,
and graded_cost and random_cost draw them directly, with no Fraction per
element. A norm is its dense value table, such a vector too, indexed by rank
and built at construction under the enumeration cap: a Graev norm's by one
integer DP over all subsets of its points, _cover_table, which reads a
block of distances and so also values the words of a space too large for
a table. Norm.eval and values_of (by rank) read values from the table.

A norm here satisfies
  (1) N(g) = 0 iff g = 0,
  (2) N(-g) = N(g),
  (3) N(g + h) <= N(g) + N(h),
and validate_axioms checks all three exhaustively on the norm's table.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from random import Random
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import jsonio
from .errors import InputError
from .fpcore import (
    GroupElement,
    Truncation,
    require_size,
    truncation,
)

_INT64_MAX = int(np.iinfo(np.int64).max)


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if jsonio.is_int(value):
        return Fraction(value)
    raise InputError(f"{what} must be an exact rational (Fraction or int), got {value!r}")


def _storage(largest: int, headroom: int = 2):
    """int64 when a sum of ``headroom`` integers of magnitude at most
    ``largest`` cannot overflow it, Python ints (dtype object) otherwise."""
    return np.int64 if headroom * largest <= _INT64_MAX else object


def _scaled(values: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """Numerators of ``values`` over their least common denominator ``den``.

    Every caller adds at most two entries no larger in magnitude than the
    largest value, and the array is stored so that such a sum stays exact.
    """
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    return np.array(nums, dtype=_storage(max(map(abs, nums), default=0))), den


def _values_by_rank(tr: Truncation, pairs: Iterable, what: str) -> list[Fraction | None]:
    """The values of (element, value) pairs by rank of ``tr``, rank 0 None
    unless a pair values it. Conflicting duplicates and the first nonzero
    rank without a value are refused, in messages that name ``what``."""
    vals: list[Fraction | None] = [None] * tr.size
    for g, v in pairs:
        r = tr.rank_of(g)
        v = _as_fraction(v, f"{what} value")
        if vals[r] is not None and vals[r] != v:
            raise InputError(f"conflicting {what} entries for {g!r}")
        vals[r] = v
    for r in range(1, tr.size):
        if vals[r] is None:
            raise InputError(f"{what} missing for element of rank {r}")
    return vals


class PointedMetricSpace:
    """A finite metric space with a basepoint, distances exact rationals.

    Ingested matrices are repaired deterministically: the diagonal is forced
    to zero, each pair is symmetrized by the smaller directed entry, then the
    matrix is closed under shortest paths so the triangle inequality holds.
    Distinct points at repaired distance zero are rejected. The repair runs
    on integers: ``nums`` and ``den`` hold the repaired (n, n) matrix as
    _scaled stores it, numerators over the least common denominator.
    """

    def __init__(self, matrix: Sequence[Sequence], basepoint: int = 0):
        """matrix entries are Fractions or ints, or (numerator, denominator)
        int pairs with a positive denominator, as jsonio.pair_from_str
        parses them."""
        n = len(matrix)
        if n < 1:
            raise InputError("metric space needs at least one point")
        if jsonio.require_int(basepoint, "basepoint", low=0) >= n:
            raise InputError(f"basepoint {basepoint!r} out of range for {n} points")
        pairs = []
        for r in matrix:
            if len(r) != n:
                raise InputError("distance matrix must be square")
            pairs.extend(x if isinstance(x, tuple) else
                         _as_fraction(x, "distance").as_integer_ratio() for x in r)
        den = math.lcm(*(d for _, d in pairs))
        m = [a * (den // d) for a, d in pairs]
        # entries only shrink and stay nonnegative from here, so every
        # candidate path is a sum of two entries no larger than the largest
        m = np.array(m, dtype=_storage(max(map(abs, m)))).reshape(n, n)
        bad = np.argwhere(m < 0)
        if bad.size:
            raise InputError(f"negative distance at ({bad[0][0]}, {bad[0][1]})")
        m = np.minimum(m, m.T)
        np.fill_diagonal(m, 0)
        for k in range(n):
            np.minimum(m, m[:, k, None] + m[k], out=m)
        zero = m == 0
        np.fill_diagonal(zero, False)
        bad = np.argwhere(zero)
        if bad.size:
            raise InputError(f"points {bad[0][0]} and {bad[0][1]} are distinct but at distance 0")
        # dividing by the gcd leaves den the least common denominator
        g = math.gcd(den, *m.ravel().tolist())
        m //= g
        self.n_points = n
        self.basepoint = basepoint
        self.nums = m.astype(_storage(int(m.max())))
        self.den = den // g

    def dist(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.nums[i, j]), self.den)

    @cached_property
    def nonbase(self) -> tuple[int, ...]:
        """Point indices other than the basepoint, in natural order."""
        return tuple(i for i in range(self.n_points) if i != self.basepoint)

    def to_json_dict(self) -> dict:
        return {
            "basepoint": self.basepoint,
            "dist": [[jsonio.frac_to_str(Fraction(x, self.den)) for x in row]
                     for row in self.nums.tolist()],
        }


class CostFunction:
    """A symmetric positive cost on the nonzero elements of a truncation.

    ``nums`` and ``den`` hold the values as _scaled stores them: integer
    numerators by rank of ``tr`` over their least common denominator, with
    nums[0] = 0 for the zero element, which takes no cost. Every cost is
    built here, once its values are positive and symmetric under negation;
    each check reports its first offending rank.
    """

    def __init__(self, tr: Truncation, nums: np.ndarray, den: int):
        bad = np.flatnonzero(nums[1:] <= 0)
        if bad.size:
            r = int(bad[0]) + 1
            raise InputError(
                f"cost values must be positive, got {Fraction(int(nums[r]), den)} at rank {r}")
        bad = np.flatnonzero(nums != nums[tr.neg_perm])
        if bad.size:
            raise InputError(f"cost must satisfy c(g) = c(-g); differs at rank {int(bad[0])}")
        self.prime = tr.prime
        self.truncation = tr
        self.dim = tr.dim
        self.nums = nums
        self.den = den

    @classmethod
    def from_pairs(cls, p, dim: int, pairs: Iterable[tuple[GroupElement, Fraction]],
                   *, cap: int | None = None) -> "CostFunction":
        """The cost of ``pairs`` by _values_by_rank, iterated only after the cap check."""
        tr = truncation(p, dim, cap=cap)
        vals = _values_by_rank(tr, pairs, "cost")
        if vals[0] is not None:
            raise InputError("the zero element takes no cost entry")
        vals[0] = Fraction(0)
        return cls(tr, *_scaled(vals))

    def value_of_rank(self, r: int) -> Fraction:
        if r == 0:
            raise InputError("the zero element has no cost")
        return Fraction(int(self.nums[r]), self.den)


_DRAW_BLOCK = 1 << 20  # 32-bit words per getrandbits call: 4 MB


def _randrange_draws(seed, n: int, count: int) -> np.ndarray:
    """[Random(seed).randrange(n) for _ in range(count)] for n >= 1, int64
    below 2^63 choices. Below 2^32 each draw is one Mersenne Twister word
    shifted right by 32 - n.bit_length(), redrawn while it is >= n, and
    getrandbits(32 * m) gives m words lowest first, so blocks of them are
    read as little-endian uint32. Nothing else reads this generator, so the
    words of the last block past the last draw do no harm."""
    rng = Random(seed)
    if n >= 1 << 32:
        return np.array([rng.randrange(n) for _ in range(count)], dtype=_storage(n - 1, 1))
    shift = 32 - n.bit_length()
    kept, need = [np.zeros(0, dtype=np.int64)], count
    while need > 0:
        # the expected words for the draws still needed, and a few spare
        m = min(_DRAW_BLOCK, (need << (32 - shift)) // n + 4 * math.isqrt(need) + 16)
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4") >> shift
        kept.append(words[words < n][:need])
        need -= kept[-1].size
    return np.concatenate(kept, dtype=np.int64)


def _drawn_cost(tr: Truncation, seed, choices: int, bound: int, numerators,
                den: int) -> CostFunction:
    """A cost from the draws Random(seed).randrange(choices), one per pair
    {g, -g} of nonzero elements, taken in the order of their smaller ranks.

    numerators(ranks, draws) gives the values over den of the pairs' smaller
    ranks; none exceeds bound, which picks int64 or Python ints for them.
    Dividing the numerators and den by their gcd leaves den the least common
    denominator, and the numerators are stored as _scaled stores them.
    """
    neg, firsts = tr.neg_perm, tr.neg_firsts
    draws = _randrange_draws(seed, choices, firsts.size).astype(_storage(bound, 1), copy=False)
    raw = numerators(firsts, draws)
    nums = np.zeros(tr.size, dtype=raw.dtype)
    nums[firsts] = raw
    nums[neg[firsts]] = raw
    g = math.gcd(den, int(np.gcd.reduce(raw)))
    nums //= g
    return CostFunction(tr, nums.astype(_storage(int(nums.max()))), den // g)


def random_cost(seed: int, p, dim: int, low, high, *, steps: int = 60,
                cap: int | None = None) -> CostFunction:
    """Deterministic pseudorandom cost with values on a grid in [low, high].

    Values are low + (high-low) * k/steps for k drawn by random.Random(seed),
    so every value of one cost shares a denominator. Negation symmetry holds
    because the pair {g, -g} is assigned from a single draw.
    """
    jsonio.require_int(seed, "seed")
    low = _as_fraction(low, "low")
    high = _as_fraction(high, "high")
    if not 0 < low <= high:
        raise InputError(f"need 0 < low <= high, got {low} and {high}")
    jsonio.require_int(steps, "steps", low=1)
    tr = truncation(p, dim, cap=cap)
    # over the common denominator L of low and high, draw k has the value
    # (lo * steps + (hi - lo) * k) / (L * steps)
    L = math.lcm(low.denominator, high.denominator)
    lo, hi = int(low * L), int(high * L)
    return _drawn_cost(tr, seed, steps + 1, hi * steps,
                       lambda firsts, k: lo * steps + (hi - lo) * k, L * steps)


def graded_cost(seed: int, p, dim: int, *, steps: int = 60,
                cap: int | None = None) -> CostFunction:
    """Pseudorandom cost whose completion sorts the span by leading index.

    All values sit in [K/2, K) for K = 1/(4p)^dim, so every two-step path
    costs at least K and the completed norm equals the cost itself. Within
    that window, elements whose largest nonzero index is k draw from the
    k-th of dim disjoint sub-bands, in increasing order. The completed norm
    therefore lists the whole span in leading-index order, which guarantees
    a chain of strictly increasing leading indices of any length up to dim,
    with every value already below 1/(4p)^dim.
    """
    jsonio.require_int(seed, "seed")
    jsonio.require_int(steps, "steps", low=1)
    tr = truncation(p, dim, cap=cap)
    # with width = K/(2 dim), draw j at leading index k has the value
    # K/2 + (k-1) width + width j/steps = ((dim-1+k) steps + j) / (2 dim steps (4p)^dim)
    return _drawn_cost(
        tr, seed, steps, 2 * dim * steps,
        lambda firsts, j: (tr.top[firsts].astype(j.dtype) + dim - 1) * steps + j,
        2 * dim * steps * (4 * tr.prime.p) ** dim)


def random_metric_space(seed: int, n_points: int, low, high, *, basepoint: int = 0,
                        steps: int = 60) -> PointedMetricSpace:
    """Seeded random metric space; raw entries land in [low, high] before repair."""
    jsonio.require_int(seed, "seed")
    low = _as_fraction(low, "low")
    high = _as_fraction(high, "high")
    if not 0 < low <= high:
        raise InputError(f"need 0 < low <= high, got {low} and {high}")
    if jsonio.require_int(n_points, "n_points") < 1:
        raise InputError("need at least one point")
    jsonio.require_int(steps, "steps", low=1)
    rng = Random(seed)
    span = high - low
    rows = [[Fraction(0)] * n_points for _ in range(n_points)]
    for i in range(n_points):
        for j in range(i + 1, n_points):
            rows[i][j] = rows[j][i] = low + span * Fraction(rng.randrange(steps + 1), steps)
    return PointedMetricSpace(rows, basepoint=basepoint)


class Norm:
    """Base class for a norm on the truncation F_p^dim: its value table.

    ``_table`` holds the dense values, numerators by rank of ``truncation``
    over one denominator as _scaled stores them; every norm builds it at
    construction, under the enumeration cap."""

    kind = "abstract"

    def __init__(self, tr: Truncation, table: tuple[np.ndarray, int]):
        self.prime, self.dim, self.truncation = tr.prime, tr.dim, tr
        self._table = table
        self.axiom_report: AxiomReport | None = None  # validate_axioms' last report

    @cached_property
    def order(self) -> np.ndarray:
        """The ranks in (value, rank) order, read-only, sorted once."""
        order = value_order(self._table[0])
        order.flags.writeable = False
        return order

    def eval(self, g: GroupElement) -> Fraction:
        """The value of g; Truncation.rank_of checks g."""
        nums, den = self._table
        return Fraction(int(nums[self.truncation.rank_of(g)]), den)

    def values_of(self, ranks: np.ndarray) -> tuple[np.ndarray, int]:
        """Exact values of the elements of the given ranks, numerators as
        _scaled stores them over one denominator: one gather from the table.
        The values of span(elems) in word order are those of
        truncation.span_ranks(elems); c * elems[j] sits at row c * p^(k-1-j)."""
        nums, den = self._table
        return nums[ranks], den


class TableNorm(Norm):
    """Explicit lookup table covering every nonzero element of the truncation;
    ``entries`` is iterated only after the cap check, rank 0 may take a value."""

    kind = "table"

    def __init__(self, p, dim: int, entries: Iterable[tuple[GroupElement, Fraction]],
                 *, cap: int | None = None):
        tr = truncation(p, dim, cap=cap)
        vals = _values_by_rank(tr, entries, "table")
        if vals[0] is None:
            vals[0] = Fraction(0)
        for v in vals:
            if v < 0:
                raise InputError(f"table values cannot be negative, got {v}")
        super().__init__(tr, _scaled(vals))


class UltrametricProductNorm(Norm):
    """max of per-index weights (1/i by default, iterated after the cap check) over the support.

    Satisfies the strong inequality N(g+h) <= max(N(g), N(h)) for any positive
    weights, since the support of a sum is contained in the union of supports.
    The value table is built at construction, one integer pass per index.
    """

    kind = "ultrametric"

    def __init__(self, p, dim: int, weights: Iterable[Fraction] | None = None,
                 *, cap: int | None = None):
        tr = truncation(p, dim, cap=cap)
        if weights is None:
            ws = tuple(Fraction(1, i) for i in range(1, dim + 1))
        else:
            ws = tuple(_as_fraction(w, "weight") for w in weights)
            if len(ws) != dim:
                raise InputError(f"need {dim} weights, got {len(ws)}")
            if any(w <= 0 for w in ws):
                raise InputError("weights must be positive")
        self.weights = ws
        # every weight is the value of its unit, so the weights' scaling is
        # the table's; putting e_i in front of the words over e_(i+1)..e_dim
        # keeps the values of coefficient 0 and raises the others to >= w_i
        w, den = _scaled(ws)
        nums = np.zeros(1, dtype=w.dtype)
        for w_i in w[::-1]:
            nums = np.concatenate([nums] + [np.maximum(nums, w_i)] * (tr.prime.p - 1))
        super().__init__(tr, (nums, den))


class CostCompletionNorm(Norm):
    """Largest norm below a cost: minimum over decompositions of the summed cost.

    Equivalently the single-source shortest-path distance from 0 in the
    complete Cayley graph whose edge {u, v} weighs c(u - v). The whole value
    table is computed once at construction; evaluation is a lookup.
    """

    kind = "cost_completion"

    def __init__(self, cost: CostFunction):
        super().__init__(cost.truncation, _shortest_path_values(cost.truncation, cost))


def _shortest_path_values(tr: Truncation, cost: CostFunction) -> tuple[np.ndarray, int]:
    """Dijkstra from 0 over the complete Cayley graph, one vectorized row per step.

    Settling the source relaxes along the identity row, so the loop starts
    from the direct edge costs with rank 0 settled and no row built. No
    distance ever exceeds the largest cost: ``inf`` marks finished vertices,
    and every sum formed here adds two numbers no larger than that cost.

    The loop stops early once d + w_min >= the largest unsettled distance,
    where d is the smallest unsettled distance and w_min the smallest cost.
    Every unsettled distance is then final: a shorter path would have to
    leave the settled set at a vertex at distance >= d and then take at least
    one more edge, of weight >= w_min. Settled distances never exceed d, so
    the largest unsettled distance is the largest distance. A cost whose
    values all lie in [c, 2c], such as a graded one, builds no row at all.

    ``unsettled`` is dist with every settled rank at inf, so a step takes
    one argmin. The first row allocates the rank row, its gathered costs and
    the settled ranks, and every row is written into them: a size-long
    temporary per row can cost a fresh page-faulted map each time, since
    glibc may hand such blocks back to the system between rows.
    """
    size = tr.size
    # weight 0 at rank 0 makes each self-loop a relaxation that changes nothing
    w, den = cost.nums, cost.den
    inf = int(w.max()) + 1
    w_min = int(w[1:].min())
    dist = w.copy()
    unsettled = w.copy()
    unsettled[0] = inf
    settled = None
    for k in range(1, size):
        u = int(unsettled.argmin())
        if int(dist[u]) + w_min >= int(dist.max()):
            break
        if settled is None:
            row, via, settled = np.empty(size, np.int64), np.empty_like(w), np.zeros(size, np.int64)
        settled[k] = u
        # every rank is in range; the default mode="raise" buffers ``out``
        np.take(w, tr.sub_rank_row(u, row), out=via, mode="clip")
        via += dist[u]
        np.minimum(dist, via, out=dist)
        np.minimum(unsettled, via, out=unsettled)
        unsettled[settled[:k + 1]] = inf  # no settled rank is relaxed again
    return dist, den


def _cover_table(dist: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """The cover cost of every subset of k points, by mask: bit b of a mask
    stands for point b. ``dist`` is their distance block, numerators over
    ``den``: k rows, and k + 1 columns, point c at column c and the
    basepoint last. One integer DP, whose 2^k masks each caller caps first.

    The masks whose lowest set bit is b are taken together, for b from
    k - 1 down to 0: the point at b is left alone or paired with a point at
    a higher bit c, and both leave a mask whose lowest bit is above b.
    Every value and candidate sum is at most k times the largest distance
    read, which picks the DP storage. Every distance is itself a value (a
    singleton, or by the triangle inequality a pair), so when ``den`` is the
    least common denominator of the block, it is the table's.
    """
    d = len(dist)
    val = np.zeros(2 ** d, dtype=_storage(int(dist.max(initial=0)), d))
    for b in reversed(range(d)):
        step = 2 ** (b + 1)
        rest = val[::step]  # the masks without b: every subset of the higher bits
        best = rest + int(dist[b, d])
        for c in range(b + 1, d):
            half = 2 ** (c - b - 1)
            with_c = best.reshape(-1, 2, half)[:, 1]
            np.minimum(with_c, rest.reshape(-1, 2, half)[:, 0] + int(dist[b, c]), out=with_c)
        val[2 ** b::step] = best
    return val.astype(_storage(int(val.max())), copy=False), den


_last_cover = (None, lambda: None)  # a block and a weak reference to its table


def _shared_cover_table(dist: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """_cover_table(dist, den), read-only, through a one-entry memo keyed by
    the block's dtype, shape and entries (Python ints on object storage),
    which holds the table by a weak reference only, so the table goes with
    its norm. The entry is one tuple, so racing threads can only miss."""
    global _last_cover
    block, ref = _last_cover
    table = ref()
    if table is None or block.dtype != dist.dtype or not np.array_equal(block, dist):
        table = _cover_table(dist, den)[0]
        table.flags.writeable = False
        _last_cover = dist.copy(), weakref.ref(table)
    return table, den


class GraevBooleanNorm(Norm):
    """Graev-style norm on the Boolean group of a pointed metric space.

    Elements are finite subsets of the non-basepoint points (prime 2, one
    group index per point in natural order); the value of a subset is its
    minimum pair/singleton cover cost. The whole table is built at
    construction by _shared_cover_table, once the truncation fits the
    enumeration cap ``cap``.
    """

    kind = "graev_boolean"

    def __init__(self, space: PointedMetricSpace, *, cap: int | None = None):
        if space.n_points < 2:
            raise InputError("need at least one non-basepoint point")
        tr = truncation(2, space.n_points - 1, cap=cap)
        # bit b of a rank carries group index dim - b
        pts = space.nonbase[::-1]
        super().__init__(tr, _shared_cover_table(space.nums[np.ix_(pts, [*pts, space.basepoint])],
                                                 space.den))
        self.space = space


@dataclass(frozen=True)
class AxiomReport:
    """Exhaustive axiom check over a truncated domain; full violation list."""

    kind: str
    prime: int
    dim: int
    elements_checked: int
    pairs_checked: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "prime": self.prime,
            "dim": self.dim,
            "elements_checked": self.elements_checked,
            "pairs_checked": self.pairs_checked,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def _is_own_completion(tr: Truncation, nums: np.ndarray) -> bool:
    """Whether the p = 2 table ``nums``, 0 at rank 0 and positive on E, is
    the cover table of its own values on E (validate_axioms): point b is
    rank bit b and the basepoint, last, is rank 0, with points x and y at
    distance N(x ^ y), which PointedMetricSpace closes under shortest paths
    (it refuses a zero distance, hence the caller's N > 0 check first).
    A Graev norm's pair values are its space's closed distances, so while
    the norm lives _shared_cover_table returns its table and runs no DP."""
    pts = [1 << b for b in range(tr.dim)] + [0]
    space = PointedMetricSpace([[(int(nums[x ^ y]), 1) for y in pts] for x in pts], tr.dim)
    return np.array_equal(_shared_cover_table(space.nums[:-1], space.den)[0], nums)


def _triangle_scan(tr: Truncation, nums: np.ndarray, order: np.ndarray, sorted_nums: np.ndarray,
                   ends: np.ndarray, n_pos: int) -> list[tuple[np.ndarray, ...]]:
    """(g, h, g + h) rank arrays of the axiom (3) violations among the
    candidate pairs of the first n_pos value-sorted positions: position i
    pairs order[i] with order[i:ends[i]].

    One step per position, on Python scalars: its slices are short, so
    NumPy's per-call overhead is what there is to save. The zero element
    takes no step when N(0) >= 0: 0 + h = h, and N(h) <= N(0) + N(h).
    """
    add = np.bitwise_xor if tr.prime.p == 2 else lambda hs, g: tr.add_ranks(g, hs)
    found = []
    for i, g, end, v in zip(range(n_pos), order[:n_pos].tolist(), ends[:n_pos].tolist(),
                            sorted_nums[:n_pos].tolist()):
        if g == 0 and v >= 0:
            continue
        hs = order[i:end]
        sums = add(hs, g)
        bad = (nums[sums] > v + sorted_nums[i:end]).nonzero()[0]
        if bad.size:
            found.append((np.full(bad.size, g), hs[bad], sums[bad]))
    return found


def _sure_candidates(nums: np.ndarray) -> int:
    """k(k + 1) / 2 for the k values v < max / 2, that is v < ceil(max / 2):
    a lower bound on the scan's candidate pairs, since any two of them, or
    one taken twice, sum below max."""
    k = int(np.count_nonzero(nums < (int(nums.max()) + 1) // 2))
    return k * (k + 1) // 2


def value_order(nums: np.ndarray) -> np.ndarray:
    """np.argsort(nums, kind="stable"). For int64 values below 2^62 // size
    in magnitude it is one plain sort of the distinct keys value * size +
    rank and a floor modulo by size."""
    size = nums.size
    if nums.dtype == np.int64 and size and \
            max(int(nums.max()), -int(nums.min())) < (1 << 62) // size:
        keys = nums * size
        keys += np.arange(size)
        keys.sort()
        return np.remainder(keys, size, out=keys)
    return np.argsort(nums, kind="stable")


def validate_axioms(norm: Norm, *, cap: int | None = None, threads: int = 1) -> AxiomReport:
    """Check axioms (1)-(3) on the whole truncation; cache the result on the norm.

    Axiom (3) covers all unordered pairs, and ``pairs_checked`` counts them
    all. It is proved by one of two exact arguments:

    - The pair scan. Since N(g + h) <= max N, only pairs with
      N(g) + N(h) < max N can violate it, and only those are summed: with the
      ranks sorted by value, the partners of the i-th one from position i on
      are the slice up to the first value >= max N - (its value).
    - The generator certificate, at p = 2 only. Let E be the ranks of
      support 1 and 2, and N > 0 on E. If N(g) = min over e in E of
      N(g - e) + N(e) for every g != 0, N is subadditive: every term gives
      N(x + e) <= N(x) + N(e), and the attained ones write g as
      e_1 + ... + e_k with N(g) = sum N(e_i), since N drops at each step.
      These equations hold exactly when N is the shortest-path distance over
      E weighted by N, whose cheapest path to g is a minimum T-join on g's
      bits (and the basepoint): a perfect matching under the closed weights
      (Edmonds and Johnson, 1973), the cheapest cover by pairs and
      singletons. So _is_own_completion compares N with the Graev table of
      its own values on E, one DP of order dim * size, which a live Graev
      norm passes with no DP: it reads the table the build made.

    The choice is made on work counted before either runs: at p = 2, the
    scan's candidate pairs against dim * size; odd p always scans. The
    certificate is tried only when it is cheaper and axiom (1) has no
    violation (which gives N(e) > 0). The k values below max N / 2 give at
    least k(k + 1) / 2 candidates, so the pairs are counted, on the value
    order, only when that bound cannot decide. If the certificate is
    refuted, the scan runs as it would have, so the worst case costs at most
    twice the scan and every violation is found by the scan. Violations are
    listed by (g, h) ranks, g <= h. The check reads the norm's own table and
    value order and builds neither. ``threads`` must be a positive integer
    and changes nothing: everything runs on the calling thread. The report
    is cached on the norm object so downstream operations can require a
    clean validation.
    """
    jsonio.require_int(threads, "threads", low=1)
    size = require_size(norm.prime.p, norm.dim, cap)
    nums, den = norm._table
    tr = norm.truncation
    violations: list[dict] = []

    ser = {}  # element serializations by rank, built for the violations only

    def pairs_of(r: int):
        if r not in ser:
            ser[r] = jsonio.element_to_pairs(tr.element_of(r))
        return ser[r]

    def value(r: int) -> str:
        return jsonio.frac_to_str(Fraction(int(nums[r]), den))

    axiom1 = nums > 0
    axiom1[0] = nums[0] == 0
    for r in np.flatnonzero(~axiom1).tolist():
        violations.append({"axiom": 1, "element": pairs_of(r), "value": value(r)})

    neg, firsts = tr.neg_perm, tr.neg_firsts  # rank 0 is its own negation
    for r in firsts[nums[firsts] != nums[neg[firsts]]].tolist():
        violations.append({
            "axiom": 2,
            "element": pairs_of(r),
            "value": value(r),
            "negated_value": value(int(neg[r])),
        })

    def scan_inputs():
        sorted_nums = nums[norm.order]
        ends = np.searchsorted(sorted_nums, nums.max() - sorted_nums)
        # ends[i] - i never grows with i, so the positions with partners come first
        return norm.order, sorted_nums, ends, int(np.count_nonzero(ends > tr.identity))

    def candidates(scan) -> int:  # sum(ends[i] - i) for i < n_pos
        *_, ends, n_pos = scan
        return int(ends[:n_pos].sum()) - n_pos * (n_pos - 1) // 2

    work, scan = tr.dim * size, None
    if tr.prime.p == 2 and axiom1.all() \
            and (work < _sure_candidates(nums) or work < candidates(scan := scan_inputs())) \
            and _is_own_completion(tr, nums):
        found = []
    else:
        found = _triangle_scan(tr, nums, *(scan or scan_inputs()))
    if found:
        a, b, s = map(np.concatenate, zip(*found))
        g, h = np.minimum(a, b), np.maximum(a, b)
        for k in np.lexsort((h, g)).tolist():
            g_k, h_k, s_k = int(g[k]), int(h[k]), int(s[k])
            violations.append({
                "axiom": 3,
                "g": pairs_of(g_k),
                "h": pairs_of(h_k),
                "sum": pairs_of(s_k),
                "value_g": value(g_k),
                "value_h": value(h_k),
                "value_sum": value(s_k),
            })

    report = AxiomReport(
        kind=norm.kind,
        prime=norm.prime.p,
        dim=norm.dim,
        elements_checked=size,
        pairs_checked=size * (size + 1) // 2,
        violations=tuple(violations),
    )
    norm.axiom_report = report
    return report


def _valued_elements(cfg: dict, key: str, what: str) -> Iterator[tuple[GroupElement, Fraction]]:
    """An iterator of the (element, value) pairs of the list cfg[key] of
    {"element", "value"} objects, each checked as a ``what`` when it is read."""
    for e in jsonio.require_list(cfg[key], what=key):
        jsonio.require_keys(e, ["element", "value"], [], what=what)
        yield (jsonio.element_from_pairs(cfg["prime"], e["element"]),
               jsonio.frac_from_str(e["value"]))


def norm_from_config(cfg: Mapping, *, cap: int | None = None) -> Norm:
    """Build a norm from a JSON config document (strict keys, 'num/den' rationals)."""
    if not isinstance(cfg, dict):
        raise InputError(f"norm config must be a JSON object, got {type(cfg).__name__}")
    jsonio.require_keys(cfg, ["kind"],
                        ["prime", "dim", "weights", "entries", "seed", "low", "high",
                         "steps", "graded", "costs", "space"],
                        what="norm config")
    kind = cfg["kind"]
    if kind == "ultrametric":
        jsonio.require_keys(cfg, ["kind", "prime", "dim"], ["weights"],
                            what="ultrametric config")
        weights = cfg.get("weights")
        if weights is not None:  # an iterator, read after the cap check
            weights = map(jsonio.frac_from_str, jsonio.iter_list(weights, what="weights"))
        return UltrametricProductNorm(cfg["prime"], cfg["dim"], weights, cap=cap)
    if kind == "table":
        jsonio.require_keys(cfg, ["kind", "prime", "dim", "entries"], [],
                            what="table config")
        entries = _valued_elements(cfg, "entries", "table entry")
        return TableNorm(cfg["prime"], cfg["dim"], entries, cap=cap)
    if kind == "cost_completion":
        if "costs" in cfg:
            jsonio.require_keys(cfg, ["kind", "prime", "dim", "costs"], [],
                                what="cost_completion config")
            pairs = _valued_elements(cfg, "costs", "cost entry")
            cost = CostFunction.from_pairs(cfg["prime"], cfg["dim"], pairs, cap=cap)
            return CostCompletionNorm(cost)
        jsonio.require_keys(cfg, ["kind", "prime", "dim", "seed"],
                            ["low", "high", "steps", "graded"],
                            what="cost_completion config")
        steps = cfg.get("steps", 60)
        if jsonio.require_flag(cfg.get("graded", False), "graded"):
            if "low" in cfg or "high" in cfg:
                raise InputError("graded cost_completion configs fix their own value range")
            cost = graded_cost(cfg["seed"], cfg["prime"], cfg["dim"], steps=steps, cap=cap)
            return CostCompletionNorm(cost)
        if "low" not in cfg or "high" not in cfg:
            raise InputError("seeded cost_completion configs need low and high")
        cost = random_cost(cfg["seed"], cfg["prime"], cfg["dim"],
                           jsonio.frac_from_str(cfg["low"]),
                           jsonio.frac_from_str(cfg["high"]), steps=steps, cap=cap)
        return CostCompletionNorm(cost)
    if kind == "graev_boolean":
        jsonio.require_keys(cfg, ["kind", "space"], ["prime", "dim"],
                            what="graev_boolean config")
        if jsonio.require_int(cfg.get("prime", 2), "prime") != 2:
            raise InputError("graev_boolean norms require prime 2")
        if "dim" in cfg:
            jsonio.require_int(cfg["dim"], "dimension", low=1)
        sp = cfg["space"]
        jsonio.require_keys(sp, ["basepoint", "dist"], [], what="metric space")
        rows = jsonio.require_list(sp["dist"], what="dist")
        if len(rows) > 1:  # the table's cap, before any entry is parsed or repaired
            require_size(2, len(rows) - 1, cap)
        matrix = [[jsonio.pair_from_str(x) for x in jsonio.require_list(row, what="dist row")]
                  for row in rows]
        space = PointedMetricSpace(matrix, basepoint=sp["basepoint"])
        norm = GraevBooleanNorm(space, cap=cap)
        if "dim" in cfg and cfg["dim"] != norm.dim:
            raise InputError(f"space has {norm.dim} non-basepoint points, config says {cfg['dim']}")
        return norm
    raise InputError(f"unknown norm kind {kind!r}")
