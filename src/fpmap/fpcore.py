"""Sparse linear algebra over F_p for groups of prime exponent.

Group elements are finitely supported coefficient vectors indexed by positive
integers; addition is componentwise mod p, so the group is a vector space over
F_p and "basis" means linear independence. Everything here is exact integer
arithmetic with deterministic tie-breaking (leftmost column, lowest row pivot).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapExceededError, InputError
from .jsonio import is_int, require_int

PRIME_CAP = 97
DEFAULT_ENUM_CAP = 10_000_000

_SHARED_SLOTS = 4  # the (p, dim) pairs whose truncation and standard basis are kept
_SHARED_MAX_SIZE = 1 << 16  # larger truncations are not kept: their tables go with their owner


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True, order=True)
class Prime:
    """A validated prime modulus."""

    p: int

    def __post_init__(self):
        require_int(self.p, "prime")
        if self.p < 2 or self.p > PRIME_CAP:
            raise InputError(f"prime must lie in [2, {PRIME_CAP}], got {self.p}")
        if not _is_prime(self.p):
            raise InputError(f"{self.p} is not prime")


def as_prime(p) -> Prime:
    return p if isinstance(p, Prime) else Prime(p)


@dataclass(frozen=True)
class GroupElement:
    """A finitely supported coefficient vector over F_p.

    ``items`` holds (index, coefficient) pairs sorted by strictly increasing
    index, with coefficients reduced to 1..p-1 (zero coefficients dropped).
    Index 0 is reserved and rejected. Instances are immutable and hashable.
    """

    prime: Prime
    items: tuple[tuple[int, int], ...]

    def __post_init__(self):
        p = self.prime.p
        last = 0
        for idx, c in self.items:
            if not is_int(idx) or idx < 1:
                raise InputError(f"indices must be positive integers, got {idx!r}")
            if idx <= last:
                raise InputError("items must be sorted by strictly increasing index")
            if not is_int(c) or not 1 <= c <= p - 1:
                raise InputError(f"coefficient {c!r} at index {idx} is not reduced mod {p}")
            last = idx

    @classmethod
    def make(cls, p, coeffs=()) -> "GroupElement":
        """Build an element from any index->coefficient mapping or pair iterable."""
        prime = as_prime(p)
        pairs = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for idx, c in pairs:
            if not is_int(idx) or idx < 1:
                raise InputError(f"indices must be positive integers, got {idx!r}")
            if not is_int(c):
                raise InputError(f"coefficient at index {idx} must be an integer, got {c!r}")
            acc[idx] = (acc.get(idx, 0) + c) % prime.p
        g = object.__new__(cls)  # sorted, reduced and nonzero: not checked again
        g.__dict__.update(prime=prime, items=tuple(sorted((i, c) for i, c in acc.items() if c)))
        return g

    @classmethod
    def zero(cls, p) -> "GroupElement":
        return cls(as_prime(p), ())

    @classmethod
    def unit(cls, p, index: int, coeff: int = 1) -> "GroupElement":
        return cls.make(p, [(index, coeff)])

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.items)

    @property
    def max_index(self) -> int:
        """Largest index carrying a nonzero coefficient; 0 for the zero element."""
        return self.items[-1][0] if self.items else 0

    def coeff(self, index: int) -> int:
        for i, c in self.items:
            if i == index:
                return c
            if i > index:
                break
        return 0

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other: "GroupElement") -> "GroupElement":
        _same_prime(self.prime.p, other.prime.p)
        return GroupElement.make(self.prime, self.items + other.items)

    def __neg__(self) -> "GroupElement":
        return self.smul(-1)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def smul(self, k: int) -> "GroupElement":
        """Scalar multiple k*g with k reduced mod p."""
        return GroupElement.make(self.prime, [(i, c * k) for i, c in self.items])

    def __rmul__(self, k: int) -> "GroupElement":
        if not is_int(k):
            return NotImplemented
        return self.smul(k)

    def __repr__(self):
        if not self.items:
            return "0"
        return " + ".join(f"e{i}" if c == 1 else f"{c}*e{i}" for i, c in self.items)


def _same_prime(a: int, b: int) -> None:
    """Refuse two different primes, given by their values."""
    if a != b:
        raise InputError(f"mismatched primes: {a} vs {b}")


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form over F_p, in place.

    Pivot rule: scan columns left to right, take the lowest-numbered remaining
    row with a nonzero entry. Returns (rows, pivot_columns).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def running_ranks(elems: Iterable[GroupElement], p=None) -> list[int]:
    """Rank of each prefix elems[:1], elems[:2], ... as vectors over F_p.

    One forward elimination over sparse rows: each pivot row is an
    index -> coefficient dict whose lowest index, its pivot, carries
    coefficient 1, and no two pivots coincide. An element is reduced by the
    pivot row at its lowest index until that index has none; what is left
    is then independent of the rows so far and becomes a new pivot row.
    """
    elems = tuple(elems)
    if not elems:
        return []
    prime = as_prime(p) if p is not None else elems[0].prime
    q = prime.p
    pivots: dict[int, dict[int, int]] = {}
    out = []
    for g in elems:
        _same_prime(g.prime.p, q)
        v = dict(g.items)
        while v:
            lead = min(v)
            row = pivots.get(lead)
            if row is None:
                inv = pow(v[lead], -1, q)
                pivots[lead] = {i: c * inv % q for i, c in v.items()}
                break
            f = v[lead]
            for i, c in row.items():
                x = (v.get(i, 0) - f * c) % q
                if x:
                    v[i] = x
                else:
                    del v[i]
        out.append(len(pivots))
    return out


def rank(elems: Iterable[GroupElement], p=None) -> int:
    """Rank of the set of elements as vectors over F_p."""
    ranks = running_ranks(elems, p)
    return ranks[-1] if ranks else 0


def solve_in_span(g: GroupElement, elems: Sequence[GroupElement]) -> tuple[int, ...] | None:
    """One coefficient vector with g = sum(coeffs[j] * elems[j]), or None.

    Works for dependent spanning sets too (free coefficients are set to 0);
    for an independent set the solution is the unique one.
    """
    elems = tuple(elems)
    for e in elems:
        _same_prime(g.prime.p, e.prime.p)
    p = g.prime.p
    span_indices = sorted({i for e in elems for i in e.support})
    if any(i not in set(span_indices) for i in g.support):
        return None
    col = {idx: r for r, idx in enumerate(span_indices)}
    nrows = len(span_indices)
    ncols = len(elems)
    aug = [[0] * (ncols + 1) for _ in range(nrows)]
    for j, e in enumerate(elems):
        for i, c in e.items:
            aug[col[i]][j] = c
    for i, c in g.items:
        aug[col[i]][ncols] = c
    aug, pivots = _rref(aug, p)
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    coeffs = [0] * ncols
    for r, c in enumerate(pivots):
        coeffs[c] = aug[r][ncols]
    return tuple(coeffs)


@dataclass(frozen=True)
class OrderedBasis:
    """An ordered, independent tuple of nonzero elements over one prime."""

    prime: Prime
    elems: tuple[GroupElement, ...]

    def __post_init__(self):
        for g in self.elems:
            _same_prime(g.prime.p, self.prime.p)
            if g.is_zero():
                raise InputError("basis elements must be nonzero")
        if rank(self.elems, self.prime) != len(self.elems):
            raise InputError("basis elements must be linearly independent")

    @classmethod
    def standard(cls, p, dim: int) -> "OrderedBasis":
        """e_1..e_dim, shared per process like truncation's tables."""
        return _standard_basis(as_prime(p).p, require_int(dim, "dimension", low=1))

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, n):
        return self.elems[n]


@lru_cache(maxsize=_SHARED_SLOTS)
def _standard_basis(p: int, dim: int) -> OrderedBasis:
    return OrderedBasis(as_prime(p), tuple(GroupElement.unit(p, i) for i in range(1, dim + 1)))


def is_independent(elems: Iterable[GroupElement], p=None) -> bool:
    """Fast independence check: rank equals cardinality."""
    elems = tuple(elems)
    return rank(elems, p) == len(elems)


def word_digits(row: int, p: int, k: int) -> tuple[int, ...]:
    """The k base-p digits of ``row``, most significant first: the
    coefficients of word ``row`` of a span of k elements, that of the first
    element most significant (word order)."""
    return tuple(row // p ** (k - 1 - j) % p for j in range(k))


def rank_digits(ranks, p: int, k: int) -> np.ndarray:
    """word_digits of each of the given ranks, as an (n, k) int64 array."""
    return np.asarray(ranks, dtype=np.int64)[:, None] // p ** np.arange(k - 1, -1, -1) % p


def require_size(p: int, dim, cap: int | None) -> int:
    """p ** dim, once dim is a positive integer and p ** dim <= cap."""
    require_int(dim, "dimension", low=1)
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    # p ** dim > cap once dim passes cap.bit_length(), so such a dim is
    # refused before the power is formed. The message writes p^dim past
    # 14000 bits: str() writes no int of more than 4300 digits
    if dim > cap.bit_length() or p ** dim > cap:
        size = f"{p}^{dim}" if dim * p.bit_length() > 14_000 else p ** dim
        raise CapExceededError(f"truncation has {size} elements, above cap {cap}")
    return p ** dim


def truncation(p, dim: int, *, cap: int | None = None) -> "Truncation":
    """The Truncation of F_p^dim once p (at most PRIME_CAP), dim
    and the size (under ``cap``) pass the constructor's checks; one of at most
    _SHARED_MAX_SIZE elements is shared, for the last _SHARED_SLOTS pairs."""
    prime = as_prime(p)
    if require_size(prime.p, dim, cap) > _SHARED_MAX_SIZE:
        return Truncation(prime, dim, cap=cap)
    return _shared_truncation(prime.p, dim)


class Truncation:
    """Dense view of span(e_1..e_dim): elements indexed by lexicographic rank.

    Rank r corresponds to the coefficient vector given by the base-p digits of
    r with the coefficient of e_1 most significant, so rank r is word r of
    the standard basis.

    For p != 2 the rank rows work on two halves of the digits: with
    lo = ceil(dim/2), rank r = high * p^lo + low, where high holds the first
    dim - lo digits and low the last lo. Each half keeps its p^k digit vectors
    and the weights that turn them back into a rank, so a row is the outer sum
    of one row over the high halves and one over the low halves, and no
    (size, dim) table of coefficient vectors is ever built. Every table is
    read-only, built on first use and depends on (p, dim) alone.
    """

    def __init__(self, p, dim: int, *, cap: int | None = None):
        self.prime = as_prime(p)
        self.size = require_size(self.prime.p, dim, cap)
        self.dim = dim
        self._span = (), _read_only(np.zeros(1, dtype=np.int64))  # (elements, ranks) last built

    @cached_property
    def _halves(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(p^lo, high digits, high weights, low digits, low weights).

        The weights are the full rank's, p^(dim-1) .. 1, split between the
        halves, so a high-half row already holds the high part of the rank.
        dim = 1 leaves the high half with one empty digit vector.
        """
        p, d = self.prime.p, self.dim
        lo = (d + 1) // 2
        w = p ** np.arange(d - 1, -1, -1)
        return (p ** lo, *map(_read_only, (rank_digits(np.arange(p ** (d - lo)), p, d - lo),
                                          w[:d - lo], rank_digits(np.arange(p ** lo), p, lo),
                                          w[d - lo:])))

    @cached_property
    def identity(self) -> np.ndarray:
        """The int64 ranks 0..size-1, read-only."""
        return _read_only(np.arange(self.size, dtype=np.int64))

    @cached_property
    def neg_perm(self) -> np.ndarray:
        """neg_perm[r] is the rank of the negation of rank r; for p = 2, the
        identity itself."""
        p = self.prime.p
        if p == 2:
            return self.identity
        _, high, high_w, low, low_w = self._halves
        return _read_only(np.add.outer((-high % p) @ high_w, (-low % p) @ low_w).ravel())

    @cached_property
    def neg_firsts(self) -> np.ndarray:
        """The nonzero ranks r with neg_perm[r] >= r, increasing: the
        smaller rank of each pair {g, -g} of nonzero elements."""
        if self.prime.p == 2:
            return self.identity[1:]
        return _read_only(np.flatnonzero(self.neg_perm >= self.identity)[1:])

    def words_within(self, t: int) -> np.ndarray:
        """The nonzero ranks of support at most t, increasing, read-only."""
        if t >= self.dim:
            return self.identity[1:]
        return _read_only(np.flatnonzero(self.support <= t)[1:])

    def rank_of(self, g: GroupElement) -> int:
        _same_prime(g.prime.p, self.prime.p)
        if g.max_index > self.dim:
            raise InputError(f"index {g.max_index} outside truncation of dimension {self.dim}")
        p, d = self.prime.p, self.dim
        r = 0
        for i, c in g.items:
            r += c * p ** (d - i)
        return r

    @cached_property
    def top(self) -> np.ndarray:
        """top[r], int8, is the max_index of element_of(r) (0 for rank 0): a
        nonzero rank that ends in exactly j zero digits has top dim - j."""
        p, d = self.prime.p, self.dim
        top = np.full(p ** d, d, dtype=np.int8)
        for j in range(1, d):
            top[::p ** j] = d - j
        top[0] = 0
        return _read_only(top)

    @cached_property
    def support(self) -> np.ndarray:
        """support[r], int8, is the number of nonzero coefficients of
        element_of(r): the outer sum of those of its two halves."""
        high, low = (np.count_nonzero(h, axis=1).astype(np.int8) for h in self._halves[1::2])
        return _read_only(np.add.outer(high, low).ravel())

    @cached_property
    def strip(self) -> np.ndarray:
        """strip[r] is rank r without its top term, so the k-th strip of r has
        r's k-th term from the top as its top; int32 up to 2^31 elements. Rank
        q * p + c has the strip q * p for c != 0, and q's strip times p for c = 0."""
        p = self.prime.p
        rank_type = np.int32 if self.size <= 2 ** 31 else np.int64
        strip = np.zeros(1, dtype=rank_type)
        for _ in range(self.dim):
            q = np.empty((strip.size, p), dtype=rank_type)
            q[:, 0], q[:, 1:] = strip * p, np.arange(0, strip.size * p, p, dtype=rank_type)[:, None]
            strip = q.ravel()
        return _read_only(strip)

    def element_of(self, r: int) -> GroupElement:
        if not 0 <= r < self.size:
            raise InputError(f"rank {r} out of range for truncation of size {self.size}")
        digits = word_digits(r, self.prime.p, self.dim)
        return GroupElement(self.prime, tuple((i, c) for i, c in enumerate(digits, 1) if c))

    def _half_rows(self, r: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(p^lo, high-half row, low-half row) of rank r, for p != 2.

        Digitwise addition mod p has no carry, so neither half spills into the
        other: the rank of element_of(r) + element_of(q) is
        high_row[q // p^lo] + low_row[q % p^lo].
        """
        p = self.prime.p
        base, high, high_w, low, low_w = self._halves
        row_high = ((high + high[r // base]) % p) @ high_w
        row_low = ((low + low[r % base]) % p) @ low_w
        return base, row_high, row_low

    def add_rank_row(self, r: int, out: np.ndarray | None = None) -> np.ndarray:
        """Ranks of (g + element_of(r)) for every rank g, as one vectorized row,
        written into ``out`` (int64, size entries) when it is given."""
        if self.prime.p == 2:  # a fresh arange per row would cost a page-faulted map
            return np.bitwise_xor(self.identity, np.int64(r), out=out)
        _, row_high, row_low = self._half_rows(r)
        grid = None if out is None else out.reshape(row_high.size, row_low.size)
        return np.add.outer(row_high, row_low, out=grid).ravel()

    def add_ranks(self, r: int, ranks: np.ndarray) -> np.ndarray:
        """Ranks of (element_of(q) + element_of(r)) for the given ranks q only:
        the entries of add_rank_row(r) at ``ranks``, without the full row."""
        if self.prime.p == 2:
            return np.bitwise_xor(ranks, np.int64(r))
        base, row_high, row_low = self._half_rows(r)
        return row_high[ranks // base] + row_low[ranks % base]

    def sub_rank_row(self, r: int, out: np.ndarray | None = None) -> np.ndarray:
        """Ranks of (g - element_of(r)) for every rank g, into ``out`` as
        add_rank_row writes it."""
        return self.add_rank_row(int(self.neg_perm[r]), out)

    def extend_span(self, ranks: np.ndarray, g: GroupElement) -> np.ndarray:
        """Ranks of span(elems + [g]) from the ranks of span(elems), both in
        word order: the words so far plus c * g, c = 1..p-1, computed
        only at those words. For p != 2, words with no index from g's first on
        take c * g without a carry (a reduction meeting the next unit); else g's
        half rows are built once and each layer steps every word's two halves,
        by one gather each. The span of no elements has the ranks [0]."""
        p, r = self.prime.p, self.rank_of(g)
        if p != 2 and g.items and int(self.top[ranks].max(initial=0)) < g.items[0][0]:
            steps = [sum(c * a % p * p ** (self.dim - i) for i, a in g.items) for c in range(p)]
            return (ranks[:, None] + np.array(steps, dtype=np.int64)).ravel()
        out = np.empty((ranks.size, p), dtype=np.int64)
        out[:, 0] = ranks
        if p == 2:
            np.bitwise_xor(ranks, r, out=out[:, 1])
        else:
            base, row_high, row_low = self._half_rows(r)
            high_step = row_high // base
            high, low = np.divmod(ranks, base)
            for c in range(1, p):
                high, low = high_step[high], row_low[low]
                np.add(high * base, low, out=out[:, c])
        return out.ravel()

    def span_ranks(self, elems: Sequence[GroupElement]) -> np.ndarray:
        """Ranks of the p^k words of span(elems), in word order, as a
        read-only array. The last element tuple asked for is remembered with
        its ranks, and a tuple that begins with it extends only its tail, so
        the scans that read one span in turn share a single build and a basis
        grown one element at a time extends its span once a step."""
        key = tuple(elems)
        last, ranks = self._span
        if key[:len(last)] != last:
            last, ranks = (), np.zeros(1, dtype=np.int64)
        for g in key[len(last):]:
            ranks = self.extend_span(ranks, g)
        self._span = key, _read_only(ranks)
        return ranks


@lru_cache(maxsize=_SHARED_SLOTS)
def _shared_truncation(p: int, dim: int) -> Truncation:
    return Truncation(p, dim, cap=p ** dim)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a
