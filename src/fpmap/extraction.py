"""Null-subsequence selection and quantitative independence certificates.

Finite truncations have no genuine sequences converging to zero, so the
pipeline works with a stand-in: candidates ordered by norm. From such a list,
select_null_subsequence picks the earliest subsequence whose term norms drop
below the thresholds 1/(4p)^n while the top reduced-basis position strictly
increases. The extracted family of reduced-basis elements then gets an
explicit epsilon/delta modulus: small words force small members. Its
delta_F tables, read from the same span, show that the norm topology is
finer than the product topology of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from . import jsonio
from .errors import ExhaustedError, InputError, NormBoundFailedError
from .fpcore import (
    GroupElement,
    Prime,
    Truncation,
    _same_prime,
    is_independent,
    require_size,
    solve_in_span,
    truncation,
    word_digits,
)
from .norms import Norm
from .reduction import ReducedBasis


def threshold(p: int, n: int) -> Fraction:
    """The n-th admission threshold 1/(4p)^n."""
    return Fraction(1, (4 * p) ** n)


def reduced_max_position(g: GroupElement, reduced: ReducedBasis) -> int:
    """Largest position with a nonzero coefficient in the reduced-basis expansion.

    Zero for the zero element. Raises InputError when g lies outside the
    span of the reduced basis. Since span(reduced[:n]) = span(original[:n]),
    this is the least n with g in span(original[:n]): g.max_index when the
    original basis is the standard one.
    """
    coeffs = solve_in_span(g, reduced.reduced.elems)
    if coeffs is None:
        raise InputError(f"{g!r} is not in the span of the reduced basis")
    top = 0
    for j, lam in enumerate(coeffs, start=1):
        if lam:
            top = j
    return top


def _top_positions(ranks: np.ndarray, tr: Truncation, reduced: ReducedBasis) -> np.ndarray:
    """reduced_max_position of the element of each rank, by arithmetic on
    its coordinates over the original basis written as a rank (the
    coefficient of original[j] as the digit of e_(j+1)): their max_index.
    For the standard original the coordinates are the rank itself; otherwise
    they are read from one inverse of the original's span ranks, where a
    rank outside that span reads as rank 1, of max_index dim."""
    if ranks.size:
        _same_prime(tr.prime.p, reduced.prime.p)
    p, k = tr.prime.p, len(reduced)
    coords = ranks
    if ranks.size and not all(g.items == ((n, 1),) for n, g in enumerate(reduced.original, start=1)):
        span = tr.span_ranks(reduced.original.elems)
        coords = np.ones(tr.size, dtype=np.int64)
        coords[span] = np.arange(span.size) * p ** (tr.dim - k)
        coords = coords[ranks]
    maxes = tr.top[coords]
    outside = np.flatnonzero(maxes > k)
    if outside.size:
        g = tr.element_of(int(ranks[outside[0]]))
        raise InputError(f"{g!r} is not in the span of the reduced basis")
    return maxes


@dataclass(frozen=True)
class NullSequence:
    """A finite stand-in for a sequence converging to zero.

    Term n (1-based) has norm strictly below 1/(4p)^n, and the top reduced
    position strictly increases, which also forces the terms to be pairwise
    distinct.
    """

    prime_p: int
    terms: tuple[GroupElement, ...]
    norms: tuple[Fraction, ...]
    maxes: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.terms) == len(self.norms) == len(self.maxes)):
            raise InputError("terms, norms, and maxes must have equal length")
        last = 0
        for n, (g, v, m, bound) in enumerate(
                zip(self.terms, self.norms, self.maxes, self.thresholds), start=1):
            if g.is_zero():
                raise InputError(f"term {n} is zero; terms must be nonzero")
            if m <= last:
                raise InputError(f"top positions must strictly increase (term {n})")
            if v >= bound:
                raise InputError(f"term {n} has norm {v}, not below 1/(4p)^{n} = {bound}")
            last = m

    @cached_property
    def thresholds(self) -> tuple[Fraction, ...]:
        """threshold(p, n) of each term n, built once per sequence."""
        return tuple(threshold(self.prime_p, n) for n in range(1, len(self.terms) + 1))

    def __len__(self):
        return len(self.terms)

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime_p,
            "terms": [jsonio.element_to_pairs(g) for g in self.terms],
            "norms": [jsonio.frac_to_str(v) for v in self.norms],
            "maxes": list(self.maxes),
            "thresholds": [jsonio.frac_to_str(t) for t in self.thresholds],
        }


def norm_sorted_span(norm: Norm) -> np.ndarray:
    """The read-only int64 ranks of the truncation by (norm value, rank): the
    canonical finite stand-in for a sequence converging to zero. It is
    Norm.order, sorted once from the table, so no rank row is needed."""
    return norm.order


def select_null_subsequence(ranks: np.ndarray, norm: Norm, reduced: ReducedBasis,
                            length: int) -> NullSequence:
    """Earliest subsequence meeting the thresholds with strictly rising maxes.

    "Earliest" is lexicographic on the chosen index tuple: the first slot
    takes the lowest usable position from which the remaining slots can still
    be filled, then the second, and so on. When no qualifying subsequence of
    the requested length exists among the candidates, raises Exhausted carrying
    the longest achievable length and the constraint that blocks the next
    slot ("threshold" when no candidate is small enough, "max-progression"
    when small candidates exist but never with a rising top position).

    The candidates are ``ranks``, an int64 array of ranks of the norm's
    truncation as norm_sorted_span returns it. Values are gathered by one
    Norm.values_of call and compared as integers; top positions are max_index
    arithmetic on the coordinates over the original basis, which for the
    standard original are the ranks themselves. Only the chosen terms are
    built as elements.
    """
    if length < 0:
        raise InputError(f"requested length must be nonnegative, got {length}")
    p = norm.prime.p
    if length == 0:
        return NullSequence(p, (), (), ())
    tr = norm.truncation
    if ranks.size and not 0 <= ranks.min() <= ranks.max() < tr.size:
        raise InputError(f"candidate ranks must lie in 0..{tr.size - 1}")
    nums, den = norm.values_of(ranks)
    maxes = _top_positions(ranks, tr, reduced)
    # every slot's candidates have a top position and a value below 1/(4p); only the
    # window from the first to the last of those is kept (all of a value-sorted span).
    # small[s][i]: kept i is such a candidate below 1/(4p)^(s+1), divided through
    ok = (maxes >= 1) & (nums <= (den - 1) // (4 * p))
    lo, hi = (int(ok.argmax()), ok.size - int(ok[::-1].argmax())) if ok.any() else (0, 0)
    ranks, nums, maxes, ok = ranks[lo:hi], nums[lo:hi], maxes[lo:hi], ok[lo:hi]
    small = [ok & (nums <= (den - 1) // (4 * p) ** (s + 1)) for s in range(length)]

    # feas[s][i]: slots s..length-1 can be filled starting by taking index i.
    # later[i]: largest top position among feasible starts of slot s + 1 at
    # >= i, which is what slot s needs to know to continue the chain (a start
    # at i itself cannot exceed maxes[i]).
    feas, later = [None] * length, None
    for s in reversed(range(length)):
        feas[s] = small[s] if later is None else small[s] & (later > maxes)
        later = (maxes * feas[s])[::-1].copy()  # accumulate is fastest when contiguous
        later = np.maximum.accumulate(later, out=later)[::-1]

    if not feas[0].any():
        achievable = _achievable_length(small, maxes)
        failed = achievable + 1
        constraint = "max-progression" if small[failed - 1].any() else "threshold"
        raise ExhaustedError(
            f"no qualifying subsequence of length {length}; "
            f"achievable length is {achievable}, slot {failed} blocked by "
            f"the {constraint} constraint",
            achievable_length=achievable, failed_slot=failed, constraint=constraint)

    chosen, last_max, pos = [], 0, 0
    for s in range(length):
        i = pos + int((feas[s][pos:] & (maxes[pos:] > last_max)).argmax())
        chosen.append(i)
        last_max = maxes[i]
        pos = i + 1
    return NullSequence(
        p,
        tuple(tr.element_of(int(ranks[i])) for i in chosen),
        tuple(Fraction(int(nums[i]), den) for i in chosen),
        tuple(int(maxes[i]) for i in chosen),
    )


def _achievable_length(small, maxes) -> int:
    """Longest chain over the slots of ``small``, from one forward pass.

    ends marks the candidates at which a chain through slot s can end; a
    chain through slot s + 1 can end at i when some end at or before i has a
    lower top position (an end at i itself cannot).
    """
    floor = np.zeros(len(maxes), dtype=np.int64)  # slot 0 follows top position 0
    for s, ok in enumerate(small):
        ends = ok & (maxes > floor)
        if not ends.any():
            return s
        floor = np.minimum.accumulate(np.where(ends, maxes, np.iinfo(maxes.dtype).max))
    return len(small)


@dataclass(frozen=True)
class IndependentFamily:
    """Reduced-basis elements indexed by the maxes of a null sequence.

    source is the selected sequence the family came from; families built
    directly (for comparison experiments) may leave it as None.
    """

    members: tuple[GroupElement, ...]
    indices: tuple[int, ...]
    norms: tuple[Fraction, ...]
    source: NullSequence | None

    def __len__(self):
        return len(self.members)

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "members": [jsonio.element_to_pairs(g) for g in self.members],
            "norms": [jsonio.frac_to_str(v) for v in self.norms],
            "source": None if self.source is None else self.source.to_json_dict(),
        }


def extract_independent_family(seq: NullSequence, reduced: ReducedBasis,
                               norm: Norm) -> IndependentFamily:
    """Map term n to the reduced element at its top position.

    The members inherit the thresholds: eval(member n) <= eval(term n) <
    1/(4p)^n, the first inequality being max-term-minimality. A failure of
    that bound cannot come from valid inputs, so it raises NormBoundFailed.
    """
    p = norm.prime.p
    _same_prime(seq.prime_p, p)
    members = []
    norms = []
    for n, k in enumerate(seq.maxes, start=1):
        if k > len(reduced):
            raise InputError(f"term {n} has top position {k}, beyond the basis")
        a = reduced.reduced[k - 1]
        v = norm.eval(a)
        if v >= seq.thresholds[n - 1]:
            raise NormBoundFailedError(
                f"member {n} (reduced element {k}) has norm {v}, not below "
                f"1/(4p)^{n}; the reduction or the norm is inconsistent")
        members.append(a)
        norms.append(v)
    fam = IndependentFamily(tuple(members), tuple(seq.maxes), tuple(norms), seq)
    if not is_independent(fam.members, norm.prime):
        raise NormBoundFailedError("extracted members are not independent")
    return fam


@dataclass(frozen=True)
class ModulusReport:
    """Outcome of the quantitative independence check on an extracted family."""

    prime_p: int
    l: int
    m: int
    eps: Fraction
    delta: Fraction
    combos_checked: int
    small_norm_combos: int
    splits_checked: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime_p,
            "l": self.l,
            "m": self.m,
            "eps": jsonio.frac_to_str(self.eps),
            "delta": jsonio.frac_to_str(self.delta),
            "combos_checked": self.combos_checked,
            "small_norm_combos": self.small_norm_combos,
            "splits_checked": self.splits_checked,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def require_l(l: int, m: int) -> None:
    """The modulus needs 1 <= l <= m."""
    if not 1 <= l <= m:
        raise InputError(f"l must be in 1..{m}, got {l}")


def independence_modulus(family: IndependentFamily, norm: Norm, l: int, m: int,
                         *, cap: int | None = None) -> ModulusReport:
    """Check that norm-small words have norm-small members, quantitatively.

    With delta = 1/(4p)^l and eps = 1/2^(l-1): every nonzero word w over the
    first m members with eval(w) < delta must use only members of norm < eps.
    Additionally, for every split point s in l..m-1, the negated tail of any
    word is bounded by p times the summed tail member norms, and that sum
    stays below 1/(4p)^s.

    The family may be dependent and longer than the norm's dim, so its p^m
    words are checked against ``cap`` here, by the truncation of F_p^m whose
    negation table the split checks read.
    """
    p = norm.prime.p
    if not 1 <= m <= len(family):
        raise InputError(f"m must be in 1..{len(family)}, got {m}")
    require_l(l, m)
    neg = truncation(p, m, cap=cap).neg_perm  # word rank -> the rank of its negation
    eps = Fraction(1, 2 ** (l - 1))
    delta = threshold(p, l)
    members = family.members[:m]
    tr = norm.truncation
    span = tr.span_ranks(members)
    vals, den = norm.values_of(span)
    member_nums = [int(vals[p ** (m - 1 - i)]) for i in range(m)]
    member_norms = [Fraction(v, den) for v in member_nums]

    violations: list[dict] = []
    # vw < 1/(4p)^l, divided through so that no entry is multiplied
    small = vals[1:] <= (den - 1) // (4 * p) ** l
    large = [i for i in range(m) if member_norms[i] >= eps]
    # the words whose digit i, the coefficient of member i, is nonzero
    touched = np.zeros(p ** m, dtype=bool)
    for i in large:
        touched.reshape(p ** i, p, -1)[:, 1:] = True
    for row in (np.flatnonzero(small & touched[1:]) + 1).tolist():
        coeffs = word_digits(row, p, m)
        for i in large:
            if coeffs[i]:
                violations.append({
                    "check": "modulus",
                    "coeffs": list(coeffs),
                    "w": jsonio.element_to_pairs(tr.element_of(int(span[row]))),
                    "member_index": i + 1,
                    "value_w": jsonio.frac_to_str(Fraction(int(vals[row]), den)),
                    "value_member": jsonio.frac_to_str(member_norms[i]),
                    "eps": jsonio.frac_to_str(eps),
                    "delta": jsonio.frac_to_str(delta),
                })
    for s in range(l, m):
        budget = p * sum(member_nums[s:m])
        tail_budget = Fraction(budget, den)
        bound = threshold(p, s)
        if tail_budget >= bound:
            violations.append({
                "check": "split-sum",
                "split": s,
                "tail_budget": jsonio.frac_to_str(tail_budget),
                "bound": jsonio.frac_to_str(bound),
            })
        # the tails over members s..m-1 are the first p^(m-s) rows
        negated = neg[:p ** (m - s)]
        for row in (np.flatnonzero(vals[negated[1:]] > budget) + 1).tolist():
            violations.append({
                "check": "split-combo",
                "split": s,
                "coeffs": list(word_digits(row, p, m - s)),
                "tail": jsonio.element_to_pairs(tr.element_of(int(span[row]))),
                "value_negated_tail": jsonio.frac_to_str(Fraction(int(vals[negated[row]]), den)),
                "tail_budget": jsonio.frac_to_str(tail_budget),
            })
    return ModulusReport(
        prime_p=p, l=l, m=m, eps=eps, delta=delta,
        combos_checked=p ** m - 1, small_norm_combos=int(small.sum()),
        splits_checked=max(0, m - l), violations=tuple(violations),
    )


@dataclass(frozen=True)
class CoarserReport:
    """Per-F minimum norms over growing prefixes of a family.

    tables[t-1] maps each nonempty F of positions within the first t members
    to delta_F = min norm over span combinations touching F. A positive
    delta_F puts the norm ball of that radius inside the product-topology
    neighborhood {w : lambda_i = 0 for all i in F}.
    """

    prime: Prime
    m: int
    tables: tuple[dict, ...]
    violations: tuple[dict, ...]
    combos_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def table(self, m_prime: int) -> dict:
        if not 1 <= m_prime <= self.m:
            raise InputError(f"no table for prefix length {m_prime}")
        return self.tables[m_prime - 1]

    def to_json_dict(self) -> dict:
        # product_coarser_check shares one Fraction per distinct value, and a
        # Fraction hashes slower than it formats, so they are told apart by id
        distinct = {id(v): v for tab in self.tables for v in tab.values()}
        text = {k: jsonio.frac_to_str(v) for k, v in distinct.items()}
        return {
            "prime": self.prime.p,
            "m": self.m,
            "tables": {
                str(t): {",".join(map(str, F)): text[id(v)] for F, v in tab.items()}
                for t, tab in enumerate(self.tables, start=1)
            },
            "violations": list(self.violations),
            "combos_checked": self.combos_checked,
        }


def product_coarser_check(family: IndependentFamily, norm: Norm, m: int, *,
                          cap: int | None = None) -> CoarserReport:
    """delta_F tables certifying the product topology is coarser.

    For every prefix length t <= m and every nonempty F of positions in
    1..t: delta_F is the minimum norm over nonzero span combinations whose
    support meets F. Values must be positive; zeros are reported as
    violations (they mean the family was dependent or the norm degenerate).
    As in independence_modulus, the family's p^m words are checked against
    ``cap`` here.
    """
    if m < 1:
        raise InputError(f"m must be positive, got {m}")
    if m > len(family.members):
        raise InputError(f"m = {m} exceeds the family length {len(family.members)}")
    p = norm.prime.p
    for g in family.members:
        _same_prime(g.prime.p, p)
    require_size(p, m, cap)

    tables = []
    violations = []
    vals, den = norm.values_of(norm.truncation.span_ranks(family.members[:m]))
    for t in range(1, m + 1):
        # the span of the first t members is every p^(m-t)-th row; the words
        # meeting F are the union over i in F of the words using member i, so
        # delta_F is the least mu_i over F, mu_i the least value of a word
        # with a nonzero digit i
        prefix = vals[::p ** (m - t)]
        mu = {i: int(prefix.reshape(p ** (i - 1), p, p ** (t - i))[:, 1:].min())
              for i in range(1, t + 1)}
        # one Fraction per distinct mu_i, shared by every F that takes it;
        # the sign test reads the numerator
        fracs = {v: Fraction(v, den) for v in mu.values()}
        table = {}
        for size in range(1, t + 1):
            for F in combinations(range(1, t + 1), size):
                low = min(mu[i] for i in F)
                table[F] = fracs[low]
                if low <= 0:
                    violations.append({
                        "check": "coarser",
                        "span": t,
                        "F": list(F),
                        "value": jsonio.frac_to_str(fracs[low]),
                    })
        tables.append(table)
    return CoarserReport(norm.prime, m, tuple(tables), tuple(violations),
                         sum(p ** t - 1 for t in range(1, m + 1)))
