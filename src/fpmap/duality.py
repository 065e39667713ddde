"""Characters of a finite truncation and the almost-periodicity criteria.

A character of an exponent-p group lands in a cyclic group of order p, so
it is just a linear functional into Z/pZ: a dual coefficient vector. It is
continuous iff it annihilates the span W_U of some base set U, so which
characters are continuous, what their kernels cut out, and whether they
separate points is linear algebra on at most dim generators per base set.

The separation verdict is computed three independent ways (kernel of the
continuous dual, rank of the continuous dual, intersection of the W_U) and
the routes must agree; a mismatch raises InternalDisagreement because it
can only mean a bug, never mathematics.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random

import numpy as np

from . import jsonio
from .errors import CapExceededError, InputError, InternalDisagreementError
from .extraction import IndependentFamily
from .fpcore import (
    DEFAULT_ENUM_CAP,
    GroupElement,
    Prime,
    Truncation,
    _rref,
    _same_prime,
    as_prime,
    rank,
    rank_digits,
    truncation,
)
from .norms import Norm, norm_from_config


@dataclass(frozen=True)
class Character:
    """A homomorphism into Z/pZ, stored as its dual coefficient vector.

    chi(g) is the dot product of the vector with the coefficients of g,
    mod p; linearity in g is automatic from that representation.
    """

    prime: Prime
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("a character needs at least one coefficient")
        p = self.prime.p
        for c in self.coeffs:
            if not jsonio.is_int(c) or not 0 <= c < p:
                raise InputError(f"coefficients must be integers in [0, {p}), got {c!r}")

    @classmethod
    def make(cls, p, coeffs) -> "Character":
        prime = as_prime(p)
        return cls(prime, tuple(int(c) % prime.p for c in coeffs))

    @classmethod
    def trivial(cls, p, dim: int) -> "Character":
        if dim < 1:
            raise InputError(f"dimension must be positive, got {dim}")
        return cls(as_prime(p), (0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def is_trivial(self) -> bool:
        return not any(self.coeffs)

    def __call__(self, g: GroupElement) -> int:
        _same_prime(g.prime.p, self.prime.p)
        if g.max_index > self.dim:
            raise InputError(f"index {g.max_index} outside a dual vector of length {self.dim}")
        return sum(self.coeffs[i - 1] * c for i, c in g.items) % self.prime.p

    def zero_ranks(self, tr: Truncation) -> frozenset[int]:
        """Ranks of the kernel within the given truncation."""
        if tr.prime != self.prime or tr.dim != self.dim:
            raise InputError("truncation does not match the character")
        basis = _annihilator_basis([list(self.coeffs)], self.prime.p, self.dim)
        return frozenset(tr.span_ranks(basis).tolist())

    def to_json_dict(self) -> dict:
        return {"coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class TopologySpec:
    """A finite base of neighborhoods of zero, as rank sets of one truncation.

    Continuity of a character only ever consults base membership at zero, so
    a finite list of sets is the entire encoding. Every set contains rank 0:
    the constructors below add it where an input listing leaves it out, and
    direct construction rejects sets that miss it.
    """

    prime: Prime
    dim: int
    members: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.members:
            raise InputError("a topology spec needs at least one base set")
        size = self.prime.p ** self.dim
        for u in self.members:
            if 0 not in u:
                raise InputError("every base set must contain zero")
            for r in u:
                if not 0 <= r < size:
                    raise InputError(f"rank {r} out of range for dimension {self.dim}")

    @classmethod
    def from_elements(cls, p, dim: int, sets, *, cap: int | None = None) -> "TopologySpec":
        """Base sets given as iterables of GroupElement; zero is added."""
        prime = as_prime(p)
        tr = truncation(prime, dim, cap=cap)
        members = []
        for elems in sets:
            ranks = {0}
            for g in elems:
                ranks.add(tr.rank_of(g))
            members.append(frozenset(ranks))
        return cls(prime, dim, tuple(members))

    @classmethod
    def from_balls(cls, norm: Norm, radii, *, cap: int | None = None) -> "TopologySpec":
        """Base sets {g : eval(g) < r} for each positive radius r."""
        tr = truncation(norm.prime, norm.dim, cap=cap)  # enforces the enumeration cap
        radii = [Fraction(raw) for raw in radii]
        for r in radii:
            if r <= 0:
                raise InputError(f"ball radius must be positive, got {r}")
        vals, den = norm.values_of(tr.identity)
        # vals / den < r, divided through so that no entry is multiplied
        members = [frozenset(np.flatnonzero(vals <= (r.numerator * den - 1) // r.denominator)
                             .tolist()) for r in radii]
        return cls(norm.prime, norm.dim, tuple(members))

    def element_sets(self, *, cap: int | None = None) -> tuple[tuple[GroupElement, ...], ...]:
        tr = truncation(self.prime, self.dim, cap=cap)
        return tuple(
            tuple(tr.element_of(r) for r in sorted(u)) for u in self.members)

    def to_json_dict(self, *, cap: int | None = None) -> dict:
        return {
            "kind": "elements",
            "prime": self.prime.p,
            "dim": self.dim,
            "base": [[jsonio.element_to_pairs(g) for g in u]
                     for u in self.element_sets(cap=cap)],
        }


def random_topology(seed: int, p, dim: int, *, cap: int | None = None) -> TopologySpec:
    """Seeded base of one to three sets, each a random subgroup or a random
    subset containing zero. Same seed, same spec."""
    jsonio.require_int(seed, "seed")
    prime = as_prime(p)
    tr = truncation(prime, dim, cap=cap)
    rng = Random(seed)
    members = []
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.5:
            gens = [tr.element_of(rng.randrange(tr.size))
                    for _ in range(rng.randrange(0, dim + 1))]
            ranks = frozenset(tr.span_ranks(gens).tolist())
        else:
            extra = rng.sample(range(1, tr.size), k=rng.randrange(0, tr.size))
            ranks = frozenset({0, *extra})
        members.append(ranks)
    return TopologySpec(prime, dim, tuple(members))


def topology_from_config(cfg, *, cap: int | None = None) -> TopologySpec:
    """Build a TopologySpec from a parsed JSON mapping.

    Kinds: "elements" (explicit base sets), "balls" (radii over an embedded
    norm config), "seeded" (random_topology).
    """
    if not isinstance(cfg, dict):
        raise InputError(f"topology config must be a mapping, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind == "elements":
        jsonio.require_keys(cfg, ["kind", "prime", "dim", "base"], [],
                            what="elements topology config")
        p = cfg["prime"]
        sets = [[jsonio.element_from_pairs(p, pairs)
                 for pairs in jsonio.require_list(u, what="base set")]
                for u in jsonio.require_list(cfg["base"], what="base")]
        return TopologySpec.from_elements(p, cfg["dim"], sets, cap=cap)
    if kind == "balls":
        jsonio.require_keys(cfg, ["kind", "norm", "radii"], [],
                            what="balls topology config")
        norm = norm_from_config(cfg["norm"], cap=cap)
        radii = [jsonio.frac_from_str(r)
                 for r in jsonio.require_list(cfg["radii"], what="radii")]
        return TopologySpec.from_balls(norm, radii, cap=cap)
    if kind == "seeded":
        jsonio.require_keys(cfg, ["kind", "prime", "dim", "seed"], [],
                            what="seeded topology config")
        return random_topology(cfg["seed"], cfg["prime"], cfg["dim"], cap=cap)
    raise InputError(f"unknown topology kind {kind!r}")


def _annihilator_basis(rows, p: int, dim: int) -> tuple[GroupElement, ...]:
    """Reduced-echelon basis of the common kernel of the given coefficient
    rows (reduced in place), via the null space of their matrix."""
    rows, pivots = _rref(rows, p)
    null_rows = []
    for f in (c for c in range(dim) if c not in pivots):
        x = [0] * dim
        x[f] = 1
        for r, pc in enumerate(pivots):
            x[pc] = (-rows[r][f]) % p
        null_rows.append(x)
    canon, _ = _rref(null_rows, p)
    return tuple(
        GroupElement.make(p, [(j + 1, c) for j, c in enumerate(row) if c])
        for row in canon)


def _base_spans(spec: TopologySpec, cap: int | None):
    """(truncation, mask of the intersection of the W_U, mask of the
    continuous dual, a basis of ann(W_U) per base set U), W_U = span(U).

    W_U grows from the first rank of U outside the span so far, so it takes
    at most dim span extensions; ann(W_U) is the null space of those
    generators, and the continuous dual is the union of the ann(W_U)."""
    p, d = spec.prime.p, spec.dim
    tr = truncation(spec.prime, d, cap=cap)
    inter, dual = np.ones(tr.size, dtype=bool), np.zeros(tr.size, dtype=bool)
    anns = []
    for u in spec.members:
        u = np.sort(np.fromiter(u, dtype=np.int64, count=len(u)))
        w = np.zeros(tr.size, dtype=bool)
        span, gens = np.zeros(1, dtype=np.int64), []
        while (u := u[~w[u]]).size:
            gens.append(int(u[0]))
            span = tr.extend_span(span, tr.element_of(gens[-1]))
            w[span] = True
        inter &= w
        anns.append(_annihilator_basis(rank_digits(gens, p, d).tolist(), p, d))
        dual[tr.span_ranks(anns[-1])] = True
    return tr, inter, dual, anns


def continuous_characters(spec: TopologySpec, *, cap: int | None = None) -> list[Character]:
    """All characters whose kernel contains some base set, in dual-rank order.

    Continuity into a discrete target is exactly that kernel containment;
    the trivial character always qualifies and comes first.
    """
    rows = rank_digits(np.flatnonzero(_base_spans(spec, cap)[2]), spec.prime.p, spec.dim).tolist()
    return [Character(spec.prime, tuple(row)) for row in rows]


def _assert_same_subgroup(expected_ranks: frozenset[int],
                          basis: tuple[GroupElement, ...], tr: Truncation) -> None:
    spanned = frozenset(tr.span_ranks(basis).tolist())
    if spanned != expected_ranks:
        raise InternalDisagreementError(
            f"annihilator basis spans {len(spanned)} elements but the base "
            f"spans meet in {len(expected_ranks)}: the two routes disagree")


def von_neumann_kernel(spec: TopologySpec, *, cap: int | None = None) -> tuple[GroupElement, ...]:
    """Intersection of the kernels of all continuous characters, as a
    reduced-echelon basis (empty tuple for the trivial subgroup).

    Computed twice: the annihilator of the continuous dual, the null space
    of the stacked ann(W_U) bases, and the intersection of the W_U, which
    it equals by the double annihilator. Disagreement raises.
    """
    return _kernel_basis(_base_spans(spec, cap))


def _kernel_basis(spans) -> tuple[GroupElement, ...]:
    """von_neumann_kernel from what _base_spans returns."""
    tr, inter, _, anns = spans
    p, d = tr.prime.p, tr.dim
    basis = _annihilator_basis(
        rank_digits([tr.rank_of(a) for ann in anns for a in ann], p, d).tolist(), p, d)
    _assert_same_subgroup(frozenset(np.flatnonzero(inter).tolist()), basis, tr)
    return basis


@dataclass(frozen=True)
class MapReport:
    """Separation verdict with the three routes that produced it.

    is_map is true when the continuous characters separate points, i.e. the
    common kernel is trivial. witness is a nonzero element no continuous
    character can tell from zero, or None when separation holds. The route
    flags are recorded individually; construction fails if they disagree,
    so a report in hand certifies the cross-check passed.
    """

    prime: Prime
    dim: int
    is_map: bool
    dual_rank: int
    n_continuous: int
    n_open_subgroups: int
    kernel_basis: tuple[GroupElement, ...]
    witness: GroupElement | None
    route_kernel: bool
    route_dual_rank: bool
    route_open_subgroups: bool

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime.p,
            "dim": self.dim,
            "is_map": self.is_map,
            "dual_rank": self.dual_rank,
            "n_continuous": self.n_continuous,
            "n_open_subgroups": self.n_open_subgroups,
            "kernel_basis": [jsonio.element_to_pairs(g) for g in self.kernel_basis],
            "witness": None if self.witness is None
                       else jsonio.element_to_pairs(self.witness),
            "routes": {
                "kernel": self.route_kernel,
                "dual-rank": self.route_dual_rank,
                "open-subgroups": self.route_open_subgroups,
            },
        }


def is_map(spec: TopologySpec, *, cap: int | None = None) -> MapReport:
    """Do the continuous characters separate points? Three routes, one verdict.

    Route one: the von Neumann kernel has an empty basis. Route two: the
    continuous dual vectors span the full dual. Route three: the spans W_U
    of the base sets intersect in zero alone, read from their rank masks.
    Any disagreement raises. Each open index-p subgroup is the kernel of
    one line of the continuous dual."""
    spans = _base_spans(spec, cap)
    _, inter, dual, anns = spans
    kernel_basis = _kernel_basis(spans)
    p, d = spec.prime.p, spec.dim
    n_continuous = int(dual.sum())
    dual_rank = rank([a for ann in anns for a in ann], spec.prime)
    route_kernel = len(kernel_basis) == 0
    route_rank = dual_rank == d
    route_sub = int(inter.sum()) == 1

    if not (route_kernel == route_rank == route_sub):
        raise InternalDisagreementError(
            f"separation routes disagree: kernel {route_kernel}, "
            f"dual rank {route_rank}, open subgroups {route_sub}")
    witness = kernel_basis[0] if kernel_basis else None
    return MapReport(spec.prime, d, route_kernel, dual_rank, n_continuous,
                     (n_continuous - 1) // (p - 1), kernel_basis, witness,
                     route_kernel, route_rank, route_sub)


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
    """
    if m < 1:
        raise InputError(f"m must be positive, got {m}")
    if m > len(family.members):
        raise InputError(f"m = {m} exceeds the family length {len(family.members)}")
    p = norm.prime.p
    for g in family.members:
        _same_prime(g.prime.p, p)
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if p ** m > cap:
        raise CapExceededError(f"{p}^{m} span combinations exceed the cap {cap}")

    tables = []
    violations = []
    vals, den = norm.span_values(family.members[:m])
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
