"""Characters of a finite truncation and the almost-periodicity criteria.

A character of an exponent-p group lands in a cyclic group of order p, so
it is just a linear functional into Z/pZ: a dual coefficient vector. It is
continuous iff it annihilates the span W_U of some base set U, so which
characters are continuous, what their kernels cut out, and whether they
separate points is linear algebra on at most dim generators per base set.

The separation verdict is computed three independent ways (kernel of the
continuous dual, rank of the continuous dual, intersection of the W_U) and
the routes must agree; a mismatch raises InternalDisagreement because it
can only mean a bug, never mathematics. boolean_counterexample is the
convergent-sequence case where no epsilon/delta certificate exists.
"""

import itertools
import math
import sys
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from random import Random

import numpy as np

from . import jsonio
from .errors import CapExceededError, InputError, InternalDisagreementError
from .extraction import threshold
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
from .norms import Norm, PointedMetricSpace, _as_fraction, _cover_table, _storage, norm_from_config


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

    def __call__(self, g: GroupElement) -> int:
        _same_prime(g.prime.p, self.prime.p)
        if g.max_index > self.dim:
            raise InputError(f"index {g.max_index} outside a dual vector of length {self.dim}")
        return sum(self.coeffs[i - 1] * c for i, c in g.items) % self.prime.p

    def to_json_dict(self) -> dict:
        return {"coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class TopologySpec:
    """A finite base of neighborhoods of zero, as rank sets of one truncation.

    Continuity of a character only ever consults base membership at zero, so
    a finite list of sets is the entire encoding. Every set contains rank 0:
    the constructors below add it where an input listing leaves it out, and
    direct construction rejects sets that miss it. Every constructor checks
    the truncation against the enumeration cap ``cap`` and the spec keeps it
    as ``tr``, so no read of the spec checks a cap again. Specs are equal by
    (prime, dim, members).
    """

    prime: Prime
    dim: int
    members: tuple[frozenset[int], ...]
    cap: InitVar[int | None] = None
    tr: Truncation = field(init=False, repr=False, compare=False)

    def __post_init__(self, cap):
        object.__setattr__(self, "tr", truncation(self.prime, self.dim, cap=cap))
        if not self.members:
            raise InputError("a topology spec needs at least one base set")
        for u in self.members:
            if 0 not in u:
                raise InputError("every base set must contain zero")
            for r in u:
                if not 0 <= r < self.tr.size:
                    raise InputError(f"rank {r} out of range for dimension {self.dim}")

    @classmethod
    def from_elements(cls, p, dim: int, sets, *, cap: int | None = None) -> "TopologySpec":
        """Base sets as iterables of GroupElement, iterated after the cap check; zero is added."""
        prime = as_prime(p)
        tr = truncation(prime, dim, cap=cap)
        members = []
        for elems in sets:
            ranks = {0}
            for g in elems:
                ranks.add(tr.rank_of(g))
            members.append(frozenset(ranks))
        return cls(prime, dim, tuple(members), cap=cap)

    @classmethod
    def from_balls(cls, norm: Norm, radii, *, cap: int | None = None) -> "TopologySpec":
        """Base sets {g : eval(g) < r} for each positive radius r."""
        tr = truncation(norm.prime, norm.dim, cap=cap)  # enforces the enumeration cap
        radii = [_as_fraction(raw, "ball radius") for raw in radii]
        for r in radii:
            if r <= 0:
                raise InputError(f"ball radius must be positive, got {r}")
        vals, den = norm.values_of(tr.identity)
        # vals / den < r, divided through so that no entry is multiplied
        members = [frozenset(np.flatnonzero(vals <= (r.numerator * den - 1) // r.denominator)
                             .tolist()) for r in radii]
        return cls(norm.prime, norm.dim, tuple(members), cap=cap)

    def element_sets(self) -> tuple[tuple[GroupElement, ...], ...]:
        return tuple(
            tuple(self.tr.element_of(r) for r in sorted(u)) for u in self.members)

    def to_json_dict(self) -> dict:
        return {
            "kind": "elements",
            "prime": self.prime.p,
            "dim": self.dim,
            "base": [[jsonio.element_to_pairs(g) for g in u]
                     for u in self.element_sets()],
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
    return TopologySpec(prime, dim, tuple(members), cap=cap)


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
        sets = ((jsonio.element_from_pairs(p, pairs)
                 for pairs in jsonio.iter_list(u, what="base set"))
                for u in jsonio.iter_list(cfg["base"], what="base"))
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


def _base_spans(spec: TopologySpec):
    """(truncation, mask of the intersection of the W_U, mask of the
    continuous dual, a basis of ann(W_U) per base set U), W_U = span(U).

    W_U grows from the first rank of U outside the span so far, so it takes
    at most dim span extensions; ann(W_U) is the null space of those
    generators, and the continuous dual is the union of the ann(W_U)."""
    p, d, tr = spec.prime.p, spec.dim, spec.tr
    inter, dual = np.ones(tr.size, dtype=bool), np.zeros(tr.size, dtype=bool)
    anns = []
    for u in spec.members:
        u = np.sort(np.fromiter(u, dtype=np.int64, count=len(u)))
        w, gens = np.zeros(tr.size, dtype=bool), []
        while (u := u[~w[u]]).size:
            gens.append(int(u[0]))  # the span memo adds only this generator
            w[tr.span_ranks([tr.element_of(r) for r in gens])] = True
        inter &= w
        anns.append(_annihilator_basis(rank_digits(gens, p, d).tolist(), p, d))
        dual[tr.span_ranks(anns[-1])] = True
    return tr, inter, dual, anns


def continuous_characters(spec: TopologySpec) -> list[Character]:
    """All characters whose kernel contains some base set, in dual-rank order.

    Continuity into a discrete target is exactly that kernel containment;
    the trivial character always qualifies and comes first.
    """
    rows = rank_digits(np.flatnonzero(_base_spans(spec)[2]), spec.prime.p, spec.dim).tolist()
    return [Character(spec.prime, tuple(row)) for row in rows]


def _assert_same_subgroup(expected_ranks: frozenset[int],
                          basis: tuple[GroupElement, ...], tr: Truncation) -> None:
    spanned = frozenset(tr.span_ranks(basis).tolist())
    if spanned != expected_ranks:
        raise InternalDisagreementError(
            f"annihilator basis spans {len(spanned)} elements but the base "
            f"spans meet in {len(expected_ranks)}: the two routes disagree")


def von_neumann_kernel(spec: TopologySpec) -> tuple[GroupElement, ...]:
    """Intersection of the kernels of all continuous characters, as a
    reduced-echelon basis (empty tuple for the trivial subgroup).

    Computed twice: the annihilator of the continuous dual, the null space
    of the stacked ann(W_U) bases, and the intersection of the W_U, which
    it equals by the double annihilator. Disagreement raises.
    """
    return _kernel_basis(_base_spans(spec))


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


def is_map(spec: TopologySpec) -> MapReport:
    """Do the continuous characters separate points? Three routes, one verdict.

    Route one: the von Neumann kernel has an empty basis. Route two: the
    continuous dual vectors span the full dual. Route three: the spans W_U
    of the base sets intersect in zero alone, read from their rank masks.
    Any disagreement raises. Each open index-p subgroup is the kernel of
    one line of the continuous dual."""
    spans = _base_spans(spec)
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
class CertificateResult:
    """Largest working grid delta for an epsilon, or a concrete counterexample."""

    eps: Fraction
    grid: tuple[Fraction, ...]
    delta: Fraction | None
    min_bad_value: Fraction | None
    witness: dict | None
    combos_checked: int

    @property
    def is_counterexample(self) -> bool:
        return self.delta is None

    def to_json_dict(self) -> dict:
        return {
            "eps": jsonio.frac_to_str(self.eps),
            "grid": [jsonio.frac_to_str(x) for x in self.grid],
            "delta": None if self.delta is None else jsonio.frac_to_str(self.delta),
            "min_bad_value": (None if self.min_bad_value is None
                              else jsonio.frac_to_str(self.min_bad_value)),
            "witness": self.witness,
            "counterexample": self.is_counterexample,
            "combos_checked": self.combos_checked,
        }


def _certificate_limit(n: int, p: int, search_depth: int, max_terms: int,
                       cap: int | None) -> int:
    """The most nonzero exponents of a certificate scan over n terms, once
    its grid prints and its combination count fits the enum cap ``cap``."""
    if search_depth < 1:
        raise InputError(f"search_depth must be at least 1, got {search_depth}")
    # str() writes no int of more digits than this limit (0: none, as before
    # Python 3.10.7); (4p)^j >= 8^j passes 16^digits once 3j > 4 digits
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and (3 * search_depth > 4 * digits or (4 * p) ** search_depth >= 10 ** digits):
        raise InputError(f"search_depth {search_depth} gives the grid value "
                         f"1/{4 * p}^{search_depth} more than {digits} digits")
    limit = min(max_terms, n)
    est = sum(math.comb(n, t) * (p - 1) ** t for t in range(1, limit + 1))
    capv = DEFAULT_ENUM_CAP if cap is None else cap
    if est > capv:
        raise CapExceededError(f"certificate scan needs ~{est} combinations, above cap {capv}")
    return limit


def epsilon_delta_certificate(xs, value, p, eps, *, search_depth: int = 3,
                              cap: int | None = None) -> CertificateResult:
    """Direct check of the small-word-forces-small-terms definition.

    The norm on the exponent-``p`` group is ``value`` (a Norm's eval, say).
    A combination is "bad" when one of its used terms k_i * x_i already has
    norm >= eps; delta works iff every bad combination has norm >= delta.
    Returns the largest grid value 1/(4p)^j (j = 1..search_depth) below the
    smallest bad-combination norm, or the witness of the smallest bad
    combination when even the finest grid value fails. Every exponent vector
    is enumerated, under ``cap``; each term is evaluated once.
    """
    xs = list(xs)
    eps = _as_fraction(eps, "eps")
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    p = as_prime(p).p
    for x in xs:
        _same_prime(x.prime.p, p)
    limit = _certificate_limit(len(xs), p, search_depth, len(xs), cap)
    mults = [[x.smul(k) for k in range(1, p)] for x in xs]
    word = lambda pairs: sum((mults[i][k - 1] for i, k in pairs), GroupElement.zero(p))
    terms = [[value(g) for g in row] for row in mults]
    return _certificate_scan(terms, lambda pairs: value(word(pairs)), word, p, eps,
                             search_depth, limit)


def _certificate_scan(terms, value, word, p: int, eps, search_depth: int,
                      limit: int) -> CertificateResult:
    """epsilon_delta_certificate's scan, once _certificate_limit has passed:
    ``terms[i][k - 1]`` is the value of k * x_i, ``value`` that of the word
    of (i, k) pairs, and ``word`` builds its element, for the witness only."""
    n = len(terms)
    grid = tuple(threshold(p, j) for j in range(1, search_depth + 1))
    min_bad = None
    witness = None
    checked = 0
    for t in range(1, limit + 1):
        for support in itertools.combinations(range(n), t):
            for ks in itertools.product(range(1, p), repeat=t):
                checked += 1
                pairs = tuple(zip(support, ks))
                bad = next(((i, k) for i, k in pairs if terms[i][k - 1] >= eps), None)
                if bad is None:
                    continue
                vw = value(pairs)
                if min_bad is None or vw < min_bad:
                    min_bad = vw
                    exponents = [0] * n
                    for i, k in pairs:
                        exponents[i] = k
                    witness = {
                        "exponents": exponents,
                        "w": jsonio.element_to_pairs(word(pairs)),
                        "term_index": bad[0] + 1,
                        "value_w": jsonio.frac_to_str(vw),
                        "value_term": jsonio.frac_to_str(terms[bad[0]][bad[1] - 1]),
                    }
    if min_bad is None:
        return CertificateResult(eps, grid, grid[0], None, None, checked)
    for g in grid:
        if g <= min_bad:
            return CertificateResult(eps, grid, g, min_bad, witness, checked)
    return CertificateResult(eps, grid, None, min_bad, witness, checked)


@dataclass(frozen=True)
class BooleanWitnessReport:
    """Shrinking pair norms against bounded singleton norms on a line space."""

    n_points: int
    entries: tuple[dict, ...]
    certificate: CertificateResult

    def to_json_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "entries": list(self.entries),
            "certificate": self.certificate.to_json_dict(),
        }


def _line_coordinates(n_points: int) -> tuple[np.ndarray, int]:
    """The line of the demo: the basepoint 0, the point x = 1, and
    y_k = 1 + 1/k for k = 1..n_points, at indices 0, 1 and k + 1, as
    numerators over their least common denominator lcm(1..n_points),
    stored so that the distance |a - b| of any two stays exact."""
    if n_points < 2:
        raise InputError(f"need at least 2 points, got {n_points}")
    den = math.lcm(*range(1, n_points + 1))
    nums = [0, den] + [den + den // k for k in range(1, n_points + 1)]
    return np.array(nums, dtype=_storage(2 * den)), den


def convergent_line_space(n_points: int) -> PointedMetricSpace:
    """The demo's line as a PointedMetricSpace, basepoint 0."""
    nums, den = _line_coordinates(n_points)
    nums = nums.tolist()
    return PointedMetricSpace([[(abs(a - b), den) for b in nums] for a in nums])


def boolean_counterexample(n_points: int, *, search_depth: int = 3,
                           cap: int | None = None) -> BooleanWitnessReport:
    """The convergent-sequence obstruction: pairs {x, y_n} get arbitrarily small.

    Every single generator keeps norm >= 1, yet the two-element subsets
    {x, y_n} have norm 1/n, so no delta can force both members of a small
    word below eps = 1/2. The certificate run makes that failure explicit.
    Term i is the line's point i + 1, and a word is valued by _cover_table on
    its points' distance block, with no group element but the witness's; the
    certificate's depth and estimate are checked once, before the line.
    """
    limit = _certificate_limit(n_points + 1, 2, search_depth, 2, cap)
    coords, den = _line_coordinates(n_points)

    def value(pairs) -> Fraction:
        pts = coords[[i + 1 for i, _ in pairs]]
        # the basepoint, last, is at 0
        block = abs(pts[:, None] - np.append(pts, 0))
        return Fraction(int(_cover_table(block, den)[0][-1]), den)

    v_x = value([(0, 1)])
    entries = []
    for k in range(1, n_points + 1):
        v_pair = value([(0, 1), (k, 1)])
        entries.append({
            "n": k,
            "pair": [[1, 1], [k + 1, 1]],
            "value_pair": jsonio.frac_to_str(v_pair),
            "value_x": jsonio.frac_to_str(v_x),
            "ratio": jsonio.frac_to_str(v_x / v_pair),
        })
    terms = [[value([(i, 1)])] for i in range(n_points + 1)]
    word = lambda pairs: GroupElement.make(2, [(i + 1, k) for i, k in pairs])
    cert = _certificate_scan(terms, value, word, 2, Fraction(1, 2), search_depth, limit)
    return BooleanWitnessReport(n_points, tuple(entries), cert)
