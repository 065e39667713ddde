"""Greedy norm-minimizing basis reduction and its exhaustive checkers.

reduce_basis rewrites an ordered basis so that each element is a minimum-norm
combination introducing the next original vector. The checkers then confirm,
by enumeration, the inequalities that make the reduced basis useful: the top
term of any word is never larger than the word (max-term-minimality), members
of a word are controlled by a (2p)^k factor (member-word-bound), and later
basis elements are dominated by mixed pairs (pair-domination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import jsonio
from .errors import CapExceededError, InputError, InvalidNormError
from .fpcore import (
    DEFAULT_ENUM_CAP,
    GroupElement,
    OrderedBasis,
    Truncation,
    _same_prime,
    as_prime,
    running_ranks,
    truncation,
    word_digits,
)
from .norms import Norm


@dataclass(frozen=True)
class ReductionStep:
    """Record of one argmin choice: which combination became reduced element n.

    ``coeffs`` has length n; its last entry (the coefficient of the incoming
    original vector) is nonzero. ``tie_count`` is how many candidates achieved
    the minimum; ``runner_up_gap`` is the distance to the next distinct norm
    value, None when every candidate ties.
    """

    index: int
    coeffs: tuple[int, ...]
    element: GroupElement
    norm_value: Fraction
    tie_count: int
    runner_up_gap: Fraction | None

    def __post_init__(self):
        jsonio.require_int(self.index, "step index", low=1)
        jsonio.require_int(self.tie_count, "tie_count", low=1)
        for c in self.coeffs:
            jsonio.require_int(c, f"step {self.index} coefficient")
        if len(self.coeffs) != self.index:
            raise InputError(
                f"step {self.index} must record {self.index} coefficients, "
                f"got {len(self.coeffs)}")
        if self.coeffs[-1] % self.element.prime.p == 0:
            raise InputError(f"step {self.index}: incoming coefficient must be nonzero")

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "coeffs": list(self.coeffs),
            "element": jsonio.element_to_pairs(self.element),
            "norm": jsonio.frac_to_str(self.norm_value),
            "tie_count": self.tie_count,
            "runner_up_gap": (None if self.runner_up_gap is None
                              else jsonio.frac_to_str(self.runner_up_gap)),
        }


@dataclass(frozen=True)
class ReducedBasis:
    """The reduced basis together with the original and the per-step records.

    Prefix spans agree: span(reduced[:n]) = span(original[:n]) for every n,
    checked as rank(reduced[:n] + original[:n]) = n, all n from one
    elimination over reduced[0], original[0], reduced[1], ...
    """

    original: OrderedBasis
    reduced: OrderedBasis
    steps: tuple[ReductionStep, ...]

    def __post_init__(self):
        if len(self.original) != len(self.reduced) or len(self.steps) != len(self.reduced):
            raise InputError("original, reduced, and steps must have equal length")
        if self.original.prime != self.reduced.prime:
            raise InputError("original and reduced bases use different primes")
        for n, step in enumerate(self.steps, start=1):
            if step.index != n:
                raise InputError(f"step {n} carries index {step.index}")
            if step.element != self.reduced[n - 1]:
                raise InputError(f"step {n} element does not match the reduced basis")
        interleaved = [g for pair in zip(self.reduced, self.original) for g in pair]
        for n, r in enumerate(running_ranks(interleaved, self.original.prime)[1::2], start=1):
            if r != n:
                raise InputError(f"prefix spans of length {n} differ")

    @property
    def prime(self):
        return self.original.prime

    def __len__(self):
        return len(self.reduced)

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime.p,
            "original": [jsonio.element_to_pairs(g) for g in self.original],
            "reduced": [jsonio.element_to_pairs(g) for g in self.reduced],
            "steps": [s.to_json_dict() for s in self.steps],
        }


def reduced_basis_from_json(doc: dict) -> ReducedBasis:
    jsonio.require_keys(doc, ["prime", "original", "reduced", "steps"],
                        what="reduced basis document")
    p = doc["prime"]
    prime = as_prime(p)
    original = OrderedBasis(
        prime, tuple(jsonio.element_from_pairs(p, pairs)
                     for pairs in jsonio.require_list(doc["original"], what="original")))
    reduced = OrderedBasis(
        prime, tuple(jsonio.element_from_pairs(p, pairs)
                     for pairs in jsonio.require_list(doc["reduced"], what="reduced")))
    steps = []
    for s in jsonio.require_list(doc["steps"], what="steps"):
        jsonio.require_keys(s, ["index", "coeffs", "element", "norm",
                                "tie_count", "runner_up_gap"], what="reduction step")
        steps.append(ReductionStep(
            index=s["index"],
            coeffs=tuple(jsonio.require_list(s["coeffs"], what="step coeffs")),
            element=jsonio.element_from_pairs(p, s["element"]),
            norm_value=jsonio.frac_from_str(s["norm"]),
            tie_count=s["tie_count"],
            runner_up_gap=(None if s["runner_up_gap"] is None
                           else jsonio.frac_from_str(s["runner_up_gap"])),
        ))
    return ReducedBasis(original, reduced, tuple(steps))


def _require_validated(norm: Norm) -> None:
    if norm.axiom_report is None:
        raise InvalidNormError("run validate_axioms on the norm first")
    if not norm.axiom_report.ok:
        raise InvalidNormError("the norm failed axiom validation; see its axiom_report")


def reduce_basis(basis: OrderedBasis, norm: Norm) -> ReducedBasis:
    """Rewrite the basis so element n is a minimum-norm combination over slot n.

    Element n is the argmin of the norm over all combinations of the first
    n-1 reduced elements plus a nonzero multiple of original element n; ties
    resolve to the lexicographically smallest coefficient vector, so the
    output is fully deterministic. The nonzero multiple matters even in
    slot 1: the axioms allow N(2g) < N(g) once p > 3, and the later word
    floors need whichever multiple is cheapest.

    Step n evaluates p^(n-1) * (p-1) candidates, p^d - 1 in all. The enum
    cap bounds them when the norm's truncation is built: Truncation.rank_of
    refuses an element past dim before it joins the span, so an independent
    basis has d <= dim.
    """
    _require_validated(norm)
    p = basis.prime.p
    _same_prime(p, norm.prime.p)
    d = len(basis)
    tr = norm.truncation
    reduced: list[GroupElement] = []
    steps = []
    for n in range(d):
        # candidates: the rows whose incoming coefficient (last digit) is
        # nonzero; the span memo adds only the element the last step found
        words = tr.extend_span(tr.span_ranks(reduced), basis[n])
        vals, den = norm.values_of(words)
        cand = vals.reshape(-1, p)[:, 1:].ravel()
        i = int(np.argmin(cand))
        best = cand[i]
        above = cand[cand > best]
        row = i // (p - 1) * p + i % (p - 1) + 1
        elem = tr.element_of(int(words[row]))
        steps.append(ReductionStep(
            index=n + 1,
            coeffs=word_digits(row, p, n + 1),
            element=elem,
            norm_value=Fraction(int(best), den),
            tie_count=int((cand == best).sum()),
            runner_up_gap=None if not above.size else Fraction(int(above.min() - best), den),
        ))
        reduced.append(elem)
    tr.span_ranks(reduced)  # the checkers read this span next
    return ReducedBasis(
        original=basis,
        reduced=OrderedBasis(basis.prime, tuple(reduced)),
        steps=tuple(steps),
    )


def _rows(norm: Norm, d: int) -> Truncation:
    """The truncation whose ranks are the p^d rows of a span of d elements:
    the norm's own when d is its dim."""
    tr = norm.truncation
    return tr if tr.dim == d else truncation(tr.prime, d)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one exhaustive inequality check.

    ``max_ratio`` is the largest observed left/right quotient (tightness
    data); ``ratios_by_k`` breaks it down per separation depth where the
    inequality is depth-graded.
    """

    inequality: str
    domain: str
    checked: int
    violations: tuple[dict, ...]
    max_ratio: Fraction | None
    ratios_by_k: dict[int, Fraction] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "domain": self.domain,
            "checked": self.checked,
            "ok": self.ok,
            "violations": list(self.violations),
            "max_ratio": None if self.max_ratio is None else jsonio.frac_to_str(self.max_ratio),
            "ratios_by_k": (None if self.ratios_by_k is None else
                            {str(k): jsonio.frac_to_str(v)
                             for k, v in sorted(self.ratios_by_k.items())}),
        }


def verify_reduced_properties(reduced: ReducedBasis, norm: Norm, *,
                              max_tuple: int | None = None) -> LemmaReport:
    """Exhaustive check that every word is at least as large as its top term.

    The word scan quantifies over coefficient vectors whose top coefficient
    is nonzero; a zero top coefficient is the same statement for a shorter
    tuple. Its p^d words are bounded as reduce_basis's candidates are, by
    the enum cap the norm's truncation was built under.
    """
    if max_tuple is not None:
        jsonio.require_int(max_tuple, "max_tuple", low=1)
    _require_validated(norm)
    p = reduced.prime.p
    d = len(reduced)
    tr = norm.truncation
    span = tr.span_ranks(reduced.reduced.elems)
    vals, den = norm.values_of(span)
    rows = _rows(norm, d)
    # the nonzero rows within the tuple bound, and the top of each; every
    # top j has a word, its unit row, whose value starts the minimum
    all_sizes = max_tuple is None or max_tuple >= d
    words = rows.words_within(d if all_sizes else max_tuple)
    tops, vw = rows.top[words], vals[words]
    top_values = vals[[0] + [p ** (d - j) for j in range(1, d + 1)]]
    smallest = top_values.copy()
    np.minimum.at(smallest, tops, vw)
    # every vw > 0 (nonzero words), so vt / vw peaks at the smallest vw per top
    ratios = [Fraction(int(top_values[j]), int(smallest[j])) for j in range(1, d + 1)]
    violations = []
    for row in words[top_values[tops] > vw].tolist():
        top = int(rows.top[row])
        violations.append({
            "check": "max-term-minimality",
            "coeffs": list(word_digits(row, p, d)),
            "w": jsonio.element_to_pairs(tr.element_of(int(span[row]))),
            "top_index": top,
            "value_top": jsonio.frac_to_str(Fraction(int(top_values[top]), den)),
            "value_w": jsonio.frac_to_str(Fraction(int(vals[row]), den)),
        })
    tuple_note = "all tuple sizes" if all_sizes else f"tuple sizes up to {max_tuple}"
    return LemmaReport(
        inequality="max-term-minimality",
        domain=(f"all nonzero coefficient vectors over F_{p}^{d} ({tuple_note}); "
                "the top coefficient is nonzero by construction, a zero top "
                "coefficient restates the check for a shorter tuple"),
        checked=words.size,
        violations=tuple(violations),
        max_ratio=max(ratios),
    )


def require_member_bound_scan(p: int, d: int, max_tuple: int, cap: int | None) -> None:
    """Refuse a member-bound scan over d reduced elements of prime p whose
    (word, depth, scalar) triples pass the enum cap. The count needs no norm
    values, so a caller can check it before the axioms and the reduction."""
    count_est = sum(
        math.comb(d, n) * (p - 1) ** n * n * p for n in range(1, min(d, max_tuple) + 1))
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if count_est > cap:
        raise CapExceededError(f"bound scan needs ~{count_est} evaluations, above cap {cap}")


def check_member_word_bound(reduced: ReducedBasis, norm: Norm, *,
                            max_tuple: int = 6, cap: int | None = None) -> LemmaReport:
    """Members of a word are bounded:
    eval(mu * top-k-th term) <= min(mu, p-mu) * (2p)^k * eval(w).

    Quantifies over all words with up to ``max_tuple`` distinct reduced
    indices and all-nonzero coefficients, all separation depths k, and all
    scalars mu. The min(mu, p-mu) factor is the scalar slack: mu copies of
    an element cost at most mu triangle steps (or p-mu via negation), and
    for p > 3 a middle scalar genuinely needs it. Reports the worst observed
    slack-normalized ratio per k.
    """
    jsonio.require_int(max_tuple, "max_tuple", low=1)
    _require_validated(norm)
    p = reduced.prime.p
    d = len(reduced)
    require_member_bound_scan(p, d, max_tuple, cap)

    # a word is a row whose support has 1..max_tuple indices; its target at
    # depth k is the top of its k-th strip, and a word with k terms or fewer
    # is stripped to rank 0, of top 0, which is no target. Only the values
    # of the words and of the terms mu * reduced[j - 1] are gathered.
    rows = _rows(norm, d)
    words = rows.words_within(max_tuple)
    checked = p * int(rows.support[words].sum())
    span = norm.truncation.span_ranks(reduced.reduced.elems)
    vw, den = norm.values_of(span[words])
    terms = norm.values_of(span[[mu * p ** (d - j) for j in range(1, d + 1)
                                 for mu in range(p)]])[0]
    peak = vw.max()
    found = []
    # per k, the largest ratio vt / (slack * smallest) as an integer pair,
    # compared by cross-multiplication; the Fractions are built at the end
    best: dict[int, tuple[int, int]] = {}
    stripped = words
    for k in range(min(d, max_tuple)):
        if k:
            stripped = rows.strip[stripped]
        targets = rows.top[stripped]
        # every target j in 1..d-k has a word at depth k, so each of their
        # minima is one of its values
        least = np.full(d + 1, peak, dtype=vw.dtype)
        np.minimum.at(least, targets, vw)
        for j in range(1, d - k + 1):
            # every vw > 0 (nonzero words), so the ratio peaks at the smallest
            smallest = int(least[j])
            for mu in range(p):
                slack = max(1, min(mu, p - mu))
                factor = slack * (2 * p) ** k
                vt = int(terms[(j - 1) * p + mu])
                if k not in best or vt * best[k][1] > best[k][0] * slack * smallest:
                    best[k] = (vt, slack * smallest)
                # vt > factor * vw, divided through so that no entry is multiplied;
                # no word is that small when the smallest is not
                limit = (vt - 1) // factor
                if smallest > limit:
                    continue
                bad = np.flatnonzero((targets == j) & (vw <= limit))
                for row, value in zip(words[bad].tolist(), vw[bad].tolist()):
                    coeffs = word_digits(row, p, d)
                    found.append((int(rows.support[row]), [i + 1 for i, c in enumerate(coeffs) if c],
                                  [c for c in coeffs if c], k, mu, row, value, vt, factor))
    violations = [{
        "check": "member-word-bound",
        "indices": indices,
        "coeffs": coeffs,
        "k": k,
        "mu": mu,
        "value_term": jsonio.frac_to_str(Fraction(vt, den)),
        "value_w": jsonio.frac_to_str(Fraction(value, den)),
        "bound": jsonio.frac_to_str(Fraction(factor * value, den)),
    } for _, indices, coeffs, k, mu, _, value, vt, factor in sorted(found)]
    ratios_by_k = {k: Fraction(*pair) for k, pair in best.items()}
    return LemmaReport(
        inequality="member-word-bound",
        domain=(f"words over up to {min(d, max_tuple)} distinct reduced indices with "
                f"all-nonzero coefficients; k = 0..n-1; mu over F_{p}"),
        checked=checked,
        violations=tuple(violations),
        max_ratio=max(ratios_by_k.values()) if ratios_by_k else None,
        ratios_by_k=ratios_by_k,
    )


def check_pair_domination(reduced: ReducedBasis, norm: Norm) -> LemmaReport:
    """For indices n' < n'': eval(e'_{n''}) <= eval(e'_{n'} + (p-1) e'_{n''})."""
    _require_validated(norm)
    p = reduced.prime.p
    d = len(reduced)
    vals, den = norm.values_of(norm.truncation.span_ranks(reduced.reduced.elems))
    violations: list[dict] = []
    # the largest ratio vb / vc as an integer pair, compared by
    # cross-multiplication; one Fraction is built at the end
    top = None
    checked = 0
    for a in range(d):
        for b in range(a + 1, d):
            vc = int(vals[p ** (d - 1 - a) + (p - 1) * p ** (d - 1 - b)])
            vb = int(vals[p ** (d - 1 - b)])
            checked += 1
            if vc > 0 and (top is None or vb * top[1] > top[0] * vc):
                top = (vb, vc)
            if vb > vc:
                violations.append({
                    "check": "pair-domination",
                    "n_prime": a + 1,
                    "n_dprime": b + 1,
                    "value_later": jsonio.frac_to_str(Fraction(vb, den)),
                    "value_combo": jsonio.frac_to_str(Fraction(vc, den)),
                })
    return LemmaReport(
        inequality="pair-domination",
        domain=f"all index pairs n' < n'' in 1..{d}",
        checked=checked,
        violations=tuple(violations),
        max_ratio=None if top is None else Fraction(*top),
    )
