"""End-to-end experiment runs: config in, deterministic report out.

A run walks the whole chain on one norm: axiom validation, basis reduction,
the reduction checkers, null-subsequence selection over the norm-sorted
span, family extraction, the independence modulus, and the product-topology
tables. Violations reported by any stage are collected into the report and
decide the verdict; they never abort the run. Only malformed input aborts.

Reports serialize canonically: fixed key set, explicit nulls for stages
that did not run, rationals as "num/den" strings, and no wall-clock data
unless explicitly asked for (timings are the one nondeterministic field,
so the canonical byte stream excludes them).
"""

from dataclasses import dataclass, field
from time import perf_counter

from . import jsonio
from .errors import (
    CapExceededError,
    ExhaustedError,
    InputError,
    NormBoundFailedError,
)
from .extraction import (
    extract_independent_family,
    independence_modulus,
    norm_sorted_span,
    product_coarser_check,
    select_null_subsequence,
)
from .fpcore import DEFAULT_ENUM_CAP, OrderedBasis, Prime, as_prime
from .norms import norm_from_config, validate_axioms
from .reduction import (
    check_member_word_bound,
    check_pair_domination,
    reduce_basis,
    verify_reduced_properties,
)

STAGE_KEYS = (
    "axioms",
    "reduction",
    "properties",
    "member_word_bound",
    "pair_domination",
    "selection",
    "family",
    "modulus",
    "coarser",
)


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run description.

    prime and dim are stated twice on purpose (top level and inside the norm
    descriptor); the cross-check catches config editing mistakes early. A
    bare norm descriptor runs with prime and dim None: they are the norm's.
    """

    prime: Prime | None
    dim: int | None
    norm_cfg: dict
    max_tuple: int = 4
    l: int = 1
    m: int = 1
    enum_cap: int = DEFAULT_ENUM_CAP
    matching_cap: int | None = None
    out: str | None = None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_json_dict(cls, cfg: dict) -> "RunConfig":
        jsonio.require_keys(cfg, ["prime", "dim", "norm"],
                            ["limits", "caps", "threads", "out"],
                            what="run config")
        prime = as_prime(cfg["prime"])
        dim = jsonio.require_int(cfg["dim"], "dim", low=1)
        limits = jsonio.require_keys(cfg.get("limits", {}), [],
                                     ["max_tuple", "l", "m"], what="limits")
        l = limits.get("l", 1)
        m = limits.get("m", min(dim, 5))
        if not (jsonio.is_int(l) and jsonio.is_int(m) and 1 <= l <= m <= dim):
            raise InputError(f"limits need 1 <= l <= m <= dim, got l={l!r}, m={m!r}")
        max_tuple = jsonio.require_int(limits.get("max_tuple", 4), "max_tuple", low=1)
        caps = jsonio.require_keys(cfg.get("caps", {}), [],
                                   ["enum", "matching"], what="caps")
        enum_cap = jsonio.require_int(caps.get("enum", DEFAULT_ENUM_CAP), "enum cap", low=1)
        matching_cap = caps.get("matching")
        if matching_cap is not None:
            jsonio.require_int(matching_cap, "matching cap", low=1)
        # accepted and checked, but ignored
        jsonio.require_int(cfg.get("threads", 1), "threads", low=1)
        out = cfg.get("out")
        if out is not None and not isinstance(out, str):
            raise InputError(f"out must be a path string, got {out!r}")
        if not isinstance(cfg["norm"], dict):
            raise InputError("norm descriptor must be a JSON object")
        return cls(prime, dim, dict(cfg["norm"]), max_tuple, l, m,
                   enum_cap, matching_cap, out, cfg)

    @property
    def norm_descriptor(self):
        """norm_cfg with the run's matching cap, which beats the descriptor's own."""
        if self.matching_cap is None or not isinstance(self.norm_cfg, dict) \
                or self.norm_cfg.get("kind") != "graev_boolean":
            return self.norm_cfg
        return dict(self.norm_cfg, matching_cap=self.matching_cap)

    def build_norm(self):
        norm = norm_from_config(self.norm_descriptor, cap=self.enum_cap)
        if self.prime is not None and norm.prime != self.prime:
            raise InputError(
                f"config prime {self.prime.p} does not match the norm's {norm.prime.p}")
        if self.dim is not None and norm.dim != self.dim:
            raise InputError(
                f"config dim {self.dim} does not match the norm's {norm.dim}")
        return norm


@dataclass(frozen=True)
class RunReport:
    """One run's outcome: config echo, per-stage documents, verdict.

    stages always carries every stage key; a stage that did not run is an
    explicit null. error describes the first aborting finding (exhaustion or
    a failed norm bound), if any. timings are measured but excluded from
    canonical bytes; pass include_timings=True to embed them.
    """

    config_echo: dict
    stages: dict
    verdict: str
    error: dict | None
    timings: dict

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self, *, include_timings: bool = False) -> dict:
        return {
            "config": self.config_echo,
            "stages": {k: self.stages[k] for k in STAGE_KEYS},
            "verdict": self.verdict,
            "error": self.error,
            "timings": dict(self.timings) if include_timings else None,
        }

    def to_canonical_json(self, *, include_timings: bool = False) -> str:
        return jsonio.canonical_dumps(self.to_json_dict(include_timings=include_timings))


def run_pipeline(cfg: RunConfig, stages: tuple = STAGE_KEYS) -> RunReport:
    """Build the norm, then run the given stages and the stages they read from.

    Stages run in STAGE_KEYS order, axioms always; a stage that is neither
    asked for nor read from stays null. Axiom failure, selection exhaustion,
    and a failed member norm bound stop the chain (later stages stay null,
    verdict "fail") but still produce a complete report. Checker violations
    only flip the verdict. The norm build is timed as "build" but has no
    stage document.
    """
    # every stage after axioms reads the reduced basis, modulus and coarser
    # read the family, and the family is extracted from the selection
    wanted = {"build", "axioms", *stages}
    if wanted & {"modulus", "coarser"}:
        wanted.add("family")
    if "family" in wanted:
        wanted.add("selection")
    if wanted - {"build", "axioms"}:
        wanted.add("reduction")
    docs: dict = {k: None for k in STAGE_KEYS}
    timings: dict = {}
    error = None
    # threads (accepted, but ignored) and out never change what a run
    # computes, so they stay out of the echo to keep reports byte-identical
    # across execution settings.
    echo = {k: v for k, v in cfg.raw.items() if k not in ("threads", "out")}
    cap = cfg.enum_cap

    def run_stage(name, fn):
        """fn's result, timed with its document; None for a stage not asked for."""
        if name not in wanted:
            return None
        t0 = perf_counter()
        try:
            result = fn()
            if name in docs:
                docs[name] = result.to_json_dict()
        except CapExceededError as exc:
            raise CapExceededError(f"stage {name}: {exc}") from exc
        finally:
            timings[name] = perf_counter() - t0
        return result

    def failed(*reports):
        return any(r is not None and not r.ok for r in reports)

    norm = run_stage("build", cfg.build_norm)
    axioms = run_stage("axioms", lambda: validate_axioms(norm, cap=cap))
    bad = not axioms.ok

    if not bad:
        reduced = run_stage("reduction", lambda: reduce_basis(
            OrderedBasis.standard(norm.prime, norm.dim), norm, cap=cap))
        bad = failed(
            run_stage("properties", lambda: verify_reduced_properties(
                reduced, norm, cap=cap)),
            run_stage("member_word_bound", lambda: check_member_word_bound(
                reduced, norm, max_tuple=cfg.max_tuple, cap=cap)),
            run_stage("pair_domination", lambda: check_pair_domination(
                reduced, norm)))

        try:
            seq = run_stage("selection", lambda: select_null_subsequence(
                norm_sorted_span(norm, cap=cap), norm, reduced, cfg.m))
            family = run_stage("family", lambda: extract_independent_family(
                seq, reduced, norm))
        except ExhaustedError as exc:
            error = {
                "stage": "selection",
                "kind": "exhausted",
                "message": str(exc),
                "achievable_length": exc.achievable_length,
                "failed_slot": exc.failed_slot,
                "constraint": exc.constraint,
            }
            bad = True
        except NormBoundFailedError as exc:
            error = {"stage": "family", "kind": "norm-bound", "message": str(exc)}
            bad = True
        else:
            bad |= failed(
                run_stage("modulus", lambda: independence_modulus(
                    family, norm, cfg.l, cfg.m, cap=cap)),
                run_stage("coarser", lambda: product_coarser_check(
                    family, norm, cfg.m, cap=cap)))

    return RunReport(
        config_echo=echo,
        stages=docs,
        verdict="fail" if bad else "pass",
        error=error,
        timings=timings,
    )


def run_from_json_dict(cfg: dict) -> RunReport:
    return run_pipeline(RunConfig.from_json_dict(cfg))
