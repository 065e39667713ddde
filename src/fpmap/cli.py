"""Command line surface: thin subcommands over the library operations.

Exit codes are a contract: 0 all checks passed (or the requested output was
produced), 1 violations or negative mathematical findings, 2 malformed
input or config, 3 an enumeration cap was exceeded. Reports are canonical
JSON (sorted keys, two-space indent, rationals as "num/den" strings), byte
stable for a fixed config.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

from . import fpcore, jsonio
from .errors import (
    CapExceededError,
    ExhaustedError,
    InputError,
    InternalDisagreementError,
    InvalidNormError,
    NormBoundFailedError,
)
from .extraction import require_l
from .fpcore import OrderedBasis, Prime, set_prime_cap
from .norms import validate_axioms
from .pipeline import RunConfig, RunReport, run_pipeline
from .reduction import (
    check_member_word_bound,
    check_pair_domination,
    reduce_basis,
    reduced_basis_from_json,
    verify_reduced_properties,
)

EXIT_PASS = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(doc: dict, out: str | None) -> None:
    text = jsonio.canonical_dumps(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError(f"{name} must be positive, got {value}")
    return value


def _env_caps() -> dict:
    """The cap overrides set in the environment, by RunConfig field.

    FPMAP_PRIME_CAP is not a run-config cap; it is applied here, for this
    call only (see main).
    """
    prime_cap = _env_int("FPMAP_PRIME_CAP")
    if prime_cap is not None:
        set_prime_cap(prime_cap)
    caps = {"enum_cap": _env_int("FPMAP_ENUM_CAP"),
            "matching_cap": _env_int("FPMAP_MATCHING_CAP")}
    return {k: v for k, v in caps.items() if v is not None}


def _run_config(doc, *, norm_only: bool = False, l: int = 1, m: int = 1) -> RunConfig:
    """The RunConfig of one subcommand, with the environment's caps applied.

    doc is a run config, or with norm_only a bare norm descriptor: its prime
    and dim are the norm's, and l and m are checked by the stages that use
    them. Every subcommand takes one cap precedence: FPMAP_* beats the run
    config's caps, which beat a matching_cap inside the norm descriptor. The
    environment's caps bound work only, so they go into the RunConfig fields
    and never into cfg.raw, whose echo stays the file's document.
    """
    env = _env_caps()  # first: FPMAP_PRIME_CAP holds while the config parses
    if norm_only:
        cfg = RunConfig(None, None, doc, l=l, m=m)
    else:
        cfg = RunConfig.from_json_dict(doc)
    return replace(cfg, **env)


def _run_through(cfg: RunConfig, name: str) -> RunReport:
    """One run_pipeline call on cfg that must reach stage name.

    A selection or norm-bound error, or an axiom failure that stopped the
    chain before that stage, is raised as the finding it is.
    """
    report = run_pipeline(cfg, stages=(name,))
    if report.error is not None:
        finding = ExhaustedError if report.error["kind"] == "exhausted" else NormBoundFailedError
        raise finding(report.error["message"])
    if report.stages[name] is None:
        raise InvalidNormError("the norm failed axiom validation; see its axiom_report")
    return report


def _emit_stage(cfg: RunConfig, name: str, out: str | None) -> int:
    report = _run_through(cfg, name)
    _emit(report.stages[name], out)
    return EXIT_PASS if report.ok else EXIT_VIOLATIONS


def cmd_validate_norm(args) -> int:
    cfg = _run_config(_load_json(args.config), norm_only=True)
    return _emit_stage(cfg, "axioms", args.out)


def cmd_reduce(args) -> int:
    cfg = _run_config(_load_json(args.config), norm_only=True)
    report = _run_through(cfg, "reduction")
    _emit({"norm": cfg.norm_descriptor, "reduced": report.stages["reduction"]}, args.out)
    return EXIT_PASS


def _parse_limits(tokens) -> dict:
    limits = {}
    for token in tokens or []:
        key, sep, value = token.partition("=")
        if not sep or key != "n":
            raise InputError(f"unknown limit {token!r}; expected n=<int>")
        try:
            limits["n"] = int(value)
        except ValueError:
            raise InputError(f"limit n must be an integer, got {value!r}") from None
    return limits


def cmd_verify(args) -> int:
    # verify calls the checkers itself: its properties check honours --limits
    # n, while run's checks every tuple size
    if args.reduced:
        doc = _load_json(args.reduced)
        jsonio.require_keys(doc, ["norm", "reduced"], [], what="reduce output")
        norm_cfg = doc["norm"]
    elif args.config:
        doc, norm_cfg = None, _load_json(args.config)
    else:
        raise InputError("pass --config or --reduced")
    cfg = _run_config(norm_cfg, norm_only=True)
    norm = cfg.build_norm()
    validate_axioms(norm, cap=cfg.enum_cap)
    if doc is None:
        reduced = reduce_basis(OrderedBasis.standard(norm.prime, norm.dim), norm,
                               cap=cfg.enum_cap)
    else:
        reduced = reduced_basis_from_json(doc["reduced"])
    max_tuple = _parse_limits(args.limits).get("n", 4)
    docs = {"properties": None, "member_word_bound": None, "pair_domination": None}
    bad = False
    if args.lemma in ("props", "all"):
        report = verify_reduced_properties(reduced, norm, max_tuple=max_tuple,
                                           cap=cfg.enum_cap)
        docs["properties"] = report.to_json_dict()
        bad = bad or not report.ok
    if args.lemma in ("1", "all"):
        report = check_member_word_bound(reduced, norm, max_tuple=max_tuple,
                                         cap=cfg.enum_cap)
        docs["member_word_bound"] = report.to_json_dict()
        bad = bad or not report.ok
    if args.lemma in ("2", "all"):
        report = check_pair_domination(reduced, norm)
        docs["pair_domination"] = report.to_json_dict()
        bad = bad or not report.ok
    _emit(docs, args.out)
    return EXIT_VIOLATIONS if bad else EXIT_PASS


def cmd_extract(args) -> int:
    cfg = _run_config(_load_json(args.config), norm_only=True, m=args.length)
    stages = _run_through(cfg, "family").stages
    _emit({"selection": stages["selection"], "family": stages["family"]}, args.out)
    return EXIT_PASS


def cmd_modulus(args) -> int:
    # m >= 1 and l are checked before the chain runs; m's upper bound, the
    # family length the selection reaches, by the modulus stage
    jsonio.require_int(args.m, "m", low=1)
    require_l(args.l, args.m)
    cfg = _run_config(_load_json(args.config), norm_only=True, l=args.l, m=args.m)
    return _emit_stage(cfg, "modulus", args.out)


def _cross_check(args, whose: str, prime: Prime, dim: int) -> None:
    """--prime and --dim, when given, must match the prime and dim of whose."""
    if args.prime is not None and prime.p != args.prime:
        raise InputError(f"--prime {args.prime} does not match the {whose}'s {prime.p}")
    if args.dim is not None and dim != args.dim:
        raise InputError(f"--dim {args.dim} does not match the {whose}'s {dim}")


def cmd_duality(args) -> int:
    doc = _load_json(args.spec)
    if args.check == "coarser":
        cfg = _run_config(doc)
        _cross_check(args, "config", cfg.prime, cfg.dim)
        return _emit_stage(cfg, "coarser", args.out)
    # the topology checks are not on the run chain, so their module loads here
    from .duality import is_map, topology_from_config, von_neumann_kernel
    enum_cap = _env_caps().get("enum_cap")
    spec = topology_from_config(doc, cap=enum_cap)
    _cross_check(args, "spec", spec.prime, spec.dim)
    if args.check == "kernel":
        basis = von_neumann_kernel(spec, cap=enum_cap)
        _emit({
            "prime": spec.prime.p,
            "dim": spec.dim,
            "kernel_basis": [jsonio.element_to_pairs(g) for g in basis],
        }, args.out)
        return EXIT_PASS
    report = is_map(spec, cap=enum_cap)
    _emit(report.to_json_dict(), args.out)
    return EXIT_PASS


def cmd_demo_boolean(args) -> int:
    from .duality import boolean_counterexample
    report = boolean_counterexample(args.points, search_depth=args.depth)
    _emit(report.to_json_dict(), args.out)
    return EXIT_PASS


def cmd_run(args) -> int:
    cfg = _run_config(_load_json(args.config))
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    report = run_pipeline(cfg)
    _emit(report.to_json_dict(include_timings=args.include_timings), cfg.out)
    for stage, seconds in report.timings.items():
        print(f"timing {stage}: {seconds:.3f}s", file=sys.stderr)
    return EXIT_PASS if report.ok else EXIT_VIOLATIONS


def _violation_lines(violations, limit=10):
    lines = [f"    {v}" for v in violations[:limit]]
    if len(violations) > limit:
        lines.append(f"    ... and {len(violations) - limit} more")
    return lines


def render_report(doc: dict) -> str:
    """Human-readable view of a RunReport JSON document."""
    lines = [f"verdict: {doc.get('verdict', '?')}"]
    cfg = doc.get("config", {})
    norm_kind = cfg.get("norm", {}).get("kind", "?")
    lines.append(f"config: prime={cfg.get('prime', '?')} dim={cfg.get('dim', '?')} "
                 f"norm={norm_kind} limits={cfg.get('limits', {})}")
    if doc.get("error"):
        err = doc["error"]
        lines.append(f"stopped at stage {err.get('stage')}: {err.get('message')}")
    stages = doc.get("stages", {})

    ax = stages.get("axioms")
    if ax is None:
        lines.append("axioms: (not run)")
    else:
        lines.append(f"axioms: {ax['elements_checked']} elements, "
                     f"{ax['pairs_checked']} pairs, {len(ax['violations'])} violations")
        lines.extend(_violation_lines(ax["violations"]))

    red = stages.get("reduction")
    if red is None:
        lines.append("reduction: (not run)")
    else:
        steps = red["steps"]
        lines.append(f"reduction: {len(steps)} steps")
        lines.append("    n  coeffs                norm          ties  runner-up gap")
        for s in steps:
            gap = s["runner_up_gap"] if s["runner_up_gap"] is not None else "-"
            lines.append(f"    {s['index']:<2} {str(s['coeffs']):<21} "
                         f"{s['norm']:<13} {s['tie_count']:<5} {gap}")

    for key, label in (("properties", "properties"),
                       ("member_word_bound", "member word bound"),
                       ("pair_domination", "pair domination")):
        rep = stages.get(key)
        if rep is None:
            lines.append(f"{label}: (not run)")
            continue
        extra = ""
        if rep.get("max_ratio") is not None:
            extra = f", max ratio {rep['max_ratio']}"
        if rep.get("ratios_by_k"):
            by_k = ", ".join(f"k={k}: {v}" for k, v in sorted(
                rep["ratios_by_k"].items(), key=lambda kv: int(kv[0])))
            extra += f" ({by_k})"
        lines.append(f"{label}: checked {rep['checked']}, "
                     f"{len(rep['violations'])} violations{extra}")
        lines.extend(_violation_lines(rep["violations"]))

    sel = stages.get("selection")
    if sel is None:
        lines.append("selection: (not run)")
    else:
        lines.append(f"selection: maxes {sel['maxes']}, norms {sel['norms']}")

    fam = stages.get("family")
    if fam is None:
        lines.append("family: (not run)")
    else:
        lines.append(f"family: indices {fam['indices']}, norms {fam['norms']}")

    mod = stages.get("modulus")
    if mod is None:
        lines.append("modulus: (not run)")
    else:
        lines.append(f"modulus: l={mod['l']} m={mod['m']} eps={mod['eps']} "
                     f"delta={mod['delta']}, {mod['combos_checked']} combos, "
                     f"{mod['splits_checked']} splits, "
                     f"{len(mod['violations'])} violations")
        lines.extend(_violation_lines(mod["violations"]))

    coarser = stages.get("coarser")
    if coarser is None:
        lines.append("coarser: (not run)")
    else:
        lines.append(f"coarser: {coarser['combos_checked']} combos, "
                     f"{len(coarser['violations'])} violations")
        last = coarser["tables"].get(str(coarser["m"]), {})
        for F, v in last.items():
            lines.append(f"    delta F={{{F}}}: {v}")
        lines.extend(_violation_lines(coarser["violations"]))

    if doc.get("timings"):
        for stage, t in doc["timings"].items():
            lines.append(f"timing {stage}: {t:.3f}s")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    doc = _load_json(args.input)
    sys.stdout.write(render_report(doc))
    return EXIT_PASS if doc.get("verdict") == "pass" else EXIT_VIOLATIONS


def _add_threads(sub):
    sub.add_argument("--threads", type=int,
                     help="accepted and checked, but ignored: every check runs "
                          "on one thread")


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a norm config JSON")
    _add_threads(sub)
    sub.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpmap",
        description="Finite-truncation norms, basis reduction, and "
                    "almost-periodicity checks over F_p.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate-norm", help="run the axiom validator on a norm")
    _add_common(sub)
    sub.set_defaults(func=cmd_validate_norm)

    sub = subs.add_parser("reduce", help="reduce the standard basis under a norm")
    _add_common(sub)
    sub.set_defaults(func=cmd_reduce)

    sub = subs.add_parser("verify", help="run the reduction checkers")
    sub.add_argument("--config", help="path to a norm config JSON")
    sub.add_argument("--reduced", help="path to a reduce output JSON")
    sub.add_argument("--lemma", choices=("props", "1", "2", "all"), default="all")
    sub.add_argument("--limits", action="append", metavar="n=INT",
                     help="checker limits, e.g. n=4 for the tuple size")
    _add_threads(sub)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("extract", help="select a null subsequence and extract "
                                          "the independent family")
    _add_common(sub)
    sub.add_argument("--length", type=int, required=True,
                     help="requested subsequence length")
    sub.set_defaults(func=cmd_extract)

    sub = subs.add_parser("modulus", help="full chain ending in the independence modulus")
    _add_common(sub)
    sub.add_argument("--l", type=int, required=True, dest="l")
    sub.add_argument("--m", type=int, required=True, dest="m")
    sub.set_defaults(func=cmd_modulus)

    sub = subs.add_parser("duality", help="character continuity and separation checks")
    sub.add_argument("--spec", required=True,
                     help="topology config (map/kernel) or run config (coarser)")
    sub.add_argument("--check", choices=("map", "kernel", "coarser"), default="map")
    sub.add_argument("--prime", type=int, help="cross-check the spec's prime")
    sub.add_argument("--dim", type=int, help="cross-check the spec's dimension")
    _add_threads(sub)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_duality)

    sub = subs.add_parser("demo-boolean", help="the convergent-sequence counterexample")
    sub.add_argument("--points", type=int, default=100)
    sub.add_argument("--depth", type=int, default=3,
                     help="certificate grid depth")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_demo_boolean)

    sub = subs.add_parser("report", help="render a run report as text")
    sub.add_argument("input", help="path to a RunReport JSON file")
    sub.set_defaults(func=cmd_report)

    sub = subs.add_parser("run", help="execute the full pipeline from a run config")
    sub.add_argument("--config", required=True, help="path to a run config JSON")
    _add_threads(sub)
    sub.add_argument("--out", default=None)
    sub.add_argument("--include-timings", action="store_true",
                     help="embed wall-clock timings (breaks byte stability)")
    sub.set_defaults(func=cmd_run)

    return parser


# parsing leaves a parser as it was, and one built per call leaves its
# reference cycles for the garbage collector to find
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    prime_cap = fpcore._prime_cap  # FPMAP_PRIME_CAP holds for this call only
    try:
        if getattr(args, "threads", None) is not None:
            jsonio.require_int(args.threads, "threads", low=1)
        return args.func(args)
    except (InputError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ExhaustedError, NormBoundFailedError, InternalDisagreementError,
            InvalidNormError) as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS
    finally:
        set_prime_cap(prime_cap)


if __name__ == "__main__":
    sys.exit(main())
