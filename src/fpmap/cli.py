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

from . import jsonio
from .errors import (
    CapExceededError,
    ExhaustedError,
    InputError,
    InternalDisagreementError,
    InvalidNormError,
    NormBoundFailedError,
)
from .extraction import require_l
from .fpcore import Prime
from .pipeline import RunConfig, RunReport, run_pipeline
from .reduction import reduced_basis_from_json

EXIT_PASS = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _load_json(path: str):
    """The document at path. A file that does not decode as JSON in UTF-8,
    holds an integer past the int digit limit or nests too deep for the
    parser is malformed input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid JSON: {exc}") from None


def _emit(doc: dict, out: str | None) -> None:
    text = jsonio.canonical_dumps(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _env_cap() -> int | None:
    """FPMAP_ENUM_CAP, None when it is unset or empty."""
    raw = os.environ.get("FPMAP_ENUM_CAP")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"FPMAP_ENUM_CAP must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError(f"FPMAP_ENUM_CAP must be positive, got {value}")
    return value


def _run_config(doc, *, norm_only: bool = False, l: int = 1, m: int = 1) -> RunConfig:
    """The RunConfig of one subcommand, with FPMAP_ENUM_CAP applied.

    doc is a run config, or with norm_only a bare norm descriptor: its prime
    and dim are the norm's, and l and m are checked by the stages that use
    them. FPMAP_ENUM_CAP beats the run config's caps.enum. It bounds work
    only, so it goes into the RunConfig field and never into cfg.raw, whose
    echo stays the file's document.
    """
    cap = _env_cap()
    cfg = RunConfig(None, None, doc, l=l, m=m) if norm_only else RunConfig.from_json_dict(doc)
    return cfg if cap is None else replace(cfg, enum_cap=cap)


def _run_through(cfg: RunConfig, stages: tuple, **kwargs) -> RunReport:
    """One run_pipeline call on cfg, with kwargs, that must reach the stages.

    A selection or norm-bound error, or an axiom failure that stopped the
    chain before them, is raised as the finding it is.
    """
    report = run_pipeline(cfg, stages, **kwargs)
    if report.error is not None:
        finding = ExhaustedError if report.error["kind"] == "exhausted" else NormBoundFailedError
        raise finding(report.error["message"])
    if report.stages[stages[-1]] is None:
        raise InvalidNormError("the norm failed axiom validation; see its axiom_report")
    return report


def _emit_stage(cfg: RunConfig, name: str, out: str | None) -> int:
    report = _run_through(cfg, (name,))
    _emit(report.stages[name], out)
    return EXIT_PASS if report.ok else EXIT_VIOLATIONS


def cmd_validate_norm(args) -> int:
    cfg = _run_config(_load_json(args.config), norm_only=True)
    return _emit_stage(cfg, "axioms", args.out)


def cmd_reduce(args) -> int:
    cfg = _run_config(_load_json(args.config), norm_only=True)
    report = _run_through(cfg, ("reduction",))
    _emit({"norm": cfg.norm_cfg, "reduced": report.stages["reduction"]}, args.out)
    return EXIT_PASS


def _parse_limits(tokens) -> int:
    """The tuple bound n of verify's --limits tokens, 4 when none is given."""
    n = 4
    for token in tokens or []:
        key, sep, value = token.partition("=")
        if not sep or key != "n":
            raise InputError(f"unknown limit {token!r}; expected n=<int>")
        try:
            n = int(value)
        except ValueError:
            raise InputError(f"limit n must be an integer, got {value!r}") from None
    return jsonio.require_int(n, "max_tuple", low=1)


_LEMMA_STAGES = {"props": ("properties",), "1": ("member_word_bound",),
                 "2": ("pair_domination",),
                 "all": ("properties", "member_word_bound", "pair_domination")}


def cmd_verify(args) -> int:
    # all input is read before the norm is built; --limits n bounds the
    # properties check too, where run's checks every tuple size
    if args.reduced is not None:
        doc = jsonio.require_keys(_load_json(args.reduced), ["norm", "reduced"], [],
                                  what="reduce output")
        norm_cfg = doc["norm"]
    else:
        doc, norm_cfg = None, _load_json(args.config)
    cfg = _run_config(norm_cfg, norm_only=True)
    reduced = None if doc is None else reduced_basis_from_json(doc["reduced"])
    n = _parse_limits(args.limits)
    report = _run_through(replace(cfg, max_tuple=n), _LEMMA_STAGES[args.lemma],
                          reduced=reduced, properties_tuple=n)
    _emit({k: report.stages[k] for k in _LEMMA_STAGES["all"]}, args.out)
    return EXIT_PASS if report.ok else EXIT_VIOLATIONS


def cmd_extract(args) -> int:
    cfg = _run_config(_load_json(args.config), norm_only=True, m=args.length)
    stages = _run_through(cfg, ("family",)).stages
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
    spec = topology_from_config(doc, cap=_env_cap())
    _cross_check(args, "spec", spec.prime, spec.dim)
    if args.check == "kernel":
        basis = von_neumann_kernel(spec)
        _emit({
            "prime": spec.prime.p,
            "dim": spec.dim,
            "kernel_basis": [jsonio.element_to_pairs(g) for g in basis],
        }, args.out)
        return EXIT_PASS
    report = is_map(spec)
    _emit(report.to_json_dict(), args.out)
    return EXIT_PASS


def cmd_demo_boolean(args) -> int:
    from .duality import boolean_counterexample
    report = boolean_counterexample(args.points, search_depth=args.depth, cap=_env_cap())
    _emit(report.to_json_dict(), args.out)
    return EXIT_PASS


def cmd_run(args) -> int:
    cfg = _run_config(_load_json(args.config))
    timings: dict = {}
    try:  # a run stopped after its build began prints the stages it timed, too
        report = run_pipeline(cfg, timings=timings)
        _emit(report.to_json_dict(), args.out)
    finally:
        sys.stderr.writelines(line + "\n" for line in _timing_lines(timings))
    return EXIT_PASS if report.ok else EXIT_VIOLATIONS


def _timing_lines(timings: dict) -> list[str]:
    return [f"timing {stage}: {seconds:.3f}s" for stage, seconds in timings.items()]


def _violation_lines(violations, limit=10):
    lines = [f"    {v}" for v in violations[:limit]]
    if len(violations) > limit:
        lines.append(f"    ... and {len(violations) - limit} more")
    return lines


def render_report(doc: dict) -> str:
    """Human-readable view of a RunReport JSON document."""
    lines = [f"verdict: {doc['verdict']}"]
    cfg = doc["config"]
    norm_kind = cfg.get("norm", {}).get("kind", "?")
    lines.append(f"config: prime={cfg.get('prime', '?')} dim={cfg.get('dim', '?')} "
                 f"norm={norm_kind} limits={cfg.get('limits', {})}")
    if doc["error"]:
        err = doc["error"]
        lines.append(f"stopped at stage {err.get('stage')}: {err.get('message')}")
    stages = doc["stages"]

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
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    doc = jsonio.require_keys(_load_json(args.input),
                              ["config", "stages", "verdict", "error", "timings"],
                              what="run report")
    try:
        text = render_report(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # a field the view reads is missing or of the wrong JSON type
        raise InputError(f"malformed run report: {exc!r}") from None
    sys.stdout.write(text)
    return EXIT_PASS if doc["verdict"] == "pass" else EXIT_VIOLATIONS


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a norm config JSON")
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
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a norm config JSON")
    source.add_argument("--reduced", help="path to a reduce output JSON")
    sub.add_argument("--lemma", choices=tuple(_LEMMA_STAGES), default="all")
    sub.add_argument("--limits", action="append", metavar="n=INT",
                     help="checker limits, e.g. n=4 for the tuple size")
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
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_run)

    return parser


# parsing leaves a parser as it was, and one built per call leaves its
# reference cycles for the garbage collector to find
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its usage and error (2) or the help (0)
        return exc.code
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ExhaustedError, NormBoundFailedError, InternalDisagreementError,
            InvalidNormError) as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS


if __name__ == "__main__":
    sys.exit(main())
