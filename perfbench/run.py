"""fpmap benchmark: seeded run-config corpora through `fpmap run`.

Usage, from the repository root:

    python3 perfbench/run.py --workload cost-p5 --seed 0 --seconds 30 --trace 0

Load shape: a closed loop in this one process. Each timed step is one
in-process ``fpmap.cli.main(["run", "--config", ..., "--out", ...])`` call
on one config with ``threads=1``; the next starts when it returns. A
``--trace 0`` run makes one full pass over the corpus, so that every stored
digest is checked, and then continues until ``--seconds`` have passed. Its
set-up probes run in fresh processes between configs, spread over the same
window; their time is left out of the throughput.

Every call must exit 0 with verdict ``pass``; its report bytes must match
the stored sha256 (default seed only) and every other run of the same
config in the process. Any miss counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half of
``--seconds`` on an untraced loop, then runs the whole corpus once with
spans around fpmap's layer functions (see tracer.py) and prints per-layer
metrics.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
REFERENCE = HERE / "reference_digests.json"
sys.path.insert(0, str(HERE))

from tracer import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, make_corpus  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 40
THREADS2_CONFIGS = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def import_cli():
    """Import fpmap's CLI from this checkout's src/, never from elsewhere."""
    if not (SRC / "fpmap" / "__init__.py").is_file():
        raise BenchError(f"no fpmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from fpmap import cli

    if Path(cli.__file__).resolve().parent != (SRC / "fpmap").resolve():
        raise BenchError(f"imported fpmap from {cli.__file__}, not from {SRC}")
    return cli


def load_reference(workload: str) -> list[str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        digests = json.load(fh).get(workload)
    if digests is None:
        raise BenchError(f"{REFERENCE.name} has no digests for {workload}")
    return digests


def _verdict(data: bytes):
    try:
        return json.loads(data).get("verdict")
    except (ValueError, AttributeError):
        return None


class Verifier:
    """Checks each `fpmap run` outcome and counts attempted and failed calls.

    A call fails on an exception, a non-zero exit code, a verdict other than
    ``pass``, a sha256 that differs from the reference, or report bytes that
    differ from an earlier run of the same config in this process.
    """

    def __init__(self, reference: list[str] | None):
        self.reference = reference
        self.reports: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def record(self, index: int, code, data: bytes | None, stderr: str = "") -> bool:
        self.attempted += 1
        problem = None
        if code != 0:
            said = [line for line in stderr.splitlines() if not line.startswith("timing ")]
            problem = f"exit {code}" + (f" ({said[-1]})" if said else "")
        elif (verdict := _verdict(data)) != "pass":
            problem = f"verdict is {verdict!r}, not 'pass'"
        elif self.reference is not None and \
                hashlib.sha256(data).hexdigest() != self.reference[index]:
            problem = "report sha256 differs from the reference"
        elif self.reports.setdefault(index, data) != data:
            problem = "report bytes differ from an earlier run of this config"
        if problem is not None:
            self.fail(f"config {index}: {problem}")
        return problem is None

    def digests(self) -> list[str]:
        return [hashlib.sha256(self.reports[i]).hexdigest() for i in sorted(self.reports)]


class SetupProbes:
    """Seconds to import the CLI and parse the configs, one fresh process each.

    The probes are spread over the timed loop, so that they see the same host
    states as the configs. One extra unmeasured probe first fills the bytecode
    cache, which an installed package already has.
    """

    def __init__(self, paths: list[str], repeats: int):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *paths]
        self.repeats = repeats
        self.samples: list[float] = []
        self._probe()

    def _probe(self) -> float:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        return float(done.stdout.split()[-1])

    def catch_up(self, fraction: float) -> None:
        """Run the probes due once this fraction of the loop has passed."""
        due = self.repeats if fraction >= 1 else math.ceil(self.repeats * fraction)
        while len(self.samples) < due:
            self.samples.append(self._probe())


def run_pass(cli, paths: list[str], out: str, verifier: Verifier, seconds: float,
             min_calls: int, recorder: SpanRecorder | None = None,
             probes: SetupProbes | None = None) -> tuple[list[float], float, int]:
    """Closed loop over paths, in order and round robin: at least min_calls
    calls, then more until seconds have passed.

    Due set-up probes run after each call; they count towards the seconds
    but not towards the elapsed time returned.

    Returns (seconds per call, elapsed seconds, verified calls).
    """
    times = []
    verified = 0
    probing = 0.0
    start = time.perf_counter()
    i = 0
    while i < min_calls or time.perf_counter() - start < seconds:
        index = i % len(paths)
        if os.path.exists(out):
            os.remove(out)
        err = io.StringIO()
        scope = recorder.root(i) if recorder is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope, contextlib.redirect_stderr(err):
                code = cli.main(["run", "--config", paths[index], "--out", out])
        except Exception as exc:  # a crash is a failed config, not a dead benchmark
            code = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        data = None
        if code == 0:
            with open(out, "rb") as fh:
                data = fh.read()
        verified += verifier.record(index, code, data, err.getvalue())
        i += 1
        if probes is not None:
            t0 = time.perf_counter()
            probes.catch_up((t0 - start) / seconds if seconds > 0 else 1.0)
            probing += time.perf_counter() - t0
    elapsed = time.perf_counter() - start - probing
    if probes is not None:
        probes.catch_up(1.0)
    return times, elapsed, verified


def threads2_seconds(paths: list[str], verifier: Verifier) -> list[float]:
    """validate_axioms with threads=2 on the first configs' norms.

    Its axiom document must equal the one in the threads=1 report.
    """
    from fpmap import jsonio
    from fpmap.norms import validate_axioms
    from fpmap.pipeline import RunConfig

    samples = []
    for index, path in enumerate(paths[:THREADS2_CONFIGS]):
        with open(path, encoding="utf-8") as fh:
            cfg = RunConfig.from_json_dict(json.load(fh))
        norm = cfg.build_norm()
        t0 = time.perf_counter()
        report = validate_axioms(norm, cap=cfg.enum_cap, threads=2)
        samples.append(time.perf_counter() - t0)
        got = json.loads(jsonio.canonical_dumps(report.to_json_dict()))
        if index in verifier.reports and \
                got != json.loads(verifier.reports[index])["stages"]["axioms"]:
            verifier.fail(f"config {index}: threads=2 axiom report differs from threads=1")
    return samples


def rank_row_bytes(p: int, dim: int, rows: float) -> float:
    """Bytes the rank rows touch, computed from array sizes, not measured.

    p != 2: three (size, dim) int64 arrays per row, namely the digit table,
    the digit sum and its mod-p reduction that feeds the matmul. p == 2: an
    int64 arange read and the XOR result written.
    """
    size = p ** dim
    per_row = 3 * size * dim * 8 if p != 2 else 2 * size * 8
    return rows * per_row


def layer_metrics(recorder: SpanRecorder, p: int, dim: int, timed_p50: float,
                  threads2: list[float]) -> dict[str, tuple[float, str]]:
    rows = list(recorder.per_config().values())

    def med(*keys: str) -> float:
        return statistics.median(sum(r.get(k, 0) for k in keys) for r in rows)

    config_s = statistics.median(sum(v for k, v in r.items() if k.endswith(".self_s"))
                                 for r in rows)
    rank_rows = med("fpcore.rank_row.calls")
    return {
        "fpcore.rank_rows": (rank_rows, "count"),
        "fpcore.rank_rows_s": (med("fpcore.rank_row.self_s"), "s"),
        "fpcore.rank_rows_bytes": (rank_row_bytes(p, dim, rank_rows), "bytes_computed"),
        "fpcore.solve_in_span_calls": (med("fpcore.solve_in_span.calls"), "count"),
        "fpcore.solve_in_span_s": (med("fpcore.solve_in_span.self_s"), "s"),
        "norms.build_s": (med("norms.build.self_s"), "s"),
        "norms.validate_axioms_s": (med("norms.validate_axioms.self_s"), "s"),
        "norms.pairs_checked": (med("norms.validate_axioms.pairs_checked"), "count"),
        "norms.validate_axioms_threads2_s": (statistics.median(threads2), "s"),
        "norms.eval_calls": (med("norms.eval.calls"), "count"),
        "norms.eval_s": (med("norms.eval.self_s"), "s"),
        "reduction.reduce_basis_s": (med("reduction.reduce_basis.self_s"), "s"),
        "reduction.verify_reduced_properties_s":
            (med("reduction.verify_reduced_properties.self_s"), "s"),
        "reduction.check_member_word_bound_s":
            (med("reduction.check_member_word_bound.self_s"), "s"),
        "reduction.check_pair_domination_s":
            (med("reduction.check_pair_domination.self_s"), "s"),
        "reduction.words_checked": (med("reduction.verify_reduced_properties.checked",
                                        "reduction.check_member_word_bound.checked",
                                        "reduction.check_pair_domination.checked"), "count"),
        "extraction.norm_sorted_span_s": (med("extraction.norm_sorted_span.self_s"), "s"),
        "extraction.select_null_subsequence_s":
            (med("extraction.select_null_subsequence.self_s"), "s"),
        "extraction.extract_independent_family_s":
            (med("extraction.extract_independent_family.self_s"), "s"),
        "extraction.independence_modulus_s":
            (med("extraction.independence_modulus.self_s"), "s"),
        "extraction.combos_checked":
            (med("extraction.independence_modulus.combos_checked"), "count"),
        "duality.product_coarser_check_s": (med("duality.product_coarser_check.self_s"), "s"),
        "duality.combos_checked": (med("duality.product_coarser_check.combos_checked"), "count"),
        "cli.self_s": (med("cli.run.self_s"), "s"),
        "report_s_p50": (timed_p50, "s"),
        "trace.report_s_p50": (config_s, "s"),
        "trace.overhead_s": (config_s - timed_p50, "s"),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, *,
                  smoke: bool = False, reference: list[str] | None = None,
                  setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; prints a readable summary and returns the result."""
    cli = import_cli()
    w = WORKLOADS[workload]
    corpus = make_corpus(workload, seed, smoke=smoke)
    premise_ok, premise = w.premise(corpus)
    print(f"workload {workload} seed {seed} trace {int(trace)}"
          f"{' smoke' if smoke else ''}: {len(corpus)} configs")
    print(f"premise: {premise}: {'holds' if premise_ok else 'DOES NOT HOLD'}")

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        paths = []
        for i, cfg in enumerate(corpus):
            path = work / f"config-{i:02d}.json"
            path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
            paths.append(str(path))
        out = str(work / "report.json")

        verifier = Verifier(reference)
        if trace:
            times, elapsed, verified = run_pass(cli, paths, out, verifier, seconds / 2, 1)
        else:
            probes = SetupProbes(paths, setup_repeats)
            times, elapsed, verified = run_pass(cli, paths, out, verifier, seconds,
                                                len(paths), probes=probes)
        timed_p50 = statistics.median(times)
        if trace:
            recorder = SpanRecorder()
            recorder.install()
            try:
                run_pass(cli, paths, out, verifier, 0, len(paths), recorder)
            finally:
                recorder.uninstall()
            threads2 = threads2_seconds(paths, verifier)
            spans_path = WORK / f"spans-{workload}-seed{seed}.npz"
            recorder.save(str(spans_path))
            metrics = layer_metrics(recorder, corpus[0]["prime"], corpus[0]["dim"],
                                    timed_p50, threads2)
            print(f"spans: {len(recorder.start)} written to {spans_path.relative_to(ROOT)}")
        else:
            metrics = {
                "configs_per_s": (verified / elapsed, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(probes.samples), "s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ratio = verifier.failed / verifier.attempted
    print(f"samples: {len(times)} timed configs in {elapsed:.2f} s")
    if not trace:
        print(f"  {'setup probes':42s} {len(probes.samples):14d} fresh processes")
        # Printed, not declared: see "Steadiness" in README.md.
        print(f"  {'report_s_p50':42s} {timed_p50:14.6g} s (n={len(times)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':42s} {failed_ratio:14.6g} ({verifier.failed}/{verifier.attempted})")
    if trace:
        config_s = metrics["trace.report_s_p50"][0]
        for keys, kind, bound in w.shares:
            share = sum(metrics[k][0] for k in keys) / config_s
            holds = share >= bound if kind == "min" else share < bound
            print(f"chosen for: {' + '.join(keys)} = {share:.1%} of per-config time "
                  f"({'>=' if kind == 'min' else '<'} {bound:.0%} expected): "
                  f"{'yes' if holds else 'NO'}")
    for problem in verifier.problems[:20]:
        print(f"failure: {problem}", file=sys.stderr)
    return {
        "correct": verifier.failed == 0 and premise_ok,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "failed_ratio": failed_ratio,
        "digests": verifier.digests(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dimensions, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        if args.seconds < 0:
            raise BenchError("--seconds must be non-negative")
        full_default = args.seed == DEFAULT_SEED and not args.smoke
        reference = load_reference(args.workload) if full_default else None
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               smoke=args.smoke, reference=reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
