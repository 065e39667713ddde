"""Tests of the benchmark itself, at smoke sizes that finish in seconds.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from tracer import SpanRecorder  # noqa: E402
from workloads import CORPUS_SIZE, WORKLOADS, make_corpus  # noqa: E402


def _declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= CORPUS_SIZE
    expected = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == expected
    assert "premise:" in done.stdout and "holds" in done.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_configs(workload):
    for smoke in (False, True):
        first = json.dumps(make_corpus(workload, 11, smoke=smoke), sort_keys=True)
        again = json.dumps(make_corpus(workload, 11, smoke=smoke), sort_keys=True)
        other = json.dumps(make_corpus(workload, 12, smoke=smoke), sort_keys=True)
        assert first == again
        assert first != other


def test_planted_wrong_digest_fails_one_config_in_n():
    clean = bench.run_benchmark("cost-p5", 2, 0, False, smoke=True, setup_repeats=1)
    assert clean["failed_ratio"] == 0 and len(clean["digests"]) == CORPUS_SIZE
    planted = list(clean["digests"])
    planted[4] = "0" * 64
    result = bench.run_benchmark("cost-p5", 2, 0, False, smoke=True, reference=planted,
                                 setup_repeats=1)
    assert result["attempted"] == CORPUS_SIZE
    assert result["failed_ratio"] == 1 / CORPUS_SIZE
    assert result["correct"] is False


def test_child_self_times_sum_to_parent_span(tmp_path):
    import fpmap.pipeline

    cli = bench.import_cli()
    original = fpmap.pipeline.validate_axioms
    paths = []
    for i, cfg in enumerate(make_corpus("graev-p2", 1, smoke=True)[:3]):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths.append(str(path))
    recorder = SpanRecorder()
    recorder.install()
    try:
        bench.run_pass(cli, paths, str(tmp_path / "r.json"), bench.Verifier(None), 0,
                       len(paths), recorder)
    finally:
        recorder.uninstall()
    assert fpmap.pipeline.validate_axioms is original

    a = recorder.arrays()
    dur = a["end"] - a["start"]
    self_s = recorder.self_times()
    assert (self_s >= 0).all()
    for idx in range(len(dur)):
        children = a["parent"] == idx
        assert self_s[idx] + dur[children].sum() == pytest.approx(dur[idx], abs=1e-12)
    roots = [i for i in range(len(dur)) if a["parent"][i] == -1]
    assert len(roots) == len(paths)
    for root in roots:
        in_config = a["config"] == a["config"][root]
        assert self_s[in_config].sum() == pytest.approx(dur[root], abs=1e-9)
    per_config = recorder.per_config()
    assert all(row["norms.eval.calls"] > 0 for row in per_config.values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cost-p5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "{" not in done.stdout
