"""A fresh-process size ladder of run_pipeline, compared across source trees.

    python bench/ladder.py OTHER/src src BENCH_n.json

Each rung is one run_pipeline(cfg, timings=record) call, the whole chain at
its default stages, or one boolean_counterexample(n) call, the demo-boolean
report, in a fresh interpreter with the side's src/ first on its path. The
child prints the call's wall time, the per-stage seconds of the caller-held
record (none for the demo), its ru_maxrss and the sha256 of the report's
canonical JSON. Every rung runs REPEATS times on each side, before and after
alternating, and the output keeps every run. A rung whose digests differ,
between sides or between repeats, fails the ladder: it exits 1 after writing
the file. The file also records each side's src/fpmap/ line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPEATS = 3

# Rung descriptors, in the child's terms: a run config, a seed-0 Graev
# space of n non-basepoint points, random_metric_space(0, n + 1, 1/2, 1), or
# the demo's line of n points.
RUNGS = {
    "graev-16": {"graev": 16},
    "graev-20": {"graev": 20},
    "graev-22": {"graev": 22},
    "graev-23": {"graev": 23},
    # tries the generator certificate, is refuted, then scans
    "ultrametric-2-16": {"norm": {"kind": "ultrametric", "prime": 2, "dim": 16}},
    # controls: the certificate is not tried
    "graded-2-20": {"norm": {"kind": "cost_completion", "prime": 2, "dim": 20, "seed": 0,
                             "graded": True}},
    "graded-3-13": {"norm": {"kind": "cost_completion", "prime": 3, "dim": 13, "seed": 0,
                             "graded": True}},
    "random-cost-2-16": {"norm": {"kind": "cost_completion", "prime": 2, "dim": 16, "seed": 0,
                                  "low": "1/100", "high": "1"}},
    "demo-100": {"demo": 100},
    "demo-300": {"demo": 300},
    "demo-600": {"demo": 600},
}

CHILD = r"""
import hashlib, json, resource, sys, time
from fractions import Fraction
from fpmap import jsonio
from fpmap.norms import random_metric_space
from fpmap.pipeline import RunConfig, run_pipeline

rung = json.loads(sys.argv[1])
record = {}
if "demo" in rung:
    from fpmap.duality import boolean_counterexample
    run = lambda: boolean_counterexample(rung["demo"])
else:
    if "graev" in rung:
        n = rung["graev"]
        space = random_metric_space(0, n + 1, Fraction(1, 2), 1)
        norm = {"kind": "graev_boolean", "space": space.to_json_dict()}
    else:
        norm = rung["norm"]
        n = norm["dim"]
    cfg = RunConfig.from_json_dict({"prime": 2 if "graev" in rung else norm["prime"], "dim": n,
                                    "norm": norm, "limits": {"m": 4}})
    run = lambda: run_pipeline(cfg, timings=record)
t0 = time.perf_counter()
report = run()
wall = time.perf_counter() - t0
text = jsonio.canonical_dumps(report.to_json_dict())
print(json.dumps({
    "wall_s": wall,
    "stages_s": record,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "verdict": getattr(report, "verdict", None),
    "sha256": hashlib.sha256(text.encode()).hexdigest(),
}))
"""


def run_child(src: Path, rung: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(rung)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((src / "fpmap").glob("*.py")))


def summary(runs: list[dict]) -> dict:
    stages = {k: round(statistics.median(r["stages_s"][k] for r in runs), 4)
              for k in runs[0]["stages_s"]}
    return {
        "wall_s": [round(r["wall_s"], 4) for r in runs],
        "wall_s_median": round(statistics.median(r["wall_s"] for r in runs), 4),
        "stages_s_median": stages,
        "maxrss_mb": [round(r["maxrss_mb"], 1) for r in runs],
        "verdict": runs[0]["verdict"],
        "sha256": sorted({r["sha256"] for r in runs}),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before", help="the src/ directory of the tree compared against")
    ap.add_argument("after", help="the src/ directory of the changed tree")
    ap.add_argument("out", help="the JSON file to write")
    args = ap.parse_args(argv)
    sides = {"before": Path(args.before).resolve(), "after": Path(args.after).resolve()}
    out = {
        "harness": "bench/ladder.py",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "repeats": REPEATS,
        "src_fpmap_lines": {label: src_lines(src) for label, src in sides.items()},
        "rungs": {},
    }
    failed = []
    for name, rung in RUNGS.items():
        runs = {label: [] for label in sides}
        for _ in range(REPEATS):
            for label, src in sides.items():
                runs[label].append(run_child(src, rung))
        entry = {label: summary(r) for label, r in runs.items()}
        same = len({d for s in entry.values() for d in s["sha256"]}) == 1
        out["rungs"][name] = {"rung": rung, **entry, "same_digest": same}
        print(name, *(f"{label} {entry[label]['wall_s_median']} s "
                      f"{max(entry[label]['maxrss_mb'])} MB" for label in sides),
              "same digest" if same else "DIGESTS DIFFER", flush=True)
        if not same:
            failed.append(name)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    if failed:
        print(f"digests differ on: {', '.join(failed)}")
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
