"""Seeded run-config corpora for the three benchmark workloads.

Each workload is chosen so that a different layer of fpmap does most of the
work, with the other two workloads serving as controls:

- ``cost-p5``: graded cost-completion norm, p=5, dim=5. With p != 2 every
  rank row is an int64 matmul, and the p^5-word scans dominate.
- ``graev-p2``: Graev norm on a 12-point metric space, p=2, dim=11. No dense
  value table exists, so every norm evaluation runs the subset DP.
- ``bigden-p2``: seeded cost-completion norm, p=2, dim=9, whose cost
  denominators have an lcm above 2^44, so the norm build and the axiom
  triangle scan take their exact ``Fraction`` branches.

The configs are plain JSON documents; fpmap sees nothing but them. Each
workload also states the input property it was chosen for (its premise) as
a check computed from the generated inputs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

CORPUS_SIZE = 12
LIMITS = {"max_tuple": 4, "l": 1, "m": 5}
# Smoke dimensions are too small for a length-5 null subsequence.
SMOKE_M = 3
BIGDEN_LOW = "1/10000019"
BIGDEN_HIGH = "1/9999991"
# Scaled-integer guard of fpmap's norm code: above this lcm the exact
# Fraction branch runs instead of the int64 one.
INT64_DEN_GUARD = 1 << 44
GRAEV_POINTS_LOW = Fraction(1, 100000)
GRAEV_POINTS_HIGH = Fraction(1, 50000)


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    smoke_dim: int
    norm: Callable[[int, int], dict]  # (config seed, dim) -> norm descriptor
    premise: Callable[[list[dict]], tuple[bool, str]]
    # What the traced run should show: (per-layer metrics whose summed share
    # of the traced per-config time is compared, "min" or "max", bound).
    shares: tuple[tuple[tuple[str, ...], str, float], ...]


def _frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _graded_cost_norm(seed: int, dim: int) -> dict:
    return {"kind": "cost_completion", "prime": 5, "dim": dim, "seed": seed,
            "graded": True}


def _bigden_cost_norm(seed: int, dim: int) -> dict:
    return {"kind": "cost_completion", "prime": 2, "dim": dim, "seed": seed,
            "low": BIGDEN_LOW, "high": BIGDEN_HIGH}


def _graev_norm(seed: int, dim: int) -> dict:
    """Random pointed metric space with dim + 1 points, basepoint 0."""
    from fpmap.norms import random_metric_space

    space = random_metric_space(seed, dim + 1, GRAEV_POINTS_LOW, GRAEV_POINTS_HIGH)
    return {"kind": "graev_boolean", "prime": 2, "dim": dim, "space": space.to_json_dict()}


def _premise_p_not_2(configs: list[dict]) -> tuple[bool, str]:
    primes = sorted({c["prime"] for c in configs})
    return 2 not in primes, f"p != 2 (primes {primes}), so every rank row is a matmul"


def _premise_points_near_base(configs: list[dict]) -> tuple[bool, str]:
    worst = Fraction(0)
    bound = None
    for c in configs:
        p, m = c["prime"], c["limits"]["m"]
        bound = Fraction(1, (4 * p) ** m)
        space = c["norm"]["space"]
        base = space["basepoint"]
        row = space["dist"][base]
        far = max(Fraction(x) for i, x in enumerate(row) if i != base)
        worst = max(worst, far)
    ok = bound is not None and worst < bound
    return ok, (f"every point is closer to the basepoint than 1/(4p)^m = {_frac(bound)} "
                f"(farthest {_frac(worst)})")


def _premise_big_denominator(configs: list[dict]) -> tuple[bool, str]:
    from fpmap.norms import random_cost

    smallest = None
    for c in configs:
        n = c["norm"]
        cost = random_cost(n["seed"], n["prime"], n["dim"], Fraction(n["low"]),
                           Fraction(n["high"]))
        size = n["prime"] ** n["dim"]
        lcm = 1
        for r in range(1, size):
            lcm = math.lcm(lcm, cost.value_of_rank(r).denominator)
        smallest = lcm if smallest is None else min(smallest, lcm)
    ok = smallest is not None and smallest > INT64_DEN_GUARD
    return ok, (f"lcm of cost denominators > 2^44 in every config "
                f"(smallest {smallest}, 2^44 = {INT64_DEN_GUARD})")


WORKLOADS = {
    w.name: w for w in (
        Workload("cost-p5", 5, 3, _graded_cost_norm, _premise_p_not_2,
                 ((("fpcore.rank_rows_s",), "min", 0.30),)),
        Workload("graev-p2", 11, 5, _graev_norm, _premise_points_near_base,
                 ((("fpcore.rank_rows_s",), "max", 0.05),
                  (("norms.eval_s",), "min", 0.40))),
        Workload("bigden-p2", 9, 5, _bigden_cost_norm, _premise_big_denominator,
                 ((("fpcore.rank_rows_s",), "max", 0.05),
                  (("norms.build_s", "norms.validate_axioms_s"), "min", 0.80))),
    )
}


def make_corpus(workload: str, seed: int, *, smoke: bool = False) -> list[dict]:
    """CORPUS_SIZE run configs, a pure function of (workload, seed, smoke)."""
    w = WORKLOADS[workload]
    dim = w.smoke_dim if smoke else w.dim
    rng = Random(f"{workload}/{seed}/{'smoke' if smoke else 'full'}")
    corpus = []
    for _ in range(CORPUS_SIZE):
        norm = w.norm(rng.randrange(1 << 31), dim)
        corpus.append({
            "prime": norm["prime"],
            "dim": dim,
            "norm": norm,
            "limits": dict(LIMITS, m=SMOKE_M) if smoke else dict(LIMITS),
            "threads": 1,
        })
    return corpus
