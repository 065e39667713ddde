"""The per-process truncation cache: fpcore.truncation and OrderedBasis.standard.

A truncation's tables depend on (p, dim) alone, so every norm and stage of
one process shares them. Sharing must change no report byte and no exit
code: the checks on p, dim and the size run on every call, before the
cache is read, and every shared array is read-only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpmap import fpcore
from fpmap.cli import main
from fpmap.errors import CapExceededError, InputError
from fpmap.extraction import norm_sorted_span
from fpmap.fpcore import GroupElement, OrderedBasis, Truncation, truncation
from fpmap.norms import CostCompletionNorm, graded_cost, validate_axioms
from fpmap.reduction import check_member_word_bound, reduce_basis, verify_reduced_properties

SRC = Path(__file__).resolve().parents[1] / "src"
SHAPES = [(2, 1), (2, 6), (3, 1), (3, 4), (5, 3), (7, 2)]


def run_config(p, dim, norm):
    return {"prime": p, "dim": dim, "norm": dict(norm, prime=p, dim=dim),
            "limits": {"max_tuple": 3, "l": 1, "m": 3}}


# (A, B) pairs at one (p, dim) that differ in their seeds
PAIRS = {
    "graded-p5": [run_config(5, 4, {"kind": "cost_completion", "seed": s, "graded": True})
                  for s in (11, 12)],
    "seeded-p3": [run_config(3, 5, {"kind": "cost_completion", "seed": s, "low": "1/2",
                                    "high": "1", "steps": 7}) for s in (3, 4)],
    "graded-p2": [run_config(2, 7, {"kind": "cost_completion", "seed": s, "graded": True})
                  for s in (5, 6)],
}


def fresh_process_report(tmp_path, cfg):
    """The bytes and exit code of `fpmap run` on cfg in a new interpreter."""
    path, out = tmp_path / "fresh.json", tmp_path / "fresh-report.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "fpmap.cli", "run", "--config", str(path),
                           "--out", str(out)], env=env, capture_output=True, timeout=120)
    return done.returncode, out.read_bytes()


def in_process_report(tmp_path, cfg, name):
    path, out = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
    path.write_text(json.dumps(cfg))
    return main(["run", "--config", str(path), "--out", str(out)]), out.read_bytes()


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_a_b_a_in_one_process_gives_the_fresh_process_bytes(tmp_path, capsys, name):
    a, b = PAIRS[name]
    want = fresh_process_report(tmp_path, a)
    fpcore._shared_truncation.cache_clear()
    first = in_process_report(tmp_path, a, "a1")
    shared = truncation(a["prime"], a["dim"])
    other = in_process_report(tmp_path, b, "b")
    again = in_process_report(tmp_path, a, "a2")
    assert first == want and again == want
    # B is another norm on the same tables, which A then read again
    assert other[1] != want[1] and truncation(a["prime"], a["dim"]) is shared


def test_an_over_cap_config_exits_three_with_a_shared_instance(tmp_path, capsys, monkeypatch):
    cfg = PAIRS["graded-p5"][0]
    assert in_process_report(tmp_path, cfg, "warm")[0] == 0
    assert truncation(5, 4) is truncation(5, 4)
    monkeypatch.setenv("FPMAP_ENUM_CAP", str(5 ** 4 - 1))
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "warm.json")]) == 3
    timed, error = capsys.readouterr().err.splitlines()  # the build's timing line first
    assert timed.startswith("timing build: ")
    assert error == f"error: stage build: truncation has 625 elements, above cap {5 ** 4 - 1}"
    with pytest.raises(CapExceededError, match="truncation has 625 elements, above cap 624"):
        truncation(5, 4, cap=624)


@pytest.mark.parametrize("dim", [0, True, "3", 2.0])
def test_every_call_checks_the_dimension(dim):
    truncation(3, 2)
    with pytest.raises(InputError, match="dimension must be a positive integer"):
        truncation(3, dim)
    with pytest.raises(InputError, match="dimension must be a positive integer"):
        OrderedBasis.standard(3, dim)


def shared_arrays(tr):
    """Every array the truncation shares, each built by reading it."""
    arrays = [tr.identity, tr.neg_perm, tr.neg_firsts, tr.top, tr.support, tr.strip]
    arrays += [tr.words_within(t) for t in range(1, tr.dim + 2)]
    arrays.append(tr.span_ranks([GroupElement.unit(tr.prime, 1)]))
    if tr.prime.p != 2:
        arrays += list(tr._halves[1:])
    return arrays


@pytest.mark.parametrize("p, dim", SHAPES)
def test_every_shared_array_is_read_only(p, dim):
    for a in shared_arrays(truncation(p, dim)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


@pytest.mark.parametrize("p, dim", SHAPES)
def test_shared_tables_equal_fresh_ones_and_their_definitions(p, dim):
    # a run's worth of use first, so the shared instance holds every table
    norm = CostCompletionNorm(graded_cost(1, p, dim))
    validate_axioms(norm)
    reduced = reduce_basis(OrderedBasis.standard(p, dim), norm)
    verify_reduced_properties(reduced, norm)
    check_member_word_bound(reduced, norm, max_tuple=2)
    shared, fresh = truncation(p, dim), Truncation(p, dim)
    assert norm.truncation is shared and shared is not fresh
    for got, want in zip(shared_arrays(shared), shared_arrays(fresh)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    elems = [shared.element_of(r) for r in range(shared.size)]
    assert shared.identity.tolist() == list(range(shared.size))
    assert shared.neg_perm.tolist() == [shared.rank_of(-g) for g in elems]
    assert shared.neg_firsts.tolist() == [r for r in range(1, shared.size)
                                          if shared.rank_of(-elems[r]) >= r]
    for t in range(1, dim + 2):
        assert shared.words_within(t).tolist() == [
            r for r in range(1, shared.size) if len(elems[r].support) <= t]
    assert OrderedBasis.standard(p, dim) is OrderedBasis.standard(p, dim)
    assert OrderedBasis.standard(p, dim).elems == tuple(
        GroupElement.unit(p, i) for i in range(1, dim + 1))


def test_the_cache_keeps_a_few_pairs():
    fpcore._shared_truncation.cache_clear()
    first = truncation(2, 3)
    for dim in range(4, 4 + fpcore._SHARED_SLOTS):
        truncation(2, dim)
    assert fpcore._shared_truncation.cache_info().currsize == fpcore._SHARED_SLOTS
    again = truncation(2, 3)  # evicted, so built anew, with equal tables
    assert again is not first and again.neg_perm.tolist() == first.neg_perm.tolist()


def test_a_large_truncation_goes_with_its_norm(monkeypatch):
    # past _SHARED_MAX_SIZE every call builds afresh and the cache keeps nothing,
    # so the tables a norm and its checks build are freed with the norm
    fpcore._shared_truncation.cache_clear()
    p, dim = 2, fpcore._SHARED_MAX_SIZE.bit_length()
    assert truncation(p, dim) is not truncation(p, dim)
    norm = CostCompletionNorm(graded_cost(1, p, dim))
    built, init = [], Truncation.__init__
    monkeypatch.setattr(Truncation, "__init__",
                        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    # the checks read the norm's own truncation and build none
    assert validate_axioms(norm).ok and norm_sorted_span(norm) is norm.order
    assert built == [] and fpcore._shared_truncation.cache_info().currsize == 0
    with pytest.raises(CapExceededError, match=f"truncation has {2 ** dim} elements"):
        truncation(p, dim, cap=2 ** dim - 1)


def test_the_span_memo_serves_two_norms():
    # two norms on one truncation read one span build, each through its own table
    a, b = (CostCompletionNorm(graded_cost(s, 3, 3)) for s in (1, 2))
    tr = a.truncation
    assert b.truncation is tr
    x, y = GroupElement.make(3, [(1, 1), (2, 2)]), GroupElement.unit(3, 3)
    want = [tr.rank_of(x.smul(i) + y.smul(j)) for i in range(3) for j in range(3)]
    for norm in (a, b, a):
        vals, den = norm.values_of(norm.truncation.span_ranks([x, y]))
        assert tr.span_ranks([x, y]).tolist() == want
        assert vals.tolist() == norm._table[0][want].tolist()
