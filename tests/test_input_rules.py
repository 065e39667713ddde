"""One rule for every integer field and flag the CLI reads.

An integer field takes a JSON integer (true and false are not integers),
and a field that must be positive refuses 0; a flag takes true or false.
Every other value exits 2 with one ``error:`` line, whichever document
kind and subcommand reads it. A dim whose truncation is too large exits 3
before anything of that size is formed.
"""

import copy
import json
import re

import pytest

from fpmap.cli import main
from fpmap.errors import InputError
from fpmap.fpcore import OrderedBasis
from fpmap.norms import (
    UltrametricProductNorm,
    random_metric_space,
    validate_axioms,
)
from fpmap.reduction import reduce_basis

ULTRAMETRIC = {"kind": "ultrametric", "prime": 3, "dim": 2}

NORMS = {
    "ultrametric": ULTRAMETRIC,
    "table": {"kind": "table", "prime": 2, "dim": 1,
              "entries": [{"element": [[1, 1]], "value": "1/2"}]},
    "seeded": {"kind": "cost_completion", "prime": 3, "dim": 2, "seed": 0,
               "low": "1/2", "high": "1", "steps": 4},
    "graded": {"kind": "cost_completion", "prime": 3, "dim": 2, "seed": 0,
               "graded": True, "steps": 4},
    "costs": {"kind": "cost_completion", "prime": 2, "dim": 1,
              "costs": [{"element": [[1, 1]], "value": "1/2"}]},
    "graev": {"kind": "graev_boolean", "prime": 2, "dim": 2,
              "space": {"basepoint": 0,
                        "dist": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]}},
}

TOPOLOGIES = {
    "elements": {"kind": "elements", "prime": 3, "dim": 2, "base": [[[[1, 1]]]]},
    "balls": {"kind": "balls", "norm": ULTRAMETRIC, "radii": ["1/2"]},
    "seeded": {"kind": "seeded", "prime": 3, "dim": 2, "seed": 0},
}

RUN = {"prime": 2, "dim": 4,
       "norm": {"kind": "cost_completion", "prime": 2, "dim": 4, "seed": 0, "graded": True},
       "limits": {"max_tuple": 2, "l": 1, "m": 4},
       "caps": {"enum": 1000}, "threads": 1}


def reduced_doc():
    norm = UltrametricProductNorm(3, 2)
    validate_axioms(norm)
    reduced = reduce_basis(OrderedBasis.standard(3, 2), norm)
    return {"norm": ULTRAMETRIC, "reduced": reduced.to_json_dict()}


# (document, subcommand, path to an integer field, must it be positive)
PAIR = ((0, True), (1, False))  # [index, coefficient]: the index is positive
INTEGER_FIELDS = (
    [("run", RUN, ["run"], (key,), True) for key in ("prime", "dim", "threads")]
    + [("run", RUN, ["run"], ("limits", key), True) for key in ("max_tuple", "l", "m")]
    + [("run", RUN, ["run"], ("caps", "enum"), True)]
    + [(f"norm-{name}", doc, ["validate-norm"], (key,), True)
       for name, doc in NORMS.items() for key in ("prime", "dim")]
    + [(f"norm-{name}", NORMS[name], ["validate-norm"], (key,), False)
       for name, key in (("seeded", "seed"), ("graded", "seed"))]
    + [(f"norm-{name}", NORMS[name], ["validate-norm"], ("steps",), True)
       for name in ("seeded", "graded")]
    + [(f"norm-{name}", NORMS[name], ["validate-norm"], (key, 0, "element", 0, j), positive)
       for name, key in (("table", "entries"), ("costs", "costs")) for j, positive in PAIR]
    + [("norm-graev", NORMS["graev"], ["validate-norm"], ("space", "basepoint"), False)]
    + [("topology-elements", TOPOLOGIES["elements"], ["duality"], (key,), True)
       for key in ("prime", "dim")]
    + [("topology-elements", TOPOLOGIES["elements"], ["duality"], ("base", 0, 0, 0, j), positive)
       for j, positive in PAIR]
    + [("topology-balls", TOPOLOGIES["balls"], ["duality"], ("norm", key), True)
       for key in ("prime", "dim")]
    + [("topology-seeded", TOPOLOGIES["seeded"], ["duality"], (key,), True)
       for key in ("prime", "dim")]
    + [("topology-seeded", TOPOLOGIES["seeded"], ["duality"], ("seed",), False)]
    + [("reduced", None, ["verify"], path, positive) for path, positive in (
        (("norm", "dim"), True),
        (("reduced", "prime"), True),
        (("reduced", "steps", 0, "index"), True),
        (("reduced", "steps", 0, "tie_count"), True),
        (("reduced", "steps", 1, "coeffs", 0), False),
        *((("reduced", key, 0, 0, j), positive)
          for key in ("original", "reduced") for j, positive in PAIR),
        *((("reduced", "steps", 0, "element", 0, j), positive) for j, positive in PAIR),
    )]
    # the matching cap is a constant: its two keys exit 2 as unknown keys,
    # whatever their value
    + [("run", RUN, ["run"], ("caps", "matching"), True),
       ("norm-graev", NORMS["graev"], ["validate-norm"], ("matching_cap",), True)]
)

NOT_INTEGERS = (True, "1", 1.5, [], {})
NOT_FLAGS = (1, 0, "true", "false", 1.5, [], {}, None)


def argv_for(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    option = {"validate-norm": "--config", "run": "--config", "duality": "--spec",
              "verify": "--reduced"}[command[0]]
    return [*command, option, str(path)]


def with_value(doc, path, value):
    doc = copy.deepcopy(reduced_doc() if doc is None else doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def masked_err(capsys):
    """stderr with the seconds of its timing lines masked: a run whose
    build began prints them before its error line."""
    return re.sub(r"(?m)^(timing \w+: )\d+\.\d{3}s$", r"\1*", capsys.readouterr().err)


def assert_input_error(tmp_path, capsys, command, doc):
    assert main(argv_for(tmp_path, command, doc)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, command", [
    pytest.param(RUN, ["run"], id="run"),
    *(pytest.param(d, ["validate-norm"], id=f"norm-{k}") for k, d in NORMS.items()),
    *(pytest.param(d, ["duality"], id=f"topology-{k}") for k, d in TOPOLOGIES.items()),
    pytest.param(None, ["verify"], id="reduced"),
])
def test_every_base_document_is_valid(tmp_path, capsys, doc, command):
    doc = reduced_doc() if doc is None else doc
    assert main(argv_for(tmp_path, command, doc)) == 0
    # run writes its stage timings to stderr, and nothing else
    assert all(line.startswith("timing ") for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize(
    "doc, command, path, value",
    [pytest.param(doc, command, path, value,
                  id=f"{name}-{'.'.join(map(str, path))}-{json.dumps(value)}")
     for name, doc, command, path, positive in INTEGER_FIELDS
     for value in NOT_INTEGERS + ((0,) if positive else ())])
def test_integer_fields_refuse_non_integers(tmp_path, capsys, doc, command, path, value):
    assert_input_error(tmp_path, capsys, command, with_value(doc, path, value))


@pytest.mark.parametrize("value", NOT_FLAGS, ids=json.dumps)
def test_graded_flag_takes_only_true_or_false(tmp_path, capsys, value):
    doc = with_value(NORMS["graded"], ("graded",), value)
    assert main(argv_for(tmp_path, ["validate-norm"], doc)) == 2
    assert capsys.readouterr().err == f"error: graded must be true or false, got {value!r}\n"
    assert main(argv_for(tmp_path, ["validate-norm"], dict(NORMS["seeded"], graded=False))) == 0


@pytest.mark.parametrize("command, doc, message", [
    # each of these ran into a traceback (exit 1) or was silently accepted
    (["run"], dict(RUN, dim=2, limits={}, caps={},
                   norm=with_value(NORMS["graev"], ("matching_cap",), "5")),
     "timing build: *\nerror: norm config has unknown key(s): matching_cap\n"),
    (["validate-norm"], with_value(NORMS["seeded"], ("seed",), []),
     "error: seed must be an integer, got []\n"),
    (["duality"], with_value(TOPOLOGIES["seeded"], ("seed",), []),
     "error: seed must be an integer, got []\n"),
    (["verify"], with_value(None, ("reduced", "steps", 0, "coeffs"), ["a"]),
     "error: step 1 coefficient must be an integer, got 'a'\n"),
    (["duality"], with_value(TOPOLOGIES["elements"], ("dim",), True),
     "error: dimension must be a positive integer, got True\n"),
    (["validate-norm"], with_value(NORMS["graded"], ("graded",), "false"),
     "error: graded must be true or false, got 'false'\n"),
], ids=["graev-matching-cap", "cost-seed", "topology-seed", "step-coeffs", "topology-dim",
        "graded-string"])
def test_inputs_that_escaped_the_rule(tmp_path, capsys, command, doc, message):
    assert main(argv_for(tmp_path, command, doc)) == 2
    assert masked_err(capsys) == message


@pytest.mark.parametrize("basepoint, message", [
    ("0", "basepoint must be an integer >= 0, got '0'"),
    (-1, "basepoint must be an integer >= 0, got -1"),
    (3, "basepoint 3 out of range for 3 points"),
], ids=["string", "negative", "past-the-points"])
def test_a_basepoint_is_checked_as_an_integer_before_its_range(tmp_path, capsys,
                                                                basepoint, message):
    # a string basepoint was reported as out of range, although "0" names point 0
    doc = with_value(NORMS["graev"], ("space", "basepoint"), basepoint)
    assert main(argv_for(tmp_path, ["validate-norm"], doc)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


CAPS_KEY = "error: caps has unknown key(s): matching\n"
NORM_KEY = "error: norm config has unknown key(s): matching_cap\n"


@pytest.mark.parametrize("command, doc, path, message", [
    (["run"], RUN, ("caps", "matching"), CAPS_KEY),
    (["duality", "--check", "coarser"], RUN, ("caps", "matching"), CAPS_KEY),
    # a run config's norm is read when the build begins
    (["run"], RUN, ("norm", "matching_cap"), "timing build: *\n" + NORM_KEY),
    (["validate-norm"], NORMS["graev"], ("matching_cap",), NORM_KEY),
    (["duality"], dict(TOPOLOGIES["balls"], norm=NORMS["graev"]), ("norm", "matching_cap"),
     NORM_KEY),
    (["verify"], None, ("norm", "matching_cap"), NORM_KEY),
], ids=["run-caps", "coarser-caps", "run-norm", "norm", "balls-norm", "reduced-norm"])
def test_matching_cap_keys_are_unknown(tmp_path, capsys, command, doc, path, message):
    # the matching cap is a constant, so a document that sets it exits 2,
    # while the same document without the key passes
    assert main(argv_for(tmp_path, command, reduced_doc() if doc is None else doc)) == 0
    capsys.readouterr()
    assert main(argv_for(tmp_path, command, with_value(doc, path, 12))) == 2
    assert masked_err(capsys) == message


@pytest.mark.parametrize("dim", [100_000, 2 ** 70], ids=["1e5", "2^70"])
@pytest.mark.parametrize("name", ["graded", "seeded", "ultrametric"])
def test_oversized_dim_exits_three_before_forming_the_size(tmp_path, capsys, name, dim):
    # the size is written p^dim: 2^100000 has more digits than str() writes,
    # and 2^(2^70) cannot be formed at all
    doc = dict(NORMS[name], prime=2, dim=dim)
    assert main(argv_for(tmp_path, ["validate-norm"], doc)) == 3
    assert capsys.readouterr().err == (
        f"error: stage build: truncation has 2^{dim} elements, above cap 10000000\n")


def test_oversized_dim_keeps_the_printed_size(tmp_path, capsys):
    # past cap.bit_length() the cap is refused unformed, but a size that
    # prints is still written out
    doc = dict(ULTRAMETRIC, prime=2, dim=40)
    assert main(argv_for(tmp_path, ["validate-norm"], doc)) == 3
    assert capsys.readouterr().err == (
        f"error: stage build: truncation has {2 ** 40} elements, above cap 10000000\n")


LIBRARY_INTEGERS = {
    # argument: (call with the value, message for a non-integer, for 0)
    "random_metric_space-n_points": (
        lambda v: random_metric_space(1, v, 1, 2),
        "n_points must be an integer, got {!r}", "need at least one point"),
    "random_metric_space-steps": (
        lambda v: random_metric_space(1, 4, 1, 2, steps=v),
        "steps must be a positive integer, got {!r}", None),
}


@pytest.mark.parametrize("value", NOT_INTEGERS + (0,), ids=json.dumps)
@pytest.mark.parametrize("name", sorted(LIBRARY_INTEGERS))
def test_library_integer_arguments_take_the_rule(name, value):
    # n_points=True built a space
    call, message, zero = LIBRARY_INTEGERS[name]
    with pytest.raises(InputError) as info:
        call(value)
    assert str(info.value) == (zero if value == 0 and zero else message.format(value))
