"""jsonio.canonical_dumps writes its documents without the stdlib's
pure-Python encoder, and must give the bytes json.dumps gives."""

import gc
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmap.jsonio import canonical_dumps


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
          | st.text() | st.floats(allow_nan=False))
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.integers(-50, 50), inner, max_size=4)),
    max_leaves=30)


@given(documents)
@settings(max_examples=300, deadline=None)
def test_matches_json_dumps(doc):
    assert canonical_dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}, "b": [], "c": [{}, []]},
    {"é": "ü \x00\"\\", "\U0001f600": ["\ud800"]},
    {"n": 10 ** 40, "m": -(2 ** 64), "t": True, "f": False, "z": None},
    {10: "ten", 2: "two", -1: "minus one"},  # keys sort as numbers, then print as text
    {True: "t", False: "f"}, {None: "n"}, {2.5: "x", -1e300: "y"},
    {"x": 1.5, "inf": math.inf, "nan": [math.nan]},
    "top-level text", 7, None,
])
def test_edge_documents(doc):
    assert canonical_dumps(doc) == reference(doc)


def test_keys_json_cannot_write_are_refused():
    with pytest.raises(TypeError):
        canonical_dumps({(1, 2): 3})


def test_other_leaves_raise_like_json_dumps():
    with pytest.raises(TypeError):
        canonical_dumps({"a": object()})


def test_no_reference_cycle_is_left():
    # json.dumps with indent leaves its encoder's closures in a cycle per call
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            canonical_dumps({"a": [1, {"b": "c"}]})
        assert gc.collect() == 0
    finally:
        gc.enable()
