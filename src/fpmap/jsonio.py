"""Serialization primitives: exact rationals, elements, canonical JSON.

Rationals travel as "num/den" strings (always with the denominator, so the
byte form is unique). Elements travel as sorted [index, coefficient] pairs.
Canonical JSON is sorted-key, two-space-indented, newline-terminated; reports
rendered through here are byte-stable for a fixed input.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import InputError


def frac_to_str(value: Fraction) -> str:
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def pair_from_str(text) -> tuple[int, int]:
    """(numerator, denominator) of a rational literal, the denominator
    positive but the pair not reduced: frac_from_str without the Fraction,
    with the same checks and messages."""
    if is_int(text):
        return text, 1
    if not isinstance(text, str):
        raise InputError(f"expected a rational as 'num/den' string, got {text!r}")
    try:
        num, slash, den = text.partition("/")
        num, den = int(num), int(den) if slash else 1
    except ValueError as exc:
        raise InputError(f"bad rational literal {text!r}: {exc}") from None
    if den == 0:
        # the message Fraction(num, 0) raises
        raise InputError(f"bad rational literal {text!r}: Fraction({num}, 0)")
    return (-num, -den) if den < 0 else (num, den)


def frac_from_str(text) -> Fraction:
    return Fraction(*pair_from_str(text))


def element_to_pairs(g) -> list:
    """Serialize an element as a sorted list of [index, coefficient] pairs."""
    return [[i, c] for i, c in g.items]


def element_from_pairs(p, pairs):
    from .fpcore import GroupElement

    if not isinstance(pairs, (list, tuple)):
        raise InputError(f"expected a list of [index, coefficient] pairs, got {pairs!r}")
    out = []
    for entry in pairs:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InputError(f"bad coefficient pair {entry!r}")
        out.append((entry[0], entry[1]))
    return GroupElement.make(p, out)


def canonical_dumps(obj) -> str:
    """Deterministic JSON text for report documents: the bytes of
    json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) plus a
    newline. Indentation sends json.dumps to the pure-Python encoder, so
    dicts, lists, strings, ints, bools and None are written here; any other
    leaf (a float, say) goes to json.dumps."""
    parts: list[str] = []
    _emit(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _emit(obj, newline: str, parts: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``parts``; ``newline`` is the line
    break plus the indentation of the line ``obj`` starts on."""
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        parts.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, (str, int, float)) and key is not None:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {type(key).__name__}")
            parts.append(sep)
            parts.append(encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key)))
            parts.append(": ")
            _emit(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _emit(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(obj))


def is_int(value) -> bool:
    """The one test of an integer field: an int that is not a bool, since
    JSON true and false parse to bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(value, what: str, *, low: int | None = None) -> int:
    """value when it is an integer (is_int) of at least ``low``; otherwise
    "<what> must be an integer, got <value>", with "a positive integer" for
    low 1 and "an integer >= <low>" for any other bound."""
    if is_int(value) and (low is None or value >= low):
        return value
    kind = ("an integer" if low is None else "a positive integer" if low == 1
            else f"an integer >= {low}")
    raise InputError(f"{what} must be {kind}, got {value!r}")


def require_flag(value, what: str) -> bool:
    """value when it is a JSON true or false."""
    if not isinstance(value, bool):
        raise InputError(f"{what} must be true or false, got {value!r}")
    return value


def require_list(value, *, what="array"):
    """Reject config fields that should be JSON arrays but are not."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def iter_list(value, *, what="array"):
    """The items of ``value`` as an iterator that checks it by require_list
    only when its first item is read."""
    yield from require_list(value, what=what)


def require_keys(mapping, required, optional=(), *, what="object"):
    """Strict key check for config documents: fail fast on unknown keys."""
    if not isinstance(mapping, dict):
        raise InputError(f"{what} must be a JSON object, got {type(mapping).__name__}")
    missing = [k for k in required if k not in mapping]
    if missing:
        raise InputError(f"{what} is missing required key(s): {', '.join(missing)}")
    allowed = set(required) | set(optional)
    unknown = [k for k in mapping if k not in allowed]
    if unknown:
        raise InputError(f"{what} has unknown key(s): {', '.join(sorted(unknown))}")
    return mapping
