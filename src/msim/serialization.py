"""Canonical wire serialization.

Self-describing, field-name-tagged byte format (UTF-8 JSON with sorted keys,
ASCII escapes and no spaces). Only plain data crosses the wire: None, bool,
int, finite float, str, list, and dicts with string keys, without cycles.
Anything else fails fast with SerializationError at dispatch time, so
payload problems surface during local development instead of on a remote
deployment.

An accepted message runs only C code: one JSONEncoder built at import
encodes it and one JSONDecoder decodes it. The encoder refuses unknown
types, NaN and infinities, and overflows the recursion limit on a cycle. It
turns tuples into lists and int, float, bool and None keys into strings
without complaint, so the text is decoded again and compared with the value:
the copy differs exactly when one of those was there (for types that keep
the built-in equality; subclasses of the plain types pass as their plain
values). Only after the encoder raised or the comparison failed does the
Python walk ``_check`` run, to name the path of the rejection. If it names
nothing the message is accepted, or the encoder's own error stands. A value
nested deeper than the codec or the walk can recurse is refused as too deep;
where that depth lies depends on the interpreter version.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import SerializationError

_SCALARS = (type(None), bool, int, float, str)
_TOO_DEEP = "value nested deeper than the recursion limit"


def _refuse(value: Any) -> None:
    raise TypeError(f"no serialization rule for {type(value).__name__}")


_to_text = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False,
    default=_refuse,
).encode
_decoder = json.JSONDecoder()


def _check(value: Any, path: str = "$", open_ids: frozenset = frozenset()) -> None:
    """Raise SerializationError naming the first part of ``value`` the wire refuses.

    ``open_ids`` holds the containers on the current path, so a cycle is
    named where it closes and a shared but acyclic value passes.
    """
    if isinstance(value, (list, dict)):
        if id(value) in open_ids:
            raise SerializationError(f"reference cycle at {path}")
        open_ids |= {id(value)}
        if isinstance(value, list):
            for i, item in enumerate(value):
                _check(item, f"{path}[{i}]", open_ids)
        else:
            for key, item in value.items():
                if not isinstance(key, str):
                    raise SerializationError(f"non-string dict key at {path}: {key!r}")
                _check(item, f"{path}.{key}", open_ids)
    elif isinstance(value, float) and not math.isfinite(value):
        raise SerializationError(f"non-finite float at {path}: {value!r}")
    elif not isinstance(value, _SCALARS):
        raise SerializationError(f"no serialization rule for {type(value).__name__} at {path}")


def _name_refusal(value: Any) -> None:
    """Raise the SerializationError ``_check`` names for ``value``, if it names one."""
    try:
        _check(value)
    except RecursionError:
        raise SerializationError(_TOO_DEEP) from None


def encode(value: Any, *, compare: bool = True) -> bytes:
    """Encode ``value``; ``compare=False`` leaves the coercion check to the caller.

    ``roundtrip`` passes ``compare=False`` and compares its own decoded copy,
    which saves a second decode of every message.
    """
    try:
        text = _to_text(value)
    except RecursionError:
        _name_refusal(value)
        raise SerializationError(_TOO_DEEP) from None
    except Exception:
        _name_refusal(value)
        raise
    if compare and _decoder.decode(text) != value:
        _name_refusal(value)
    return text.encode()


def decode(data: bytes) -> Any:
    try:
        return _decoder.decode(data.decode())
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, depth
        raise SerializationError(str(exc)) from exc


def roundtrip(value: Any) -> Any:
    """Force a value through the canonical encoding, as a network would."""
    decoded = decode(encode(value, compare=False))
    if decoded != value:
        _name_refusal(value)
    return decoded
