"""Canonical wire serialization.

Self-describing, field-name-tagged byte format (UTF-8 JSON with sorted keys).
Only plain data crosses the wire: None, bool, int, float, str, list, and
dicts with string keys. Anything else fails fast with SerializationError at
dispatch time, so payload problems surface during local development instead
of on a remote deployment.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import SerializationError

_SCALARS = (type(None), bool, int, float, str)


class _Rejected(Exception):
    """Unwinds a failed check; each enclosing level adds its path step."""

    def __init__(self, head: str, tail: str = ""):
        super().__init__(head)
        self.head = head
        self.tail = tail
        self.steps: list[str] = []  # innermost first


def _check(value: Any) -> None:
    # Scalar items are accepted without a call, and the path is built only
    # on the way out of a rejection: accepted values, the common case, pay
    # for no string formatting.
    if isinstance(value, list):
        for i, item in enumerate(value):
            if not isinstance(item, _SCALARS):
                try:
                    _check(item)
                except _Rejected as exc:
                    exc.steps.append(f"[{i}]")
                    raise
    elif isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise _Rejected("non-string dict key at ", f": {key!r}")
            if not isinstance(item, _SCALARS):
                try:
                    _check(item)
                except _Rejected as exc:
                    exc.steps.append(f".{key}")
                    raise
    elif not isinstance(value, _SCALARS):
        raise _Rejected(f"no serialization rule for {type(value).__name__} at ")


def encode(value: Any) -> bytes:
    try:
        _check(value)
    except _Rejected as exc:
        path = "$" + "".join(reversed(exc.steps))
        raise SerializationError(f"{exc.head}{path}{exc.tail}") from None
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode(data: bytes) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SerializationError(str(exc)) from exc


def roundtrip(value: Any) -> Any:
    """Force a value through the canonical encoding, as a network would."""
    return decode(encode(value))
