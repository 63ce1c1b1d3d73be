"""One JSON codec for every record dataclass.

`encode` turns a record into plain JSON data: enums become their value,
tuples become lists, dict keys become strings and nested dataclasses become
dicts, with fields in declaration order. `decode` reverses it from each
field's type annotation (read once per class): tuple fields come back as
tuples, `dict[int, T]` keys as ints, enums and nested dataclasses as
themselves. An `int` field takes only a JSON integer: a bool or a float
(2.7, and 2.0 too) raises ValidationError instead of being truncated. A
`float` field takes only a JSON number: a bool, a string ("0.5" too) or
any other value raises ValidationError instead of being converted. A
missing key takes the field's default, and a union of dataclasses decodes
as the alternative whose field names cover the keys. Fields declared with
init=False are derived, so they are neither written nor read.
"""

from __future__ import annotations

import dataclasses
import enum
import numbers
import types
import typing
from typing import Any, Union

from pilotq.errors import ValidationError

_PLAIN = frozenset({str, int, float, bool, type(None)})
_UNIONS = (Union, types.UnionType)
_FIELDS: dict[type, tuple[tuple[str, Any], ...] | None] = {}


def _fields(cls: type) -> tuple[tuple[str, Any], ...] | None:
    """(name, annotation) of each init field of a dataclass, None for any
    other type; cached per type."""
    try:
        return _FIELDS[cls]
    except KeyError:
        found = None
        if dataclasses.is_dataclass(cls):
            hints = typing.get_type_hints(cls)
            found = tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls) if f.init)
        return _FIELDS.setdefault(cls, found)


def encode(obj: Any) -> Any:
    """Plain JSON data for a record, or for any value a record holds.

    Values of the exact types in _PLAIN are returned without a call: this
    runs once per event line.
    """
    cls = type(obj)
    if cls in _PLAIN:  # exact types: str-valued enums must not match
        return obj
    if cls is dict:
        return {str(k): v if type(v) in _PLAIN else encode(v) for k, v in obj.items()}
    if cls is tuple or cls is list:
        return [v if type(v) in _PLAIN else encode(v) for v in obj]
    fields = _fields(cls)
    if fields is not None:
        out = {}
        for name, _ in fields:
            v = getattr(obj, name)
            out[name] = v if type(v) in _PLAIN else encode(v)
        return out
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def decode(tp: Any, raw: Any) -> Any:
    """The value of annotated type `tp` that `encode` turned into `raw`."""
    if raw is None or tp is Any:
        return raw
    if tp is int:
        if isinstance(raw, bool) or not isinstance(raw, numbers.Integral):
            raise ValidationError(f"expected an integer, got {raw!r}")
        return int(raw)
    if tp is float:
        if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
            raise ValidationError(f"expected a number, got {raw!r}")
        return float(raw)
    if dataclasses.is_dataclass(tp):
        return tp(**{name: decode(hint, raw[name]) for name, hint in _fields(tp) if name in raw})
    if isinstance(tp, enum.EnumMeta):
        return tp(raw)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in _UNIONS:
        options = [a for a in args if a is not type(None)]
        if len(options) > 1:
            options = [
                a for a in options
                if dataclasses.is_dataclass(a) and set(raw) <= {n for n, _ in _fields(a)}
            ]
        return decode(options[0], raw) if options else raw
    if tp is tuple:
        return tuple(raw)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(decode(args[0], v) for v in raw)
        return tuple(decode(a, v) for a, v in zip(args, raw))
    if origin is dict:
        key_tp, value_tp = args
        # JSON object keys are strings, so an int key is parsed, not checked.
        return {
            int(k) if key_tp is int else decode(key_tp, k): decode(value_tp, v)
            for k, v in raw.items()
        }
    return raw


class JsonRecord:
    """Mixin for record dataclasses: JSON forms through `encode`/`decode`."""

    def to_json_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_json_dict(cls, d: dict):
        return decode(cls, d)
