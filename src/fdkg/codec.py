"""JSON codec for dataclasses, driven by their fields and type hints.

A dataclass maps to an object keyed by field name in field order (a field
whose default is None is left out while None), lists and tuples to arrays,
and ``X | None`` to null or X.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from functools import cache

from .errors import ConfigError


@cache
def _fields(cls: type) -> dict[str, tuple[object, bool, bool]]:
    """Field name -> (type hint, required, omitted while None), evaluated once per class."""
    hints = typing.get_type_hints(cls)
    no_default = dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.default is no_default and f.default_factory is no_default, f.default is None)
        for f in dataclasses.fields(cls)
        if f.init
    }


def encode(obj):
    """The JSON-ready form of a dataclass, list or tuple (other values pass through)."""
    if dataclasses.is_dataclass(obj):
        return {
            name: encode(value)
            for name, (_, _, omit_none) in _fields(type(obj)).items()
            if (value := getattr(obj, name)) is not None or not omit_none
        }
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


def decode(tp, value, where: str = "value"):
    """Build a ``tp`` from its JSON form; ``where`` names it in the ConfigError raised for
    unknown keys, missing fields without a default and wrong types (``float`` takes an
    int but not NaN, ``int`` takes no float or bool, ``bool`` only a bool)."""
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {value!r}")
        fields = _fields(tp)
        unknown = sorted(value.keys() - fields.keys())
        if unknown:
            raise ConfigError(f"{where}: unknown fields {unknown}")
        missing = [name for name, (_, required, _) in fields.items() if required and name not in value]
        if missing:
            raise ConfigError(f"{where}: missing fields {missing}")
        return tp(**{k: decode(fields[k][0], v, f"{where}.{k}") for k, v in value.items()})
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return decode(inner, value, where)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected an array, got {value!r}")
        hints = args * len(value) if origin is list else args
        if len(hints) != len(value):
            raise ConfigError(f"{where}: expected {len(hints)} items, got {len(value)}")
        return origin(decode(h, v, f"{where}[{i}]") for i, (h, v) in enumerate(zip(hints, value)))
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp or (tp is float and math.isnan(value)):
        raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")
    return value
