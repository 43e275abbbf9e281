"""Dataclass <-> JSON record codec.

A record is the JSON form of a dataclass: a dict keyed by field name,
nested dataclasses as nested dicts, tuples and arrays as lists.  Field
types come from the class annotations, so every default is the one the
dataclass states.  A class whose record is not its plain fields defines
its own ``to_record``/``from_record`` pair (``channel.LedBeacon`` and
``channel.ReceiverConfig``); they are used wherever the class is nested.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

#: Scalar annotations and the JSON values each accepts.
_SCALARS = {bool: bool, int: int, float: (int, float), str: str}


def to_record(obj):
    """JSON-ready form of ``obj``."""
    if hasattr(obj, "to_record"):
        return obj.to_record()
    if dataclasses.is_dataclass(obj):
        return {f.name: to_record(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_record(x) for x in obj]
    return obj


def from_record(cls, d):
    """Build dataclass ``cls`` from its plain-field record ``d``.

    Fields absent from ``d`` take the dataclass defaults.  Lists come back
    as tuples (or arrays for ``np.ndarray`` fields).  A key that names no
    field, a missing required field or a value of the wrong type raises
    ``ValueError``.
    """
    name = cls.__name__
    if not isinstance(d, dict):
        raise ValueError(f"{name}: expected an object, got {_json_type(d)}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise ValueError(f"{name}: unknown field(s) {', '.join(map(repr, unknown))}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, f in fields.items():
        if key in d:
            kwargs[key] = decode(hints[key], d[key], f"{name}.{key}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{name}: missing required field {key!r}")
    try:
        return cls(**kwargs)
    except ValueError as e:  # the class's own check
        raise ValueError(f"{name}: {e}") from e


def decode(tp, value, where: str):
    """Value of annotation ``tp`` from its JSON form; ``where`` names it in errors."""
    if dataclasses.is_dataclass(tp):
        if hasattr(tp, "from_record"):
            return tp.from_record(value)
        return from_record(tp, value)
    if tp is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{where}: expected an object, got {_json_type(value)}")
        return value
    if tp is np.ndarray or tp is tuple or typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected a list, got {_json_type(value)}")
        if tp is np.ndarray:
            return np.asarray(value, dtype=float)
        items = typing.get_args(tp)
        if items[-1:] == (Ellipsis,):
            items = items[:1] * len(value)
        elif items and len(items) != len(value):
            raise ValueError(f"{where}: expected a list of {len(items)}, got {len(value)} items")
        if items:
            return tuple(decode(t, v, f"{where}[{i}]")
                         for i, (t, v) in enumerate(zip(items, value)))
        return _tuples(value)
    if tp in _SCALARS:
        if not isinstance(value, _SCALARS[tp]) or (isinstance(value, bool) and tp is not bool):
            raise ValueError(f"{where}: expected {tp.__name__}, got {_json_type(value)}")
        return tp(value)
    return value


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, (list, tuple)) else value


def _json_type(value) -> str:
    return {dict: "an object", list: "a list"}.get(type(value), repr(value))
