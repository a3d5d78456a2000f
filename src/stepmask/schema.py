"""Typed construction of config dataclasses from JSON, and the one JSON-file
reader.

`from_json` is the one place a JSON object becomes a config dataclass: its
keys must be fields of the class, and each value must have the JSON type of
the field's annotation. Values are checked, never converted, except that a
list becomes a tuple where the annotation asks for a tuple of its length.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing

from .errors import ConfigError, ParseError


@functools.cache
def _resolved(cls) -> tuple:
    # get_type_hints takes ~0.1 ms a class, several times what a check costs.
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def field_types(cls) -> dict:
    """The fields of dataclass `cls` mapped to their resolved annotations."""
    return dict(_resolved(cls))


def read_json(path):
    """The JSON value in file `path`. Bytes that are not UTF-8 and text that
    is not JSON raise ParseError naming the path and the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: {exc} (line {line})") from exc
    except ValueError as exc:  # JSONDecodeError, whose message names the line
        raise ParseError(f"{path}: {exc}") from exc


def check(tp, value, where: str = ""):
    """`value` checked against `tp`: an annotation, or a dict mapping the
    allowed keys of a JSON object to theirs. A bad key or value raises
    ConfigError naming its dotted key."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if isinstance(tp, dict) and isinstance(value, dict):
        for key in value:
            if key not in tp:
                raise ConfigError(f"{where}.{key}: unknown key" if where else f"{key}: unknown key")
        return {k: check(tp[k], v, f"{where}.{k}" if where else k) for k, v in value.items()}
    if origin in (typing.Union, types.UnionType):
        for option in args:
            try:
                return check(option, value, where)
            except ConfigError:
                pass
    elif origin is typing.Literal:
        if any(type(value) is type(a) and value == a for a in args):
            return value
    elif origin is list and isinstance(value, list):
        return [check(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    elif origin is tuple and isinstance(value, (list, tuple)) and len(value) == len(args):
        return tuple(check(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    elif tp in (int, float):
        # JSON has no bool-as-number and no NaN or infinity; an int is a float.
        if type(value) is int or tp is float and type(value) is float and math.isfinite(value):
            return value
    elif origin is None and isinstance(tp, type) and isinstance(value, tp):
        return value
    name = "object" if isinstance(tp, dict) else tp.__name__ if isinstance(tp, type) else str(tp)
    raise ConfigError(f"{where or 'top level'}: expected {name.replace('typing.', '')}, got {value!r}")


def from_json(cls, data, where: str = ""):
    """Build dataclass `cls` from the JSON object `data`, which must give
    every field that has no default."""
    kwargs = check(field_types(cls), data, where)
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in kwargs:
            raise ConfigError(f"{where}.{f.name}: missing" if where else f"{f.name}: missing")
    return cls(**kwargs)


_JSON_TYPES = {
    str: ((str,), "a string"), int: ((int,), "an integer"),
    float: ((int, float), "a number"), list: ((list,), "a list"),
}


def typed_fields(rec, where: str, **types) -> tuple:
    """rec's values at the given keys, each exactly of its JSON type: a bool
    is not a number and a string is not an int, so nothing is cast. A
    record that is not an object, lacks a key or has a value of another
    type raises ParseError naming `where` and the key."""
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: {rec!r} is not an object")
    values = []
    for key, tp in types.items():
        if key not in rec:
            raise ParseError(f"{where}: missing {key!r}")
        allowed, name = _JSON_TYPES[tp]
        if type(rec[key]) not in allowed:
            raise ParseError(f"{where}: {key} {rec[key]!r} is not {name}")
        values.append(rec[key])
    return tuple(values)
