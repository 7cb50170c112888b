"""Exception taxonomy shared by every benq module, and the one checker of outside JSON.

The CLI maps any BenqError to exit code 1; argparse usage errors exit 2.

Every JSON object read from a file (a safetensors or `.benq` header entry,
a quantization config, a policy) goes through `checked` against a table of
each field's exact type before any code reads it: a bool or a float is never
an int, and an enumerated field holds one of its values (2.0 is not 2).
"""

from __future__ import annotations

import reprlib
from typing import Any, Callable, Mapping, NamedTuple


class BenqError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BenqError):
    """Invalid or inconsistent configuration (bits, schedule, mixed group sizes)."""


class DataError(BenqError):
    """Input data violates a precondition (non-finite values, empty statistics)."""


class FormatError(BenqError):
    """Malformed, truncated, or corrupt file contents."""


class Field(NamedTuple):
    """A JSON field's exact type: its test, and the message of a miss (of {key} and {value})."""

    test: Callable[[Any], bool]
    message: str


def exact(*types: type, expected: str) -> Field:
    """A value of one of `types` exactly, so a bool is not an int nor an int a float."""
    return Field(lambda v: type(v) in types, "{key} {value} is not " + expected)


def one_of(*values: Any) -> Field:
    """One of `values`, of its type too (so 2.0 is not 2 and true is not 1)."""
    return Field(lambda v: any(type(v) is type(c) and v == c for c in values),
                 f"unsupported {{key}} {{value}} (expected one of {', '.join(map(repr, values))})")


def list_of(item: Field, expected: str) -> Field:
    """A list of any length whose every element passes `item`."""
    return Field(lambda v: type(v) is list and all(map(item.test, v)),
                 "{key} {value} is not a list of " + expected)


def tuple_of(*items: Field, expected: str) -> Field:
    """A list of one element per item, each passing its own."""
    return Field(lambda v: (type(v) is list and len(v) == len(items)
                            and all(f.test(x) for f, x in zip(items, v))),
                 "{key} {value} is not " + expected)


ANY = Field(lambda v: True, "")
BOOL = exact(bool, expected="true or false")
INT = exact(int, expected="an integer")
NONNEG = Field(lambda v: type(v) is int and v >= 0, "{key} {value} is not a non-negative integer")
NUMBER = exact(int, float, expected="a number")
STR = exact(str, expected="a string")
OBJECT = exact(dict, expected="a JSON object")


def checked(obj: Any, fields: Mapping[str, Field], what: str, error: type[BenqError], *,
            optional: tuple[str, ...] = (), extra: bool = False) -> dict:
    """`obj`, once it is a JSON object whose fields pass their table, else `error`.

    Every field is required unless `optional` names it, and a key the table
    does not name is an error unless `extra`.  Messages start with `what`.
    """
    if type(obj) is not dict:
        raise error(f"{what}: {reprlib.repr(obj)} is not a JSON object")
    for key, field in fields.items():
        if key not in obj:
            if key in optional:
                continue
            raise error(f"{what}: missing field {key!r}")
        if not field.test(obj[key]):
            raise error(f"{what}: " + field.message.format(key=key, value=reprlib.repr(obj[key])))
    unknown = obj.keys() - fields.keys()
    if unknown and not extra:
        raise error(f"{what}: unknown fields {reprlib.repr(sorted(unknown))}")
    return obj
