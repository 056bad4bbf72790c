"""Exception types shared across the package, and the input checks that raise them."""

from __future__ import annotations

import json


class HybridTeError(Exception):
    """Base class for all package errors."""


class ParseError(HybridTeError):
    """Input text could not be parsed into the expected structure."""


class ValidationError(HybridTeError):
    """Parsed input violates a structural invariant."""


class ConfigError(HybridTeError):
    """A configuration value is out of range or inconsistent."""


class InvalidPathError(HybridTeError):
    """A node sequence does not form a simple path in the topology."""


class UnreachableError(HybridTeError):
    """No route exists between the requested endpoints."""


class Infeasible(HybridTeError):
    """An optimization instance has no feasible solution.

    `proven` is True when infeasibility was established exhaustively and
    False when the search gave up (budget exhausted with no incumbent).
    """

    def __init__(self, message: str, proven: bool = True):
        super().__init__(message)
        self.proven = proven


def read_json(path: str, what: str):
    """The JSON document in the UTF-8 file `path`, a `what`. ParseError naming the file when
    it is unreadable or no valid JSON, also for nesting or digits past Python's limits."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def check_count(value, name: str) -> None:
    """Raise ValidationError unless `value` is an int of at least 1; a bool is none."""
    if type(value) is bool or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer")
    if value < 1:
        raise ValidationError(f"{name} must be at least 1")


NUMBER = (int, float)  # a field kind: any JSON number
_KIND_NAMES = {int: "an integer", NUMBER: "a number", str: "a string", list: "a list",
               dict: "a JSON object"}


def check_object(doc, fields: dict, where: str, required=frozenset()) -> dict:
    """Return `doc` when it is a JSON object whose keys are all in `fields`, with every
    key of the set `required`, and whose values each have their field's kind: int,
    NUMBER (in a float's range), str, list or dict. Raise ParseError naming the field."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be a JSON object")
    keys = doc.keys()
    if not keys <= fields.keys():
        raise ParseError(f"{where} has unknown keys {sorted(keys - fields.keys())}")
    if not keys >= required:
        raise ParseError(f"{where} missing key {min(required - keys)!r}")
    for name, value in doc.items():
        # JSON true/false load as bools, which Python also counts as ints.
        if type(value) is bool or not isinstance(value, fields[name]):
            raise ParseError(f"{where} field {name!r} must be {_KIND_NAMES[fields[name]]}")
        if fields[name] is NUMBER and type(value) is int:
            try:
                float(value)
            except OverflowError:
                raise ParseError(f"{where} field {name!r} is too large for a float") from None
    return doc
