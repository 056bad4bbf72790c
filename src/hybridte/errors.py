"""Exception types shared across the package, and the input checks that raise them."""

from __future__ import annotations


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


def check_keys(doc: dict, allowed, where: str) -> None:
    """Raise ParseError when `doc` has a key outside `allowed`."""
    unknown = sorted(doc.keys() - allowed)
    if unknown:
        raise ParseError(f"{where} has unknown keys {unknown}")


def check_types(doc: dict, names, types, kind: str, where: str) -> None:
    """Raise ParseError when one of `names` present in `doc` is not of `types`."""
    # JSON true/false load as bools, which Python also counts as ints.
    for name in names:
        if name in doc and (not isinstance(doc[name], types) or isinstance(doc[name], bool)):
            raise ParseError(f"{where} field {name!r} must be {kind}")
