"""Label-switched paths: reserved tunnels along simple paths of the topology."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .dumps import lsp_record
from .errors import InvalidPathError, ValidationError
from .topology import NetworkTopology, links_of_path


@dataclass(frozen=True)
class Lsp:
    """A reserved unidirectional tunnel along a simple path.

    `links` holds the (src, dst) pairs in path order; `prop_delay` is the sum
    of the link delays and is kept consistent by `build_lsp`.
    """

    id: int
    src: int
    dst: int
    links: tuple[tuple[int, int], ...]
    capacity: float
    prop_delay: float

    dump_record = cached_property(lsp_record)  # rendered once per object


def lsps_by_pair(lsps) -> dict[tuple[int, int], list[Lsp]]:
    """The LSPs grouped by (src, dst), in input order within each pair."""
    groups: dict[tuple[int, int], list[Lsp]] = {}
    for l in lsps:
        groups.setdefault((l.src, l.dst), []).append(l)
    return groups


def build_lsp(topo: NetworkTopology, path: list[int] | tuple[int, ...], capacity: float,
              lsp_id: int = 0) -> Lsp:
    """Construct an Lsp along `path`, validating it against the topology."""
    if len(path) < 2:
        raise InvalidPathError("path needs at least two nodes")
    if len(set(path)) != len(path):
        raise InvalidPathError(f"path {list(path)} repeats a node")
    if not 0 < capacity < math.inf:  # also catches NaN, which JSON input can carry
        raise ValidationError("capacity must be positive and finite")
    links = links_of_path(path)
    delay = 0.0
    for a, b in links:
        ln = topo.link_lookup(a, b)
        if ln is None:
            raise InvalidPathError(f"no link from {a} to {b}")
        delay += ln.delay
    return Lsp(id=lsp_id, src=path[0], dst=path[-1], links=links, capacity=capacity,
               prop_delay=delay)
