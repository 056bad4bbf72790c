"""Label-switched paths: reserved tunnels along simple paths of the topology."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .bnb import limits
from .dumps import lsp_record, lsp_records
from .errors import InvalidPathError, ValidationError
from .recreation import Routing
from .topology import NetworkTopology, links_of_path
from .traffic import FlowPopulation


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


class LspPlan(tuple):
    """A run's LSPs in id order, checked once when built: unique ids and, given a
    `topology`, links that it has. Like `tuple(t)`, `LspPlan(plan)` is `plan` itself,
    as is `LspPlan(plan, topology)` for the topology it was checked against. A plan
    compares as the tuple of its LSPs, so an unchanged one compares by one identity
    test. `by_id` maps ids to LSPs, `pairs` each (src, dst) to its LSPs in id order, and
    `routing` is their links in id order, a re-creation's old routing. Lookups, solver
    tables, the dump's `lsps` text and the routing with its dump text (`recreation.Routing`)
    are built once per plan, on first use. The dump text kept by value, not per object, is
    `dumps`' two caches: request records and link lists."""

    dump_records = cached_property(lsp_records)
    routing = cached_property(lambda plan: Routing(l.links for l in plan))

    def __new__(cls, lsps, topology: NetworkTopology | None = None):
        if isinstance(lsps, LspPlan) and topology in (None, lsps.topology):
            return lsps
        plan = super().__new__(cls, sorted(lsps, key=lambda l: l.id))
        by_id = {l.id: l for l in plan}
        if len(by_id) != len(plan):
            raise ValidationError("duplicate LSP ids")
        missing = [(l.id, pair) for l in lsps for pair in l.links  # first listed, first named
                   if topology is not None and pair not in topology.by_pair]
        if missing:
            raise ValidationError("LSP {} uses nonexistent link {}".format(*missing[0]))
        pairs: dict[tuple[int, int], tuple[Lsp, ...]] = {}
        for l in plan:
            pairs[l.src, l.dst] = pairs.get((l.src, l.dst), ()) + (l,)
        vars(plan).update(topology=topology, by_id=by_id, pairs=pairs, _admissible={},
                         _tables={})
        return plan

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen LspPlan")

    def check_flows(self, flows, fr_old: dict[int, int] | None = None) -> None:
        """Raise ValidationError on duplicate flow ids and, given the old assignment
        `fr_old`, on a flow that it misses or places on an LSP outside this plan."""
        if not FlowPopulation(flows).unique:
            raise ValidationError("duplicate flow ids")
        if fr_old is None:
            return
        for f in flows:
            if f.id not in fr_old:
                raise ValidationError(f"flow {f.id} missing from the old assignment")
            if fr_old[f.id] not in self.by_id:
                raise ValidationError(f"flow {f.id} rides an unknown LSP")

    def admissible(self, src: int, dst: int, max_delay: float) -> tuple[Lsp, ...]:
        """The LSPs from `src` to `dst` within the delay bound, in id order, found once."""
        key = (src, dst, max_delay)
        if key not in self._admissible:
            self._admissible[key] = tuple(l for l in self.pairs.get((src, dst), ())
                                          if l.prop_delay <= max_delay)
        return self._admissible[key]

    def search_tables(self, mu: float, unreserved: bool) -> tuple[dict, dict, dict]:
        """Re-routing's resource limits (`bnb.limits`), each LSP's resources and each
        (src, dst) pair's room under headroom `mu`, built once per (mu, mode). An LSP
        loads its own capacity and, in unreserved mode, every link it crosses, each link
        holding `mu` times its bandwidth in the plan's topology. A pair's room is the sum,
        in id order, of its LSPs' limits, a negative limit counting as 0: it takes nothing."""
        key = (mu, unreserved)
        if key not in self._tables:
            capacity = {l.id: l.capacity for l in self}
            resources = {l.id: (l.id, *l.links) if unreserved else (l.id,) for l in self}
            if unreserved:
                for ln in self.topology.links:
                    capacity[(ln.src, ln.dst)] = mu * ln.bandwidth
            limit = limits(capacity)
            room = {pair: sum(max(limit[l.id], 0.0) for l in lsps)
                    for pair, lsps in self.pairs.items()}
            self._tables[key] = limit, resources, room
        return self._tables[key]


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
