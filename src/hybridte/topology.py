"""Directed network graph of edge switches and core routers.

Nodes are integers 0..node_count-1. Links are directed; a physical cable is
modelled as two opposite links. Edge nodes originate and absorb traffic,
the remaining nodes only forward.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from dataclasses import dataclass, field
from functools import reduce

from .errors import NUMBER, ParseError, ValidationError, check_object, read_json


@dataclass(frozen=True, order=True)
class Link:
    src: int
    dst: int
    bandwidth: float
    delay: float


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable directed graph with per-link bandwidth and propagation delay.

    Links are kept sorted by (src, dst) so equal topologies compare and
    serialize identically.
    """

    node_count: int
    links: tuple[Link, ...]
    edge_nodes: frozenset[int]
    by_pair: dict = field(init=False, repr=False, compare=False)  # (src, dst) -> Link, links order
    position: dict = field(init=False, repr=False, compare=False)  # (src, dst) -> index in links
    _out: dict = field(init=False, repr=False, compare=False)
    _in: dict = field(init=False, repr=False, compare=False)
    _dist_to: dict = field(init=False, repr=False, compare=False)  # dst -> delay_distances_to(dst)

    def __post_init__(self):
        if self.node_count < 2:
            raise ValidationError("topology needs at least 2 nodes")
        object.__setattr__(self, "links", tuple(sorted(self.links)))
        object.__setattr__(self, "edge_nodes", frozenset(self.edge_nodes))
        by_pair: dict[tuple[int, int], Link] = {}
        out: dict[int, list[Link]] = {v: [] for v in range(self.node_count)}
        into: dict[int, list[Link]] = {v: [] for v in range(self.node_count)}
        for ln in self.links:
            if not (0 <= ln.src < self.node_count and 0 <= ln.dst < self.node_count):
                raise ValidationError(f"link ({ln.src},{ln.dst}) references unknown node")
            if ln.src == ln.dst:
                raise ValidationError(f"self-loop at node {ln.src}")
            if (ln.src, ln.dst) in by_pair:
                raise ValidationError(f"duplicate link ({ln.src},{ln.dst})")
            if not 0 < ln.bandwidth < math.inf:  # also catches NaN, which JSON input can carry
                raise ValidationError(f"link ({ln.src},{ln.dst}) needs a finite positive bandwidth")
            if not 0 <= ln.delay < math.inf:
                raise ValidationError(f"link ({ln.src},{ln.dst}) needs a finite nonnegative delay")
            by_pair[(ln.src, ln.dst)] = ln
            out[ln.src].append(ln)
            into[ln.dst].append(ln)
        for v in self.edge_nodes:
            if not (0 <= v < self.node_count):
                raise ValidationError(f"edge node {v} out of range")
        if not self.edge_nodes:
            raise ValidationError("topology needs at least one edge node")
        if not self.links:
            raise ValidationError("topology needs at least one link")
        object.__setattr__(self, "by_pair", by_pair)
        object.__setattr__(self, "position", {pair: k for k, pair in enumerate(by_pair)})
        object.__setattr__(self, "_out", {v: tuple(sorted(ls, key=lambda l: l.dst)) for v, ls in out.items()})
        object.__setattr__(self, "_in", {v: tuple(ls) for v, ls in into.items()})  # by src
        object.__setattr__(self, "_dist_to", {})

    @property
    def mean_bandwidth(self) -> float:
        # Summed left to right in links order: the builtin sum compensates from Python 3.12 on.
        return reduce(operator.add, [l.bandwidth for l in self.links], 0.0) / len(self.links)

    def out_links(self, node: int) -> tuple[Link, ...]:
        """Links leaving `node`, sorted by destination."""
        return self._out[node]

    def delay_distances(self, src: int) -> dict[int, float]:
        """Dijkstra distances by propagation delay from `src` to every reachable node."""
        return self._dijkstra(src, reverse=False)

    def delay_distances_to(self, dst: int) -> dict[int, float]:
        """Dijkstra distances by propagation delay to `dst` from every node that
        reaches it, computed once per destination and shared: do not modify."""
        if dst not in self._dist_to:
            self._dist_to[dst] = self._dijkstra(dst, reverse=True)
        return self._dist_to[dst]

    def _dijkstra(self, start: int, reverse: bool) -> dict[int, float]:
        # From `start` along out-links, or against in-links when `reverse`.
        links = self._in if reverse else self._out
        dist = {start: 0.0}
        heap = [(0.0, start)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist.get(v, math.inf):
                continue
            for ln in links[v]:
                w = ln.src if reverse else ln.dst
                nd = d + ln.delay
                if nd < dist.get(w, math.inf):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return dist


def links_of_path(path: tuple[int, ...] | list[int]) -> tuple[tuple[int, int], ...]:
    """Consecutive (src, dst) pairs along a node sequence."""
    return tuple((path[k], path[k + 1]) for k in range(len(path) - 1))


def serialize_topology(topo: NetworkTopology) -> str:
    """Canonical JSON text; load_topology(json.loads(serialize_topology(t))) == t."""
    doc = {
        "nodes": topo.node_count,
        "edge_nodes": sorted(topo.edge_nodes),
        "links": [
            {"src": l.src, "dst": l.dst, "bandwidth": l.bandwidth, "delay": l.delay}
            for l in topo.links
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


_TOPOLOGY_FIELDS = {"nodes": int, "edge_nodes": list, "links": list}
_LINK_FIELDS = {"src": int, "dst": int, "bandwidth": NUMBER, "delay": NUMBER}


def load_topology(doc) -> NetworkTopology:
    """Build a topology from its parsed JSON document. ParseError on malformed input (see
    `check_object`; edge nodes must be distinct integers), ValidationError on bad structure."""
    check_object(doc, _TOPOLOGY_FIELDS, "topology", required=_TOPOLOGY_FIELDS.keys())
    edge_nodes = doc["edge_nodes"]
    if not all(type(v) is int for v in edge_nodes):  # a JSON true/false loads as a bool
        raise ParseError("edge_nodes entries must be integers")
    if len(set(edge_nodes)) != len(edge_nodes):
        raise ParseError("edge_nodes repeats a node")
    links = []
    for k, entry in enumerate(doc["links"]):
        check_object(entry, _LINK_FIELDS, f"link #{k}", required=_LINK_FIELDS.keys())
        links.append(Link(entry["src"], entry["dst"], float(entry["bandwidth"]),
                          float(entry["delay"])))
    return NetworkTopology(node_count=doc["nodes"], links=tuple(links),
                           edge_nodes=frozenset(edge_nodes))


def load_topology_file(path: str) -> NetworkTopology:
    return load_topology(read_json(path, "topology file"))


# Reference network: 4 edge switches (0-3) and 4 core routers (4-7) arranged
# as two parallel forwarding planes, so every edge pair has two node-disjoint
# routes. Uniform bandwidth and unit delay keep hop count and delay aligned.
_REFERENCE_PAIRS = (
    (0, 4), (0, 5),
    (1, 4), (1, 5),
    (2, 6), (2, 7),
    (3, 6), (3, 7),
    (4, 6), (5, 7),
)


def reference_topology(bandwidth: float = 100.0, delay: float = 1.0) -> NetworkTopology:
    links = []
    for a, b in _REFERENCE_PAIRS:
        links.append(Link(a, b, bandwidth, delay))
        links.append(Link(b, a, bandwidth, delay))
    return NetworkTopology(node_count=8, links=tuple(links), edge_nodes=frozenset({0, 1, 2, 3}))
