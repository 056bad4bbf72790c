"""Exact re-computation of LSP paths under per-link reservation headroom.

Each request asks for a tunnel between fixed endpoints with a reserved
capacity and a path-delay budget. The solver picks one simple path per
request so that reserved capacities summed on any directed link stay within
a headroom fraction of its bandwidth, minimizing the number of link entries
that differ from the old routing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .bnb import Search, limits
from .dumps import request_records, routes, scalar
from .errors import Infeasible, ValidationError, check_count
from .topology import NetworkTopology, links_of_path


class LspRequest(NamedTuple):
    src: int
    dst: int
    capacity: float
    delay_budget: float = math.inf


class Routing(tuple):
    """Routes, each a tuple of link pairs, that keep their dump text once rendered: `text`
    as a dump's old routing, and `nested` one level deeper, as a solution that keeps it.
    Like `tuple(t)`, `Routing(routing)` is `routing` itself when it is one; a run's old
    routing is its plan's (`LspPlan.routing`), rendered once per plan."""

    def __new__(cls, routing):
        return routing if isinstance(routing, Routing) else super().__new__(cls, routing)

    text = cached_property(lambda routing: routes(routing, "  "))
    nested = cached_property(lambda routing: routing.text.replace("\n", "\n  "))


@dataclass(frozen=True)
class RecreationProblem:
    requests: tuple
    topology: NetworkTopology
    lr_old: tuple | None = None
    mu: float = 0.9
    path_limit: int = 200
    node_budget: int = 500_000


@dataclass(frozen=True, eq=False)
class RecreationSolution:
    routing: tuple
    changed_entries: int
    optimal: bool
    nodes_explored: int


def _enumerate(topo: NetworkTopology, src: int, dst: int, delay_budget: float,
               limit: int) -> list[tuple[int, ...]]:
    # A* over partial paths (Hart, Nilsson & Raphael 1968), h(v) being v's delay
    # distance to dst. Open paths are keyed by a lower bound on the delay of any
    # completion, shrunk so that rounding in either sum cannot lift it above the
    # completion's delay summed in path order. Complete paths wait in a second
    # heap under their exact (delay, hops, nodes) key and are emitted once no
    # open path can complete at or below their delay, so the order is that of a
    # plain best-first search over partial paths.
    h = topo.delay_distances_to(dst)
    shrink = 1.0 - 4 * topo.node_count * 2.0 ** -53
    if src not in h or h[src] * shrink > delay_budget:
        return []
    out: list[tuple[int, ...]] = []
    done: list[tuple[float, int, tuple[int, ...]]] = []
    opened = [(h[src] * shrink, 0.0, (src,))]
    push, pop, out_links = heapq.heappush, heapq.heappop, topo.out_links
    while opened:
        while done and done[0][0] < opened[0][0]:
            out.append(pop(done)[2])
            if len(out) == limit:
                return out
        _, delay, nodes = pop(opened)
        for ln in out_links(nodes[-1]):
            v = ln.dst
            if v in nodes:
                continue
            nd = delay + ln.delay
            if v == dst:
                if nd <= delay_budget:
                    push(done, (nd, len(nodes), nodes + (v,)))
            elif v in h:
                bound = (nd + h[v]) * shrink
                if bound <= delay_budget:
                    push(opened, (bound, nd, nodes + (v,)))
    done.sort()
    return out + [nodes for _, _, nodes in done[:limit - len(out)]]


def _check_endpoints(topo: NetworkTopology, src: int, dst: int, where: str = "") -> None:
    if not (0 <= src < topo.node_count and 0 <= dst < topo.node_count):
        raise ValidationError(f"{where}endpoints out of range")
    if src == dst:
        raise ValidationError(f"{where}source and destination must differ")


def enumerate_simple_paths(topo: NetworkTopology, src: int, dst: int,
                           delay_budget: float = math.inf,
                           limit: int = 200) -> list[tuple[int, ...]]:
    """Simple src->dst paths within the delay budget, ordered by
    (total delay, hop count, node sequence), at most `limit` of them."""
    _check_endpoints(topo, src, dst)
    check_count(limit, "limit")
    if math.isnan(delay_budget):
        raise ValidationError("delay budget must not be NaN")
    return _enumerate(topo, src, dst, delay_budget, limit)


def _old_routes_valid(problem: RecreationProblem, old: tuple) -> bool:
    """Whether each request's old route is a simple src->dst path within its
    delay budget."""
    by_pair = problem.topology.by_pair
    for req, route in zip(problem.requests, old):
        node, seen, delay = req.src, {req.src}, 0.0
        for pair in route:
            ln = by_pair.get(pair)
            if ln is None or ln.src != node or ln.dst in seen:
                return False
            delay += ln.delay  # summed in path order, as _enumerate does
            if delay > req.delay_budget:
                return False
            node = ln.dst
            seen.add(node)
        if node != req.dst:
            return False
    return True


def solve_lsp_recreation(problem: RecreationProblem) -> RecreationSolution:
    """Solve one re-creation instance; raises Infeasible when no routing exists.

    A still-feasible old routing is returned as is, at cost 0, without
    enumerating candidate paths, when the node budget allows the kernel's
    first descent along it (`Search.keep`). `path_limit` and `node_budget` must be
    ints of at least 1."""
    if not 0 < problem.mu <= 1:
        raise ValidationError("mu must lie in (0, 1]")
    check_count(problem.path_limit, "path_limit")
    check_count(problem.node_budget, "node_budget")
    topo = problem.topology
    for i, req in enumerate(problem.requests):
        _check_endpoints(topo, req.src, req.dst, f"request {i}: ")
        if not req.capacity > 0:
            raise ValidationError(f"request {i}: capacity must be positive")
        if math.isnan(req.delay_budget):
            raise ValidationError(f"request {i}: delay budget must not be NaN")
    n = len(problem.requests)
    old = problem.lr_old or ((),) * n  # no old routing: every old route is empty
    if len(old) != n:
        raise ValidationError(f"lr_old has {len(old)} routes for {n} requests")
    # One search, so one set of limits, for the kept-routing check and the kernel run.
    search = Search(limits({(l.src, l.dst): problem.mu * l.bandwidth for l in topo.links}),
                    problem.node_budget)
    if (_old_routes_valid(problem, old)
            and search.keep([(route, req.capacity) for req, route in zip(problem.requests, old)], 1)):
        return RecreationSolution(tuple(old), 0, True, search.nodes)
    any_truncated = False
    options: list[list[tuple]] = []
    for i, req in enumerate(problem.requests):
        # One path past the limit tells whether the limit cut the list.
        paths = _enumerate(topo, req.src, req.dst, req.delay_budget, problem.path_limit + 1)
        any_truncated = any_truncated or len(paths) > problem.path_limit
        del paths[problem.path_limit:]
        if not paths:
            raise Infeasible(f"request {i}: no simple path within the delay budget")
        old_links = set(old[i])
        options.append(sorted(((len(old_links.symmetric_difference(links)), links, links)
                               for links in map(links_of_path, paths)), key=lambda o: o[0]))

    order = sorted(range(n), key=lambda i: (len(options[i]), i))
    best, cost, finished = search.run(order, [r.capacity for r in problem.requests], options)
    proven = finished and not any_truncated
    if best is None:
        raise Infeasible("no routing satisfies the reservation headroom" if proven else
                         "search stopped before any feasible routing was found", proven=proven)
    return RecreationSolution(tuple(best[i] for i in range(n)), cost, proven, search.nodes)


def recreation_to_json(problem: RecreationProblem, solution: RecreationSolution | None = None) -> str:
    """Deterministic JSON dump of one instance (and optionally its solution)."""
    old = Routing(problem.lr_old or ())
    text = (f'{{\n  "mu": {scalar(problem.mu)},\n  "node_budget": {scalar(problem.node_budget)},\n'
            f'  "old_routing": {old.text},\n'
            f'  "path_limit": {scalar(problem.path_limit)},\n'
            f'  "requests": {request_records(problem.requests)}')
    if solution is not None:
        routing = old.nested if solution.routing == old else routes(solution.routing, "    ")
        text += (f',\n  "solution": {{\n    "changed_entries": {scalar(solution.changed_entries)},\n'
                 f'    "nodes_explored": {scalar(solution.nodes_explored)},\n'
                 f'    "optimal": {scalar(solution.optimal)},\n'
                 f'    "routing": {routing}\n  }}')
    return text + ',\n  "type": "lsp_recreation"\n}\n'
