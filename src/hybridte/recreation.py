"""Exact re-computation of LSP paths under per-link reservation headroom.

Each request asks for a tunnel between fixed endpoints with a reserved
capacity and a path-delay budget. The solver picks one simple path per
request so that reserved capacities summed on any directed link stay within
a headroom fraction of its bandwidth, minimizing the number of link entries
that differ from the old routing.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

from .errors import Infeasible, ValidationError
from .lsp import LspRouting
from .topology import NetworkTopology, links_of_path


@dataclass(frozen=True)
class LspRequest:
    src: int
    dst: int
    capacity: float
    delay_budget: float = math.inf


@dataclass(frozen=True, eq=False)
class RecreationProblem:
    requests: tuple
    topology: NetworkTopology
    lr_old: LspRouting | None = None
    mu: float = 0.9
    path_limit: int = 200
    node_budget: int = 500_000


@dataclass(frozen=True, eq=False)
class RecreationSolution:
    routing: LspRouting
    changed_entries: int
    optimal: bool
    nodes_explored: int


class _BudgetExhausted(Exception):
    pass


def _cap_tol(cap: float) -> float:
    return 1e-9 * max(1.0, abs(cap))


def _enumerate(topo: NetworkTopology, src: int, dst: int, delay_budget: float,
               limit: int) -> tuple[list[tuple[int, ...]], bool]:
    # Best-first over partial paths keyed (delay, hops, node tuple); keys only
    # grow along extensions, so complete paths pop out already ordered.
    out: list[tuple[int, ...]] = []
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (src,))]
    while heap:
        if len(out) >= limit:
            return out, True
        delay, hops, nodes = heapq.heappop(heap)
        last = nodes[-1]
        if last == dst:
            out.append(nodes)
            continue
        for ln in topo.out_links(last):
            if ln.dst in nodes:
                continue
            nd = delay + ln.delay
            if nd > delay_budget:
                continue
            heapq.heappush(heap, (nd, hops + 1, nodes + (ln.dst,)))
    return out, False


def enumerate_simple_paths(topo: NetworkTopology, src: int, dst: int,
                           delay_budget: float = math.inf,
                           limit: int = 200) -> list[tuple[int, ...]]:
    """Simple src->dst paths within the delay budget, ordered by
    (total delay, hop count, node sequence), at most `limit` of them."""
    if not (0 <= src < topo.node_count and 0 <= dst < topo.node_count):
        raise ValidationError("endpoints out of range")
    if src == dst:
        raise ValidationError("source and destination must differ")
    if limit < 1:
        raise ValidationError("limit must be at least 1")
    return _enumerate(topo, src, dst, delay_budget, limit)[0]


def solve_lsp_recreation(problem: RecreationProblem) -> RecreationSolution:
    """Solve one re-creation instance; raises Infeasible when no routing exists."""
    topo = problem.topology
    n = len(problem.requests)
    old = problem.lr_old.routes if problem.lr_old is not None else ()
    any_truncated = False
    cands: list[list[tuple[int, tuple[tuple[int, int], ...]]]] = []
    for i, req in enumerate(problem.requests):
        if req.capacity <= 0:
            raise ValidationError(f"request {i}: capacity must be positive")
        # The topology is immutable, so its enumerations are memoized on it.
        key = (req.src, req.dst, req.delay_budget, problem.path_limit)
        if key not in topo._paths:
            paths, truncated = _enumerate(topo, *key)
            topo._paths[key] = (tuple(map(links_of_path, paths)), truncated)
        paths, truncated = topo._paths[key]
        any_truncated = any_truncated or truncated
        if not paths:
            raise Infeasible(f"request {i}: no simple path within the delay budget",
                             proven=not truncated)
        old_links = set(old[i]) if i < len(old) else set()
        cands.append(sorted(((len(old_links.symmetric_difference(links)), links)
                             for links in paths), key=lambda e: e[0]))

    order = sorted(range(n), key=lambda i: (len(cands[i]), i))
    min_cost = [cands[i][0][0] for i in range(n)]
    suffix_min = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_min[k] = suffix_min[k + 1] + min_cost[order[k]]

    budget = {(l.src, l.dst): problem.mu * l.bandwidth for l in topo.links}
    reserved = {pair: 0.0 for pair in budget}
    chosen: list[tuple[tuple[int, int], ...] | None] = [None] * n
    best_cost = math.inf
    best: list[tuple[tuple[int, int], ...]] | None = None
    nodes_explored = 0

    def fits(i: int, links) -> bool:
        cap = problem.requests[i].capacity
        for pair in links:
            b = budget[pair]
            if reserved[pair] + cap > b + _cap_tol(b):
                return False
        return True

    def place(i: int, links, sign: float):
        cap = problem.requests[i].capacity * sign
        for pair in links:
            reserved[pair] += cap

    def dfs(k: int, cost: int):
        nonlocal best_cost, best, nodes_explored
        nodes_explored += 1
        if nodes_explored > problem.node_budget:
            raise _BudgetExhausted
        if cost + suffix_min[k] >= best_cost:
            return
        if k == n:
            best_cost = cost
            best = list(chosen)
            return
        i = order[k]
        for step, links in cands[i]:
            if cost + step + suffix_min[k + 1] >= best_cost:
                break
            if not fits(i, links):
                continue
            place(i, links, 1.0)
            chosen[i] = links
            dfs(k + 1, cost + step)
            chosen[i] = None
            place(i, links, -1.0)

    aborted = False
    try:
        dfs(0, 0)
    except _BudgetExhausted:
        aborted = True
    if best is None:
        if aborted or any_truncated:
            raise Infeasible("search stopped before any feasible routing was found",
                             proven=False)
        raise Infeasible("no routing satisfies the reservation headroom", proven=True)
    routing = LspRouting(routes=tuple(best))
    optimal = not aborted and not any_truncated
    return RecreationSolution(routing, int(best_cost), optimal, nodes_explored)


def recreation_to_json(problem: RecreationProblem, solution: RecreationSolution | None = None) -> str:
    """Deterministic JSON dump of one instance (and optionally its solution)."""
    doc = {
        "type": "lsp_recreation",
        "mu": problem.mu,
        "path_limit": problem.path_limit,
        "node_budget": problem.node_budget,
        "requests": [
            {
                "id": i, "src": r.src, "dst": r.dst, "capacity": r.capacity,
                "delay_budget": None if math.isinf(r.delay_budget) else r.delay_budget,
            }
            for i, r in enumerate(problem.requests)
        ],
        "old_routing": [
            [list(p) for p in links] for links in
            (problem.lr_old.routes if problem.lr_old is not None else ())
        ],
    }
    if solution is not None:
        doc["solution"] = {
            "routing": [[list(p) for p in links] for links in solution.routing.routes],
            "changed_entries": solution.changed_entries,
            "optimal": solution.optimal,
            "nodes_explored": solution.nodes_explored,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
