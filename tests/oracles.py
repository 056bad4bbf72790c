"""Brute-force reference implementations, random instance generators, the
reference rendering of `--dump-lp` instances, the reference metrics sample,
the reference auto LSP plan, the full-scan LSP lookups and the reference run.

Everything here is deliberately naive: exhaustive enumeration and plain
Python sums, so solver results can be checked against an implementation
with no shared logic. The exceptions are the full-scan lookups, which keep
the solvers' former scan of every LSP for every flow, and the best-first path
enumerator, which keeps the re-creation solver's former search.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import math

import numpy as np

from hybridte import rerouting
from hybridte.bnb import Search, limits
from hybridte.errors import ConfigError, Infeasible
from hybridte.ffr import FfrResult
from hybridte.lsp import build_lsp
from hybridte.metrics import MetricsSample
from hybridte.orchestrator import build_auto_lsp_plan, load_lsp_plan_file
from hybridte.recreation import (LspRequest, RecreationProblem, enumerate_simple_paths,
                                 solve_lsp_recreation)
from hybridte.topology import Link, NetworkTopology, links_of_path, load_topology_file
from hybridte.traffic import Flow, TrafficConfig, generate_flows


def within(value: float, bound: float) -> bool:
    return value <= bound + 1e-9 * max(1.0, abs(bound))


def all_simple_paths(topo, src, dst, delay_budget=math.inf):
    """Every simple src->dst path within the budget, via plain recursion,
    sorted by (total delay, hop count, node sequence)."""
    found = []

    def walk(node, nodes, delay):
        if node == dst:
            found.append((delay, len(nodes) - 1, nodes))
            return
        for ln in topo.out_links(node):
            if ln.dst in nodes:
                continue
            if delay + ln.delay <= delay_budget:
                walk(ln.dst, nodes + (ln.dst,), delay + ln.delay)

    walk(src, (src,), 0.0)
    found.sort()
    return [nodes for _, _, nodes in found]


def best_first_paths(topo, src, dst, delay_budget=math.inf, limit=200):
    """The first `limit` simple src->dst paths within the budget and whether the
    list was cut, by a best-first search over partial paths keyed (delay, hops,
    node tuple) with no sense of direction; keys only grow along extensions, so
    complete paths pop out already ordered. The list is cut when any partial
    path is left, even one that cannot finish."""
    out = []
    heap = [(0.0, 0, (src,))]
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


def min_hop_count(topo, src, dst):
    """BFS hop distance, or None when unreachable."""
    seen = {src}
    frontier = [src]
    hops = 0
    while frontier:
        if dst in frontier:
            return hops
        nxt = []
        for v in frontier:
            for ln in topo.out_links(v):
                if ln.dst not in seen:
                    seen.add(ln.dst)
                    nxt.append(ln.dst)
        frontier = nxt
        hops += 1
    return None


def min_hop_route(topo, src, dst):
    """The lexicographically smallest of the simple src->dst paths with the fewest hops."""
    hops = min_hop_count(topo, src, dst)
    return min(p for p in all_simple_paths(topo, src, dst) if len(p) - 1 == hops)


def rerouting_feasible(flows, lsps, assign, mode="reserved", mu=0.9,
                       routing=None, topo=None):
    by_id = {l.id: l for l in lsps}
    loads = {l.id: 0.0 for l in lsps}
    for f in flows:
        lid = assign[f.id]
        l = by_id[lid]
        if l.src != f.src or l.dst != f.dst:
            return False
        if l.prop_delay > f.max_delay + 1e-9 * max(1.0, f.max_delay):
            return False
        loads[lid] += f.rate
    for lid, load in loads.items():
        if not within(load, by_id[lid].capacity):
            return False
    if mode == "unreserved":
        link_load = {}
        for f in flows:
            for pair in routing[assign[f.id]]:
                link_load[pair] = link_load.get(pair, 0.0) + f.rate
        for pair, load in link_load.items():
            if not within(load, mu * topo.by_pair[pair].bandwidth):
                return False
    return True


def best_rerouting(flows, lsps, fr_old, mode="reserved", mu=0.9,
                   routing=None, topo=None):
    """Exhaustive minimum-change assignment; returns (changes, mapping) where
    the mapping is the lexicographically smallest optimum in flow-id order,
    or None when nothing is feasible.

    Assignments are enumerated by how many flows they move, fewest first, so
    the enumeration ends at the optimum. Before that, each endpoint pair's
    flows are enumerated alone: a pair that fits in no way on its own does
    not fit beside the others either."""
    flows = sorted(flows, key=lambda f: f.id)
    # Only an LSP with the flow's endpoints can carry it; listing those alone
    # keeps multi-pair instances small enough to enumerate.
    choices = [sorted(l.id for l in lsps if (l.src, l.dst) == (f.src, f.dst)) for f in flows]

    def fits(indices, combo):
        assign = {flows[i].id: lid for i, lid in zip(indices, combo)}
        return rerouting_feasible([flows[i] for i in indices], lsps, assign, mode, mu,
                                  routing, topo)

    for pair in {(f.src, f.dst) for f in flows}:
        own = [i for i, f in enumerate(flows) if (f.src, f.dst) == pair]
        if not any(fits(own, combo) for combo in itertools.product(*(choices[i] for i in own))):
            return None
    everyone = range(len(flows))
    for changes in range(len(flows) + 1):
        best = None
        for movers in itertools.combinations(everyone, changes):
            # A mover takes any LSP but its old one; every other flow keeps it.
            options = [[lid for lid in choices[i] if (lid != fr_old[flows[i].id]) == (i in movers)]
                       for i in everyone]
            for combo in itertools.product(*options):
                if (best is None or combo < best) and fits(everyone, combo):
                    best = combo
        if best is not None:
            return changes, {f.id: lid for f, lid in zip(flows, best)}
    return None


def best_recreation(requests, topo, lr_old, mu=0.9):
    """Exhaustive minimum-change routing over every simple-path combination;
    returns the least total changed link entries, or None when infeasible."""
    old = lr_old or ()
    options = []
    for i, req in enumerate(requests):
        paths = all_simple_paths(topo, req.src, req.dst, req.delay_budget)
        if not paths:
            return None
        old_links = set(old[i]) if i < len(old) else set()
        options.append([(len(set(links_of_path(p)) ^ old_links), links_of_path(p))
                        for p in paths])
    best = None
    for combo in itertools.product(*options):
        reserved = {}
        ok = True
        for (_, links), req in zip(combo, requests):
            for pair in links:
                reserved[pair] = reserved.get(pair, 0.0) + req.capacity
        for pair, total in reserved.items():
            if not within(total, mu * topo.by_pair[pair].bandwidth):
                ok = False
                break
        if not ok:
            continue
        cost = sum(c for c, _ in combo)
        if best is None or cost < best:
            best = cost
    return best


def trunc_geom_mean(p: float, hi: int) -> float:
    ks = np.arange(1, hi + 1, dtype=float)
    w = p * (1.0 - p) ** (ks - 1)
    return float((ks * w).sum() / w.sum())


def random_topology(rng: np.random.Generator, max_nodes: int = 6) -> NetworkTopology:
    """Small connected directed graph: a random spanning cycle plus extras."""
    n = int(rng.integers(3, max_nodes + 1))
    order = [int(v) for v in rng.permutation(n)]
    pairs = set()
    for k in range(n):
        pairs.add((order[k], order[(k + 1) % n]))
    extras = int(rng.integers(0, n + 1))
    for _ in range(extras):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((int(a), int(b)))
    links = tuple(
        Link(a, b, float(rng.uniform(5.0, 20.0)), float(rng.integers(1, 4)))
        for a, b in sorted(pairs)
    )
    n_edge = int(rng.integers(2, n + 1))
    edge_nodes = frozenset(int(v) for v in rng.choice(n, size=n_edge, replace=False))
    return NetworkTopology(node_count=n, links=links, edge_nodes=edge_nodes)


def random_rerouting_instance(rng: np.random.Generator, max_flows: int = 5,
                              max_lsps: int = 4):
    """Instance over a small random topology; endpoints are shared by all
    LSPs and flows so every flow has candidates. Returns the solver inputs."""
    topo = random_topology(rng)
    nodes = sorted(topo.edge_nodes)
    src = nodes[0]
    dst = nodes[-1] if nodes[-1] != src else nodes[0]
    paths = all_simple_paths(topo, src, dst)
    while not paths or src == dst:
        topo = random_topology(rng)
        nodes = sorted(topo.edge_nodes)
        src, dst = nodes[0], nodes[-1]
        paths = all_simple_paths(topo, src, dst) if src != dst else []
    n_l = int(rng.integers(1, max_lsps + 1))
    lsps = tuple(
        build_lsp(topo, paths[int(rng.integers(len(paths)))],
                  float(rng.uniform(2.0, 12.0)), i)
        for i in range(n_l)
    )
    n_f = int(rng.integers(1, max_flows + 1))
    max_pd = max(l.prop_delay for l in lsps)
    flows = tuple(
        Flow(i, src, dst, float(rng.uniform(0.5, 6.0)),
             float(rng.uniform(0.8, 1.5)) * max_pd)
        for i in range(n_f)
    )
    fr_old = {f.id: int(rng.integers(n_l)) for f in flows}
    mode = "unreserved" if rng.uniform() < 0.4 else "reserved"
    return topo, flows, lsps, fr_old, mode, tuple(l.links for l in lsps)


def random_multipair_rerouting_instance(rng: np.random.Generator, max_flows: int = 2,
                                        max_lsps: int = 2):
    """Instance with 2-3 endpoint pairs over a small random topology, each
    pair with 1..max_lsps LSPs and 1..max_flows flows. Flow and LSP ids are
    shuffled across the pairs, and every flow starts on an LSP of its pair.
    Returns the solver inputs."""
    while True:
        topo = random_topology(rng)
        pairs = [(a, b) for a in range(topo.node_count) for b in range(topo.node_count)
                 if a != b and all_simple_paths(topo, a, b)]
        if len(pairs) >= 2:
            break
    picks = rng.choice(len(pairs), size=min(len(pairs), int(rng.integers(2, 4))), replace=False)
    lsp_specs, flow_specs = [], []
    for src, dst in (pairs[int(k)] for k in picks):
        paths = all_simple_paths(topo, src, dst)
        specs = [(paths[int(rng.integers(len(paths)))], float(rng.uniform(4.0, 12.0)))
                 for _ in range(int(rng.integers(1, max_lsps + 1)))]
        max_pd = max(sum(topo.by_pair[p].delay for p in links_of_path(nodes))
                     for nodes, _ in specs)
        lsp_specs += specs
        flow_specs += [(src, dst, float(rng.uniform(0.5, 6.0)),
                        float(rng.uniform(1.0, 1.5)) * max_pd)
                       for _ in range(int(rng.integers(1, max_flows + 1)))]
    lsp_ids = [int(i) for i in rng.permutation(len(lsp_specs))]
    lsps = tuple(sorted((build_lsp(topo, nodes, cap, i)
                         for i, (nodes, cap) in zip(lsp_ids, lsp_specs)), key=lambda l: l.id))
    flow_ids = [int(i) for i in rng.permutation(len(flow_specs))]
    flows = tuple(sorted((Flow(i, *spec) for i, spec in zip(flow_ids, flow_specs)),
                         key=lambda f: f.id))
    fr_old = {}
    for f in flows:
        own = [l.id for l in lsps if (l.src, l.dst) == (f.src, f.dst)]
        fr_old[f.id] = own[int(rng.integers(len(own)))]
    return topo, flows, lsps, fr_old, tuple(l.links for l in lsps)


def random_recreation_instance(rng: np.random.Generator, max_requests: int = 3):
    topo = random_topology(rng)
    nodes = list(range(topo.node_count))
    n_r = int(rng.integers(1, max_requests + 1))
    requests = []
    old_routes = []
    tries = 0
    while len(requests) < n_r and tries < 200:
        tries += 1
        a, b = rng.choice(nodes, size=2, replace=False)
        paths = all_simple_paths(topo, int(a), int(b))
        if not paths:
            continue
        budget = float(rng.uniform(1.0, 12.0)) if rng.uniform() < 0.7 else math.inf
        requests.append(LspRequest(int(a), int(b), float(rng.uniform(1.0, 8.0)), budget))
        old_routes.append(links_of_path(paths[int(rng.integers(len(paths)))]))
    if not requests:
        return random_recreation_instance(rng, max_requests)
    lr_old = tuple(old_routes)
    mu = float(rng.uniform(0.5, 1.0))
    return topo, tuple(requests), lr_old, mu


def rerouting_dump(problem, solution=None) -> str:
    """A re-routing instance (and its solution) as `--dump-lp` writes it,
    built as a document and encoded by json itself."""
    doc = {
        "type": "flow_rerouting",
        "mode": problem.mode.value,
        "mu": problem.mu,
        "node_budget": problem.node_budget,
        "flows": [
            {"id": f.id, "src": f.src, "dst": f.dst, "rate": f.rate, "max_delay": f.max_delay}
            for f in sorted(problem.flows, key=lambda f: f.id)
        ],
        "lsps": [
            {
                "id": l.id, "src": l.src, "dst": l.dst, "capacity": l.capacity,
                "prop_delay": l.prop_delay, "links": [list(p) for p in l.links],
            }
            for l in sorted(problem.lsps, key=lambda l: l.id)
        ],
        "old_assignment": {str(fid): lid for fid, lid in problem.fr_old.items()},
    }
    if solution is not None:
        doc["solution"] = {
            "assignment": {str(fid): lid for fid, lid in solution.assignment.items()},
            "changes": solution.changes,
            "optimal": solution.optimal,
            "nodes_explored": solution.nodes_explored,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def recreation_dump(problem, solution=None) -> str:
    """A re-creation instance (and its solution) as `--dump-lp` writes it,
    built as a document and encoded by json itself."""
    doc = {
        "type": "lsp_recreation",
        "mu": problem.mu,
        "path_limit": problem.path_limit,
        "node_budget": problem.node_budget,
        "requests": [
            {
                "id": i, "src": r.src, "dst": r.dst, "capacity": r.capacity,
                "delay_budget": None if r.delay_budget == math.inf else r.delay_budget,
            }
            for i, r in enumerate(problem.requests)
        ],
        "old_routing": [[list(p) for p in links] for links in problem.lr_old or ()],
    }
    if solution is not None:
        doc["solution"] = {
            "routing": [[list(p) for p in links] for links in solution.routing],
            "changed_entries": solution.changed_entries,
            "optimal": solution.optimal,
            "nodes_explored": solution.nodes_explored,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reference_growth(flows, growth_max, seed) -> list[float]:
    """Each flow's rate grown by its own scalar draw, in flow order: rate * (1 + u)."""
    rng = np.random.default_rng(seed)
    return [f.rate * (1.0 + float(rng.uniform(0.0, growth_max))) for f in flows]


def reference_offered_loads(flows, paths):
    """Sum of flow rates crossing each directed link."""
    loads = {}
    for f in flows:
        for pair in paths[f.id]:
            loads[pair] = loads.get(pair, 0.0) + f.rate
    return loads


def reference_delivered(flows, paths, topo, loads):
    """Each flow's rate times its worst link's bandwidth / load, or 1 where
    the link is not overloaded; a link the topology lacks is a KeyError."""
    factor = {}
    for pair, load in loads.items():
        ln = topo.by_pair.get(pair)
        if ln is None:
            raise KeyError(f"path uses nonexistent link {pair}")
        factor[pair] = 1.0 if load <= ln.bandwidth else ln.bandwidth / load
    out = {}
    for f in flows:
        share = min((factor[pair] for pair in paths[f.id]), default=1.0)
        out[f.id] = f.rate * share
    return out


def sum_left(values):
    """Float sum in a plain loop, left to right, the same on every Python version
    (the builtin `sum` compensates from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_sample(slot, flows, paths, topo) -> MetricsSample:
    """One slot's metrics, summed link by link and flow by flow as the
    simulator summed them before it reused the trigger check's loads."""
    loads = reference_offered_loads(flows, paths)
    delivered = reference_delivered(flows, paths, topo, loads)
    throughput = sum_left(delivered.values())
    offered = sum_left(f.rate for f in flows)
    utils = [min(1.0, loads.get((ln.src, ln.dst), 0.0) / ln.bandwidth) for ln in topo.links]
    avg_util = sum_left(utils) / len(utils) if utils else 0.0
    avg_len = (sum(len(paths[f.id]) for f in flows) / len(flows)) if flows else 0.0
    return MetricsSample(slot=slot, throughput=throughput, avg_link_utilization=avg_util,
                         avg_path_length=avg_len, packet_loss=offered - throughput)


def random_simple_path(rng: np.random.Generator, topo) -> tuple[int, ...]:
    """A random walk from a random node that never revisits a node and stops
    after a random number of hops (possibly none) or when it is stuck."""
    nodes = [int(rng.integers(topo.node_count))]
    for _ in range(int(rng.integers(0, topo.node_count))):
        options = [ln.dst for ln in topo.out_links(nodes[-1]) if ln.dst not in nodes]
        if not options:
            break
        nodes.append(options[int(rng.integers(len(options)))])
    return tuple(nodes)


def random_sample_instance(rng: np.random.Generator, topo, max_flows: int = 12):
    """(flows, paths) on random simple paths, with ids in shuffled order.
    Rates are scaled against the mean bandwidth so links come out idle,
    loaded or overloaded; rates in tens make loads hit a bandwidth of 100 exactly."""
    n = int(rng.integers(0, max_flows + 1))
    scale = float(rng.choice([0.05, 0.3, 1.0])) * topo.mean_bandwidth
    integral = bool(rng.integers(2))
    flows, paths = [], {}
    for fid in (int(v) for v in rng.permutation(n)):
        nodes = random_simple_path(rng, topo)
        rate = float(10 * rng.integers(1, 6)) if integral else float(rng.uniform(0.0, scale))
        flows.append(Flow(fid, nodes[0], nodes[-1], rate, 10.0))
        paths[fid] = links_of_path(nodes)
    return tuple(flows), paths


def reference_auto_plan(topo, paths_per_pair, mu_headroom):
    """The auto LSP plan as it was first written: every path's links looked
    up again at each step and every LSP built and checked by `build_lsp`."""
    planned = []
    for src in sorted(topo.edge_nodes):
        for dst in sorted(topo.edge_nodes):
            if src == dst:
                continue
            paths = enumerate_simple_paths(topo, src, dst, limit=paths_per_pair)
            if not paths:
                raise ConfigError(f"edge pair ({src},{dst}) has no route")
            for nodes in paths:
                bottleneck = min(topo.by_pair[a, b].bandwidth
                                 for a, b in links_of_path(nodes))
                planned.append((nodes, bottleneck / len(paths)))
    link_sum = {}
    for nodes, raw in planned:
        for pair in links_of_path(nodes):
            link_sum[pair] = link_sum.get(pair, 0.0) + raw
    lsps = []
    for lsp_id, (nodes, raw) in enumerate(planned):
        factor = 1.0
        for pair in links_of_path(nodes):
            budget = mu_headroom * topo.by_pair[pair].bandwidth
            if link_sum[pair] > budget:
                factor = min(factor, budget / link_sum[pair])
        lsps.append(build_lsp(topo, nodes, raw * factor, lsp_id))
    return lsps


def find_proper_lsps(flow, lsps, free):
    """Admissible LSPs for the flow (endpoints and delay bound), scanned from
    every LSP and sorted by free capacity descending, then by id."""
    proper = [
        l for l in lsps
        if l.src == flow.src and l.dst == flow.dst and l.prop_delay <= flow.max_delay
    ]
    proper.sort(key=lambda l: (-free[l.id], l.id))
    return proper


def check_congestion(lsp, flow, topo, load, mu, free):
    """True when the flow fits after widening the LSP with the headroom left
    on its most loaded link; `load` is the offered rate per directed link."""
    residual = min(mu * topo.by_pair[pair].bandwidth - load.get(pair, 0.0) for pair in lsp.links)
    return free + residual >= flow.rate


def full_scan_ffr(flows, lsps, fr_old, topo, mu=0.9):
    """`ffr` as it was before the LSPs were grouped by endpoint pair: every
    flow's candidates come from a scan of every LSP."""
    by_id = {l.id: l for l in lsps}
    free = {l.id: l.capacity for l in lsps}
    link_load = {}
    assignment, augmentations, requests = {}, {}, []
    exams = 0

    def occupy(lsp, rate):
        free[lsp.id] -= rate
        for pair in lsp.links:
            link_load[pair] = link_load.get(pair, 0.0) + rate

    for f in sorted(flows, key=lambda f: (-f.rate, f.id)):
        exams += len(lsps)
        proper = find_proper_lsps(f, lsps, free)
        old_id = fr_old[f.id]
        proper.sort(key=lambda l: l.id != old_id)
        chosen = None
        for l in proper:
            exams += 1
            if free[l.id] >= f.rate:
                chosen = l
                break
        if chosen is None:
            for l in proper:
                exams += 1 + len(l.links)
                if check_congestion(l, f, topo, link_load, mu, free[l.id]):
                    grant = f.rate - free[l.id]
                    free[l.id] += grant
                    augmentations[l.id] = augmentations.get(l.id, 0.0) + grant
                    chosen = l
                    break
        if chosen is not None:
            occupy(chosen, f.rate)
            assignment[f.id] = chosen.id
        else:
            requests.append(f.id)
            assignment[f.id] = old_id
            occupy(by_id[old_id], f.rate)
    return FfrResult(assignment, tuple(sorted(requests)), augmentations, exams)


def full_scan_initial_assignment(flows, lsps):
    """`initial_assignment` with every flow's candidates scanned from every
    LSP; returns the assignment, or the ConfigError's message."""
    free = {l.id: l.capacity for l in lsps}
    assignment = {}
    for f in sorted(flows, key=lambda f: (-f.rate, f.id)):
        proper = find_proper_lsps(f, lsps, free)
        if not proper:
            return (f"flow {f.id} ({f.src}->{f.dst}, delay bound {f.max_delay:.3g}) "
                    "matches no planned LSP")
        assignment[f.id] = proper[0].id
        free[proper[0].id] -= f.rate
    return assignment


def full_scan_rerouting(problem, solve=None):
    """`solve_flow_rerouting` on a valid instance, with each pair's capacity and each
    flow's candidates found by scanning every LSP's endpoints and delay bound, as
    before the LSP plan. The searches run on `solve`, a part loop with the
    signature of `rerouting._solve`, which it defaults to."""
    solve = solve or rerouting._solve
    lsps = sorted(problem.lsps, key=lambda l: l.id)
    unreserved = problem.mode == rerouting.RoutingMode.UNRESERVED
    capacity = {l.id: l.capacity for l in lsps}
    resources = {l.id: (l.id,) for l in lsps}
    if unreserved:
        for ln in problem.topology.links:
            capacity[(ln.src, ln.dst)] = problem.mu * ln.bandwidth
        resources = {l.id: (l.id, *l.links) for l in lsps}
    search = Search(limits(capacity), problem.node_budget)
    rate = {f.id: f.rate for f in problem.flows}
    pairs = sorted({(f.src, f.dst) for f in problem.flows})
    parts = [[f.id for f in problem.flows if (f.src, f.dst) == pair] for pair in pairs]
    for (src, dst), part in zip(pairs, parts):
        room = sum(max(search.limit[l.id], 0.0) for l in lsps if (l.src, l.dst) == (src, dst))
        if sum(rate[fid] for fid in part) > room * (1 + 1e-12):
            raise Infeasible(f"flows {src}->{dst} exceed the capacity of their LSPs",
                             proven=True)
    admissible = {}
    for f in problem.flows:
        admissible[f.id] = [l for l in lsps
                            if (l.src, l.dst) == (f.src, f.dst) and l.prop_delay <= f.max_delay]
        if not admissible[f.id]:
            raise Infeasible(f"flow {f.id} has no admissible LSP", proven=True)
    tables = rate, problem.fr_old, admissible, resources
    assignment, changes, optimal = solve(search, parts, *tables)
    if unreserved and len(parts) > 1 and not fits_together(assignment, rate, resources,
                                                           search.limit):
        assignment, changes, optimal = solve(search, [[f.id for f in problem.flows]], *tables)
    return rerouting.ReroutingSolution(dict(sorted(assignment.items())), changes, optimal,
                                       search.nodes)


def fits_together(assignment, rate, resources, limit) -> bool:
    """Whether every flow fits on its LSP's resources with all others placed: each
    resource's load, summed in assignment order, stays within its `limit`."""
    load = {}
    for fid, lid in assignment.items():
        for r in resources[lid]:
            load[r] = load.get(r, 0.0) + rate[fid]
            if load[r] > limit[r]:
                return False
    return True


def kernel_parts(search, parts, rate, old, admissible, resources, spent=None):
    """`rerouting._solve` with no shortcut: the kernel searches every part, even one
    whose flows all stay on their old LSPs. When `spent` is a list, each searched
    part appends (its size, the nodes it took, its cost or None)."""
    found = {}
    changes = 0
    optimal = True
    for part in parts:
        options = {fid: [(int(l.id != old[fid]), resources[l.id], l.id) for l in admissible[fid]]
                   for fid in part}
        start = search.nodes
        best, cost, finished = search.run(sorted(part), rate, options)
        if best is None:
            if not finished:
                raise Infeasible("node budget exhausted before any assignment was found",
                                 proven=False)
            if spent is not None:
                spent.append((len(part), search.nodes - start, None))
            raise Infeasible("no assignment satisfies capacity and delay", proven=True)
        if spent is not None:
            spent.append((len(part), search.nodes - start, cost))
        found.update(best)
        changes += int(cost)
        optimal = optimal and finished
    return found, changes, optimal


def shuffled_plan_instance(rng: np.random.Generator, topo, paths_per_pair: int = 2):
    """An auto LSP plan on `topo` with flows generated over it, placed by
    `full_scan_initial_assignment`. The LSP ids are then shuffled and the plan
    listed in random order, so endpoint pairs interleave in both, and each
    flow's rate is scaled by a factor from 1 to 3, so that some flows must
    move, widen an LSP or park. Returns (flows, lsps, fr_old)."""
    cfg = TrafficConfig(demand_fraction=0.08, flow_intensity=0.6, max_flows_per_source=10,
                        growth_max=0.1, intensity_scale=3.0)
    flows = generate_flows(topo, cfg, int(rng.integers(1 << 30)))
    plan = build_auto_lsp_plan(topo, paths_per_pair, 0.9)
    fr_old = full_scan_initial_assignment(flows, plan)
    new_id = [int(v) for v in rng.permutation(len(plan))]
    lsps = tuple(dataclasses.replace(plan[int(i)], id=new_id[int(i)])
                 for i in rng.permutation(len(plan)))
    flows = tuple(f._replace(rate=f.rate * float(rng.uniform(1.0, 3.0))) for f in flows)
    return flows, lsps, {fid: new_id[lid] for fid, lid in fr_old.items()}


def reference_run(cfg):
    """`run_scenario` as a plain slot loop, without a shared set-up, a growth block, a
    link index or a reused re-creation answer: each slot's flows grown by
    `reference_growth`, loads and samples summed by `reference_sample`'s helpers, the
    full-scan placement and `ffr`, and the real solvers, called afresh every round.
    Writes no dumps.
    Returns (samples, events)."""
    topo = load_topology_file(cfg.topology_path)
    flows = generate_flows(topo, cfg.traffic, cfg.seed)
    events = []

    def log(t, kind, **fields):
        events.append(" ".join([f"slot={t}", f"event={kind}", f"scheme={cfg.scheme}",
                                *(f"{k}={v}" for k, v in fields.items())]))

    log(0, "init", seed=cfg.seed, flows=len(flows))
    if cfg.scheme == "shortest_path":
        fixed = {f.id: links_of_path(min_hop_route(topo, f.src, f.dst)) for f in flows}
        samples = [reference_sample(0, flows, fixed, topo)]
        for t in range(1, cfg.slots):
            rates = reference_growth(flows, cfg.traffic.growth_max, (cfg.seed, t))
            flows = tuple(f._replace(rate=rate) for f, rate in zip(flows, rates))
            samples.append(reference_sample(t, flows, fixed, topo))
        return samples, events

    if cfg.lsp_plan.kind == "auto":
        lsps = reference_auto_plan(topo, cfg.lsp_plan.paths_per_pair, cfg.mu_headroom)
    else:
        lsps = load_lsp_plan_file(cfg.lsp_plan.path, topo)
    assignment = full_scan_initial_assignment(flows, lsps)
    if isinstance(assignment, str):
        raise ConfigError(assignment)
    log(0, "plan", lsps=len(lsps))

    def paths():
        by_id = {l.id: l for l in lsps}
        return {f.id: by_id[assignment[f.id]].links for f in flows}

    def flow_level(t, tag):
        """One round; True when it asks for re-creation."""
        nonlocal assignment
        if cfg.scheme == "ffr":
            res = full_scan_ffr(flows, lsps, assignment, topo, mu=cfg.mu_headroom)
            log(t, tag, changes=sum(assignment[fid] != lid for fid, lid in res.assignment.items()),
                parked=len(res.recreation_requests), examinations=res.examinations)
            assignment = res.assignment
            return bool(res.recreation_requests)
        try:
            sol = rerouting.solve_flow_rerouting(rerouting.ReroutingProblem(
                flows=flows, lsps=tuple(lsps), fr_old=assignment, mode=cfg.rerouting_mode,
                mu=cfg.mu_headroom, topology=topo))
        except Infeasible as exc:
            log(t, tag + "_infeasible", proven=exc.proven)
            return True
        log(t, tag, changes=sol.changes, optimal=sol.optimal)
        assignment = sol.assignment
        return False

    def recreation(t):
        """One re-creation round; True when it moved a route."""
        nonlocal lsps
        budgets = {l.id: math.inf for l in lsps}
        for f in flows:
            budgets[assignment[f.id]] = min(budgets[assignment[f.id]], f.max_delay)
        problem = RecreationProblem(
            requests=tuple(LspRequest(l.src, l.dst, l.capacity, budgets[l.id]) for l in lsps),
            topology=topo, lr_old=tuple(l.links for l in lsps), mu=cfg.mu_headroom)
        try:
            sol = solve_lsp_recreation(problem)
        except Infeasible as exc:
            log(t, "recreate_infeasible", proven=exc.proven)
            return False
        log(t, "recreate", changed_entries=sol.changed_entries, optimal=sol.optimal)
        if sol.routing == problem.lr_old:
            return False
        lsps = [build_lsp(topo, (l.src, *(b for _, b in links)), l.capacity, l.id)
                for l, links in zip(lsps, sol.routing)]
        return True

    samples = [reference_sample(0, flows, paths(), topo)]
    for t in range(1, cfg.slots):
        rates = reference_growth(flows, cfg.traffic.growth_max, (cfg.seed, t))
        flows = tuple(f._replace(rate=rate) for f, rate in zip(flows, rates))
        utils = [load / topo.by_pair[pair].bandwidth
                 for pair, load in reference_offered_loads(flows, paths()).items()]
        max_util = max(utils, default=0.0)
        periodic = t % cfg.rerouting_interval == 0
        trigger = max_util > cfg.mu_trigger or periodic
        log(t, "check", max_util=f"{max_util:.6f}", periodic=periodic, trigger=trigger)
        if trigger and flow_level(t, "reroute") and recreation(t):
            flow_level(t, "reroute_retry")
        samples.append(reference_sample(t, flows, paths(), topo))
    return samples, events
