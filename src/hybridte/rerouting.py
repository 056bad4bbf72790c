"""Exact minimum-change re-assignment of flows to LSPs.

Given the current assignment, find a new one that satisfies per-LSP capacity,
per-flow delay bounds and endpoint matching (plus per-link headroom in
unreserved mode) while moving as few flows as possible. Ties between optimal
assignments are broken toward the lexicographically smallest LSP-id vector in
flow-id order, so equal inputs always produce the identical solution. One
kernel run finds both: it branches flows in id order and each flow's LSPs in id
order, and only a strictly cheaper leaf replaces its incumbent, so the first
optimum it meets, the one it keeps, is that smallest vector.

Every LSP serves one (src, dst) pair, so each pair's flows are searched on their
own, in sorted pair order, on one node counter. A pair whose flows all still fit
on their old LSPs keeps them without search, in the len(part) + 1 nodes of the
kernel's descent along them, when the budget covers those: no pair costs less
than 0, and only keeping every flow costs 0. In reserved mode the pairs share
nothing, so their optima together are the optimum and its lexicographic minimum.
In unreserved mode they share links: each pair is solved against the full link
headroom, a relaxation (Geoffrion, Math. Programming Study 2, 1974) whose answers
are optimal and lexicographically smallest whenever they fit the links together.
When they do not, all flows are searched jointly. Before any of this, flows that
all fit together on their admissible old LSPs stay there after one fit check: each
part then fits alone too, so each would be kept, and the same nodes are counted. The
pairs' LSPs, each flow's admissible ones, the search's capacity tables and each
pair's room are read from the run's plan (`lsp.LspPlan`), built once per plan (the
tables once per headroom and mode); the flows' ids per pair, and whether they are
unique, from the run's flow population (`traffic.FlowPopulation`), once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bnb import Search
from .errors import Infeasible, ValidationError, check_count
from .lsp import LspPlan
from .topology import NetworkTopology
from .traffic import FlowPopulation


class RoutingMode(str, Enum):
    RESERVED = "reserved"
    UNRESERVED = "unreserved"


@dataclass(frozen=True)
class ReroutingProblem:
    flows: tuple
    lsps: tuple
    fr_old: dict[int, int]
    mode: RoutingMode = RoutingMode.RESERVED
    mu: float = 0.9
    topology: NetworkTopology | None = None
    node_budget: int = 500_000

    @property
    def routing(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """The LSP routing: each LSP id mapped to its links."""
        return {l.id: l.links for l in self.lsps}


@dataclass(frozen=True, eq=False)
class ReroutingSolution:
    assignment: dict[int, int]
    changes: int
    optimal: bool
    nodes_explored: int


def solve_flow_rerouting(problem: ReroutingProblem) -> ReroutingSolution:
    """Solve one re-routing instance; raises Infeasible when no assignment exists.

    After the pre-checks, flows of rates at least 0 that all fit together on their
    admissible old LSPs stay there at 0 changes in one `Search.keep` of len(part) + 1
    nodes per pair, budget permitting. Otherwise a pair whose flows all still fit on their old LSPs keeps them
    in len(part) + 1 nodes, budget permitting; the others are searched, all on one node
    counter. When the pair answers overload a shared link in unreserved mode, the joint
    search starts with the nodes the pair searches already spent, so a budget that does
    not cover both gives an unproven incumbent or an unproven Infeasible."""
    unreserved = problem.mode == RoutingMode.UNRESERVED
    # First, as where the caller built the plan; links matter only in unreserved mode.
    plan = LspPlan(problem.lsps, problem.topology if unreserved else None)
    if not 0 < problem.mu <= 1:
        raise ValidationError("mu must lie in (0, 1]")
    check_count(problem.node_budget, "node_budget")
    flows = FlowPopulation(problem.flows)
    plan.check_flows(flows, problem.fr_old)
    if unreserved and problem.topology is None:
        raise ValidationError("unreserved mode needs a topology")
    rate = {f.id: f.rate for f in problem.flows}
    limit, resources, room = plan.search_tables(problem.mu, unreserved)
    search = Search(limit, problem.node_budget)
    groups, parts = flows.pairs
    for (src, dst), ids in groups:
        # A pair's flows that sum above its LSPs' limits overload one of them whatever
        # the assignment. The margin keeps rounding in both sums from rejecting an
        # instance the search solves.
        if sum(rate[fid] for fid in ids) > room.get((src, dst), 0.0) * (1 + 1e-12):
            raise Infeasible(f"flows {src}->{dst} exceed the capacity of their LSPs",
                             proven=True)
    old, by_id = problem.fr_old, plan.by_id
    # Every flow stays when its old LSP is still admissible (so none lacks one) and all
    # flows fit together in part order, each part in its len(part) + 1 nodes: adding
    # rates of at least 0 rounds monotonically, so each part then fits alone too.
    if (all(f.rate >= 0 and (l := by_id[old[f.id]]).src == f.src and l.dst == f.dst
            and l.prop_delay <= f.max_delay for f in problem.flows)
            and search.keep([(resources[old[fid]], rate[fid]) for part in parts for fid in part],
                            len(parts))):
        return ReroutingSolution({fid: old[fid] for fid in sorted(rate)}, 0, True, search.nodes)
    admissible = {f.id: plan.admissible(f.src, f.dst, f.max_delay) for f in problem.flows}
    for fid, lsps in admissible.items():
        if not lsps:
            raise Infeasible(f"flow {fid} has no admissible LSP", proven=True)
    tables = rate, old, admissible, resources
    assignment, changes, optimal = _solve(search, parts, *tables)
    if unreserved and len(parts) > 1 and not search.fits_all(
            [(resources[lid], rate[fid]) for fid, lid in assignment.items()]):
        # The pairs overload a shared link together: search all flows jointly.
        assignment, changes, optimal = _solve(search, [list(rate)], *tables)
    return ReroutingSolution(dict(sorted(assignment.items())), changes, optimal, search.nodes)


def _solve(search: Search, parts, rate, old, admissible, resources) -> tuple[dict, int, bool]:
    """Minimum-change assignment and tie-break of every part's flows, each searched on
    its own or kept (`Search.keep`) when its old LSPs admit its flows and, in id order,
    fit them. Returns (assignment, changes, optimal); raises Infeasible when a part has
    none or the budget runs out before each has one."""
    found: dict[int, int] = {}
    changes = 0
    optimal = True
    for part in map(sorted, parts):
        if (all(old[fid] in [l.id for l in admissible[fid]] for fid in part)
                and search.keep([(resources[old[fid]], rate[fid]) for fid in part], 1)):
            found.update((fid, old[fid]) for fid in part)
            continue
        options = {fid: [(int(l.id != old[fid]), resources[l.id], l.id) for l in admissible[fid]]
                   for fid in part}
        best, cost, finished = search.run(part, rate, options)
        if best is None:
            raise Infeasible("no assignment satisfies capacity and delay" if finished else
                             "node budget exhausted before any assignment was found",
                             proven=finished)
        # A stopped search keeps its incumbent; a later part finds the budget spent at
        # its first node and raises.
        found.update(best)
        changes += cost
        optimal = optimal and finished
    return found, changes, optimal

