"""Depth-first branch and bound shared by the exact solvers.

Each item takes exactly one of its options. An option is a tuple
`(step, resources, value)`: the change it costs, the capacitated resources it
loads with the item's demand, and what the solver records when the item takes
it. Options are listed in the order they are branched on, and the sum of the
cheapest steps of the items still open is a lower bound on what they add
(Land & Doig, Econometrica 28(3), 1960).
"""

from __future__ import annotations

import math


class _Stop(Exception):
    """Unwinds `Search.run`'s recursion once the node budget is spent."""


def limits(capacity: dict) -> dict:
    """Each resource's capacity plus the absolute slack under which a load
    still counts as within it: the load it takes."""
    return {r: cap + 1e-9 * max(1.0, abs(cap)) for r, cap in capacity.items()}


class Search:
    """Each resource's limit (`limits(capacity)`) and one node counter shared by
    every `keep` and `run`.

    Resources are keyed by LSP id or by (src, dst) link pair."""

    def __init__(self, limit: dict, node_budget: int):
        self.limit = limit
        self.nodes = 0
        self.budget = node_budget

    def fits_all(self, items) -> bool:
        """Whether `(resources, demand)` items, placed one after another from empty
        loads, each fit beside those placed before it. An item lists each resource
        once, so its resources are checked and loaded in one loop."""
        limit = self.limit
        load = dict.fromkeys(limit, 0.0)
        for resources, demand in items:
            for r in resources:
                total = load[r] + demand
                if total > limit[r]:
                    return False
                load[r] = total
        return True

    def keep(self, items, parts: int) -> bool:
        """Whether the cost-0 answer placing the list of `(resources, demand)` `items`,
        split into `parts` parts each searched by its own `run`, can be kept without
        search: the items fit together (so each part fits alone if no demand is below 0)
        and the budget covers the len(items) + parts nodes of the runs' first descents
        along them, which are then counted. No leaf costs less, so `run` would keep it."""
        if self.nodes + len(items) + parts > self.budget or not self.fits_all(items):
            return False
        self.nodes += len(items) + parts
        return True

    def run(self, order, demand, options) -> tuple[dict | None, float, bool]:
        """Find the cheapest assignment of the items of `order`, branched in
        that order, from empty loads. Only a strictly cheaper leaf replaces
        the incumbent, so of the cheapest assignments the first in branching
        order is kept.

        Returns (assignment, cost, finished): the assignment (item -> option
        value) and its cost, or None and infinity when none was found.
        `finished` is False exactly when the node budget stopped the search;
        the assignment is then the incumbent."""
        n = len(order)
        bound = [0] * (n + 1)
        for k in range(n - 1, -1, -1):
            bound[k] = bound[k + 1] + min(o[0] for o in options[order[k]])
        chosen: dict = {}
        limit = self.limit
        load = dict.fromkeys(limit, 0.0)
        best, best_cost = None, math.inf

        def dfs(k: int, cost: int):
            nonlocal best, best_cost
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Stop
            # Every node is entered with cost + bound[k] < best_cost (the root
            # as best_cost starts infinite, children by the option check), so
            # it needs no bound check of its own.
            if k == n:
                best, best_cost = dict(chosen), cost
                return
            item = order[k]
            need = demand[item]
            for step, resources, value in options[item]:
                if cost + step + bound[k + 1] >= best_cost:
                    continue
                for r in resources:
                    if load[r] + need > limit[r]:
                        break
                else:
                    for r in resources:
                        load[r] += need
                    chosen[item] = value
                    dfs(k + 1, cost + step)
                    del chosen[item]
                    for r in resources:
                        load[r] -= need

        try:
            dfs(0, 0)
        except _Stop:
            return best, best_cost, False
        return best, best_cost, True
