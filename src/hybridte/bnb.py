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


class BudgetExhausted(Exception):
    """The search visited more nodes than its budget allows."""


def limits(capacity: dict) -> dict:
    """Each resource's capacity plus the absolute slack under which a load
    still counts as within it: the load it takes."""
    return {r: cap + 1e-9 * max(1.0, abs(cap)) for r, cap in capacity.items()}


class Search:
    """Each resource's limit (`limits(capacity)`), one node counter shared by every
    `run`, and the best assignment of the latest `run`.

    Resources are keyed by LSP id or by (src, dst) link pair."""

    def __init__(self, limit: dict, node_budget: int):
        self.limit = limit
        self.nodes = 0
        self.budget = node_budget
        self.best: dict | None = None
        self.best_cost = math.inf

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

    def keep(self, items) -> bool:
        """Whether the answer of cost 0 that places the list of `(resources, demand)`
        `items` can be kept without search: the items fit together and the budget
        covers the len(items) + 1 nodes of `run`'s first descent along them, which
        are then counted. No leaf costs less than 0, so `run` would keep it too."""
        if self.nodes + len(items) + 1 > self.budget or not self.fits_all(items):
            return False
        self.nodes += len(items) + 1
        return True

    def run(self, order, demand, options) -> dict | None:
        """Find the cheapest assignment of the items of `order`, branched in
        that order, from empty loads. Only a strictly cheaper leaf replaces
        the incumbent, so of the cheapest assignments the first in branching
        order is kept.

        Returns that assignment (item -> option value), or None.
        Raises BudgetExhausted once the node budget is spent; `best` and
        `best_cost` then hold the incumbent."""
        n = len(order)
        bound = [0] * (n + 1)
        for k in range(n - 1, -1, -1):
            bound[k] = bound[k + 1] + min(o[0] for o in options[order[k]])
        chosen: dict = {}
        limit = self.limit
        load = dict.fromkeys(limit, 0.0)
        self.best = None
        self.best_cost = math.inf

        def dfs(k: int, cost: int):
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExhausted
            # Every node is entered with cost + bound[k] < best_cost (the root
            # as best_cost starts infinite, children by the option check), so
            # it needs no bound check of its own.
            if k == n:
                self.best_cost = cost
                self.best = dict(chosen)
                return
            item = order[k]
            need = demand[item]
            for step, resources, value in options[item]:
                if cost + step + bound[k + 1] >= self.best_cost:
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

        dfs(0, 0)
        return self.best
