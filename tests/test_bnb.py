import itertools
import math
from collections import Counter

import numpy as np

from hybridte.bnb import Search, limits

import oracles


def random_items(rng):
    """Items in a random branching order, each with 1-4 options in shuffled
    step order over 1-3 capacitated resources."""
    n = int(rng.integers(1, 6))
    resources = list(range(int(rng.integers(1, 4))))
    capacity = {r: float(rng.uniform(2.0, 10.0)) for r in resources}
    demand = {i: float(rng.uniform(0.5, 5.0)) for i in range(n)}
    options = {}
    for i in range(n):
        opts = []
        for j in range(int(rng.integers(1, 5))):
            used = tuple(r for r in resources if rng.uniform() < 0.5)
            opts.append((int(rng.integers(0, 4)), used, (i, j)))
        options[i] = [opts[int(k)] for k in rng.permutation(len(opts))]
    order = [int(i) for i in rng.permutation(n)]
    return capacity, order, demand, options


def brute_force(capacity, order, demand, options):
    """Every assignment that fits, as (cost, item -> value), in the order a
    depth-first search over `order` and each item's option list meets them."""
    found = []
    for combo in itertools.product(*(options[i] for i in order)):
        load = dict.fromkeys(capacity, 0.0)
        for item, (_, used, _) in zip(order, combo):
            for r in used:
                load[r] += demand[item]
        if all(oracles.within(load[r], capacity[r]) for r in capacity):
            found.append((sum(step for step, _, _ in combo),
                          {item: value for item, (_, _, value) in zip(order, combo)}))
    return found


def test_run_finds_the_cheapest_assignment():
    rng = np.random.default_rng(5)
    solved = 0
    for _ in range(500):
        capacity, order, demand, options = random_items(rng)
        found = brute_force(capacity, order, demand, options)
        best, best_cost, finished = Search(limits(capacity), 10_000).run(order, demand, options)
        assert finished
        if not found:
            assert best is None and best_cost == math.inf
            continue
        cost = min(c for c, _ in found)
        assert best_cost == cost
        # Only a strictly cheaper leaf replaces the incumbent, so of the
        # optima the first one met in branching order is kept.
        assert best == next(a for c, a in found if c == cost)
        solved += 1
    assert solved > 200


def test_budget_runs_out_one_node_past_the_budget():
    # Below the full run's node count, a run stops unfinished with its incumbent: None,
    # or a fitting assignment at exactly its cost, no cheaper than the optimum.
    rng = np.random.default_rng(11)
    checked = Counter()
    for _ in range(100):
        capacity, order, demand, options = random_items(rng)
        found = brute_force(capacity, order, demand, options)
        full = Search(limits(capacity), 10_000)
        expect = full.run(order, demand, options)
        assert expect[2] and expect[1] == min((c for c, _ in found), default=math.inf)
        for budget in range(full.nodes):
            search = Search(limits(capacity), budget)
            best, cost, finished = search.run(order, demand, options)
            assert not finished and search.nodes == budget + 1
            if best is None:
                assert cost == math.inf
            else:
                assert (cost, best) in found and cost >= expect[1]
            checked[best is None] += 1
            # The loads placed when the budget ran out do not carry over.
            search.budget = search.nodes + full.nodes
            assert search.run(order, demand, options) == expect
        search = Search(limits(capacity), full.nodes)
        assert search.run(order, demand, options) == expect
        assert search.nodes == full.nodes
    assert min(checked.values()) > 100, checked


def test_a_search_stopped_mid_descent_answers_as_a_fresh_one():
    # A run stopped by its budget was holding the loads of the items placed above
    # the node it stopped at. The next fits_all, keep and run start from empty loads.
    rng = np.random.default_rng(29)
    seen = Counter()
    for _ in range(400):
        capacity, order, demand, options = random_items(rng)
        items = [(options[i][int(rng.integers(len(options[i])))][1], demand[i]) for i in order]
        full = Search(limits(capacity), 10_000)
        full.run(order, demand, options)
        if full.nodes < 2:
            continue
        stopped = Search(limits(capacity), int(rng.integers(1, full.nodes)))
        assert stopped.run(order, demand, options)[2] is False
        spent = stopped.nodes
        stopped.budget = spent + 10_000
        fresh = Search(limits(capacity), 10_000)
        expect = fresh.fits_all(items)
        assert stopped.fits_all(items) is expect
        assert stopped.keep(items, 1) is fresh.keep(items, 1) is expect
        assert stopped.run(order, demand, options) == fresh.run(order, demand, options)
        assert stopped.nodes - spent == fresh.nodes
        seen[expect] += 1
    assert min(seen[True], seen[False]) >= 50, seen


def test_fits_all_agrees_with_the_reference():
    # Random item lists over 1-4 resources, each item loading each resource once.
    # In most, one resource's capacity is set so that its final load lands just
    # inside, at or just outside the 1e-9 tolerance above it.
    rng = np.random.default_rng(23)
    seen = Counter()
    for k in range(3000):
        resources = range(int(rng.integers(1, 5)))
        items = [(tuple(r for r in resources if rng.uniform() < 0.6), float(rng.uniform(0.1, 4.0)))
                 for _ in range(int(rng.integers(0, 7)))]
        capacity = {r: float(rng.uniform(1.0, 12.0)) for r in resources}
        load = dict.fromkeys(resources, 0.0)
        for used, demand in items:
            for r in used:
                load[r] += demand
        r = max(resources, key=load.get)
        if k % 4 and load[r] > 0:
            slack = (0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0)[k % 5]
            capacity[r] = load[r] / (1 + slack * 1e-9)
            if capacity[r] < 1.0:  # the tolerance is absolute below 1
                capacity[r] = load[r] - slack * 1e-9
        search = Search(limits(capacity), 1)
        assignment = dict(enumerate(range(len(items))))
        expect = oracles.fits_together(assignment, {i: d for i, (_, d) in enumerate(items)},
                                       {i: used for i, (used, _) in enumerate(items)},
                                       search.limit)
        assert search.fits_all(items) is expect, k
        assert search.fits_all(items) is expect, k  # each call starts from empty loads
        seen[expect, 0 < load[r] - capacity[r] <= 2e-9 * max(1.0, capacity[r])] += 1
    assert len(seen) == 4 and min(seen.values()) >= 100, seen
