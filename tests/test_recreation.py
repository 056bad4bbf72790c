import dataclasses
import json
import math
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridte as ht
from hybridte import bnb, recreation
from hybridte.errors import Infeasible, ValidationError
from hybridte.recreation import _enumerate, recreation_to_json
from hybridte.topology import Link, NetworkTopology, links_of_path

import oracles


@pytest.fixture
def topo():
    return ht.reference_topology()


@pytest.fixture
def square():
    # 0 -> {1,2} -> 3 plus reverse, two disjoint two-hop routes
    doc = {"nodes": 4, "edge_nodes": [0, 3], "links": []}
    for a, b in ((0, 1), (1, 3), (0, 2), (2, 3)):
        doc["links"].append({"src": a, "dst": b, "bandwidth": 10.0, "delay": 1.0})
        doc["links"].append({"src": b, "dst": a, "bandwidth": 10.0, "delay": 1.0})
    return ht.load_topology(doc)


def test_enumeration_matches_recursive_oracle(topo):
    for src, dst in ((0, 1), (0, 2), (1, 3), (4, 7)):
        got = ht.enumerate_simple_paths(topo, src, dst)
        assert got == oracles.all_simple_paths(topo, src, dst)


def test_enumeration_order_is_delay_hops_lex(topo):
    paths = ht.enumerate_simple_paths(topo, 0, 2)
    keyed = [(sum(topo.link_lookup(a, b).delay for a, b in links_of_path(p)), len(p) - 1, p)
             for p in paths]
    assert keyed == sorted(keyed)
    assert paths[0] == (0, 4, 6, 2)
    assert paths[1] == (0, 5, 7, 2)


def test_enumeration_respects_delay_budget(topo):
    short = ht.enumerate_simple_paths(topo, 0, 2, delay_budget=3.0)
    assert short == [(0, 4, 6, 2), (0, 5, 7, 2)]
    assert ht.enumerate_simple_paths(topo, 0, 2, delay_budget=0.5) == []


def test_enumeration_limit_truncates_in_order(topo):
    full = ht.enumerate_simple_paths(topo, 0, 2)
    assert ht.enumerate_simple_paths(topo, 0, 2, limit=3) == full[:3]


def test_enumeration_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        t = oracles.random_topology(rng)
        src, dst = 0, t.node_count - 1
        budget = float(rng.uniform(1.0, 8.0))
        assert (ht.enumerate_simple_paths(t, src, dst, delay_budget=budget)
                == oracles.all_simple_paths(t, src, dst, budget))


def ring(edges, cores):
    """Cores edges..edges+cores-1 in a bidirectional ring, edge e in
    0..edges-1 attached to cores 2e and 2e+1 (mod cores); unit delays, so many
    paths tie on delay."""
    pairs = {(edges + c, edges + (c + 1) % cores) for c in range(cores)}
    for e in range(edges):
        pairs |= {(e, edges + (2 * e) % cores), (e, edges + (2 * e + 1) % cores)}
    links = [Link(a, b, 100.0, 1.0) for a, b in pairs]
    links += [Link(b, a, 100.0, 1.0) for a, b in pairs]
    return NetworkTopology(edges + cores, tuple(links), frozenset(range(edges)))


def ring14():
    return ring(6, 8)


RING_PAIRS = ((0, 3), (0, 1), (5, 2))
RING_BUDGETS = (2.0, 3.0, 4.0, 5.5, 8.0, 10.0)


def test_ring_enumeration_and_solver_match_oracle():
    topo = ring14()
    for src, dst in RING_PAIRS:
        for budget in RING_BUDGETS:
            expect = oracles.all_simple_paths(topo, src, dst, budget)
            assert ht.enumerate_simple_paths(topo, src, dst, budget, limit=10_000) == expect
            problem = ht.RecreationProblem(requests=(ht.LspRequest(src, dst, 1.0, budget),),
                                           topology=topo, path_limit=10_000)
            try:
                ht.solve_lsp_recreation(problem)
            except Infeasible as exc:
                assert not expect and exc.proven


def test_enumeration_matches_networkx_on_ring():
    topo = ring14()
    graph = nx.DiGraph()
    graph.add_weighted_edges_from(((l.src, l.dst, l.delay) for l in topo.links), weight="delay")
    for src, dst in RING_PAIRS:
        for budget in RING_BUDGETS:
            expect = set()
            for path in nx.shortest_simple_paths(graph, src, dst, weight="delay"):
                if nx.path_weight(graph, path, "delay") > budget:
                    break
                expect.add(tuple(path))
            got = ht.enumerate_simple_paths(topo, src, dst, budget, limit=10_000)
            assert len(got) == len(expect)
            assert set(got) == expect


DELAY_MIXES = {"unit": (1.0,), "unit and zero": (1.0, 1.0, 0.0), "tenths": (0.1, 0.2, 0.3)}


@st.composite
def tie_heavy_enumerations(draw):
    """A small random digraph whose delays tie often (or nearly, in sums of
    tenths), two distinct endpoints, a budget and a path limit."""
    n = draw(st.integers(3, 7))
    node = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(node, node).filter(lambda p: p[0] != p[1]), min_size=1))
    delays = DELAY_MIXES[draw(st.sampled_from(sorted(DELAY_MIXES)))]
    links = tuple(Link(a, b, 10.0, draw(st.sampled_from(delays))) for a, b in sorted(pairs))
    topo = NetworkTopology(n, links, frozenset({0}))
    src = draw(node)
    dst = draw(node.filter(lambda v: v != src))
    # Budgets at a path's exact delay, at its rounded figure and in between.
    sums = [sum(topo.by_pair[pair].delay for pair in links_of_path(p))
            for p in oracles.all_simple_paths(topo, src, dst)]
    budget = draw(st.sampled_from([math.inf, *sums, *(round(d, 1) for d in sums)])
                  | st.floats(0.0, float(n), allow_nan=False))
    limit = draw(st.integers(1, len(sums) + 1))
    return topo, src, dst, budget, limit


def digraph(*links):
    """A topology of the given (src, dst, delay) links."""
    return NetworkTopology(1 + max(max(a, b) for a, b, _ in links),
                           tuple(Link(a, b, 10.0, d) for a, b, d in links), frozenset({0}))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(case=tie_heavy_enumerations())
# 0 -> 1 -> 2 -> 3 sums to 0.6 in path order and to 0.6000000000000001 from the
# far end, so an unshrunk bound would prune it under a budget of 0.6.
@example(case=(digraph((0, 1, 0.2), (1, 2, 0.3), (2, 3, 0.1)), 0, 3, 0.6, 1))
# The dead end 0 -> 1 sorts before the only path, 0 -> 2, but stays open after
# it (its bound leads back through 0): the one path found must not read as cut.
@example(case=(digraph((0, 1, 0.3), (0, 2, 0.3), (1, 0, 0.3)), 0, 2, math.inf, 1))
def test_enumeration_matches_the_best_first_reference(case):
    topo, src, dst, budget, limit = case
    # A re-creation asks for one path past its limit to tell whether the limit cut the list.
    paths = _enumerate(topo, src, dst, budget, limit + 1)
    ref_paths, ref_truncated = oracles.best_first_paths(topo, src, dst, budget, limit)
    assert paths == oracles.all_simple_paths(topo, src, dst, budget)[:limit + 1]
    assert paths[:limit] == ref_paths
    assert ref_truncated or len(paths) <= limit  # a cut list is now found only where one was


@pytest.mark.parametrize("topo", [ring14(), ring(10, 16)], ids=["ring14", "ring26"])
def test_ring_edge_pairs_match_the_best_first_reference(topo):
    edges = sorted(topo.edge_nodes)
    for src in edges:
        for dst in edges:
            if src != dst:
                assert (_enumerate(topo, src, dst, math.inf, 2)
                        == oracles.best_first_paths(topo, src, dst, math.inf, 2)[0])


def _outcome(problem):
    try:
        sol = ht.solve_lsp_recreation(problem)
    except Infeasible as exc:
        return ("infeasible", exc.proven, str(exc))
    return (sol.routing, sol.changed_entries, sol.optimal, sol.nodes_explored)


def test_reused_topology_gives_the_same_solutions():
    shortest = ((0, 6), (6, 13), (13, 3))
    detour = ((0, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 3))
    specs = [
        # binding budget: link 6->13 carries two of the three requests, and
        # delay 7 admits one path around it (delay 6 admits none)
        dict(requests=(ht.LspRequest(0, 3, 40.0, 7.0),) * 3,
             lr_old=(shortest,) * 3),
        # the same endpoints and budget, but path_limit cuts the list short
        dict(requests=(ht.LspRequest(0, 3, 10.0, 7.0),), path_limit=2),
        # request 1 has no path within its budget: proven infeasible
        dict(requests=(ht.LspRequest(0, 3, 1.0, 7.0), ht.LspRequest(1, 4, 1.0, 2.0))),
        # a tighter budget that rules out the old four-link detour
        dict(requests=(ht.LspRequest(0, 3, 20.0, 3.0),),
             lr_old=(((0, 7), (7, 6), (6, 13), (13, 3)),)),
    ]
    warm = ring14()
    fresh = [_outcome(ht.RecreationProblem(topology=ring14(), **spec)) for spec in specs]
    assert fresh[0][:3] == ((shortest, shortest, detour), 10, True)
    assert fresh[1][2] is False
    assert fresh[2][:2] == ("infeasible", True)
    assert fresh[3][:2] == ((shortest,), 3)
    for _ in range(2):
        for spec, expect in zip(specs, fresh):
            assert _outcome(ht.RecreationProblem(topology=warm, **spec)) == expect


def test_enumeration_argument_validation(topo):
    with pytest.raises(ValidationError):
        ht.enumerate_simple_paths(topo, 0, 0)
    with pytest.raises(ValidationError):
        ht.enumerate_simple_paths(topo, 0, 99)
    for limit in (2.5, math.nan, True):
        with pytest.raises(ValidationError, match="^limit must be an integer$"):
            ht.enumerate_simple_paths(topo, 0, 2, limit=limit)
    with pytest.raises(ValidationError, match="^limit must be at least 1$"):
        ht.enumerate_simple_paths(topo, 0, 2, limit=0)
    with pytest.raises(ValidationError, match="^delay budget must not be NaN$"):
        ht.enumerate_simple_paths(topo, 0, 2, delay_budget=math.nan)


UP, DOWN = ((0, 1), (1, 3)), ((0, 2), (2, 3))  # the square's two routes from 0 to 3


def pendant_square():
    """The square with node 4 hanging off node 1 at delay 5: partial paths into
    4 lead nowhere, yet stay within a budget of 7."""
    links = [Link(a, b, 10.0, 1.0) for a, b in UP + DOWN]
    links += [Link(b, a, 10.0, 1.0) for a, b in UP + DOWN]
    links += [Link(1, 4, 10.0, 5.0), Link(4, 1, 10.0, 5.0)]
    return NetworkTopology(5, tuple(links), frozenset({0, 3}))


def test_a_list_of_exactly_path_limit_candidates_is_not_truncated():
    # Both routes fit delay 7 and path_limit 2. A best-first search still holds the
    # dead end 0 -> 1 -> 4 (delay 6) when it emits the second route, and reported a
    # cut list, so the re-creation below was neither optimal nor proven infeasible.
    topo = pendant_square()
    assert oracles.best_first_paths(topo, 0, 3, 7.0, 2) == ([(0, 1, 3), (0, 2, 3)], True)
    assert _enumerate(topo, 0, 3, 7.0, 3) == [(0, 1, 3), (0, 2, 3)]
    fits = ht.RecreationProblem(requests=(ht.LspRequest(0, 3, 6.0, 7.0),) * 2, topology=topo,
                                path_limit=2)
    assert _outcome(fits) == ((UP, DOWN), 4, True, 3)
    crowded = dataclasses.replace(fits, requests=(ht.LspRequest(0, 3, 6.0, 7.0),) * 3)
    assert _outcome(crowded) == ("infeasible", True, "no routing satisfies the reservation headroom")


def test_overloaded_link_forces_one_lsp_aside(square):
    old = (((0, 1), (1, 3)), ((0, 1), (1, 3)))
    reqs = (ht.LspRequest(0, 3, 6.0, 10.0), ht.LspRequest(0, 3, 6.0, 10.0))
    sol = ht.solve_lsp_recreation(ht.RecreationProblem(
        requests=reqs, topology=square, lr_old=old, mu=1.0))
    assert sol.optimal
    assert sol.changed_entries == 4
    assert sol.routing[0] == ((0, 1), (1, 3))
    assert sol.routing[1] == ((0, 2), (2, 3))
    assert ht.audit_lsp_routing(reqs, sol.routing, square, mu=1.0) == []


def test_feasible_old_routing_is_kept(square):
    old = (((0, 1), (1, 3)), ((0, 2), (2, 3)))
    reqs = (ht.LspRequest(0, 3, 6.0, 10.0), ht.LspRequest(0, 3, 6.0, 10.0))
    sol = ht.solve_lsp_recreation(ht.RecreationProblem(
        requests=reqs, topology=square, lr_old=old, mu=1.0))
    assert sol.changed_entries == 0
    assert sol.routing == old


def test_old_routing_needs_one_route_per_request(square):
    route = ((0, 1), (1, 3))
    req = ht.LspRequest(0, 3, 6.0, 10.0)
    # Neither cut to the requests (longer) nor padded with empty routes (shorter).
    for reqs, old in (((req,), (route, route)), ((req, req), (route,))):
        with pytest.raises(ValidationError,
                           match=f"^lr_old has {len(old)} routes for {len(reqs)} requests$"):
            ht.solve_lsp_recreation(ht.RecreationProblem(reqs, square, old, mu=1.0))
    # None and () both mean no old routing: every route counts as changed.
    for old in (None, ()):
        sol = ht.solve_lsp_recreation(ht.RecreationProblem((req,), square, old, mu=1.0))
        assert (sol.routing, sol.changed_entries) == ((route,), 2)


def test_delay_budget_forces_detour_infeasible(square):
    reqs = (ht.LspRequest(0, 3, 6.0, 1.0),)
    with pytest.raises(Infeasible) as exc:
        ht.solve_lsp_recreation(ht.RecreationProblem(
            requests=reqs, topology=square, lr_old=None, mu=1.0))
    assert exc.value.proven


def test_reservations_beyond_headroom_infeasible(square):
    reqs = (ht.LspRequest(0, 3, 8.0, 4.0), ht.LspRequest(0, 3, 8.0, 4.0),
            ht.LspRequest(0, 3, 8.0, 4.0))
    with pytest.raises(Infeasible) as exc:
        ht.solve_lsp_recreation(ht.RecreationProblem(
            requests=reqs, topology=square, lr_old=None, mu=1.0))
    assert exc.value.proven


def test_matches_exhaustive_enumeration():
    rng = np.random.default_rng(41)
    solved = infeasible = 0
    for _ in range(60):
        t, reqs, lr_old, mu = oracles.random_recreation_instance(rng)
        expect = oracles.best_recreation(reqs, t, lr_old, mu)
        problem = ht.RecreationProblem(requests=reqs, topology=t, lr_old=lr_old, mu=mu)
        if expect is None:
            with pytest.raises(Infeasible):
                ht.solve_lsp_recreation(problem)
            infeasible += 1
            continue
        sol = ht.solve_lsp_recreation(problem)
        assert sol.optimal
        assert sol.changed_entries == expect
        assert ht.audit_lsp_routing(reqs, sol.routing, t, mu=mu) == []
        solved += 1
    assert solved > 20


def test_missing_old_routing_counts_full_path(square):
    reqs = (ht.LspRequest(0, 3, 1.0, 10.0),)
    sol = ht.solve_lsp_recreation(ht.RecreationProblem(
        requests=reqs, topology=square, lr_old=None))
    assert sol.changed_entries == 2


def test_capacity_validation(square):
    # The last two old routings are feasible but for the bad capacity.
    for requests, lr_old in (((ht.LspRequest(0, 3, 0.0, 4.0),), None),
                             ((ht.LspRequest(0, 3, 0.0, 4.0),), (UP,)),
                             ((ht.LspRequest(0, 3, 6.0), ht.LspRequest(0, 3, -1.0)), (UP, DOWN))):
        with pytest.raises(ValidationError):
            ht.solve_lsp_recreation(ht.RecreationProblem(
                requests=requests, topology=square, lr_old=lr_old))


def test_nan_capacity_is_rejected(square):
    # UP is a feasible old route, so the kept-routing check sees the NaN first.
    for lr_old in (None, (UP,)):
        with pytest.raises(ValidationError):
            ht.solve_lsp_recreation(ht.RecreationProblem(
                requests=(ht.LspRequest(0, 3, math.nan, 4.0),), topology=square, lr_old=lr_old))


@pytest.mark.parametrize("field, value, message", [
    ("mu", math.nan, "mu must lie in (0, 1]"),
    ("mu", 0.0, "mu must lie in (0, 1]"),
    ("mu", 5.0, "mu must lie in (0, 1]"),
    ("path_limit", 0, "path_limit must be at least 1"),
])
def test_bad_headroom_and_path_limit_are_rejected(square, field, value, message):
    # An 18-unit request on links of bandwidth 10: a NaN headroom compares false
    # against every load and would route it. The check comes before the
    # kept-old-routing shortcut too.
    for lr_old in (None, (UP,)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ht.solve_lsp_recreation(ht.RecreationProblem(
                requests=(ht.LspRequest(0, 3, 18.0),), topology=square, lr_old=lr_old,
                **{field: value}))


@pytest.mark.parametrize("bad, message", [
    (ht.LspRequest(2, 2, 5.0), "request 1: source and destination must differ"),
    (ht.LspRequest(99, 3, 5.0), "request 1: endpoints out of range"),
    (ht.LspRequest(-1, 3, 5.0), "request 1: endpoints out of range"),
    (ht.LspRequest(0, 99, 5.0), "request 1: endpoints out of range"),
    (ht.LspRequest(0, 3, -1.0), "request 1: capacity must be positive"),
    (ht.LspRequest(0, 3, 5.0, math.nan), "request 1: delay budget must not be NaN"),
])
def test_bad_requests_are_rejected_first(square, bad, message):
    # Every request is checked before the kept-routing shortcut (an empty old
    # route once "routed" 2 -> 2) and before request 0's Infeasible: its delay
    # budget admits no path.
    for first, lr_old in ((ht.LspRequest(0, 3, 6.0), None), (ht.LspRequest(0, 3, 6.0), (UP, ())),
                          (ht.LspRequest(0, 3, 6.0, 0.5), None)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ht.solve_lsp_recreation(ht.RecreationProblem(
                requests=(first, bad), topology=square, lr_old=lr_old))


def test_problems_compare_by_value():
    # A problem is a dataclass compared field by field: equal fields, built apart,
    # make equal problems, and any field that differs makes them differ.
    def problem(**overrides):
        topo = ring14()
        return ht.RecreationProblem(requests=(ht.LspRequest(0, 7, 5.0),), topology=topo,
                                    lr_old=(links_of_path(tuple(range(8))),), **overrides)

    assert problem() == problem()
    assert problem(mu=0.8) != problem()
    assert problem(node_budget=10) != problem()


def test_determinism(square):
    reqs = (ht.LspRequest(0, 3, 6.0, 10.0), ht.LspRequest(0, 3, 6.0, 10.0))
    old = (((0, 1), (1, 3)), ((0, 1), (1, 3)))
    a = ht.solve_lsp_recreation(ht.RecreationProblem(requests=reqs, topology=square,
                                                     lr_old=old, mu=1.0))
    b = ht.solve_lsp_recreation(ht.RecreationProblem(requests=reqs, topology=square,
                                                     lr_old=old, mu=1.0))
    assert a.routing == b.routing
    assert a.changed_entries == b.changed_entries


def test_dump_round_trip(square):
    reqs = (ht.LspRequest(0, 3, 6.0, 10.0), ht.LspRequest(0, 3, 6.0, math.inf))
    old = (((0, 1), (1, 3)), ((0, 1), (1, 3)))
    problem = ht.RecreationProblem(requests=reqs, topology=square, lr_old=old, mu=1.0)
    sol = ht.solve_lsp_recreation(problem)
    text = recreation_to_json(problem, sol)
    assert text == recreation_to_json(problem, sol)
    doc = json.loads(text)
    assert doc["type"] == "lsp_recreation"
    assert doc["requests"][1]["delay_budget"] is None
    assert doc["solution"]["changed_entries"] == sol.changed_entries


def contested_ring_problem(**overrides):
    # Three 40-unit requests from 0 to 3 whose old routes all share the
    # shortest path; at most two fit on any link, so one of them must move.
    shortest = ((0, 6), (6, 13), (13, 3))
    spec = dict(requests=(ht.LspRequest(0, 3, 40.0, 8.0),) * 3, topology=ring14(),
                lr_old=(shortest,) * 3)
    return ht.RecreationProblem(**{**spec, **overrides})


def test_search_trajectory_is_pinned():
    # Exact routes, changed entries, optimality and nodes_explored recorded
    # from the solver; a search that branches, prunes or counts nodes
    # differently changes at least one of them.
    rng = np.random.default_rng(1424)
    topo_r, requests, lr_old, mu = oracles.random_recreation_instance(rng, 5)
    random_case = _outcome(ht.RecreationProblem(requests=requests, topology=topo_r,
                                                lr_old=lr_old, mu=mu))
    assert random_case == ((((0, 1), (1, 4), (4, 3)), ((0, 2),), ((1, 4), (4, 2), (2, 0)),
                            ((4, 2),)), 8, True, 9)
    moved = (((0, 6), (6, 13), (13, 3)), ((0, 6), (6, 13), (13, 3)),
             ((0, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 3)))
    assert _outcome(contested_ring_problem()) == (moved, 10, True, 38)
    assert _outcome(contested_ring_problem(node_budget=20)) == (moved, 10, False, 21)
    # Without an old routing every path costs its length, so the bound is not zero.
    assert _outcome(contested_ring_problem(lr_old=None)) == (moved, 13, True, 31)


def _square_pair(capacity=6.0, delay_budget=10.0):
    return ht.LspRequest(0, 3, capacity, delay_budget)


@pytest.mark.parametrize("spec, expect", [
    # over the headroom: both old routes share UP's links
    (dict(requests=(_square_pair(),) * 2, lr_old=(UP, UP), mu=1.0),
     ((UP, DOWN), 4, True, 3)),
    # over the delay budget, with no path inside it
    (dict(requests=(_square_pair(1.0, 1.5),), lr_old=(UP,)),
     ("infeasible", True, "request 0: no simple path within the delay budget")),
    # over the delay budget, with a shorter path inside it
    (dict(requests=(ht.LspRequest(0, 3, 20.0, 3.0),), topology=ring14(),
          lr_old=(((0, 7), (7, 6), (6, 13), (13, 3)),)),
     ((((0, 6), (6, 13), (13, 3)),), 3, True, 2)),
    # wrong source, then wrong destination
    (dict(requests=(_square_pair(),), lr_old=(((2, 3),),)), ((DOWN,), 1, True, 2)),
    (dict(requests=(_square_pair(),), lr_old=(((0, 1),),)), ((UP,), 1, True, 2)),
    # links that do not chain, and a link the topology lacks
    (dict(requests=(_square_pair(),), lr_old=(((0, 1), (2, 3)),)), ((UP,), 2, True, 2)),
    (dict(requests=(_square_pair(),), lr_old=(((0, 3),),)), ((UP,), 3, True, 2)),
    # a walk that returns to its source
    (dict(requests=(_square_pair(),), lr_old=(((0, 1), (1, 0), (0, 2), (2, 3)),)),
     ((DOWN,), 2, True, 2)),
    # empty old routes, and none at all (a shorter old routing is an error)
    (dict(requests=(_square_pair(),) * 2, lr_old=((), ())), ((UP, DOWN), 4, True, 3)),
    (dict(requests=(_square_pair(),) * 2, lr_old=None), ((UP, DOWN), 4, True, 3)),
])
def test_old_routing_that_is_not_feasible_is_searched(square, spec, expect):
    # Outcomes of the full search, pinned: the kept-routing shortcut must not
    # answer any of these.
    assert _outcome(ht.RecreationProblem(**{"topology": square, **spec})) == expect


def test_old_routing_is_kept_within_the_node_budget(square):
    # Keeping n old routes counts the kernel's first descent, n + 1 nodes; a
    # budget that cannot pay for it stops the search as before.
    for budget in (1, 2, 3, 4):
        problem = ht.RecreationProblem(requests=(_square_pair(),) * 2, topology=square,
                                       lr_old=(UP, DOWN), node_budget=budget)
        if budget <= 2:
            assert _outcome(problem) == (
                "infeasible", False, "search stopped before any feasible routing was found")
        else:
            assert _outcome(problem) == ((UP, DOWN), 0, True, 3)


def test_old_route_beyond_the_path_limit_is_kept(square):
    # Only UP is among the first path_limit candidates, so a search over them
    # would move the LSP there; the old route needs no candidate list.
    assert ht.enumerate_simple_paths(square, 0, 3, limit=1) == [(0, 1, 3)]
    problem = ht.RecreationProblem(requests=(_square_pair(),), topology=square,
                                   lr_old=(DOWN,), path_limit=1)
    assert _outcome(problem) == ((DOWN,), 0, True, 2)


def test_kept_routing_is_optimal_when_enumeration_would_truncate(square):
    # Cost 0 is a lower bound on any routing, so keeping the old one is proven
    # optimal however many candidates the limit cuts off.
    problem = ht.RecreationProblem(requests=(_square_pair(),), topology=square,
                                   lr_old=(UP,), path_limit=1)
    assert _outcome(problem) == ((UP,), 0, True, 2)


def test_kept_routing_matches_the_search(monkeypatch):
    rng = np.random.default_rng(2024)
    instances = [oracles.random_recreation_instance(rng) for _ in range(300)]
    got = [_outcome(ht.RecreationProblem(requests=reqs, topology=t, lr_old=lr_old, mu=mu))
           for t, reqs, lr_old, mu in instances]
    monkeypatch.setattr(bnb.Search, "keep", lambda *args: False)
    kept = searched = 0
    for (t, reqs, lr_old, mu), outcome in zip(instances, got):
        problem = ht.RecreationProblem(requests=reqs, topology=t, lr_old=lr_old, mu=mu)
        assert outcome == _outcome(problem)
        feasible = (ht.audit_lsp_routing(reqs, lr_old, t, mu=mu) == []
                    and all(len(oracles.all_simple_paths(t, r.src, r.dst, r.delay_budget))
                            <= problem.path_limit for r in reqs))
        if feasible:
            assert outcome == (lr_old, 0, True, len(reqs) + 1)
            assert oracles.best_recreation(reqs, t, lr_old, mu) == 0
            kept += 1
        else:
            searched += 1
    assert kept >= 50 and searched >= 50


def test_a_call_builds_its_headroom_limits_once(monkeypatch, square):
    # The kept-routing check and the search share one set of limits, so a call
    # builds them once whether it keeps the old routing or searches.
    built = []
    limits = recreation.limits
    monkeypatch.setattr(recreation, "limits", lambda capacity: built.append(len(capacity))
                        or limits(capacity))
    kept = ht.RecreationProblem(requests=(_square_pair(),) * 2, topology=square,
                                lr_old=(UP, DOWN))
    moved = ht.RecreationProblem(requests=(_square_pair(),) * 2, topology=square,
                                 lr_old=(UP, UP))
    assert _outcome(kept) == ((UP, DOWN), 0, True, 3)
    assert _outcome(moved)[1:3] == (4, True)
    assert built == [len(square.links)] * 2


@pytest.mark.parametrize("field, value, message", [
    ("node_budget", math.nan, "node_budget must be an integer"),
    ("node_budget", True, "node_budget must be an integer"),
    ("node_budget", 0, "node_budget must be at least 1"),
    ("path_limit", 2.5, "path_limit must be an integer"),
    ("path_limit", True, "path_limit must be an integer"),
])
def test_budget_and_path_limit_must_be_integers_of_at_least_1(square, field, value, message):
    # A NaN budget searched without limit, True counted as 1, and a path limit of
    # 2.5 raised a bare TypeError while cutting the path list.
    for lr_old in (None, (UP,)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ht.solve_lsp_recreation(ht.RecreationProblem(
                requests=(ht.LspRequest(0, 3, 5.0),), topology=square, lr_old=lr_old,
                **{field: value}))
