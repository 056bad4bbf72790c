import dataclasses
import functools
import json
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest

import hybridte as ht
from hybridte import lsp, rerouting
from hybridte.errors import Infeasible, ValidationError
from hybridte.lsp import LspPlan
from hybridte.rerouting import RoutingMode, rerouting_to_json
from hybridte.topology import Link, NetworkTopology

import oracles
from test_ffr import shuffled_instances


@pytest.fixture
def topo():
    return ht.reference_topology()


def two_lsp_instance(topo, cap0=10.0, cap1=10.0):
    lsps = (ht.build_lsp(topo, [0, 4, 1], cap0, 0), ht.build_lsp(topo, [0, 5, 1], cap1, 1))
    flows = (ht.Flow(0, 0, 1, 6.0, 4.0), ht.Flow(1, 0, 1, 6.0, 4.0))
    return flows, lsps


def test_one_flow_moves_when_shared_lsp_overflows(topo):
    flows, lsps = two_lsp_instance(topo)
    sol = ht.solve_flow_rerouting(ht.ReroutingProblem(
        flows=flows, lsps=lsps, fr_old={0: 0, 1: 0}))
    assert sol.changes == 1
    assert sol.optimal
    # lexicographic tie-break: flow 0 keeps LSP 0, flow 1 moves
    assert sol.assignment == {0: 0, 1: 1}


def test_no_move_when_everything_fits(topo):
    flows, lsps = two_lsp_instance(topo, cap0=20.0)
    old = {0: 0, 1: 0}
    sol = ht.solve_flow_rerouting(ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old=old))
    assert sol.changes == 0
    assert sol.assignment == old


def test_resolving_own_output_changes_nothing(topo):
    rng = np.random.default_rng(17)
    for _ in range(40):
        topo_r, flows, lsps, fr_old, mode, routing = oracles.random_rerouting_instance(rng)
        problem = ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old=fr_old,
                                      mode=RoutingMode(mode), topology=topo_r)
        try:
            sol = ht.solve_flow_rerouting(problem)
        except Infeasible:
            continue
        again = ht.solve_flow_rerouting(ht.ReroutingProblem(
            flows=flows, lsps=lsps, fr_old=sol.assignment, mode=RoutingMode(mode),
            topology=topo_r))
        assert again.changes == 0
        assert again.assignment == sol.assignment


def test_matches_exhaustive_enumeration_and_lex_tiebreak():
    rng = np.random.default_rng(23)
    solved = infeasible = 0
    for _ in range(120):
        topo_r, flows, lsps, fr_old, mode, routing = oracles.random_rerouting_instance(rng)
        expect = oracles.best_rerouting(flows, lsps, fr_old, mode, 0.9, routing, topo_r)
        problem = ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old=fr_old,
                                      mode=RoutingMode(mode), mu=0.9, topology=topo_r)
        if expect is None:
            with pytest.raises(Infeasible):
                ht.solve_flow_rerouting(problem)
            infeasible += 1
            continue
        sol = ht.solve_flow_rerouting(problem)
        assert sol.optimal
        assert sol.changes == expect[0]
        assert sol.assignment == expect[1]
        solved += 1
    assert solved > 30 and infeasible > 5


def test_delay_bound_disqualifies_lsp(topo):
    # second LSP is longer than the flow's delay bound, so the flow must stay
    lsps = (ht.build_lsp(topo, [0, 4, 6, 2], 4.0, 0),
            ht.build_lsp(topo, [0, 4, 1, 5, 7, 2], 20.0, 1))
    flows = (ht.Flow(0, 0, 2, 3.0, 3.5), ht.Flow(1, 0, 2, 3.0, 6.0))
    sol = ht.solve_flow_rerouting(ht.ReroutingProblem(
        flows=flows, lsps=lsps, fr_old={0: 0, 1: 0}))
    assert sol.assignment == {0: 0, 1: 1}


def test_endpoint_mismatch_is_never_chosen(topo):
    lsps = (ht.build_lsp(topo, [0, 4, 1], 10.0, 0), ht.build_lsp(topo, [2, 6, 3], 10.0, 1))
    flows = (ht.Flow(0, 0, 1, 2.0, 9.0),)
    sol = ht.solve_flow_rerouting(ht.ReroutingProblem(
        flows=flows, lsps=lsps, fr_old={0: 0}))
    assert sol.assignment == {0: 0}


def test_infeasible_when_no_endpoint_match(topo):
    lsps = (ht.build_lsp(topo, [2, 6, 3], 10.0, 0),)
    flows = (ht.Flow(0, 0, 1, 2.0, 9.0),)
    with pytest.raises(Infeasible) as exc:
        ht.solve_flow_rerouting(ht.ReroutingProblem(
            flows=flows, lsps=lsps, fr_old={0: 0}))
    assert exc.value.proven


def test_infeasible_when_capacity_short(topo):
    flows, lsps = two_lsp_instance(topo, cap0=5.0, cap1=5.0)
    with pytest.raises(Infeasible) as exc:
        ht.solve_flow_rerouting(ht.ReroutingProblem(
            flows=flows, lsps=lsps, fr_old={0: 0, 1: 0}))
    assert exc.value.proven


def test_unreserved_mode_respects_link_headroom(topo):
    # Two parallel LSPs between 0 and 2 share the first hop 0->4; in
    # unreserved mode the shared link's headroom binds even though each
    # LSP's own capacity would admit both flows.
    lsps = (ht.build_lsp(topo, [0, 4, 6, 2], 50.0, 0),
            ht.build_lsp(topo, [0, 4, 6, 3, 7, 2], 50.0, 1),
            ht.build_lsp(topo, [0, 5, 7, 2], 50.0, 2))
    flows = (ht.Flow(0, 0, 2, 48.0, 9.0), ht.Flow(1, 0, 2, 48.0, 9.0))
    old = {0: 0, 1: 1}
    reserved = ht.solve_flow_rerouting(ht.ReroutingProblem(
        flows=flows, lsps=lsps, fr_old=old, mode=RoutingMode.RESERVED))
    assert reserved.changes == 0
    unreserved = ht.solve_flow_rerouting(ht.ReroutingProblem(
        flows=flows, lsps=lsps, fr_old=old, mode=RoutingMode.UNRESERVED,
        mu=0.9, topology=topo))
    assert unreserved.changes == 1
    # flow 0 keeps its LSP, flow 1 leaves the shared link
    assert unreserved.assignment == {0: 0, 1: 2}


def test_unreserved_mode_requires_routing(topo):
    # The link routing comes from the LSPs, but the links' headroom needs a topology.
    flows, lsps = two_lsp_instance(topo)
    with pytest.raises(ValidationError, match="^unreserved mode needs a topology$"):
        ht.solve_flow_rerouting(ht.ReroutingProblem(
            flows=flows, lsps=lsps, fr_old={0: 0, 1: 0},
            mode=RoutingMode.UNRESERVED))


@pytest.mark.parametrize("message", ["duplicate flow ids", "duplicate LSP ids",
                                     "flow 1 missing from the old assignment",
                                     "flow 0 rides an unknown LSP",
                                     "LSP 2 uses nonexistent link (0, 6)"])
def test_bad_inputs_are_rejected(topo, message):
    flows, lsps = two_lsp_instance(topo)
    old, mode = {0: 0, 1: 0}, RoutingMode.RESERVED
    if message == "duplicate flow ids":
        flows += flows[:1]
    elif message == "duplicate LSP ids":
        lsps += lsps[:1]
    elif message.startswith("flow 1"):
        old = {0: 0}
    elif message.startswith("flow 0"):  # ffr rejects this input with the same message
        old = {0: 7, 1: 0}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ht.ffr(flows, lsps, old, topo)
    else:  # a hand-made LSP over a link the topology lacks, beside a flow (0 -> 2) with no LSP
        lsps += (ht.Lsp(2, 0, 1, ((0, 6), (6, 1)), 5.0, 2.0),)
        flows, old = flows + (ht.Flow(2, 0, 2, 1.0, 9.0),), {0: 0, 1: 0, 2: 0}
        mode = RoutingMode.UNRESERVED
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ht.solve_flow_rerouting(ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old=old,
                                                    mode=mode, topology=topo))


def test_problems_compare_by_value():
    # A problem is a dataclass compared field by field: equal fields, built apart,
    # make equal problems, and any field that differs makes them differ.
    def problem(**overrides):
        topo = ht.reference_topology()
        flows, lsps = two_lsp_instance(topo)
        return ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old={0: 0, 1: 0},
                                   topology=topo, **overrides)

    assert problem() == problem()
    assert problem(mu=0.8) != problem()
    assert problem(node_budget=10) != problem()
    with pytest.raises(TypeError):
        hash(problem())  # fr_old is a dict


@pytest.mark.parametrize("mode", list(RoutingMode))
@pytest.mark.parametrize("mu", [math.nan, 0.0, -0.5, 1.5])
def test_headroom_outside_the_unit_interval_is_rejected(mode, mu):
    # Three 6-unit flows on one LSP over links of bandwidth 10: a NaN headroom
    # compares false against every load, so it would admit all 18 units.
    topo = ht.reference_topology(bandwidth=10.0)
    lsps = (ht.build_lsp(topo, [0, 4, 1], 20.0, 0),)
    flows = tuple(ht.Flow(i, 0, 1, 6.0, 4.0) for i in range(3))
    with pytest.raises(ValidationError, match=r"^mu must lie in \(0, 1\]$"):
        ht.solve_flow_rerouting(ht.ReroutingProblem(flows=flows, lsps=lsps,
                                                    fr_old=dict.fromkeys(range(3), 0),
                                                    mode=mode, mu=mu, topology=topo))


def deceptive_instance(topo):
    # Flow 0's old LSP is too small, and taking the first replacement in id
    # order blocks flow 1, so the first assignment found moves both flows;
    # the true optimum routes flow 0 over the long detour instead.
    lsps = (ht.build_lsp(topo, [0, 4, 1], 6.0, 0),
            ht.build_lsp(topo, [0, 5, 1], 4.0, 1),
            ht.build_lsp(topo, [0, 4, 6, 3, 7, 5, 1], 6.0, 2))
    flows = (ht.Flow(0, 0, 1, 6.0, 6.0), ht.Flow(1, 0, 1, 4.0, 2.0))
    return flows, lsps, {0: 1, 1: 0}


def test_deceptive_instance_solved_exactly(topo):
    flows, lsps, old = deceptive_instance(topo)
    full = ht.solve_flow_rerouting(ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old=old))
    assert full.optimal
    assert full.changes == 1
    assert full.assignment == {0: 2, 1: 0}


def test_budget_abort_keeps_incumbent(topo):
    flows, lsps, old = deceptive_instance(topo)
    capped = ht.solve_flow_rerouting(ht.ReroutingProblem(
        flows=flows, lsps=lsps, fr_old=old, node_budget=3))
    assert not capped.optimal
    assert capped.changes == 2
    assert capped.assignment == {0: 0, 1: 1}
    assert capped.nodes_explored > 3


def test_budget_abort_without_incumbent_is_unproven(topo):
    flows, lsps = two_lsp_instance(topo)
    with pytest.raises(Infeasible) as exc:
        ht.solve_flow_rerouting(ht.ReroutingProblem(
            flows=flows, lsps=lsps, fr_old={0: 0, 1: 0},
            node_budget=1))
    assert not exc.value.proven


def test_solution_counts_nodes(topo):
    flows, lsps = two_lsp_instance(topo)
    sol = ht.solve_flow_rerouting(ht.ReroutingProblem(
        flows=flows, lsps=lsps, fr_old={0: 0, 1: 0}))
    assert sol.nodes_explored > 0


def test_dump_is_deterministic_and_complete(topo):
    flows, lsps = two_lsp_instance(topo)
    problem = ht.ReroutingProblem(flows=flows, lsps=lsps,
                                  fr_old={0: 0, 1: 0})
    sol = ht.solve_flow_rerouting(problem)
    text = rerouting_to_json(problem, sol)
    assert text == rerouting_to_json(problem, sol)
    doc = json.loads(text)
    assert doc["type"] == "flow_rerouting"
    assert doc["mode"] == "reserved"
    assert len(doc["flows"]) == 2 and len(doc["lsps"]) == 2
    assert doc["solution"]["changes"] == 1
    assert doc["old_assignment"] == {"0": 0, "1": 0}


# (generator, max_flows, seed, mode) -> (LSP of each flow in id order, changes,
# optimal, nodes_explored), recorded from the solver. A search that branches,
# prunes or counts nodes differently changes at least one of these. The "one"
# instances have a single endpoint pair; the "multi" ones have 2-3, and in
# unreserved mode seeds 1795 and 1945 need the joint search.
PINNED = {
    ("one", 8, 149, "reserved"): ((0, 0, 3, 0, 0, 2, 2), 5, True, 122),
    ("one", 8, 149, "unreserved"): ((0, 0, 3, 0, 0, 2, 2), 5, True, 122),
    ("one", 8, 625, "reserved"): ((1, 0, 1, 2, 2, 2, 0), 2, True, 24),
    ("one", 8, 625, "unreserved"): ((1, 0, 1, 2, 1, 2, 0), 3, True, 45),
    ("one", 6, 684, "reserved"): ((0, 2, 1, 1, 3), 1, True, 13),
    ("one", 6, 684, "unreserved"): ((0, 1, 3, 0, 3), 2, True, 17),
    ("one", 8, 1448, "reserved"): ((2, 0, 3, 1, 2, 1), 1, True, 35),
    ("one", 8, 1448, "unreserved"): ((2, 0, 3, 3, 2, 1), 1, True, 43),
    ("one", 4, 1211, "reserved"): ((3, 3, 1, 2), 0, True, 5),
    ("one", 4, 1211, "unreserved"): ((3, 1, 0, 1), 3, True, 22),
    ("multi", 4, 1795, "reserved"): ((1, 3, 3, 4, 6, 0, 0, 3, 6, 4, 6), 2, True, 26),
    ("multi", 4, 1795, "unreserved"): ((3, 1, 3, 4, 6, 2, 0, 3, 6, 4, 6), 2, True, 121),
    ("multi", 4, 1945, "reserved"): ((4, 5, 3, 3, 2, 0, 0), 2, True, 27),
    ("multi", 4, 1945, "unreserved"): ((1, 5, 3, 3, 2, 0, 0), 3, True, 67),
    ("multi", 4, 2495, "reserved"): ((1, 4, 1, 7, 3, 2, 6, 6, 0, 0), 3, True, 32),
    ("multi", 4, 2495, "unreserved"): ((4, 1, 1, 7, 3, 2, 6, 6, 0, 0), 3, True, 33),
}


def pinned_instance(generator, max_flows, seed, mode, **overrides):
    rng = np.random.default_rng(seed)
    if generator == "multi":
        topo_r, flows, lsps, fr_old, _ = oracles.random_multipair_rerouting_instance(
            rng, max_flows, 3)
    else:
        topo_r, flows, lsps, fr_old, _, _ = oracles.random_rerouting_instance(
            rng, max_flows, 4)
    return ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old=fr_old, mode=RoutingMode(mode),
                               topology=topo_r, **overrides)


def test_search_trajectory_is_pinned():
    for key, expect in PINNED.items():
        sol = ht.solve_flow_rerouting(pinned_instance(*key))
        got = (tuple(lid for _, lid in sol.assignment.items()), sol.changes, sol.optimal,
               sol.nodes_explored)
        assert got == expect, key


def test_one_node_short_of_a_full_solve_is_never_optimal():
    # The budget runs out at the search's last node, so its answer is not
    # proven, whatever the incumbent then holds.
    for key in PINNED:
        full = ht.solve_flow_rerouting(pinned_instance(*key))
        problem = pinned_instance(*key, node_budget=full.nodes_explored - 1)
        try:
            sol = ht.solve_flow_rerouting(problem)
        except Infeasible as exc:
            assert not exc.proven, key
            continue
        assert not sol.optimal, key
        assert sol.nodes_explored == full.nodes_explored, key


def test_multi_pair_instances_match_exhaustive_enumeration():
    # Each endpoint pair is searched on its own; the answers put together
    # must be the joint optimum and its lexicographic tie-break, in both modes.
    rng = np.random.default_rng(31)
    seen = {"reserved": [0, 0, 0], "unreserved": [0, 0, 0]}  # infeasible, unmoved, moved
    for _ in range(200):
        topo_r, flows, lsps, fr_old, routing = oracles.random_multipair_rerouting_instance(
            rng, 3, 2)
        assert len({(f.src, f.dst) for f in flows}) >= 2
        for mode in ("reserved", "unreserved"):
            expect = oracles.best_rerouting(flows, lsps, fr_old, mode, 0.9, routing, topo_r)
            problem = ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old=fr_old,
                                          mode=RoutingMode(mode), mu=0.9, topology=topo_r)
            if expect is None:
                with pytest.raises(Infeasible) as exc:
                    ht.solve_flow_rerouting(problem)
                assert exc.value.proven
                seen[mode][0] += 1
                continue
            sol = ht.solve_flow_rerouting(problem)
            assert sol.optimal
            assert sol.changes == expect[0]
            assert sol.assignment == expect[1]
            assert list(sol.assignment) == sorted(sol.assignment)
            seen[mode][1 + (sol.changes > 0)] += 1
    for mode, counts in seen.items():
        assert min(counts) >= 5, (mode, counts)


def test_unreserved_pairs_that_overload_a_shared_link_are_searched_jointly(topo):
    # Flows 0->2 and 1->2 each fit on their upper-plane LSP alone, but
    # together they put 100 units on links 4->6 and 6->2 (headroom 90), so the
    # pair answers fail the link check and the joint search moves one flow.
    lsps = (ht.build_lsp(topo, [0, 4, 6, 2], 60.0, 0), ht.build_lsp(topo, [0, 5, 7, 2], 60.0, 1),
            ht.build_lsp(topo, [1, 4, 6, 2], 60.0, 2), ht.build_lsp(topo, [1, 5, 7, 2], 60.0, 3))
    flows = (ht.Flow(0, 0, 2, 50.0, 9.0), ht.Flow(1, 1, 2, 50.0, 9.0))
    old = {0: 0, 1: 2}
    routing = tuple(l.links for l in lsps)
    reserved = ht.solve_flow_rerouting(ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old=old))
    assert (reserved.assignment, reserved.changes) == (old, 0)
    sol = ht.solve_flow_rerouting(ht.ReroutingProblem(
        flows=flows, lsps=lsps, fr_old=old, mode=RoutingMode.UNRESERVED, mu=0.9,
        topology=topo))
    expect = oracles.best_rerouting(flows, lsps, old, "unreserved", 0.9, routing, topo)
    assert expect == (1, {0: 0, 1: 3})
    assert (sol.changes, sol.assignment, sol.optimal) == (*expect, True)


def test_joint_search_starts_with_the_budget_the_pairs_spent():
    # The pair answers of this instance overload a shared link, so the joint
    # search runs after the pair searches, on the same node counter. A budget
    # that covers the joint search alone but not both is cut short before the
    # joint search finds any assignment; one that covers both proves it.
    problem = pinned_instance("multi", 4, 1945, "unreserved")
    checked_at = []
    fits_all = rerouting.Search.fits_all

    def spy(search, items):
        if len(items) == len(problem.flows):  # every flow placed: the link check
            checked_at.append(search.nodes)
        return fits_all(search, items)

    with mock.patch.object(rerouting.Search, "fits_all", spy):
        full = ht.solve_flow_rerouting(problem)
    pairs = checked_at[-1]
    joint = full.nodes_explored - pairs
    assert (pairs, joint, full.optimal) == (27, 40, True)
    with pytest.raises(Infeasible) as exc:
        ht.solve_flow_rerouting(pinned_instance("multi", 4, 1945, "unreserved",
                                                node_budget=joint))
    assert not exc.value.proven
    sol = ht.solve_flow_rerouting(pinned_instance("multi", 4, 1945, "unreserved",
                                                  node_budget=pairs + joint))
    assert (sol.assignment, sol.changes, sol.optimal) == (full.assignment, full.changes, True)


def test_node_budget_is_shared_by_every_pair():
    # Every budget up to a full solve, on a 3-pair instance whose unreserved
    # form also needs the joint search: the one node counter never runs more
    # than one node past the budget, a proven answer is the true optimum and its
    # lexicographic tie-break, and an exhausted budget yields an unproven
    # incumbent or an unproven Infeasible.
    for mode in ("reserved", "unreserved"):
        problem = pinned_instance("multi", 4, 1945, mode)
        expect = oracles.best_rerouting(problem.flows, problem.lsps, problem.fr_old, mode,
                                        problem.mu, problem.routing, problem.topology)
        full = ht.solve_flow_rerouting(problem)
        outcomes = set()
        for budget in range(1, full.nodes_explored + 1):
            problem = pinned_instance("multi", 4, 1945, mode, node_budget=budget)
            try:
                sol = ht.solve_flow_rerouting(problem)
            except Infeasible as exc:
                assert not exc.proven
                outcomes.add("unproven infeasible")
                continue
            assert sol.nodes_explored <= budget + 1
            assert sum(problem.fr_old[f] != i for f, i in sol.assignment.items()) == sol.changes
            assert ht.audit_flow_assignment(problem.flows, problem.lsps, sol.assignment,
                                            mode=mode, mu=problem.mu, routing=problem.routing,
                                            topo=problem.topology) == []
            if not sol.optimal:
                assert sol.nodes_explored == budget + 1 and sol.changes >= expect[0]
                outcomes.add("incumbent")
                continue
            assert sol.nodes_explored <= budget
            assert (sol.changes, sol.assignment) == expect
            outcomes.add("solved")
        assert outcomes == {"unproven infeasible", "incumbent", "solved"}, mode


def outcome(solve, problem):
    try:
        sol = solve(problem)
    except Infeasible as exc:
        return "infeasible", exc.proven
    return sol.assignment, sol.changes, sol.optimal


def test_one_run_per_pair_matches_exhaustive_enumeration():
    # One kernel run per part, over flows and LSPs in id order, must find the
    # exhaustive optimum and its lexicographic tie-break, on single- and
    # multi-pair instances in both modes.
    rng = np.random.default_rng(41)
    seen = {"infeasible": 0, "unmoved": 0, "moved": 0}
    for k in range(1000):
        if k % 2:
            topo_r, flows, lsps, fr_old, _ = oracles.random_multipair_rerouting_instance(
                rng, 4, 4)
        else:
            topo_r, flows, lsps, fr_old, _, _ = oracles.random_rerouting_instance(rng, 5, 4)
        for mode in RoutingMode:
            problem = ht.ReroutingProblem(flows=flows, lsps=lsps, fr_old=fr_old, mode=mode,
                                          topology=topo_r)
            got = outcome(ht.solve_flow_rerouting, problem)
            expect = oracles.best_rerouting(flows, lsps, fr_old, mode.value, problem.mu,
                                            problem.routing, topo_r)
            if expect is None:
                assert got == ("infeasible", True), (k, mode)
                seen["infeasible"] += 1
                continue
            assert got == (expect[1], expect[0], True), (k, mode)
            seen["moved" if expect[0] else "unmoved"] += 1
    assert min(seen.values()) >= 200, seen


def scaled_pair(flows, pair, target):
    """`flows` with the rates of `pair`'s flows scaled to sum to `target`, the
    sum taken in flow-id order as the search and the oracle take it, and never
    above `target`."""
    own = sorted(f.id for f in flows if (f.src, f.dst) == pair)
    rate = {f.id: f.rate for f in flows}
    total = sum(rate[i] for i in own)
    for i in own:
        rate[i] *= target / total
    while sum(rate[i] for i in own) > target:
        rate[own[-1]] = math.nextafter(rate[own[-1]], 0.0)
    return tuple(f._replace(rate=rate[f.id]) for f in flows)


@pytest.mark.parametrize("mode", list(RoutingMode))
def test_pair_capacity_bound_matches_exhaustive_enumeration(mode):
    # The first flow's pair is scaled to just below, exactly at and just above
    # the summed capacity plus tolerance of that pair's LSPs. Every outcome must
    # be the oracle's. Above it the bound answers without a search; at it, an
    # instance whose one LSP takes every flow of the pair is still solved.
    rng = np.random.default_rng(53)
    seen = Counter()
    for _ in range(400):
        topo_r, flows, lsps, fr_old, routing = oracles.random_multipair_rerouting_instance(
            rng, 3, 2)
        pair = (flows[0].src, flows[0].dst)
        own = [l for l in lsps if (l.src, l.dst) == pair]
        room = sum(l.capacity + 1e-9 * max(1.0, l.capacity) for l in own)
        for scale in (1 - 1e-9, 1.0, 1 + 1e-9):
            scaled = scaled_pair(flows, pair, room * scale)
            problem = ht.ReroutingProblem(flows=scaled, lsps=lsps, fr_old=fr_old, mode=mode,
                                          topology=topo_r)
            expect = oracles.best_rerouting(scaled, lsps, fr_old, mode.value, problem.mu,
                                            routing, topo_r)
            if scale > 1:
                assert expect is None
                with mock.patch.object(rerouting.Search, "run",
                                       side_effect=AssertionError("searched")):
                    with pytest.raises(Infeasible, match="exceed the capacity") as exc:
                        ht.solve_flow_rerouting(problem)
                assert exc.value.proven
                seen["above"] += 1
                continue
            got = outcome(ht.solve_flow_rerouting, problem)
            if expect is None:
                assert got == ("infeasible", True)
                continue
            assert got == (expect[1], expect[0], True)
            seen["below" if scale < 1 else "at, one LSP" if len(own) == 1 else "at"] += 1
    assert seen["above"] == 400 and min(seen["below"], seen["at, one LSP"]) >= 20, seen


def rerouting_outcome(solve, problem):
    try:
        sol = solve(problem)
    except Infeasible as exc:
        return str(exc), exc.proven
    return sol.assignment, list(sol.assignment), sol.changes, sol.optimal, sol.nodes_explored


def test_candidates_match_the_full_scan():
    kinds = Counter()
    for topo, flows, lsps, fr_old in shuffled_instances():
        for mode in RoutingMode:
            problem = ht.ReroutingProblem(flows, lsps, fr_old, mode, topology=topo)
            got = rerouting_outcome(ht.solve_flow_rerouting, problem)
            assert got == rerouting_outcome(oracles.full_scan_rerouting, problem)
            kinds[len(got)] += 1
    assert kinds[2] and kinds[5]


def test_search_tables_are_built_once_per_plan_headroom_and_mode(monkeypatch):
    built = []
    limits = lsp.limits
    monkeypatch.setattr(lsp, "limits", lambda capacity: built.append(len(capacity))
                        or limits(capacity))
    topo = ht.reference_topology()
    flows, lsps, fr_old = oracles.shuffled_plan_instance(np.random.default_rng(7), topo)
    for _ in range(2):  # a new plan of the same LSPs builds its own tables
        plan = LspPlan(lsps, topo)
        for mode in RoutingMode:
            for mu in (0.9, 0.5, 0.9, 0.5):
                problem = ht.ReroutingProblem(flows, plan, fr_old, mode, mu, topology=topo)
                got = rerouting_outcome(ht.solve_flow_rerouting, problem)
                assert got == rerouting_outcome(oracles.full_scan_rerouting, problem)
        assert plan.search_tables(0.9, True) is plan.search_tables(0.9, True)
    n, links = len(lsps), len(topo.links)
    assert built == [n, n, n + links, n + links] * 2


def kernel_only_outcome(problem, spent):
    """The solver's outcome with every part searched by the kernel, as before a
    part whose flows all stay on their old LSPs was taken without search."""
    return rerouting_outcome(lambda p: oracles.full_scan_rerouting(
        p, functools.partial(oracles.kernel_parts, spent=spent)), problem)


def test_parts_whose_flows_all_stay_match_the_kernel_only_reference():
    # Rates are scaled so that some parts keep every flow, some must move one and
    # some instances are infeasible. The outcome must be the kernel-only one. A part
    # the kernel proves at 0 changes is kept and counts len(part) + 1 nodes instead
    # of the kernel's; one node less of budget leaves the answer unproven.
    rng = np.random.default_rng(61)
    seen = Counter()
    for k in range(600):
        if k % 2:
            topo_r, flows, lsps, fr_old, _ = oracles.random_multipair_rerouting_instance(
                rng, 4, 3)
        else:
            topo_r, flows, lsps, fr_old, _, _ = oracles.random_rerouting_instance(rng, 6, 4)
        scale = (0.2, 0.5, 1.0)[k % 3]
        flows = tuple(f._replace(rate=f.rate * scale) for f in flows)
        for mode in RoutingMode:
            problem = ht.ReroutingProblem(flows, lsps, fr_old, mode, topology=topo_r)
            spent = []
            got = rerouting_outcome(ht.solve_flow_rerouting, problem)
            expect = kernel_only_outcome(problem, spent)
            if len(expect) == 2:
                assert got == expect, (k, mode)
                seen["infeasible"] += 1
                continue
            kept = [(size, nodes) for size, nodes, cost in spent if cost == 0]
            nodes = expect[4] + sum(size + 1 - nodes for size, nodes in kept)
            assert got == (*expect[:4], nodes), (k, mode)
            seen["kept"] += len(kept)
            seen["searched"] += len(spent) - len(kept)
            capped = dataclasses.replace(problem, node_budget=nodes)
            assert rerouting_outcome(ht.solve_flow_rerouting, capped) == got, (k, mode)
            short = rerouting_outcome(ht.solve_flow_rerouting,
                                      dataclasses.replace(problem, node_budget=nodes - 1))
            assert short[1 if len(short) == 2 else 3] is False, (k, mode)  # proven / optimal
    assert seen["kept"] >= 500 and seen["searched"] >= 50 and seen["infeasible"] >= 200, seen


def test_a_part_whose_flows_all_stay_costs_its_descent():
    # From its own answer every part of this 3-pair instance stays where it is:
    # no search runs, each part counts its len(part) + 1 nodes, and one node less of
    # budget leaves the last part unproven, as the kernel's descent would.
    for mode in ("reserved", "unreserved"):
        first = ht.solve_flow_rerouting(pinned_instance("multi", 4, 1795, mode))
        problem = pinned_instance("multi", 4, 1795, mode)
        problem = dataclasses.replace(problem, fr_old=first.assignment)
        sizes = Counter((f.src, f.dst) for f in problem.flows)
        assert len(sizes) == 3
        with mock.patch.object(rerouting.Search, "run", side_effect=AssertionError("searched")):
            sol = ht.solve_flow_rerouting(problem)
        assert (sol.assignment, sol.changes, sol.optimal) == (first.assignment, 0, True)
        assert sol.nodes_explored == sum(n + 1 for n in sizes.values())
        with pytest.raises(Infeasible) as exc:
            ht.solve_flow_rerouting(dataclasses.replace(
                problem, node_budget=sol.nodes_explored - 1))
        assert not exc.value.proven


def all_stay_instances():
    """Each multi-pair pinned instance, in both modes, re-solved from its own answer:
    every flow stays where that answer put it."""
    for key in PINNED:
        if key[0] == "multi":
            first = ht.solve_flow_rerouting(pinned_instance(*key))
            yield key, dataclasses.replace(pinned_instance(*key), fr_old=first.assignment)


def test_an_instance_whose_flows_all_stay_takes_one_fit_check():
    # No search and no per-part keep runs: one keep of every flow, part by part, counts
    # the len(part) + 1 nodes of each part. At that budget the answer is the same; one
    # node less fails that keep and takes the per-part path, which keeps all parts but
    # the last and runs out of budget on it, unproven.
    keep = rerouting.Search.keep
    for key, problem in all_stay_instances():
        by_pair = {}
        for f in sorted(problem.flows, key=lambda f: f.id):
            by_pair.setdefault((f.src, f.dst), []).append(f.rate)
        parts = [by_pair[pair] for pair in sorted(by_pair)]
        every = [rate for part in parts for rate in part]
        nodes = len(every) + len(parts)
        kept = []

        def spy(search, items, n):
            kept.append(([demand for _, demand in items], n))
            return keep(search, items, n)

        with mock.patch.object(rerouting.Search, "run", side_effect=AssertionError("searched")), \
                mock.patch.object(rerouting.Search, "keep", spy):
            for budget in (500_000, nodes):
                kept.clear()
                sol = ht.solve_flow_rerouting(dataclasses.replace(problem, node_budget=budget))
                got = (sol.assignment, list(sol.assignment), sol.changes, sol.optimal,
                       sol.nodes_explored)
                assert got == (problem.fr_old, sorted(problem.fr_old), 0, True, nodes), key
                assert kept == [(every, len(parts))], key
        kept.clear()
        with mock.patch.object(rerouting.Search, "keep", spy):
            with pytest.raises(Infeasible) as exc:
                ht.solve_flow_rerouting(dataclasses.replace(problem, node_budget=nodes - 1))
        assert not exc.value.proven, key
        assert kept == [(every, len(parts))] + [(part, 1) for part in parts], key


def test_pairs_that_fit_alone_but_overload_a_shared_link_are_searched(topo):
    # Flows 0->2 and 1->2 stay on their upper-plane LSPs, each fitting alone, but
    # together they put 100 units on links 4->6 and 6->2 (headroom 90). The one fit
    # check fails, both pairs are kept on the per-part path, and the joint search
    # moves a flow, as the kernel-only reference does.
    lsps = (ht.build_lsp(topo, [0, 4, 6, 2], 60.0, 0), ht.build_lsp(topo, [0, 5, 7, 2], 60.0, 1),
            ht.build_lsp(topo, [1, 4, 6, 2], 60.0, 2), ht.build_lsp(topo, [1, 5, 7, 2], 60.0, 3))
    flows = (ht.Flow(0, 0, 2, 50.0, 9.0), ht.Flow(1, 1, 2, 50.0, 9.0))
    problem = ht.ReroutingProblem(flows, lsps, {0: 0, 1: 2}, RoutingMode.UNRESERVED,
                                  topology=topo)
    run = rerouting.Search.run
    searched = []

    def spy(search, order, demand, options):
        searched.append(order)
        return run(search, order, demand, options)

    with mock.patch.object(rerouting.Search, "run", spy):
        got = rerouting_outcome(ht.solve_flow_rerouting, problem)
    assert searched == [[0, 1]]
    expect = rerouting_outcome(
        lambda p: oracles.full_scan_rerouting(p, oracles.kernel_parts), problem)
    assert got == expect
    assert got[:4] == ({0: 0, 1: 3}, [0, 1], 1, True)


@pytest.mark.parametrize("budget, message", [
    (math.nan, "node_budget must be an integer"),
    (True, "node_budget must be an integer"),
    (2.0, "node_budget must be an integer"),
    (0, "node_budget must be at least 1"),
])
def test_node_budget_must_be_an_integer_of_at_least_1(budget, message):
    # A NaN budget compares false with every node count, so it searched without
    # limit and reported the answer as proven; True counted as a budget of 1.
    for mode in RoutingMode:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ht.solve_flow_rerouting(pinned_instance("multi", 4, 1795, mode.value,
                                                    node_budget=budget))


def test_a_pair_room_counts_an_lsp_of_negative_capacity_as_none(topo):
    # A hand-made LSP of capacity -5 beside one of 10 leaves the pair 10 units of room,
    # not 5, so 8 units of flow pass the pre-check and fit on the first LSP.
    lsps = (ht.build_lsp(topo, [0, 4, 1], 10.0, 0), ht.Lsp(1, 0, 1, ((0, 5), (5, 1)), -5.0, 2.0))
    flows = (ht.Flow(0, 0, 1, 4.0, 4.0), ht.Flow(1, 0, 1, 4.0, 4.0))
    for mode in RoutingMode:
        plan = LspPlan(lsps, topo)
        assert plan.search_tables(0.9, mode is RoutingMode.UNRESERVED)[2] == {
            (0, 1): 10.0 + 1e-8}
        sol = ht.solve_flow_rerouting(ht.ReroutingProblem(flows, plan, {0: 1, 1: 1}, mode,
                                                          topology=topo))
        assert (sol.assignment, sol.changes, sol.optimal) == ({0: 0, 1: 0}, 2, True)


def test_an_old_lsp_of_another_pair_is_left(topo):
    # LSP 1 (0 -> 2) has room, but flow 0 (0 -> 1) only shares its source and flow 1
    # (1 -> 2) only its destination: neither may stay on it, alone or together.
    lsps = (ht.build_lsp(topo, [0, 4, 1], 10.0, 0), ht.build_lsp(topo, [0, 4, 6, 2], 10.0, 1),
            ht.build_lsp(topo, [1, 4, 6, 2], 10.0, 2))
    flows = (ht.Flow(0, 0, 1, 1.0, 100.0), ht.Flow(1, 1, 2, 1.0, 100.0))
    for mode in RoutingMode:
        for which in ([0], [1], [0, 1]):
            sol = ht.solve_flow_rerouting(ht.ReroutingProblem(
                tuple(flows[i] for i in which), lsps, dict.fromkeys(which, 1), mode,
                topology=topo))
            assert (sol.assignment, sol.changes, sol.optimal) == (
                {i: (0, 2)[i] for i in which}, len(which), True)


@pytest.mark.parametrize("rate", [math.nan, -60.0])
def test_a_rate_below_0_or_nan_is_not_kept_by_the_joint_fit_check(rate):
    # Pair 1->2's two 50-unit flows overload link 3->2 (headroom 90) alone, so the
    # instance is infeasible. Placed first on that link, a NaN or negative rate of
    # pair 0->2 would let one joint pass fit them; the answer stays the per-part one.
    topo = NetworkTopology(5, tuple(Link(a, b, 100.0, 1.0) for a, b in
                                    ((0, 3), (1, 3), (1, 4), (4, 3), (3, 2))), frozenset(range(5)))
    lsps = (ht.build_lsp(topo, [0, 3, 2], 100.0, 0), ht.build_lsp(topo, [1, 3, 2], 100.0, 1),
            ht.build_lsp(topo, [1, 4, 3, 2], 100.0, 2))
    flows = (ht.Flow(0, 0, 2, rate, 9.0), ht.Flow(1, 1, 2, 50.0, 9.0), ht.Flow(2, 1, 2, 50.0, 9.0))
    problem = ht.ReroutingProblem(flows, lsps, {0: 0, 1: 1, 2: 2}, RoutingMode.UNRESERVED,
                                  topology=topo)
    got = rerouting_outcome(ht.solve_flow_rerouting, problem)
    assert got == rerouting_outcome(oracles.full_scan_rerouting, problem)
    assert got == ("no assignment satisfies capacity and delay", True)
