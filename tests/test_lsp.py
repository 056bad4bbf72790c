import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hybridte as ht
from hybridte.errors import ConfigError, Infeasible, InvalidPathError, ValidationError
from hybridte.lsp import LspPlan
from hybridte.orchestrator import initial_assignment
from hybridte.rerouting import RoutingMode

import oracles


@pytest.fixture
def topo():
    return ht.reference_topology()


def test_build_lsp_basics(topo):
    l = ht.build_lsp(topo, [0, 4, 6, 2], 25.0, 3)
    assert l.id == 3
    assert (l.src, l.dst) == (0, 2)
    assert l.links == ((0, 4), (4, 6), (6, 2))
    assert l.prop_delay == 3.0
    assert len(l.links) == 3


@pytest.mark.parametrize("path", [
    [0],
    [0, 6],           # no such link
    [0, 4, 0],        # repeated node
    [0, 4, 6, 4, 1],  # repeated node mid-path
])
def test_build_lsp_rejects_bad_paths(topo, path):
    with pytest.raises(InvalidPathError):
        ht.build_lsp(topo, path, 5.0)


def test_build_lsp_rejects_bad_capacity(topo):
    with pytest.raises(ValidationError):
        ht.build_lsp(topo, [0, 4, 1], 0.0)


def test_routing_tensor(topo):
    # The re-routing problem's routing is read from its LSPs, keyed by id;
    # the ids need not be 0..n-1.
    lsps = (ht.build_lsp(topo, [0, 4, 1], 5.0, 0), ht.build_lsp(topo, [0, 5, 7, 2], 5.0, 3))
    problem = ht.ReroutingProblem(flows=(), lsps=lsps, fr_old={})
    assert problem.routing == {0: ((0, 4), (4, 1)), 3: ((0, 5), (5, 7), (7, 2))}
    with pytest.raises(AttributeError):
        problem.routing = {}
    with pytest.raises(TypeError):
        ht.ReroutingProblem(flows=(), lsps=lsps, fr_old={}, routing=problem.routing)


def test_plan_holds_the_lsps_in_id_order_and_compares_as_their_tuple(topo):
    a, b, c = (ht.build_lsp(topo, [0, 4, 1], 5.0, 2), ht.build_lsp(topo, [2, 6, 3], 5.0, 0),
               ht.build_lsp(topo, [0, 5, 1], 5.0, 1))
    plan = LspPlan((a, b, c), topo)
    assert tuple(l.id for l in plan) == (0, 1, 2)
    assert plan == (b, c, a) and plan == LspPlan([c, a, b]) and plan != (a, b, c)
    assert plan.by_id == {0: b, 1: c, 2: a}
    assert plan.pairs == {(0, 1): (c, a), (2, 3): (b,)}
    with pytest.raises(AttributeError):
        plan.pairs = {}


def test_plan_answers_each_admissible_lookup_once(topo):
    plan = LspPlan((ht.build_lsp(topo, [0, 4, 6, 3, 7, 5, 1], 9.0, 0),  # delay 6
                    ht.build_lsp(topo, [0, 5, 1], 9.0, 3),
                    ht.build_lsp(topo, [0, 4, 1], 5.0, 1),
                    ht.build_lsp(topo, [2, 6, 3], 9.0, 2)))
    assert [l.id for l in plan.admissible(0, 1, 3.0)] == [1, 3]
    assert [l.id for l in plan.admissible(0, 1, math.inf)] == [0, 1, 3]
    assert plan.admissible(0, 1, 3.0) is plan.admissible(0, 1, 3.0)
    assert plan.admissible(1, 0, 9.0) == () and plan.admissible(0, 1, 1.0) == ()


@pytest.mark.parametrize("message", ["duplicate LSP ids", "LSP 7 uses nonexistent link (0, 99)"])
def test_plan_checks_ids_and_links_when_built(topo, message):
    good = ht.build_lsp(topo, [0, 4, 1], 5.0, 0)
    # Two LSPs over missing links: the first one listed is named, not the smallest id.
    bad = (ht.Lsp(7, 0, 1, ((0, 99),), 1.0, 1.0), ht.Lsp(3, 0, 1, ((0, 98),), 1.0, 1.0))
    lsps = (good, good) if message.startswith("duplicate") else (good, *bad)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        LspPlan(lsps, topo)
    if bad[0] in lsps:
        assert LspPlan(lsps) == (good, bad[1], bad[0])  # no topology, no link check


def test_a_plan_is_kept_for_the_topology_it_was_checked_against(topo):
    lsps = (ht.build_lsp(topo, [0, 4, 1], 5.0, 0),)
    plan = LspPlan(lsps, topo)
    assert LspPlan(plan) is plan and LspPlan(plan, topo) is plan
    assert LspPlan(plan, ht.reference_topology()) is plan  # an equal topology
    for other in (LspPlan(LspPlan(lsps), topo), LspPlan(plan, ht.reference_topology(5.0)),
                  LspPlan(lsps, topo)):
        assert other == plan and other is not plan


FAULTS = ("duplicate LSP id", "duplicate flow id", "missing flow", "unknown LSP",
          "nonexistent link", "tight delay", "headroom outside (0, 1]")


def outcome(call):
    """The call's result, or its error's type, text and, for Infeasible, proof flag."""
    try:
        return call()
    except (ValidationError, ConfigError) as exc:
        return type(exc).__name__, str(exc)
    except Infeasible as exc:
        return "Infeasible", str(exc), exc.proven


def outcomes(topo, flows, lsps, fr_old, mu, budget, plan):
    """What `ffr`, both re-routing modes and `initial_assignment` return for the LSPs
    `plan(checked)`, where `checked` is the topology the callee checks links against."""
    def rerouted(mode):
        unreserved = mode == RoutingMode.UNRESERVED
        sol = ht.solve_flow_rerouting(ht.ReroutingProblem(
            flows, plan(topo if unreserved else None), fr_old, mode, mu, topo, budget))
        return sol.assignment, list(sol.assignment), sol.changes, sol.optimal, sol.nodes_explored

    def greedy():
        res = ht.ffr(flows, plan(topo), fr_old, topo, mu)
        return (res.assignment, list(res.assignment), res.recreation_requests,
                res.augmentations, res.examinations, res.placed)

    def initial():
        got = initial_assignment(flows, plan(None))
        return got, list(got)

    return [outcome(greedy), *(outcome(lambda: rerouted(m)) for m in RoutingMode),
            outcome(initial)]


def broken(topo, flows, lsps, fr_old, mu, faults):
    """The instance and headroom with each named fault put in."""
    lsps, flows, fr_old = list(lsps), list(flows), dict(fr_old)
    if "headroom outside (0, 1]" in faults:
        mu = math.nan
    if "duplicate LSP id" in faults and len(lsps) > 1:
        lsps[-1] = dataclasses.replace(lsps[-1], id=lsps[0].id)
    if "nonexistent link" in faults:  # node_count names no node
        lsps[0] = dataclasses.replace(lsps[0], links=lsps[0].links + ((0, topo.node_count),))
    if flows and "duplicate flow id" in faults:
        flows.append(flows[0])
    if flows and "missing flow" in faults:
        del fr_old[flows[-1].id]
    if flows and "unknown LSP" in faults:
        fr_old[flows[0].id] = max(l.id for l in lsps) + 1
    if "tight delay" in faults:
        flows = [f._replace(max_delay=f.max_delay * 0.3) if f.id % 3 == 1 else f for f in flows]
    return tuple(flows), tuple(lsps), fr_old, mu


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), faults=st.sets(st.sampled_from(FAULTS), max_size=2),
       mu=st.sampled_from([0.9, 0.6, 1.0]), scale=st.sampled_from([1.0, 0.5, 0.25]),
       budget=st.sampled_from([500, 12]))
def test_a_plan_gives_what_a_plain_shuffled_tuple_gives(seed, faults, mu, scale, budget):
    # Shuffled ids, so the plan's id order differs from the tuple's listing order. The
    # instance's rates are scaled down too, so that the exact solver has room to move flows.
    rng = np.random.default_rng(seed)
    topo = oracles.random_topology(rng)
    flows, lsps, fr_old = oracles.shuffled_plan_instance(rng, topo)
    flows = tuple(f._replace(rate=f.rate * scale) for f in flows)
    flows, lsps, fr_old, mu = broken(topo, flows, lsps, fr_old, mu, faults)
    assert outcomes(topo, flows, lsps, fr_old, mu, budget, lambda checked: lsps) == outcomes(
        topo, flows, lsps, fr_old, mu, budget, lambda checked: LspPlan(lsps, checked))
