"""The `--dump-lp` renderer against json's own encoder on the same document
(`oracles.rerouting_dump`, `oracles.recreation_dump`): the text must match
byte for byte."""

import dataclasses
import enum
import json
import math

import numpy as np
import pytest

import hybridte as ht
from hybridte import recreation
from hybridte.dumps import scalar
from hybridte.lsp import Lsp
from hybridte.recreation import recreation_to_json
from hybridte.rerouting import ReroutingSolution, RoutingMode, rerouting_to_json
from hybridte.traffic import Flow

import oracles


def solved(solve, problem):
    try:
        return solve(problem)
    except ht.Infeasible:
        return None


def check_rerouting(problem, solution=None):
    assert rerouting_to_json(problem, solution) == oracles.rerouting_dump(problem, solution)


def check_recreation(problem, solution=None):
    assert recreation_to_json(problem, solution) == oracles.recreation_dump(problem, solution)


class Level(enum.IntEnum):
    LOW = 3


@pytest.mark.parametrize("value", [None, True, False, 0, -3, 2**70, Level.LOW, 0.1, -0.0,
                                   1e300, 5e-324, 1.0, math.nan, math.inf, -math.inf,
                                   np.float64(0.5)])
def test_scalars_follow_json(value):
    assert scalar(value) == json.dumps(value)


def test_unencodable_scalars_raise_like_json():
    for value in (np.int64(1), object()):
        with pytest.raises(TypeError):
            json.dumps({"v": value}, indent=2)
        with pytest.raises(TypeError):
            scalar(value)


def test_random_single_pair_rerouting_dumps():
    for seed in range(60):
        topo, flows, lsps, fr_old, _, _ = oracles.random_rerouting_instance(
            np.random.default_rng(seed))
        for mode in RoutingMode:
            problem = ht.ReroutingProblem(flows, lsps, fr_old, mode, topology=topo)
            check_rerouting(problem)
            check_rerouting(problem, solved(ht.solve_flow_rerouting, problem))


def test_random_multipair_rerouting_dumps():
    for seed in range(60):
        topo, flows, lsps, fr_old, _ = oracles.random_multipair_rerouting_instance(
            np.random.default_rng(seed))
        for mode in RoutingMode:
            problem = ht.ReroutingProblem(flows, lsps, fr_old, mode, topology=topo)
            check_rerouting(problem)
            check_rerouting(problem, solved(ht.solve_flow_rerouting, problem))


def test_random_recreation_dumps():
    for seed in range(60):
        topo, requests, lr_old, mu = oracles.random_recreation_instance(
            np.random.default_rng(seed))
        for old in (lr_old, None):
            problem = ht.RecreationProblem(requests, topo, old, mu)
            check_recreation(problem)
            check_recreation(problem, solved(ht.solve_lsp_recreation, problem))


def test_a_kept_routing_reuses_the_old_routing_text(monkeypatch):
    # A solution that keeps the old routing is written from the old routing's
    # text one level deeper, so only the old routing is rendered.
    rendered = []
    routes = recreation.routes
    monkeypatch.setattr(recreation, "routes",
                        lambda routing, ind: rendered.append(routing) or routes(routing, ind))
    kept = 0
    for seed in range(60):
        topo, requests, lr_old, mu = oracles.random_recreation_instance(
            np.random.default_rng(seed))
        sol = solved(ht.solve_lsp_recreation, ht.RecreationProblem(requests, topo, lr_old, mu))
        if sol is None:
            continue
        problem = ht.RecreationProblem(requests, topo, sol.routing, mu)
        again = ht.solve_lsp_recreation(problem)
        assert again.routing == problem.lr_old
        rendered.clear()
        check_recreation(problem, again)
        assert rendered == [problem.lr_old]
        kept += 1
    assert kept >= 20
    for lr_old in (None, ()):
        check_recreation(ht.RecreationProblem((), ht.reference_topology(), lr_old),
                         ht.RecreationSolution((), 0, True, 1))


def test_rerouting_edge_cases():
    flows = (Flow(10, 0, 1, math.nan, math.inf), Flow(2, 0, 1, 3, -math.inf))
    lsps = (Lsp(1, 0, 1, ((0, 2), (2, 1)), 8, 2.0), Lsp(0, 0, 1, (), math.inf, math.nan))
    for mode in RoutingMode:
        problem = ht.ReroutingProblem(flows, lsps, {10: 0, 2: 1}, mode, mu=1, node_budget=7)
        check_rerouting(problem)
        check_rerouting(problem, ReroutingSolution({2: 0, 10: 1}, 2, False, 7))
        check_rerouting(problem, ReroutingSolution({}, 0, True, 0))
    empty = ht.ReroutingProblem((), (), {})
    check_rerouting(empty)
    check_rerouting(empty, ReroutingSolution({}, 0, True, 1))


def test_recreation_edge_cases():
    topo = ht.reference_topology()
    requests = (ht.LspRequest(0, 2, 5), ht.LspRequest(1, 3, math.nan, -math.inf),
                ht.LspRequest(2, 0, math.inf, math.nan), ht.LspRequest(3, 1, 0.25, 4.0))
    routing = (((0, 4), (4, 2)), (), ((2, 6), (6, 0)), ((3, 5), (5, 1)))
    for lr_old in (None, (), routing):
        problem = ht.RecreationProblem(requests, topo, lr_old, mu=1, path_limit=3)
        check_recreation(problem)
        check_recreation(problem, ht.RecreationSolution(routing, 4, False, 9))
        check_recreation(problem, ht.RecreationSolution((), 0, True, 1))
    # Only +inf, no budget at all, is null; -inf, which no path meets, is kept.
    budgets = [line.strip() for line in recreation_to_json(problem).splitlines()
               if '"delay_budget"' in line]
    assert budgets == ['"delay_budget": null,', '"delay_budget": -Infinity,',
                       '"delay_budget": NaN,', '"delay_budget": 4.0,']
    check_recreation(ht.RecreationProblem((), topo))


def test_lsp_records_are_rendered_once_per_object():
    topo = ht.reference_topology()
    lsp = ht.build_lsp(topo, [0, 4, 1], 5.0, 0)
    facts = (lsp, hash(lsp), repr(lsp), dataclasses.asdict(lsp))
    problem = ht.ReroutingProblem((Flow(0, 0, 1, 1.0, 9.0),), (lsp,), {0: 0})
    text = rerouting_to_json(problem)
    assert rerouting_to_json(problem) == text == oracles.rerouting_dump(problem)
    assert vars(lsp)["dump_record"] in text  # kept on the object after the first render
    assert (lsp, hash(lsp), repr(lsp), dataclasses.asdict(lsp)) == facts
    # A copy is a new object with its own record.
    wider = dataclasses.replace(lsp, capacity=7.5)
    check_rerouting(dataclasses.replace(problem, lsps=(wider,)))
    assert '"capacity": 7.5' in wider.dump_record and '"capacity": 5.0' in lsp.dump_record
    # Equal LSPs whose figures are of different types, or zeros of different
    # signs, render differently in one process.
    pairs = [(Lsp(1, 0, 1, ((0, 1),), 1, 0.0), Lsp(1, 0, 1, ((0, 1),), 1.0, -0.0)),
             (Lsp(2, 0, 1, ((0, 1),), True, 1), Lsp(2, 0, 1, ((0, 1),), 1.0, 1.0))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        for l in (a, b, a):
            check_rerouting(ht.ReroutingProblem((), (l,), {}))
    assert '"capacity": 1,' in pairs[0][0].dump_record
    assert '"capacity": 1.0,' in pairs[0][1].dump_record
    assert '"prop_delay": -0.0,' in pairs[0][1].dump_record
    assert '"capacity": true,' in pairs[1][0].dump_record
