"""The `--dump-lp` renderer against json's own encoder on the same document
(`oracles.rerouting_dump`, `oracles.recreation_dump`): the text must match
byte for byte."""

import ast
import dataclasses
import enum
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridte as ht
from hybridte import dumps, lsp, orchestrator, traffic
from hybridte.dumps import recreation_to_json, rerouting_to_json, scalar
from hybridte.lsp import Lsp, LspPlan
from hybridte.rerouting import ReroutingSolution, RoutingMode
from hybridte.traffic import Flow

import oracles
from test_orchestrator import CONTESTED_PLANS, contested_plan_config, parse_events
from test_same_outputs import write_matrix_scenarios


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


def test_only_dumps_knows_the_dump_format():
    # The flow, LSP and solver modules import nothing from `dumps`, and `lsp` nothing
    # from `recreation`: the format and the text kept for a run's objects are `dumps`' alone.
    def imported(node):
        if isinstance(node, ast.ImportFrom):
            return [node.module] if node.module else [a.name for a in node.names]
        return [a.name for a in node.names] if isinstance(node, ast.Import) else []

    src = Path(ht.__file__).parent
    for name in ("traffic", "lsp", "recreation", "rerouting"):
        modules = {m.rpartition(".")[2] for node in ast.walk(ast.parse((src / f"{name}.py").read_text()))
                   for m in imported(node)}
        assert "dumps" not in modules, name
        assert name != "lsp" or "recreation" not in modules


def test_a_kept_routing_reuses_the_old_routing_text(monkeypatch):
    # A solution whose routing is the old routing itself, as the solver returns a kept
    # tuple, is written from the old routing's text one level deeper, so only the old
    # routing is rendered; a plan's routing keeps it in its memo, rendered once however
    # often it is written.
    rendered = []
    routes = dumps.routes
    monkeypatch.setattr(dumps, "routes",
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
        assert again.routing is problem.lr_old
        rendered.clear()
        check_recreation(problem, again)
        assert rendered == [problem.lr_old]
        kept_problem = dataclasses.replace(problem, lr_old=lsp.PlanRouting(problem.lr_old))
        for _ in range(2):
            check_recreation(kept_problem, ht.solve_lsp_recreation(kept_problem))
        assert rendered == [problem.lr_old] * 2
        kept += 1
    assert kept >= 20
    for lr_old in (None, ()):
        check_recreation(ht.RecreationProblem((), ht.reference_topology(), lr_old),
                         ht.RecreationSolution((), 0, True, 1))
    # A routing equal to the old one but not it, here by a node 0.0 for 0, is its own text.
    check_recreation(ht.RecreationProblem((ht.LspRequest(0, 1, 1.0),), ht.reference_topology(),
                                          (((0, 4), (4, 1)),)),
                     ht.RecreationSolution((((0.0, 4), (4, 1)),), 0, True, 1))


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


def test_id_map_names_are_escaped_as_json_writes_them():
    # A quote, a backslash and a control character are escaped, and a non-ASCII
    # character is written as its \u escape, so the dump stays valid JSON.
    fr_old = {'a"b': 0, "é": 1, "c\\d": 2, "e\x01f": 3, 4: 4}
    problem = ht.ReroutingProblem((), (), fr_old)
    check_rerouting(problem)
    check_rerouting(problem, ReroutingSolution(fr_old, 0, True, 1))
    assert json.loads(rerouting_to_json(problem))["old_assignment"] \
        == {str(k): v for k, v in fr_old.items()}


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


def test_lsp_records_are_rendered_once_per_object(monkeypatch):
    # A plan's `lsps` list is rendered once per plan and kept in its memo, which leaves
    # the plan comparing as the tuple of its LSPs. A plain tuple has no memo: its list is
    # rendered on every call. A copy of an LSP is a new plan's, with its own text.
    built = []
    records = dumps.lsp_records
    monkeypatch.setattr(dumps, "lsp_records", lambda lsps: built.append(lsps) or records(lsps))
    topo = ht.reference_topology()
    one = ht.build_lsp(topo, [0, 4, 1], 5.0, 0)
    plan = LspPlan((one,), topo)
    problem = ht.ReroutingProblem((Flow(0, 0, 1, 1.0, 9.0),), plan, {0: 0})
    for lsps in (plan, (one,), plan, (one,)):
        check_rerouting(dataclasses.replace(problem, lsps=lsps))
    assert [type(lsps) for lsps in built] == [LspPlan, tuple, tuple]
    assert plan == (one,) and hash(plan) == hash((one,))
    assert plan._kept["lsps"] in rerouting_to_json(problem)
    wider = LspPlan((dataclasses.replace(one, capacity=7.5),), topo)
    check_rerouting(dataclasses.replace(problem, lsps=wider))
    assert '"capacity": 7.5' in wider._kept["lsps"] and '"capacity": 5.0' in plan._kept["lsps"]


# -- the fragment caches in `hybridte.dumps` --

class Node(enum.IntEnum):
    ZERO = 0
    ONE = 1
    FIVE = 5


# Values equal in pairs or triples (0 == 0.0 == -0.0 == False, 1 == 1.0 == True,
# 5 == 5.0) but written differently. Each cache must tell them apart.
EQUAL_BUT_APART = [0, 0.0, -0.0, False, Node.ZERO, np.float64(0.0), np.float64(-0.0),
                   1, 1.0, True, Node.ONE, np.float64(1.0), 5, 5.0, Node.FIVE, math.nan,
                   math.inf]


def caches():
    found = [v for v in vars(dumps).values() if hasattr(v, "cache_clear")]
    assert len(found) == 2  # a new cache is cleared and overflowed below too
    return found


def edge_case_problems():
    """Problems that differ only in one value taken from EQUAL_BUT_APART, in each
    field of a flow (so also in an id-map key), of an LSP or of a re-creation request,
    and in node ids of an LSP's links and of the old and the solved routing."""
    topo = ht.reference_topology()
    base = Lsp(0, 0, 1, ((0, 4), (4, 1)), 8.0, 2.0)
    for v in EQUAL_BUT_APART:
        for field in Flow._fields:
            flow = Flow(7, 2, 3, 1.5, 4.0)._replace(**{field: v})
            yield ht.ReroutingProblem((flow, Flow(2, 0, 1, 0.5, 6.0)), (base,),
                                      {flow.id: 0, 2: 0}, mu=0.5)
        for field in ("id", "src", "dst", "capacity", "prop_delay", "links"):
            value = ((v, 4), (4, 1)) if field == "links" else v
            yield ht.ReroutingProblem((), (dataclasses.replace(base, **{field: value}),), {})
        for field in ht.LspRequest._fields:
            request = ht.LspRequest(2, 3, 5.0, 4.0)._replace(**{field: v})
            routing = (((v, 4), (4, 1)), ((2, 6), (6, v)))
            yield ht.RecreationProblem((ht.LspRequest(0, 2, 5), request), topo, routing)
            yield ht.RecreationProblem((request,), topo, ((), ((v, 1),)))


def check_with_and_without_a_solution(problem):
    if isinstance(problem, ht.ReroutingProblem):
        check_rerouting(problem)
        check_rerouting(problem, ReroutingSolution(dict(problem.fr_old), 0, True, 1))
    else:
        check_recreation(problem)
        check_recreation(problem, ht.RecreationSolution(problem.lr_old[::-1], 2, False, 3))


def test_equal_values_of_other_types_or_signs_render_apart_in_one_process():
    problems = list(edge_case_problems())
    for cold in (True, False):
        for order in (problems, problems[::-1]):
            if cold:
                for cache in caches():
                    cache.cache_clear()
            for problem in order:
                check_with_and_without_a_solution(problem)
    # What a cache keyed by value alone gets wrong: -0.0 and 5 written as the
    # 0.0 and 5.0 they equal, when rendered after them.
    for first, then in ((0.0, -0.0), (5.0, 5), (1, True), (1.0, Node.ONE)):
        for field in ("max_delay", "rate", "id", "src"):
            for v in (first, then):
                check_rerouting(ht.ReroutingProblem(
                    (Flow(7, 2, 3, 1.5, 4.0)._replace(**{field: v}),), (), {}))
        for field in ("capacity", "delay_budget", "src"):
            for v in (first, then):
                check_recreation(ht.RecreationProblem(
                    (ht.LspRequest(2, 3, 5.0, 4.0)._replace(**{field: v}),), None))


RATES = EQUAL_BUT_APART + [-math.inf]  # NaN, +inf and -0.0 are in it already


def exact(v, kind):
    """The value of `kind` (int or float) equal to `v`; an int field keeps NaN and +inf."""
    return kind(v) if kind is float or v - v == 0 else v


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(rows=st.lists(st.tuples(*[st.sampled_from(EQUAL_BUT_APART)] * 4, st.sampled_from(RATES)),
                     min_size=1, max_size=3))
def test_flow_templates_keep_equal_values_of_other_types_or_signs_apart(rows):
    # From drawn (id, src, dst, max_delay, rate) rows: the population with every field of
    # its exact type, which a flow template may serve, and beside it each copy with one
    # field of one flow replaced by a value equal to it, of another type or sign. Rendered
    # in both orders in one process, each must be what json writes; a template keyed by
    # value alone would write, say, 5.0 as the 5 of a population rendered before it.
    kinds = (int, int, int, float, float)
    base = [tuple(map(exact, row, kinds)) for row in rows]
    populations = [base]
    for i, row in enumerate(base):
        for j, v in enumerate(row):
            for twin in (w for w in RATES if w == v or w is v):
                populations.append(base[:i] + [row[:j] + (twin,) + row[j + 1:]] + base[i + 1:])
    for cache in caches():
        cache.cache_clear()
    for order in (populations, populations[::-1]):
        for population in order:
            flows = tuple(Flow(fid, src, dst, rate, delay)
                          for fid, src, dst, delay, rate in population)
            problem = ht.ReroutingProblem(flows, (), {k: f.id for k, f in enumerate(flows)})
            check_rerouting(problem)
            check_rerouting(problem, ReroutingSolution(dict(problem.fr_old), 0, True, 1))


MATRIX_RUNS = [f"{name}-{mode.value}" for name in ("scenario1", "scenario3", "moving",
                                                   "shifting", "sharing") for mode in RoutingMode]


@pytest.fixture(scope="module")
def exact_runs(tmp_path_factory):
    """Every `exact` run with dumps of the equality matrix's (`tools/same_outputs.py`)
    scenario1, scenario3 and moving, shifting and sharing mini scenarios, in both modes at
    seeds 0-7, then every comparison of scenario1 and scenario3 (whose `ffr` and `exact`
    schemes share one plan) without dumps. Per run: `renders`, each (renderer, args,
    text); `files`, each dump file's name -> text (None for a comparison); and what it
    built of the text that the memos keep: `flow_texts`, the flows of each `flow_pieces`
    call, `lsps_texts`, the LSPs of each `lsp_records` call, and `routing_texts`, each
    (routing, indent) of a `routes` call."""
    root = tmp_path_factory.mktemp("matrix")
    write_matrix_scenarios(root)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("rerouting_to_json", "recreation_to_json"):
            def recording(*args, render=getattr(orchestrator, name)):
                runs[-1]["renders"].append((render, args, render(*args)))
                return runs[-1]["renders"][-1][2]

            mp.setattr(orchestrator, name, recording)
        pieces, records, routes = dumps.flow_pieces, dumps.lsp_records, dumps.routes
        mp.setattr(dumps, "flow_pieces", lambda ordered: runs[-1]["flow_texts"].append(
            ordered) or pieces(ordered))
        mp.setattr(dumps, "lsp_records", lambda lsps: runs[-1]["lsps_texts"].append(
            lsps) or records(lsps))
        mp.setattr(dumps, "routes", lambda routing, ind: runs[-1]["routing_texts"].append(
            (routing, ind)) or routes(routing, ind))
        for compare in (False, True):
            for name in MATRIX_RUNS[:4] if compare else MATRIX_RUNS:
                cfg = ht.load_scenario(str(root / "scenarios" / f"{name}.json"))
                for seed in range(8):
                    runs.append({"renders": [], "flow_texts": [], "lsps_texts": [],
                                 "routing_texts": [], "files": None})
                    if compare:
                        ht.run_comparison(dataclasses.replace(cfg, seed=seed))
                        continue
                    out = root / "out" / f"{name}-{seed}"
                    ht.run_scenario(dataclasses.replace(cfg, scheme="exact", seed=seed,
                                                        dump_dir=str(out)))
                    runs[-1]["files"] = {path.name: path.read_text() for path in out.iterdir()}
    return runs


def oracle_text(render, args):
    oracle = oracles.rerouting_dump if render is rerouting_to_json else oracles.recreation_dump
    return oracle(*args)


def test_exact_runs_dump_what_json_writes(exact_runs):
    # Each dump file of each run is json's text of a problem the run rendered; a reused
    # re-creation's text is written again unrendered. Among them are rounds on a plan
    # that a re-creation rebuilt, so that a later re-creation renders the new plan's
    # old routing, and a re-routing retry in the slot of a moved route.
    kinds = Counter()
    for run in exact_runs:
        for render, args, text in run["renders"]:
            assert text == oracle_text(render, args)
            kinds[render] += 1
        if run["files"] is None:
            continue
        assert set(run["files"].values()) == {text for _, _, text in run["renders"]}
        plans = {id(args[0].lr_old) for render, args, _ in run["renders"]
                 if render is recreation_to_json}
        kinds["rebuilt plan"] += len(plans) > 1
        kinds["retry"] += any(name.endswith("_reroute_retry.json") for name in run["files"])
    assert len(exact_runs) == 80 + 32
    assert kinds[rerouting_to_json] >= 700 and kinds[recreation_to_json] >= 100, kinds
    assert kinds["rebuilt plan"] and kinds["retry"], kinds


def test_a_run_builds_its_flow_text_once_and_each_plans_routing_text_once(exact_runs):
    # However many rounds a run or comparison renders, its population's text around the
    # rates is built once, and each plan's `lsps` list and old-routing text once, also
    # where two schemes render re-creations on one plan: each is kept in its object's
    # memo. Only a solution that moves a route is rendered afresh; one that keeps it is
    # the old routing's text one level deeper.
    repeated = Counter()
    for run in exact_runs:
        reroutings = [args for render, args, _ in run["renders"] if render is rerouting_to_json]
        recreations = [args for render, args, _ in run["renders"] if render is recreation_to_json]
        assert len(run["flow_texts"]) == (1 if reroutings else 0)
        assert all("flows" in args[0].flows._kept for args in reroutings)
        lsps = {id(args[0].lsps): args[0].lsps for args in reroutings}
        assert all(type(plan) is LspPlan for plan in lsps.values())
        assert sorted(map(id, run["lsps_texts"])) == sorted(lsps)
        plans = {id(args[0].lr_old): args[0].lr_old for args in recreations}
        assert all(type(old) is lsp.PlanRouting and "  " in old._kept for old in plans.values())
        built = [(id(routing), ind) for routing, ind in run["routing_texts"]]
        assert sorted(i for i, ind in built if ind == "  ") == sorted(plans)
        assert sum(ind == "    " for _, ind in built) == sum(
            len(args) > 1 and args[1].routing is not args[0].lr_old for args in recreations)
        repeated["reroutings"] += len(reroutings) > 1
        repeated["recreations"] += len(recreations) > len(plans)
    assert repeated["reroutings"] and repeated["recreations"], repeated


def test_a_hand_built_population_renders_what_json_writes():
    # A plain tuple out of id order, with an int delay bound, a -0.0 one and a NaN rate,
    # has no memo, so its text is built on each call; a population and its slots share
    # one. Maps keyed by other ids than the flows' (one more, one fewer, 2.0 for 2) are
    # written without the kept key order.
    flows = (Flow(5, 0, 1, math.nan, 3), Flow(2, 1, 0, 1.5, -0.0), Flow(10, 0, 1, 0.25, 4.0))
    lsps = (Lsp(0, 0, 1, ((0, 1),), 8.0, 1.0), Lsp(1, 1, 0, ((1, 0),), 8.0, 1.0))
    population = traffic.FlowPopulation(flows)
    slot = traffic.flows_at(population, np.array([0.5, -0.0, math.inf]))
    assert [f.rate for f in slot] == [0.5, -0.0, math.inf] and slot.unique
    assert slot._kept is population._kept
    for fr_old in ({5: 0, 2: 1, 10: 0}, {5: 0, 2: 1, 10: 0, 7: 1}, {5: 0, 2.0: 1, 10: 0},
                   {5: 0, 10: 0}):
        for now in (flows, population, slot, flows):
            problem = ht.ReroutingProblem(now, lsps, fr_old, mu=0.5)
            check_rerouting(problem)
            check_rerouting(problem, ReroutingSolution(fr_old, 0, True, 1))
    twins = (Flow(1, 0, 1, 1.0, 2.0), Flow(1.0, 0, 1, 1.0, 2.0))  # equal ids: not unique
    assert not traffic.FlowPopulation(twins).unique
    check_rerouting(ht.ReroutingProblem(twins, lsps, {1: 0}))


def test_cold_and_overflowed_caches_render_what_json_writes(exact_runs):
    renders = [render for run in exact_runs for render in run["renders"]]
    for cache in caches():
        cache.cache_clear()
        for render, args, text in renders:
            assert render(*args) == text
    # Overflow every cache with distinct keys, then render everything again.
    size = max(cache.cache_info().maxsize for cache in caches())
    topo = ht.reference_topology()
    requests = tuple(ht.LspRequest(i % 4, (i + 1) % 4, 1.0 + i, 9.0 + i) for i in range(size + 9))
    routing = tuple(((i, i + 1), (i + 1, i + 2)) for i in range(size + 9))
    check_recreation(ht.RecreationProblem(requests, topo, routing),
                     ht.RecreationSolution(routing[::-1], 0, True, 1))
    for cache in caches():
        info = cache.cache_info()
        assert info.currsize == info.maxsize, (cache, info)
    for render, args, text in renders:
        assert render(*args) == text


def dumped_paths(doc, assignment):
    """Each flow's links under `assignment` on the dumped instance `doc`'s LSPs."""
    links = {l["id"]: [tuple(pair) for pair in l["links"]] for l in doc["lsps"]}
    return {fid: links[lid] for fid, lid in assignment.items()}


@pytest.mark.parametrize("mode", list(RoutingMode))
def test_moved_routes_are_dumped_from_each_new_plan(monkeypatch, tmp_path, mode):
    # The "moving" plan's re-creations move routes, so later rounds run on new plans:
    # every written dump, each plan's `lsps` text included, is what json writes for the
    # instance. The link index is built at slot 0 and again exactly in the slots whose
    # rounds left the flows on other links, read from each slot's first and last dump.
    renders, built, sampled = [], [], []
    render, index, sample = (orchestrator.rerouting_to_json, orchestrator.link_index,
                             orchestrator.compute_sample)
    monkeypatch.setattr(orchestrator, "rerouting_to_json",
                        lambda *args: renders.append((args, render(*args))) or renders[-1][1])
    monkeypatch.setattr(orchestrator, "link_index",
                        lambda *a: built.append(len(sampled)) or index(*a))
    monkeypatch.setattr(orchestrator, "compute_sample",
                        lambda t, *a: sampled.append(t) or sample(t, *a))
    base = contested_plan_config(tmp_path, CONTESTED_PLANS["moving"])
    rebuilt, kept_links = 0, 0  # slots that moved a flow's links; that moved only a route
    for seed in range(4):
        renders.clear(), built.clear(), sampled.clear()
        lp = tmp_path / f"lp{seed}"
        events = parse_events(ht.run_scenario(dataclasses.replace(
            base, rerouting_mode=mode, seed=seed, dump_dir=str(lp))).events)
        dumps = sorted(lp.glob("*_reroute*.json"))
        assert sorted(path.read_text() for path in dumps) == sorted(text for _, text in renders)
        for args, text in renders:
            assert text == oracles.rerouting_dump(*args)
        docs = {}
        for path in dumps:  # slotNNN_reroute.json sorts before slotNNN_reroute_retry.json
            docs.setdefault(int(path.name[4:7]), []).append(json.loads(path.read_text()))
        moved, last = [], None
        for t in sorted(docs):
            first, final = docs[t][0], docs[t][-1]
            before = dumped_paths(first, first["old_assignment"])
            after = dumped_paths(final, final["solution"]["assignment"] if "solution" in final
                                 else final["old_assignment"])
            assert last is None or before == last, t
            last = after
            moved += [t] if after != before else []
        assert built == [0] + moved
        assert len(moved) < len(docs)  # most slots keep every path and skip the rebuild
        rebuilt += len(moved)
        kept_links += len({e["slot"] for e in events
                           if e.get("changed_entries", "0") != "0"} - set(moved))
        if moved:  # the rounds after a moved flow run on the new plan's LSP text
            assert len({id(args[0].lsps) for args, _ in renders}) == 2
    assert rebuilt and kept_links, (rebuilt, kept_links)
