import dataclasses
import hashlib
import json
import math
import os
import re
from collections import Counter

import numpy as np
import pytest

import hybridte as ht
from hybridte import orchestrator
from hybridte.cli import main
from hybridte.errors import NUMBER, ConfigError, ParseError, ValidationError
from hybridte.lsp import LspPlan
from hybridte.orchestrator import SCHEMES, load_lsp_plan_file
from hybridte.rerouting import RoutingMode
from hybridte.topology import _LINK_FIELDS, _TOPOLOGY_FIELDS

import oracles
from test_recreation import ring, ring14

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario_path(name):
    return os.path.join(SCENARIO_DIR, name)


def parse_events(events):
    out = []
    for line in events:
        fields = dict(tok.split("=", 1) for tok in line.split())
        fields["slot"] = int(fields["slot"])
        out.append(fields)
    return out


# -- mini network used by the crafted runs: two edge nodes, two cores --

MINI_TRAFFIC = {
    "demand_fraction": 0.04,
    "flow_intensity": 0.8,
    "max_flows_per_source": 1,
    "growth_max": 0.10,
    "delay_stretch": 2.0,
}


def write_mini_files(tmp_path, bandwidth=100.0, lsp_cap=8.0, plan=None, **scenario_overrides):
    topo_doc = {"nodes": 4, "edge_nodes": [0, 1], "links": []}
    for a, b in ((0, 2), (2, 1), (0, 3), (3, 1)):
        topo_doc["links"].append({"src": a, "dst": b, "bandwidth": bandwidth, "delay": 1.0})
        topo_doc["links"].append({"src": b, "dst": a, "bandwidth": bandwidth, "delay": 1.0})
    (tmp_path / "topo.json").write_text(json.dumps(topo_doc))
    plan = plan or (([0, 2, 1], lsp_cap), ([1, 2, 0], lsp_cap))
    plan_doc = {"lsps": [{"path": p, "capacity": cap} for p, cap in plan]}
    (tmp_path / "plan.json").write_text(json.dumps(plan_doc))
    scenario = {
        "topology": "topo.json",
        "scheme": "exact",
        "slots": 12,
        "seed": 5,
        "mu_trigger": 0.001,
        "mu_headroom": 0.9,
        "rerouting_interval": 5,
        "lsp_plan": {"kind": "file", "path": "plan.json"},
        "traffic": MINI_TRAFFIC,
    }
    scenario.update(scenario_overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def test_single_slot_is_initial_placement_only():
    cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario1.json")),
                              slots=1, seed=4)
    result = ht.run_scenario(cfg)
    assert len(result.samples) == 1
    assert result.samples[0].slot == 0
    kinds = {e["event"] for e in parse_events(result.events)}
    assert kinds == {"init", "plan"}


def test_run_is_deterministic():
    cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario3.json")), seed=6)
    a = ht.run_scenario(cfg)
    b = ht.run_scenario(cfg)
    assert a.samples == b.samples
    assert a.events == b.events
    assert a.config_echo == b.config_echo


def test_trigger_exactly_when_threshold_or_period():
    cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario3.json")), seed=2)
    result = ht.run_scenario(cfg)
    checks = [e for e in parse_events(result.events) if e["event"] == "check"]
    assert [e["slot"] for e in checks] == list(range(1, cfg.slots))
    for e in checks:
        periodic = e["slot"] % cfg.rerouting_interval == 0
        expect = float(e["max_util"]) > cfg.mu_trigger or periodic
        assert e["periodic"] == str(periodic)
        assert e["trigger"] == str(expect)


def test_reroute_happens_exactly_on_triggered_slots():
    for scheme in ("ffr", "exact"):
        cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario4.json")),
                                  seed=9, scheme=scheme)
        events = parse_events(ht.run_scenario(cfg).events)
        triggered = {e["slot"] for e in events
                     if e["event"] == "check" and e["trigger"] == "True"}
        rerouted = {e["slot"] for e in events
                    if e["event"] in ("reroute", "reroute_infeasible")}
        assert rerouted == triggered


def test_recreation_only_after_flow_level_failure():
    for scheme in ("ffr", "exact"):
        for seed in range(1, 6):
            cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario3.json")),
                                      seed=seed, scheme=scheme)
            events = parse_events(ht.run_scenario(cfg).events)
            failed = set()
            for e in events:
                if e["event"] == "reroute_infeasible":
                    failed.add(e["slot"])
                if e["event"] == "reroute" and int(e.get("parked", 0)) > 0:
                    failed.add(e["slot"])
            recreated = {e["slot"] for e in events
                         if e["event"].startswith("recreate")}
            assert recreated == failed


def test_baseline_never_reroutes():
    cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario3.json")),
                              seed=4, scheme="shortest_path")
    result = ht.run_scenario(cfg)
    kinds = {e["event"] for e in parse_events(result.events)}
    assert kinds == {"init"}
    # static paths: length never changes
    lens = {s.avg_path_length for s in result.samples}
    assert len(lens) == 1


def test_recreation_fires_at_the_replayed_overflow_slot(tmp_path):
    path = write_mini_files(tmp_path)
    cfg = ht.load_scenario(path)
    topo = ht.load_topology_file(cfg.topology_path)
    flows = ht.generate_flows(topo, cfg.traffic, cfg.seed)
    assert len(flows) == 2 and {f.src for f in flows} == {0, 1}
    # replay the growth stream to find the first slot where a flow outgrows
    # its only admissible LSP
    overflow_slot = None
    rates = np.array([f.rate for f in flows])
    growth = ht.growth_block(cfg.traffic.growth_max, cfg.seed, cfg.slots, len(flows))
    for t in range(1, cfg.slots):
        rates = ht.grow_flows(rates, growth[t - 1])
        if overflow_slot is None and np.any(rates > 8.0):
            overflow_slot = t
    assert overflow_slot is not None, "pick a seed whose flows overflow in range"

    events = parse_events(ht.run_scenario(cfg).events)
    recreated = sorted(e["slot"] for e in events if e["event"] == "recreate")
    infeasible = sorted(e["slot"] for e in events if e["event"] == "reroute_infeasible")
    assert infeasible and infeasible[0] == overflow_slot
    assert recreated and recreated[0] == overflow_slot
    assert all(s >= overflow_slot for s in recreated)
    # the two parallel paths never compete for a link, so the old routing is
    # already the cheapest feasible answer and nothing changes
    first = next(e for e in events if e["event"] == "recreate")
    assert first["changed_entries"] == "0"


def test_dumped_instances_are_canonical_json(tmp_path):
    # Each --dump-lp file is exactly what json writes for its own document.
    cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario3.json")), seed=0,
                              scheme="exact", rerouting_mode=RoutingMode.UNRESERVED,
                              dump_dir=str(tmp_path / "lp"))
    ht.run_scenario(cfg)
    names = sorted(os.listdir(tmp_path / "lp"))
    assert any(n.endswith("_recreation.json") for n in names)
    assert any(n.endswith("_reroute.json") for n in names)
    for name in names:
        text = (tmp_path / "lp" / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


def record_solver_calls(monkeypatch):
    """Wrap both solvers in the orchestrator's namespace; returns the list of
    (kind, problem) of every call, in call order."""
    calls = []

    def recording(kind, solve):
        def wrapper(problem):
            calls.append((kind, problem))
            return solve(problem)
        return wrapper

    monkeypatch.setattr(orchestrator, "solve_flow_rerouting",
                        recording("reroute", orchestrator.solve_flow_rerouting))
    monkeypatch.setattr(orchestrator, "solve_lsp_recreation",
                        recording("recreate", orchestrator.solve_lsp_recreation))
    return calls


def watch_plans(monkeypatch):
    """Keep every LSP plan built from now on, in build order, and the LSPs that each
    `ffr` and exact re-routing round is handed. Returns both lists; the second holds
    (scheme, lsps) pairs."""
    built, read = [], []
    new, ffr, solve = LspPlan.__new__, orchestrator.ffr, orchestrator.solve_flow_rerouting

    def building(cls, *args):
        plan = new(cls, *args)
        if all(plan is not p for p in built):  # not a plan handed back as it is
            built.append(plan)
        return plan

    monkeypatch.setattr(LspPlan, "__new__", staticmethod(building))
    monkeypatch.setattr(orchestrator, "ffr", lambda flows, lsps, *args, **kwargs:
                        read.append(("ffr", lsps)) or ffr(flows, lsps, *args, **kwargs))
    monkeypatch.setattr(orchestrator, "solve_flow_rerouting", lambda problem:
                        read.append(("exact", problem.lsps)) or solve(problem))
    return built, read


def test_a_comparison_builds_one_plan_for_its_schemes(monkeypatch):
    # scenario4's rounds escalate, but its re-creations keep every route (an auto
    # plan always fits), so every round of both planned schemes reads the set-up's plan.
    built, read = watch_plans(monkeypatch)
    results = ht.run_comparison(ht.load_scenario(scenario_path("scenario4.json")))
    recreations = [e for r in results for e in parse_events(r.events)
                   if e["event"] == "recreate"]
    assert {e["scheme"] for e in recreations} == {"ffr", "exact"}
    assert all(e["changed_entries"] == "0" for e in recreations)
    assert len(built) == 1
    assert {scheme for scheme, _ in read} == {"ffr", "exact"}
    assert all(lsps is built[0] for _, lsps in read)


def contested_plan_config(tmp_path, plan, scheme="exact"):
    # Flows big enough that the flow-level step fails from slot 1 on, on
    # links whose headroom is 9 units, with every solver instance dumped.
    traffic = {"demand_fraction": 0.3, "flow_intensity": 0.8, "max_flows_per_source": 2,
               "growth_max": 0.10, "delay_stretch": 2.0}
    path = write_mini_files(tmp_path, bandwidth=10.0, plan=plan, seed=1, traffic=traffic,
                            scheme=scheme)
    return dataclasses.replace(ht.load_scenario(path), dump_dir=str(tmp_path / "lp"))


def run_contested_plan(tmp_path, plan, scheme="exact"):
    return ht.run_scenario(contested_plan_config(tmp_path, plan, scheme))


def test_recreation_that_moves_an_lsp_rebuilds_it(tmp_path, monkeypatch):
    # Two 5-unit LSPs share link 0->2, so re-creation moves one of them.
    calls = record_solver_calls(monkeypatch)
    built, _ = watch_plans(monkeypatch)
    plan = (([0, 2, 1], 5.0), ([0, 2, 1], 5.0), ([1, 2, 0], 4.0))
    events = parse_events(run_contested_plan(tmp_path, plan).events)
    # One plan at set-up, then one per re-creation that moves a route and none for one
    # that keeps them all.
    recreations = [e["changed_entries"] for e in events if e["event"] == "recreate"]
    assert "0" in recreations and len(built) == 1 + sum(c != "0" for c in recreations)
    first = next(e for e in events if e["event"].startswith("recreate"))
    assert (first["slot"], first["event"], first["changed_entries"]) == (1, "recreate", "4")
    # The retry runs on the rebuilt LSP: new links and their delay.
    doc = json.loads((tmp_path / "lp" / "slot001_reroute_retry.json").read_text())
    assert [(l["links"], l["prop_delay"]) for l in doc["lsps"][:2]] == [
        ([[0, 2], [2, 1]], 2.0), ([[0, 3], [3, 1]], 2.0)]
    # The rebuilt LSPs make the retry a new instance, so the solver runs again.
    assert [kind for kind, _ in calls[:3]] == ["reroute", "recreate", "reroute"]
    (_, first), _, (_, retry) = calls[:3]
    assert retry.lsps != first.lsps
    assert first.lsps is built[0] and retry.lsps is built[1]


def test_infeasible_recreation_keeps_the_run_going(tmp_path):
    # Three 6-unit LSPs from 0 to 1 over two paths: no routing fits. The plan stays,
    # so no retry follows: it would repeat the slot's first round.
    plan = (([0, 2, 1], 6.0),) * 3 + (([1, 2, 0], 4.0),)
    result = run_contested_plan(tmp_path, plan)
    events = parse_events(result.events)
    assert [e["event"] for e in events if e["slot"] == 1] == [
        "check", "reroute_infeasible", "recreate_infeasible"]
    assert next(e for e in events if e["event"] == "recreate_infeasible")["proven"] == "True"
    assert "solution" not in json.loads((tmp_path / "lp" / "slot001_recreation.json").read_text())
    assert not (tmp_path / "lp" / "slot001_reroute_retry.json").exists()
    assert [s.slot for s in result.samples] == list(range(12))


def watch_rounds(monkeypatch):
    """Wrap the slot's flow records, `ffr` and the exact problem build. Returns a
    function that, given the events of the run since the last call, maps each
    triggered slot to its flow-level rounds: an `ffr` round as its (inputs, result)
    pair, an exact round as its problem."""
    slots = []
    build, ffr, problem = orchestrator.flows_at, orchestrator.ffr, orchestrator.ReroutingProblem
    monkeypatch.setattr(orchestrator, "flows_at", lambda *a: slots.append([]) or build(*a))

    def greedy(*args, mu):
        slots[-1].append(((*args, mu), ffr(*args, mu=mu)))
        return slots[-1][-1][1]

    monkeypatch.setattr(orchestrator, "ffr", greedy)
    monkeypatch.setattr(orchestrator, "ReroutingProblem",
                        lambda **kw: slots[-1].append(problem(**kw)) or slots[-1][-1])

    def rounds(events):
        triggered = [e["slot"] for e in events if e["event"] == "check" and e["trigger"] == "True"]
        assert len(slots) == len(triggered)
        by_slot = dict(zip(triggered, slots))
        slots.clear()
        return by_slot

    return rounds


CONTESTED_PLANS = {"infeasible": (([0, 2, 1], 6.0),) * 3 + (([1, 2, 0], 4.0),),
                   "moving": (([0, 2, 1], 5.0), ([0, 2, 1], 5.0), ([1, 2, 0], 4.0))}


@pytest.mark.parametrize("source, scheme", [("scenario4.json", "ffr"), ("scenario4.json", "exact"),
                                            ("infeasible", "exact"), ("moving", "exact")])
def test_a_kept_plan_gets_no_retry(tmp_path, monkeypatch, source, scheme):
    # scenario4's re-creations keep every route, the "infeasible" plan's find none,
    # and the "moving" plan's move a route at some slots and keep them at others
    # (on the mini plans ffr widens an LSP instead, and never escalates).
    rounds = watch_rounds(monkeypatch)
    if source in CONTESTED_PLANS:
        result = run_contested_plan(tmp_path, CONTESTED_PLANS[source], scheme)
    else:
        result = ht.run_scenario(dataclasses.replace(
            ht.load_scenario(scenario_path(source)), scheme=scheme, dump_dir=str(tmp_path / "lp")))
    events = parse_events(result.events)
    recreations = {e["slot"]: e for e in events if e["event"].startswith("recreate")}
    kept = {t for t, e in recreations.items() if e.get("changed_entries", "0") == "0"}
    assert kept
    for t, slot_rounds in rounds(events).items():
        retries = [e for e in events if e["slot"] == t and e["event"].startswith("reroute_retry")]
        # A retry line, a second round and a retry dump come with a moved route, and only then.
        assert len(retries) == (t in recreations and t not in kept), t
        assert len(slot_rounds) == 1 + len(retries), t
        assert (tmp_path / "lp" / f"slot{t:03d}_reroute_retry.json").exists() == bool(retries)


@pytest.mark.parametrize("mode", list(RoutingMode))
def test_a_skipped_ffr_retry_would_repeat_round_one(monkeypatch, mode):
    # Re-run by hand each retry that a kept plan skipped: started from round one's
    # answer, ffr gives that answer again and parks the same flows.
    rounds = watch_rounds(monkeypatch)
    skipped = 0
    for name in ("scenario1.json", "scenario3.json"):  # 2 and 4 differ only in the seed
        for seed in range(6):
            cfg = dataclasses.replace(ht.load_scenario(scenario_path(name)), scheme="ffr",
                                      rerouting_mode=mode, seed=seed)
            for slot_rounds in rounds(parse_events(ht.run_scenario(cfg).events)).values():
                (flows, lsps, _, topo, mu), first = slot_rounds[0]
                if first.recreation_requests and len(slot_rounds) == 1:
                    skipped += 1
                    again = ht.ffr(flows, lsps, first.assignment, topo, mu=mu)
                    assert list(again.assignment.items()) == list(first.assignment.items())
                    assert again.recreation_requests == first.recreation_requests
    assert skipped > 10, skipped


@pytest.mark.parametrize("source", ["scenario4.json", "mini"])
def test_a_repeated_recreation_reuses_its_problem(tmp_path, monkeypatch, source):
    # An escalation on the plan and assignment of the last one reuses that re-creation
    # problem and does not sum its delay budgets again. Each dumped problem is the one
    # built afresh from the slot's plan and its first round's assignment. On the mini
    # plan a flow moves onto an empty LSP between two escalations, which gives that
    # LSP a delay budget, so the assignment must be part of the reuse test.
    rounds = watch_rounds(monkeypatch)
    budgets, _ = count_calls(monkeypatch, ["_delay_budgets"])
    if source == "mini":
        path = write_mini_files(
            tmp_path, bandwidth=20.0, seed=96, scheme="ffr",
            plan=(([0, 3, 1], 4.0), ([1, 2, 0], 8.75), ([1, 2, 0], 3.45), ([1, 3, 0], 2.1)),
            traffic={**MINI_TRAFFIC, "demand_fraction": 0.265, "max_flows_per_source": 3})
    else:
        path = scenario_path(source)
    cfg = dataclasses.replace(ht.load_scenario(path), scheme="ffr", dump_dir=str(tmp_path / "lp"))
    events = parse_events(ht.run_scenario(cfg).events)
    first_rounds = {t: slot_rounds[0] for t, slot_rounds in rounds(events).items()}
    recreated = [e["slot"] for e in events if e["event"].startswith("recreate")]
    assert 0 < budgets["_delay_budgets"] < len(recreated)
    for t in recreated:
        (flows, lsps, _, topo, mu), first = first_rounds[t]
        budget = {l.id: min((f.max_delay for f in flows if first.assignment[f.id] == l.id),
                            default=math.inf) for l in lsps}
        fresh = ht.RecreationProblem(
            requests=tuple(ht.LspRequest(l.src, l.dst, l.capacity, budget[l.id]) for l in lsps),
            topology=topo, lr_old=tuple(l.links for l in lsps), mu=mu)
        doc = json.loads((tmp_path / "lp" / f"slot{t:03d}_recreation.json").read_text())
        doc.pop("solution", None)
        assert doc == json.loads(orchestrator.recreation_to_json(fresh)), t


def run_with_dumps(tmp_path, name, scheme, mode):
    """Run a shipped scenario with every solver instance dumped and return
    (files, sha256) over events.log and the lp/ files, in name order, and a
    listing of each file's own sha256."""
    cfg = dataclasses.replace(ht.load_scenario(scenario_path(name)), scheme=scheme,
                              rerouting_mode=mode, dump_dir=str(tmp_path / "lp"))
    ht.write_run_result(ht.run_scenario(cfg), str(tmp_path))
    names = ["events.log"] + [f"lp/{n}" for n in sorted(os.listdir(tmp_path / "lp"))]
    digest = hashlib.sha256()
    for n in names:
        digest.update(n.encode() + b"\0" + (tmp_path / n).read_bytes() + b"\0")
    listing = "".join(f"\n{hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()}  {n}"
                      for n in names)
    return (len(names), digest.hexdigest()), listing


@pytest.mark.parametrize("name, scheme, mode, files, sha256", [
    ("scenario3.json", "exact", RoutingMode.UNRESERVED, 6,
     "9d32dd437e6b1df9ece6dc09dce00e7aa534ee62a87b226798ad71fc5917ed3b"),
    ("scenario4.json", "exact", RoutingMode.RESERVED, 33,
     "5dee8e154801961b2ae7f57e5919cb512b1b8a4f1d2dc9e5fcfbb390f2c1da58"),
    ("scenario4.json", "ffr", RoutingMode.RESERVED, 16,
     "c672fda0aec3491e248a9d36ef01a0dc500fecb3627c800efd48ce082d65c205"),
])
def test_outputs_are_pinned(tmp_path, name, scheme, mode, files, sha256):
    # Recorded when a re-creation that keeps the plan stopped being followed by a retry;
    # the scenario3 pin again when a re-routing part whose flows all stay stopped being
    # searched, which moved only its dumps' "nodes_explored" lines.
    got, listing = run_with_dumps(tmp_path, name, scheme, mode)
    assert got == (files, sha256), listing


@pytest.mark.parametrize("name, seed, sha256", [
    ("scenario1.json", 0, "665cf20c1cfe55baafeff45304d3b47c19b6338c0be29e9c1751a85b915c3ddc"),
    ("scenario1.json", 1, "9c71995989e1fac8202621d4f6f459def45ce461b187490e9c2b6eb604e231f9"),
    ("scenario1.json", 2, "0fa781d762a1d6f7790483761e74b058efca89dc6e105182e9f45377c1fd5ef8"),
    ("scenario1.json", 3, "a49ac89b0de3af8e494d06e7d1aa8d798ecdcde612c4ff85cfb2fb77d8069118"),
    ("scenario3.json", 0, "7f8869f61135394c802f41f5048b6c2f17010039d6720d6d4f529ae98c1debff"),
    ("scenario3.json", 1, "553ceaa7a6fda3421b0bce06cabda3ba1323a94b6f280b9f236dced02ef22783"),
    ("scenario3.json", 2, "4439a1aeb7d897177d4fb1607149eeab05315d63b23e88a7a9aae04707cb1e3e"),
    ("scenario3.json", 3, "d466d84a0cbdac015ad73d3494721cc3efeffd7eff4efe1baf17a3e144196849"),
])
def test_comparison_metrics_are_pinned(tmp_path, name, seed, sha256):
    # Seeds 0 and 1 recorded before a slot's sample reused the loads of its trigger check,
    # seeds 2 and 3 before the solver memo was deleted. Scenarios 2 and 4 are scenarios 1
    # and 3 with another seed, which is set here, so they are not pinned again.
    cfg = dataclasses.replace(ht.load_scenario(scenario_path(name)), seed=seed)
    ht.write_comparison(ht.run_comparison(cfg), str(tmp_path))
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("name, sha256", [
    ("scenario1.json", "b27258d0b1c11b62d939836d5c9c374565d731d33c2d53854bd89df8aa464dae"),
    ("scenario3.json", "858404e9ac0671524a422e7e8f8b617a3ec47a2e2d4ec2e23c2168e77969918b"),
])
def test_comparison_events_are_pinned(tmp_path, name, sha256):
    # Recorded before every event line went through one formatting helper, and for
    # scenario3 again when a kept plan stopped being followed by a retry; the
    # comparison holds the shortest_path and ffr event lines too.
    ht.write_comparison(ht.run_comparison(ht.load_scenario(scenario_path(name))), str(tmp_path))
    assert hashlib.sha256((tmp_path / "events.log").read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("source, scheme", [("scenario4.json", "ffr"), ("scenario4.json", "exact"),
                                            ("moving", "exact")])
def test_solvers_run_once_per_round_and_per_built_recreation(tmp_path, monkeypatch, source,
                                                             scheme):
    # Exact re-routing is solved in every round. A re-creation problem is solved and
    # rendered once, when it is built; an escalation on the same plan and assignment
    # writes its line and dump again from that answer.
    calls, _ = count_calls(monkeypatch, ["solve_flow_rerouting", "solve_lsp_recreation",
                                         "recreation_to_json", "RecreationProblem"])
    if source in CONTESTED_PLANS:
        cfg = contested_plan_config(tmp_path, CONTESTED_PLANS[source], scheme)
    else:
        cfg = dataclasses.replace(ht.load_scenario(scenario_path(source)), scheme=scheme,
                                  dump_dir=str(tmp_path / "lp"))
    events = parse_events(ht.run_scenario(cfg).events)
    lines = Counter(e["event"].split("_")[0] for e in events)
    assert calls["solve_flow_rerouting"] == (lines["reroute"] if scheme == "exact" else 0)
    assert (calls["solve_lsp_recreation"] == calls["recreation_to_json"]
            == calls["RecreationProblem"])
    assert 0 < calls["solve_lsp_recreation"] < lines["recreate"]
    if source == "scenario4.json" and scheme == "exact":
        # Every re-creation keeps every route, so no retry follows: it would be the
        # slot's first instance again. Only that one is solved, and only it is dumped.
        recreations = [e for e in events if e["event"] == "recreate"]
        assert all(e["changed_entries"] == "0" for e in recreations)
        assert calls["solve_flow_rerouting"] == len(recreations)
        assert not any(e["event"].startswith("reroute_retry") for e in events)
        assert not any(n.endswith("_reroute_retry.json") for n in os.listdir(tmp_path / "lp"))


def watch_link_index(monkeypatch):
    """Wrap the index build, the trigger check's utilization pass and the sample.
    Returns a function that runs a config and checks that the index is built at slot 0
    and again exactly in the slots whose rounds moved a path, and that every other slot
    is sampled with the check's loads, utilization list and peak; it returns the number
    of slots that moved. A slot counts as moved when one of its rounds moves a flow or
    re-routes an LSP, so every plan of the run must give each LSP of a pair its own
    route: a flow moved between two LSPs on one route moves no path."""
    plans, _ = watch_plans(monkeypatch)
    built, checked, sampled = [], [], []
    index, usage, sample = (orchestrator.link_index, orchestrator.utilization,
                            orchestrator.compute_sample)
    monkeypatch.setattr(orchestrator, "link_index", lambda *a: built.append(a) or index(*a))
    monkeypatch.setattr(orchestrator, "utilization",
                        lambda *a: checked.append(usage(*a)) or checked[-1])
    monkeypatch.setattr(orchestrator, "compute_sample",
                        lambda t, rates, idx, used=None:
                        sampled.append((t, idx, used)) or sample(t, rates, idx, used))

    def run(cfg):
        built.clear(), checked.clear(), sampled.clear(), plans.clear()
        events = parse_events(ht.run_scenario(cfg).events)
        for plan in plans:
            for pair, lsps in plan.pairs.items():
                assert len({l.links for l in lsps}) == len(lsps), \
                    f"watch_link_index needs each LSP of a pair on its own route: {pair}"
        moved = {e["slot"] for e in events
                 if e.get("changes", "0") != "0" or e.get("changed_entries", "0") != "0"}
        assert len(built) == 1 + len(moved)
        assert [t for t, *_ in sampled] == list(range(cfg.slots))
        checks = {e["slot"]: e for e in events if e["event"] == "check"}
        for t, idx, used in sampled:
            if t == 0 or t in moved:
                assert used is None, t
            else:
                assert used is checked[t - 1], t
                loads, utils, peak = used
                assert type(utils) is list and utils == (loads / idx.bandwidth).tolist(), t
                # The peak handed to the sample is the one the check logged.
                assert peak == max(utils) and checks[t]["max_util"] == f"{peak:.6f}", t
        return len(moved)

    return run


def test_watch_link_index_refuses_a_plan_with_a_shared_route(monkeypatch, tmp_path):
    # Two LSPs of the "moving" plan share route 0-2-1, so the helper cannot tell a
    # moved path from its event lines there.
    run = watch_link_index(monkeypatch)
    with pytest.raises(AssertionError, match="on its own route: \\(0, 1\\)"):
        run(contested_plan_config(tmp_path, CONTESTED_PLANS["moving"]))


@pytest.mark.parametrize("scheme", ["ffr", "exact"])
def test_link_index_is_rebuilt_exactly_when_paths_change(monkeypatch, tmp_path, scheme):
    run = watch_link_index(monkeypatch)
    scenario1 = dataclasses.replace(ht.load_scenario(scenario_path("scenario1.json")),
                                    scheme=scheme)
    # exact moves no flow on scenario1; on the mini network with two routes per
    # pair and up to four flows per source, growth makes it move some.
    plan = (([0, 2, 1], 16.0), ([0, 3, 1], 16.0), ([1, 2, 0], 16.0), ([1, 3, 0], 16.0))
    traffic = {**MINI_TRAFFIC, "max_flows_per_source": 4, "flow_intensity": 3.0,
               "demand_fraction": 0.05}
    mini = dataclasses.replace(ht.load_scenario(write_mini_files(
        tmp_path, plan=plan, traffic=traffic)), scheme=scheme)
    moved = [run(dataclasses.replace(cfg, seed=seed)) for cfg in (scenario1, mini)
             for seed in range(8)]
    assert sum(moved) >= 2, moved


@pytest.mark.parametrize("scheme", SCHEMES)
def test_flow_records_are_built_only_for_rounds(monkeypatch, scheme):
    # Quiet slots keep their traffic as a rate vector. Flow records at the slot's
    # rates are built once per triggered slot, for its rounds, and never for the
    # baseline, which has no rounds.
    built, sampled = [], []
    build, sample = orchestrator.flows_at, orchestrator.compute_sample
    monkeypatch.setattr(orchestrator, "flows_at", lambda flows, rates: built.append(
        (len(sampled), build(flows, rates))) or built[-1][1])
    monkeypatch.setattr(orchestrator, "compute_sample",
                        lambda t, *args: sampled.append(t) or sample(t, *args))
    rounds = 0
    for name in ("scenario1.json", "scenario3.json"):
        for seed in range(5):
            cfg = dataclasses.replace(ht.load_scenario(scenario_path(name)), scheme=scheme,
                                      seed=seed)
            built.clear(), sampled.clear()
            events = parse_events(ht.run_scenario(cfg).events)
            triggered = [e["slot"] for e in events
                         if e["event"] == "check" and e["trigger"] == "True"]
            assert [t for t, _ in built] == triggered
            # Each slot's records, from the slot-0 flows and the per-flow growth formula.
            topo = ht.load_topology_file(cfg.topology_path)
            flows = ht.generate_flows(topo, cfg.traffic, seed)
            expect = {0: flows}
            for t in range(1, cfg.slots):
                rates = oracles.reference_growth(expect[t - 1], cfg.traffic.growth_max,
                                                 (seed, t))
                expect[t] = tuple(ht.Flow(f.id, f.src, f.dst, rate, f.max_delay)
                                  for f, rate in zip(flows, rates))
            for t, records in built:
                assert records == expect[t], (name, seed, t)
                assert all(type(f) is ht.Flow for f in records)
            rounds += len(built)
    assert (rounds == 0) == (scheme == "shortest_path"), rounds


def test_comparison_runs_identical_traffic(monkeypatch):
    sampled = []
    sample = orchestrator.compute_sample
    monkeypatch.setattr(orchestrator, "compute_sample",
                        lambda t, rates, *args: sampled.append(rates.tolist())
                        or sample(t, rates, *args))
    cfg = ht.load_scenario(scenario_path("scenario2.json"))
    results = ht.run_comparison(cfg)
    assert [r.scheme for r in results] == list(SCHEMES)
    # Every scheme samples the same flows at the same rates in every slot.
    per_scheme = [sampled[k * cfg.slots:(k + 1) * cfg.slots] for k in range(len(SCHEMES))]
    assert per_scheme[0] == per_scheme[1] == per_scheme[2]
    for t in range(cfg.slots):
        offered = {r.samples[t].throughput + r.samples[t].packet_loss for r in results}
        assert len(offered) == 1


def test_comparison_grows_the_traffic_once(monkeypatch):
    sampled, seeds = [], []
    sample, default_rng = orchestrator.compute_sample, np.random.default_rng
    monkeypatch.setattr(orchestrator, "compute_sample",
                        lambda t, rates, *args: sampled.append(rates) or sample(t, rates, *args))
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: seeds.append(seed) or default_rng(seed))
    cfg = ht.load_scenario(scenario_path("scenario2.json"))
    ht.run_comparison(cfg)
    # ffr and exact grow the rates that shortest_path grew, slot by slot.
    per_scheme = [[rates.tolist() for rates in sampled[k * cfg.slots:(k + 1) * cfg.slots]]
                  for k in range(len(SCHEMES))]
    assert per_scheme[0] == per_scheme[1] == per_scheme[2]
    # The slot-0 draw, then one growth draw per checked slot for all three schemes.
    assert seeds == [cfg.seed] + [(cfg.seed, t) for t in range(1, cfg.slots)]


def test_runs_and_comparisons_match_the_reference_run(tmp_path):
    # Every scheme's run, alone and in a comparison, has the samples and events of a
    # plain slot loop with no shared set-up, growth block, link index or reused answer.
    # Scenarios 2 and 4 are scenarios 1 and 3 with another seed, so only 1 and 3 run.
    # Without growth, exact re-routing gets the same problem again and solves it again.
    cases = []
    for n in (1, 3):
        cfg = ht.load_scenario(scenario_path(f"scenario{n}.json"))
        still = dataclasses.replace(cfg, traffic=dataclasses.replace(cfg.traffic, growth_max=0.0))
        cases += [dataclasses.replace(cfg, rerouting_mode=mode, seed=seed)
                  for mode in RoutingMode for seed in range(6)]
        cases += [dataclasses.replace(still, rerouting_mode=mode) for mode in RoutingMode]
    # Halving the bandwidth of every link at nodes 5 and 7 makes the core planes unequal,
    # so the baseline's tie-break between equal-hop routes shows in its samples.
    with open(scenario_path("reference_topology.json"), encoding="utf-8") as fp:
        uneven = json.load(fp)
    for link in uneven["links"]:
        if {link["src"], link["dst"]} & {5, 7}:
            link["bandwidth"] = 50.0
    (tmp_path / "uneven.json").write_text(json.dumps(uneven))
    cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario1.json")),
                              topology_path=str(tmp_path / "uneven.json"))
    cases += [dataclasses.replace(cfg, rerouting_mode=mode) for mode in RoutingMode]
    for name, plan in CONTESTED_PLANS.items():
        (tmp_path / name).mkdir()
        contested = contested_plan_config(tmp_path / name, plan)
        cases += [dataclasses.replace(contested, rerouting_mode=mode, dump_dir=None)
                  for mode in RoutingMode]
    kinds = Counter()
    for cfg in cases:
        for scheme, compared in zip(SCHEMES, ht.run_comparison(cfg)):
            one = dataclasses.replace(cfg, scheme=scheme)
            expect = oracles.reference_run(one)
            alone = ht.run_scenario(one)
            assert (alone.samples, alone.events) == expect, (cfg.topology_path, scheme)
            assert (compared.samples, compared.events) == expect, (cfg.topology_path, scheme)
            kinds.update(e["event"] for e in parse_events(expect[1]))
    # The cases reach every kind of round, a moved route's retry included.
    assert {"reroute", "reroute_infeasible", "recreate", "recreate_infeasible",
            "reroute_retry_infeasible"} <= kinds.keys(), kinds


def result_fields(r):
    return (r.scheme, r.seed, r.samples, r.events, r.config_echo)


@pytest.mark.parametrize("name", [f"scenario{n}.json" for n in (1, 2, 3, 4)])
def test_comparison_equals_separate_runs(name):
    # The shared set-up must give each scheme exactly what its own run builds.
    # Scenarios 2 and 4 are scenarios 1 and 3 with the next seed, so stepping each
    # file's seed by two gives every pair ten distinct configurations.
    base = ht.load_scenario(scenario_path(name))
    for seed in range(base.seed, base.seed + 10, 2):
        cfg = dataclasses.replace(base, seed=seed)
        alone = [ht.run_scenario(dataclasses.replace(cfg, scheme=s, dump_dir=None))
                 for s in SCHEMES]
        assert list(map(result_fields, ht.run_comparison(cfg))) == list(map(result_fields, alone))


def test_file_plan_comparison_equals_separate_runs(tmp_path):
    cfg = dataclasses.replace(ht.load_scenario(write_mini_files(tmp_path)),
                              dump_dir=str(tmp_path / "lp"))
    alone = [ht.run_scenario(dataclasses.replace(cfg, scheme=s, dump_dir=None)) for s in SCHEMES]
    assert list(map(result_fields, ht.run_comparison(cfg))) == list(map(result_fields, alone))
    assert not (tmp_path / "lp").exists()  # a comparison writes no dumps


def test_an_auto_plan_needs_a_route_for_every_edge_pair(tmp_path):
    # Edge node 3 only sends (3->1), so the auto plan finds no route for (0,3). Flows
    # go only where their source can reach, so the baseline, which plans nothing, runs.
    path = write_mini_files(tmp_path, lsp_plan={"kind": "auto"})
    links = [{"src": a, "dst": b, "bandwidth": 100.0, "delay": 1.0}
             for a, b in ((0, 2), (2, 0), (2, 1), (1, 2), (3, 1))]
    (tmp_path / "topo.json").write_text(json.dumps({"nodes": 4, "edge_nodes": [0, 1, 3],
                                                    "links": links}))
    cfg = ht.load_scenario(path)
    for run in (lambda: ht.run_scenario(dataclasses.replace(cfg, scheme="ffr")),
                lambda: ht.run_comparison(cfg)):
        with pytest.raises(ConfigError, match=r"^edge pair \(0,3\) has no route$"):
            run()
    baseline = ht.run_scenario(dataclasses.replace(cfg, scheme="shortest_path"))
    assert len(baseline.samples) == cfg.slots


def test_comparison_with_a_failing_plan_raises_as_a_run_does(tmp_path):
    # The plan has no LSP from 1 to 0, so the initial placement fails.
    cfg = ht.load_scenario(write_mini_files(tmp_path, plan=(([0, 2, 1], 8.0),)))
    with pytest.raises(ConfigError) as lone:
        ht.run_scenario(dataclasses.replace(cfg, scheme="ffr"))
    with pytest.raises(ConfigError) as compared:
        ht.run_comparison(cfg)
    assert "matches no planned LSP" in str(lone.value)
    assert str(compared.value) == str(lone.value)


def count_calls(monkeypatch, names):
    """Wrap orchestrator functions by name; returns the Counter of their calls
    and the `setup` argument of every run_scenario call."""
    calls, setups = Counter(), []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "run_scenario":
                setups.append(kwargs.get("setup"))
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(orchestrator, name, counting(name, getattr(orchestrator, name)))
    return calls, setups


SET_UP_NAMES = ("load_topology_file", "generate_flows", "build_auto_lsp_plan",
                "initial_assignment")


def test_comparison_builds_its_set_up_once(monkeypatch):
    calls, setups = count_calls(monkeypatch, SET_UP_NAMES + ("run_scenario", "grow_flows"))
    cfg = ht.load_scenario(scenario_path("scenario3.json"))
    ht.run_comparison(cfg)
    assert calls == Counter({**dict.fromkeys(SET_UP_NAMES, 1), "run_scenario": 3,
                             "grow_flows": 3 * (cfg.slots - 1)})
    # One set-up object, which no scheme changed.
    assert setups[0] is setups[1] is setups[2]
    topo, flows, rates, growth, lsps, assignment = setups[0]
    fresh = orchestrator._set_up(cfg, planned=True)
    assert (topo, flows, lsps, assignment) == fresh[:2] + fresh[4:]
    for kept, new in zip((rates, growth), fresh[2:4]):
        assert np.array_equal(kept, new) and kept.dtype == new.dtype
    # The slot-0 rates are the flows' own, each checked slot has its row of growth
    # factors, and no caller can write into either.
    assert rates.tolist() == [f.rate for f in flows]
    assert growth.shape == (cfg.slots - 1, len(flows))
    for array in (rates, growth):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("scheme, planned", [("shortest_path", 0), ("ffr", 1), ("exact", 1)])
def test_a_run_builds_its_own_set_up(monkeypatch, scheme, planned):
    calls, setups = count_calls(monkeypatch, SET_UP_NAMES + ("run_scenario",))
    cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario3.json")), scheme=scheme)
    orchestrator.run_scenario(cfg)
    assert calls == Counter({"load_topology_file": 1, "generate_flows": 1, "run_scenario": 1,
                             "build_auto_lsp_plan": planned, "initial_assignment": planned})
    assert setups == [None]


def test_auto_plan_reservations_fit_headroom():
    topo = ht.reference_topology()
    for k in (1, 2, 3):
        plan = ht.build_auto_lsp_plan(topo, k, 0.9)
        if k <= 2:  # every ordered edge pair has at least two disjoint paths
            assert len(plan) == 12 * k
        sums = {}
        for l in plan:
            assert l.capacity > 0
            for pair in l.links:
                sums[pair] = sums.get(pair, 0.0) + l.capacity
        for pair, total in sums.items():
            assert total <= 0.9 * topo.by_pair[pair].bandwidth + 1e-9


def test_auto_plan_is_deterministic():
    topo = ht.reference_topology()
    a = ht.build_auto_lsp_plan(topo, 2, 0.9)
    b = ht.build_auto_lsp_plan(topo, 2, 0.9)
    assert a == b
    ids = [l.id for l in a]
    assert ids == list(range(len(a)))


def test_auto_plan_matches_the_reference_plan():
    # Equal LSPs, capacities and delays bit for bit, and the same error where
    # the headroom leaves no capacity to reserve.
    rng = np.random.default_rng(5)
    topologies = [ht.reference_topology(), ring14()]
    for _ in range(30):
        topo = oracles.random_topology(rng)
        topologies.append(topo)
        # The same graph with float delays, whose sums depend on their order.
        topologies.append(ht.NetworkTopology(topo.node_count, tuple(
            dataclasses.replace(ln, delay=float(rng.uniform(0.1, 3.0))) for ln in topo.links),
            topo.edge_nodes))
    for topo in topologies:
        for k in (1, 2, 3):
            for mu in (0.3, 0.9, 1.0):
                assert ht.build_auto_lsp_plan(topo, k, mu) == oracles.reference_auto_plan(
                    topo, k, mu)
    # A 50-node ring at one setting only: its 380 edge pairs take tens of ms per plan.
    big = ring(20, 30)
    assert ht.build_auto_lsp_plan(big, 2, 0.9) == oracles.reference_auto_plan(big, 2, 0.9)
    for mu in (0.0, -0.5):
        for plan in (ht.build_auto_lsp_plan, oracles.reference_auto_plan):
            with pytest.raises(ValidationError, match="capacity must be positive"):
                plan(ht.reference_topology(), 2, mu)


def test_initial_assignment_balances_and_validates():
    topo = ht.reference_topology()
    lsps = (ht.build_lsp(topo, [0, 4, 1], 10.0, 0), ht.build_lsp(topo, [0, 5, 1], 10.0, 1))
    flows = (ht.Flow(0, 0, 1, 6.0, 4.0), ht.Flow(1, 0, 1, 6.0, 4.0))
    a = ht.initial_assignment(flows, lsps)
    assert {a[0], a[1]} == {0, 1}
    with pytest.raises(ConfigError):
        ht.initial_assignment((ht.Flow(0, 2, 3, 1.0, 9.0),), lsps)
    with pytest.raises(ValidationError, match="^duplicate flow ids$"):
        ht.initial_assignment((flows[0], flows[1]._replace(id=0)), lsps)


def test_lsp_plan_file_round_trip(tmp_path):
    write_mini_files(tmp_path)
    topo = ht.load_topology_file(str(tmp_path / "topo.json"))
    plan = load_lsp_plan_file(str(tmp_path / "plan.json"), topo)
    assert [l.id for l in plan] == [0, 1]
    assert plan[0].links == ((0, 2), (2, 1))
    assert plan[0].capacity == 8.0


# Each input file read through `errors.read_json`, and its name in the mini files.
INPUT_FILES = {"scenario file": "scenario.json", "topology file": "topo.json",
               "LSP plan file": "plan.json"}
# What each bad case leaves at an input file's path: nothing, a directory, or these bytes.
BAD_INPUTS = {"missing": None, "a directory": None, "a 0xE9 byte": b'{"nodes": "caf\xe9"}',
              "not JSON": b"not json at all", "100,000 nested [": b"[" * 100_000,
              "a 5,000-digit integer": b"1" * 5_000}


@pytest.mark.parametrize("case", BAD_INPUTS)
@pytest.mark.parametrize("what", INPUT_FILES)
def test_bad_input_files_are_parse_errors(tmp_path, capsys, what, case):
    # Bytes that are not UTF-8, nesting past the recursion limit and integers past the
    # digit limit raise other errors than JSONDecodeError inside json.
    scenario = write_mini_files(tmp_path)
    topo = ht.load_topology_file(str(tmp_path / "topo.json"))
    target = tmp_path / INPUT_FILES[what]
    target.unlink()
    if case == "a directory":
        target.mkdir()
    elif BAD_INPUTS[case] is not None:
        target.write_bytes(BAD_INPUTS[case])
    load = {"scenario file": ht.load_scenario, "topology file": ht.load_topology_file,
            "LSP plan file": lambda path: load_lsp_plan_file(path, topo)}[what]
    named = f"{what} {str(target)!r}"
    with pytest.raises(ParseError, match=re.escape(named)):
        load(str(target))
    assert main(["run", scenario, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_lsp_plan_file_is_strict(tmp_path):
    write_mini_files(tmp_path)
    topo = ht.load_topology_file(str(tmp_path / "topo.json"))
    entry = {"path": [0, 2, 1], "capacity": 8.0}
    for bad in ({"lsps": [entry], "note": "x"}, {"lsps": [{**entry, "capcity": 8.0}]},
                {"lsps": [{"path": [0, 2, 1]}]}, {"lsps": [{**entry, "capacity": True}]},
                {"lsps": [{**entry, "capacity": "8"}]}, {"lsps": [{**entry, "path": [0, 2.0, 1]}]},
                {"lsps": [{**entry, "path": [False, 2, 1]}]}, {"lsps": [entry, "x"]},
                {"lsps": {"0": entry}}, [entry]):
        (tmp_path / "plan.json").write_text(json.dumps(bad))
        with pytest.raises(ParseError):
            load_lsp_plan_file(str(tmp_path / "plan.json"), topo)
    with pytest.raises(ParseError, match="^cannot read LSP plan .*missing.json"):
        load_lsp_plan_file(str(tmp_path / "missing.json"), topo)
    (tmp_path / "plan.json").write_text("{nope")
    with pytest.raises(ParseError, match="^LSP plan .* is not valid JSON"):
        load_lsp_plan_file(str(tmp_path / "plan.json"), topo)
    (tmp_path / "plan.json").write_text(json.dumps({"lsps": [{**entry, "capacity": 8}]}))
    assert load_lsp_plan_file(str(tmp_path / "plan.json"), topo)[0].capacity == 8
    # Python's json reads NaN and Infinity; the capacity check rejects both.
    for bad in (math.nan, math.inf):
        (tmp_path / "plan.json").write_text(json.dumps({"lsps": [{**entry, "capacity": bad}]}))
        with pytest.raises(ValidationError):
            load_lsp_plan_file(str(tmp_path / "plan.json"), topo)


def test_scenario_loader_errors(tmp_path):
    with pytest.raises(ParseError, match="missing.json"):
        ht.load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        ht.load_scenario(str(bad))
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"topology": "t.json"}))
    with pytest.raises(ParseError):
        ht.load_scenario(str(incomplete))
    traffic = {k: v for k, v in MINI_TRAFFIC.items() if k != "demand_fraction"}
    for doc, message in (
            ([], "scenario must be a JSON object"),
            ({"traffic": MINI_TRAFFIC}, "scenario missing key 'topology'"),
            ({"topology": "t.json", "traffic": MINI_TRAFFIC, "rerouting_mode": "sideways"},
             "scenario field malformed: 'sideways' is not a valid RoutingMode"),
            ({"topology": "t.json", "traffic": traffic},
             "scenario traffic missing key 'demand_fraction'"),
            # Each plan kind takes only its own field.
            ({"topology": "t.json", "traffic": MINI_TRAFFIC,
              "lsp_plan": {"kind": "auto", "path": "x.json"}},
             r"scenario lsp_plan of kind 'auto' has unknown keys \['path'\]"),
            ({"topology": "t.json", "traffic": MINI_TRAFFIC, "lsp_plan": {"path": "x.json"}},
             r"scenario lsp_plan of kind 'auto' has unknown keys \['path'\]"),
            ({"topology": "t.json", "traffic": MINI_TRAFFIC,
              "lsp_plan": {"kind": "file", "path": "x.json", "paths_per_pair": 7}},
             r"scenario lsp_plan of kind 'file' has unknown keys \['paths_per_pair'\]"),
            ({"topology": "t.json", "traffic": MINI_TRAFFIC,
              "lsp_plan": {"kind": "static", "paths_per_pair": 7}},
             r"scenario lsp_plan of kind 'static' has unknown keys \['paths_per_pair'\]")):
        incomplete.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"^{message}$"):
            ht.load_scenario(str(incomplete))


def test_scenario_config_validation(tmp_path):
    path = write_mini_files(tmp_path, scheme="warp-speed")
    with pytest.raises(ConfigError):
        ht.load_scenario(path)
    path = write_mini_files(tmp_path, slots=0)
    with pytest.raises(ConfigError):
        ht.load_scenario(path)
    path = write_mini_files(tmp_path, mu_trigger=1.5)
    with pytest.raises(ConfigError):
        ht.load_scenario(path)
    path = write_mini_files(tmp_path, seed=-1)
    with pytest.raises(ConfigError):
        ht.load_scenario(path)
    for bad, message in (
            ({"rerouting_interval": 0}, "rerouting_interval must be at least 1"),
            ({"lsp_plan": {"kind": "static"}}, "lsp_plan.kind must be 'auto' or 'file'"),
            ({"lsp_plan": {"kind": "auto", "paths_per_pair": 0}},
             "paths_per_pair must be at least 1"),
            ({"lsp_plan": {"kind": "file"}}, "file LSP plan needs a path")):
        path = write_mini_files(tmp_path, **bad)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ht.load_scenario(path)
    # The loader rejects an auto plan's path as a key; a config built in code meets this.
    auto = ht.LspPlanSpec("auto", path=str(tmp_path / "plan.json"))
    with pytest.raises(ConfigError, match="^auto LSP plan takes no path$"):
        dataclasses.replace(ht.load_scenario(write_mini_files(tmp_path)), lsp_plan=auto).validate()
    for bad in ({"mu_triger": 0.5}, {"slots": True}, {"seed": True},
                {"rerouting_interval": True}, {"slots": 2.5}, {"rerouting_interval": 2.5}):
        path = write_mini_files(tmp_path, **bad)
        with pytest.raises((ParseError, ConfigError)):
            ht.load_scenario(path)
    for bad in ({"lsp_plan": {"kind": "auto", "paths_per_pairs": 3}},
                {"lsp_plan": {"kind": "auto", "paths_per_pair": True}},
                {"lsp_plan": {"kind": "auto", "paths_per_pair": 2.5}},
                {"lsp_plan": ["auto"]}, {"lsp_plan": {"kind": ["auto"]}}, {"scheme": 1},
                {"mu_trigger": True}, {"mu_headroom": True}, {"mu_trigger": "0.5"}):
        path = write_mini_files(tmp_path, **bad)
        with pytest.raises(ParseError):
            ht.load_scenario(path)
    for bad in ({"max_flows_per_source": True}, {"max_flows_per_source": 2.5},
                {"growth_max": True}, {"growth_max": "0.1"}, {"demand_fractoin": 0.04}):
        path = write_mini_files(tmp_path, traffic={**MINI_TRAFFIC, **bad})
        with pytest.raises(ParseError):
            ht.load_scenario(path)
    # A run's traffic seed is the scenario seed, and flow counts start at 1 per source.
    for key, value in (("seed", 3), ("min_flows_per_source", 1), ("target_flow_count", 8)):
        path = write_mini_files(tmp_path, traffic={**MINI_TRAFFIC, key: value})
        with pytest.raises(ParseError, match=re.escape(f"has unknown keys ['{key}']")):
            ht.load_scenario(path)
    for bad in ([MINI_TRAFFIC], None):
        path = write_mini_files(tmp_path, traffic=bad)
        with pytest.raises(ParseError):
            ht.load_scenario(path)
    path = write_mini_files(tmp_path, traffic={**MINI_TRAFFIC, "growth_max": 0})
    assert ht.load_scenario(path).traffic.growth_max == 0


# A value of another kind for each field kind; a JSON true/false is of none.
OTHER_KIND = {int: 2.5, NUMBER: "1", str: 1, list: {}, dict: []}


def test_every_table_field_rejects_true_and_another_kind(tmp_path):
    # The cases come from the loaders' field tables, so a field added later is covered too.
    path = write_mini_files(tmp_path)
    topo_doc = json.loads((tmp_path / "topo.json").read_text())
    plan_doc = json.loads((tmp_path / "plan.json").read_text())
    scenario = json.loads((tmp_path / "scenario.json").read_text())
    topo = ht.load_topology(topo_doc)

    def load_plan(doc):
        (tmp_path / "plan.json").write_text(json.dumps(doc))
        load_lsp_plan_file(str(tmp_path / "plan.json"), topo)

    def load_scenario(doc):
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        ht.load_scenario(path)

    tables = (
        (_TOPOLOGY_FIELDS, topo_doc, ht.load_topology),
        (_LINK_FIELDS, topo_doc["links"][0],
         lambda d: ht.load_topology(dict(topo_doc, links=[d]))),
        (orchestrator._PLAN_FILE_FIELDS, plan_doc, load_plan),
        (orchestrator._PLAN_ENTRY_FIELDS, plan_doc["lsps"][0], lambda d: load_plan({"lsps": [d]})),
        (orchestrator._SCENARIO_FIELDS, scenario, load_scenario),
        (orchestrator._TRAFFIC_FIELDS, MINI_TRAFFIC,
         lambda d: load_scenario(dict(scenario, traffic=d))),
        *((fields, {"kind": kind}, lambda d: load_scenario(dict(scenario, lsp_plan=d)))
          for kind, fields in orchestrator._PLAN_FIELDS.items()))
    for fields, doc, load in tables:
        for name, kind in fields.items():
            for bad in (True, OTHER_KIND[kind]):
                with pytest.raises(ParseError, match=re.escape(f"field {name!r} must be")):
                    load(dict(doc, **{name: bad}))


def test_absent_scenario_keys_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"topology": "topo.json", "traffic": MINI_TRAFFIC}))
    expect = ht.ScenarioConfig(topology_path=str(tmp_path / "topo.json"),
                               traffic=ht.TrafficConfig(**MINI_TRAFFIC))
    assert (orchestrator._config_echo(ht.load_scenario(str(path)))
            == orchestrator._config_echo(expect))


def test_config_echo_is_complete_and_serializable():
    # A run records the settings a scenario file can hold, and its seed once, at the top.
    cfg = dataclasses.replace(ht.load_scenario(scenario_path("scenario1.json")), slots=2)
    echo, other = (ht.run_scenario(dataclasses.replace(cfg, seed=seed)).config_echo
                   for seed in (0, 3))
    file_keys = (orchestrator._SCENARIO_FIELDS.keys() - {"topology"}
                 | {"topology_path", "dump_dir"})
    assert echo.keys() == file_keys
    assert echo["traffic"].keys() == orchestrator._TRAFFIC_FIELDS.keys()
    plan = orchestrator._PLAN_FIELDS
    assert echo["lsp_plan"].keys() == plan["auto"].keys() | plan["file"].keys()
    assert (echo["scheme"], echo["seed"]) == ("ffr", 0)
    assert dict(echo, seed=3) == other
    assert json.loads(json.dumps(echo, sort_keys=True)) == echo


def test_config_echo_equals_the_asdict_echo():
    # The echo is built field by field; it must equal what dataclasses.asdict
    # gives, and write the same config.echo text.
    def asdict_echo(cfg):
        doc = dataclasses.asdict(cfg)
        doc["rerouting_mode"] = cfg.rerouting_mode.value
        return doc

    for name in ("scenario1", "scenario2", "scenario3", "scenario4", "degenerate"):
        cfg = ht.load_scenario(scenario_path(f"{name}.json"))
        for c in (cfg, dataclasses.replace(cfg, scheme="exact", dump_dir="lp",
                                           rerouting_mode=RoutingMode.UNRESERVED)):
            echo, expect = orchestrator._config_echo(c), asdict_echo(c)
            assert echo == expect
            assert (json.dumps(echo, indent=2, sort_keys=True)
                    == json.dumps(expect, indent=2, sort_keys=True))
            assert type(echo["traffic"]) is dict and type(echo["lsp_plan"]) is dict
            assert type(echo["rerouting_mode"]) is str


def test_shipped_scenarios_load():
    for name in ("scenario1", "scenario2", "scenario3", "scenario4", "degenerate"):
        cfg = ht.load_scenario(scenario_path(f"{name}.json"))
        assert cfg.slots >= 1
        assert os.path.exists(cfg.topology_path)
