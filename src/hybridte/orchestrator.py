"""Discrete time-slot driver: traffic growth, triggers, re-routing, metrics.

Slot 0 places the initial flows and records a sample. From slot 1 on, rates
grow, and a re-routing round runs whenever the most loaded link crosses the
trigger threshold or the periodic interval comes up. A failed flow-level
round escalates once per slot to LSP re-creation, followed by a retry only
when the re-creation moved a route (on a kept plan the retry would repeat round
one's answer); if that fails too, the previous assignment stays and congestion
shows up in the metrics.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .baseline import shortest_path_route
from .errors import (NUMBER, ConfigError, Infeasible, ParseError, ValidationError, check_object,
                     read_json)
from .ffr import ffr
from .lsp import Lsp, LspPlan, build_lsp
from .metrics import MetricsSample, compute_sample, link_index, utilization, write_metrics_csv
from .recreation import (LspRequest, RecreationProblem, enumerate_simple_paths,
                         recreation_to_json, solve_lsp_recreation)
from .rerouting import (ReroutingProblem, RoutingMode, rerouting_to_json,
                        solve_flow_rerouting)
from .topology import NetworkTopology, links_of_path, load_topology_file
from .traffic import (FlowPopulation, TrafficConfig, flows_at, generate_flows, grow_flows,
                      growth_block)

SCHEMES = ("shortest_path", "ffr", "exact")


@dataclass(frozen=True)
class LspPlanSpec:
    kind: str = "auto"
    paths_per_pair: int = 2
    path: str | None = None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    topology_path: str
    traffic: TrafficConfig
    slots: int = 20
    scheme: str = "ffr"
    rerouting_mode: RoutingMode = RoutingMode.RESERVED
    mu_trigger: float = 0.9
    mu_headroom: float = 0.9
    rerouting_interval: int = 5
    lsp_plan: LspPlanSpec = field(default_factory=LspPlanSpec)
    seed: int = 0
    dump_dir: str | None = None

    def validate(self) -> None:
        # growth_block holds (slots - 1) x flows factors from set-up on.
        if not 1 <= self.slots <= 10**6:
            raise ConfigError("slots must lie in [1, 10**6]")
        if self.rerouting_interval < 1:
            raise ConfigError("rerouting_interval must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not (0 < self.mu_trigger <= 1 and 0 < self.mu_headroom <= 1):
            raise ConfigError("mu_trigger and mu_headroom must lie in (0, 1]")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.lsp_plan.kind not in ("auto", "file"):
            raise ConfigError("lsp_plan.kind must be 'auto' or 'file'")
        if self.lsp_plan.kind == "auto" and self.lsp_plan.paths_per_pair < 1:
            raise ConfigError("paths_per_pair must be at least 1")
        if self.lsp_plan.kind == "file" and not self.lsp_plan.path:
            raise ConfigError("file LSP plan needs a path")
        if self.lsp_plan.kind == "auto" and self.lsp_plan.path is not None:
            raise ConfigError("auto LSP plan takes no path")


@dataclass(eq=False)
class RunResult:
    scheme: str
    seed: int
    samples: list[MetricsSample]
    events: list[str]
    config_echo: dict


_SCENARIO_FIELDS = {"topology": str, "traffic": dict, "slots": int, "scheme": str,
                    "rerouting_mode": str, "mu_trigger": NUMBER, "mu_headroom": NUMBER,
                    "rerouting_interval": int, "lsp_plan": dict, "seed": int}
# Any other kind takes no field but `kind`; ScenarioConfig.validate rejects it.
_PLAN_FIELDS = {"auto": {"kind": str, "paths_per_pair": int}, "file": {"kind": str, "path": str}}
_TRAFFIC_FIELDS = {"demand_fraction": NUMBER, "flow_intensity": NUMBER,
                   "max_flows_per_source": int, "growth_max": NUMBER,
                   "intensity_scale": NUMBER, "delay_stretch": NUMBER}


def load_scenario(path: str) -> ScenarioConfig:
    """Read a scenario JSON file; relative paths resolve against its directory. Each
    object is checked against its field table (`check_object`); absent fields take the
    dataclasses' defaults."""
    doc = read_json(path, "scenario file")
    check_object(doc, _SCENARIO_FIELDS, "scenario", required={"topology", "traffic"})
    plan_doc = doc.get("lsp_plan", {})
    kind = plan_doc.get("kind", "auto")
    check_object(plan_doc, _PLAN_FIELDS[kind] if kind in ("auto", "file") else {"kind": str},
                 f"scenario lsp_plan of kind {kind!r}")
    traffic_doc = check_object(doc["traffic"], _TRAFFIC_FIELDS, "scenario traffic",
                               required={"demand_fraction", "flow_intensity",
                                         "max_flows_per_source", "growth_max"})
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    plan = dict(plan_doc, path=resolve(plan_doc["path"]) if plan_doc.get("path") else None)
    fields = dict(doc, traffic=TrafficConfig(**traffic_doc), lsp_plan=LspPlanSpec(**plan))
    fields["topology_path"] = resolve(fields.pop("topology"))
    if "rerouting_mode" in doc:
        try:
            fields["rerouting_mode"] = RoutingMode(doc["rerouting_mode"])
        except ValueError as exc:
            raise ParseError(f"scenario field malformed: {exc}") from exc
    cfg = ScenarioConfig(**fields)
    cfg.validate()
    return cfg


def build_auto_lsp_plan(topo: NetworkTopology, paths_per_pair: int = 2,
                        mu_headroom: float = 0.9) -> list[Lsp]:
    """Plan LSPs between every ordered edge pair: the best few simple paths,
    each granted an equal share of its bottleneck bandwidth, then scaled down
    once so that reservations summed per link never exceed the headroom."""
    planned = []  # (nodes, links, their Link records, delay, raw capacity) per path
    link_sum: dict[tuple[int, int], float] = {}
    for src in sorted(topo.edge_nodes):
        for dst in sorted(topo.edge_nodes):
            if src == dst:
                continue
            paths = enumerate_simple_paths(topo, src, dst, limit=paths_per_pair)
            if not paths:
                raise ConfigError(f"edge pair ({src},{dst}) has no route")
            for nodes in paths:
                links = links_of_path(nodes)
                hops = [topo.by_pair[pair] for pair in links]
                delay, bottleneck = 0.0, math.inf
                for ln in hops:  # the delay summed in path order, as build_lsp sums it
                    delay += ln.delay
                    bottleneck = min(bottleneck, ln.bandwidth)
                raw = bottleneck / len(paths)
                for pair in links:
                    link_sum[pair] = link_sum.get(pair, 0.0) + raw
                planned.append((nodes, links, hops, delay, raw))
    lsps = []
    for lsp_id, (nodes, links, hops, delay, raw) in enumerate(planned):
        factor = 1.0
        for pair, ln in zip(links, hops):
            budget = mu_headroom * ln.bandwidth
            if link_sum[pair] > budget:
                factor = min(factor, budget / link_sum[pair])
        if not 0 < raw * factor < math.inf:
            raise ValidationError("capacity must be positive and finite")
        lsps.append(Lsp(lsp_id, nodes[0], nodes[-1], links, raw * factor, delay))
    return lsps


_PLAN_FILE_FIELDS = {"lsps": list}
_PLAN_ENTRY_FIELDS = {"path": list, "capacity": NUMBER}


def load_lsp_plan_file(path: str, topo: NetworkTopology) -> list[Lsp]:
    """Read an explicit LSP plan: {"lsps": [{"path": [...], "capacity": x}, ...]}."""
    doc = read_json(path, "LSP plan file")
    check_object(doc, _PLAN_FILE_FIELDS, f"LSP plan {path!r}", required=_PLAN_FILE_FIELDS.keys())
    for i, e in enumerate(doc["lsps"]):
        where = f"LSP plan {path!r} entry #{i}"
        check_object(e, _PLAN_ENTRY_FIELDS, where, required=_PLAN_ENTRY_FIELDS.keys())
        if not all(type(v) is int for v in e["path"]):
            raise ParseError(f"{where} field 'path' must be a list of node ids")
    return [build_lsp(topo, e["path"], e["capacity"], i) for i, e in enumerate(doc["lsps"])]


def initial_assignment(flows, lsps) -> dict[int, int]:
    """Worst-fit initial placement over the plan `lsps` (or a plan made of them): largest
    flows first onto the roomiest admissible LSP. Raises when one has none at all."""
    plan = LspPlan(lsps)
    plan.check_flows(flows)
    free = {l.id: l.capacity for l in plan}
    assignment: dict[int, int] = {}
    for f in sorted(flows, key=lambda f: (-f.rate, f.id)):
        proper = plan.admissible(f.src, f.dst, f.max_delay)
        if not proper:
            raise ConfigError(
                f"flow {f.id} ({f.src}->{f.dst}, delay bound {f.max_delay:.3g}) "
                "matches no planned LSP"
            )
        lid = min(proper, key=lambda l: (-free[l.id], l.id)).id
        assignment[f.id] = lid
        free[lid] -= f.rate
    return assignment


def _delay_budgets(flows, lsps, assignment) -> dict[int, float]:
    budgets = {l.id: math.inf for l in lsps}
    for f in flows:
        lid = assignment[f.id]
        budgets[lid] = min(budgets[lid], f.max_delay)
    return budgets


def _config_echo(cfg: ScenarioConfig) -> dict:
    """`dataclasses.asdict(cfg)` with the mode's value, built without its deep copies:
    every field below the top level is an immutable scalar."""
    doc = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    doc.update(traffic=dict(vars(cfg.traffic)), lsp_plan=dict(vars(cfg.lsp_plan)),
               rerouting_mode=cfg.rerouting_mode.value)
    return doc


def _set_up(cfg: ScenarioConfig, planned: bool) -> tuple:
    """Validate `cfg` and build a run's inputs before slot 1: topology, slot-0 flows (their
    `FlowPopulation`), their rate vector, every later slot's growth factors
    (`growth_block`) and, when `planned`, the LSP plan, checked against the topology once,
    and the initial assignment. A comparison's schemes share them, so they grow the same
    traffic."""
    cfg.validate()
    topo = load_topology_file(cfg.topology_path)
    flows = FlowPopulation(generate_flows(topo, cfg.traffic, cfg.seed))
    rates = np.array([f.rate for f in flows])
    rates.flags.writeable = False  # shared by a comparison's schemes
    growth = growth_block(cfg.traffic.growth_max, cfg.seed, cfg.slots, len(flows))
    if not planned:
        return topo, flows, rates, growth, (), {}
    if cfg.lsp_plan.kind == "auto":
        lsps = build_auto_lsp_plan(topo, cfg.lsp_plan.paths_per_pair, cfg.mu_headroom)
    else:
        lsps = load_lsp_plan_file(cfg.lsp_plan.path, topo)
    # Both plan builders number LSPs by position, so plan[i].id == i.
    plan = LspPlan(lsps, topo)
    return topo, flows, rates, growth, plan, initial_assignment(flows, plan)


def run_scenario(cfg: ScenarioConfig, *, setup: tuple | None = None) -> RunResult:
    """Run one scheme over the configured slots; a comparison passes its shared `setup`.
    A slot's traffic is its rate vector beside the slot-0 `flows`, whose ids, order,
    endpoints and delay bounds never change; Flow records at the slot's rates are built
    only for a re-routing round."""
    planned = cfg.scheme != "shortest_path"
    topo, flows, rates, growth, lsps, shared = setup or _set_up(cfg, planned)
    assignment = dict(shared)  # each scheme's own copy of the shared initial assignment
    events: list[str] = []
    samples: list[MetricsSample] = []

    def log(t: int, kind: str, fields: str) -> None:
        """Append `slot=<t> event=<kind> scheme=<scheme> <fields>`, fields `key=value ...`."""
        events.append(f"slot={t} event={kind} scheme={cfg.scheme} {fields}")

    log(0, "init", f"seed={cfg.seed} flows={len(flows)}")
    if cfg.dump_dir:
        os.makedirs(cfg.dump_dir, exist_ok=True)

    def flow_paths():
        return {f.id: lsps[assignment[f.id]].links for f in flows}

    def solved(problem, solve, render, cost: str) -> tuple:
        """Solve and render `problem`: (solution, None when infeasible; event fields; dump text)."""
        try:
            sol = solve(problem)
        except Infeasible as exc:
            # Only the flag is kept: the exception would hold the solver's frames.
            return None, f"proven={exc.proven}", render(problem)
        return sol, f"{cost}={getattr(sol, cost)} optimal={sol.optimal}", render(problem, sol)

    def report(t: int, tag: str, answer: tuple, dump_name: str):
        """Log and dump one solver call's `answer`; returns its solution, None when infeasible."""
        sol, fields, text = answer
        log(t, tag if sol is not None else tag + "_infeasible", fields)
        if cfg.dump_dir:
            with open(os.path.join(cfg.dump_dir, dump_name), "w", encoding="utf-8") as fp:
                fp.write(text)
        return sol

    def run_flow_level(t: int, tag: str, now: tuple) -> bool:
        """One flow-level round over the slot's flows `now`; True when escalation is needed."""
        nonlocal assignment
        if cfg.scheme == "exact":
            problem = ReroutingProblem(flows=now, lsps=lsps, fr_old=assignment,
                                       mode=cfg.rerouting_mode, mu=cfg.mu_headroom, topology=topo)
            answer = solved(problem, solve_flow_rerouting, rerouting_to_json, "changes")
            sol = report(t, tag, answer, f"slot{t:03d}_{tag}.json")
            if sol is not None:
                assignment = sol.assignment
            return sol is None
        res = ffr(now, lsps, assignment, topo, mu=cfg.mu_headroom)
        log(t, tag, f"changes={sum(assignment.get(f) != i for f, i in res.assignment.items())}"
                    f" parked={len(res.recreation_requests)} examinations={res.examinations}")
        assignment = res.assignment
        return bool(res.recreation_requests)

    # (plan, assignment, problem, answer) of the last re-creation, reused while both stand
    built = (None, None, None, None)

    def run_recreation(t: int) -> bool:
        """One re-creation round; True when it moved a route and so rebuilt the plan."""
        nonlocal lsps, built
        if built[0] is not lsps or built[1] != assignment:
            budgets = _delay_budgets(flows, lsps, assignment)
            problem = RecreationProblem(
                requests=tuple(LspRequest(l.src, l.dst, l.capacity, budgets[l.id]) for l in lsps),
                topology=topo, lr_old=lsps.routing, mu=cfg.mu_headroom)
            built = (lsps, assignment, problem,
                     solved(problem, solve_lsp_recreation, recreation_to_json, "changed_entries"))
        rsol = report(t, "recreate", built[3], f"slot{t:03d}_recreation.json")
        if rsol is None or rsol.routing == built[2].lr_old:
            return False  # the plan stays the very same object
        lsps = LspPlan([l if links == l.links else
                        build_lsp(topo, (l.src, *(b for _, b in links)), l.capacity, l.id)
                        for l, links in zip(lsps, rsol.routing)], topo)
        return True

    if planned:
        log(0, "plan", f"lsps={len(lsps)}")
        paths = flow_paths()
    else:
        routes: dict[tuple[int, int], tuple] = {}  # one route per endpoint pair
        for f in flows:
            if (f.src, f.dst) not in routes:
                routes[f.src, f.dst] = links_of_path(shortest_path_route(f, topo))
        paths = {f.id: routes[f.src, f.dst] for f in flows}
    # Growth changes only the rates, so the index holds until a round moves a path.
    index = link_index(topo, flows, paths)
    for t in range(cfg.slots):
        usage = None  # compute_sample computes it: slot 0, unplanned, moved paths
        if t >= 1:
            rates = grow_flows(rates, growth[t - 1])
        if t >= 1 and planned:
            usage = utilization(rates, index)
            periodic = t % cfg.rerouting_interval == 0
            trigger = usage[2] > cfg.mu_trigger or periodic
            events.append(f"slot={t} event=check scheme={cfg.scheme} max_util={usage[2]:.6f} "
                          f"periodic={periodic} trigger={trigger}")
            if trigger:
                now, before = flows_at(flows, rates), (lsps, assignment)
                # A kept plan leaves round one's answer, which a retry would only repeat.
                if run_flow_level(t, "reroute", now) and run_recreation(t):
                    run_flow_level(t, "reroute_retry", now)
                # Paths can differ only on another plan object or another assignment.
                if (lsps is not before[0] or assignment != before[1]) and (current := flow_paths()) != paths:
                    paths, index = current, link_index(topo, flows, current)
                    usage = None
        samples.append(compute_sample(t, rates, index, usage))
    return RunResult(cfg.scheme, cfg.seed, samples, events, _config_echo(cfg))


def run_comparison(cfg: ScenarioConfig) -> list[RunResult]:
    """Run every scheme from one set-up: topology, slot-0 traffic, growth factors, LSP
    plan and initial assignment. Writes no dumps."""
    setup = _set_up(cfg, planned=True)
    return [run_scenario(dataclasses.replace(cfg, scheme=s, dump_dir=None), setup=setup)
            for s in SCHEMES]


def _write_outputs(out_dir: str, entries: list, events: list[str], echo: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), entries)
    with open(os.path.join(out_dir, "events.log"), "w", encoding="utf-8") as fp:
        fp.write("\n".join(events) + "\n")
    with open(os.path.join(out_dir, "config.echo"), "w", encoding="utf-8") as fp:
        fp.write(json.dumps(echo, indent=2, sort_keys=True) + "\n")


def write_run_result(result: RunResult, out_dir: str) -> None:
    _write_outputs(out_dir, [(result.scheme, s) for s in result.samples], result.events,
                   result.config_echo)


def write_comparison(results: list[RunResult], out_dir: str) -> None:
    """One output set for every scheme; config.echo lists the schemes under `scheme`."""
    _write_outputs(out_dir, [(r.scheme, s) for r in results for s in r.samples],
                   [line for r in results for line in r.events],
                   dict(results[0].config_echo, scheme=[r.scheme for r in results]))
