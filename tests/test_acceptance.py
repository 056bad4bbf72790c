"""Acceptance gate for the simulator.

Eight criteria, one test each, every tolerance pinned here before the runs:

1. Exact solver objectives equal exhaustive enumeration (integer equality)
   on 200 re-routing and 100 re-creation instances, in under 60 s.
2. 1000 randomized solver runs with zero independent-audit violations.
3. Greedy re-routing examination counts grow linearly per axis
   (log-log regression exponent within 1.0 +/- 0.3).
4. Truncated-geometric sample mean within 1% of the closed form over 1e5
   draws; growth-factor sample mean within 0.5 percentage points of half
   the configured maximum.
5. Per scenario over seeds 1-10: both proposed schemes' mean throughput over
   the final five slots is at least the baseline's (rel. slack 1e-9) on every
   seed, and is >= 1.05x baseline on at least ceil(0.8 * |S|) of the seeds S
   whose baseline mean loss over those slots exceeds 1e-9.
6. Over slots where the baseline loses traffic: proposed mean link
   utilization >= baseline's (slack 1e-9) and mean path length within
   [1.0, 1.5]x baseline (slack 1e-9).
7. Re-running the CLI with the same seed reproduces metrics.csv, events.log
   and config.echo byte for byte.
8. On the no-growth, low-load scenario all three schemes deliver identical
   per-slot throughput (within 1e-12) and the exact solver reports zero
   changes at every trigger.
"""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import time

import numpy as np

import hybridte as ht
from hybridte.errors import Infeasible
from hybridte.ffr import ffr
from hybridte.lsp import build_lsp
from hybridte.orchestrator import SCHEMES
from hybridte.recreation import RecreationProblem, solve_lsp_recreation
from hybridte.rerouting import ReroutingProblem, RoutingMode, solve_flow_rerouting
from hybridte.topology import Link, NetworkTopology
from hybridte.traffic import Flow, truncated_geometric

import oracles

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SCENARIOS = ("scenario1", "scenario2", "scenario3", "scenario4")


def _report(criterion: int, failures: list, detail: str):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE CRITERION {criterion}: {status} - {detail}")
    assert not failures, f"criterion {criterion}: " + "; ".join(map(str, failures[:5]))


@functools.lru_cache(maxsize=None)
def _comparison(name: str, seed: int):
    cfg = ht.load_scenario(os.path.join(SCENARIO_DIR, f"{name}.json"))
    return tuple(ht.run_comparison(dataclasses.replace(cfg, seed=seed)))


def _last5_mean(samples, attr):
    vals = [getattr(s, attr) for s in samples[-5:]]
    return sum(vals) / len(vals)


def test_criterion_1_exact_objectives_match_exhaustive_search():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(101)
    solved = infeasible = 0
    for k in range(200):
        topo, flows, lsps, fr_old, mode, routing = oracles.random_rerouting_instance(rng)
        expect = oracles.best_rerouting(flows, lsps, fr_old, mode, 0.9, routing, topo)
        problem = ReroutingProblem(flows=flows, lsps=lsps, fr_old=fr_old,
                                   mode=RoutingMode(mode), mu=0.9, topology=topo)
        try:
            sol = solve_flow_rerouting(problem)
        except Infeasible as exc:
            if expect is not None:
                failures.append(f"reroute #{k}: solver infeasible, oracle cost {expect[0]}")
            elif not exc.proven:
                failures.append(f"reroute #{k}: infeasibility not proven")
            infeasible += 1
            continue
        if expect is None:
            failures.append(f"reroute #{k}: solver answered an infeasible instance")
        elif sol.changes != expect[0] or not sol.optimal:
            failures.append(f"reroute #{k}: changes {sol.changes} (optimal={sol.optimal})"
                            f" vs exhaustive {expect[0]}")
        solved += 1

    rng = np.random.default_rng(202)
    r_solved = r_infeasible = 0
    for k in range(100):
        topo, requests, lr_old, mu = oracles.random_recreation_instance(rng)
        expect = oracles.best_recreation(requests, topo, lr_old, mu)
        problem = RecreationProblem(requests=requests, topology=topo,
                                    lr_old=lr_old, mu=mu)
        try:
            sol = solve_lsp_recreation(problem)
        except Infeasible:
            if expect is not None:
                failures.append(f"recreate #{k}: solver infeasible, oracle cost {expect}")
            r_infeasible += 1
            continue
        if expect is None:
            failures.append(f"recreate #{k}: solver answered an infeasible instance")
        elif sol.changed_entries != expect or not sol.optimal:
            failures.append(f"recreate #{k}: cost {sol.changed_entries} "
                            f"(optimal={sol.optimal}) vs exhaustive {expect}")
        r_solved += 1

    wall = time.monotonic() - t0
    if wall >= 60.0:
        failures.append(f"took {wall:.1f}s (limit 60s)")
    _report(1, failures,
            f"200 re-routing ({solved} solved/{infeasible} infeasible) and "
            f"100 re-creation ({r_solved}/{r_infeasible}) instances match "
            f"exhaustive search in {wall:.1f}s")


def test_criterion_2_thousand_runs_zero_audit_violations():
    failures = []
    runs = 0

    rng = np.random.default_rng(301)
    for k in range(400):
        topo, flows, lsps, fr_old, mode, routing = oracles.random_rerouting_instance(rng)
        problem = ReroutingProblem(flows=flows, lsps=lsps, fr_old=fr_old,
                                   mode=RoutingMode(mode), mu=0.9, topology=topo)
        runs += 1
        try:
            sol = solve_flow_rerouting(problem)
        except Infeasible:
            continue
        bad = ht.audit_flow_assignment(flows, lsps, sol.assignment, mode=mode,
                                       mu=0.9, routing=routing, topo=topo)
        failures.extend(f"reroute #{k}: {b}" for b in bad)

    rng = np.random.default_rng(302)
    for k in range(300):
        topo, requests, lr_old, mu = oracles.random_recreation_instance(rng)
        problem = RecreationProblem(requests=requests, topology=topo,
                                    lr_old=lr_old, mu=mu)
        runs += 1
        try:
            sol = solve_lsp_recreation(problem)
        except Infeasible:
            continue
        bad = ht.audit_lsp_routing(requests, sol.routing, topo, mu=mu)
        failures.extend(f"recreate #{k}: {b}" for b in bad)

    rng = np.random.default_rng(303)
    for k in range(300):
        topo, flows, lsps, fr_old, _, _ = oracles.random_rerouting_instance(rng)
        runs += 1
        res = ffr(flows, lsps, fr_old, topo, mu=0.9)
        caps = {l.id: l.capacity + res.augmentations.get(l.id, 0.0) for l in lsps}
        placed = tuple(f for f in flows if f.id in res.placed)
        sub = {f.id: res.assignment[f.id] for f in placed}
        bad = ht.audit_flow_assignment(placed, lsps, sub, capacities=caps)
        failures.extend(f"ffr #{k}: {b}" for b in bad)
        for fid in res.recreation_requests:
            if fid in res.placed:
                failures.append(f"ffr #{k}: flow {fid} both placed and parked")

    _report(2, failures, f"{runs} randomized solver runs, 0 audit violations")


def _line_examinations(n_flows: int, n_lsps: int, n_links: int) -> int:
    links = tuple(Link(i, i + 1, 0.5, 1.0) for i in range(n_links))
    topo = NetworkTopology(node_count=n_links + 1, links=links,
                           edge_nodes=frozenset({0, n_links}))
    path = list(range(n_links + 1))
    lsps = tuple(build_lsp(topo, path, 1e-4, i) for i in range(n_lsps))
    flows = tuple(Flow(i, 0, n_links, 1.0, 1e9) for i in range(n_flows))
    fr_old = {f.id: 0 for f in flows}
    return ffr(flows, lsps, fr_old, topo, mu=0.9).examinations


def test_criterion_3_ffr_examinations_scale_linearly_per_axis():
    failures = []
    axes = {
        "flows": [( n, 8, 16) for n in (8, 16, 32, 64)],
        "lsps":  [(16, n, 16) for n in (4, 8, 16, 32)],
        "links": [(16, 8, n) for n in (8, 16, 32, 64)],
    }
    slopes = {}
    for axis, settings in axes.items():
        xs = np.array([s[{"flows": 0, "lsps": 1, "links": 2}[axis]] for s in settings],
                      dtype=float)
        ys = np.array([_line_examinations(*s) for s in settings], dtype=float)
        slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
        slopes[axis] = slope
        if not 0.7 <= slope <= 1.3:
            failures.append(f"{axis} axis exponent {slope:.3f} outside 1.0 +/- 0.3")
    detail = ", ".join(f"{a}={s:.3f}" for a, s in slopes.items())
    _report(3, failures, f"work-count exponents per axis: {detail}")


def test_criterion_4_sampling_means_match_closed_forms():
    failures = []
    rng = np.random.default_rng(404)
    details = []
    for p in (0.05, 0.2, 0.5):
        draws = np.array([truncated_geometric(rng, p, 10) for _ in range(100_000)])
        analytic = oracles.trunc_geom_mean(p, 10)
        rel = abs(float(draws.mean()) - analytic) / analytic
        details.append(f"p={p}: rel.err {rel:.4f}")
        if rel > 0.01:
            failures.append(f"truncated geometric p={p}: {draws.mean():.4f} vs "
                            f"{analytic:.4f} (rel {rel:.4f} > 0.01)")

    rates = np.ones(10_000)
    factors = []
    for row in ht.growth_block(0.10, 404, 11, len(rates)):
        grown = ht.grow_flows(rates, row)
        factors.extend((grown / rates - 1.0).tolist())
    mean = float(np.mean(factors))
    if abs(mean - 0.05) > 0.005:
        failures.append(f"growth mean {mean:.4f} not within 0.05 +/- 0.005")
    _report(4, failures,
            f"{'; '.join(details)}; growth mean {mean:.4f} over {len(factors)} draws")


def test_criterion_5_throughput_beats_baseline_under_loss():
    failures = []
    summary = []
    for name in SCENARIOS:
        lossy = []
        wins = {"ffr": 0, "exact": 0}
        for seed in range(1, 11):
            base, f_run, e_run = _comparison(name, seed)
            assert [r.scheme for r in (base, f_run, e_run)] == list(SCHEMES)
            base_tp = _last5_mean(base.samples, "throughput")
            slack = 1e-9 * max(1.0, abs(base_tp))
            ratios = {}
            for run in (f_run, e_run):
                tp = _last5_mean(run.samples, "throughput")
                if tp < base_tp - slack:
                    failures.append(f"{name} seed {seed}: {run.scheme} throughput "
                                    f"{tp:.4f} below baseline {base_tp:.4f}")
                ratios[run.scheme] = tp / base_tp if base_tp > 0 else math.inf
            if _last5_mean(base.samples, "packet_loss") > 1e-9:
                lossy.append(seed)
                for scheme, ratio in ratios.items():
                    if ratio >= 1.05:
                        wins[scheme] += 1
        need = math.ceil(0.8 * len(lossy))
        for scheme, got in wins.items():
            if got < need:
                failures.append(f"{name}: {scheme} >=1.05x on {got}/{len(lossy)} "
                                f"lossy seeds, need {need}")
        summary.append(f"{name}: |S|={len(lossy)}, ffr {wins['ffr']}, "
                       f"exact {wins['exact']} (need {need})")
    _report(5, failures, "; ".join(summary))


def test_criterion_6_utilization_and_path_length_under_congestion():
    failures = []
    congested_pairs = 0
    for name in SCENARIOS:
        for seed in range(1, 11):
            base, f_run, e_run = _comparison(name, seed)
            slots = [i for i, s in enumerate(base.samples) if s.packet_loss > 1e-9]
            if not slots:
                continue
            congested_pairs += 1
            base_util = np.mean([base.samples[i].avg_link_utilization for i in slots])
            base_len = np.mean([base.samples[i].avg_path_length for i in slots])
            for run in (f_run, e_run):
                util = np.mean([run.samples[i].avg_link_utilization for i in slots])
                length = np.mean([run.samples[i].avg_path_length for i in slots])
                if util < base_util - 1e-9:
                    failures.append(f"{name} seed {seed}: {run.scheme} util "
                                    f"{util:.4f} < baseline {base_util:.4f}")
                ratio = length / base_len
                if not (1.0 - 1e-9 <= ratio <= 1.5 + 1e-9):
                    failures.append(f"{name} seed {seed}: {run.scheme} path-length "
                                    f"ratio {ratio:.4f} outside [1.0, 1.5]")
    if congested_pairs == 0:
        failures.append("no scenario/seed produced baseline loss; criterion vacuous")
    _report(6, failures,
            f"{congested_pairs} congested scenario/seed pairs checked")


def test_criterion_7_cli_reruns_are_byte_identical(tmp_path):
    scenario = os.path.join(SCENARIO_DIR, "scenario2.json")
    # The child runs in tmp_path, where a relative PYTHONPATH entry such as
    # `src` resolves to nothing; put the absolute source root of the package
    # this process imported first, so the child runs the same code.
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(ht.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        proc = subprocess.run(
            [sys.executable, "-m", "hybridte", "run", scenario,
             "--out", str(out), "--seed", "11"],
            capture_output=True, text=True, cwd=str(tmp_path), env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    failures = []
    for fname in ("metrics.csv", "events.log", "config.echo"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        if a != b:
            failures.append(f"{fname} differs between same-seed reruns")
    _report(7, failures, "run outputs byte-identical across processes")


def test_criterion_8_degenerate_scenario_is_quiescent():
    cfg = ht.load_scenario(os.path.join(SCENARIO_DIR, "degenerate.json"))
    results = ht.run_comparison(cfg)
    failures = []
    base = results[0]
    for run in results[1:]:
        for s_base, s_run in zip(base.samples, run.samples):
            if abs(s_base.throughput - s_run.throughput) > 1e-12:
                failures.append(f"slot {s_run.slot}: {run.scheme} throughput "
                                f"{s_run.throughput!r} != {s_base.throughput!r}")
    exact = results[2]
    assert exact.scheme == "exact"
    reroutes = [line for line in exact.events if "event=reroute " in line]
    triggers = [line for line in exact.events
                if "event=check" in line and "trigger=True" in line]
    if not triggers:
        failures.append("no trigger fired; scenario exercises nothing")
    if len(reroutes) != len(triggers):
        failures.append(f"{len(triggers)} triggers but {len(reroutes)} re-route solves")
    for line in reroutes:
        if "changes=0" not in line:
            failures.append(f"non-trivial change under no growth: {line}")
    _report(8, failures,
            f"3 schemes identical over {len(base.samples)} slots; "
            f"{len(reroutes)} triggered solves, all changes=0")
