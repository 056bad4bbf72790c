"""The benchmark's workloads, built from the repo's scenario files.

Each workload times a fixed pool of runs. Per-run cost is heavy-tailed: on
the same configuration one traffic seed finishes in 0.01 s and the next
spends seconds proving a re-routing infeasible or exhausting the B&B node
budget. A pool of random seeds would make a time-boxed measurement measure
the draw, not the program, so the timed pool is fixed. It deliberately holds
the seeds that reach the expensive paths. The workload seed sets the order
of the pool and picks one held-out run that is checked, not timed.

Each pool entry runs a fixed number of times in the timed pass, set here so
that the pool's repetitions take about 9-11 s at reference speed (clock.py),
which fills a 20-second pass on a host running at half that speed. An entry
that costs seconds repeats less often than one that costs milliseconds.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass

import hybridte as ht
from hybridte.orchestrator import SCHEMES
from hybridte.rerouting import RoutingMode
from hybridte.topology import Link, NetworkTopology

HOLDOUT_BASE = 1_000_000


@dataclass(frozen=True)
class Run:
    """One sweep entry: the `hybridte compare` path when `compare`, else
    the `hybridte run` path for the configured scheme."""

    tag: str
    cfg: ht.ScenarioConfig
    out_dir: str
    compare: bool = False
    reps: int = 1        # repetitions in the timed pass

    @property
    def slots(self) -> int:
        return self.cfg.slots * (len(SCHEMES) if self.compare else 1)

    @property
    def checked_slots(self) -> int:
        return (self.cfg.slots - 1) * (len(SCHEMES) if self.compare else 1)


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[Run, ...]        # timed, in canonical order
    warmup: Run
    holdout: Run                 # seed-derived, checked only
    must_call: frozenset[str]    # layer functions every pass must reach

    def ordered_pool(self, seed: int) -> list[Run]:
        runs = list(self.pool)
        random.Random(seed).shuffle(runs)
        return runs


def ring_topology(edges: int = 6, cores: int = 8, bandwidth: float = 100.0,
                  delay: float = 1.0) -> NetworkTopology:
    """Cores in a ring, edge e attached to cores 2e and 2e+1 (mod cores);
    edge nodes are 0..edges-1, core c is node edges+c."""
    pairs = {(edges + c, edges + (c + 1) % cores) for c in range(cores)}
    for e in range(edges):
        pairs |= {(e, edges + (2 * e) % cores), (e, edges + (2 * e + 1) % cores)}
    links = [Link(a, b, bandwidth, delay) for a, b in pairs]
    links += [Link(b, a, bandwidth, delay) for a, b in pairs]
    return NetworkTopology(edges + cores, tuple(links), frozenset(range(edges)))


def _scenario(root: str, n: int) -> ht.ScenarioConfig:
    return ht.load_scenario(os.path.join(root, "scenarios", f"scenario{n}.json"))


def _ref8_mix(root, out, seed):
    cfgs = {n: _scenario(root, n) for n in (1, 2, 3, 4)}

    def run(n, s):
        tag = f"s{n}-seed{s}"
        return Run(tag, dataclasses.replace(cfgs[n], seed=s), os.path.join(out, tag), compare=True,
                   reps=8)

    pool = tuple(run(n, s) for n in cfgs for s in range(8))
    return pool, run(1, 1), run(1 + seed % 4, HOLDOUT_BASE + seed)


def _ring14_recreate(root, out, seed):
    topo_path = os.path.join(out, "ring14.json")
    with open(topo_path, "w", encoding="utf-8") as fp:
        fp.write(ht.serialize_topology(ring_topology()))
    base = dataclasses.replace(_scenario(root, 3), topology_path=topo_path)

    def run(scheme, s):
        tag = f"{scheme}-seed{s}"
        return Run(tag, dataclasses.replace(base, scheme=scheme, seed=s), os.path.join(out, tag),
                   reps=6)

    pool = tuple(run(scheme, s) for scheme in ("ffr", "exact") for s in range(4))
    return pool, run("ffr", 3), run(("ffr", "exact")[seed % 2], HOLDOUT_BASE + seed)


def _overload8_exact(root, out, seed):
    base = _scenario(root, 1)
    base = dataclasses.replace(
        base, scheme="exact", rerouting_mode=RoutingMode.RESERVED,
        traffic=dataclasses.replace(base.traffic, max_flows_per_source=15, flow_intensity=2.0,
                                    demand_fraction=0.05, growth_max=0.05))

    def run(s):
        # Seed 101 exhausts the node budget; 102-109 solve or prove quickly.
        return Run(f"seed{s}", dataclasses.replace(base, seed=s), os.path.join(out, f"seed{s}"),
                   reps=4 if s == 101 else 10)

    pool = tuple(run(s) for s in range(101, 110))
    return pool, run(102), run(HOLDOUT_BASE + seed)


def _ref8_dump(root, out, seed):
    cfgs = {n: _scenario(root, n) for n in (1, 3)}

    def run(n, s):
        tag = f"s{n}-seed{s}"
        out_dir = os.path.join(out, tag)
        cfg = dataclasses.replace(cfgs[n], seed=s, scheme="exact",
                                  rerouting_mode=RoutingMode.UNRESERVED,
                                  dump_dir=os.path.join(out_dir, "lp"))
        return Run(tag, cfg, out_dir, reps=18)

    pool = tuple(run(n, s) for n in cfgs for s in range(8))
    return pool, run(1, 1), run((1, 3)[seed % 2], HOLDOUT_BASE + seed)


_COMMON = {"run_scenario", "load_topology_file", "generate_flows", "grow_flows",
           "compute_sample", "solve_flow_rerouting", "solve_lsp_recreation",
           "rerouting_to_json", "recreation_to_json"}
_PLANNED = _COMMON | {"build_auto_lsp_plan", "initial_assignment", "enumerate_simple_paths"}

_BUILDERS = {
    "ref8-mix": (_ref8_mix, _PLANNED | {"ffr"}),
    "ring14-recreate": (_ring14_recreate, _PLANNED | {"ffr"}),
    "overload8-exact": (_overload8_exact, _PLANNED),
    "ref8-dump": (_ref8_dump, _PLANNED),
}
NAMES = tuple(_BUILDERS)


def build(name: str, root: str, out: str, seed: int) -> Workload:
    """Generate the workload's topology files under `out` and load its scenarios."""
    builder, must_call = _BUILDERS[name]
    pool, warmup, holdout = builder(root, out, seed)
    return Workload(name, pool, warmup, holdout, frozenset(must_call))
