"""Run one fixed matrix of `hybridte` commands from two source trees and compare
every output file byte for byte.

    python tools/same_outputs.py --base DIR --change DIR [--work DIR] [--runs N]

Each tree is a checkout with `src/hybridte` and `scenarios/`. The matrix is
`hybridte run --dump-lp` under each scheme and `hybridte compare`, over
`scenario1`, `scenario3` and `degenerate`, each as written, heavy (3x
`demand_fraction`, `growth_max` 0.1) and still (`growth_max` 0), and over the
"moving", "shifting" and "sharing" mini scenarios, all in both re-routing modes,
at seeds 0-7: 768 commands. The variants are written from each tree's own scenario
files. The mini scenarios are written by this script:
- "moving", on a 4-node topology with 10-unit links and two routes between edge
  nodes 0 and 1, has a file plan of two 5-unit LSPs on one route, whose exact
  re-creations move a route, so that the matrix also dumps rounds on a rebuilt
  plan;
- "shifting", on the same topology, has one LSP on each route of both pairs, of
  unequal capacities, and heavier traffic, so that its exact rounds move flows in
  both modes. Its capacities and three traffic fields are, of 40 draws of a seeded
  sweep (`numpy.random.default_rng(0)`; capacities 2-8, `max_flows_per_source`
  3-4, `demand_fraction` 0.05-0.2, `flow_intensity` 0.8-3), the one whose exact
  rounds moved flows most often;
- "sharing", on a 5-node topology whose cores 3 and 4 each have a 10-unit link to
  each of the edge nodes 0-2, has a file plan of 10 LSPs in which the pairs 0->1
  and 2->1 share links 3->1 and 4->1, so that its unreserved exact rounds reach the
  joint search of all flows. Its capacities and three traffic fields are draw 32
  of 40 of the same sweep on this plan; at seeds 0-7 its unreserved exact runs
  reach the joint search 7 times, once solved with a moved flow and 6 times
  proven infeasible.
Each tree runs the whole matrix in its own Python process, which imports only
that tree's package, with every run's output under `<work>/<side>/out`. Besides
`metrics.csv`, `events.log`, `config.echo` and the dumps, each run leaves a
`status` file: the command's exit code and error text. The only normalisation:
in `config.echo`, the side's work directory, which prefixes the resolved topology
path, reads `<work>`.

It prints equal/different counts per file kind and the first differing line of
each differing file, and exits 0 only when every file is equal.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter

SCENARIOS = ("scenario1", "scenario3", "degenerate")
SCHEMES = ("exact", "ffr", "shortest_path")
SEEDS = range(8)
# name -> (re-routing mode, traffic fields scaled by a factor, traffic fields set)
VARIANTS = {
    "reserved": ("reserved", {}, {}),
    "unreserved": ("unreserved", {}, {}),
    "heavy-reserved": ("reserved", {"demand_fraction": 3}, {"growth_max": 0.1}),
    "heavy-unreserved": ("unreserved", {"demand_fraction": 3}, {"growth_max": 0.1}),
    "still-reserved": ("reserved", {}, {"growth_max": 0.0}),
    "still-unreserved": ("unreserved", {}, {"growth_max": 0.0}),
}
# The "moving" mini scenario, written beside the others as moving-<mode>.json.
MOVING_TOPOLOGY = {"nodes": 4, "edge_nodes": [0, 1], "links": [
    {"src": a, "dst": b, "bandwidth": 10.0, "delay": 1.0}
    for pair in ((0, 2), (2, 1), (0, 3), (3, 1)) for a, b in (pair, pair[::-1])]}
MOVING_PLAN = {"lsps": [{"path": [0, 2, 1], "capacity": 5.0}, {"path": [0, 2, 1], "capacity": 5.0},
                        {"path": [1, 2, 0], "capacity": 4.0}]}
MOVING = {"topology": "moving-topology.json", "scheme": "exact", "slots": 12, "seed": 1,
          "mu_trigger": 0.001, "mu_headroom": 0.9, "rerouting_interval": 5,
          "lsp_plan": {"kind": "file", "path": "moving-plan.json"},
          "traffic": {"demand_fraction": 0.3, "flow_intensity": 0.8, "max_flows_per_source": 2,
                      "growth_max": 0.1, "delay_stretch": 2.0}}
# The "shifting" mini scenario, written beside them as shifting-<mode>.json.
SHIFTING_PLAN = {"lsps": [{"path": path, "capacity": capacity} for path, capacity in (
    ([0, 2, 1], 6.0), ([0, 3, 1], 6.0), ([1, 2, 0], 8.0), ([1, 3, 0], 4.0))]}
SHIFTING = dict(MOVING, lsp_plan={"kind": "file", "path": "shifting-plan.json"},
                traffic=dict(MOVING["traffic"], demand_fraction=0.2, flow_intensity=3.0,
                             max_flows_per_source=4))
# The "sharing" mini scenario, written beside them as sharing-<mode>.json.
SHARING_TOPOLOGY = {"nodes": 5, "edge_nodes": [0, 1, 2], "links": [
    {"src": a, "dst": b, "bandwidth": 10.0, "delay": 1.0}
    for pair in ((0, 3), (0, 4), (2, 3), (2, 4), (3, 1), (4, 1)) for a, b in (pair, pair[::-1])]}
SHARING_PLAN = {"lsps": [{"path": path, "capacity": capacity} for path, capacity in (
    ([0, 3, 1], 5.0), ([0, 4, 1], 3.0), ([2, 3, 1], 3.0), ([2, 4, 1], 8.0), ([1, 3, 0], 2.0),
    ([1, 4, 0], 7.0), ([1, 3, 2], 6.0), ([1, 4, 2], 5.0), ([0, 3, 2], 7.0), ([2, 4, 0], 7.0))]}
SHARING = dict(MOVING, topology="sharing-topology.json",
               lsp_plan={"kind": "file", "path": "sharing-plan.json"},
               traffic=dict(MOVING["traffic"], demand_fraction=0.14826815959870704,
                            flow_intensity=2.810119677956256, max_flows_per_source=3))
# mini scenario -> (scenario, topology, LSP plan)
MINIS = {"moving": (MOVING, MOVING_TOPOLOGY, MOVING_PLAN),
         "shifting": (SHIFTING, MOVING_TOPOLOGY, SHIFTING_PLAN),
         "sharing": (SHARING, SHARING_TOPOLOGY, SHARING_PLAN)}
MODES = ("reserved", "unreserved")
NAMES = tuple(f"{scenario}-{variant}" for scenario in SCENARIOS for variant in VARIANTS) \
    + tuple(f"{mini}-{mode}" for mini in MINIS for mode in MODES)

# Runs each command of the JSON list on stdin through the tree's `hybridte.cli.main`.
_RUNNER = """
import contextlib, io, json, os, sys
src = os.path.join(sys.argv[1], "src")
sys.path.insert(0, src)
import hybridte
from hybridte.cli import main
if os.path.dirname(os.path.dirname(hybridte.__file__)) != src:
    sys.exit(f"imported {hybridte.__file__}, not the package under {src}")
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            code = f"crash {exc!r}"
    out = argv[argv.index("--out") + 1]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "status"), "w", encoding="utf-8") as fp:
        fp.write(f"{code}\\n{err.getvalue()}")
"""


def matrix() -> list[list[str]]:
    """Every command of the matrix, as argv lists relative to a side's work directory."""
    runs = []
    for seed in SEEDS:
        for name in NAMES:
            path, out = f"scenarios/{name}.json", f"out/{name}"
            for scheme in SCHEMES:
                runs.append(["run", path, "--seed", str(seed), "--scheme", scheme, "--dump-lp",
                             "--out", f"{out}/{scheme}-seed{seed}"])
            runs.append(["compare", path, "--seed", str(seed),
                         "--out", f"{out}/compare-seed{seed}"])
    return runs


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2)


def write_scenarios(tree: str, side_dir: str) -> None:
    """Write each scenario variant from `tree`'s scenario files, beside a copy of
    the topology file each names, and the mini scenarios' files."""
    target = os.path.join(side_dir, "scenarios")
    os.makedirs(target)
    for mini, (doc, topology, plan) in MINIS.items():
        write_json(os.path.join(target, doc["topology"]), topology)
        write_json(os.path.join(target, doc["lsp_plan"]["path"]), plan)
        for mode in MODES:
            write_json(os.path.join(target, f"{mini}-{mode}.json"), dict(doc, rerouting_mode=mode))
    for scenario in SCENARIOS:
        with open(os.path.join(tree, "scenarios", f"{scenario}.json"), encoding="utf-8") as fp:
            doc = json.load(fp)
        shutil.copy(os.path.join(tree, "scenarios", doc["topology"]), target)
        for variant, (mode, scaled, fields) in VARIANTS.items():
            traffic = dict(doc["traffic"], **fields)
            for name, factor in scaled.items():
                traffic[name] *= factor
            write_json(os.path.join(target, f"{scenario}-{variant}.json"),
                       dict(doc, rerouting_mode=mode, traffic=traffic))


def start_side(tree: str, side_dir: str, runs: list) -> subprocess.Popen:
    write_scenarios(tree, side_dir)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen([sys.executable, "-B", "-c", _RUNNER, os.path.abspath(tree)],
                            stdin=subprocess.PIPE, cwd=side_dir, env=env, text=True)
    proc.stdin.write(json.dumps(runs))
    proc.stdin.close()
    return proc


def output_files(side_dir: str) -> dict[str, str]:
    """Each output file's path relative to the side's `out` directory -> its kind."""
    root = os.path.join(side_dir, "out")
    files = {}
    for path, _, names in os.walk(root):
        for name in names:
            rel = os.path.relpath(os.path.join(path, name), root)
            # A dump is named slotNNN_<tag>.json; its kind is its tag.
            files[rel] = f"lp/{name.split('_', 1)[1]}" if os.path.basename(path) == "lp" else name
    return files


def read(side_dir: str, rel: str) -> list[str]:
    with open(os.path.join(side_dir, "out", rel), encoding="utf-8") as fp:
        text = fp.read()
    if os.path.basename(rel) == "config.echo":
        text = text.replace(json.dumps(os.path.abspath(side_dir))[1:-1], "<work>")
    return text.splitlines(keepends=True)


def first_difference(a: list[str], b: list[str]) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"line {i + 1}:\n    base:   {x.rstrip()[:160]}\n    change: {y.rstrip()[:160]}"
    n = min(len(a), len(b))
    longer, side = (a, "base") if len(a) > len(b) else (b, "change")
    return f"line {n + 1}: only {side} has {longer[n].rstrip()[:160]}"


def compare(base_dir: str, change_dir: str) -> tuple[Counter, Counter, list[str]]:
    """(equal counts by kind, different counts by kind, one report per differing file)."""
    base, change = output_files(base_dir), output_files(change_dir)
    equal, different, reports = Counter(), Counter(), []
    for rel in sorted(base.keys() | change.keys()):
        kind = base.get(rel) or change[rel]
        if rel not in change or rel not in base:
            different[kind] += 1
            reports.append(f"{rel}: only in {'base' if rel in base else 'change'}")
            continue
        a, b = read(base_dir, rel), read(change_dir, rel)
        if a == b:
            equal[kind] += 1
        else:
            different[kind] += 1
            reports.append(f"{rel}: {first_difference(a, b)}")
    return equal, different, reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="source tree of the base")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--work", default=None,
                        help="empty or new directory to keep the outputs in (default: a "
                             "temporary one, removed afterwards)")
    parser.add_argument("--runs", type=int, default=None,
                        help="run only the first RUNS commands of the matrix")
    args = parser.parse_args(argv)
    runs = matrix()[:args.runs]
    work = args.work or tempfile.mkdtemp(prefix="same_outputs-")
    try:
        sides = {side: os.path.join(work, side) for side in ("base", "change")}
        procs = [start_side(tree, sides[side], runs)
                 for side, tree in (("base", args.base), ("change", args.change))]
        if any(proc.wait() != 0 for proc in procs):
            print("a side's runner failed", file=sys.stderr)
            return 2
        equal, different, reports = compare(sides["base"], sides["change"])
    finally:
        if args.work is None:
            shutil.rmtree(work)
    for report in reports:
        print(report)
    print(f"{len(runs)} commands per side")
    print(f"{'kind':<28}{'equal':>8}{'different':>11}")
    for kind in sorted(equal.keys() | different.keys()):
        print(f"{kind:<28}{equal[kind]:>8}{different[kind]:>11}")
    print(f"{'all':<28}{sum(equal.values()):>8}{sum(different.values()):>11}")
    return 1 if different or not equal else 0


if __name__ == "__main__":
    sys.exit(main())
