"""tools/same_outputs.py on a two-run matrix: a tree against itself shows no
difference, and against a copy whose scenario differs, it names the files that do.
The matrix's moving scenario moves a route under `exact`, its shifting scenario
moves flows under `exact` in both re-routing modes, its sharing scenario reaches
re-routing's joint search of all flows, and its heavy scenario1 variant overloads
links under every scheme."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

from hybridte import orchestrator, rerouting
from hybridte.cli import main
from hybridte.errors import Infeasible
from hybridte.metrics import utilization

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TOOL = os.path.join(REPO, "tools", "same_outputs.py")


def same_outputs(base, change, work):
    return subprocess.run([sys.executable, TOOL, "--base", base, "--change", change,
                           "--work", str(work), "--runs", "2"],
                          capture_output=True, text=True, timeout=300)


def counts(stdout):
    """kind -> (equal, different), from the tool's table."""
    rows = stdout.splitlines()
    table = rows[rows.index(next(r for r in rows if r.startswith("kind"))) + 1:]
    return {kind: (int(eq), int(diff)) for kind, eq, diff in map(str.split, table)}


def test_a_tree_against_itself_is_equal(tmp_path):
    proc = same_outputs(REPO, REPO, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = counts(proc.stdout)
    # The matrix starts with scenario1's exact run, which dumps its instances, then its ffr run.
    assert {kind: got[kind] for kind in ("metrics.csv", "events.log", "config.echo", "status")} \
        == dict.fromkeys(("metrics.csv", "events.log", "config.echo", "status"), (2, 0))
    assert got["lp/reroute.json"][0] > 0 and got["lp/reroute.json"][1] == 0
    assert sorted(os.listdir(tmp_path / "base" / "out" / "scenario1-reserved")) \
        == ["exact-seed0", "ffr-seed0"]


def test_a_changed_scenario_is_named(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(REPO, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(REPO, "scenarios"), tree / "scenarios")
    path = tree / "scenarios" / "scenario1.json"
    doc = json.loads(path.read_text())
    doc["traffic"]["demand_fraction"] *= 2
    path.write_text(json.dumps(doc))
    proc = same_outputs(REPO, str(tree), tmp_path / "work")
    assert proc.returncode == 1
    got = counts(proc.stdout)
    assert got["config.echo"] == (0, 2) and got["metrics.csv"] == (0, 2)
    assert got["status"] == (2, 0)
    assert "scenario1-reserved/ffr-seed0/config.echo: line " in proc.stdout


def write_matrix_scenarios(directory):
    """Write the matrix's scenario files under `directory`/scenarios as the tool writes
    them; returns the tool's module."""
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.write_scenarios(REPO, str(directory))
    return tool


def matrix_runs(tmp_path, monkeypatch, name):
    """Each command of the matrix on the scenarios whose names start with `name`, with
    the scenario files written and the working directory set as the tool sets them."""
    tool = write_matrix_scenarios(tmp_path)
    monkeypatch.chdir(tmp_path)
    return [argv for argv in tool.matrix() if argv[1].startswith(f"scenarios/{name}")]


def exact_runs(tmp_path, monkeypatch, mini):
    """The events of each exact run of the matrix on the mini scenario `mini`."""
    runs = [argv for argv in matrix_runs(tmp_path, monkeypatch, f"{mini}-") if "exact" in argv]
    assert len(runs) == 16  # both modes, seeds 0-7
    for argv in runs:
        assert main(argv) == 0
        yield argv[1], (tmp_path / argv[-1] / "events.log").read_text()


def test_the_matrix_samples_overloaded_slots_under_every_scheme(tmp_path, monkeypatch):
    # A sample takes its loss branch only when a link's load exceeds its bandwidth. The
    # heavy scenario1 variant overloads links under every scheme, so the matrix compares
    # that branch's metrics.csv rows byte for byte.
    overloaded, sampled, scheme = Counter(), Counter(), []
    sample = orchestrator.compute_sample

    def spy(t, rates, index, usage=None):
        sampled[scheme[0]] += 1
        overloaded[scheme[0]] += (usage or utilization(rates, index))[2] > 1.0
        return sample(t, rates, index, usage)

    monkeypatch.setattr(orchestrator, "compute_sample", spy)
    runs = [argv for argv in matrix_runs(tmp_path, monkeypatch, "scenario1-heavy-reserved.")
            if argv[0] == "run"]
    assert len(runs) == 24  # three schemes, seeds 0-7
    for argv in runs:
        scheme[:] = [argv[argv.index("--scheme") + 1]]
        assert main(argv) == 0
    assert sampled == dict.fromkeys(orchestrator.SCHEMES, 160)
    assert min(overloaded[s] for s in orchestrator.SCHEMES) > 0, overloaded


def test_the_matrix_moves_a_route_under_exact(tmp_path, monkeypatch):
    # The moving scenario's exact runs move a route in a re-creation and retry on the
    # rebuilt plan, so the matrix compares dumps of rounds on a new plan too.
    moved = retried = 0
    for _, events in exact_runs(tmp_path, monkeypatch, "moving"):
        moved += len(re.findall(r"event=recreate .*changed_entries=[1-9]", events))
        retried += events.count("event=reroute_retry")
    assert moved and retried, (moved, retried)


def test_the_matrix_moves_a_flow_under_exact_in_both_modes(tmp_path, monkeypatch):
    # The shifting scenario's exact re-routing rounds move flows, so the matrix compares
    # dumps and events of kernel searches that answer with a moved flow.
    moved = Counter()
    for path, events in exact_runs(tmp_path, monkeypatch, "shifting"):
        moved[path] += len(re.findall(r"event=reroute(_retry)? .*changes=[1-9]", events))
    assert sorted(moved) == ["scenarios/shifting-reserved.json",
                             "scenarios/shifting-unreserved.json"]
    assert min(moved.values()) > 0, moved


def test_the_matrix_reaches_the_joint_search_solved_and_infeasible(tmp_path, monkeypatch):
    # The sharing scenario's pairs 0->1 and 2->1 share links 3->1 and 4->1, so in unreserved
    # mode their answers can overload those links together: re-routing then calls `_solve`
    # a second time, with all flows in one part.
    parts, joint = [], Counter()
    solve_parts, solve = rerouting._solve, orchestrator.solve_flow_rerouting

    def spy_parts(search, each, *tables):
        parts.append(len(each))
        return solve_parts(search, each, *tables)

    def spy(problem):
        parts.clear()
        try:
            answer = solve(problem)
        except Infeasible as exc:
            answer = exc
        if parts[1:] == [1]:
            joint["infeasible" if isinstance(answer, Infeasible) else "solved"] += 1
        if isinstance(answer, Infeasible):
            raise answer
        return answer

    monkeypatch.setattr(rerouting, "_solve", spy_parts)
    monkeypatch.setattr(orchestrator, "solve_flow_rerouting", spy)
    for _ in exact_runs(tmp_path, monkeypatch, "sharing"):
        pass
    assert joint["solved"] and joint["infeasible"], joint
