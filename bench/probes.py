"""Timing wrappers around the layer functions that hybridte.orchestrator calls.

The benchmark never edits the program. It swaps names in the orchestrator's
module namespace for wrappers and puts the originals back afterwards, so a
layer is timed from the outside, around each call the orchestrator makes.
A refactor that stops routing calls through these names shows up as a layer
that is never called; the benchmark then fails instead of reporting zeros.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

from hybridte import orchestrator
from hybridte.audit import audit_flow_assignment, audit_lsp_routing
from hybridte.errors import Infeasible
from hybridte.recreation import enumerate_simple_paths

perf = time.perf_counter

# Names looked up in hybridte.orchestrator at call time. run_scenario is
# wrapped too: run_comparison calls it by name, and its self time is the
# orchestrator's own work (trigger check, flow_paths rebuilds, events).
TRACED = (
    "run_scenario", "load_topology_file", "generate_flows", "grow_flows",
    "build_auto_lsp_plan", "initial_assignment", "enumerate_simple_paths",
    "ffr", "solve_flow_rerouting", "solve_lsp_recreation",
    "rerouting_to_json", "recreation_to_json", "compute_sample",
)


class ProbeError(RuntimeError):
    """A probe saw less than the workload must produce; its numbers would lie."""


@contextlib.contextmanager
def patched(wrappers: dict):
    saved = {name: getattr(orchestrator, name) for name in wrappers}
    for name, fn in wrappers.items():
        setattr(orchestrator, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(orchestrator, name, fn)


class SlotProbe:
    """Start and end of each checked slot (t >= 1), from the start of
    grow_flows to the end of compute_sample: growth, trigger check,
    flow-level step, escalation and the metrics sample. Timestamps are taken
    at those two calls only."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self._start = 0.0

    def wrappers(self) -> dict:
        grow, sample = orchestrator.grow_flows, orchestrator.compute_sample

        def grow_flows(*args, **kwargs):
            self._start = perf()
            return grow(*args, **kwargs)

        def compute_sample(slot, *args, **kwargs):
            out = sample(slot, *args, **kwargs)
            if slot >= 1:
                self.spans.append((self._start, perf()))
            return out

        return {"grow_flows": grow_flows, "compute_sample": compute_sample}


class Tracer:
    """One span per wrapped call: inclusive time, self time (minus the spans
    it caused), call count, plus counters read off arguments and results.

    While `capture` is set, solver inputs and outputs are kept for the audit
    and the path-enumeration replay, tagged with the run that made them."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.capture = False
        self.run_tag = None
        self.reroutings: list = []    # (run tag, problem, solution)
        self.recreations: list = []   # (run tag, problem, solution or None)
        self._child: list[float] = []

    def totals(self) -> dict:
        return {"calls": Counter(self.calls), "busy": defaultdict(float, self.busy),
                "self_s": defaultdict(float, self.self_s), "counts": Counter(self.counts)}

    def wrappers(self) -> dict:
        return {name: self._span(name, getattr(orchestrator, name),
                                 getattr(self, "_on_" + name, None))
                for name in TRACED}

    def _span(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            except Infeasible as exc:
                self._close(name, start)
                if observe is not None:
                    observe(args, None, exc)
                raise
            except BaseException:
                self._close(name, start)
                raise
            self._close(name, start)
            if observe is not None:
                observe(args, out, None)
            return out
        return wrapper

    def _close(self, name: str, start: float):
        dur = perf() - start
        child = self._child.pop()
        if self._child:
            self._child[-1] += dur
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_s[name] += dur - child

    def _on_compute_sample(self, args, out, exc):
        if args[0] >= 1:
            self.counts["checked_slots"] += 1

    def _on_ffr(self, args, out, exc):
        self.counts["ffr.examinations"] += out.examinations
        self.counts["ffr.parked"] += len(out.recreation_requests)
        self.counts["ffr.placed"] += len(out.placed)
        self.counts["ffr.flows"] += len(args[0])

    def _on_solve_flow_rerouting(self, args, out, exc):
        if exc is not None:
            self.counts["rerouting.infeasible_proven" if exc.proven
                        else "rerouting.budget_exhausted"] += 1
            return
        self.counts["rerouting.solved"] += 1
        self.counts["rerouting.nodes_explored"] += out.nodes_explored
        if not out.optimal:
            self.counts["rerouting.budget_exhausted"] += 1
        if self.capture:
            self.reroutings.append((self.run_tag, args[0], out))

    def _on_solve_lsp_recreation(self, args, out, exc):
        if exc is None:
            self.counts["recreation.nodes_explored"] += out.nodes_explored
            self.counts["recreation.changed"] += out.changed_entries > 0
        if self.capture:
            self.recreations.append((self.run_tag, args[0], out))

    def _on_dump(self, args, out, exc):
        self.counts["dump.instances"] += 1
        self.counts["dump.bytes"] += len(out)  # json.dumps output is ASCII

    _on_rerouting_to_json = _on_recreation_to_json = _on_dump


def audit_captures(tracer: Tracer) -> set:
    """Re-check every captured solver result with the numpy audits; returns
    the tags of the runs whose results fail."""
    bad = set()
    for tag, p, sol in tracer.reroutings:
        if audit_flow_assignment(p.flows, p.lsps, sol.assignment, mode=p.mode.value,
                                 mu=p.mu, routing=p.routing, topo=p.topology):
            bad.add(tag)
    for tag, p, sol in tracer.recreations:
        if sol is not None and audit_lsp_routing(p.requests, sol.routing, p.topology, mu=p.mu):
            bad.add(tag)
    return bad


def replay_enumeration(tracer: Tracer) -> tuple[int, float]:
    """Candidate paths behind the captured re-creation requests, counted by
    replaying the public enumerate_simple_paths; returns (paths, seconds)."""
    paths = 0
    start = perf()
    for _, p, _ in tracer.recreations:
        for r in p.requests:
            paths += len(enumerate_simple_paths(p.topology, r.src, r.dst,
                                                r.delay_budget, p.path_limit))
    return paths, perf() - start
