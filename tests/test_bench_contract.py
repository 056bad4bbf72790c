"""What the benchmark in bench/ reads from the program, checked on a small run:
the layer names it wraps, the solver results it audits, the enumeration it
replays and the layers every workload must call. The bench modules are
imported from their files and left unchanged."""

import dataclasses
import importlib.util
import os
import sys

import pytest

import hybridte as ht
from hybridte import orchestrator
from hybridte.rerouting import RoutingMode

ROOT = os.path.join(os.path.dirname(__file__), "..")


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(ROOT, "bench", f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probes = load_bench_module("probes")
workloads = load_bench_module("workloads")


def test_traced_names_resolve_in_the_orchestrator():
    for name in probes.TRACED:
        assert callable(getattr(orchestrator, name)), name


def test_traced_runs_pass_the_benchmark_checks():
    cfg = dataclasses.replace(ht.load_scenario(os.path.join(ROOT, "scenarios", "scenario3.json")),
                              seed=0, rerouting_mode=RoutingMode.UNRESERVED)
    tracer = probes.Tracer()
    tracer.capture = True
    events = {}
    with probes.patched(tracer.wrappers()):
        for scheme in ("exact", "ffr"):
            tracer.run_tag = scheme
            result = orchestrator.run_scenario(dataclasses.replace(cfg, scheme=scheme))
            events[scheme] = result.events
    # Each run escalates 9 and 6 times; a re-creation equal to the one before
    # reuses its answer, so the solver sees only the first.
    for scheme, escalations in (("exact", 9), ("ffr", 6)):
        assert sum(" event=recreate" in line for line in events[scheme]) == escalations
        assert [tag for tag, _, _ in tracer.recreations].count(scheme) == 1
    assert tracer.reroutings
    assert probes.audit_captures(tracer) == set()
    paths, _ = probes.replay_enumeration(tracer)
    assert paths > 0
    assert sorted(n for n in workloads._COMMON if tracer.calls[n] == 0) == []


def test_slot_probe_spans_every_checked_slot_once():
    # The probe times a slot from its grow_flows call to its compute_sample
    # call, so the orchestrator must make each once per slot, by module name.
    cfg = ht.load_scenario(os.path.join(ROOT, "scenarios", "scenario3.json"))
    probe = probes.SlotProbe()
    with probes.patched(probe.wrappers()):
        orchestrator.run_comparison(cfg)
    assert len(probe.spans) == 3 * (cfg.slots - 1)
    assert all(start <= end for start, end in probe.spans)
    assert all(end <= start for (_, end), (start, _) in zip(probe.spans, probe.spans[1:]))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_pool_reaches_every_required_layer(tmp_path, name):
    # The benchmark exits when a pass over a workload's pool never calls one
    # of its required names, or when a captured solver result fails the audit.
    wl = workloads.build(name, ROOT, str(tmp_path), seed=1)
    tracer = probes.Tracer()
    tracer.capture = True
    with probes.patched(tracer.wrappers()):
        for run in wl.pool:
            tracer.run_tag = run.tag
            if run.compare:
                orchestrator.run_comparison(run.cfg)
            else:
                orchestrator.run_scenario(run.cfg)
    assert sorted(n for n in wl.must_call if tracer.calls[n] == 0) == []
    assert tracer.reroutings + tracer.recreations
    assert probes.audit_captures(tracer) == set()
