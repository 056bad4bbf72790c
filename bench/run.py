#!/usr/bin/env python3
"""Benchmark command for the hybridte simulator.

    python3 bench/run.py --workload ref8-mix --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the program from
`src/`. One invocation measures one workload in one process and one thread:

1. set-up: interpreter start and import (timed in a fresh process), then
   topology generation, scenario load and a warm-up run. It is sampled
   SETUP_REPEATS times, once before the timed pass and the others between
   its rounds, and each part's median is taken;
2. the timed pass: the workload's run pool, repeated in rounds spread over
   `--seconds`; each entry runs the fixed number of times its workload sets.
   With `--trace 0` only the slot probes are on and the end-to-end metrics
   are reported; with `--trace 1` every layer function is wrapped and the
   per-layer metrics of round one are reported;
3. the check: one more round with tracing the other way round, and the
   seed's held-out run both ways. Every captured solver result is audited,
   and each run's metrics.csv + events.log (+ dumped instances) digest must
   agree across repetitions and between traced and untraced passes.

End-to-end times are wall times scaled to a reference host speed by
calibration marks taken between the pieces of program work (clock.py), and
each entry and each checked slot is timed by the median of its
repetitions. Per-layer times are raw wall times of the traced pass.

It prints a report, then one JSON line with the result. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

perf = time.perf_counter
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5


@dataclass
class Outcome:
    tag: str
    ok: bool
    slots: int = 0
    run_s: float = 0.0      # simulation plus output files
    write_s: float = 0.0    # output files alone
    digest: str = ""
    delivered: float = 0.0
    offered: float = 0.0
    dumped: int = 0
    slot_s: list = field(default_factory=list)   # checked slots, untraced passes only


@dataclass
class Pass:
    outcomes: list = field(default_factory=list)   # the first len(runs) are round one
    rounds: int = 0
    wall_s: float = 0.0
    layers: dict = field(default_factory=dict)     # tracer totals after round one


def _digest(run) -> tuple[str, int]:
    """sha256 over metrics.csv, events.log and any dumped instances; config.echo
    is left out because it holds the checkout's absolute paths."""
    h = hashlib.sha256()
    names = ["metrics.csv", "events.log"]
    lp = run.cfg.dump_dir
    dumped = sorted(os.listdir(lp)) if lp and os.path.isdir(lp) else []
    names += [os.path.join("lp", n) for n in dumped]
    for name in names:
        with open(os.path.join(run.out_dir, name), "rb") as fp:
            h.update(name.encode() + b"\0" + fp.read() + b"\0")
    return h.hexdigest(), len(dumped)


def _empty_outputs(out_dir: str) -> None:
    """Truncate every file a previous repetition wrote, but keep it. The
    program rewrites each one, and a file it fails to rewrite reads empty and
    changes the digest. Deleting and re-creating thousands of files per
    invocation instead made back-to-back invocations slow down by up to 15%,
    recovering only after minutes of rest; see README.md on noise."""
    for path, _, names in os.walk(out_dir):
        for name in names:
            os.truncate(os.path.join(path, name), 0)


def execute(run, orchestrator, clk) -> Outcome:
    """One sweep entry, as `hybridte compare` or `hybridte run` does it,
    between two calibration marks; times are at reference speed."""
    _empty_outputs(run.out_dir)
    clk.mark()
    try:
        start = perf()
        if run.compare:
            results = orchestrator.run_comparison(run.cfg)
            mid = perf()
            orchestrator.write_comparison(results, run.out_dir)
        else:
            results = [orchestrator.run_scenario(run.cfg)]
            mid = perf()
            orchestrator.write_run_result(results[0], run.out_dir)
        end = perf()
        clk.mark()
        digest, dumped = _digest(run)
    except Exception:
        clk.mark()
        traceback.print_exc(file=sys.stderr)
        return Outcome(run.tag, ok=False)
    samples = [s for r in results for s in r.samples]
    delivered = sum(s.throughput for s in samples)
    offered = delivered + sum(s.packet_loss for s in samples)
    ok = len(samples) == run.slots and all(
        s.throughput >= 0 and s.packet_loss >= -1e-9 * max(1.0, s.throughput) for s in samples)
    return Outcome(run.tag, ok, run.slots, clk.scaled(start, end), clk.scaled(mid, end), digest,
                   delivered, offered, dumped)


def spread(j: int, k: int, rounds: int) -> bool:
    """True in round 0 and in k - 1 later rounds of `rounds`, spaced evenly:
    where j * k / rounds passes an integer."""
    return j * k // rounds != (j - 1) * k // rounds


def run_pass(runs, rounds: int, seconds: float, orchestrator, probes, clk, tracer=None,
             set_up=None) -> Pass:
    """Run `rounds` rounds over `runs`; round j starts no earlier than
    j * seconds / rounds, so the rounds span `seconds` however fast the
    program is. Round one runs every entry. In all, an entry runs
    min(run.reps, rounds) times, spread evenly over the rounds: the workload
    fixes each entry's repetitions, so a cheap entry can repeat more often
    than an expensive one, and a faster program gets no extra draws.
    `set_up`, if given, is called untraced before SETUP_REPEATS - 1 of the
    later rounds, spread evenly, so set-up is sampled across the pass too.
    Without a tracer only the slot probes are on; with one, `layers` holds
    its totals for round one, one pass over the pool, and solver results
    are captured in round one only."""
    probe = probes.SlotProbe()
    wrappers = tracer.wrappers() if tracer else probe.wrappers()
    result = Pass(rounds=rounds)
    start = perf()
    for j in range(rounds):
        if set_up and j and spread(j, SETUP_REPEATS, rounds):
            set_up()
        time.sleep(max(0.0, start + j * seconds / rounds - perf()))
        with probes.patched(wrappers):
            for run in runs:
                if not spread(j, min(run.reps, rounds), rounds):
                    continue
                if tracer:
                    tracer.capture = j == 0
                    tracer.run_tag = run.tag
                before = tracer.counts["checked_slots"] if tracer else len(probe.spans)
                outcome = execute(run, orchestrator, clk)
                outcome.slot_s = [clk.scaled(a, b) for a, b in probe.spans[before:]]
                seen = (tracer.counts["checked_slots"] if tracer else len(probe.spans)) - before
                if outcome.ok and seen != run.checked_slots:
                    raise probes.ProbeError(
                        f"{run.tag}: slot probes saw {seen} checked slots, "
                        f"configured {run.checked_slots}")
                result.outcomes.append(outcome)
        if tracer and j == 0:
            result.layers = tracer.totals()
    result.wall_s = perf() - start
    return result


def typical(p: Pass) -> list[tuple[int, float, list]]:
    """Per pool entry: slots, median run time and median time of each checked
    slot over the entry's fixed number of repetitions, all at reference
    speed. The repetitions compute the same thing (their outputs are
    byte-identical); see README.md on noise."""
    reps: dict = {}
    for o in p.outcomes:
        if o.ok:
            reps.setdefault(o.tag, []).append(o)
    return [(rs[0].slots, statistics.median(o.run_s for o in rs),
             [statistics.median(t) for t in zip(*(o.slot_s for o in rs))])
            for rs in reps.values()]


def slots_per_s(best) -> float:
    return sum(b[0] for b in best) / sum(b[1] for b in best)


def require_calls(tracer, names, probes):
    missing = sorted(n for n in names if tracer.calls[n] == 0)
    if missing:
        raise probes.ProbeError(f"wrapped layer functions never called: {', '.join(missing)}")


def mark_failures(passes, reference: dict, bad_tags: set):
    """A run fails when it raised, failed an audit, or its digest differs from
    the first one seen for the same entry."""
    for p in passes:
        for o in p.outcomes:
            if o.ok and (o.tag in bad_tags or o.digest != reference.setdefault(o.tag, o.digest)):
                o.ok = False


def quantile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(main: Pass, n_runs: int, setup_s: float, rss_mb: float,
               runs_ok_share: float) -> dict:
    ok = [o for o in main.outcomes[:n_runs] if o.ok]
    best = typical(main)
    slot_s = [t for b in best for t in b[2]]
    return {
        "slots_per_s": (slots_per_s(best), "1/s"),
        "slot_ms_p50": (1e3 * quantile(slot_s, 50), "ms"),
        "slot_ms_p90": (1e3 * quantile(slot_s, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "delivered_share": (math.fsum(o.delivered for o in ok) / math.fsum(o.offered for o in ok),
                            "ratio"),
        "runs_ok_share": (runs_ok_share, "ratio"),
    }


def per_layer(main: Pass, n_runs: int, audit_s: float, replay: tuple[int, float]) -> dict:
    """Layer totals over round one, a single pass through the pool, so counts
    repeat exactly between invocations."""
    c, busy, n, self_s = (main.layers[key] for key in ("counts", "busy", "calls", "self_s"))

    def ratio(num, den):
        return num / den if den else 0.0

    first = main.outcomes[:n_runs]
    ok = [o for o in first if o.ok]
    rerouting_calls = n["solve_flow_rerouting"]
    return {
        "recreation.calls": (n["solve_lsp_recreation"], "count"),
        "recreation.busy_s": (busy["solve_lsp_recreation"], "s"),
        "recreation.nodes_explored": (c["recreation.nodes_explored"], "count"),
        "recreation.changed_ratio": (ratio(c["recreation.changed"], n["solve_lsp_recreation"]), "ratio"),
        "recreation.candidate_paths": (replay[0], "count"),
        "recreation.enumerate_replay_s": (replay[1], "s"),
        "dump.instances": (c["dump.instances"], "count"),
        "dump.serialize_s": (busy["rerouting_to_json"] + busy["recreation_to_json"], "s"),
        "dump.bytes": (c["dump.bytes"], "B"),
        "dump.written_ratio": (ratio(sum(o.dumped for o in first), c["dump.instances"]), "ratio"),
        "rerouting.calls": (rerouting_calls, "count"),
        "rerouting.busy_s": (busy["solve_flow_rerouting"], "s"),
        "rerouting.nodes_explored": (c["rerouting.nodes_explored"], "count"),
        "rerouting.infeasible_proven": (c["rerouting.infeasible_proven"], "count"),
        "rerouting.budget_exhausted": (c["rerouting.budget_exhausted"], "count"),
        "rerouting.solved_ratio": (ratio(c["rerouting.solved"], rerouting_calls), "ratio"),
        "traffic.generate_s": (busy["generate_flows"], "s"),
        "traffic.grow_s": (busy["grow_flows"], "s"),
        "traffic.grow_calls": (n["grow_flows"], "count"),
        "metrics.calls": (n["compute_sample"], "count"),
        "metrics.busy_s": (busy["compute_sample"], "s"),
        "orchestrator.self_s": (self_s["run_scenario"], "s"),
        "ffr.calls": (n["ffr"], "count"),
        "ffr.busy_s": (busy["ffr"], "s"),
        "ffr.examinations": (c["ffr.examinations"], "count"),
        "ffr.parked": (c["ffr.parked"], "count"),
        "ffr.placed_ratio": (ratio(c["ffr.placed"], c["ffr.flows"]), "ratio"),
        "plan.build_s": (busy["build_auto_lsp_plan"] + busy["initial_assignment"], "s"),
        "plan.enumerate_calls": (n["enumerate_simple_paths"], "count"),
        "topology.load_s": (busy["load_topology_file"], "s"),
        "output.write_s": (sum(o.write_s for o in ok), "s"),
        "audit.busy_s": (audit_s, "s"),
        "trace.slots_per_s": (slots_per_s(typical(main)), "1/s"),
    }


def machine_facts(seed: int) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": list(os.getloadavg()), "seed": seed}


def pool_digest(pool, reference: dict) -> str:
    """One digest over the pool in canonical order: it does not depend on the
    seed, so any two runs of the same program can be compared by it."""
    h = hashlib.sha256()
    for run in pool:
        h.update(f"{run.tag} {reference.get(run.tag, '-')}\n".encode())
    return h.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hybridte", "__init__.py")):
        print(f"error: no hybridte sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import hybridte
    if os.path.dirname(os.path.abspath(hybridte.__file__)) != os.path.join(src, "hybridte"):
        print(f"error: imported hybridte from {hybridte.__file__}, not {src}", file=sys.stderr)
        return 2
    from hybridte import orchestrator
    import clock
    import probes
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; pick one of {workloads.NAMES}",
              file=sys.stderr)
        return 2

    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=src)
    imports, builds, warmups = [], [], []
    clk = clock.Clock()

    def set_up():
        """One set-up sample: interpreter start plus `import hybridte` in a
        fresh process, then topology generation, scenario load and a warm-up
        run in this one. Both at reference speed."""
        clk.mark()
        start = perf()
        subprocess.run([sys.executable, "-c", "import hybridte"], env=env, check=True)
        end = perf()
        clk.mark()
        imports.append(clk.scaled(start, end))
        start = perf()
        built = workloads.build(args.workload, ROOT, out, args.seed)
        warmups.append(execute(built.warmup, orchestrator, clk))
        end = perf()
        clk.mark()
        builds.append(clk.scaled(start, end))
        return built

    try:
        # Timer marks would land inside the traced spans, so a traced pass
        # is only marked around each run.
        with contextlib.nullcontext() if args.trace else clk.sampling():
            wl = set_up()
            pool = wl.ordered_pool(args.seed)
            main_tracer = probes.Tracer() if args.trace else None
            rounds = max(run.reps for run in pool)
            main = run_pass(pool, rounds, args.seconds, orchestrator, probes, clk, main_tracer,
                            set_up)
        setup_s = statistics.median(imports) + statistics.median(builds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_tracer = None if args.trace else probes.Tracer()
        check = run_pass(pool, 1, 0, orchestrator, probes, clk, check_tracer)
        traced = main_tracer or check_tracer
        require_calls(traced, wl.must_call, probes)
        start = perf()
        bad = probes.audit_captures(traced)
        audit_s = perf() - start
        holdout_tracer = probes.Tracer()
        holdout = [run_pass([wl.holdout], 1, 0, orchestrator, probes, clk, t)
                   for t in (None, holdout_tracer)]
        bad |= probes.audit_captures(holdout_tracer)
    except probes.ProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if not any(o.ok for o in main.outcomes):
        print("error: no run of the timed pass succeeded", file=sys.stderr)
        return 1
    reference: dict = {}
    warm = Pass(outcomes=warmups)
    passes = [main, check, *holdout, warm]
    mark_failures(passes, reference, bad)
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(not o.ok for p in passes for o in p.outcomes)

    if args.trace:
        replay = probes.replay_enumeration(main_tracer)
        metrics = per_layer(main, len(pool), audit_s, replay)
    else:
        metrics = end_to_end(main, len(pool), setup_s, rss_mb, 1.0 - failed / attempted)

    facts = machine_facts(args.seed)
    report = {
        "workload": args.workload, "trace": args.trace, "rounds": main.rounds, "pass_wall_s": main.wall_s,
        "timed_work_s": sum(o.run_s for o in main.outcomes),
        "timed_runs": len(main.outcomes), "checked_slots": main_tracer.counts["checked_slots"]
        if args.trace else sum(len(o.slot_s) for o in main.outcomes),
        "pool_digest": pool_digest(wl.pool, reference), "holdout": wl.holdout.tag,
        "machine": facts, "host_speed": clk.host_speed(),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(json.dumps(report, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
