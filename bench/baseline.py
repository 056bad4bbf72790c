#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it, as a baseline or as
one side of a before/after comparison.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Run it from the root of a source checkout. It runs every workload in
BENCHMARK.json, untraced for each of `--seeds` and traced for seeds 1-3.
Invocations run one after the other, never in parallel. For every
end-to-end metric it records the values, their median and quartiles
(statistics.quantiles(n=4)) and the spread (quartile distance over median);
per-layer metrics get their median.
Machine facts are recorded with the results: entries from different
machines are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SEEDS = range(1, 4)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result: {result}")
    return result, report


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    seconds = spec["run_seconds"]

    doc = {"run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        e2e: dict = {}
        layer: dict = {}
        digests = set()
        for trace, seeds, into in ((0, args.seeds, e2e), (1, TRACE_SEEDS, layer)):
            for seed in seeds:
                start = time.perf_counter()
                result, report = invoke(name, seed, seconds, trace)
                wall = time.perf_counter() - start
                digests.add(report["pool_digest"])
                doc.setdefault("machine", report["machine"])
                for metric, m in result["metrics"].items():
                    into.setdefault(metric, []).append(m["value"])
                print(f"{name} seed={seed} trace={trace} done in {wall:.1f} s", file=sys.stderr)
        entry = {
            "pool_digest": sorted(digests),
            "end_to_end": {k: summarise(v) for k, v in e2e.items()},
            "per_layer": {k: statistics.median(v) for k, v in layer.items()},
        }
        entry["tracing_overhead"] = (statistics.median(e2e["slots_per_s"])
                                     / entry["per_layer"]["trace.slots_per_s"] - 1.0)
        doc["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:16s} {metric:16s} median {s['median']:<12.6g} spread {s['spread']:.3f}")
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
