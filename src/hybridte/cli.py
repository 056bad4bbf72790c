"""Command-line front end: run a scenario, emit the reference topology,
or compare every scheme on the same traffic."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import HybridTeError
from .orchestrator import (SCHEMES, load_scenario, run_comparison, run_scenario,
                           write_comparison, write_run_result)
from .topology import reference_topology, serialize_topology


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridte",
        description="Time-slot simulation of flow re-routing on hybrid SDN/MPLS networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario with one scheme")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--scheme", choices=SCHEMES, default=None,
                     help="override the scenario scheme")
    run.add_argument("--dump-lp", action="store_true",
                     help="dump every optimization instance under OUT/lp")

    gen = sub.add_parser("gen-topology", help="write the reference topology")
    gen.add_argument("--out", default=None, help="output file (default: stdout)")

    cmp_ = sub.add_parser("compare", help="run every scheme on the same traffic")
    cmp_.add_argument("scenario", help="scenario JSON file")
    cmp_.add_argument("--out", default="results", help="output directory")
    cmp_.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    return parser


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.scheme is not None:
        cfg = dataclasses.replace(cfg, scheme=args.scheme)
    if args.dump_lp:
        cfg = dataclasses.replace(cfg, dump_dir=f"{args.out}/lp")
    result = run_scenario(cfg)
    write_run_result(result, args.out)
    last = result.samples[-1]
    print(f"scheme={result.scheme} seed={result.seed} slots={len(result.samples)}")
    print(f"final slot {last.slot}: throughput={last.throughput:.4f} "
          f"loss={last.packet_loss:.4f} avg_util={last.avg_link_utilization:.4f}")
    print(f"wrote {args.out}/metrics.csv")
    return 0


def _cmd_gen_topology(args) -> int:
    text = serialize_topology(reference_topology())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compare(args) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    results = run_comparison(cfg)
    write_comparison(results, args.out)
    base = next(r for r in results if r.scheme == "shortest_path")
    base_tp = base.samples[-1].throughput
    print(f"seed={cfg.seed} slots={cfg.slots}")
    print(f"{'scheme':<15}{'throughput':>12}{'loss':>12}{'ratio':>8}")
    for r in results:
        last = r.samples[-1]
        ratio = last.throughput / base_tp if base_tp > 0 else float("nan")
        print(f"{r.scheme:<15}{last.throughput:>12.4f}{last.packet_loss:>12.4f}"
              f"{ratio:>8.3f}")
    print(f"wrote {args.out}/metrics.csv")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "gen-topology": _cmd_gen_topology,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (HybridTeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
