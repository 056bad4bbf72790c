"""Per-slot performance metrics under a bottleneck loss model.

Offered load on a link may exceed its bandwidth; every flow crossing an
overloaded link then gets through in proportion to the available share, and
a flow's delivered rate is capped by its worst link.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import NamedTuple

import numpy as np

from .topology import NetworkTopology


class MetricsSample(NamedTuple):
    slot: int
    throughput: float
    avg_link_utilization: float
    avg_path_length: float
    packet_loss: float


class LinkIndex(NamedTuple):
    """Where a set of paths runs, as positions. Entry k is one (flow, link)
    crossing: flows in order, each flow's links in path order."""
    flow: np.ndarray       # flow position of each entry
    link: np.ndarray       # topo.by_pair position of each entry
    starts: np.ndarray     # first entry of each non-empty path
    routed: np.ndarray     # flow position of each non-empty path: flow[starts]
    bandwidth: np.ndarray  # per link, topo.by_pair order
    hops: int              # entries in all: the summed path lengths


def link_index(topo: NetworkTopology, flows,
               paths: dict[int, tuple[tuple[int, int], ...]]) -> LinkIndex:
    """Index `paths` (keyed by flow id) for `flows` in their order. The index holds
    while neither the paths nor the order of the flows change; rates may."""
    position = topo.position
    routes = [paths[f.id] for f in flows]
    try:
        link = [position[pair] for route in routes for pair in route]
    except KeyError:
        missing = {pair for route in routes for pair in route} - position.keys()
        raise KeyError(f"path uses nonexistent link {min(missing)}") from None
    lengths = np.array([len(route) for route in routes], dtype=np.intp)
    first = np.cumsum(lengths) - lengths
    return LinkIndex(flow=np.repeat(np.arange(len(routes)), lengths),
                     link=np.array(link, dtype=np.intp), starts=first[lengths > 0],
                     routed=np.flatnonzero(lengths),
                     bandwidth=np.array([ln.bandwidth for ln in topo.by_pair.values()]),
                     hops=len(link))


def _sum_left(values) -> float:
    """Left-to-right float sum. The builtin `sum` compensates from Python 3.12 on and
    `ndarray.sum` adds pairwise; either would move the last bits of metrics.csv."""
    return reduce(operator.add, values, 0.0)


def utilization(rates: np.ndarray, index: LinkIndex) -> tuple[np.ndarray, list, float]:
    """One slot's pass over the links, shared by the trigger check and the sample: the
    offered loads (flow rates summed per link, in topo.by_pair order), their utilizations
    loads / bandwidth as a list, and its peak. `bincount` adds its weights in input order,
    so each load is summed in flow order. A topology has at least one link."""
    loads = np.bincount(index.link, rates[index.flow], minlength=len(index.bandwidth))
    utils = (loads / index.bandwidth).tolist()
    return loads, utils, max(utils)


def compute_sample(slot: int, rates: np.ndarray, index: LinkIndex,
                   usage: tuple | None = None) -> MetricsSample:
    """Aggregate one slot's metrics over every flow's rate (in the index's flow order)
    and every directed link. `usage` is utilization(rates, index), when the caller
    has computed it."""
    loads, utils, peak = usage or utilization(rates, index)
    n = len(rates)
    offered = _sum_left(rates.tolist())
    # Division by a positive finite bandwidth rounds monotonically, so a link's
    # utilization exceeds 1 exactly when its load exceeds its bandwidth.
    if peak > 1.0:
        # An overloaded link passes bandwidth / load of each flow crossing it, and a
        # flow gets through at the share of its worst link.
        bandwidth = index.bandwidth
        share = np.divide(bandwidth, loads, out=np.ones(len(bandwidth)), where=loads > bandwidth)
        worst = np.ones(n)
        worst[index.routed] = np.minimum.reduceat(share[index.link], index.starts)
        throughput = _sum_left((rates * worst).tolist())
        utils = [u if u < 1.0 else 1.0 for u in utils]
    else:
        throughput = offered  # every flow delivers its whole rate: the same sum
    return MetricsSample(slot, throughput, _sum_left(utils) / len(utils),
                         index.hops / n if n else 0.0, offered - throughput)


CSV_HEADER = "slot,scheme,throughput,avg_util,avg_path_len,loss"


def metrics_csv_rows(entries) -> list[str]:
    """Format (scheme, sample) pairs as CSV lines; repr keeps floats byte-stable."""
    rows = [CSV_HEADER]
    for scheme, s in entries:
        rows.append(
            f"{s.slot},{scheme},{s.throughput!r},{s.avg_link_utilization!r},"
            f"{s.avg_path_length!r},{s.packet_loss!r}"
        )
    return rows


def write_metrics_csv(path: str, entries) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("\n".join(metrics_csv_rows(entries)) + "\n")
