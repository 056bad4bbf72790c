"""Per-slot performance metrics under a bottleneck loss model.

Offered load on a link may exceed its bandwidth; every flow crossing an
overloaded link then gets through in proportion to the available share, and
a flow's delivered rate is capped by its worst link.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import NetworkTopology


@dataclass(frozen=True)
class MetricsSample:
    slot: int
    throughput: float
    avg_link_utilization: float
    avg_path_length: float
    packet_loss: float


def offered_loads(flows, paths: dict[int, tuple[tuple[int, int], ...]]) -> dict[tuple[int, int], float]:
    """Sum of flow rates crossing each directed link."""
    loads: dict[tuple[int, int], float] = {}
    for f in flows:
        for pair in paths[f.id]:
            loads[pair] = loads.get(pair, 0.0) + f.rate
    return loads


def _shares(topo: NetworkTopology, loads) -> dict[tuple[int, int], float]:
    """bandwidth / load on each overloaded link; every other link passes all."""
    by_pair = topo.by_pair
    if not loads.keys() <= by_pair.keys():
        raise KeyError(f"path uses nonexistent link {min(loads.keys() - by_pair.keys())}")
    return {pair: by_pair[pair].bandwidth / load for pair, load in loads.items()
            if load > by_pair[pair].bandwidth}


def _delivered(flows, paths, shares) -> list[float]:
    return [f.rate * min([shares.get(p, 1.0) for p in paths[f.id]], default=1.0) for f in flows]


def compute_sample(slot: int, flows, paths: dict[int, tuple[tuple[int, int], ...]],
                   topo: NetworkTopology, loads=None) -> MetricsSample:
    """Aggregate one slot's metrics over every flow and every directed link.
    `loads` are offered_loads(flows, paths) when the caller has summed them."""
    if loads is None:
        loads = offered_loads(flows, paths)
    shares = _shares(topo, loads)
    offered = sum([f.rate for f in flows])
    # With no link overloaded every flow delivers its whole rate: the same sum.
    throughput = sum(_delivered(flows, paths, shares)) if shares else offered
    hops = sum([len(paths[f.id]) for f in flows])
    utils = [min(1.0, loads.get(pair, 0.0) / ln.bandwidth) for pair, ln in topo.by_pair.items()]
    return MetricsSample(
        slot=slot,
        throughput=throughput,
        avg_link_utilization=sum(utils) / len(utils) if utils else 0.0,
        avg_path_length=hops / len(flows) if flows else 0.0,
        packet_loss=offered - throughput,
    )


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
