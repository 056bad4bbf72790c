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


def delivered_rates(flows, paths: dict[int, tuple[tuple[int, int], ...]],
                    topo: NetworkTopology) -> dict[int, float]:
    """Delivered rate per flow: offered rate scaled by the worst link's share."""
    return _delivered(flows, paths, topo, offered_loads(flows, paths))


def _delivered(flows, paths, topo: NetworkTopology, loads) -> dict[int, float]:
    factor: dict[tuple[int, int], float] = {}
    for pair, load in loads.items():
        ln = topo.link_lookup(*pair)
        if ln is None:
            raise KeyError(f"path uses nonexistent link {pair}")
        factor[pair] = 1.0 if load <= ln.bandwidth else ln.bandwidth / load
    out = {}
    for f in flows:
        share = min((factor[pair] for pair in paths[f.id]), default=1.0)
        out[f.id] = f.rate * share
    return out


def compute_sample(slot: int, flows, paths: dict[int, tuple[tuple[int, int], ...]],
                   topo: NetworkTopology) -> MetricsSample:
    """Aggregate one slot's metrics over every flow and every directed link."""
    loads = offered_loads(flows, paths)
    delivered = _delivered(flows, paths, topo, loads)
    throughput = sum(delivered.values())
    offered = sum(f.rate for f in flows)
    utils = [min(1.0, loads.get((ln.src, ln.dst), 0.0) / ln.bandwidth) for ln in topo.links]
    avg_util = sum(utils) / len(utils) if utils else 0.0
    avg_len = (sum(len(paths[f.id]) for f in flows) / len(flows)) if flows else 0.0
    return MetricsSample(
        slot=slot,
        throughput=throughput,
        avg_link_utilization=avg_util,
        avg_path_length=avg_len,
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
