"""Synthetic traffic model: flow arrivals at edge nodes and per-slot growth.

Flow counts per source follow a truncated geometric distribution whose
success probability shrinks with network size, rates are uniform around a
configurable fraction of the mean link bandwidth, and each flow carries a
delay bound proportional to the shortest possible delay to its destination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, UnreachableError
from .topology import NetworkTopology


class Flow(NamedTuple):
    id: int
    src: int
    dst: int
    rate: float
    max_delay: float


class FlowPopulation(tuple):
    """A run's slot-0 flows, checked once when built, as `lsp.LspPlan` is for LSPs: whether
    their ids are unique (`unique`). `FlowPopulation(flows)` is `flows` itself when it is
    one; a plain tuple becomes one on each call. A slot's flows (`flows_at`) are bound to
    the run's population and share its memo dict (`_kept`), which keeps on first use the
    flow ids per (src, dst) pair and the dump text that `dumps` keeps for the flows."""

    def __new__(cls, flows):
        if isinstance(flows, FlowPopulation):
            return flows
        population = super().__new__(cls, flows)
        ids = [f.id for f in population]
        vars(population).update(unique=len(set(ids)) == len(ids), _kept={})
        return population

    @property
    def pairs(self) -> tuple[list, tuple]:
        """Each (src, dst) pair of the flows, in sorted order, with its flow ids in flow
        order; and beside them those ids sorted, re-routing's parts."""
        kept = self._kept
        if "pairs" not in kept:
            by_pair: dict[tuple[int, int], list[int]] = {}
            for f in self:
                by_pair.setdefault((f.src, f.dst), []).append(f.id)
            groups = sorted(by_pair.items())
            kept["pairs"] = groups, tuple(tuple(sorted(ids)) for _, ids in groups)
        return kept["pairs"]


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of the generator.

    demand_fraction scales mean flow rate against mean link bandwidth,
    flow_intensity and intensity_scale set the geometric parameter
    p = 1 / (flow_intensity * intensity_scale * node_count), and
    delay_stretch multiplies the shortest achievable delay into each
    flow's delay bound.
    """

    demand_fraction: float
    flow_intensity: float
    max_flows_per_source: int
    growth_max: float
    intensity_scale: float = 1.0
    delay_stretch: float = 2.0

    def validate(self, topo: NetworkTopology) -> None:
        # Rates are drawn from (0, 2 * demand_fraction * mean bandwidth). The check also
        # catches NaN, which JSON can carry, and a product that overflows or rounds to 0.
        if not 0 < 2.0 * (self.demand_fraction * topo.mean_bandwidth) < math.inf:
            raise ConfigError("demand_fraction must be positive, and the rate range "
                              "2 * demand_fraction * mean bandwidth finite and nonzero")
        # truncated_geometric holds max_flows_per_source weights per source, 8 bytes each.
        if not 1 <= self.max_flows_per_source <= 10**6:
            raise ConfigError("max_flows_per_source must lie in [1, 10**6]")
        if not 0 <= self.growth_max < math.inf:
            raise ConfigError("growth_max must be nonnegative and finite")
        if not 1 <= self.delay_stretch < math.inf:
            raise ConfigError("delay_stretch must be at least 1 and finite")
        p = self.geometric_p(topo)
        if not 0 < p <= 1:
            raise ConfigError(
                f"flow count parameter p={p:.4g} outside (0, 1]; "
                "check flow_intensity and intensity_scale"
            )

    def geometric_p(self, topo: NetworkTopology) -> float:
        if not (self.flow_intensity > 0 and self.intensity_scale > 0):
            raise ConfigError("flow_intensity and intensity_scale must be positive")
        return 1.0 / (self.flow_intensity * self.intensity_scale * topo.node_count)


def truncated_geometric(rng: np.random.Generator, p: float, hi: int) -> int:
    """Draw from P(k) proportional to p*(1-p)^(k-1) on {1..hi} by inverse CDF."""
    if not (0 < p <= 1 and 1 <= hi):
        raise ConfigError("bad truncated geometric parameters")
    weights = p * (1.0 - p) ** np.arange(0, hi, dtype=float)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return 1 + int(np.searchsorted(cdf, rng.uniform(), side="right"))


def generate_flows(topo: NetworkTopology, cfg: TrafficConfig, seed: int) -> tuple[Flow, ...]:
    """Generate one slot-zero flow population; deterministic in `seed`."""
    cfg.validate(topo)
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    p = cfg.geometric_p(topo)
    mean_rate = cfg.demand_fraction * topo.mean_bandwidth
    flows: list[Flow] = []
    for src in sorted(topo.edge_nodes):
        dists = topo.delay_distances(src)
        dests = [v for v in sorted(topo.edge_nodes) if v != src and v in dists]
        if not dests:
            raise UnreachableError(f"edge node {src} cannot reach any other edge node")
        count = truncated_geometric(rng, p, cfg.max_flows_per_source)
        for _ in range(count):
            dst = dests[int(rng.integers(len(dests)))]
            rate = float(rng.uniform(0.0, 2.0 * mean_rate))
            while rate == 0.0:
                rate = float(rng.uniform(0.0, 2.0 * mean_rate))
            flows.append(
                Flow(
                    id=len(flows),
                    src=src,
                    dst=dst,
                    rate=rate,
                    max_delay=cfg.delay_stretch * dists[dst],
                )
            )
    return tuple(flows)


def growth_block(growth_max: float, seed: int, slots: int, n: int) -> np.ndarray:
    """A run's growth factors, read-only: row t - 1 scales slot t's rates, each flow's
    by (1 + u), u uniform on [0, growth_max), one draw per flow in slot-0 order from
    the generator seeded (seed, t). A longer run's block starts with a shorter one's."""
    if not 0 <= growth_max < math.inf:
        raise ConfigError("growth_max must be nonnegative and finite")
    block = np.ones((slots - 1, n))
    for t in range(1, slots):
        block[t - 1] += np.random.default_rng((seed, t)).uniform(0.0, growth_max, n)
    block.flags.writeable = False
    return block


def grow_flows(rates: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """A slot's rate vector, in the order of the slot-0 flows, scaled by its row of
    `growth_block`; the result is read-only."""
    grown = rates * factors
    grown.flags.writeable = False
    return grown


def flows_at(flows, rates: np.ndarray) -> FlowPopulation:
    """The population `flows` (slot 0) with each rate replaced by its entry of the slot's
    `rates`, bound to it: the two share their checks and kept text."""
    population = FlowPopulation(flows)
    # tuple.__new__ skips the frames of Flow's generated __new__ and of the checks.
    now = tuple.__new__(FlowPopulation, [tuple.__new__(Flow, (i, src, dst, rate, max_delay))
                                         for (i, src, dst, _, max_delay), rate
                                         in zip(population, rates.tolist())])
    vars(now).update(vars(population))
    return now
