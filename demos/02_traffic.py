"""Generate seeded traffic between the edge nodes and grow it slot by slot.

Per-source flow counts follow a truncated geometric distribution; rates are
uniform below twice the configured fraction of the mean link bandwidth."""

import numpy as np

import hybridte as ht

topo = ht.reference_topology()
cfg = ht.TrafficConfig(
    demand_fraction=0.08,      # mean rate scale, as a share of link bandwidth
    flow_intensity=0.8,        # busier sources -> more flows per source
    max_flows_per_source=10,
    growth_max=0.10,           # each slot a flow grows by U(0, 10%)
    intensity_scale=3.0,
)
seed = 1  # drives both the slot-0 draw and the growth

flows = ht.generate_flows(topo, cfg, seed)
print(f"generated {len(flows)} flows from {len(topo.edge_nodes)} edge nodes")

by_src = {}
for f in flows:
    by_src.setdefault(f.src, []).append(f)
for src in sorted(by_src):
    rates = ", ".join(f"{f.rate:.1f}" for f in by_src[src])
    print(f"  source {src}: {len(by_src[src])} flows, rates [{rates}]")

# Rates stay below twice the configured mean; delay bounds are double the
# shortest possible propagation delay, so every flow is routable.
bound = 2.0 * cfg.demand_fraction * topo.mean_bandwidth
for f in flows:
    assert 0.0 < f.rate < bound
    assert f.max_delay == 2.0 * topo.delay_distances(f.src)[f.dst]

# The same seed reproduces the same population, a different seed does not.
assert ht.generate_flows(topo, cfg, seed) == flows

# Grow the population over ten slots and watch total demand climb. Growth
# works on the rate vector, entry i being flow i's rate; ids, endpoints and
# delay bounds stay those of slot 0. The factors of every slot after slot 0
# are drawn up front, one row per slot.
print("\nslot  total offered rate")
rates = np.array([f.rate for f in flows])
growth = ht.growth_block(cfg.growth_max, seed, 11, len(flows))
cur = rates
for t in range(11):
    if t:
        cur = ht.grow_flows(cur, growth[t - 1])
    print(f"{t:4d}  {cur.sum():10.2f}")

# Across many growth draws the mean per-slot factor approaches growth_max/2.
per_slot = np.power(cur / rates, 1.0 / 10) - 1.0
print(f"\nmean per-slot growth over 10 slots: {per_slot.mean():.3f} "
      f"(nominal {cfg.growth_max / 2:.3f})")
