import math

import numpy as np
import pytest

import hybridte as ht
from hybridte.errors import ConfigError
from hybridte.traffic import truncated_geometric

import oracles


def cfg(**kw):
    base = dict(demand_fraction=0.08, flow_intensity=0.8, max_flows_per_source=10,
                growth_max=0.02, intensity_scale=3.0)
    base.update(kw)
    return ht.TrafficConfig(**base)


@pytest.fixture
def topo():
    return ht.reference_topology()


def test_generation_is_deterministic(topo):
    a = ht.generate_flows(topo, cfg(), 1)
    b = ht.generate_flows(topo, cfg(), 1)
    assert a == b
    c = ht.generate_flows(topo, cfg(), 2)
    assert c != a


def test_flow_fields_well_formed(topo):
    flows = ht.generate_flows(topo, cfg(), 1)
    mean_rate = 0.08 * topo.mean_bandwidth
    assert [f.id for f in flows] == list(range(len(flows)))
    for f in flows:
        assert f.src in topo.edge_nodes and f.dst in topo.edge_nodes
        assert f.src != f.dst
        assert 0.0 < f.rate < 2.0 * mean_rate
        assert f.max_delay == 2.0 * topo.delay_distances(f.src)[f.dst]


def test_per_source_counts_within_support(topo):
    for seed in range(20):
        flows = ht.generate_flows(topo, cfg(), seed)
        counts = {src: 0 for src in topo.edge_nodes}
        for f in flows:
            counts[f.src] += 1
        assert all(1 <= c <= 10 for c in counts.values())


def test_truncated_geometric_support_and_mean():
    rng = np.random.default_rng(3)
    p = 0.3
    draws = [truncated_geometric(rng, p, 6) for _ in range(20000)]
    assert min(draws) >= 1 and max(draws) <= 6
    expect = oracles.trunc_geom_mean(p, 6)
    assert np.mean(draws) == pytest.approx(expect, rel=0.02)


def test_truncated_geometric_edge_parameters():
    # The support starts at 1: a sure success (p = 1) or a one-value support always
    # draws 1, and an empty support or a p outside (0, 1] is rejected.
    rng = np.random.default_rng(4)
    assert {truncated_geometric(rng, 1.0, 5) for _ in range(200)} == {1}
    assert {truncated_geometric(rng, 0.3, 1) for _ in range(200)} == {1}
    for p, hi in ((0.5, 0), (0.0, 3), (1.5, 3), (float("nan"), 3)):
        with pytest.raises(ConfigError, match="bad truncated geometric"):
            truncated_geometric(rng, p, hi)


def rates_of(flows):
    return np.array([f.rate for f in flows])


def test_growth_bounds_and_determinism(topo):
    rates = rates_of(ht.generate_flows(topo, cfg(), 1))
    before = rates.tolist()
    block = ht.growth_block(0.10, 1, 2, len(rates))
    assert block.tolist() == ht.growth_block(0.10, 1, 2, len(rates)).tolist()
    grown = ht.grow_flows(rates, block[0])
    assert grown.dtype == np.float64 and grown.shape == rates.shape
    ratio = grown / rates
    assert np.all((1.0 <= ratio) & (ratio < 1.10))
    assert rates.tolist() == before  # the input is left as it was


def test_zero_growth_is_identity(topo):
    rates = rates_of(ht.generate_flows(topo, cfg(), 1))
    block = ht.growth_block(0.0, 1, 4, len(rates))
    assert block.shape == (3, len(rates)) and np.all(block == 1.0)
    assert ht.grow_flows(rates, block[2]).tolist() == rates.tolist()


def test_growth_draws_match_one_scalar_draw_per_flow(topo):
    # Bit for bit: row t - 1 of the block grows a slot's rates by the per-flow
    # formula rate * (1 + u), one scalar draw per flow in flow order, seeded (seed, t).
    flows = ht.generate_flows(topo, cfg(), 1)
    for seed in (1, 3, 11):
        for growth_max in (0.0, 0.02, 0.5):
            block = ht.growth_block(growth_max, seed, 8, len(flows))
            assert block.shape == (7, len(flows))
            for t in range(1, 8):
                expect = oracles.reference_growth(flows, growth_max, (seed, t))
                assert ht.grow_flows(rates_of(flows), block[t - 1]).tolist() == expect
            empty = ht.grow_flows(np.array([]), ht.growth_block(growth_max, seed, 8, 0)[0])
            assert empty.dtype == np.float64 and empty.shape == (0,)
    assert ht.growth_block(0.02, 1, 1, len(flows)).shape == (0, len(flows))


def test_grown_rates_are_read_only(topo):
    rates = rates_of(ht.generate_flows(topo, cfg(), 1))
    block = ht.growth_block(0.10, 1, 3, len(rates))
    for grown in (block, block[1], ht.grow_flows(rates, block[0])):
        with pytest.raises(ValueError):
            grown[0] = 1.0
        with pytest.raises(ValueError):
            grown *= 2.0


def test_a_longer_runs_block_starts_with_a_shorter_runs_rows(topo):
    # Each row is drawn from its own slot's seed, so the slot count changes no row.
    n = len(ht.generate_flows(topo, cfg(), 1))
    short, long = (ht.growth_block(0.10, 4, slots, n) for slots in (5, 20))
    assert long[:4].tolist() == short.tolist()


def test_growth_mean_near_half_cap(topo):
    rates = rates_of(ht.generate_flows(topo, cfg(), 1))
    block = ht.growth_block(0.10, 9, 401, len(rates))
    ratios = [(ht.grow_flows(rates, row) / rates - 1.0).tolist() for row in block]
    assert np.mean(ratios) == pytest.approx(0.05, abs=0.005)


@pytest.mark.parametrize("bad", [
    dict(demand_fraction=0.0),
    dict(demand_fraction=-1.0),
    dict(max_flows_per_source=0),
    dict(growth_max=-0.1),
    dict(delay_stretch=0.5),
    dict(flow_intensity=0.0),
    dict(intensity_scale=-2.0),
    # NaN fails every comparison, so each check must be written to reject it
    dict(demand_fraction=math.nan),
    dict(growth_max=math.nan),
    dict(delay_stretch=math.nan),
    dict(flow_intensity=math.nan),
    dict(intensity_scale=math.nan),
    # Python's json reads Infinity too, and numpy cannot draw from an infinite range
    dict(demand_fraction=math.inf),
    # finite, but 2 x 1e308 x 100 (the mean bandwidth) overflows numpy's draw range
    dict(demand_fraction=1e308),
    dict(growth_max=math.inf),
    dict(delay_stretch=math.inf),
    # numpy rejects a negative seed with its own ValueError
    dict(seed=-1),
    # p = 1 / (0.01 x 3 x 8 nodes) > 1 is no geometric parameter
    dict(flow_intensity=0.01),
])
def test_config_validation(topo, bad):
    knobs = {k: v for k, v in bad.items() if k != "seed"}
    with pytest.raises(ConfigError):
        ht.generate_flows(topo, cfg(**knobs), bad.get("seed", 1))
    if "growth_max" in bad:
        with pytest.raises(ConfigError):
            ht.growth_block(bad["growth_max"], 0, 2, 0)


def test_a_huge_flow_count_bound_fails_before_any_draw(topo, monkeypatch):
    # Each source's draw holds max_flows_per_source weights, so 10**9 would ask for
    # gigabytes; validation rejects it, naming the bound, before the first draw.
    draws = []
    monkeypatch.setattr(ht.traffic, "truncated_geometric",
                        lambda *args: draws.append(args) or truncated_geometric(*args))
    for bad in (10**9, 10**6 + 1):
        with pytest.raises(ConfigError, match=r"^max_flows_per_source must lie in \[1, 10\*\*6\]$"):
            ht.generate_flows(topo, cfg(max_flows_per_source=bad), 1)
    assert draws == []
    # The bound itself is allowed.
    assert ht.generate_flows(topo, cfg(max_flows_per_source=10**6), 1)
    assert {hi for _, _, hi in draws} == {10**6}


def test_a_rate_range_that_rounds_to_zero_is_an_error():
    # 1e-300 x 1e-300 is 0 in floating point: every draw would be 0, and a draw of 0 is
    # redrawn, so generation would never end.
    links = [{"src": a, "dst": b, "bandwidth": 1e-300, "delay": 1} for a, b in ((0, 1), (1, 0))]
    topo = ht.load_topology({"nodes": 2, "edge_nodes": [0, 1], "links": links})
    with pytest.raises(ConfigError, match="^demand_fraction must be positive"):
        ht.generate_flows(topo, cfg(demand_fraction=1e-300, intensity_scale=1.0), 0)


def test_edge_node_that_reaches_no_other_is_an_error():
    # Edge node 2 has links in but none out.
    links = [{"src": a, "dst": b, "bandwidth": 10, "delay": 1}
             for a, b in ((0, 1), (1, 0), (0, 2), (1, 2))]
    topo = ht.load_topology({"nodes": 3, "edge_nodes": [0, 1, 2], "links": links})
    with pytest.raises(ht.UnreachableError,
                       match="^edge node 2 cannot reach any other edge node$"):
        ht.generate_flows(topo, cfg(), 1)


def test_intensity_governs_population(topo):
    # higher intensity -> smaller p -> more flows per source on average
    few = np.mean([len(ht.generate_flows(topo, cfg(intensity_scale=0.2), s))
                   for s in range(30)])
    many = np.mean([len(ht.generate_flows(topo, cfg(intensity_scale=6.0), s))
                    for s in range(30)])
    assert many > few
