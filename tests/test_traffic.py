import json
import math

import numpy as np
import pytest

import hybridte as ht
from hybridte.errors import ConfigError
from hybridte.traffic import truncated_geometric

import oracles


def cfg(**kw):
    base = dict(demand_fraction=0.08, flow_intensity=0.8, max_flows_per_source=10,
                growth_max=0.02, intensity_scale=3.0, seed=1)
    base.update(kw)
    return ht.TrafficConfig(**base)


@pytest.fixture
def topo():
    return ht.reference_topology()


def test_generation_is_deterministic(topo):
    a = ht.generate_flows(topo, cfg())
    b = ht.generate_flows(topo, cfg())
    assert a == b
    c = ht.generate_flows(topo, cfg(seed=2))
    assert c != a


def test_flow_fields_well_formed(topo):
    flows = ht.generate_flows(topo, cfg())
    mean_rate = 0.08 * topo.mean_bandwidth
    assert [f.id for f in flows] == list(range(len(flows)))
    for f in flows:
        assert f.src in topo.edge_nodes and f.dst in topo.edge_nodes
        assert f.src != f.dst
        assert 0.0 < f.rate < 2.0 * mean_rate
        assert f.max_delay == 2.0 * topo.delay_distances(f.src)[f.dst]


def test_per_source_counts_within_support(topo):
    for seed in range(20):
        flows = ht.generate_flows(topo, cfg(seed=seed))
        counts = {src: 0 for src in topo.edge_nodes}
        for f in flows:
            counts[f.src] += 1
        assert all(1 <= c <= 10 for c in counts.values())


def test_truncated_geometric_support_and_mean():
    rng = np.random.default_rng(3)
    p = 0.3
    draws = [truncated_geometric(rng, p, 1, 6) for _ in range(20000)]
    assert min(draws) >= 1 and max(draws) <= 6
    expect = oracles.trunc_geom_mean(p, 1, 6)
    assert np.mean(draws) == pytest.approx(expect, rel=0.02)


def test_truncated_geometric_zero_support():
    rng = np.random.default_rng(4)
    draws = [truncated_geometric(rng, 0.5, 0, 3) for _ in range(5000)]
    assert min(draws) == 0 and max(draws) <= 3
    assert np.mean(draws) == pytest.approx(oracles.trunc_geom_mean(0.5, 0, 3), rel=0.05)


def rates_of(flows):
    return np.array([f.rate for f in flows])


def test_growth_bounds_and_determinism(topo):
    rates = rates_of(ht.generate_flows(topo, cfg()))
    before = rates.tolist()
    grown = ht.grow_flows(rates, 0.10, (1, 1))
    again = ht.grow_flows(rates, 0.10, (1, 1))
    assert grown.tolist() == again.tolist()
    assert grown.dtype == np.float64 and grown.shape == rates.shape
    ratio = grown / rates
    assert np.all((1.0 <= ratio) & (ratio < 1.10))
    assert rates.tolist() == before  # the input is left as it was


def test_zero_growth_is_identity(topo):
    rates = rates_of(ht.generate_flows(topo, cfg()))
    assert ht.grow_flows(rates, 0.0, (1, 1)) is rates


def test_growth_draws_match_one_scalar_draw_per_flow(topo):
    # Bit for bit: the vector growth is the per-flow formula rate * (1 + u),
    # one scalar draw per flow in flow order.
    flows = ht.generate_flows(topo, cfg())
    for seed in ((1, 1), (3, 7), 11):
        for growth_max in (0.0, 0.02, 0.5):
            expect = oracles.reference_growth(flows, growth_max, seed)
            assert ht.grow_flows(rates_of(flows), growth_max, seed).tolist() == expect
            empty = ht.grow_flows(np.array([]), growth_max, seed)
            assert empty.dtype == np.float64 and empty.shape == (0,)


def test_grown_rates_are_read_only(topo):
    rates = rates_of(ht.generate_flows(topo, cfg()))
    for grown in (ht.grow_flows(rates, 0.10, (1, 1)), ht.grow_flows(rates, 0.10, (1, 1), {})):
        with pytest.raises(ValueError):
            grown[0] = 1.0
        with pytest.raises(ValueError):
            grown *= 2.0


def test_memo_returns_the_kept_growth_for_the_same_input_only(topo):
    rates = rates_of(ht.generate_flows(topo, cfg()))
    memo = {}
    grown = ht.grow_flows(rates, 0.10, (1, 1), memo)
    assert grown.tolist() == ht.grow_flows(rates, 0.10, (1, 1)).tolist()
    assert ht.grow_flows(rates, 0.10, (1, 1), memo) is grown
    # An equal input that is another object is grown afresh, to the same rates.
    copy = rates.copy()
    assert copy.tolist() == rates.tolist() and copy is not rates
    again = ht.grow_flows(copy, 0.10, (1, 1), memo)
    assert again.tolist() == grown.tolist() and again is not grown
    assert memo[(1, 1)][0] is copy
    # So is the same object under another growth_max or another seed.
    assert (ht.grow_flows(copy, 0.20, (1, 1), memo).tolist()
            == ht.grow_flows(copy, 0.20, (1, 1)).tolist())
    assert ht.grow_flows(copy, 0.20, (1, 1), memo) is memo[(1, 1)][2]
    assert (ht.grow_flows(copy, 0.20, (1, 2), memo).tolist()
            == ht.grow_flows(copy, 0.20, (1, 2)).tolist())
    assert sorted(memo) == [(1, 1), (1, 2)]
    assert ht.grow_flows(rates, 0.0, (1, 3), memo) is rates


def test_growth_mean_near_half_cap(topo):
    rates = rates_of(ht.generate_flows(topo, cfg()))
    ratios = []
    for t in range(400):
        grown = ht.grow_flows(rates, 0.10, (9, t))
        ratios.extend((grown / rates - 1.0).tolist())
    assert np.mean(ratios) == pytest.approx(0.05, abs=0.005)


def test_target_flow_count(topo):
    flows = ht.generate_flows(topo, cfg(target_flow_count=20))
    assert len(flows) == 20
    with pytest.raises(ConfigError):
        ht.generate_flows(topo, cfg(target_flow_count=1))  # below 4 sources x 1 flow


@pytest.mark.parametrize("bad", [
    dict(demand_fraction=0.0),
    dict(demand_fraction=-1.0),
    dict(max_flows_per_source=0),
    dict(growth_max=-0.1),
    dict(delay_stretch=0.5),
    dict(flow_intensity=0.0),
    dict(intensity_scale=-2.0),
    dict(min_flows_per_source=2),
    # NaN fails every comparison, so each check must be written to reject it
    dict(demand_fraction=math.nan),
    dict(growth_max=math.nan),
    dict(delay_stretch=math.nan),
    dict(flow_intensity=math.nan),
    dict(intensity_scale=math.nan),
    # Python's json reads Infinity too, and numpy cannot draw from an infinite range
    dict(demand_fraction=math.inf),
    dict(growth_max=math.inf),
    dict(delay_stretch=math.inf),
    # numpy rejects a negative seed with its own ValueError
    dict(seed=-1),
    dict(target_flow_count=-1),
    # p = 1 / (0.01 x 3 x 8 nodes) > 1 is no geometric parameter
    dict(flow_intensity=0.01),
])
def test_config_validation(topo, bad):
    with pytest.raises(ConfigError):
        ht.generate_flows(topo, cfg(**bad))
    if "growth_max" in bad:
        with pytest.raises(ConfigError):
            ht.grow_flows(np.array([]), bad["growth_max"], 0)


def test_edge_node_that_reaches_no_other_is_an_error():
    # Edge node 2 has links in but none out.
    links = [{"src": a, "dst": b, "bandwidth": 10, "delay": 1}
             for a, b in ((0, 1), (1, 0), (0, 2), (1, 2))]
    topo = ht.load_topology(json.dumps({"nodes": 3, "edge_nodes": [0, 1, 2], "links": links}))
    with pytest.raises(ht.UnreachableError,
                       match="^edge node 2 cannot reach any other edge node$"):
        ht.generate_flows(topo, cfg())


def test_intensity_governs_population(topo):
    # higher intensity -> smaller p -> more flows per source on average
    few = np.mean([len(ht.generate_flows(topo, cfg(intensity_scale=0.2, seed=s)))
                   for s in range(30)])
    many = np.mean([len(ht.generate_flows(topo, cfg(intensity_scale=6.0, seed=s)))
                    for s in range(30)])
    assert many > few
