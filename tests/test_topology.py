import json
import os

import numpy as np
import pytest

import hybridte as ht
from hybridte.errors import ParseError, ValidationError

import oracles

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def test_reference_shape():
    topo = ht.reference_topology()
    assert topo.node_count == 8
    assert len(topo.links) == 20
    assert topo.edge_nodes == frozenset({0, 1, 2, 3})
    assert frozenset(range(topo.node_count)) - topo.edge_nodes == frozenset({4, 5, 6, 7})


def test_reference_edges_are_lowest_degree():
    topo = ht.reference_topology()
    out_deg = {v: len(topo.out_links(v)) for v in range(topo.node_count)}
    ranked = sorted(range(topo.node_count), key=lambda v: (out_deg[v], v))
    assert set(ranked[:4]) == set(topo.edge_nodes)
    assert all(out_deg[v] == 2 for v in topo.edge_nodes)
    assert all(out_deg[v] == 3 for v in set(range(topo.node_count)) - topo.edge_nodes)


def test_reference_is_strongly_connected():
    topo = ht.reference_topology()
    for src in range(topo.node_count):
        assert len(topo.delay_distances(src)) == topo.node_count


def test_reference_uniform_links():
    topo = ht.reference_topology()
    assert all(l.bandwidth == 100.0 and l.delay == 1.0 for l in topo.links)
    assert topo.mean_bandwidth == 100.0
    # every link has its reverse twin
    pairs = {(l.src, l.dst) for l in topo.links}
    assert all((b, a) in pairs for a, b in pairs)


def test_round_trip_identity():
    topo = ht.reference_topology()
    text = ht.serialize_topology(topo)
    again = ht.load_topology(json.loads(text))
    assert again == topo
    assert ht.serialize_topology(again) == text


def test_link_lookup():
    topo = ht.reference_topology()
    ln = topo.by_pair.get((0, 4))
    assert ln is not None and ln.bandwidth == 100.0 and ln.delay == 1.0
    assert topo.by_pair.get((0, 6)) is None
    assert topo.by_pair.get((4, 0)) is not None


def test_delay_distances_match_hops_on_unit_delays():
    topo = ht.reference_topology()
    for src in range(topo.node_count):
        dist = topo.delay_distances(src)
        for dst in range(topo.node_count):
            assert dist[dst] == oracles.min_hop_count(topo, src, dst)


def test_distances_to_a_node_match_distances_from_each_node():
    # Integer delays, so summing a path from either end gives the same float.
    rng = np.random.default_rng(5)
    for topo in [ht.reference_topology()] + [oracles.random_topology(rng) for _ in range(30)]:
        for dst in range(topo.node_count):
            expect = {src: d[dst] for src in range(topo.node_count)
                      if dst in (d := topo.delay_distances(src))}
            assert topo.delay_distances_to(dst) == expect


def test_reverse_dijkstra_runs_once_per_destination_and_topology(monkeypatch):
    calls = []
    dijkstra = ht.NetworkTopology._dijkstra

    def spy(self, start, reverse):
        calls.append((id(self), start, reverse))
        return dijkstra(self, start, reverse)

    monkeypatch.setattr(ht.NetworkTopology, "_dijkstra", spy)
    first, second = ht.reference_topology(), ht.reference_topology()
    for topo in (first, second, first):
        for dst in (2, 3, 2):
            topo.delay_distances_to(dst)
        topo.delay_distances(0)
    reverse = [(topo, dst) for topo, dst, rev in calls if rev]
    assert reverse == [(id(first), 2), (id(first), 3), (id(second), 2), (id(second), 3)]
    assert len(calls) - len(reverse) == 3  # forward distances are not kept
    # The kept distances take no part in equality or hashing.
    assert first == ht.reference_topology() and hash(first) == hash(ht.reference_topology())


def test_shortest_delay_unreachable():
    # Traffic generation raises UnreachableError for a destination left out here.
    topo = ht.load_topology({
        "nodes": 3, "edge_nodes": [0, 2],
        "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": 1}],
    })
    assert topo.delay_distances(0) == {0: 0.0, 1: 1.0}


# Each case is written as JSON text, its id, and given to the loader as a document.
@pytest.mark.parametrize("text", [
    "[1, 2, 3]",
    '{"nodes": 3, "links": []}',
    '{"nodes": "three", "edge_nodes": [0], "links": []}',
    '{"nodes": 3, "edge_nodes": [0], "links": [{"src": 0}]}',
    # Wrong types are rejected, not coerced, and unknown keys are not ignored.
    '{"nodes": 3, "edge_nodes": [0], "links": [{"src": 0.7, "dst": 1, "bandwidth": 1, "delay": 1}]}',
    '{"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": true, "bandwidth": 1, "delay": 1}]}',
    '{"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": 1, "bandwidth": true, "delay": 1}]}',
    '{"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": false}]}',
    '{"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": 1, "bandwidth": "1", "delay": 1}]}',
    '{"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": 1, "bandwith": 1, "delay": 1}]}',
    '{"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": 1,'
    ' "cost": 2}]}',
    '{"nodes": 3, "edge_nodes": [1.9], "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": 1}]}',
    '{"nodes": 3, "edge_nodes": [true], "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": 1}]}',
    '{"nodes": true, "edge_nodes": [0], "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": 1}]}',
    '{"nodes": 3, "edge_nodes": [0], "links": [], "name": "lab"}',
    '{"nodes": 3, "edge_nodes": [0, 0, 1], "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": 1}]}',
    '{"nodes": 3, "edge_nodes": [0], "links": {"src": 0, "dst": 1, "bandwidth": 1, "delay": 1}}',
    '{"nodes": 3, "edge_nodes": [0], "links": [[0, 1, 1, 1]]}',
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        ht.load_topology(json.loads(text))


@pytest.mark.parametrize("doc", [
    {"nodes": 1, "edge_nodes": [0], "links": []},
    {"nodes": 3, "edge_nodes": [], "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": 1}]},
    {"nodes": 3, "edge_nodes": [5], "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": 1}]},
    {"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": 5, "bandwidth": 1, "delay": 1}]},
    {"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": 0, "bandwidth": 1, "delay": 1}]},
    {"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": 1, "bandwidth": 0, "delay": 1}]},
    {"nodes": 3, "edge_nodes": [0], "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": -2}]},
    {"nodes": 3, "edge_nodes": [0], "links": [
        {"src": 0, "dst": 1, "bandwidth": 1, "delay": 1},
        {"src": 0, "dst": 1, "bandwidth": 2, "delay": 1},
    ]},
    {"nodes": 3, "edge_nodes": [0], "links": [
        {"src": 0, "dst": 1, "bandwidth": float("nan"), "delay": 1}]},
    {"nodes": 3, "edge_nodes": [0], "links": [
        {"src": 0, "dst": 1, "bandwidth": 1, "delay": float("nan")}]},
    {"nodes": 3, "edge_nodes": [0], "links": [
        {"src": 0, "dst": 1, "bandwidth": float("inf"), "delay": 1}]},
    {"nodes": 3, "edge_nodes": [0], "links": [
        {"src": 0, "dst": 1, "bandwidth": 1, "delay": float("inf")}]},
    {"nodes": 2, "edge_nodes": [0, 1], "links": []},
])
def test_validation_errors(doc):
    with pytest.raises(ValidationError):
        ht.load_topology(doc)


def test_missing_file_named_in_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(ParseError, match="nope.json"):
        ht.load_topology_file(missing)


def test_links_of_path():
    assert ht.links_of_path((0, 4, 6, 2)) == ((0, 4), (4, 6), (6, 2))
    assert ht.links_of_path((7,)) == ()


def test_shipped_topology_and_integer_figures_load():
    topo = ht.load_topology_file(os.path.join(SCENARIOS, "reference_topology.json"))
    assert topo == ht.reference_topology()
    # Integer bandwidth and delay are numbers too.
    topo = ht.load_topology({
        "nodes": 2, "edge_nodes": [0, 1],
        "links": [{"src": 0, "dst": 1, "bandwidth": 10, "delay": 2}],
    })
    assert topo.by_pair[0, 1] == ht.Link(0, 1, 10.0, 2.0)


def test_random_topologies_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        topo = oracles.random_topology(rng)
        assert ht.load_topology(json.loads(ht.serialize_topology(topo))) == topo


def test_out_links_sorted_and_complete():
    topo = ht.reference_topology()
    for v in range(topo.node_count):
        outs = topo.out_links(v)
        assert [l.dst for l in outs] == sorted(l.dst for l in outs)
    assert sum(len(topo.out_links(v)) for v in range(8)) == len(topo.links)
