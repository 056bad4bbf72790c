import numpy as np
import pytest

import hybridte as ht
from hybridte.errors import UnreachableError

import oracles


def flow(src, dst):
    return ht.Flow(0, src, dst, 1.0, 1e9)


def test_min_hop_on_reference():
    topo = ht.reference_topology()
    for src in topo.edge_nodes:
        for dst in topo.edge_nodes:
            if src == dst:
                continue
            path = ht.shortest_path_route(flow(src, dst), topo)
            assert path[0] == src and path[-1] == dst
            assert len(path) - 1 == oracles.min_hop_count(topo, src, dst)
            assert len(set(path)) == len(path)


def test_lexicographic_tie_break():
    topo = ht.reference_topology()
    # both planes give two-hop and three-hop routes; the smaller node ids win
    assert ht.shortest_path_route(flow(0, 1), topo) == (0, 4, 1)
    assert ht.shortest_path_route(flow(0, 2), topo) == (0, 4, 6, 2)
    assert ht.shortest_path_route(flow(2, 0), topo) == (2, 6, 4, 0)
    assert ht.shortest_path_route(flow(3, 2), topo) == (3, 6, 2)


def test_matches_bfs_on_random_graphs():
    rng = np.random.default_rng(71)
    for _ in range(60):
        topo = oracles.random_topology(rng)
        src, dst = 0, topo.node_count - 1
        expect = oracles.min_hop_count(topo, src, dst)
        if expect is None:
            with pytest.raises(UnreachableError):
                ht.shortest_path_route(flow(src, dst), topo)
            continue
        # lexicographically smallest among all min-hop routes
        assert ht.shortest_path_route(flow(src, dst), topo) == oracles.min_hop_route(
            topo, src, dst)


def test_unreachable():
    topo = ht.load_topology({
        "nodes": 3, "edge_nodes": [0, 2],
        "links": [{"src": 0, "dst": 1, "bandwidth": 1, "delay": 1}],
    })
    with pytest.raises(UnreachableError):
        ht.shortest_path_route(flow(0, 2), topo)
