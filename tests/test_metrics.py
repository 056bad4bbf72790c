import itertools

import numpy as np
import pytest

import hybridte as ht
from hybridte.metrics import CSV_HEADER, link_index, metrics_csv_rows, utilization
from hybridte.topology import links_of_path

import oracles
from test_recreation import ring14


@pytest.fixture
def topo():
    return ht.reference_topology()


def path_map(*pairs):
    return {fid: links_of_path(nodes) for fid, nodes in pairs}


def rates_of(flows):
    return np.array([f.rate for f in flows])


def sample(slot, flows, paths, topo):
    return ht.compute_sample(slot, rates_of(flows), link_index(topo, flows, paths))


def check_delivered(topo, flows, paths, expected):
    """The oracle delivers `expected` per flow, and the sample's throughput
    and loss are their sum and the rest of the offered rate."""
    loads = oracles.reference_offered_loads(flows, paths)
    assert oracles.reference_delivered(flows, paths, topo, loads) == pytest.approx(expected)
    s = sample(1, flows, paths, topo)
    assert s.throughput == pytest.approx(sum(expected.values()))
    assert s.packet_loss == pytest.approx(sum(f.rate for f in flows) - sum(expected.values()))
    return s


def test_no_overload_delivers_everything(topo):
    flows = (ht.Flow(0, 0, 1, 40.0, 9.0), ht.Flow(1, 0, 2, 30.0, 9.0))
    paths = path_map((0, (0, 4, 1)), (1, (0, 5, 7, 2)))
    s = check_delivered(topo, flows, paths, {0: 40.0, 1: 30.0})
    assert (s.throughput, s.packet_loss) == (70.0, 0.0)


def test_bottleneck_scales_flows_proportionally(topo):
    # 120 offered on the 100-wide link 0->4: every flow keeps 5/6 of its rate
    flows = (ht.Flow(0, 0, 1, 80.0, 9.0), ht.Flow(1, 0, 2, 40.0, 9.0))
    paths = path_map((0, (0, 4, 1)), (1, (0, 4, 6, 2)))
    check_delivered(topo, flows, paths, {0: 80.0 * 100.0 / 120.0, 1: 40.0 * 100.0 / 120.0})


def test_worst_link_governs(topo):
    # flow 1 crosses two loaded links and is capped by the worse one
    flows = (ht.Flow(0, 0, 1, 60.0, 9.0), ht.Flow(1, 0, 2, 60.0, 9.0),
             ht.Flow(2, 1, 2, 80.0, 9.0))
    paths = path_map((0, (0, 4, 1)), (1, (0, 4, 6, 2)), (2, (1, 4, 6, 2)))
    # link (0,4): 120 -> 5/6; link (4,6): 140 -> 5/7; flow 1 takes 5/7, not 5/6
    check_delivered(topo, flows, paths, {0: 60.0 * 5 / 6, 1: 60.0 * 5 / 7, 2: 80.0 * 5 / 7})


def test_sample_aggregates(topo):
    flows = (ht.Flow(0, 0, 1, 50.0, 9.0), ht.Flow(1, 2, 3, 30.0, 9.0))
    paths = path_map((0, (0, 4, 1)), (1, (2, 6, 3)))
    index = link_index(topo, flows, paths)
    s = ht.compute_sample(4, rates_of(flows), index)
    assert s.slot == 4
    assert s.throughput == pytest.approx(80.0)
    assert s.packet_loss == pytest.approx(0.0)
    assert s.avg_path_length == pytest.approx(2.0)
    # 4 loaded links at 0.5 and 0.3, 16 idle, averaged over all 20
    assert s.avg_link_utilization == pytest.approx((2 * 0.5 + 2 * 0.3) / 20.0)
    loads = dict(zip(topo.by_pair, utilization(rates_of(flows), index)[0]))
    assert loads[(0, 4)] == pytest.approx(50.0)
    assert loads[(4, 6)] == 0.0  # idle


def test_utilization_caps_at_one(topo):
    flows = (ht.Flow(0, 0, 1, 250.0, 9.0),)
    s = sample(0, flows, path_map((0, (0, 4, 1))), topo)
    assert s.avg_link_utilization == pytest.approx(2.0 / 20.0)
    assert s.throughput == pytest.approx(100.0)
    assert s.packet_loss == pytest.approx(150.0)


def test_loss_equals_offered_minus_delivered(topo):
    flows = (ht.Flow(0, 0, 1, 130.0, 9.0), ht.Flow(1, 0, 1, 26.0, 9.0))
    paths = path_map((0, (0, 4, 1)), (1, (0, 5, 1)))
    s = sample(0, flows, paths, topo)
    assert s.throughput == pytest.approx(100.0 + 26.0)
    assert s.packet_loss == pytest.approx(30.0)


def test_csv_schema_and_float_repr(topo):
    flows = (ht.Flow(0, 0, 1, 12.5, 9.0),)
    s = sample(0, flows, path_map((0, (0, 4, 1))), topo)
    rows = metrics_csv_rows([("ffr", s)])
    assert rows[0] == CSV_HEADER == "slot,scheme,throughput,avg_util,avg_path_len,loss"
    cells = rows[1].split(",")
    assert cells[0] == "0" and cells[1] == "ffr"
    assert cells[2] == repr(12.5)
    assert float(cells[5]) == 0.0


def test_csv_file_round_trip(tmp_path, topo):
    flows = (ht.Flow(0, 0, 1, 12.5, 9.0),)
    s = sample(0, flows, path_map((0, (0, 4, 1))), topo)
    out = tmp_path / "m.csv"
    ht.write_metrics_csv(str(out), [("exact", s)])
    text = out.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")
    ht.write_metrics_csv(str(out), [("exact", s)])
    assert out.read_text() == text


def test_empty_flows(topo):
    s = sample(0, (), {}, topo)
    assert s.throughput == 0.0
    assert s.avg_path_length == 0.0
    assert s.avg_link_utilization == 0.0
    # Every float column reads as a float, not the integer 0 of an empty sum.
    assert metrics_csv_rows([("ffr", s)])[1] == "0,ffr,0.0,0.0,0.0,0.0"


def test_missing_link_is_a_key_error(topo):
    assert (0, 6) not in topo.by_pair
    flows = (ht.Flow(0, 0, 1, 5.0, 9.0), ht.Flow(1, 0, 2, 5.0, 9.0))
    paths = path_map((0, (0, 4, 1)), (1, (0, 6, 2)))
    with pytest.raises(KeyError, match=r"nonexistent link \(0, 6\)"):
        link_index(topo, flows, paths)


def test_sample_matches_the_reference_sums():
    # Exact equality: reusing the check's loads and utilization, and the shortcut for
    # slots whose utilization stays at most 1, must not move a single bit of metrics.csv.
    rng = np.random.default_rng(12)
    topologies = (ht.reference_topology(), ring14())
    seen = {"empty": 0, "idle": 0, "overloaded": 0, "at_bandwidth": 0, "one_ulp_over": 0,
            "empty_path": 0}
    for i in range(1200):
        topo = topologies[i % 2]
        flows, paths = oracles.random_sample_instance(rng, topo)
        used = {pair for route in paths.values() for pair in route}
        idle = [ln for ln in topo.links if (ln.src, ln.dst) not in used]
        if i % 3 == 0 and idle:
            # One flow alone on an idle link, loading it one ulp above its bandwidth.
            ln, fid = idle[int(rng.integers(len(idle)))], len(flows)
            flows += (ht.Flow(fid, ln.src, ln.dst, float(np.nextafter(ln.bandwidth, np.inf)),
                              10.0),)
            paths[fid] = ((ln.src, ln.dst),)
        expect = oracles.reference_sample(i, flows, paths, topo)
        index, rates = link_index(topo, flows, paths), rates_of(flows)
        usage = utilization(rates, index)  # the trigger check's loads, list and peak
        loads, utils, peak = usage
        reference = oracles.reference_offered_loads(flows, paths)
        assert loads.tolist() == [reference.get(pair, 0.0) for pair in topo.by_pair]
        assert utils == (loads / index.bandwidth).tolist() and peak == max(utils)
        assert ht.compute_sample(i, rates, index) == expect
        assert ht.compute_sample(i, rates, index, usage) == expect
        bandwidth = {(ln.src, ln.dst): ln.bandwidth for ln in topo.links}
        over = [p for p, load in reference.items() if load > bandwidth[p]]
        seen["empty"] += not flows
        seen["idle"] += len(reference) < len(bandwidth)
        seen["overloaded"] += bool(over)
        seen["at_bandwidth"] += any(load == bandwidth[p] for p, load in reference.items())
        # Only a load one ulp above its bandwidth sends the sample down the overloaded branch.
        seen["one_ulp_over"] += bool(over) and all(
            reference[p] == np.nextafter(bandwidth[p], np.inf) for p in over)
        # A flow on an empty path delivers its whole rate and adds no hops.
        seen["empty_path"] += any(not paths[f.id] for f in flows)
    assert min(seen.values()) >= 20, seen


def ten_links(bandwidth):
    """Four nodes joined by the first ten of their ordered pairs, one bandwidth for all."""
    pairs = list(itertools.permutations(range(4), 2))[:10]
    return ht.NetworkTopology(4, tuple(ht.Link(a, b, bandwidth, 1.0) for a, b in pairs),
                              frozenset({0, 1}))


def test_sums_run_left_to_right():
    # Ten 0.1s added left to right make 0.9999999999999999; the builtin sum of
    # Python 3.12 and numpy's pairwise ndarray.sum both make 1.0.
    assert ten_links(0.1).mean_bandwidth == 0.9999999999999999 / 10
    topo = ten_links(1.0)
    flows = tuple(ht.Flow(i, a, b, 0.1, 9.0) for i, (a, b) in enumerate(topo.by_pair))
    s = sample(3, flows, {f.id: ((f.src, f.dst),) for f in flows}, topo)
    assert (s.throughput, s.packet_loss) == (0.9999999999999999, 0.0)
    assert s.avg_link_utilization == 0.9999999999999999 / 10
