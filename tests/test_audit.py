"""The audits' failure side: each known-good solution broken one way reports
exactly the violations that break causes, and nothing else."""

import pytest

import hybridte as ht


def good_assignment():
    # Two 10-unit LSPs from 0 to 1 (2 links, delay 2 each) and one from 2 to
    # 3; flows of 6 and 5 units, one per LSP, fit every constraint at mu 0.9.
    topo = ht.reference_topology()
    lsps = (ht.build_lsp(topo, [0, 4, 1], 10.0, 0), ht.build_lsp(topo, [0, 5, 1], 10.0, 1),
            ht.build_lsp(topo, [2, 6, 3], 10.0, 2))
    flows = (ht.Flow(0, 0, 1, 6.0, 4.0), ht.Flow(1, 0, 1, 5.0, 4.0))
    return dict(flows=flows, lsps=lsps, assignment={0: 0, 1: 1}, mode="unreserved",
                mu=0.9, topo=topo)


def unassign(case):
    case["assignment"] = {0: 0}


def unknown_lsp(case):
    case["assignment"] = {0: 0, 1: 7}


def wrong_endpoints(case):
    case["assignment"] = {0: 0, 1: 2}


def overload(case):
    case["assignment"] = {0: 0, 1: 0}


def tight_delay(case):
    case["flows"] = (case["flows"][0], ht.Flow(1, 0, 1, 5.0, 1.5))


def small_headroom(case):
    case["mu"] = 0.055


def no_topology(case):
    case["topo"] = None


@pytest.mark.parametrize("break_, expect", [
    (unassign, ["flow 1: not assigned to any LSP"]),
    (unknown_lsp, ["flow 1: assigned to unknown LSP 7"]),
    (wrong_endpoints, ["flow 1: endpoints (0,1) ride LSP 2 with endpoints (2,3)"]),
    (overload, ["LSP 0: load 11 exceeds capacity 10"]),
    (tight_delay, ["flow 1: path delay 2 exceeds bound 1.5"]),
    (small_headroom, ["link (0,4): carried 6 exceeds headroom 5.5",
                      "link (4,1): carried 6 exceeds headroom 5.5"]),
    (no_topology, ["unreserved audit needs a routing and a topology"]),
], ids=lambda v: v.__name__ if callable(v) else "violations")
def test_flow_assignment_audit_reports_each_violation(break_, expect):
    case = good_assignment()
    routing = ht.ReroutingProblem(case["flows"], case["lsps"], {}).routing
    assert ht.audit_flow_assignment(**case, routing=routing) == []
    break_(case)
    assert ht.audit_flow_assignment(**case, routing=routing) == expect


def test_flow_assignment_audit_gives_each_lsp_id_its_own_column():
    # Two 10-unit LSPs with ids -1 and 0: a column taken by raw id would put
    # LSP -1 on LSP 0's column and report both at the sum of their loads.
    topo = ht.reference_topology()
    lsps = (ht.build_lsp(topo, [0, 4, 1], 10.0, -1), ht.build_lsp(topo, [0, 5, 1], 10.0, 0))
    flows = (ht.Flow(0, 0, 1, 8.0, 4.0), ht.Flow(1, 0, 1, 8.0, 4.0))
    routing = {l.id: l.links for l in lsps}

    def audit(assignment, mode="unreserved", mu=0.9):
        return ht.audit_flow_assignment(flows, lsps, assignment, mode=mode, mu=mu,
                                        routing=routing, topo=topo)

    for mode in ("reserved", "unreserved"):
        assert audit({0: -1, 1: 0}, mode) == []
        assert audit({0: -1, 1: -1}, mode) == ["LSP -1: load 16 exceeds capacity 10"]
    # The link tensor keeps them apart too: each core link carries one flow.
    assert audit({0: -1, 1: 0}, mu=0.05) == [f"link ({a},{b}): carried 8 exceeds headroom 5"
                                             for a, b in ((0, 4), (0, 5), (4, 1), (5, 1))]


# Request 0 asks for a 40-unit tunnel from 0 to 1 within delay 3; request 1
# is a second, valid tunnel from 2 to 3.
GOOD_ROUTE = ((0, 4), (4, 1))


@pytest.mark.parametrize("route, capacity, budget, expect", [
    (((0, 1),), 40.0, 3.0, ["request 0: uses nonexistent link (0,1)"]),
    (GOOD_ROUTE, 95.0, 3.0, ["link (0,4): reserved 95 exceeds headroom 90",
                             "link (4,1): reserved 95 exceeds headroom 90"]),
    (GOOD_ROUTE, 40.0, 1.5, ["request 0: path delay 2 exceeds budget 1.5"]),
    (GOOD_ROUTE + ((5, 0),), 40.0, 9.0, ["request 0: a link enters the source",
                                         "request 0: flow not conserved at node 5",
                                         "request 0: entries do not form one simple path"]),
    (GOOD_ROUTE + ((1, 5),), 40.0, 9.0, ["request 0: a link leaves the destination",
                                         "request 0: flow not conserved at node 5",
                                         "request 0: entries do not form one simple path"]),
    (((4, 1),), 40.0, 3.0, ["request 0: source out-degree is not 1",
                            "request 0: flow not conserved at node 4",
                            "request 0: entries do not form one simple path"]),
    (((0, 4),), 40.0, 3.0, ["request 0: destination in-degree is not 1",
                            "request 0: flow not conserved at node 4",
                            "request 0: entries do not form one simple path"]),
    (GOOD_ROUTE + ((5, 7),), 40.0, 9.0, ["request 0: flow not conserved at node 5",
                                         "request 0: flow not conserved at node 7",
                                         "request 0: entries do not form one simple path"]),
    (GOOD_ROUTE + ((4, 6), (6, 4)), 40.0, 9.0, [
        "request 0: a node has out-degree above 1",
        "request 0: entries do not form one simple path"]),
    # A cycle apart from the path keeps every degree and conservation check.
    (GOOD_ROUTE + ((5, 7), (7, 5)), 40.0, 9.0, [
        "request 0: entries do not form one simple path"]),
    # A walk that comes back to a node it has visited.
    (((0, 4), (4, 6), (6, 4)), 40.0, 9.0, ["request 0: destination in-degree is not 1",
                                           "request 0: flow not conserved at node 4",
                                           "request 0: entries do not form one simple path"]),
], ids=["nonexistent-link", "headroom", "delay-budget", "into-source", "out-of-destination",
        "source-degree", "destination-degree", "conservation", "out-degree", "detached-cycle",
        "revisit"])
def test_lsp_routing_audit_reports_each_violation(route, capacity, budget, expect):
    topo = ht.reference_topology()
    other = ht.LspRequest(2, 3, 40.0, 2.0)
    good = (ht.LspRequest(0, 1, 40.0, 3.0), other)
    assert ht.audit_lsp_routing(good, (GOOD_ROUTE, ((2, 6), (6, 3))), topo, mu=0.9) == []
    requests = (ht.LspRequest(0, 1, capacity, budget), other)
    assert ht.audit_lsp_routing(requests, (route, ((2, 6), (6, 3))), topo, mu=0.9) == expect
