"""Move as few flows as possible off an overloaded label-switched path.

Two parallel LSPs carry three flows; after growth the loaded one no longer
fits its traffic and the exact solver finds the cheapest repair."""

import hybridte as ht
from hybridte.rerouting import ReroutingProblem, RoutingMode

topo = ht.reference_topology()

# Two disjoint 10-unit paths from edge node 0 to edge node 1.
lsps = (
    ht.build_lsp(topo, [0, 4, 1], 10.0, 0),
    ht.build_lsp(topo, [0, 5, 1], 10.0, 1),
)

# All three flows currently ride LSP 0: 5 + 4 + 3 = 12 > 10.
flows = (
    ht.Flow(0, 0, 1, 5.0, 4.0),
    ht.Flow(1, 0, 1, 4.0, 4.0),
    ht.Flow(2, 0, 1, 3.0, 4.0),
)
old = {0: 0, 1: 0, 2: 0}

problem = ReroutingProblem(flows=flows, lsps=lsps, fr_old=old)
solution = ht.solve_flow_rerouting(problem)

print(f"changes: {solution.changes} (optimal={solution.optimal})")
for fid, lid in solution.assignment.items():
    moved = " <- moved" if lid != old[fid] else ""
    print(f"  flow {fid} (rate {flows[fid].rate}) on LSP {lid}{moved}")

# One move suffices: shifting the 3-unit flow leaves 9 <= 10 on LSP 0.
assert solution.changes == 1
assert solution.assignment[2] == 1

# The independent auditor re-checks every constraint from scratch.
violations = ht.audit_flow_assignment(flows, lsps, solution.assignment)
assert violations == []
print("audit: no violations")

# Unreserved mode additionally bounds the offered load on every physical
# link by a headroom share of its bandwidth. With 90 usable units per link
# that bound is slack and the answer is unchanged. The links each flow
# loads are those of its LSP ...
relaxed = ReroutingProblem(flows=flows, lsps=lsps, fr_old=old,
                           mode=RoutingMode.UNRESERVED, mu=0.9, topology=topo)
assert ht.solve_flow_rerouting(relaxed).changes == 1

# ... but with only 8 usable units per link, the reserved repair above is
# no longer valid: moving the 3-unit flow would leave 5 + 4 = 9 on LSP 0's
# links. The solver moves the 4-unit flow instead - a different single
# change that puts exactly 8 units on the loaded plane.
squeezed = ReroutingProblem(flows=flows, lsps=lsps, fr_old=old,
                            mode=RoutingMode.UNRESERVED, mu=0.08, topology=topo)
solution = ht.solve_flow_rerouting(squeezed)
print(f"\nunreserved mode with 8-unit link headroom: changes={solution.changes}")
for fid, lid in solution.assignment.items():
    print(f"  flow {fid} -> LSP {lid}")
assert solution.changes == 1
assert solution.assignment[1] == 1 and solution.assignment[2] == 0
assert ht.audit_flow_assignment(flows, lsps, solution.assignment,
                                mode="unreserved", mu=0.08,
                                routing=squeezed.routing, topo=topo) == []
