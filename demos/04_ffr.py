"""The greedy two-pass re-router: fast, usually good, never exact.

Pass one re-seats flows (largest first) onto admissible LSPs with free
capacity, preferring the LSP a flow is already on. Pass two widens an LSP
by borrowing headroom left on its physical links. Whatever still fails is
parked on its old LSP and reported for path re-creation.

The same two-flow instance goes through all three outcomes as the link
headroom share shrinks."""

import hybridte as ht

topo = ht.reference_topology()

lsps = (
    ht.build_lsp(topo, [0, 4, 1], 10.0, 0),
    ht.build_lsp(topo, [0, 5, 1], 4.0, 1),
)
flows = (
    ht.Flow(0, 0, 1, 7.0, 4.0),
    ht.Flow(1, 0, 1, 6.0, 4.0),
)
old = {0: 0, 1: 0}   # 13 units on a 10-unit LSP


def show(tag, result):
    print(f"{tag}: assignment={dict(result.assignment.items())} "
          f"widened={result.augmentations} parked={result.recreation_requests} "
          f"examinations={result.examinations}")


# Plenty of headroom (links are 100 wide, 90 usable): flow 1 finds no free
# reservation anywhere (3 left on LSP 0, 4 on LSP 1), so pass two simply
# widens its old LSP by the missing 3 units. Nothing moves.
generous = ht.ffr(flows, lsps, old, topo, mu=0.9)
show("mu=0.90", generous)
assert generous.assignment[1] == 0
assert round(generous.augmentations[0], 9) == 3.0

# 5% headroom: LSP 0's links already carry 7 units, more than the 5 usable,
# so the old LSP cannot grow. LSP 1's links are idle; the flow moves there
# and the 4-unit reservation is widened by 2.
tight = ht.ffr(flows, lsps, old, topo, mu=0.05)
show("mu=0.05", tight)
assert tight.assignment[1] == 1
assert round(tight.augmentations[1], 9) == 2.0

# The audit accepts the widened capacities.
caps = {l.id: l.capacity + tight.augmentations.get(l.id, 0.0) for l in lsps}
assert ht.audit_flow_assignment(flows, lsps, tight.assignment,
                                capacities=caps) == []
print("audit with widened capacities: clean")

# 1% headroom: neither LSP can grow enough (4 + 1 < 6). The flow is parked
# on its old LSP and reported so the orchestrator can request new paths.
starved = ht.ffr(flows, lsps, old, topo, mu=0.01)
show("mu=0.01", starved)
assert starved.recreation_requests == (1,)
assert starved.assignment[1] == 0
assert starved.placed == frozenset({0})
