"""Re-plan LSP paths when re-seating flows is not enough.

Three reservations squeeze through the same plane of the network; the
solver re-routes the least intrusive subset onto the other plane so that
every link keeps its reservations under the headroom share."""

import hybridte as ht
from hybridte.recreation import LspRequest, RecreationProblem

topo = ht.reference_topology()

# All three current paths cross link (0, 4): 3 x 40 = 120 reserved units
# on a 100-unit link. With 90 usable, at most two such paths may stay.
old_paths = ([0, 4, 1], [0, 4, 6, 2], [0, 4, 6, 3])
lsps = tuple(ht.build_lsp(topo, p, 40.0, i) for i, p in enumerate(old_paths))
routing = tuple(l.links for l in lsps)  # the old routing, in request order

requests = tuple(
    LspRequest(l.src, l.dst, l.capacity, delay_budget=6.0) for l in lsps
)
problem = RecreationProblem(requests=requests, topology=topo,
                            lr_old=routing, mu=0.9)
solution = ht.solve_lsp_recreation(problem)

print(f"changed link entries: {solution.changed_entries} "
      f"(optimal={solution.optimal})")
for i, links in enumerate(solution.routing):
    tag = "kept" if links == lsps[i].links else "re-routed"
    print(f"  LSP {i}: {links} ({tag})")

# The cheapest repair re-routes exactly one LSP onto the 5/7 plane. A
# two-hop detour differs from the old path in all old + all new entries.
moved = [i for i, links in enumerate(solution.routing)
         if links != lsps[i].links]
assert len(moved) == 1

# Independent audit: delay budgets, reservations, and path structure.
assert ht.audit_lsp_routing(requests, solution.routing, topo, mu=0.9) == []
print("audit: no violations")

# Re-solving with the new routing as the starting point changes nothing:
# the minimum-change objective makes re-creation idempotent.
again = ht.solve_lsp_recreation(RecreationProblem(
    requests=requests, topology=topo, lr_old=solution.routing, mu=0.9))
assert again.changed_entries == 0
print("re-solving from the repaired state: 0 changes")

# Shrink the budget below any two-hop path and the instance is impossible;
# the solver proves it rather than guessing.
try:
    ht.solve_lsp_recreation(RecreationProblem(
        requests=tuple(LspRequest(l.src, l.dst, l.capacity, 1.0) for l in lsps),
        topology=topo, lr_old=routing, mu=0.9))
except ht.Infeasible as exc:
    print(f"1-unit delay budget: infeasible (proven={exc.proven})")
