"""Static shortest-path routing used as the comparison baseline.

Every flow follows the minimum-hop route from its source to its destination,
with ties broken toward the lexicographically smallest node sequence, and
never moves afterwards.
"""

from __future__ import annotations

from .errors import UnreachableError
from .topology import NetworkTopology
from .traffic import Flow


def shortest_path_route(flow: Flow, topo: NetworkTopology) -> tuple[int, ...]:
    """Minimum-hop node sequence for the flow, lexicographically smallest on ties."""
    # Breadth-first search. Each layer lists its nodes in the order of their paths, and
    # out-links come sorted by destination, so the first path to reach a node has the
    # fewest hops and, of those, is the lexicographically smallest.
    paths = {flow.src: (flow.src,)}
    layer = [flow.src]
    while layer and flow.dst not in paths:
        nxt = []
        for node in layer:
            for ln in topo.out_links(node):
                if ln.dst not in paths:
                    paths[ln.dst] = paths[node] + (ln.dst,)
                    nxt.append(ln.dst)
        layer = nxt
    if flow.dst not in paths:
        raise UnreachableError(f"no route from {flow.src} to {flow.dst}")
    return paths[flow.dst]
