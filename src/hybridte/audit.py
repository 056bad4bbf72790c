"""Independent constraint audits over assignment matrices and routing tensors.

Everything here re-derives feasibility from raw problem data with numpy
array arithmetic, deliberately sharing none of the solvers' incremental
bookkeeping, so it can catch their mistakes. Each function returns a list of
human-readable violations; an empty list means the solution checks out.
"""

from __future__ import annotations

import math

import numpy as np


def _rel_ok(value: float, bound: float, rtol: float) -> bool:
    return value <= bound + rtol * max(1.0, abs(bound))


def audit_flow_assignment(flows, lsps, assignment, mode: str = "reserved",
                          mu: float = 0.9, routing=None, topo=None,
                          capacities: dict[int, float] | None = None,
                          rtol: float = 1e-9) -> list[str]:
    """Check one flow-to-LSP assignment against the full constraint set."""
    problems: list[str] = []
    flows = sorted(flows, key=lambda f: f.id)
    lsp_by_id = {l.id: l for l in lsps}
    cols = list(lsp_by_id.values())  # column j of every matrix below is LSP cols[j]
    col = {l.id: j for j, l in enumerate(cols)}
    fr = np.zeros((len(flows), len(cols)), dtype=np.int64)
    for row, f in enumerate(flows):
        if f.id not in assignment:
            problems.append(f"flow {f.id}: not assigned to any LSP")
            continue
        lid = assignment[f.id]
        if lid not in lsp_by_id:
            problems.append(f"flow {f.id}: assigned to unknown LSP {lid}")
            continue
        fr[row, col[lid]] = 1
    if problems:
        return problems

    rates = np.array([f.rate for f in flows])
    caps = np.array([l.capacity if capacities is None else capacities[l.id] for l in cols])
    delays = np.array([l.prop_delay for l in cols])

    for row, f in enumerate(flows):
        l = cols[int(np.argmax(fr[row]))]
        if l.src != f.src or l.dst != f.dst:
            problems.append(f"flow {f.id}: endpoints ({f.src},{f.dst}) ride "
                            f"LSP {l.id} with endpoints ({l.src},{l.dst})")

    lsp_loads = rates @ fr
    for j, l in enumerate(cols):
        if not _rel_ok(float(lsp_loads[j]), float(caps[j]), rtol):
            problems.append(f"LSP {l.id}: load {lsp_loads[j]:.6g} exceeds "
                            f"capacity {caps[j]:.6g}")

    path_delays = fr @ delays
    for row, f in enumerate(flows):
        if not _rel_ok(float(path_delays[row]), f.max_delay, rtol):
            problems.append(f"flow {f.id}: path delay {path_delays[row]:.6g} exceeds "
                            f"bound {f.max_delay:.6g}")

    if mode == "unreserved":
        if routing is None or topo is None:
            problems.append("unreserved audit needs a routing and a topology")
            return problems
        lr = np.zeros((topo.node_count, topo.node_count, len(cols)), dtype=np.int64)
        for j, l in enumerate(cols):
            for a, b in routing[l.id]:
                lr[a, b, j] = 1
        link_loads = lr @ lsp_loads
        for ln in topo.links:
            bound = mu * ln.bandwidth
            if not _rel_ok(float(link_loads[ln.src, ln.dst]), bound, rtol):
                problems.append(f"link ({ln.src},{ln.dst}): carried "
                                f"{link_loads[ln.src, ln.dst]:.6g} exceeds "
                                f"headroom {bound:.6g}")
    return problems


def audit_lsp_routing(requests, routing, topo, mu: float = 0.9,
                      rtol: float = 1e-9) -> list[str]:
    """Check a recreated routing: reservations, delays, and path structure."""
    problems: list[str] = []
    n = len(requests)
    nn = topo.node_count
    lr = np.zeros((nn, nn, n), dtype=np.int64)
    for i in range(n):
        for a, b in routing[i]:
            if topo.by_pair.get((a, b)) is None:
                problems.append(f"request {i}: uses nonexistent link ({a},{b})")
            else:
                lr[a, b, i] = 1
    if problems:
        return problems

    exists = np.zeros((nn, nn), dtype=bool)
    bw = np.zeros((nn, nn))
    dl = np.zeros((nn, nn))
    for ln in topo.links:
        exists[ln.src, ln.dst] = True
        bw[ln.src, ln.dst] = ln.bandwidth
        dl[ln.src, ln.dst] = ln.delay

    caps = np.array([r.capacity for r in requests])
    reserved = lr @ caps
    for a, b in zip(*np.nonzero(exists)):
        bound = mu * bw[a, b]
        if not _rel_ok(float(reserved[a, b]), bound, rtol):
            problems.append(f"link ({a},{b}): reserved {reserved[a, b]:.6g} exceeds "
                            f"headroom {bound:.6g}")

    for i, req in enumerate(requests):
        slice_ = lr[:, :, i]
        delay = float((slice_ * dl).sum())
        if not (math.isinf(req.delay_budget) or _rel_ok(delay, req.delay_budget, rtol)):
            problems.append(f"request {i}: path delay {delay:.6g} exceeds "
                            f"budget {req.delay_budget:.6g}")
        if slice_[:, req.src].sum() != 0:
            problems.append(f"request {i}: a link enters the source")
        if slice_[req.dst, :].sum() != 0:
            problems.append(f"request {i}: a link leaves the destination")
        if slice_[req.src, :].sum() != 1:
            problems.append(f"request {i}: source out-degree is not 1")
        if slice_[:, req.dst].sum() != 1:
            problems.append(f"request {i}: destination in-degree is not 1")
        for u in range(nn):
            if u in (req.src, req.dst):
                continue
            if slice_[:, u].sum() != slice_[u, :].sum():
                problems.append(f"request {i}: flow not conserved at node {u}")
        if np.any(slice_.sum(axis=1) > 1):
            problems.append(f"request {i}: a node has out-degree above 1")

        # Walk the slice from the source; a well-formed slice is one simple
        # path that consumes every set entry and ends at the destination.
        visited = {req.src}
        node = req.src
        steps = 0
        ok = True
        while node != req.dst:
            nxt = np.nonzero(slice_[node, :])[0]
            if len(nxt) != 1:
                ok = False
                break
            node = int(nxt[0])
            steps += 1
            if node in visited:
                ok = False
                break
            visited.add(node)
        if not ok or steps != int(slice_.sum()):
            problems.append(f"request {i}: entries do not form one simple path")
    return problems
