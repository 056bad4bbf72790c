"""Fast flow re-routing: a greedy two-pass stand-in for the exact solver.

Flows are visited largest first. Pass one keeps or moves a flow onto an admissible LSP
of the run's plan (`lsp.LspPlan`, grouped and checked once, not per round) with enough
free capacity; pass two tries to widen an LSP by borrowing headroom left on its physical
links. Flows that fit nowhere stay on their old LSP and are reported so the caller can
ask for new LSP paths. A round keeps link loads in a list by topology position, and reads
each LSP's link positions and each link's headroom from the plan's `ffr_tables`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .lsp import LspPlan
from .topology import NetworkTopology


@dataclass(frozen=True, eq=False)
class FfrResult:
    assignment: dict[int, int]
    recreation_requests: tuple[int, ...]
    augmentations: dict = field(default_factory=dict)
    examinations: int = 0

    @property
    def placed(self) -> frozenset:
        """The flows this round placed: every flow but the parked ones."""
        return frozenset(self.assignment).difference(self.recreation_requests)


def ffr(flows, lsps, fr_old: dict[int, int], topo: NetworkTopology,
        mu: float = 0.9) -> FfrResult:
    """One greedy re-routing round over the plan `lsps`; a plain sequence is made a
    plan checked against `topo` first. Never raises on congestion, it reports it."""
    plan = LspPlan(lsps, topo)  # first, as where the caller built the plan
    if not 0 < mu <= 1:
        raise ValidationError("mu must lie in (0, 1]")
    plan.check_flows(flows, fr_old)
    positions, head = plan.ffr_tables(mu)
    by_id, admissible = plan.by_id, plan.admissible
    free = {l.id: l.capacity for l in plan}
    load = [0.0] * len(head)  # the rates placed on each link this round, by position
    assignment: dict[int, int] = {}
    augmentations: dict[int, float] = {}
    requests: list[int] = []
    exams = len(plan) * len(flows)  # every flow against the whole plan: the cost model

    for fid, src, dst, rate, max_delay in sorted(flows, key=lambda f: (-f.rate, f.id)):
        old = by_id[fr_old[fid]]  # tried first, then the roomiest
        chosen = None
        if (old.src == src and old.dst == dst and old.prop_delay <= max_delay
                and free[old.id] >= rate):
            proper, chosen = (), old  # it fits at once: no candidates to list and sort
            exams += 1
        else:
            proper = sorted(admissible(src, dst, max_delay),
                            key=lambda l: (l.id != old.id, -free[l.id], l.id))
        for l in proper:
            exams += 1
            if free[l.id] >= rate:
                chosen = l
                break
        if chosen is None:
            for l in proper:
                exams += 1 + len(l.links)
                # Widen the LSP by the headroom left on its most loaded link.
                residual = min([head[k] - load[k] for k in positions[l.id]])
                if free[l.id] + residual >= rate:
                    grant = rate - free[l.id]
                    free[l.id] += grant
                    augmentations[l.id] = augmentations.get(l.id, 0.0) + grant
                    chosen = l
                    break
        if chosen is None:
            # Congestion stays where it was: the flow keeps its old LSP and
            # the caller is told to request fresh paths.
            requests.append(fid)
            chosen = old
        assignment[fid] = chosen.id
        free[chosen.id] -= rate
        for k in positions[chosen.id]:
            load[k] += rate

    return FfrResult(
        assignment=assignment,
        recreation_requests=tuple(sorted(requests)),
        augmentations=augmentations,
        examinations=exams,
    )
