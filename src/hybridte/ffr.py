"""Fast flow re-routing: a greedy two-pass stand-in for the exact solver.

Flows are visited largest first. Pass one keeps or moves a flow onto an admissible LSP
of the run's plan (`lsp.LspPlan`, grouped and checked once, not per round) with enough
free capacity; pass two tries to widen an LSP by borrowing headroom left on its physical
links. Flows that fit nowhere stay on their old LSP and are reported so the caller can
ask for new LSP paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .lsp import Lsp, LspPlan
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
    free = {l.id: l.capacity for l in plan}
    link_load: dict[tuple[int, int], float] = {}
    assignment: dict[int, int] = {}
    augmentations: dict[int, float] = {}
    requests: list[int] = []
    exams = 0

    def occupy(lsp: Lsp, rate: float):
        free[lsp.id] -= rate
        for pair in lsp.links:
            link_load[pair] = link_load.get(pair, 0.0) + rate

    for f in sorted(flows, key=lambda f: (-f.rate, f.id)):
        exams += len(plan)
        old = plan.by_id[fr_old[f.id]]  # tried first, then the roomiest
        chosen = None
        if ((old.src, old.dst) == (f.src, f.dst) and old.prop_delay <= f.max_delay
                and free[old.id] >= f.rate):
            proper, chosen = (), old  # it fits at once: no candidates to list and sort
            exams += 1
        else:
            proper = sorted(plan.admissible(f.src, f.dst, f.max_delay),
                            key=lambda l: (l.id != old.id, -free[l.id], l.id))
        for l in proper:
            exams += 1
            if free[l.id] >= f.rate:
                chosen = l
                break
        if chosen is None:
            for l in proper:
                exams += 1 + len(l.links)
                # Widen the LSP by the headroom left on its most loaded link.
                residual = min(mu * topo.by_pair[pair].bandwidth - link_load.get(pair, 0.0)
                               for pair in l.links)
                if free[l.id] + residual >= f.rate:
                    grant = f.rate - free[l.id]
                    free[l.id] += grant
                    augmentations[l.id] = augmentations.get(l.id, 0.0) + grant
                    chosen = l
                    break
        if chosen is not None:
            occupy(chosen, f.rate)
            assignment[f.id] = chosen.id
        else:
            # Congestion stays where it was: the flow keeps its old LSP and
            # the caller is told to request fresh paths.
            requests.append(f.id)
            assignment[f.id] = old.id
            occupy(old, f.rate)

    return FfrResult(
        assignment=assignment,
        recreation_requests=tuple(sorted(requests)),
        augmentations=augmentations,
        examinations=exams,
    )
