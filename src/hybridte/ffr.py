"""Fast flow re-routing: a greedy two-pass stand-in for the exact solver.

Flows are visited largest first. Pass one keeps or moves a flow onto an
admissible LSP with enough free capacity; pass two tries to widen an LSP by
borrowing headroom left on its physical links. Flows that fit nowhere stay
on their old LSP and are reported so the caller can ask for new LSP paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .lsp import Lsp, lsps_by_pair
from .topology import NetworkTopology
from .traffic import Flow


@dataclass(frozen=True, eq=False)
class FfrResult:
    assignment: dict[int, int]
    recreation_requests: tuple[int, ...]
    augmentations: dict = field(default_factory=dict)
    examinations: int = 0
    placed: frozenset = frozenset()


def find_proper_lsps(flow: Flow, lsps, free: dict[int, float]) -> list[Lsp]:
    """Admissible LSPs for the flow (endpoints and delay bound), sorted by
    free capacity descending so the roomiest candidate is tried first."""
    proper = [
        l for l in lsps
        if l.src == flow.src and l.dst == flow.dst and l.prop_delay <= flow.max_delay
    ]
    proper.sort(key=lambda l: (-free[l.id], l.id))
    return proper


def check_congestion(lsp: Lsp, flow: Flow, topo: NetworkTopology,
                     load: dict[tuple[int, int], float], mu: float, free: float) -> bool:
    """True when the flow fits after widening the LSP with the headroom left
    on its most loaded link; `load` is the offered rate per directed link."""
    residual = min(mu * topo.by_pair[pair].bandwidth - load.get(pair, 0.0) for pair in lsp.links)
    return free + residual >= flow.rate


def ffr(flows, lsps, fr_old: dict[int, int], topo: NetworkTopology,
        mu: float = 0.9) -> FfrResult:
    """One greedy re-routing round; never raises on congestion, it reports it."""
    if not 0 < mu <= 1:
        raise ValidationError("mu must lie in (0, 1]")
    by_id = {l.id: l for l in lsps}
    if len(by_id) != len(lsps):
        raise ValidationError("duplicate LSP ids")
    for f in flows:
        if f.id not in fr_old:
            raise ValidationError(f"flow {f.id} missing from the old assignment")
        if fr_old[f.id] not in by_id:
            raise ValidationError(f"flow {f.id} rides an unknown LSP")
    missing = [(l.id, pair) for l in lsps for pair in l.links if pair not in topo.by_pair]
    if missing:
        raise ValidationError("LSP {} uses nonexistent link {}".format(*missing[0]))
    pair_lsps = lsps_by_pair(lsps)
    free = {l.id: l.capacity for l in lsps}
    link_load: dict[tuple[int, int], float] = {}
    assignment: dict[int, int] = {}
    augmentations: dict[int, float] = {}
    requests: list[int] = []
    placed: set[int] = set()
    exams = 0

    def occupy(lsp: Lsp, rate: float):
        free[lsp.id] -= rate
        for pair in lsp.links:
            link_load[pair] = link_load.get(pair, 0.0) + rate

    for f in sorted(flows, key=lambda f: (-f.rate, f.id)):
        exams += len(lsps)
        proper = find_proper_lsps(f, pair_lsps.get((f.src, f.dst), ()), free)
        old_id = fr_old[f.id]
        proper.sort(key=lambda l: l.id != old_id)
        chosen = None
        for l in proper:
            exams += 1
            if free[l.id] >= f.rate:
                chosen = l
                break
        if chosen is None:
            for l in proper:
                exams += 1 + len(l.links)
                if check_congestion(l, f, topo, link_load, mu, free[l.id]):
                    grant = f.rate - free[l.id]
                    free[l.id] += grant
                    augmentations[l.id] = augmentations.get(l.id, 0.0) + grant
                    chosen = l
                    break
        if chosen is not None:
            occupy(chosen, f.rate)
            assignment[f.id] = chosen.id
            placed.add(f.id)
        else:
            # Congestion stays where it was: the flow keeps its old LSP and
            # the caller is told to request fresh paths.
            requests.append(f.id)
            assignment[f.id] = old_id
            occupy(by_id[old_id], f.rate)

    return FfrResult(
        assignment=assignment,
        recreation_requests=tuple(sorted(requests)),
        augmentations=augmentations,
        examinations=exams,
        placed=frozenset(placed),
    )
