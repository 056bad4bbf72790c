import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hybridte as ht
from hybridte import orchestrator
from hybridte.errors import ValidationError
from hybridte.lsp import LspPlan
from hybridte.orchestrator import initial_assignment

import oracles
from test_orchestrator import CONTESTED_PLANS, contested_plan_config, parse_events
from test_recreation import ring14


@pytest.fixture
def topo():
    return ht.reference_topology()


def parallel_lsps(topo, cap0=10.0, cap1=10.0):
    return (ht.build_lsp(topo, [0, 4, 1], cap0, 0), ht.build_lsp(topo, [0, 5, 1], cap1, 1))


def test_find_proper_lsps_filters_and_sorts(topo):
    lsps = (ht.build_lsp(topo, [0, 4, 1], 5.0, 0),
            ht.build_lsp(topo, [0, 5, 1], 9.0, 1),
            ht.build_lsp(topo, [0, 4, 6, 3, 7, 5, 1], 9.0, 2),  # too slow
            ht.build_lsp(topo, [2, 6, 3], 9.0, 3))              # wrong endpoints
    flow = ht.Flow(0, 0, 1, 2.0, 3.0)
    proper = oracles.find_proper_lsps(flow, lsps, {l.id: l.capacity for l in lsps})
    assert [l.id for l in proper] == [1, 0]
    free = {0: 9.0, 1: 1.0, 2: 0.0, 3: 0.0}
    assert [l.id for l in oracles.find_proper_lsps(flow, lsps, free)] == [0, 1]


def test_check_congestion_arithmetic(topo):
    lsp = ht.build_lsp(topo, [0, 4, 1], 10.0, 0)
    flow = ht.Flow(0, 0, 1, 6.0, 9.0)
    # free 5, zero residual headroom: does not fit
    load = {(0, 4): 90.0, (4, 1): 90.0}
    assert not oracles.check_congestion(lsp, flow, topo, load, mu=0.9, free=5.0)
    # free 5, residual 0.5 on the tightest link: still short of 6
    load = {(0, 4): 89.5, (4, 1): 50.0}
    assert not oracles.check_congestion(lsp, flow, topo, load, mu=0.9, free=5.0)
    # free 5, residual exactly 1: free + residual meets the rate
    load = {(0, 4): 89.0, (4, 1): 50.0}
    assert oracles.check_congestion(lsp, flow, topo, load, mu=0.9, free=5.0)
    # unloaded links default to zero load
    assert oracles.check_congestion(lsp, flow, topo, {}, mu=0.9, free=0.0)


def test_unchanged_when_everything_still_fits(topo):
    lsps = parallel_lsps(topo)
    flows = (ht.Flow(0, 0, 1, 4.0, 4.0), ht.Flow(1, 0, 1, 5.0, 4.0),
             ht.Flow(2, 0, 1, 3.0, 4.0))
    old = {0: 0, 1: 1, 2: 0}
    res = ht.ffr(flows, lsps, old, topo)
    assert res.assignment == old
    assert res.recreation_requests == ()
    assert res.augmentations == {}
    assert res.placed == {0, 1, 2}


def test_overflowing_flow_moves_to_roomier_lsp(topo):
    lsps = parallel_lsps(topo)
    flows = (ht.Flow(0, 0, 1, 6.0, 4.0), ht.Flow(1, 0, 1, 6.0, 4.0))
    res = ht.ffr(flows, lsps, {0: 0, 1: 0}, topo)
    assert res.assignment == {0: 0, 1: 1}
    assert res.recreation_requests == ()


def test_augmentation_borrows_link_headroom(topo):
    # both flows outgrow LSP 0, and LSP 1 is too small, but the physical
    # links under LSP 0 still have headroom to widen it
    lsps = parallel_lsps(topo, cap0=10.0, cap1=1.0)
    flows = (ht.Flow(0, 0, 1, 6.0, 4.0), ht.Flow(1, 0, 1, 6.0, 4.0))
    res = ht.ffr(flows, lsps, {0: 0, 1: 0}, topo)
    assert res.assignment == {0: 0, 1: 0}
    assert res.recreation_requests == ()
    assert res.augmentations == {0: pytest.approx(2.0)}
    # audit with the widened capacity
    caps = {0: 12.0, 1: 1.0}
    assert ht.audit_flow_assignment(flows, lsps, res.assignment, capacities=caps) == []


def test_congestion_parks_flow_and_requests_recreation(topo):
    lsps = (ht.build_lsp(topo, [0, 4, 1], 5.0, 0),)
    flows = (ht.Flow(0, 0, 1, 4.0, 4.0), ht.Flow(1, 0, 1, 4.0, 4.0))
    # bandwidth is large, so shrink headroom to force a parked flow
    res = ht.ffr(flows, lsps, {0: 0, 1: 0}, topo, mu=0.05)
    assert res.recreation_requests == (1,)
    assert res.placed == {0}
    # the parked flow stays on its old LSP
    assert res.assignment == {0: 0, 1: 0}


def test_examinations_grow_with_candidate_work(topo):
    lsps = parallel_lsps(topo)
    small = ht.ffr((ht.Flow(0, 0, 1, 1.0, 4.0),), lsps, {0: 0}, topo)
    big_flows = tuple(ht.Flow(i, 0, 1, 1.0, 4.0) for i in range(8))
    big = ht.ffr(big_flows, lsps, {i: 0 for i in range(8)}, topo)
    assert big.examinations > small.examinations


def test_placed_flows_always_satisfy_constraints():
    rng = np.random.default_rng(59)
    for _ in range(60):
        topo_r, flows, lsps, fr_old, _, _ = oracles.random_rerouting_instance(rng)
        res = ht.ffr(flows, lsps, fr_old, topo_r)
        caps = {l.id: l.capacity + res.augmentations.get(l.id, 0.0) for l in lsps}
        placed = [f for f in flows if f.id in res.placed]
        assert ht.audit_flow_assignment(placed, lsps, res.assignment,
                                        capacities=caps) == []
        assert set(res.recreation_requests) == {f.id for f in flows} - res.placed


@pytest.mark.parametrize("message", ["duplicate LSP ids",
                                     "flow 1 missing from the old assignment",
                                     "flow 1 rides an unknown LSP",
                                     "LSP 0 uses nonexistent link (0, 99)",
                                     "duplicate flow ids"])
def test_bad_inputs_are_rejected(topo, message):
    lsps = parallel_lsps(topo)
    flows = (ht.Flow(0, 0, 1, 4.0, 4.0), ht.Flow(1, 0, 1, 5.0, 4.0))
    flows, lsps, old = {
        "duplicate LSP ids": (flows, lsps + lsps[:1], {0: 0, 1: 1}),
        "flow 1 missing from the old assignment": (flows, lsps, {0: 0}),
        "flow 1 rides an unknown LSP": (flows, lsps, {0: 0, 1: 7}),
        # a hand-made LSP over a link the topology lacks
        "LSP 0 uses nonexistent link (0, 99)":
            (flows, (ht.Lsp(0, 0, 1, ((0, 99),), 1.0, 1.0), lsps[1]), {0: 0, 1: 1}),
        # both would share one assignment entry and count as placed
        "duplicate flow ids": ((flows[0], flows[1]._replace(id=0)), lsps, {0: 0})}[message]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ht.ffr(flows, lsps, old, topo)


@pytest.mark.parametrize("mu", [math.nan, 0.0, -1.0, 5.0])
def test_headroom_outside_the_unit_interval_is_rejected(topo, mu):
    # mu = 5 would widen LSP 0 by borrowing five times a link's bandwidth; the
    # others would park every flow.
    flows = (ht.Flow(0, 0, 1, 4.0, 4.0), ht.Flow(1, 0, 1, 9.0, 4.0))
    with pytest.raises(ValidationError, match=r"^mu must lie in \(0, 1\]$"):
        ht.ffr(flows, parallel_lsps(topo, cap0=6.0), {0: 0, 1: 0}, topo, mu=mu)


def test_larger_flows_take_priority(topo):
    # the big flow claims the old LSP, the small one is displaced
    lsps = parallel_lsps(topo, cap0=6.0, cap1=6.0)
    flows = (ht.Flow(0, 0, 1, 2.0, 4.0), ht.Flow(1, 0, 1, 6.0, 4.0))
    res = ht.ffr(flows, lsps, {0: 0, 1: 0}, topo)
    assert res.assignment == {0: 1, 1: 0}


def shuffled_instances():
    """Instances whose LSP ids are shuffled and whose endpoint pairs interleave
    in the LSP list: random multi-pair instances listed in random order, and
    auto plans on the reference topology and the 14-node ring, with 2 paths per
    pair as shipped and with 3 and 4, so that a flow has several others to sort."""
    rng = np.random.default_rng(83)
    for _ in range(150):
        topo, flows, lsps, fr_old, _ = oracles.random_multipair_rerouting_instance(
            rng, max_flows=6, max_lsps=4)
        yield topo, flows, tuple(lsps[int(i)] for i in rng.permutation(len(lsps))), fr_old
    for paths, times in ((2, 8), (3, 2), (4, 2)):
        for topo in (ht.reference_topology(), ring14()) * times:
            yield (topo, *oracles.shuffled_plan_instance(rng, topo, paths_per_pair=paths))


def test_ffr_matches_the_full_scan():
    seen = Counter()
    for i, (topo, flows, lsps, fr_old) in enumerate(shuffled_instances()):
        if i % 2:  # a tighter bound on some flows, which then fit fewer LSPs or none
            flows = tuple(f._replace(max_delay=f.max_delay * 0.5) if f.id % 7 == 3 else f
                          for f in flows)
        res = ht.ffr(flows, lsps, fr_old, topo)
        ref = oracles.full_scan_ffr(flows, lsps, fr_old, topo)
        assert res.assignment == ref.assignment
        assert list(res.assignment) == list(ref.assignment)
        assert res.examinations == ref.examinations
        assert res.recreation_requests == ref.recreation_requests
        assert res.augmentations == ref.augmentations
        assert res.placed == ref.placed
        seen.update(moved=res.assignment != fr_old, widened=bool(res.augmentations),
                    parked=bool(res.recreation_requests))
    assert min(seen.values()) > 0


def ffr_outcome(res):
    """Everything a round answers, in insertion order."""
    return (list(res.assignment.items()), list(res.augmentations.items()),
            res.recreation_requests, res.examinations)


def test_one_plan_answers_each_headroom_as_the_full_scan():
    # A plan keeps ffr's headroom table per mu. Each plan is asked under three headrooms,
    # in both orders, so a table kept for the first mu and read under another would widen
    # by the wrong residual.
    differ = 0
    for topo, flows, lsps, fr_old in shuffled_instances():
        expect = {mu: ffr_outcome(oracles.full_scan_ffr(flows, lsps, fr_old, topo, mu))
                  for mu in (0.5, 0.9, 1.0)}
        for order in ((0.5, 0.9, 1.0), (1.0, 0.9, 0.5)):
            plan = LspPlan(lsps, topo)
            for mu in order:
                assert ffr_outcome(ht.ffr(flows, plan, fr_old, topo, mu)) == expect[mu]
        differ += len({repr(outcome) for outcome in expect.values()}) > 1
    assert differ > 10


def test_ffr_tables_are_built_once_per_plan_and_headroom(tmp_path, monkeypatch):
    # At headroom 0.5 the "moving" plan's ffr rounds park flows, and one re-creation moves
    # a route: the run reads the set-up's plan and a rebuilt one, each building its tables
    # once for all its rounds. Every round matches the full scan.
    calls, tables, greedy = [], LspPlan.ffr_tables, orchestrator.ffr
    monkeypatch.setattr(LspPlan, "ffr_tables", lambda plan, mu:
                        calls.append((plan, mu, tables(plan, mu))) or calls[-1][2])

    def checked(flows, lsps, fr_old, topo, mu):
        res = greedy(flows, lsps, fr_old, topo, mu=mu)
        assert ffr_outcome(res) == ffr_outcome(oracles.full_scan_ffr(flows, lsps, fr_old,
                                                                     topo, mu))
        return res

    monkeypatch.setattr(orchestrator, "ffr", checked)
    cfg = contested_plan_config(tmp_path, CONTESTED_PLANS["moving"], "ffr")
    cfg = dataclasses.replace(cfg, mu_headroom=0.5, seed=2, dump_dir=None)
    events = parse_events(ht.run_scenario(cfg).events)
    assert [e["event"] for e in events if e["event"].startswith("reroute_retry")] == [
        "reroute_retry"]
    plans = []
    for plan, _, _ in calls:
        if all(plan is not p for p in plans):
            plans.append(plan)
    assert len(plans) == 2 and plans[0] != plans[1] and len(calls) > 2
    for plan in plans:
        kept = [t for p, _, t in calls if p is plan]
        assert all(t is kept[0] for t in kept)
        links, head = kept[0]
        assert links == {l.id: [plan.topology.position[pair] for pair in l.links] for l in plan}
        assert head == [0.5 * ln.bandwidth for ln in plan.topology.links]
    # Per plan: the link positions once, the headroom once per mu.
    plan, topo = plans[1], plans[1].topology
    assert plan.ffr_tables(0.9)[0] is plan.ffr_tables(0.5)[0]
    assert plan.ffr_tables(0.9) is plan.ffr_tables(0.9) and plan.ffr_tables(0.9)[1] != head
    # A plain tuple of LSPs is made a new plan, with its own tables, on every call.
    flows = tuple(ht.Flow(i, 0, 1, 2.5, 9.0) for i in range(4))
    fr_old = {f.id: plan[0].id for f in flows}
    del calls[:]
    for _ in range(2):
        assert ffr_outcome(ht.ffr(flows, tuple(plan), fr_old, topo, 0.5)) == ffr_outcome(
            oracles.full_scan_ffr(flows, tuple(plan), fr_old, topo, 0.5))
    assert len(calls) == 2 and calls[0][0] is not calls[1][0]
    assert calls[0][2] is not calls[1][2] and calls[0][2] == calls[1][2]


def test_initial_assignment_matches_the_full_scan():
    unplaced = placed = 0
    for i, (_, flows, lsps, _) in enumerate(shuffled_instances()):
        if i % 2:  # a tighter bound on some flows, which then may fit no LSP
            flows = tuple(f._replace(max_delay=f.max_delay * 0.3) if f.id % 7 == 3 else f
                          for f in flows)
        ref = oracles.full_scan_initial_assignment(flows, lsps)
        if isinstance(ref, str):
            unplaced += 1
            with pytest.raises(ht.ConfigError, match=f"^{re.escape(ref)}$"):
                initial_assignment(flows, lsps)
        else:
            got = initial_assignment(flows, lsps)
            assert got == ref and list(got) == list(ref)
            placed += 1
    assert unplaced and placed


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["multipair", "ref8", "ring14"]),
       paths=st.integers(2, 4), tighten=st.floats(0.3, 1.0),
       mu=st.floats(0.3, 1.0, exclude_min=True))
def test_a_round_from_its_own_answer_repeats_it(seed, kind, paths, tighten, mu):
    # The orchestrator runs no retry after a re-creation that kept the plan, because a
    # round started from the last round's answer gives that answer again: every flow
    # meets its old LSP first under the same free capacities and link loads. Some delay
    # bounds are tightened, so some old LSPs are no longer admissible.
    rng = np.random.default_rng(seed)
    if kind == "multipair":
        topo, flows, lsps, fr_old, _ = oracles.random_multipair_rerouting_instance(
            rng, max_flows=6, max_lsps=paths)
    else:
        topo = ht.reference_topology() if kind == "ref8" else ring14()
        flows, lsps, fr_old = oracles.shuffled_plan_instance(rng, topo, paths_per_pair=paths)
    flows = tuple(f._replace(max_delay=f.max_delay * tighten) if rng.random() < 0.3 else f
                  for f in flows)
    first = ht.ffr(flows, lsps, fr_old, topo, mu)
    assert ffr_outcome(first) == ffr_outcome(oracles.full_scan_ffr(flows, lsps, fr_old, topo, mu))
    again = ht.ffr(flows, lsps, first.assignment, topo, mu)
    assert list(again.assignment.items()) == list(first.assignment.items())
    assert again.recreation_requests == first.recreation_requests
    assert list(again.augmentations.items()) == list(first.augmentations.items())
    assert again.placed == first.placed


def test_an_old_lsp_of_another_pair_is_not_kept(topo):
    # The old LSP fits the flow but joins other endpoints, so the flow moves to the
    # roomiest LSP of its own pair, as the full scan moves it.
    lsps = parallel_lsps(topo, cap0=6.0) + (ht.build_lsp(topo, [2, 6, 3], 9.0, 2),)
    flows = (ht.Flow(0, 0, 1, 2.0, 4.0),)
    res = ht.ffr(flows, lsps, {0: 2}, topo)
    assert res.assignment == {0: 1} and res.placed == {0}
    assert res.examinations == oracles.full_scan_ffr(flows, lsps, {0: 2}, topo).examinations
