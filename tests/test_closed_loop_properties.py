"""Seeded property tests of closed-loop invariants, under every policy.

Each trace is replayed from its events alone: the waits, the departure
groups and the arrivals. The replay recomputes what the trace reports,
so these checks do not lean on the simulator's own bookkeeping.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_corridor
from hubplatoon.feedback import POLICY_KINDS, PolicySpec, run_closed_loop
from hubplatoon.game import Scenario
from hubplatoon.stochastic import (ScenarioDistribution,
                                   degenerate_distribution, sample_scenario)

CASES = 30


def uncertain_instance(rng):
    """A game, a prior with uncertain profiles and starts, and a truth
    drawn from that prior."""
    game = random_corridor(rng, n_profiles=3)
    edge_profiles = {}
    for eid in sorted(game.net.edges):
        pids = rng.sample(range(3), rng.randint(1, 3))
        edge_profiles[eid] = tuple((pid, Fraction(1, len(pids))) for pid in pids)
    start_steps = {}
    for vid in game.vehicle_ids:
        first = game.fleet[vid].start_step
        steps = range(first, first + rng.randint(1, 3))
        start_steps[vid] = tuple((t, Fraction(1, len(steps))) for t in steps)
    dist = ScenarioDistribution(edge_profiles=edge_profiles, start_steps=start_steps)
    return game, dist, sample_scenario(dist, rng)


def replay(game, trace):
    """Per vehicle: waits, utility and route progress, from the events."""
    waits = {vid: 0 for vid in game.vehicle_ids}
    groups: dict[tuple[int, int], list[int]] = {}
    departed = {vid: [] for vid in game.vehicle_ids}
    arrived = {vid: [] for vid in game.vehicle_ids}
    finished = {}
    for e in trace.events:
        if e.kind == "wait":
            waits[e.data["vehicle"]] += 1
        elif e.kind == "depart":
            groups.setdefault((e.data["edge"], e.t), []).append(e.data["vehicle"])
            departed[e.data["vehicle"]].append(e.data["edge"])
        elif e.kind == "arrive":
            arrived[e.data["vehicle"]].append(e.data["node"])
        elif e.kind == "finish":
            finished[e.data["vehicle"]] = e.t
    rewards = {vid: 0 for vid in game.vehicle_ids}
    for (eid, _t), members in groups.items():
        per_member = game.reward_model.reward(len(members), game.net.edges[eid])
        for vid in members:
            rewards[vid] += per_member
    utility = {vid: rewards[vid] - game.cost_model.step_cost_centi * waits[vid]
               for vid in game.vehicle_ids}
    platoons = {(eid, t, tuple(sorted(members)))
                for (eid, t), members in groups.items() if len(members) >= 2}
    return waits, utility, platoons, departed, arrived, finished


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_closed_loop_invariants(kind):
    rng = random.Random(8080)
    for case in range(CASES):
        game, dist, truth = uncertain_instance(rng)
        trace = run_closed_loop(game, dist, truth, PolicySpec(kind=kind), seed=case)
        waits, utility, platoons, departed, arrived, finished = replay(game, trace)
        where = f"case {case}, {kind}"
        for vid in game.vehicle_ids:
            route = game.fleet[vid].edge_sequence
            assert waits[vid] <= game.fleet[vid].waiting_budget_steps, where
            assert trace.waited_steps[vid] == waits[vid], where
            if kind == "sp":
                assert waits[vid] == 0, where
            # every vehicle drives its whole route and finishes
            assert departed[vid] == list(route), where
            assert arrived[vid] == list(range(1, len(route) + 1)), where
            assert vid in finished and trace.finish_steps[vid] == finished[vid], where
            assert trace.utility_centi[vid] == utility[vid], where
        assert trace.platoon_events() == platoons, where


def test_feedback_collapses_to_ktt_under_a_point_mass():
    # with nothing uncertain and a horizon over the whole route, a decision
    # instance solves the remaining game of the clairvoyant plan
    rng = random.Random(9090)
    for case in range(CASES):
        game = random_corridor(rng, max_vehicles=5)
        truth = Scenario(
            profile_assignment={eid: rng.randrange(2) for eid in game.net.edges},
            start_steps={vid: rng.randint(0, 4) for vid in game.vehicle_ids})
        dist = degenerate_distribution(truth)
        horizon = max(len(v.edge_sequence) for v in game.fleet.values())
        traces = {kind: run_closed_loop(game, dist, truth,
                                        PolicySpec(kind=kind, horizon=horizon),
                                        seed=case)
                  for kind in ("ktt", "drhs", "srhs")}
        for kind in ("drhs", "srhs"):
            assert traces[kind].platoon_events() == traces["ktt"].platoon_events(), \
                f"case {case}, {kind}"
            assert traces[kind].utility_centi == traces["ktt"].utility_centi
            assert traces[kind].waited_steps == traces["ktt"].waited_steps
