import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # tests/oracles.py

from hubplatoon.game import (CoordinationGame, RewardModel, VehicleSpec,
                             WaitingCostModel)
from hubplatoon.network import DelayProfile, Edge, Hub, RoadNetwork


def make_net(edge_rows, profiles=None, hubs=None, step_minutes=5):
    """edge_rows: (id, tail, head, km, base_steps, profile_ids).

    profiles: {pid: {(eid, t): extra}}. Hubs are inferred unless given as
    {hid: weight}.
    """
    hub_ids = set()
    edges = {}
    for row in edge_rows:
        eid, tail, head, km, base = row[:5]
        pids = tuple(row[5]) if len(row) > 5 else ()
        edges[eid] = Edge(id=eid, tail=tail, head=head, length_km=float(km),
                          base_travel_steps=base, delay_profile_ids=pids)
        hub_ids.update((tail, head))
    if hubs is None:
        hubs = {h: 1.0 for h in hub_ids}
    hub_map = {h: Hub(id=h, name=f"H{h}", population_weight=w, lat=0.0, lon=0.0)
               for h, w in hubs.items()}
    prof_map = {pid: delay_profile(pid, table) for pid, table in (profiles or {}).items()}
    return RoadNetwork(hubs=hub_map, edges=edges, delay_profiles=prof_map,
                       time_step_minutes=step_minutes)


def delay_profile(pid, table):
    """The DelayProfile of ``table``, {(edge id, entry step): extra steps}."""
    return DelayProfile(pid, *zip(*((eid, t, delta) for (eid, t), delta in table.items())))


def delay_map(prof):
    """A DelayProfile's columns as {(edge id, entry step): extra steps}."""
    return dict(zip(zip(prof.edges, prof.steps), prof.deltas))


def make_game(net, vehicle_rows, km_rate=170, step_cost=2200):
    """vehicle_rows: (id, edge_sequence, start, budget)."""
    fleet = [VehicleSpec(id=vid, edge_sequence=tuple(seq), start_step=start,
                         waiting_budget_steps=budget)
             for vid, seq, start, budget in vehicle_rows]
    return CoordinationGame(net, fleet, RewardModel(km_rate_centi=km_rate),
                            WaitingCostModel(step_cost_centi=step_cost))


@pytest.fixture
def line_net():
    """Three 100 km edges in a row (0-1-2-3), free flow 3 steps each."""
    return make_net([(0, 0, 1, 100, 3), (1, 1, 2, 100, 3), (2, 2, 3, 100, 3)])


@pytest.fixture
def delay_net():
    """One 100 km edge with two profiles: flat zero and a 2-step bump at t>=2."""
    profiles = {0: {}, 1: {(0, 2): 2, (0, 3): 2, (0, 4): 2, (0, 5): 2}}
    return make_net([(0, 0, 1, 100, 3, (0, 1))], profiles=profiles)


def random_corridor(rng, n_profiles=2, max_budget=3, max_vehicles=4):
    """A seeded small instance: a line of up to 5 hubs with edges both
    ways, ``n_profiles`` short delay profiles admissible everywhere, and
    2 to ``max_vehicles`` trucks on random sub-routes."""
    n_hubs = rng.randint(2, 5)
    profiles = {pid: {(eid, t): rng.randint(0, 2)
                      for eid in range(2 * (n_hubs - 1)) for t in range(16)
                      if rng.random() < 0.3}
                for pid in range(n_profiles)}
    rows = []
    for k in range(n_hubs - 1):
        km = rng.choice((50, 100, 150))
        base = rng.randint(1, 3)
        rows.append((2 * k, k, k + 1, km, base, tuple(range(n_profiles))))
        rows.append((2 * k + 1, k + 1, k, km, base, tuple(range(n_profiles))))
    vrows = []
    for vid in range(rng.randint(2, max_vehicles)):
        a = rng.randrange(n_hubs - 1)
        b = rng.randrange(a, n_hubs - 1)
        if rng.random() < 0.5:
            seq = tuple(2 * k for k in range(a, b + 1))
        else:
            seq = tuple(2 * k + 1 for k in range(b, a - 1, -1))
        vrows.append((vid, seq, rng.randint(0, 3), rng.randint(0, max_budget)))
    return make_game(make_net(rows, profiles=profiles), vrows)


def reference_inputs(game, scenario):
    """One scenario of ``game`` as the plain inputs of ``tests/oracles.py``.

    Returns ``vehicles`` (vid -> (start step, route)), ``travel(eid, t)``
    read straight off the profiles' raw columns, and ``lengths`` (edge
    id -> km). Nothing here goes through the package's travel model.
    """
    edges = game.net.edges
    tables = {pid: delay_map(prof) for pid, prof in game.net.delay_profiles.items()}
    vehicles = {vid: (scenario.start_steps.get(vid, v.start_step), v.edge_sequence)
                for vid, v in game.fleet.items()}

    def travel(eid, t):
        pid = scenario.profile_assignment.get(eid)
        extra = 0 if pid is None else tables[pid].get((eid, t), 0)
        return edges[eid].base_travel_steps + extra

    lengths = {eid: e.length_km for eid, e in edges.items()}
    return vehicles, travel, lengths
