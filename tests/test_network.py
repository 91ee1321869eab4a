import json
import math
import random

import numpy as np
import pytest

from conftest import delay_map, make_game, make_net
from hubplatoon.errors import FormatError, InputError
from hubplatoon.game import Scenario
from hubplatoon.network import (UNREACHABLE, DelayProfile, Edge, Hub,
                                RoadNetwork, load_network, network_from_dict,
                                network_to_dict, replace_profiles,
                                save_network, shortest_path, shortest_path_km,
                                validate_network)
from hubplatoon.experiments import ExperimentConfig, prepare_network
from hubplatoon.solver import profile_row, scenario_travel
from oracles import ref_travel_matrix


def travel_of(net, assignment):
    """The travel model of one scenario on a one-truck game over edge 0."""
    game = make_game(net, [(0, (0,), 0, 0)])
    return scenario_travel(game, Scenario(profile_assignment=assignment, start_steps={}))


def test_travel_time_adds_profile_delay():
    net = make_net([(0, 0, 1, 100, 3, (1,))],
                   profiles={1: {(0, 2): 2}})
    travel = travel_of(net, {0: 1})
    # base 3, delay 2 at entry step 2 only
    assert travel(0, 2) == 5
    assert travel(0, 1) == 3
    assert travel(0, 3) == 3
    # edge absent from the assignment: free flow
    assert travel_of(net, {})(0, 2) == 3


def test_travel_time_rejects_inadmissible_profile():
    net = make_net([(0, 0, 1, 100, 3, (1,))], profiles={1: {}, 2: {}})
    with pytest.raises(InputError, match="profile 2 is not admissible on edge 0"):
        travel_of(net, {0: 2})


def test_travel_time_allows_any_profile_when_edge_lists_none():
    net = make_net([(0, 0, 1, 100, 3)], profiles={7: {(0, 1): 4}})
    assert travel_of(net, {0: 7})(0, 1) == 7


def test_validate_clean_network(line_net):
    assert validate_network(line_net) == []


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["edges"][0].update(tail=99), "not a hub"),
    (lambda d: d["edges"][0].update(head=99), "not a hub"),
    (lambda d: d["edges"][0].update(tail=1, head=1), "self-loop"),
    (lambda d: d["edges"][0].update(length_km=0.0), "length_km"),
    (lambda d: d["edges"][0].update(length_km=-5.0), "length_km"),
    (lambda d: d["edges"][0].update(base_travel_steps=0), "base_travel_steps"),
    (lambda d: d["edges"][0].update(delay_profile_ids=[9]), "unknown delay profile"),
    (lambda d: d["hubs"][0].update(population_weight=-1.0), "negative population_weight"),
    (lambda d: d.update(time_step_minutes=0), "time_step_minutes"),
    (lambda d: d.update(delay_profiles=[{"id": 0, "entries": []}, {"id": 1, "entries": []}])
     or d["edges"][0].update(delay_profile_ids=[0, 1, 0]), "edge 0 lists delay profile 0 twice"),
])
def test_validate_catches_each_violation(mutate, fragment):
    doc = network_to_dict(make_net([(0, 0, 1, 100, 3)]))
    mutate(doc)
    net = network_from_dict(doc)
    problems = validate_network(net)
    assert problems, f"expected a violation mentioning {fragment!r}"
    assert any(fragment in p for p in problems)


def test_validate_catches_key_id_mismatch_and_bad_profile_entries():
    net = make_net([(0, 0, 1, 100, 3)])
    hacked = RoadNetwork(hubs=dict(net.hubs),
                         edges={5: net.edges[0]},
                         delay_profiles={3: DelayProfile(3, (0, 9), (1, 0), (-2, 1))})
    problems = validate_network(hacked)
    assert any("edge key 5 disagrees" in p for p in problems)
    assert any("negative delay" in p for p in problems)
    assert any("unknown edge 9" in p for p in problems)


def test_bad_profile_entries_after_good_ones_are_named_in_order():
    """Bad entries found by column masks after 500 good ones, reported as
    an entry-by-entry walk reports them: by profile, then by entry."""
    net = make_net([(0, 0, 1, 100, 3), (1, 1, 2, 100, 3)])
    good = [(k % 2, k, k % 5) for k in range(500)]
    bad = [(0, 600, -1), (7, 601, 2), (9, 602, -3), (1, 603, 0)]
    profiles = {4: DelayProfile(4, *zip(*good, *bad, *good[:3])),
                6: DelayProfile(5, (2 ** 70,), (1,), (-2 ** 70,))}
    hacked = RoadNetwork(hubs=dict(net.hubs), edges=dict(net.edges),
                         delay_profiles=profiles)
    assert validate_network(hacked) == [
        "profile 4 has negative delay -1 on edge 0 at step 600",
        "profile 4 has an entry for unknown edge 7",
        "profile 4 has negative delay -3 on edge 9 at step 602",
        "profile 4 has an entry for unknown edge 9",
        "profile key 6 disagrees with profile id 5",
        f"profile 5 has negative delay {-2 ** 70} on edge {2 ** 70} at step 1",
        f"profile 5 has an entry for unknown edge {2 ** 70}",
    ]


def test_shortest_path_prefers_km_not_hops():
    # direct 0->3 is 400 km; the three-hop chain is 350 km
    net = make_net([(0, 0, 1, 100, 3), (1, 1, 2, 100, 3), (2, 2, 3, 150, 3),
                    (3, 0, 3, 400, 9)])
    km, edges = shortest_path(net, 0, 3)
    assert km == 350.0
    assert edges == (0, 1, 2)
    assert shortest_path_km(net, 0, 3) == 350.0


def test_shortest_path_tie_is_deterministic():
    # two 200 km routes; the one through the lower hub id must win
    net = make_net([(0, 0, 1, 100, 3), (2, 1, 3, 100, 3),
                    (4, 0, 2, 100, 3), (6, 2, 3, 100, 3)])
    km, edges = shortest_path(net, 0, 3)
    assert km == 200.0
    assert edges == (0, 2)


def test_shortest_path_unreachable_and_unknown():
    net = make_net([(0, 0, 1, 100, 3)])
    # make hub 2 known but unreachable
    net = make_net([(0, 0, 1, 100, 3), (1, 2, 0, 50, 1)])
    km, edges = shortest_path(net, 0, 2)
    assert km is UNREACHABLE and math.isinf(km)
    assert edges == ()
    with pytest.raises(InputError):
        shortest_path(net, 0, 77)


def test_shortest_path_zero_length_query():
    net = make_net([(0, 0, 1, 100, 3)])
    assert shortest_path(net, 0, 0) == (0.0, ())


def test_adjacency_sorted_and_complete():
    net = make_net([(4, 0, 1, 10, 1), (2, 0, 2, 10, 1), (0, 1, 2, 10, 1)])
    assert net.out_edges(0) == (2, 4)
    assert net.out_edges(1) == (0,)
    assert net.out_edges(2) == ()
    assert net.out_edges(99) == ()


def test_json_round_trip_is_identity(tmp_path, line_net):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_network(line_net, p1)
    again = load_network(p1)
    save_network(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert network_to_dict(again) == network_to_dict(line_net)


def test_json_rejects_unknown_and_missing_fields(tmp_path):
    doc = network_to_dict(make_net([(0, 0, 1, 100, 3)]))
    doc["edges"][0]["color"] = "red"
    with pytest.raises(FormatError, match="unknown fields: color"):
        network_from_dict(doc)
    doc = network_to_dict(make_net([(0, 0, 1, 100, 3)]))
    del doc["edges"][0]["length_km"]
    with pytest.raises(FormatError, match="missing fields: length_km"):
        network_from_dict(doc)
    doc = network_to_dict(make_net([(0, 0, 1, 100, 3)]))
    doc["extra"] = 1
    with pytest.raises(FormatError, match="unknown fields: extra"):
        network_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_network(bad)


def profile_doc(entries):
    """A one-edge network document whose delay profile 1 has ``entries``."""
    doc = network_to_dict(make_net([(0, 0, 1, 100, 3, (1,))], profiles={1: {}}))
    doc["delay_profiles"][0]["entries"] = entries
    return doc


GOOD = [{"edge": 0, "t": t, "delta": 1} for t in range(500)]


@pytest.mark.parametrize("entries, message", [
    ([[0, 3, 1]], "delay entry must be an object, got list"),
    ([{"edge": 0, "t": 3, "delta": 1, "why": "x"}], "delay entry has unknown fields: why"),
    ([{"edge": 0, "t": 3}], "delay entry is missing fields: delta"),
    ([{"edge": 0, "t": 3, "delta": True}],
     "delay entry field 'delta' must be an integer, not true"),
    ([{"edge": 0, "t": 1.5, "delta": 2}], "delay entry field 't' must be an integer, not 1.5"),
    ({"edge": 0, "t": 3, "delta": 1},
     "delay profile field 'entries' must be an array, not {\"edge\": 0, \"t\": 3, \"delta\": 1}"),
    ([*GOOD, {"edge": 0, "t": 500, "delta": "2"}],
     "delay entry field 'delta' must be an integer, not \"2\""),
    ([*GOOD, {"edge": 0, "t": 500, "delta": 1, "x": 0}, 7],
     "delay entry has unknown fields: x"),
    ([*GOOD, {"edge": None, "t": 500, "delta": 1}, [1]],
     "delay entry field 'edge' must be an integer, not null"),
    ([*GOOD, {"edge": 0, "delta": 1, "tt": 500}], "delay entry has unknown fields: tt"),
])
def test_delay_entry_format_errors_name_the_first_bad_entry(entries, message):
    with pytest.raises(FormatError) as got:
        network_from_dict(profile_doc(entries))
    assert str(got.value) == message


def test_json_rejects_an_entry_listed_twice_in_one_profile():
    doc = profile_doc([{"edge": 0, "t": 2, "delta": 4}, {"edge": 0, "t": 3, "delta": 1},
                       {"edge": 0, "t": 4, "delta": 1}, {"edge": 0, "t": 3, "delta": 5}])
    with pytest.raises(FormatError) as got:
        network_from_dict(doc)
    assert str(got.value) == "delay profile 1 lists edge 0 at step 3 twice"
    doc["delay_profiles"][0]["entries"][3]["edge"] = 1   # another edge: no repeat
    assert delay_map(network_from_dict(doc).delay_profiles[1]) == \
        {(0, 2): 4, (0, 3): 1, (0, 4): 1, (1, 3): 5}


def test_json_rejects_duplicate_ids():
    doc = network_to_dict(make_net([(0, 0, 1, 100, 3)]))
    doc["edges"].append(dict(doc["edges"][0]))
    with pytest.raises(FormatError, match="duplicate edge id"):
        network_from_dict(doc)
    doc = network_to_dict(make_net([(0, 0, 1, 100, 3)]))
    doc["hubs"].append(dict(doc["hubs"][0]))
    with pytest.raises(FormatError, match="duplicate hub id"):
        network_from_dict(doc)


def test_replace_profiles_installs_assignment(line_net):
    profiles = [DelayProfile(10, (0,), (5,), (1,)), DelayProfile(11)]
    out = replace_profiles(line_net, profiles, {0: (10, 11)})
    assert set(out.delay_profiles) == {10, 11}
    assert out.edges[0].delay_profile_ids == (10, 11)
    assert out.edges[1].delay_profile_ids == ()
    assert validate_network(out) == []
    # original untouched
    assert line_net.edges[0].delay_profile_ids == ()


def test_bundled_networks_are_valid():
    from importlib import resources

    for name, hubs, edges in (("sweden.json", 34, 110),
                              ("synthetic10.json", 10, 18)):
        with resources.as_file(resources.files("hubplatoon") / "data" / name) as p:
            net = load_network(p)
        assert validate_network(net) == []
        assert len(net.hubs) == hubs
        assert len(net.edges) == edges


@pytest.mark.parametrize("name", ["synthetic10", "sweden"])
def test_travel_matrix_reads_every_admissible_profile(name):
    """Every (edge, admissible profile) row, read as a table reads it,
    from 2 steps before the profiles' span to 2 steps after it."""
    from importlib import resources

    with resources.as_file(resources.files("hubplatoon") / "data"
                           / f"{name}.json") as p:
        net = prepare_network(load_network(p), ExperimentConfig())
    matrix = net.travel_matrix
    steps = [t for prof in net.delay_profiles.values() for t in prof.steps]
    assert (matrix.lo, matrix.span) == (min(steps), max(steps) - min(steps) + 1)
    window = range(matrix.lo - 2, matrix.lo + matrix.span + 2)
    cols = matrix.columns(window)
    read = 0
    for eid, edge in net.edges.items():
        for pid in edge.delay_profile_ids:
            table = delay_map(net.delay_profiles[pid])
            got = edge.base_travel_steps + matrix.delays[profile_row(net, eid, pid), cols]
            assert got.tolist() == [edge.base_travel_steps + table.get((eid, t), 0)
                                    for t in window], (eid, pid)
            read += 1
    assert read == len(matrix.index) == 10 * len(net.edges)
    assert matrix.delays.dtype == np.int32 and not matrix.negative.any()


def test_travel_matrix_rows_of_open_edges_and_wide_delays():
    """An edge that lists no profile admits any: a profile with entries on
    it has a row, one without reads the zero row. Delays beyond 32 bits
    stay exact and flag their row."""
    net = make_net([(0, 0, 1, 100, 3), (1, 1, 2, 100, 3, (8,))],
                   profiles={7: {(0, 1): 4}, 8: {(1, 2): 2 ** 31},
                             9: {(1, 3): 2 ** 64}})
    matrix = net.travel_matrix
    assert sorted(matrix.index) == [(0, 7), (1, 8)]
    assert profile_row(net, 0, 7) == matrix.index[(0, 7)]
    assert profile_row(net, 0, 8) == 0
    assert matrix.delay(profile_row(net, 1, 8), 2) == 2 ** 31
    assert matrix.wide.tolist() == [False, False, True]
    assert matrix.delays.dtype == np.int64
    with pytest.raises(InputError, match="profile 9 is not admissible on edge 1"):
        profile_row(net, 1, 9)
    with pytest.raises(InputError, match="unknown delay profile 6"):
        profile_row(net, 0, 6)
    with pytest.raises(InputError, match="unknown edge 5"):
        profile_row(net, 5, 7)
    big = make_net([(0, 0, 1, 100, 3, (9,))], profiles={9: {(0, 3): 2 ** 64}})
    assert big.travel_matrix.delays.dtype == object
    assert big.travel_matrix.delay(1, 3) == 2 ** 64


def test_column_built_matrix_equals_an_entry_by_entry_reference():
    """Seeded networks: edges that list profiles (some unknown, some
    twice) or none, and profiles with entries on any edge, unknown ones
    included, with negative delays and delays of 2**31 and 2**64."""
    rng = random.Random("column matrix")
    dtypes = set()
    for _case in range(80):
        n_edges, pids = rng.randint(1, 5), rng.sample(range(-3, 12), rng.randint(0, 6))
        listed = {eid: tuple(rng.choice([*pids, 40]) for _k in range(rng.randint(0, 3)))
                  if rng.random() < 0.7 else () for eid in rng.sample(range(-2, 9), n_edges)}
        big = rng.choice((3, 2 ** 31, 2 ** 64))
        tables = {pid: {(rng.choice([*listed, 50]), rng.randint(-4, 30)):
                        rng.choice((0, 1, 2, -1, big)) for _k in range(rng.randint(0, 12))}
                  for pid in pids}
        net = make_net([(eid, 0, 1, 100, 3, ids) for eid, ids in listed.items()],
                       profiles=tables)
        lo, index, rows = ref_travel_matrix(listed, tables)
        matrix = net.travel_matrix
        values = [d for row in rows for d in row]
        dtype = next((kind for kind, bits in ((np.int32, 31), (np.int64, 63))
                      if all(-2 ** bits <= d < 2 ** bits for d in values)), object)
        assert (matrix.lo, matrix.span, matrix.index) == (lo, len(rows[0]) - 1, index)
        assert matrix.delays.dtype == dtype and matrix.delays.tolist() == rows
        assert matrix.wide.tolist() == [not all(-2 ** 31 <= d < 2 ** 31 for d in row)
                                      for row in rows]
        assert matrix.negative.tolist() == [min(row) < 0 for row in rows]
        dtypes.add(dtype)
    assert dtypes == {np.int32, np.int64, object}
