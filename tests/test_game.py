import json
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_game, make_net, reference_inputs
from oracles import (ref_entries, ref_potential, ref_reward,
                     ref_round_half_away, ref_utility)
from hubplatoon.errors import FormatError, InputError
from hubplatoon.game import (CoordinationGame, RewardModel, Scenario,
                             VehicleSpec, deterministic_scenario,
                             fleet_from_list, fleet_to_list, load_fleet,
                             round_half_away, save_fleet, scenario_from_dict,
                             scenario_to_dict, zero_profile)
from hubplatoon.solver import DeterministicOracle, profile_row


@pytest.mark.parametrize("x, want", [
    (0, 0), (3, 3), (-3, -3),
    (Fraction(1, 2), 1), (Fraction(-1, 2), -1),
    (Fraction(3, 2), 2), (Fraction(-3, 2), -2),
    (Fraction(12, 5), 2), (Fraction(-12, 5), -2),
    (Fraction(7, 2), 4), (Fraction(-7, 2), -4),
    (Fraction(1, 3), 0), (Fraction(2, 3), 1),
])
def test_round_half_away(x, want):
    assert round_half_away(x) == want
    assert ref_round_half_away(Fraction(x)) == want


class TestRewardModel:
    def test_default_values_100km(self, line_net):
        rm = RewardModel()
        e = line_net.edges[0]
        # 170 centi-SEK/km * 100 km * (n-1)/n
        assert rm.reward(1, e) == 0
        assert rm.reward(2, e) == 8500      # 8500.0 exactly
        assert rm.reward(3, e) == 11333     # 11333.33.. rounds down
        assert rm.reward(4, e) == 12750     # 12750.0 exactly
        # the potential's edge term: cumulative rewards, read off the row
        assert np.cumsum(rm.reward_row(e, 4)).tolist() == [0, 0, 8500, 19833, 32583]

    def test_half_rounds_away_from_zero(self):
        e = make_net([(0, 0, 1, 2.5, 1)]).edges[0]
        # 170 * 2.5 / 2 = 212.5 -> 213
        assert RewardModel().reward(2, e) == 213

    def test_decimal_length_semantics(self):
        e = make_net([(0, 0, 1, 0.3, 1)]).edges[0]
        # 170 * 0.3 / 2 = 25.5 exactly under decimal reading -> 26
        assert RewardModel().reward(2, e) == 26

    def test_matches_reference_formula(self, line_net):
        rm = RewardModel(km_rate_centi=93)
        e = line_net.edges[1]
        for n in range(1, 9):
            assert rm.reward(n, e) == ref_reward(n, 100, 93)

    def test_monotone_in_platoon_size(self, line_net):
        rm = RewardModel()
        e = line_net.edges[0]
        values = [rm.reward(n, e) for n in range(1, 12)]
        assert values == sorted(values)

    def test_custom_table(self, line_net):
        rm = RewardModel(table={(1, 0): 0, (2, 0): 1000})
        e = line_net.edges[0]
        assert rm.reward(2, e) == 1000
        with pytest.raises(InputError, match="no entry for size 3"):
            rm.reward(3, e)

    def test_rejects_bad_inputs(self, line_net):
        with pytest.raises(InputError):
            RewardModel(km_rate_centi=-1)
        with pytest.raises(InputError):
            RewardModel(table={(2, 0): -5})
        with pytest.raises(InputError):
            RewardModel().reward(0, line_net.edges[0])

    def test_reward_rows_match_reward(self):
        edges = make_net([(0, 0, 1, 0.3, 1), (1, 1, 2, 37.5, 1),
                          (2, 2, 3, 100, 1)]).edges
        rm = RewardModel(km_rate_centi=93)
        for e in edges.values():
            row = rm.reward_row(e, 12)
            assert row.dtype == np.int64
            assert row.tolist() == [0] + [rm.reward(n, e) for n in range(1, 13)]

    def test_integer_rows_equal_the_fraction_form(self):
        """Rows are computed in integers; each entry equals the Fraction
        form round_half_away(km_rate * length * (n - 1) / n), whether the
        row is asked for whole or grown one ``reward`` call at a time."""
        edges = make_net([(0, 0, 1, 0.3, 1), (1, 1, 2, 0.05, 1),
                          (2, 2, 3, 12.5, 1)]).edges
        for rate in (170, 93):
            whole, grown = RewardModel(km_rate_centi=rate), RewardModel(km_rate_centi=rate)
            for e in edges.values():
                want = [0] + [round_half_away(Fraction(rate) * Fraction(str(e.length_km))
                                              * Fraction(n - 1, n))
                              for n in range(1, 201)]
                assert whole.reward_row(e, 200).tolist() == want
                assert [grown.reward(n, e) for n in range(1, 201)] == want[1:]

    def test_reward_row_grows_when_a_larger_size_is_asked(self, line_net):
        rm = RewardModel()
        e = line_net.edges[0]
        assert rm.reward_row(e, 2).tolist() == [0, 0, 8500]
        assert rm.reward_row(e, 4).tolist() == [0, 0, 8500, 11333, 12750]
        assert rm.reward_row(e, 3).tolist() == [0, 0, 8500, 11333]
        assert rm.reward_row(e, 9).tolist() == \
            [0] + [ref_reward(n, 100) for n in range(1, 10)]
        with pytest.raises(ValueError):
            rm.reward_row(e, 3)[1] = 7     # the kept row is read-only

    def test_custom_table_row_stops_at_a_missing_size(self, line_net):
        rm = RewardModel(table={(1, 0): 0, (2, 0): 1000, (3, 0): 1500})
        e = line_net.edges[0]
        assert rm.reward_row(e, 2).tolist() == [0, 0, 1000]
        with pytest.raises(InputError, match="no entry for size 4 on edge 0"):
            rm.reward_row(e, 5)
        assert rm.reward_row(e, 3).tolist() == [0, 0, 1000, 1500]

    def test_missing_size_refused_when_the_table_is_built(self, line_net):
        """Three trucks on edge 0 need R(3, 0), which the table lacks."""
        rm = RewardModel(table={(1, 0): 0, (2, 0): 1000})
        fleet = [VehicleSpec(id=vid, edge_sequence=(0,), start_step=0,
                             waiting_budget_steps=1) for vid in range(3)]
        game = CoordinationGame(line_net, fleet, rm)
        oracle = DeterministicOracle(game, deterministic_scenario(line_net, fleet))
        with pytest.raises(InputError, match="no entry for size 3 on edge 0"):
            oracle.scaled_values(0, [(0,), (1,)], {0: (0,), 1: (0,), 2: (1,)})


def test_waiting_cost_is_linear(line_net):
    """A lone truck earns no reward, so its utility is minus its waiting cost."""
    game = make_game(line_net, [(0, (0, 1, 2), 0, 3)], step_cost=2200)
    oracle = DeterministicOracle(game, deterministic_scenario(
        line_net, game.fleet.values()))
    assert oracle.utility(0, {0: (0, 0, 0)}) == 0
    assert oracle.utility(0, {0: (1, 0, 2)}) == -6600


def entries(game, vid, waits, scenario):
    """Entry step onto each route edge, from the deterministic oracle's
    view and availability of ``vid`` and the scenario's travel model."""
    oracle = DeterministicOracle(game, scenario)
    [i] = [i for i, v in enumerate(oracle.views) if v == vid]
    return ref_entries(int(oracle.avail[i, 0]), waits, oracle.views[vid].window_edges,
                       oracle.worlds.travel(0, game.net.edges))


class TestDepartureTimes:
    def test_free_flow_recursion(self, line_net):
        game = make_game(line_net, [(0, (0, 1, 2), 0, 4)])
        s = deterministic_scenario(line_net, game.fleet.values())
        assert entries(game, 0, (0, 0, 0), s) == (0, 3, 6)
        assert entries(game, 0, (0, 0, 1), s) == (0, 3, 7)
        assert entries(game, 0, (2, 1, 0), s) == (2, 6, 9)

    def test_delay_shifts_downstream_entries(self):
        profiles = {1: {(0, 2): 2}}
        net = make_net([(0, 0, 1, 100, 3, (1,)), (1, 1, 2, 100, 3)],
                       profiles=profiles)
        game = make_game(net, [(0, (0, 1), 0, 4)])
        s = Scenario(profile_assignment={0: 1}, start_steps={})
        # entering edge 0 at step 2 costs 3+2 steps
        assert entries(game, 0, (2, 0), s) == (2, 7)
        assert entries(game, 0, (1, 0), s) == (1, 4)

    def test_scenario_start_override(self, line_net):
        game = make_game(line_net, [(0, (0, 1, 2), 0, 4)])
        s = Scenario(profile_assignment={}, start_steps={0: 5})
        assert entries(game, 0, (0, 0, 0), s) == (5, 8, 11)


class TestUtilityAndPotential:
    """Hand-computed values, read through the engine's oracle."""

    def two_vehicle_game(self, line_net):
        return make_game(line_net, [(0, (0, 1, 2), 0, 4), (1, (0, 1, 2), 1, 4)])

    def test_frozen_full_platoon_values(self, line_net):
        game = self.two_vehicle_game(line_net)
        oracle = DeterministicOracle(
            game, deterministic_scenario(line_net, game.fleet.values()))
        profile = {0: (1, 0, 0), 1: (0, 0, 0)}
        # platoon of 2 on all three 100 km edges; one waited step
        assert oracle.utility(0, profile) == 23300   # 3*8500 - 2200
        assert oracle.utility(1, profile) == 25500   # 3*8500
        assert oracle.potential(profile) == 23300    # 3*(0+8500) - 2200

    def test_zero_profile_is_all_zero(self, line_net):
        game = self.two_vehicle_game(line_net)
        oracle = DeterministicOracle(
            game, deterministic_scenario(line_net, game.fleet.values()))
        profile = zero_profile(game.fleet.values())
        assert oracle.utility(0, profile) == 0
        assert oracle.utility(1, profile) == 0
        assert oracle.potential(profile) == 0

    def test_frozen_single_edge_values(self):
        net = make_net([(0, 0, 1, 100, 3)])
        game = make_game(net, [(0, (0,), 0, 4), (1, (0,), 1, 4)])
        oracle = DeterministicOracle(
            game, deterministic_scenario(net, game.fleet.values()))
        assert oracle.utility(0, {0: (1,), 1: (0,)}) == 6300    # 8500 - 2200
        # burning the whole budget to join can go negative
        game2 = make_game(net, [(0, (0,), 0, 4), (1, (0,), 4, 4)])
        oracle2 = DeterministicOracle(
            game2, deterministic_scenario(net, game2.fleet.values()))
        assert oracle2.utility(0, {0: (4,), 1: (0,)}) == -300  # 8500 - 8800

    def test_matches_reference_implementation(self, line_net):
        game = self.two_vehicle_game(line_net)
        s = deterministic_scenario(line_net, game.fleet.values())
        oracle = DeterministicOracle(game, s)
        vehicles, travel, lengths = reference_inputs(game, s)
        for profile in ({0: (1, 0, 0), 1: (0, 0, 0)},
                        {0: (0, 2, 0), 1: (1, 0, 1)},
                        {0: (0, 0, 0), 1: (0, 0, 0)}):
            for vid in (0, 1):
                assert oracle.utility(vid, profile) == ref_utility(
                    vid, vehicles, profile, travel, lengths)
            assert oracle.potential(profile) == ref_potential(
                vehicles, profile, travel, lengths)

    def test_exact_potential_under_unilateral_deviation(self, line_net):
        game = self.two_vehicle_game(line_net)
        oracle = DeterministicOracle(
            game, deterministic_scenario(line_net, game.fleet.values()))
        before = {0: (0, 0, 0), 1: (0, 0, 0)}
        after = {0: (1, 0, 0), 1: (0, 0, 0)}
        du = oracle.utility(0, after) - oracle.utility(0, before)
        dphi = oracle.potential(after) - oracle.potential(before)
        assert du == dphi == 23300

    def test_exact_potential_property_randomized(self):
        rng = random.Random(4242)
        for _case in range(60):
            n_edges = rng.randint(2, 4)
            rows = [(k, k, k + 1, rng.choice((40, 75, 100, 130)),
                     rng.randint(1, 3), (1,)) for k in range(n_edges)]
            table = {}
            for k in range(n_edges):
                for t in range(0, 14):
                    if rng.random() < 0.25:
                        table[(k, t)] = rng.randint(1, 3)
            net = make_net(rows, profiles={1: table})
            n_vehicles = rng.randint(2, 4)
            vrows = []
            for vid in range(n_vehicles):
                a = rng.randrange(n_edges)
                b = rng.randrange(a, n_edges)
                vrows.append((vid, tuple(range(a, b + 1)),
                              rng.randint(0, 3), rng.randint(1, 3)))
            game = make_game(net, vrows)
            oracle = DeterministicOracle(game, Scenario(
                profile_assignment={k: 1 for k in range(n_edges)},
                start_steps={}))
            profile = {vid: tuple(rng.randint(0, 1) for _ in seq)
                       for vid, seq, _st, _b in vrows}
            vid = rng.randrange(n_vehicles)
            seq = vrows[vid][1]
            trial = dict(profile)
            trial[vid] = tuple(rng.randint(0, 2) for _ in seq)
            du = oracle.utility(vid, trial) - oracle.utility(vid, profile)
            dphi = oracle.potential(trial) - oracle.potential(profile)
            assert du == dphi


class TestGameConstruction:
    def test_route_must_chain(self, line_net):
        with pytest.raises(InputError, match="breaks at edge 2"):
            make_game(line_net, [(0, (0, 2), 0, 4)])

    def test_route_must_exist_and_be_nonempty(self, line_net):
        with pytest.raises(InputError, match="unknown edge"):
            make_game(line_net, [(0, (9,), 0, 4)])
        with pytest.raises(InputError, match="empty route"):
            make_game(line_net, [(0, (), 0, 4)])

    def test_duplicate_ids_rejected(self, line_net):
        with pytest.raises(InputError, match="duplicate vehicle ids"):
            make_game(line_net, [(0, (0,), 0, 4), (0, (0,), 1, 4)])

    def test_negative_budget_rejected(self, line_net):
        with pytest.raises(InputError, match="negative waiting budget"):
            make_game(line_net, [(0, (0,), 0, -1)])

    def test_scenario_profile_resolution(self, delay_net):
        game = make_game(delay_net, [(0, (0,), 0, 4)])
        assert profile_row(game.net, 0, 1) == game.net.travel_matrix.index[(0, 1)]
        with pytest.raises(InputError, match="unknown edge 7"):
            DeterministicOracle(game, Scenario({7: 1}, {}))
        with pytest.raises(InputError, match="unknown delay profile 9"):
            DeterministicOracle(game, Scenario({0: 9}, {}))


class TestSerialization:
    def test_fleet_round_trip(self, tmp_path, line_net):
        fleet = [VehicleSpec(0, (0, 1), 3, 2), VehicleSpec(1, (2,), 0, 4)]
        p = tmp_path / "fleet.json"
        save_fleet(fleet, p)
        again = load_fleet(p)
        assert again == fleet
        assert fleet_from_list(fleet_to_list(fleet)) == fleet

    def test_fleet_strict_fields(self):
        good = {"id": 0, "edge_sequence": [0], "start_step": 0,
                "waiting_budget_steps": 4}
        with pytest.raises(FormatError, match="unknown fields: color"):
            fleet_from_list([dict(good, color="red")])
        bad = dict(good)
        del bad["start_step"]
        with pytest.raises(FormatError, match="missing fields: start_step"):
            fleet_from_list([bad])
        with pytest.raises(FormatError, match="must be a JSON array"):
            fleet_from_list({"id": 0})

    def test_scenario_round_trip_and_strictness(self):
        s = Scenario(profile_assignment={0: 1, 2: 1}, start_steps={5: 7})
        doc = scenario_to_dict(s)
        again = scenario_from_dict(doc)
        assert again.profile_assignment == s.profile_assignment
        assert again.start_steps == s.start_steps
        with pytest.raises(FormatError, match="unknown fields"):
            scenario_from_dict(dict(doc, extra=1))
        with pytest.raises(FormatError, match="missing fields"):
            scenario_from_dict({"profile_assignment": {}})

    @pytest.mark.parametrize("field, value", [
        ("profile_assignment", {"0": 1.9}), ("start_steps", {"2": 7.5}),
        ("profile_assignment", {"0": True}), ("start_steps", {"x": 7}),
        ("start_steps", {"1.0": 7}), ("profile_assignment", {"": 1})])
    def test_scenario_keys_and_values_must_be_integers(self, field, value):
        doc = {"profile_assignment": {"0": 1}, "start_steps": {"2": 7}}
        doc[field] = value
        with pytest.raises(FormatError, match=f"scenario field '{field}' must be an object "
                           "of integers keyed by integers, not "):
            scenario_from_dict(doc)
        doc[field] = {"-3": 4, "12": 0}
        assert getattr(scenario_from_dict(doc), field) == {-3: 4, 12: 0}

    def test_fleet_json_is_sorted_and_stable(self, tmp_path):
        fleet = [VehicleSpec(2, (0,), 0, 4), VehicleSpec(1, (0,), 0, 4)]
        p = tmp_path / "f.json"
        save_fleet(fleet, p)
        doc = json.loads(p.read_text())
        assert [v["id"] for v in doc] == [1, 2]
