import random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_game, make_net, reference_inputs
from oracles import all_actions, ref_is_nash, ref_scaled_values
from hubplatoon.errors import InputError, NonConvergenceError
from hubplatoon.game import Scenario, deterministic_scenario
from hubplatoon.solver import (DeterministicOracle, HorizonView, Worlds,
                               WorldsOracle, action_space, best_response,
                               enumerate_actions, nash_seek,
                               solve_deterministic, spaces_for_fleet,
                               verify_ne)


class TestEnumerateActions:
    def test_counts_are_stars_and_bars(self):
        # C(length + budget, length) vectors with sum <= budget
        assert len(enumerate_actions(1, 4)) == 5
        assert len(enumerate_actions(2, 2)) == 6
        assert len(enumerate_actions(3, 4)) == 35
        assert len(enumerate_actions(4, 0)) == 1

    def test_lex_order_and_zero_first(self):
        acts = enumerate_actions(2, 2)
        assert acts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        assert acts == sorted(acts)
        assert acts[0] == (0, 0)
        assert enumerate_actions(3, 4) == sorted(enumerate_actions(3, 4))

    def test_matches_reference_enumeration(self):
        for length in (1, 2, 3):
            for budget in (0, 1, 3):
                assert enumerate_actions(length, budget) == \
                    all_actions(length, budget)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            enumerate_actions(0, 4)
        with pytest.raises(InputError):
            enumerate_actions(2, -1)

    def test_spaces_for_fleet(self, line_net):
        game = make_game(line_net, [(0, (0, 1), 0, 2), (1, (2,), 0, 1)])
        spaces = spaces_for_fleet(game.fleet.values())
        assert len(spaces[0]) == 6
        assert spaces[1] == ((0,), (1,))
        # one cached enumeration per (length, budget), shared by every caller
        assert spaces[0] is action_space(2, 2)
        assert action_space(2, 2) == tuple(enumerate_actions(2, 2))


class _FixedOracle:
    """Utilities independent of the opponent; for tie-break tests."""

    def __init__(self, table):
        self.table = table

    def scaled_values(self, vid, actions, profile):
        return [self.table[tuple(a)] for a in actions]


class _CycleOracle:
    """Two players, no potential: 0 wants to match 1, 1 wants to differ.
    Both read edge 0, so each move makes the other's turn count."""

    views = {vid: SimpleNamespace(window_edges=(0,)) for vid in (0, 1)}

    def scaled_values(self, vid, actions, profile):
        other = profile[1 if vid == 0 else 0][0]
        vals = []
        for (a,) in actions:
            match = 1 if a == other else 0
            vals.append(match if vid == 0 else 1 - match)
        return vals


class TestBestResponse:
    def test_keeps_current_action_on_tie(self):
        oracle = _FixedOracle({(0,): 7, (1,): 7, (2,): 3})
        choice, n = best_response(oracle, 0, [(0,), (1,), (2,)], {0: (1,)})
        assert choice == (1,)
        assert n == 3

    def test_prefers_lex_smallest_otherwise(self):
        oracle = _FixedOracle({(0, 1): 9, (1, 0): 9, (0, 0): 1})
        choice, _ = best_response(oracle, 0, [(0, 0), (0, 1), (1, 0)],
                                  {0: (0, 0)})
        assert choice == (0, 1)

    def test_strict_improvement_moves(self):
        oracle = _FixedOracle({(0,): 1, (1,): 2})
        choice, _ = best_response(oracle, 0, [(0,), (1,)], {0: (0,)})
        assert choice == (1,)


class TestNashSeek:
    def frozen_game(self, line_net):
        return make_game(line_net, [(0, (0, 1, 2), 0, 4), (1, (0, 1, 2), 1, 4)])

    def test_frozen_two_vehicle_solve(self, line_net):
        game = self.frozen_game(line_net)
        s = deterministic_scenario(line_net, game.fleet.values())
        report = solve_deterministic(game, s, verify=True, track_potential=True)
        # vehicle 0 waits one step at its origin and tags along
        assert report.profile == {0: (1, 0, 0), 1: (0, 0, 0)}
        assert report.rounds == 2          # one changing pass + one confirming
        assert report.evaluations == 140   # 2 passes x 2 vehicles x 35 actions
        assert report.verified is True
        assert report.potential_trajectory == [0, 23300]

    def test_already_at_equilibrium_is_one_round(self, line_net):
        game = make_game(line_net, [(0, (0, 1, 2), 0, 4)])
        s = deterministic_scenario(line_net, game.fleet.values())
        report = solve_deterministic(game, s)
        assert report.profile == {0: (0, 0, 0)}
        assert report.rounds == 1
        assert report.evaluations == 35

    def test_evaluation_accounting(self, line_net):
        game = self.frozen_game(line_net)
        s = deterministic_scenario(line_net, game.fleet.values())
        report = solve_deterministic(game, s)
        spaces = spaces_for_fleet(game.fleet.values())
        per_pass = sum(len(a) for a in spaces.values())
        assert report.evaluations == report.rounds * per_pass

    def test_potential_strictly_ascends(self, line_net):
        game = make_game(line_net, [(0, (0, 1, 2), 0, 4), (1, (0, 1, 2), 1, 4),
                                    (2, (1, 2), 4, 3)])
        s = deterministic_scenario(line_net, game.fleet.values())
        report = solve_deterministic(game, s, track_potential=True)
        traj = report.potential_trajectory
        assert all(a < b for a, b in zip(traj, traj[1:]))

    def test_initial_and_order_arguments(self, line_net):
        game = self.frozen_game(line_net)
        s = deterministic_scenario(line_net, game.fleet.values())
        oracle = DeterministicOracle(game, s)
        spaces = spaces_for_fleet(game.fleet.values())
        report = nash_seek(oracle, spaces, order=(1, 0))
        assert ref_is_nash_wrapper(game, s, report.profile)
        with pytest.raises(InputError, match="not in its space"):
            nash_seek(oracle, spaces, initial={0: (5, 0, 0), 1: (0, 0, 0)})
        with pytest.raises(InputError, match="update order"):
            nash_seek(oracle, spaces, order=(0,))
        with pytest.raises(InputError, match="update order"):
            nash_seek(oracle, spaces, order=(0, 1, 1))

    def test_round_cap_raises(self):
        oracle = _CycleOracle()
        spaces = {0: [(0,), (1,)], 1: [(0,), (1,)]}
        with pytest.raises(NonConvergenceError, match="after 7 rounds"):
            nash_seek(oracle, spaces, round_cap=7)

    def test_verify_ne_rejects_non_equilibrium(self, line_net):
        game = self.frozen_game(line_net)
        s = deterministic_scenario(line_net, game.fleet.values())
        oracle = DeterministicOracle(game, s)
        spaces = spaces_for_fleet(game.fleet.values())
        # zero profile is not an equilibrium here (waiting to platoon pays)
        assert verify_ne(oracle, spaces, {0: (0, 0, 0), 1: (0, 0, 0)}) is False
        report = nash_seek(oracle, spaces)
        assert verify_ne(oracle, spaces, report.profile) is True


def ref_is_nash_wrapper(game, scenario, profile):
    vehicles, travel, lengths = reference_inputs(game, scenario)
    budgets = {vid: game.fleet[vid].waiting_budget_steps
               for vid in game.vehicle_ids}
    return ref_is_nash(vehicles, budgets, profile, travel, lengths,
                       game.reward_model.km_rate_centi,
                       game.cost_model.step_cost_centi)


def test_random_instances_reach_reference_nash():
    rng = random.Random(99)
    for _case in range(25):
        n_edges = rng.randint(1, 3)
        rows = [(k, k, k + 1, rng.choice((50, 100)), rng.randint(1, 3), (1,))
                for k in range(n_edges)]
        table = {(k, t): rng.randint(1, 2)
                 for k in range(n_edges) for t in range(12)
                 if rng.random() < 0.3}
        net = make_net(rows, profiles={1: table})
        vrows = []
        for vid in range(rng.randint(2, 3)):
            a = rng.randrange(n_edges)
            b = rng.randrange(a, n_edges)
            vrows.append((vid, tuple(range(a, b + 1)), rng.randint(0, 2),
                          rng.randint(0, 2)))
        game = make_game(net, vrows)
        s = Scenario(profile_assignment={k: 1 for k in range(n_edges)},
                     start_steps={})
        report = solve_deterministic(game, s)
        assert ref_is_nash_wrapper(game, s, report.profile), \
            f"case {_case}: {report.profile} is not a Nash equilibrium"


def horizon_oracle(extra=(), players=(0, 1, 2)):
    """A one-world horizon game on edges 0 (hub 0 to 1) and 3 (hub 4 to 5).

    Players 0 and 1 leave hub 0 at steps 0 and 1, environment track 3 at
    step 2; all plan no wait. Player 0 gains most by waiting one step to
    join player 1. Player 1 would wait one step to join track 3, unless
    player 0 joins it first. Track 2 reads only edge 3; it is a player
    when ``players`` names it. ``extra`` adds (vid, committed, budget,
    avail) environment tracks on edge 3."""
    net = make_net([(0, 0, 1, 100, 3), (3, 4, 5, 100, 3)])
    tracks = [(0, (0,), (0,), 2, 0), (1, (0,), (0,), 2, 1), (2, (3,), (0,), 2, 0),
              (3, (0,), (0,), 0, 2), *((vid, (3,), *rest) for vid, *rest in extra)]
    game = make_game(net, [(vid, route, 0, budget)
                           for vid, route, _w, budget, _a in tracks])
    views = [HorizonView(vid=vid, kind="at_node", span_nodes=(0,), window_edges=route,
                         committed=waits, budget_left=budget, player=vid in players)
             for vid, route, waits, budget, _a in tracks]
    worlds = Worlds.of(net.travel_matrix, (1,), 1, (0, 3), {}, {})
    avail = np.array([[a] for *_r, a in tracks], dtype=np.int64)
    oracle = WorldsOracle(game, views, worlds, avail)
    spaces = {vid: action_space(1, oracle.views[vid].budget_left)
              for vid in oracle.players}
    return oracle, spaces


class TestHorizonRound:
    def test_a_move_revalues_only_the_players_sharing_its_edges(self):
        oracle, spaces = horizon_oracle()
        initial = {vid: (0,) for vid in spaces}
        [table] = oracle._dense(initial)
        alone = []
        single = table.scaled_values

        def record(vid, actions):
            alone.append(vid)
            return single(vid, actions)

        table.scaled_values = record
        report = nash_seek(oracle, spaces, initial=initial)
        # round 1: player 0 moves to join player 1, so player 1 (edge 0) is
        # valued again and stays; player 2 (edge 3) keeps its batch values.
        # On its batch values player 1 would have moved to join track 3.
        assert report.profile == {0: (1,), 1: (0,), 2: (0,)}
        assert alone == [1]
        loop, _spaces = horizon_oracle()
        loop.scaled_values = lambda vid, actions, profile: ref_scaled_values(
            loop, vid, actions, profile)
        want = nash_seek(loop, spaces, initial=initial)
        assert (report.profile, report.rounds, report.evaluations) == \
            (want.profile, want.rounds, want.evaluations) == (report.profile, 2, 18)

    def test_tracks_sharing_no_player_edge_leave_the_table(self):
        """Track 4 shares edge 3 with player 2, so the table keeps it. With
        track 2 in the environment, no player reads edge 3: the table drops
        tracks 2, 4 and 5. Track 5's committed wait of 9 is beyond its
        budget, so a table that kept it would size its window by that wait."""
        shared, _spaces = horizon_oracle(extra=[(4, (0,), 1, 0)])
        profile = {0: (1,), 1: (0,), 2: (0,)}
        assert sorted(shared._dense(profile)[0]._waits) == [0, 1, 2, 3, 4]
        # an environment track is valued alone, never from a pass
        assert shared.scaled_values(3, action_space(1, 0), profile).tolist() == \
            ref_scaled_values(shared, 3, action_space(1, 0), profile)
        plain, spaces = horizon_oracle(players=(0, 1))
        crowded, _spaces = horizon_oracle(extra=[(4, (0,), 1, 0), (5, (9,), 0, 0)],
                                          players=(0, 1))
        profile = {0: (1,), 1: (0,)}
        # the first question starts a pass, and both players read from it
        batch = [crowded.scaled_values(vid, spaces[vid], profile) for vid in (0, 1)]
        [table] = crowded._tables
        assert sorted(table._waits) == [0, 1, 3] and crowded._batch == {}
        want = [plain.scaled_values(vid, spaces[vid], profile) for vid in (0, 1)]
        for vid in (0, 1):
            assert batch[vid].tolist() == want[vid].tolist() == \
                table.scaled_values(vid, spaces[vid]).tolist() == \
                ref_scaled_values(crowded, vid, spaces[vid], profile)
