import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_game, make_net, reference_inputs
from hubplatoon import dense, solver
from hubplatoon.dense import entry_tables, prefix_tree
from hubplatoon.errors import InputError
from hubplatoon.feedback import PolicySpec, run_closed_loop
from hubplatoon.game import Scenario, scaled_weights
from hubplatoon.solver import (DeterministicOracle, HorizonView, Worlds,
                               WorldsOracle, action_space, best_response,
                               enumerate_actions, nash_seek, profile_row,
                               spaces_for_fleet, static_game)
from hubplatoon.stochastic import (ExpectedUtilityOracle,
                                   SampledUtilityOracle,
                                   ScenarioDistribution, enumerate_support,
                                   sample_scenarios,
                                   uniform_profile_distribution)
from oracles import (ref_platoons, ref_potential, ref_scaled_values,
                     ref_utility)


def random_instance(rng, n_profiles=2):
    """Small line network + fleet, with per-edge delay profiles."""
    n_edges = rng.randint(1, 3)
    profiles = {}
    for pid in range(n_profiles):
        profiles[pid] = {(k, t): rng.randint(0, 3)
                         for k in range(n_edges) for t in range(14)
                         if rng.random() < 0.4}
    rows = [(k, k, k + 1, rng.choice((50, 100, 150)), rng.randint(1, 3),
             tuple(range(n_profiles)))
            for k in range(n_edges)]
    net = make_net(rows, profiles=profiles)
    vrows = []
    for vid in range(rng.randint(2, 3)):
        a = rng.randrange(n_edges)
        b = rng.randrange(a, n_edges)
        vrows.append((vid, tuple(range(a, b + 1)), rng.randint(0, 2),
                      rng.randint(0, 3)))
    return make_game(net, vrows), n_edges


def random_profile(rng, spaces):
    return {vid: rng.choice(space) for vid, space in spaces.items()}


def static_worlds(game, weighted):
    """The worlds of weighted scenarios, as ``static_game`` builds them."""
    rows = [{eid: profile_row(game.net, eid, pid)
             for eid, pid in scenario.profile_assignment.items()}
            for scenario, _p in weighted]
    _views, worlds, _avail = static_game(
        game, *scaled_weights([p for _s, p in weighted]),
        {eid: [r.get(eid, 0) for r in rows] for eid in game.net.edges},
        {vid: [game.start_of(vid, scenario) for scenario, _p in weighted]
         for vid in game.fleet})
    return worlds


def avail_of(views, per_world):
    """The (view, world) availability array of per-world avail maps."""
    return np.array([[avail[v.vid] for avail in per_world] for v in views],
                    dtype=np.int64)


class TestScaledWeights:
    def test_lcm_scaling_is_exact(self):
        probs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        weights, scale = scaled_weights(probs)
        assert weights == [3, 2, 1]
        assert scale == 6
        assert all(Fraction(w, scale) == p for w, p in zip(weights, probs))

    def test_point_mass(self):
        weights, scale = scaled_weights([Fraction(1)])
        assert weights == [1] and scale == 1

    def test_huge_denominator_values_exactly(self):
        """The weights stay exact; a scale beyond int64 gives the table
        Python-int weights, and values equal to the reference."""
        eps = Fraction(1, 2 ** 70)
        weights, scale = scaled_weights([eps, 1 - eps])
        assert weights == [1, 2 ** 70 - 1] and scale == 2 ** 70
        net = make_net([(0, 0, 1, 100, 3, (0, 1))], profiles={0: {}, 1: {}})
        game = make_game(net, [(0, (0,), 0, 1)])
        oracle = ExpectedUtilityOracle(game, ScenarioDistribution(
            edge_profiles={0: ((0, eps), (1, 1 - eps))}, start_steps={}))
        worlds = oracle.worlds
        assert list(worlds.weights) == weights and worlds.scale == scale
        [table] = entry_tables(game, list(oracle.views.values()), worlds, oracle.avail,
                               {0: (0,)})
        assert table.weights.dtype == object
        space = enumerate_actions(1, 1)
        values = oracle.scaled_values(0, space, {0: (0,)})
        assert values.dtype == object
        assert values.tolist() == ref_scaled_values(oracle, 0, space, {0: (0,)}) \
            == [0, -2200 * 2 ** 70]


def one_track_table(net, pid, start, budget):
    """The table of one truck on edge ``min(net.edges)`` under profile
    ``pid``, leaving at ``start`` with ``budget`` waits."""
    eid = min(net.edges)
    game = make_game(net, [(0, (eid,), start, budget)])
    views, worlds, avail = static_game(game, [1], 1, {eid: [profile_row(net, eid, pid)]}, {})
    [table] = entry_tables(game, views, worlds, avail, {0: (0,)})
    return table


class TestDenseRows:
    """Tables read the network's travel matrix, which holds each
    (edge, admissible profile) row of delays once."""

    def test_delay_row_matches_profile_lookup(self):
        prof = {(5, 2): 3, (5, 4): 1, (5, 9): 7, (5, -1): 2, (6, 3): 5}
        net = make_net([(5, 0, 1, 100, 4, (0,)), (6, 1, 2, 100, 2, (1,))],
                       profiles={0: prof, 1: {}})
        matrix = net.travel_matrix
        row = matrix.index[(5, 0)]
        for t in range(-4, 14):
            assert matrix.delay(row, t) == prof.get((5, t), 0), t
            assert matrix.delay(0, t) == 0   # the zero row: free flow
        assert (5, 0) in matrix.index and (6, 1) in matrix.index
        assert (6, 0) not in matrix.index   # not admissible on edge 6
        assert matrix.top[row] == 7 and matrix.top[matrix.index[(6, 1)]] == 0
        for start, budget in ((-1, 0), (0, 2), (3, 0), (9, 4)):
            table = one_track_table(net, 0, start, budget)
            assert table.travel[0, 0].tolist() == [
                4 + prof.get((5, t), 0)
                for t in range(table.t0, table.t0 + table.steps)]

    def test_negative_delay_rejected(self):
        net = make_net([(1, 0, 1, 100, 3, (0,))],
                       profiles={0: {(1, 0): -2, (1, 4): 1}})
        matrix = net.travel_matrix
        assert matrix.negative[matrix.index[(1, 0)]]
        assert matrix.top[matrix.index[(1, 0)]] == 1
        with pytest.raises(InputError, match="negative delay"):
            one_track_table(net, 0, 0, 2)
        # outside the window the negative entry is not read
        table = one_track_table(net, 0, 1, 1)
        assert (table.t0, table.steps) == (1, 6)
        assert table.travel[0, 0].tolist() == [3, 3, 3, 4, 3, 3]


class TestDeterministicEquivalence:
    def test_fast_path_matches_loops_on_random_instances(self):
        rng = random.Random(4242)
        checked = 0
        for _case in range(40):
            game, n_edges = random_instance(rng)
            s = Scenario(profile_assignment={k: rng.randrange(2)
                                             for k in range(n_edges)},
                         start_steps={})
            oracle = DeterministicOracle(game, s)
            spaces = spaces_for_fleet(game.fleet.values())
            for _trial in range(3):
                profile = random_profile(rng, spaces)
                for vid in game.vehicle_ids:
                    fast = list(oracle.scaled_values(vid, spaces[vid], profile))
                    slow = ref_scaled_values(oracle, vid, spaces[vid], profile)
                    assert fast == slow
                    checked += len(fast)
        assert checked > 1000

    @pytest.mark.parametrize("delays, match", [
        ({(0, 1): -1}, "negative delay in the window"),
        ({(0, 1): 2 ** 31}, "a delay does not fit in 32 bits"),
        ({(0, 2): 2 ** 64}, "a delay does not fit in 32 bits"),
        ({(0, 1): 2 ** 25}, "33554438 cells exceed the dense limit"),
    ], ids=["negative", "2**31", "2**64", "one-world-over-the-limit"])
    def test_inputs_no_day_holds_are_refused(self, delays, match):
        """A negative delay in the window, a delay beyond 32 bits, and one
        world whose window alone (over 2**25 steps on edge 0) is beyond
        ``MAX_TABLE_CELLS``: no table is built."""
        net = make_net([(0, 0, 1, 100, 3, (7,))], profiles={7: delays})
        game = make_game(net, [(0, (0,), 0, 2), (1, (0,), 0, 2)])
        oracle = DeterministicOracle(game, Scenario(profile_assignment={0: 7},
                                                    start_steps={}))
        with pytest.raises(InputError, match=match):
            oracle.scaled_values(0, enumerate_actions(1, 2), {0: (0,), 1: (1,)})


def mixed_length_game(rng):
    """Six tracks on a 3-edge line, two per window length (3, 2 and 1):
    one player and one environment track of each length, over the 8
    worlds of two profiles per edge. Returns the game, views, worlds,
    availability, each world's reference travel and a start profile."""
    profiles = {pid: {(k, t): rng.randint(0, 3) for k in range(3)
                      for t in range(24) if rng.random() < 0.4}
                for pid in range(2)}
    net = make_net([(k, k, k + 1, rng.choice((50, 100, 150)),
                     rng.randint(1, 3), (0, 1)) for k in range(3)],
                   profiles=profiles)
    game = make_game(net, [(vid, (0, 1, 2), 0, rng.randint(0, 3))
                           for vid in range(6)])
    views, waits = [], {}
    for vid in range(6):
        first = vid % 3
        span = tuple(range(first, 3))
        budget = game.fleet[vid].waiting_budget_steps
        waits[vid] = rng.choice(enumerate_actions(len(span), budget))
        player = vid < 3
        views.append(HorizonView(vid=vid, kind="at_node", span_nodes=span,
                                 window_edges=span,
                                 committed=(0,) * len(span) if player else waits[vid],
                                 budget_left=budget, player=player))
    rng.shuffle(views)
    dist = uniform_profile_distribution(net, game.fleet.values())
    weighted = enumerate_support(dist)
    per_world = [{vid: rng.randint(0, 4) for vid in range(6)} for _s in weighted]
    ref_travel = [reference_inputs(game, scenario)[1] for scenario, _p in weighted]
    return (game, views, static_worlds(game, weighted), avail_of(views, per_world),
            ref_travel, waits)


class TestBatchedBuild:
    """``EntryTable`` construction against per-world references."""

    @staticmethod
    def reference_counts(table, views, avail, ref_travel, waits):
        want = np.zeros_like(table.counts)
        for w, travel in enumerate(ref_travel):
            vehicles = {v.vid: (int(avail[i, w]), v.window_edges)
                        for i, v in enumerate(views)}
            for (eid, t), members in ref_platoons(vehicles, waits, travel).items():
                want[w, table.col[eid], t - table.t0] += len(members)
        return want

    def test_mixed_window_lengths_match_per_world_references(self):
        rng = random.Random(8080)
        for _case in range(10):
            game, views, worlds, avail, ref_travel, waits = mixed_length_game(rng)
            [table] = entry_tables(game, views, worlds, avail, waits)
            assert sorted({len(v.window_edges) for v in views}) == [1, 2, 3]
            steps = range(table.t0, table.t0 + table.steps)
            for w, travel in enumerate(ref_travel):
                for eid, c in table.col.items():
                    assert table.travel[w, c].tolist() == [travel(eid, t) for t in steps]
            assert np.array_equal(
                table.counts,
                self.reference_counts(table, views, avail, ref_travel, waits))
            # a commit retraces one track through the same tracer
            player = next(v for v in views if v.player and len(v.span_nodes) > 1)
            moved = dict(waits)
            moved[player.vid] = rng.choice(enumerate_actions(
                len(player.span_nodes), player.budget_left))
            table.commit(player.vid, moved[player.vid])
            assert np.array_equal(
                table.counts,
                self.reference_counts(table, views, avail, ref_travel, moved))

    def test_negative_delay_in_the_second_profile_is_refused(self):
        """Both worlds share edge 0; only the second one's profile has a
        negative delay inside the window."""
        net = make_net([(0, 0, 1, 100, 3, (0, 1))],
                       profiles={0: {(0, 5): 1}, 1: {(0, 1): -1}})
        game = make_game(net, [(0, (0,), 0, 2), (1, (0,), 0, 2)])
        oracle = WorldsOracle(game, *static_game(
            game, [1, 1], 2, {0: [profile_row(net, 0, pid) for pid in (0, 1)]}, {}))
        profile = {0: (0,), 1: (1,)}
        space = enumerate_actions(1, 2)
        with pytest.raises(InputError, match="negative delay in the window"):
            oracle.scaled_values(0, space, profile)

    def test_over_budget_environment_track_is_valued(self):
        """Three tracks of length 2; the last one's committed waits exceed
        its budget, so the window is sized by their sum, and its second
        entry, at step 12, is tabulated."""
        net = make_net([(0, 0, 1, 100, 3), (1, 1, 2, 100, 3)])
        game = make_game(net, [(vid, (0, 1), 0, 2) for vid in range(3)])
        views = [HorizonView(vid=vid, kind="at_node", span_nodes=(0, 1),
                             window_edges=(0, 1), committed=waits,
                             budget_left=budget, player=vid < 2)
                 for vid, waits, budget in ((0, (0, 0), 2), (1, (0, 0), 2),
                                            (2, (0, 9), 0))]
        worlds = static_worlds(game, [(Scenario({}, {}), Fraction(1))])
        avail = avail_of(views, [{0: 0, 1: 1, 2: 0}])
        [table] = entry_tables(game, views, worlds, avail,
                               {0: (0, 0), 1: (0, 0), 2: (0, 9)})
        assert (table.t0, table.steps) == (0, 16)
        assert table.counts[0, table.col[1], 12] == 1
        oracle = WorldsOracle(game, views, worlds, avail)
        profile = {0: (0, 0), 1: (1, 0)}
        space = enumerate_actions(2, 2)
        assert list(oracle.scaled_values(0, space, profile)) == \
            ref_scaled_values(oracle, 0, space, profile)


class TestStochasticEquivalence:
    def test_expected_oracle_matches_loops(self):
        rng = random.Random(777)
        for _case in range(25):
            game, n_edges = random_instance(rng)
            dist = uniform_profile_distribution(game.net, game.fleet.values())
            oracle = ExpectedUtilityOracle(game, dist)
            spaces = spaces_for_fleet(game.fleet.values())
            profile = random_profile(rng, spaces)
            for vid in game.vehicle_ids:
                fast = list(oracle.scaled_values(vid, spaces[vid], profile))
                slow = ref_scaled_values(oracle, vid, spaces[vid], profile)
                assert fast == slow

    def test_sampled_oracle_matches_loops(self):
        rng = random.Random(778)
        for _case in range(15):
            game, n_edges = random_instance(rng, n_profiles=3)
            dist = uniform_profile_distribution(game.net, game.fleet.values())
            oracle = SampledUtilityOracle(game, dist, draws=8, seed=_case)
            spaces = spaces_for_fleet(game.fleet.values())
            profile = random_profile(rng, spaces)
            for vid in game.vehicle_ids:
                fast = list(oracle.scaled_values(vid, spaces[vid], profile))
                slow = ref_scaled_values(oracle, vid, spaces[vid], profile)
                assert fast == slow

    def test_tiny_probability_is_exact(self):
        """A 2**-70 weight gives Python-int values equal to the reference."""
        net = make_net([(0, 0, 1, 100, 3, (0, 1))],
                       profiles={0: {}, 1: {(0, 0): 1}})
        game = make_game(net, [(0, (0,), 0, 1), (1, (0,), 0, 1)])
        eps = Fraction(1, 2 ** 70)
        dist = ScenarioDistribution(edge_profiles={0: ((0, eps), (1, 1 - eps))},
                                    start_steps={0: ((0, Fraction(1)),),
                                                 1: ((0, Fraction(1)),)})
        oracle = ExpectedUtilityOracle(game, dist)
        space = enumerate_actions(1, 1)
        profile = {0: (0,), 1: (0,)}
        vals = oracle.scaled_values(0, space, profile)
        assert vals.dtype == object and oracle._tables[0].weights.dtype == object
        assert vals.tolist() == ref_scaled_values(oracle, 0, space, profile)


class TestHorizonEquivalence:
    def closed_loop_pair(self, kind, seed, monkeypatch):
        rng = random.Random(seed)
        game, n_edges = random_instance(rng, n_profiles=3)
        dist = uniform_profile_distribution(game.net, game.fleet.values())
        truth = Scenario(profile_assignment={k: rng.randrange(3)
                                             for k in range(n_edges)},
                         start_steps={})
        policy = PolicySpec(kind=kind, horizon=2)
        fast = run_closed_loop(game, dist, truth, policy, seed=seed)
        used = []

        def reference(oracle, vid, actions, profile):
            used.append(1)
            return ref_scaled_values(oracle, vid, actions, profile)

        monkeypatch.setattr(WorldsOracle, "scaled_values", reference)
        slow = run_closed_loop(game, dist, truth, policy, seed=seed)
        assert used, "the reference never ran"
        return fast, slow

    @pytest.mark.parametrize("kind", ["drhs", "srhs"])
    def test_traces_identical_with_and_without_table(self, kind, monkeypatch):
        for seed in (0, 1, 2, 3, 4):
            fast, slow = self.closed_loop_pair(kind, seed, monkeypatch)
            monkeypatch.undo()
            assert fast == slow


def horizon_game(rng):
    """A horizon game on a 3-edge line: vehicle 0 plays from its origin,
    vehicle 1 is on edge 0 and plays the two nodes after it, vehicle 2 is
    an environment track with fixed waits; 8 weighted worlds."""
    profiles = {pid: {(k, t): rng.randint(0, 3) for k in range(3)
                      for t in range(20) if rng.random() < 0.4}
                for pid in range(2)}
    net = make_net([(k, k, k + 1, rng.choice((50, 100, 150)),
                     rng.randint(1, 3), (0, 1)) for k in range(3)],
                   profiles=profiles)
    game = make_game(net, [(vid, (0, 1, 2), 0, rng.randint(1, 3))
                           for vid in range(3)])
    budget = {vid: game.fleet[vid].waiting_budget_steps for vid in range(3)}
    env_waits = rng.choice(enumerate_actions(3, budget[2]))
    views = [HorizonView(vid=0, kind="at_node", span_nodes=(0, 1),
                         window_edges=(0, 1), committed=(0, 0),
                         budget_left=budget[0], player=True),
             HorizonView(vid=1, kind="on_edge", span_nodes=(1, 2),
                         window_edges=(1, 2), committed=(0, 0),
                         budget_left=budget[1], player=True,
                         current_edge=0, entered_at=0),
             HorizonView(vid=2, kind="at_node", span_nodes=(0, 1, 2),
                         window_edges=(0, 1, 2), committed=env_waits,
                         budget_left=budget[2], player=False)]
    dist = uniform_profile_distribution(net, game.fleet.values())
    weighted = enumerate_support(dist)
    per_world = []
    for scenario, _p in weighted:
        travel = reference_inputs(game, scenario)[1]
        per_world.append({0: rng.randint(0, 3), 1: travel(0, 0), 2: rng.randint(0, 3)})
    return game, WorldsOracle(game, views, static_worlds(game, weighted),
                              avail_of(views, per_world))


# routes over hubs 0-1-2-3 and edge 3 back from hub 1 to hub 0: the second
# enters edge 0 twice
LOOP_ROUTES = ((0, 1, 2), (0, 3, 0, 1, 2), (1, 2), (3, 0, 1))


def random_horizon_game(rng, w):
    """A seeded horizon game over ``w`` weighted worlds of two profiles per
    edge. Players 0 and 1 share a window length with budgets 1 and 4,
    player 2's window enters edge 0 twice and the last track is an
    environment track; the others are drawn. Returns the oracle, the
    players' spaces and a profile in them."""
    profiles = {pid: {(k, t): rng.randint(0, 3) for k in range(4)
                      for t in range(30) if rng.random() < 0.4}
                for pid in range(2)}
    net = make_net([(eid, tail, head, rng.choice((50, 100, 150)),
                     rng.randint(1, 3), (0, 1))
                    for eid, tail, head in ((0, 0, 1), (1, 1, 2), (2, 2, 3),
                                            (3, 1, 0))], profiles=profiles)
    tracks = [(LOOP_ROUTES[0], 0, 2, 1, True), (LOOP_ROUTES[2], 0, 2, 4, True),
              (LOOP_ROUTES[1], 0, 3, rng.randint(0, 4), True)]
    for _k in range(rng.randint(2, 6)):
        seq = rng.choice(LOOP_ROUTES)
        first = rng.randrange(len(seq))
        tracks.append((seq, first, rng.randint(1, min(3, len(seq) - first)),
                       rng.randint(0, 4), rng.random() < 0.5))
    tracks.append((LOOP_ROUTES[1], 1, 3, rng.randint(0, 4), False))
    views = []
    for vid, (seq, first, length, budget, player) in enumerate(tracks):
        span = tuple(range(first, first + length))
        views.append(HorizonView(vid=vid, kind="at_node", span_nodes=span,
                                 window_edges=tuple(seq[k] for k in span),
                                 committed=rng.choice(action_space(length, budget)),
                                 budget_left=budget, player=player))
    game = make_game(net, [(vid, seq, 0, budget)
                           for vid, (seq, _f, _n, budget, _p) in enumerate(tracks)])
    matrix, edges = net.travel_matrix, sorted(net.edges)
    weights = [rng.randint(1, 5) for _k in range(w)]
    worlds = Worlds.of(matrix, weights, sum(weights), edges,
                       {eid: [matrix.index[(eid, rng.randrange(2))] for _k in range(w)]
                        for eid in edges}, {})
    avail = np.array([[rng.randint(0, 6) for _k in range(w)] for _v in views],
                     dtype=np.int64)
    oracle = WorldsOracle(game, views, worlds, avail)
    spaces = {vid: action_space(len(oracle.views[vid].span_nodes),
                                oracle.views[vid].budget_left)
              for vid in oracle.players}
    return oracle, spaces, {vid: v.committed for vid, v in oracle.views.items()
                            if v.player}


class TestBatchedValues:
    """A horizon round's one pass per window length against each player
    valued alone, and both against the reference loop."""

    @pytest.mark.parametrize("w", [1, 16])
    def test_batched_values_equal_single_and_loop(self, w):
        rng = random.Random(f"batched:{w}")
        checked = 0
        for _case in range(12):
            oracle, spaces, profile = random_horizon_game(rng, w)
            for _trial in range(2):
                [table] = oracle._dense(profile)
                table.sync(profile, oracle.players)
                batch = oracle._round_values([table])
                assert sorted(batch) == list(oracle.players)
                for vid, values in batch.items():
                    single = table.scaled_values(vid, spaces[vid])
                    assert values.tolist() == single.tolist() == \
                        ref_scaled_values(oracle, vid, spaces[vid], profile)
                    checked += len(values)
                profile = random_profile(rng, spaces)
            assert len(oracle._tables) == 1
        assert checked > 1000

    @pytest.mark.parametrize("w", [1, 16])
    def test_any_call_order_gives_the_loop_values(self, w):
        """Players ask in random order, and random players move between
        questions, so a value is read from a pass, valued alone because a
        player on one of its edges moved, or starts a new pass."""
        rng = random.Random(f"call-order:{w}")
        passes = checked = 0
        for _case in range(12):
            oracle, spaces, profile = random_horizon_game(rng, w)
            single = oracle._round_values

            def counted(tables):
                nonlocal passes
                passes += 1
                return single(tables)

            oracle._round_values = counted
            for _call in range(3 * len(spaces)):
                for vid in rng.sample(sorted(spaces), rng.randint(0, 2)):
                    profile[vid] = rng.choice(spaces[vid])
                vid = rng.choice(sorted(spaces))
                assert oracle.scaled_values(vid, spaces[vid], profile).tolist() == \
                    ref_scaled_values(oracle, vid, spaces[vid], profile)
                checked += 1
            assert len(oracle._tables) == 1
        assert passes >= 1 and checked > 100

    def test_small_budget_player_at_the_window_end_is_not_refused(self):
        """Players 0 and 1 share a window length. Player 1 leaves last and
        has no budget, so the window ends at its one entry (step 9 plus 3
        steps of travel). The pass reads player 0's space, with waits up
        to 4; the rows beyond player 1's budget would leave the window,
        and are never walked."""
        net = make_net([(0, 0, 1, 100, 3)])
        game = make_game(net, [(0, (0,), 0, 4), (1, (0,), 0, 0), (2, (0,), 0, 0)])
        views = [HorizonView(vid=vid, kind="at_node", span_nodes=(0,),
                             window_edges=(0,), committed=(0,), budget_left=budget,
                             player=vid < 2)
                 for vid, budget in ((0, 4), (1, 0), (2, 0))]
        worlds = static_worlds(game, [(Scenario({}, {}), Fraction(1))])
        oracle = WorldsOracle(game, views, worlds, avail_of(views, [{0: 0, 1: 9, 2: 2}]))
        spaces = {0: action_space(1, 4), 1: action_space(1, 0)}
        profile = {0: (0,), 1: (0,)}
        # player 0's question starts the pass, which leaves player 1's value
        batch = {0: oracle.scaled_values(0, spaces[0], profile)}
        assert list(oracle._batch) == [1]
        batch[1] = oracle.scaled_values(1, spaces[1], profile)
        [table] = oracle._tables
        assert (table.t0, table.steps) == (0, 13)
        with pytest.raises(InputError, match="outside the tabulated window"):
            table.batch_values([1], spaces[0], [4])
        for vid in (0, 1):
            assert batch[vid].tolist() == \
                ref_scaled_values(oracle, vid, spaces[vid], profile)

    def test_budget_mask_holds_below_the_first_level(self):
        """Players 0 and 1 share a window of two one-step edges. Player 1
        leaves last, at step 9, with no budget, so the window ends at its
        exit (step 11), as does player 0's with its budget spent. The pass
        walks player 0's space, with waits up to 4: unmasked, a first wait
        of 3 or more takes player 1 out of the window at level 0, and the
        prefix (0, 2) at level 1. Masked at every level, the batch values
        both players as they are valued alone."""
        net = make_net([(0, 0, 1, 100, 1), (1, 1, 2, 100, 1)])
        game = make_game(net, [(0, (0, 1), 0, 4), (1, (0, 1), 0, 0),
                               (2, (0, 1), 0, 0)])
        views = [HorizonView(vid=vid, kind="at_node", span_nodes=(0, 1),
                             window_edges=(0, 1), committed=(0, 0),
                             budget_left=budget, player=vid < 2)
                 for vid, budget in ((0, 4), (1, 0), (2, 0))]
        worlds = static_worlds(game, [(Scenario({}, {}), Fraction(1))])
        oracle = WorldsOracle(game, views, worlds, avail_of(views, [{0: 5, 1: 9, 2: 9}]))
        spaces = {0: action_space(2, 4), 1: action_space(2, 0)}
        profile = {0: (4, 0), 1: (0, 0)}
        [table] = oracle._dense(profile)
        assert (table.t0, table.steps) == (5, 7)
        batch = table.batch_values([0, 1], spaces[0], [4, 0])
        for vid, values in zip((0, 1), batch):
            assert values.tolist() == table.scaled_values(vid, spaces[vid]).tolist() \
                == ref_scaled_values(oracle, vid, spaces[vid], profile)
        # player 1 platoons with player 0 and the environment track
        assert batch[1].tolist() == [2 * game.reward_model.reward(3, net.edges[0])]
        for waits in ((3,), (0, 2)):
            with pytest.raises(InputError, match="outside the tabulated window"):
                table.scaled_values(1, [waits + (0,) * (2 - len(waits))])


# a line of hubs 0-8 (edges 0-7) and edge 8 back from hub 2 to hub 0: the
# first route enters edges 0 and 1 twice
TREE_LOOP = (0, 1, 8, 0, 1, 2, 3, 4)


def static_tree_game(rng, w):
    """A seeded static game over ``w`` weighted worlds of two profiles per
    edge: 5 to 8 trucks with budget 4 on routes of 5 to 8 edges, the
    first on ``TREE_LOOP``. Returns the oracle, its spaces and a profile."""
    profiles = {pid: {(k, t): rng.randint(0, 3) for k in range(9)
                      for t in range(80) if rng.random() < 0.4}
                for pid in range(2)}
    rows = [(k, k, k + 1, rng.choice((50, 100, 150)), rng.randint(1, 3), (0, 1))
            for k in range(8)]
    net = make_net(rows + [(8, 2, 0, 100, rng.randint(1, 3), (0, 1))],
                   profiles=profiles)
    routes = [TREE_LOOP]
    for _k in range(rng.randint(4, 7)):
        length = rng.randint(5, 8)
        first = rng.randint(0, 8 - length)
        routes.append(tuple(range(first, first + length)))
    game = make_game(net, [(vid, seq, 0, 4) for vid, seq in enumerate(routes)])
    views, _worlds, _avail = static_game(game, [1], 1, {}, {})
    matrix, edges = net.travel_matrix, sorted(net.edges)
    weights = [rng.randint(1, 5) for _k in range(w)]
    worlds = Worlds.of(matrix, weights, sum(weights), edges,
                       {eid: [matrix.index[(eid, rng.randrange(2))] for _k in range(w)]
                        for eid in edges}, {})
    avail = np.array([[rng.randint(0, 6) for _k in range(w)] for _v in views],
                     dtype=np.int64)
    spaces = spaces_for_fleet(game.fleet.values())
    return WorldsOracle(game, views, worlds, avail), spaces, random_profile(rng, spaces)


def flat_walk(table, vid, actions):
    """Every action entered edge by edge, as (actions x worlds) cells."""
    cols, starts, _cells = table.track(vid)
    acts = np.asarray(actions, dtype=np.int64)
    return table._walk(cols[:, None], starts, acts.T[:, :, None])


def flat_values(table, vid, actions):
    """``scaled_values`` by the flat walk, against a copy of the counts
    with the track's own entries taken out."""
    acts = np.asarray(actions, dtype=np.int64)
    counts = table.counts.reshape(-1).copy()
    cols, _starts, cells = table.track(vid)
    np.subtract.at(counts, cells, 1)
    rewards = np.zeros((len(acts), table.w), dtype=np.int64)
    for c, cell in zip(cols, flat_walk(table, vid, actions)):
        rewards += table._rt[c][counts[cell] + 1]
    return (rewards - table.step_cost * acts.sum(axis=1)[:, None]) @ table.weights


def refused_at(walk):
    """The window position whose entry a walk refuses, or None."""
    k = 0
    try:
        for _cell in walk:
            k += 1
    except InputError:
        return k
    return None


class TestPrefixTree:
    """``EntryTable.scaled_values`` walks the prefix tree of its action
    list; against the flat walk and the reference loop."""

    @pytest.mark.parametrize("w", [1, 16, 100])
    def test_tree_equals_flat_walk_and_loop(self, w):
        rng = random.Random(f"prefix-tree:{w}")
        checked = 0
        for _case in range(3):
            oracle, spaces, profile = static_tree_game(rng, w)
            [table] = oracle._dense(profile)
            counts = table.counts.copy()
            assert len(set(table.track(0)[0].tolist())) < len(TREE_LOOP)
            for vid, space in spaces.items():
                assert 5 <= len(space[0]) <= 8
                tree = table.scaled_values(vid, space)
                assert tree.tolist() == flat_values(table, vid, space).tolist()
                # every 5th action keeps the loop quick over 100 worlds
                assert tree[::5].tolist() == \
                    ref_scaled_values(oracle, vid, space[::5], profile)
                checked += len(space)
            assert np.array_equal(table.counts, counts)    # left untouched
        assert checked > 1500

    def test_single_action_and_unordered_lists(self):
        """A one-action list, as ``WorldsOracle.utility`` asks, a shuffled
        list and one with each action twice in a row share less of the
        tree; each action keeps its value."""
        rng = random.Random("prefix-tree:lists")
        for _case in range(4):
            oracle, spaces, profile = static_tree_game(rng, 16)
            [table] = oracle._dense(profile)
            for vid, space in spaces.items():
                lex = table.scaled_values(vid, space)
                order = rng.sample(range(len(space)), len(space))
                twice = [i for i in order[:30] for _k in (0, 1)]
                for picked in (order, twice, [order[0]]):
                    actions = [space[i] for i in picked]
                    assert table.scaled_values(vid, actions).tolist() == \
                        lex[picked].tolist() == flat_values(table, vid, actions).tolist()
                assert oracle.utility(vid, profile) == Fraction(
                    int(lex[space.index(profile[vid])]), oracle.worlds.scale)

    def test_utility_keeps_no_tree_and_equals_the_loop(self):
        """``WorldsOracle.utility`` reads a player's committed waits off the
        synced table: it values no action list, so no new tree is kept, in
        static and horizon games alike."""
        rng = random.Random("prefix-tree:utility")
        checked = 0
        for case in range(6):
            if case % 2:
                oracle, spaces, profile = random_horizon_game(rng, 16)
            else:
                oracle, spaces, profile = static_tree_game(rng, 16)
            tables = oracle._dense(profile)
            for _trial in range(2):
                kept = set(dense._trees)
                for vid in spaces:
                    want = ref_scaled_values(oracle, vid, [profile[vid]], profile)[0]
                    assert oracle.utility(vid, profile) == \
                        Fraction(want, oracle.worlds.scale)
                    checked += 1
                assert set(dense._trees) == kept and oracle._tables is tables
                profile = random_profile(rng, spaces)
        assert checked > 50

    def test_entry_beyond_the_window_is_refused_where_the_flat_walk_refuses(self):
        """Waits beyond the budget of 4 the window was sized for, added at
        one position of every action, reach past the window from that
        position on; the tree refuses at the same position as the flat
        walk, and values the lists that fit as it does."""
        rng = random.Random("prefix-tree:window")
        refused = []
        for _case in range(4):
            oracle, spaces, profile = static_tree_game(rng, 16)
            [table] = oracle._dense(profile)
            for vid, space in spaces.items():
                k = rng.randrange(len(space[0]))
                extra = rng.randint(0, 40)
                actions = [a[:k] + (a[k] + extra,) + a[k + 1:] for a in space]
                parents, waits, _sums = prefix_tree(actions)
                at = refused_at(flat_walk(table, vid, actions))
                cols, starts, _cells = table.track(vid)
                assert refused_at(table._walk(cols[:, None], starts, waits,
                                              parents=parents)) == at
                if at is None:
                    assert table.scaled_values(vid, actions).tolist() == \
                        flat_values(table, vid, actions).tolist()
                else:
                    with pytest.raises(InputError, match="outside the tabulated"):
                        table.scaled_values(vid, actions)
                refused.append(at)
        assert refused.count(None) >= 3 and len(set(refused) - {None, 0}) >= 3


def full_route_oracle(kind, rng, case):
    """A static game of the given construction plus its weighted scenarios."""
    game, n_edges = random_instance(rng)
    dist = uniform_profile_distribution(game.net, game.fleet.values())
    if kind == "deterministic":
        s = Scenario(profile_assignment={k: rng.randrange(2)
                                         for k in range(n_edges)},
                     start_steps={})
        return game, DeterministicOracle(game, s), [(s, Fraction(1))]
    if kind == "exact":
        return game, ExpectedUtilityOracle(game, dist), enumerate_support(dist)
    return game, SampledUtilityOracle(game, dist, draws=4, seed=case), [
        (s, Fraction(1, 4)) for s in sample_scenarios(dist, 4, random.Random(case))]


class TestSplitTables:
    """Worlds too many for ``MAX_TABLE_CELLS`` go to several tables, one per
    slice of the worlds, whose values add up to one table's."""

    @pytest.mark.parametrize("kind", ["deterministic", "exact", "sampled",
                                      "horizon"])
    def test_split_values_equal_one_table(self, kind, monkeypatch):
        def build(case):
            rng = random.Random(f"split:{kind}:{case}")
            if kind == "horizon":
                return random_horizon_game(rng, 16)[:2]
            game, oracle, _weighted = full_route_oracle(kind, rng, case)
            return oracle, spaces_for_fleet(game.fleet.values())

        rng = random.Random(f"split:{kind}")
        wholes = []
        for case in range(6):
            whole, spaces = build(case)
            [table] = whole._dense(random_profile(rng, spaces))
            wholes.append((whole, spaces, len(table.col) * table.steps))
        split_tables = 0
        for case, (whole, spaces, cells) in enumerate(wholes):
            per = 1 + case % 3
            monkeypatch.setattr(dense, "MAX_TABLE_CELLS", per * cells)
            split = build(case)[0]
            for _trial in range(2):
                profile = random_profile(rng, spaces)
                tables = split._dense(profile)
                assert len(tables) == -(-len(split.worlds.weights) // per)
                split_tables += len(tables) - 1
                batch = split._round_values(tables)
                want = whole._round_values(whole._dense(profile))
                for vid, space in spaces.items():
                    assert batch[vid].tolist() == want[vid].tolist()
                    assert split.scaled_values(vid, space, profile).tolist() == \
                        whole.scaled_values(vid, space, profile).tolist()
                    assert sum(t.scaled_values(vid, space) for t in tables).tolist() \
                        == want[vid].tolist()
                    assert split.utility(vid, profile) == whole.utility(vid, profile)
                assert split.potential(profile) == whole.potential(profile)
        assert split_tables >= (0 if kind == "deterministic" else 10)


def recount(table):
    """The entries of each cell, counted from every track's own cells."""
    want = np.zeros(table.counts.size, dtype=np.int64)
    for vid in table._waits:
        np.add.at(want, table.track(vid)[2].reshape(-1), 1)
    return want.reshape(table.counts.shape)


def ref_held_potential(oracle, vids, profile):
    """scale * expected ``ref_potential`` of the tracks ``vids``, world by
    world, a player with its waits in ``profile`` and any other with its
    committed ones."""
    edges = oracle.game.net.edges
    lengths = {eid: e.length_km for eid, e in edges.items()}
    rows = {v.vid: (i, v) for i, v in enumerate(oracle.views.values())}
    waits = {vid: profile[vid] if rows[vid][1].player else rows[vid][1].committed
             for vid in vids}
    total = 0
    for k, weight in enumerate(oracle.worlds.weights):
        vehicles = {vid: (int(oracle.avail[rows[vid][0], k]), rows[vid][1].window_edges)
                    for vid in vids}
        total += weight * ref_potential(vehicles, waits, oracle.worlds.travel(k, edges),
                                        lengths)
    return total


class TestStoredTables:
    """A table stores exit steps and reward indices. What they derive,
    ``counts`` and ``travel``, must stay every track's recount and base
    plus the matrix delay through commits, and a refused valuation or
    commit must leave them as they were."""

    @pytest.mark.parametrize("kind", ["deterministic", "exact", "sampled",
                                      "horizon"])
    def test_commits_keep_the_stored_tables_consistent(self, kind, monkeypatch):
        def build(case):
            rng = random.Random(f"stored:{kind}:{case}")
            if kind == "horizon":
                return random_horizon_game(rng, 16)[:2]
            game, oracle, _weighted = full_route_oracle(kind, rng, case)
            return oracle, spaces_for_fleet(game.fleet.values())

        rng = random.Random(f"stored:{kind}")
        limit = dense.MAX_TABLE_CELLS
        split_tables = syncs = 0
        for case in range(6):
            oracle, spaces = build(case)
            if case % 2:    # the same game, one or two worlds per table
                [table] = oracle._dense(random_profile(rng, spaces))
                monkeypatch.setattr(dense, "MAX_TABLE_CELLS",
                                    (1 + case // 2 % 2) * len(table.col) * table.steps)
                oracle = build(case)[0]
            profile = random_profile(rng, spaces)
            for _sync in range(6):
                for vid in rng.sample(sorted(spaces), rng.randint(1, len(spaces))):
                    profile[vid] = rng.choice(spaces[vid])
                tables = oracle._dense(profile)
                for table in tables:
                    assert np.array_equal(table.counts, recount(table))
                for vid in oracle.players:
                    want = ref_scaled_values(oracle, vid, [profile[vid]], profile)[0]
                    assert oracle.utility(vid, profile) == \
                        Fraction(want, oracle.worlds.scale)
                assert oracle.potential(profile) == Fraction(
                    ref_held_potential(oracle, tables[0]._waits, profile),
                    oracle.worlds.scale)
                syncs += 1
            first = 0
            for table in tables:
                steps = range(table.t0, table.t0 + table.steps)
                for w in range(table.w):
                    travel = oracle.worlds.travel(first + w, oracle.game.net.edges)
                    for eid, c in table.col.items():
                        assert table.travel[w, c].tolist() == [travel(eid, t) for t in steps]
                first += table.w
            assert first == len(oracle.worlds.weights)
            split_tables += len(tables) - 1
            monkeypatch.setattr(dense, "MAX_TABLE_CELLS", limit)
        assert syncs == 36
        assert split_tables >= (0 if kind == "deterministic" else 6)

    def test_a_refused_valuation_or_commit_leaves_the_table_as_it_was(self):
        """Waits of 100 more steps at one position leave every window; the
        values that follow equal a freshly built oracle's."""
        rng = random.Random("stored:refused")
        refused = 0
        for _case in range(4):
            oracle, spaces, profile = static_tree_game(rng, 16)
            [table] = oracle._dense(profile)
            counts, travel = table.counts, table.travel
            for vid, space in spaces.items():
                k = rng.randrange(len(space[0]))
                beyond = [a[:k] + (a[k] + 100,) + a[k + 1:] for a in space]
                with pytest.raises(InputError, match="outside the tabulated"):
                    table.scaled_values(vid, beyond)
                with pytest.raises(InputError, match="outside the tabulated"):
                    table.commit(vid, beyond[0])
                assert np.array_equal(table.counts, counts)
                assert table._waits[vid] == tuple(profile[vid])
                refused += 2
            assert np.array_equal(table.travel, travel)
            fresh = WorldsOracle(oracle.game, list(oracle.views.values()),
                                 oracle.worlds, oracle.avail)
            for vid, space in spaces.items():
                assert table.scaled_values(vid, space).tolist() == \
                    fresh.scaled_values(vid, space, profile).tolist()
                assert oracle.utility(vid, profile) == fresh.utility(vid, profile)
            assert oracle.potential(profile) == fresh.potential(profile)
        assert refused >= 40


class TestWaitLengths:
    """A wait vector whose length is not its track's window's is refused,
    in a valuation, a first build and a commit; none changes a table."""

    @staticmethod
    def two_trucks(line_net):
        game = make_game(line_net, [(0, (0, 1, 2), 0, 2), (1, (0, 1, 2), 0, 2)])
        return DeterministicOracle(game, Scenario(profile_assignment={},
                                                  start_steps={}))

    def test_actions_of_the_wrong_length_are_refused(self, line_net):
        oracle = self.two_trucks(line_net)
        profile = {0: (0, 0, 0), 1: (0, 0, 0)}
        for actions, match in (([(0, 0)], "2 waits for a window of 3 edges"),
                               ([(0, 0, 0, 0)], "4 waits for a window of 3 edges"),
                               ([(0, 0, 0), (0, 0)], "wait vectors of different lengths")):
            with pytest.raises(InputError, match=match):
                oracle.scaled_values(0, actions, profile)
        space = enumerate_actions(3, 2)
        assert list(oracle.scaled_values(0, space, profile)) == \
            ref_scaled_values(oracle, 0, space, profile)

    def test_a_profile_of_the_wrong_length_is_refused(self, line_net):
        with pytest.raises(InputError, match="2 waits for a window of 3 edges"):
            self.two_trucks(line_net).utility(0, {0: (0, 0), 1: (0, 0, 0)})
        oracle = self.two_trucks(line_net)
        profile = {0: (0, 0, 0), 1: (1, 0, 0)}
        want = ref_scaled_values(oracle, 0, [profile[0]], profile)[0]
        assert oracle.utility(0, profile) == want
        [table] = oracle._tables
        counts = table.counts
        with pytest.raises(InputError, match="2 waits for a window of 3 edges"):
            oracle.utility(0, {0: (0, 0, 0), 1: (0, 0)})
        with pytest.raises(InputError, match="4 waits for a window of 3 edges"):
            table.commit(1, (0, 0, 0, 0))
        assert np.array_equal(table.counts, counts)
        assert oracle.utility(0, profile) == want


class TestTrackRows:
    """A game's tracks are one array of rows sorted by window length and
    shared by its world slices. One table holds a player and an
    environment track of each window length, 1, 2 and 3, over slices of
    one or two of the 8 worlds."""

    @staticmethod
    def sliced(rng, per, monkeypatch):
        """``mixed_length_game``'s oracle and start profile, with its
        tables cut to ``per`` worlds each."""
        game, views, worlds, avail, ref_travel, waits = mixed_length_game(rng)
        monkeypatch.undo()    # the whole table, under the real limit
        [whole] = entry_tables(game, views, worlds, avail, waits)
        monkeypatch.setattr(dense, "MAX_TABLE_CELLS", per * len(whole.col) * whole.steps)
        oracle = WorldsOracle(game, views, worlds, avail)
        return oracle, {vid: waits[vid] for vid in oracle.players}, ref_travel

    @pytest.mark.parametrize("per", [1, 2])
    def test_slices_hold_every_length_as_the_references(self, per, monkeypatch):
        rng = random.Random(f"rows:{per}")
        checked = 0
        for _case in range(3):
            oracle, profile, ref_travel = self.sliced(rng, per, monkeypatch)
            views = list(oracle.views.values())
            for _commit in range(2):
                tables = oracle._dense(profile)
                assert [table.w for table in tables] == [per] * (8 // per)
                first = 0
                for table in tables:
                    assert np.array_equal(table.counts, recount(table))
                    steps = range(table.t0, table.t0 + table.steps)
                    for w in range(table.w):
                        for eid, c in table.col.items():
                            assert table.travel[w, c].tolist() == \
                                [ref_travel[first + w](eid, t) for t in steps]
                    for i, view in enumerate(views):
                        cols, starts, cells = table.track(view.vid)
                        assert cols.tolist() == [table.col[e] for e in view.window_edges]
                        assert starts.tolist() == \
                            (oracle.avail[i, first:first + per] - table.t0).tolist()
                        assert cells.shape == (len(view.window_edges), per)
                    first += table.w
                for length in (1, 2, 3):
                    pair = [v for v in views if len(v.window_edges) == length]
                    assert sorted(v.player for v in pair) == [False, True]
                    budgets = [v.budget_left for v in pair]
                    space = action_space(length, max(budgets))
                    batch = [sum(got) for got in zip(*(
                        table.batch_values([v.vid for v in pair], space, budgets)
                        for table in tables))]
                    for view, values in zip(pair, batch):
                        own = action_space(length, view.budget_left)
                        want = ref_scaled_values(oracle, view.vid, own, profile)
                        assert values.tolist() == want == \
                            sum(t.scaled_values(view.vid, own) for t in tables).tolist()
                        checked += len(want)
                player = rng.choice(oracle.players)
                profile[player] = rng.choice(action_space(
                    len(oracle.views[player].window_edges), oracle.views[player].budget_left))
        assert checked > 100

    @pytest.mark.parametrize("per", [1, 2])
    def test_a_refused_build_leaves_no_table(self, per, monkeypatch):
        """Waits of the wrong length, and a wait of -50 that enters before
        the window, refuse the whole build; a good profile then builds
        tables that value as the reference does."""
        oracle, profile, _ref = self.sliced(random.Random(f"refused:{per}"), per, monkeypatch)
        player = oracle.players[0]
        length = len(oracle.views[player].window_edges)
        for waits, match in (((0,) * (length + 1), f"{length + 1} waits for a window"),
                             ((-50,) + (0,) * (length - 1), "outside the tabulated window")):
            with pytest.raises(InputError, match=match):
                oracle._dense({**profile, player: waits})
            assert oracle._tables == []
        for vid in oracle.players:
            space = action_space(len(oracle.views[vid].window_edges),
                                 oracle.views[vid].budget_left)
            assert oracle.scaled_values(vid, space, profile).tolist() == \
                ref_scaled_values(oracle, vid, space, profile)
        assert len(oracle._tables) == 8 // per

    def test_a_batch_of_mixed_lengths_is_refused(self, monkeypatch):
        """Tracks of window lengths 1 and 3 in one ``batch_values`` call are
        refused, whichever comes first: the rows are read to the first
        one's length, so the other's values would be wrong."""
        oracle, profile, _ref = self.sliced(random.Random("mixed-batch"), 8, monkeypatch)
        [table] = oracle._dense(profile)
        counts = table.counts
        by_length = {len(oracle.views[vid].window_edges): vid for vid in oracle.players}
        for vids in ((by_length[1], by_length[3]), (by_length[3], by_length[1])):
            with pytest.raises(InputError, match="tracks of different window lengths"):
                table.batch_values(list(vids), action_space(3, 4), [4, 4])
        assert np.array_equal(table.counts, counts)


class TestOraclePotential:
    """The one oracle's potential, checked for each way it is built."""

    @pytest.mark.parametrize("kind", ["deterministic", "exact", "sampled",
                                      "horizon"])
    def test_deviation_moves_potential_by_utility(self, kind):
        rng = random.Random(f"potential:{kind}")
        triples = 0
        for case in range(20):
            if kind == "horizon":
                game, oracle = horizon_game(rng)
            else:
                game, oracle, _weighted = full_route_oracle(kind, rng, case)
            spaces = {vid: enumerate_actions(len(oracle.views[vid].span_nodes),
                                             oracle.views[vid].budget_left)
                      for vid in oracle.players}
            for _trial in range(5):
                profile = random_profile(rng, spaces)
                vid = rng.choice(sorted(spaces))
                moved = dict(profile)
                moved[vid] = rng.choice(spaces[vid])
                d_phi = oracle.potential(moved) - oracle.potential(profile)
                d_u = oracle.utility(vid, moved) - oracle.utility(vid, profile)
                assert d_phi == d_u, f"case {case}: {d_phi} != {d_u}"
                triples += 1
        assert triples == 100

    @pytest.mark.parametrize("kind", ["deterministic", "exact", "sampled"])
    def test_full_routes_match_reference(self, kind):
        rng = random.Random(f"reference:{kind}")
        number = int if kind == "deterministic" else Fraction
        for case in range(20):
            game, oracle, weighted = full_route_oracle(kind, rng, case)
            spaces = spaces_for_fleet(game.fleet.values())
            for _trial in range(3):
                profile = random_profile(rng, spaces)
                want_phi = 0
                want_u = {vid: 0 for vid in game.vehicle_ids}
                for scenario, prob in weighted:
                    vehicles, travel, lengths = reference_inputs(game, scenario)
                    want_phi += prob * ref_potential(vehicles, profile, travel,
                                                     lengths)
                    for vid in game.vehicle_ids:
                        want_u[vid] += prob * ref_utility(vid, vehicles, profile,
                                                          travel, lengths)
                phi = oracle.potential(profile)
                assert type(phi) is number and phi == want_phi
                for vid in game.vehicle_ids:
                    u = oracle.utility(vid, profile)
                    assert type(u) is number and u == want_u[vid]


class TestStratifiedSampling:
    def two_marginal_dist(self):
        return ScenarioDistribution(
            edge_profiles={0: ((0, Fraction(1, 4)), (1, Fraction(3, 4))),
                           1: ((0, Fraction(1, 2)), (1, Fraction(1, 2)))},
            start_steps={0: ((5, Fraction(1)),)})

    def test_marginal_counts_are_proportional(self):
        dist = self.two_marginal_dist()
        draws = 16
        out = sample_scenarios(dist, draws, random.Random(3))
        assert len(out) == draws
        c0 = sum(s.profile_assignment[0] for s in out)
        c1 = sum(s.profile_assignment[1] for s in out)
        assert c0 == 12     # 3/4 of 16 exactly
        assert c1 == 8      # 1/2 of 16 exactly
        assert all(s.start_steps == {0: 5} for s in out)

    def test_deterministic_for_a_seed(self):
        dist = self.two_marginal_dist()
        a = sample_scenarios(dist, 8, random.Random(11))
        b = sample_scenarios(dist, 8, random.Random(11))
        assert a == b


def plain_round_robin(oracle, spaces, initial, order):
    """Round-robin best response that takes every turn, as (profile,
    rounds, evaluations)."""
    profile = dict(initial)
    rounds = evaluations = 0
    changed = True
    while changed:
        rounds += 1
        changed = False
        for vid in order:
            waits, n_eval = best_response(oracle, vid, spaces[vid], profile)
            evaluations += n_eval
            changed |= waits != profile[vid]
            profile[vid] = waits
    return profile, rounds, evaluations


class TestSkippedTurns:
    """``nash_seek`` skips a turn when no player on one of the player's
    window edges has moved since its last; it must reach what a plain
    round robin reaches, from the default or a random start and order."""

    @pytest.mark.parametrize("kind", ["deterministic", "exact", "sampled",
                                      "horizon-1", "horizon-16"])
    def test_skipping_search_equals_a_plain_round_robin(self, kind, monkeypatch):
        taken = []
        monkeypatch.setattr(solver, "best_response",
                            lambda *args: taken.append(args[1]) or best_response(*args))
        turns = 0

        def build(case):
            rng = random.Random(f"skip:{kind}:{case}")
            if kind.startswith("horizon"):
                oracle, spaces, _profile = random_horizon_game(rng, int(kind[8:]))
                return oracle, spaces
            game, oracle, _weighted = full_route_oracle(kind, rng, case)
            return oracle, spaces_for_fleet(game.fleet.values())

        for case in range(24):
            oracle, spaces = build(case)
            rng = random.Random(case)
            initial = random_profile(rng, spaces) if case % 2 else None
            order = rng.sample(sorted(spaces), len(spaces)) if case % 3 else None
            want = plain_round_robin(
                build(case)[0], spaces,
                initial or {vid: space[0] for vid, space in spaces.items()},
                order or sorted(spaces))
            before = len(taken)
            got = nash_seek(oracle, spaces, initial=initial, order=order)
            assert (got.profile, got.rounds, got.evaluations) == want, case
            turns += got.rounds * len(spaces) - (len(taken) - before)
        assert turns >= 15   # turns skipped: 19 to 71 of each kind's cases

    @pytest.mark.parametrize("w", [1, 16])
    def test_a_pass_values_only_turns_that_are_taken(self, w, monkeypatch):
        """While ``nash_seek`` runs, a horizon round's batched pass values
        the asker and the players whose next turn is taken, not the ones
        it skips; after it, a pass values every player again."""
        taken, passes = [], []
        monkeypatch.setattr(solver, "best_response",
                            lambda *args: taken.append(args[1]) or best_response(*args))
        left_out = 0
        for case in range(12):
            oracle, spaces, profile = random_horizon_game(random.Random(f"due:{w}:{case}"), w)
            ids = sorted(spaces)
            single = oracle._round_values

            def recorded(tables, single=single):
                got = single(tables)
                passes.append((len(taken) - 1, {q for q, v in got.items() if v is not None}))
                return got

            oracle._round_values = recorded
            before, first = len(taken), len(passes)
            report = nash_seek(oracle, spaces, initial=profile)
            # each taken turn's place in the cycle of turns over ``ids``
            at, turn = [], -1
            for vid in taken[before:]:
                turn += 1 + (ids.index(vid) - turn - 1) % len(ids)
                at.append(turn)
            for i, valued in passes[first:]:
                asker, after = taken[i], at[i - before]
                left_out += len(ids) - len(valued)
                for q in valued - {asker}:
                    # q's next turn after the pass is among those taken
                    nxt = after + 1 + (ids.index(q) - after - 1) % len(ids)
                    assert nxt in at, (case, q)
            assert report.rounds * len(ids) > len(taken) - before
            assert oracle.due is None
            assert sorted(oracle._round_values(oracle._tables)) == ids
            assert passes[-1][1] == set(ids)
        assert left_out > 0
