import itertools
import random
from fractions import Fraction

import pytest

from conftest import make_game, make_net
from hubplatoon.errors import FormatError, InputError, SupportTooLargeError
from hubplatoon.game import Scenario, scaled_weights
from hubplatoon.solver import nash_seek, profile_row, spaces_for_fleet
from hubplatoon.stochastic import (DEFAULT_SUPPORT_CAP, ExpectedUtilityOracle,
                                   SampledUtilityOracle, ScenarioDistribution,
                                   degenerate_distribution,
                                   distribution_from_dict,
                                   distribution_to_dict, enumerate_support,
                                   load_distribution, sample_scenario,
                                   sample_scenarios, save_distribution,
                                   stochastic_oracle,
                                   uniform_profile_distribution)

HALF = Fraction(1, 2)


def two_edge_setup(v1_start=3):
    """Edge 0 delays by one step (profile 1) at entry 0 with prob 1/2."""
    net = make_net([(0, 0, 1, 100, 3, (0, 1)), (1, 1, 2, 100, 3)],
                   profiles={0: {}, 1: {(0, 0): 1}})
    game = make_game(net, [(0, (0, 1), 0, 2), (1, (1,), v1_start, 2)])
    dist = uniform_profile_distribution(net, game.fleet.values())
    return net, game, dist


class TestDistribution:
    def test_uniform_profile_distribution(self):
        net, game, dist = two_edge_setup()
        assert dist.edge_profiles == {0: ((0, HALF), (1, HALF))}
        assert dist.start_steps == {0: ((0, Fraction(1)),),
                                    1: ((3, Fraction(1)),)}
        assert dist.support_size() == 2

    def test_degenerate_distribution(self):
        s = Scenario(profile_assignment={0: 1}, start_steps={0: 5})
        dist = degenerate_distribution(s)
        assert dist.support_size() == 1
        [(only, prob)] = enumerate_support(dist)
        assert prob == 1
        assert only.profile_assignment == {0: 1}
        assert only.start_steps == {0: 5}

    @pytest.mark.parametrize("pairs, message", [
        (((0, HALF), (1, Fraction(1, 3))), "sum to"),
        (((0, Fraction(0)), (1, Fraction(1))), "positive Fraction"),
        (((0, 0.5), (1, 0.5)), "positive Fraction"),
        (((0, HALF), (0, HALF)), "repeats value"),
        ((), "empty marginal"),
    ])
    def test_validation_rejects_bad_marginals(self, pairs, message):
        with pytest.raises(InputError, match=message):
            ScenarioDistribution(edge_profiles={0: tuple(pairs)}, start_steps={})

    def test_support_enumeration_order_and_probabilities(self):
        dist = ScenarioDistribution(
            edge_profiles={2: ((5, HALF), (6, HALF)),
                           0: ((1, Fraction(1, 3)), (9, Fraction(2, 3)))},
            start_steps={7: ((10, Fraction(3, 4)), (11, Fraction(1, 4)))})
        support = enumerate_support(dist)
        assert len(support) == 8
        assert sum(p for _s, p in support) == 1
        # axes iterate in sorted key order: edge 0, edge 2, vehicle 7
        first, p0 = support[0]
        assert first.profile_assignment == {0: 1, 2: 5}
        assert first.start_steps == {7: 10}
        assert p0 == Fraction(1, 3) * HALF * Fraction(3, 4)
        seen = {(tuple(sorted(s.profile_assignment.items())),
                 tuple(sorted(s.start_steps.items()))) for s, _p in support}
        assert len(seen) == 8

    def test_support_cap_raises(self):
        net, game, dist = two_edge_setup()
        with pytest.raises(SupportTooLargeError, match="above the cap"):
            enumerate_support(dist, cap=1)

    def test_sampling_is_deterministic_and_roughly_uniform(self):
        net, game, dist = two_edge_setup()
        a = [sample_scenario(dist, random.Random(7)) for _ in range(5)]
        b = [sample_scenario(dist, random.Random(7)) for _ in range(5)]
        assert a == b
        rng = random.Random(123)
        hits = sum(sample_scenario(dist, rng).profile_assignment[0] == 1
                   for _ in range(400))
        assert 140 <= hits <= 260


class TestExpectations:
    """Hand-computed expectations, read through the exact oracle."""

    def test_frozen_expected_values(self):
        net, game, dist = two_edge_setup(v1_start=3)
        oracle = ExpectedUtilityOracle(game, dist)
        zero = {0: (0, 0), 1: (0,)}
        # platoon on edge 1 happens only in the undelayed world: 8500 / 2
        assert oracle.utility(0, zero) == Fraction(4250)
        assert oracle.utility(1, zero) == Fraction(4250)
        assert oracle.potential(zero) == Fraction(4250)
        late = {0: (0, 0), 1: (1,)}
        # now the platoon needs the delay; one waited step always paid
        assert oracle.utility(1, late) == Fraction(2050)
        assert oracle.potential(late) == Fraction(2050)

    def test_expected_change_matches_potential_change(self):
        net, game, dist = two_edge_setup()
        oracle = ExpectedUtilityOracle(game, dist)
        zero = {0: (0, 0), 1: (0,)}
        late = {0: (0, 0), 1: (1,)}
        du = oracle.utility(1, late) - oracle.utility(1, zero)
        dphi = oracle.potential(late) - oracle.potential(zero)
        assert du == dphi == Fraction(-2200)

    def test_exactness_with_thirds(self):
        net = make_net([(0, 0, 1, 100, 3, (0, 1)), (1, 1, 2, 100, 3)],
                       profiles={0: {}, 1: {(0, 0): 1}})
        game = make_game(net, [(0, (0, 1), 0, 2), (1, (1,), 3, 2)])
        dist = ScenarioDistribution(
            edge_profiles={0: ((0, Fraction(1, 3)), (1, Fraction(2, 3)))},
            start_steps={0: ((0, Fraction(1)),), 1: ((3, Fraction(1)),)})
        got = ExpectedUtilityOracle(game, dist).utility(0, {0: (0, 0), 1: (0,)})
        assert got == Fraction(8500, 3)
        assert got.denominator == 3


class TestOracles:
    def test_expected_oracle_action_values(self):
        net, game, dist = two_edge_setup()
        oracle = ExpectedUtilityOracle(game, dist)
        assert oracle.approximate is False
        vals = oracle.action_values(1, [(0,), (1,), (2,)], {0: (0, 0), 1: (0,)})
        assert vals[0] == Fraction(4250)
        assert vals[1] == Fraction(2050)
        # two waits: enters at 5, meets the delayed arrival never (3 or 4)
        assert vals[2] == Fraction(-4400)

    def test_solved_stochastic_game_dodges_uncertainty(self):
        # vehicle 1 starts at 4; waiting one step before the uncertain edge
        # makes vehicle 0's second entry deterministic at step 4
        net, game, dist = two_edge_setup(v1_start=4)
        oracle = ExpectedUtilityOracle(game, dist)
        report = nash_seek(oracle, spaces_for_fleet(game.fleet.values()))
        assert report.profile == {0: (1, 0), 1: (0,)}
        assert oracle.utility(0, report.profile) == \
            Fraction(6300)   # 8500 - 2200, in every scenario

    def test_sampled_oracle_is_seed_deterministic(self):
        net, game, dist = two_edge_setup()
        a = SampledUtilityOracle(game, dist, draws=8, seed=5)
        b = SampledUtilityOracle(game, dist, draws=8, seed=5)
        c = SampledUtilityOracle(game, dist, draws=8, seed=6)
        assert a.approximate is True
        profile = {0: (0, 0), 1: (0,)}
        actions = [(0,), (1,)]
        assert a.action_values(1, actions, profile) == \
            b.action_values(1, actions, profile)
        assert world_arrays(a.worlds) == world_arrays(b.worlds)
        assert world_arrays(a.worlds) != world_arrays(c.worlds) \
            or a.action_values(1, actions, profile) == \
            c.action_values(1, actions, profile)

    def test_sampled_oracle_weights(self):
        net, game, dist = two_edge_setup()
        oracle = SampledUtilityOracle(game, dist, draws=4, seed=0)
        assert (oracle.weighted, oracle.worlds.scale) == ([1] * 4, 4)
        with pytest.raises(InputError):
            SampledUtilityOracle(game, dist, draws=0, seed=0)

    def test_auto_pick_respects_cap(self):
        net, game, dist = two_edge_setup()
        assert isinstance(stochastic_oracle(game, dist), ExpectedUtilityOracle)
        picked = stochastic_oracle(game, dist, cap=1, draws=3, seed=9)
        assert isinstance(picked, SampledUtilityOracle)
        assert picked.draws == 3

    @pytest.mark.parametrize("pid, message", [(9, "unknown delay profile 9"),
                                              (2, "profile 2 is not admissible on edge 0")])
    def test_every_seed_refuses_a_profile_the_network_does_not_admit(self, pid, message):
        """Profile ``pid`` has p = 1/16 on edge 0, so four draws mostly miss
        it; the oracles check the distribution, not their draws."""
        net = make_net([(0, 0, 1, 100, 3, (0, 1)), (1, 1, 2, 100, 3)],
                       profiles={0: {}, 1: {(0, 0): 1}, 2: {}})
        game = make_game(net, [(0, (0, 1), 0, 2), (1, (1,), 3, 2)])
        dist = ScenarioDistribution(
            edge_profiles={0: ((1, Fraction(15, 16)), (pid, Fraction(1, 16)))},
            start_steps={})
        for seed in range(8):
            with pytest.raises(InputError, match=message):
                SampledUtilityOracle(game, dist, draws=4, seed=seed)
        with pytest.raises(InputError, match=message):
            ExpectedUtilityOracle(game, dist)

    def test_degenerate_expectation_equals_deterministic(self):
        from hubplatoon.solver import DeterministicOracle

        net, game, _ = two_edge_setup()
        s = Scenario(profile_assignment={0: 1}, start_steps={0: 0, 1: 3})
        exp = ExpectedUtilityOracle(game, degenerate_distribution(s))
        det = DeterministicOracle(game, s)
        profile = {0: (0, 0), 1: (0,)}
        actions = [(0,), (1,), (2,)]
        assert [Fraction(v) for v in det.action_values(1, actions, profile)] \
            == exp.action_values(1, actions, profile)


def world_arrays(worlds):
    """A set of worlds as plain lists, for comparison."""
    return (list(worlds.weights), worlds.scale, worlds.edges, worlds.rows.tolist(),
            worlds.vids, worlds.starts.tolist())


class TestDistributionJson:
    def round_trip(self, dist):
        return distribution_from_dict(distribution_to_dict(dist))

    def test_round_trip_preserves_fractions(self):
        dist = ScenarioDistribution(
            edge_profiles={0: ((0, Fraction(1, 3)), (1, Fraction(2, 3)))},
            start_steps={4: ((7, Fraction(1)),)})
        again = self.round_trip(dist)
        assert again.edge_profiles == dist.edge_profiles
        assert again.start_steps == dist.start_steps

    def test_file_round_trip(self, tmp_path):
        net, game, dist = two_edge_setup()
        p = tmp_path / "dist.json"
        save_distribution(dist, p)
        assert load_distribution(p).edge_profiles == dist.edge_profiles

    @pytest.mark.parametrize("rows, key", [("edges", "edge 0"), ("starts", "vehicle 4")])
    def test_a_key_listed_twice_is_refused(self, rows, key):
        doc = distribution_to_dict(ScenarioDistribution(
            edge_profiles={0: ((0, Fraction(1)),)}, start_steps={4: ((7, Fraction(1)),)}))
        doc[rows] = doc[rows] * 2
        with pytest.raises(FormatError, match=f"distribution lists {key} twice"):
            distribution_from_dict(doc)

    def test_strict_fields(self):
        doc = distribution_to_dict(ScenarioDistribution(
            edge_profiles={0: ((0, Fraction(1)),)}, start_steps={}))
        with pytest.raises(FormatError, match="unknown fields: junk"):
            distribution_from_dict(dict(doc, junk=1))
        with pytest.raises(FormatError, match="missing fields: starts"):
            distribution_from_dict({"edges": []})
        bad = dict(doc)
        bad["edges"] = [{"edge": 0, "profiles": [{"id": 0, "p_num": 1,
                                                  "p_den": 3}]}]
        with pytest.raises(FormatError, match="sum to"):
            distribution_from_dict(bad)


def random_distribution(rng):
    """Up to three edges and three vehicles, each with one to four values
    of positive, unequal Fraction probabilities; sometimes none at all."""
    def marginal():
        values = rng.sample(range(100), rng.randint(1, 4))
        weights = [rng.randint(1, 9) for _ in values]
        return tuple((v, Fraction(w, sum(weights))) for v, w in zip(values, weights))

    return ScenarioDistribution(
        edge_profiles={eid: marginal() for eid in rng.sample(range(20), rng.randint(0, 3))},
        start_steps={vid: marginal() for vid in rng.sample(range(20), rng.randint(0, 3))})


def reference_support(dist):
    """The joint support as ``itertools.product`` over the Fraction pairs,
    edges before vehicles, by ascending id."""
    eids, vids = sorted(dist.edge_profiles), sorted(dist.start_steps)
    out = []
    for combo in itertools.product(*(dist.edge_profiles[eid] for eid in eids),
                                   *(dist.start_steps[vid] for vid in vids)):
        prob = Fraction(1)
        for _value, p in combo:
            prob *= p
        out.append((Scenario(profile_assignment={eid: combo[i][0] for i, eid in enumerate(eids)},
                             start_steps={vid: combo[len(eids) + j][0]
                                          for j, vid in enumerate(vids)}), prob))
    return out


def reference_systematic(probs, draws, rng):
    """Indices on an evenly spaced grid with one random offset, then shuffled."""
    if len(probs) == 1:
        return [0] * draws
    u = rng.random()
    out = []
    i = 0
    acc = probs[0]
    for k in range(draws):
        x = (u + k) / draws
        while x >= acc:
            if i + 1 == len(probs):
                break
            i += 1
            acc += probs[i]
        out.append(i)
    rng.shuffle(out)
    return out


def reference_sample(dist, draws, seed):
    """One stratified column per marginal from one ``random.Random(seed)``,
    edges before vehicles, by ascending id, paired by position."""
    rng = random.Random(seed)

    def column(pairs):
        return [pairs[i][0] for i in reference_systematic([float(p) for _v, p in pairs],
                                                           draws, rng)]

    edges = {eid: column(dist.edge_profiles[eid]) for eid in sorted(dist.edge_profiles)}
    starts = {vid: column(dist.start_steps[vid]) for vid in sorted(dist.start_steps)}
    return [Scenario(profile_assignment={eid: col[k] for eid, col in edges.items()},
                     start_steps={vid: col[k] for vid, col in starts.items()})
            for k in range(draws)]


class TestDraw:
    """``enumerate_support`` and ``sample_scenarios`` read their worlds
    through ``stochastic.draw``, as ``srhs`` does; here they meet
    references that share no code with it."""

    def test_enumeration_is_the_product_of_the_marginals(self):
        rng = random.Random(1806)
        multi = 0
        for _case in range(60):
            dist = random_distribution(rng)
            got = enumerate_support(dist, dist.support_size())
            assert got == reference_support(dist)
            assert all(type(p) is Fraction for _s, p in got)
            assert all(type(v) is int for s, _p in got
                       for v in (*s.profile_assignment.values(), *s.start_steps.values()))
            multi += dist.support_size() > 1
        assert multi >= 40

    def test_sampling_draws_one_stratified_column_per_marginal(self):
        rng = random.Random(1807)
        for case in range(60):
            dist = random_distribution(rng)
            for draws in (1, 5, 16):
                assert sample_scenarios(dist, draws, random.Random(case)) == \
                    reference_sample(dist, draws, case)


class TestStaticWorlds:
    """The static oracles draw their worlds straight into index arrays,
    as srhs does. They must be the worlds ``enumerate_support`` and
    ``sample_scenarios`` give for the same distribution, in the same order
    and from the same seed."""

    @staticmethod
    def random_game(rng):
        """Edges 0-2 carry trucks 0-2 at most; edge 3 is on no route and
        edge 4 admits every profile (it lists none)."""
        profiles = {pid: {(eid, t): rng.randint(0, 3) for eid in range(5) for t in range(12)
                          if rng.random() < 0.4}
                    for pid in range(3)}
        net = make_net([(eid, eid, eid + 1, 100, rng.randint(1, 3),
                         () if eid == 4 else (0, 1, 2)) for eid in range(5)],
                       profiles=profiles)
        rows = []
        for vid in range(rng.randint(1, 3)):
            first = rng.randrange(3)
            rows.append((vid, tuple(range(first, rng.randrange(first, 3) + 1)),
                         rng.randint(0, 4), 2))
        return make_game(net, rows)

    @staticmethod
    def random_distribution(rng):
        """Profile marginals on up to four of edges 0-4, start marginals for
        up to three of vehicles 0-3; vehicle 3 is never in the fleet."""
        def marginal(values):
            values = rng.sample(values, rng.randint(1, min(3, len(values))))
            weights = [rng.randint(1, 9) for _ in values]
            return tuple((v, Fraction(w, sum(weights))) for v, w in zip(values, weights))

        return ScenarioDistribution(
            edge_profiles={eid: marginal([0, 1, 2])
                           for eid in rng.sample(range(5), rng.randint(0, 4))},
            start_steps={vid: marginal(list(range(8)))
                         for vid in rng.sample(range(4), rng.randint(0, 3))})

    @staticmethod
    def assert_worlds(oracle, game, weighted):
        """``oracle``'s worlds are ``weighted``'s scenarios, in order."""
        worlds = oracle.worlds
        assert (list(worlds.weights), worlds.scale) == \
            scaled_weights([p for _s, p in weighted])
        assert oracle.weighted == worlds.weights
        assert worlds.edges == tuple(sorted({eid for v in game.fleet.values()
                                             for eid in v.edge_sequence}))
        assert worlds.vids == tuple(game.fleet)
        assert worlds.rows.shape == (len(weighted), len(worlds.edges))
        for k, (scenario, _p) in enumerate(weighted):
            assert worlds.rows[k].tolist() == [
                profile_row(game.net, eid, scenario.profile_assignment[eid])
                if eid in scenario.profile_assignment else 0 for eid in worlds.edges]
            assert dict(zip(worlds.vids, worlds.starts[k].tolist())) == \
                {vid: scenario.start_steps.get(vid, v.start_step)
                 for vid, v in game.fleet.items()}
        assert oracle.avail.tolist() == worlds.starts.T.tolist()

    def test_worlds_equal_enumerated_and_sampled_scenarios(self):
        rng = random.Random(1901)
        off_route = outside = lone_sampled = 0
        for case in range(60):
            game = self.random_game(rng)
            dist = self.random_distribution(rng)
            if case % 6 == 0:   # a support of one world
                dist = degenerate_distribution(enumerate_support(dist)[0][0])
            routes = {eid for v in game.fleet.values() for eid in v.edge_sequence}
            off_route += not routes >= dist.edge_profiles.keys()
            outside += not game.fleet.keys() >= dist.start_steps.keys()
            self.assert_worlds(ExpectedUtilityOracle(game, dist), game,
                               enumerate_support(dist))
            for draws in (1, 5, 16):
                oracle = SampledUtilityOracle(game, dist, draws, seed=case)
                self.assert_worlds(oracle, game, [
                    (scenario, Fraction(1, draws))
                    for scenario in sample_scenarios(dist, draws, random.Random(case))])
            lone_sampled += dist.support_size() == 1
        assert off_route >= 10 and outside >= 10 and lone_sampled >= 10

    def test_the_exact_oracle_refuses_a_support_above_the_cap_as_enumeration_does(self):
        game = self.random_game(random.Random(1902))
        dist = ScenarioDistribution(
            edge_profiles={eid: ((0, HALF), (1, HALF)) for eid in (0, 3)}, start_steps={})
        with pytest.raises(SupportTooLargeError) as want:
            enumerate_support(dist, 3)
        with pytest.raises(SupportTooLargeError) as got:
            ExpectedUtilityOracle(game, dist, cap=3)
        assert str(got.value) == str(want.value)
        assert "joint support has 4 scenarios, above the cap of 3" in str(got.value)
