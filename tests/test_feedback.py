import random
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from conftest import delay_map, make_game, make_net, random_corridor
from hubplatoon import feedback
from hubplatoon.errors import (InputError, ModelInconsistencyError,
                               NonConvergenceError)
from hubplatoon.experiments import (ExperimentConfig, prepare_network,
                                    run_sample)
from hubplatoon.feedback import (Belief, Marginal, PolicySpec,
                                 SimulationTrace, TraceEvent, VehicleState,
                                 WorldState, _avail, _rounded_mean, build_views,
                                 conditional_distribution,
                                 detect_decision_instance, gating_steps,
                                 run_closed_loop, step_world)
from hubplatoon.game import Scenario, deterministic_scenario, scaled_weights
from hubplatoon.network import TravelMatrix, load_network
from hubplatoon.solver import HorizonView, Worlds, profile_row
from hubplatoon.stochastic import (ScenarioDistribution, enumerate_support,
                                   sample_scenarios,
                                   uniform_profile_distribution)
from oracles import ref_entries, ref_round_half_away

ONE = Fraction(1)
HALF = Fraction(1, 2)


def spec(kind, **kw):
    return PolicySpec(kind=kind, **kw)


class TestPolicySpec:
    def test_valid_kinds(self):
        for kind in ("sp", "ip", "ktt", "drhs", "srhs"):
            assert spec(kind).kind == kind

    def test_rejects_unknown_kind_and_bad_horizon(self):
        with pytest.raises(InputError, match="unknown policy kind"):
            spec("magic")
        with pytest.raises(InputError, match="horizon"):
            spec("drhs", horizon=0)

    def test_rejects_bad_oracle_draws(self):
        with pytest.raises(InputError, match="oracle_draws must be >= 1"):
            spec("srhs", oracle_draws=0)

    def test_gating_steps(self):
        assert gating_steps(spec("drhs", gating_minutes=20), 5) == 4
        assert gating_steps(spec("drhs", gating_minutes=18), 5) == 3


def world_with(game, states, now=0, completed=None):
    return WorldState(now=now, vehicles={s.vid: s for s in states},
                      completed=dict(completed or {}))


class TestDetection:
    def setup_game(self):
        net = make_net([(0, 0, 1, 100, 15), (1, 1, 2, 100, 15)])
        return make_game(net, [(0, (0, 1), 0, 4), (1, (0, 1), 0, 4)])

    def test_no_instance_without_a_vehicle_at_a_node(self):
        game = self.setup_game()
        moving = VehicleState(vid=0, status="on_edge", edge_index=0,
                              entered_at=0, budget_left=4,
                              planned_waits=[0, 0])
        world = world_with(game, [moving], now=14)
        assert detect_decision_instance(world, game, 4) == ()

    def test_gating_pulls_in_nearby_vehicles(self):
        game = self.setup_game()
        at_node = VehicleState(vid=0, status="at_node", node_index=1,
                               budget_left=4, planned_waits=[0, 0])
        moving = VehicleState(vid=1, status="on_edge", edge_index=0,
                              entered_at=0, budget_left=4,
                              planned_waits=[0, 0])
        # free-flow remaining = 0 + 15 - now
        world = world_with(game, [at_node, moving], now=10)
        assert detect_decision_instance(world, game, 4) == (0,)
        world = world_with(game, [at_node, moving], now=11)
        assert detect_decision_instance(world, game, 4) == (0, 1)

    def test_pending_vehicles_never_eligible(self):
        game = self.setup_game()
        at_node = VehicleState(vid=0, status="at_node", node_index=0,
                               budget_left=4, planned_waits=[0, 0])
        pending = VehicleState(vid=1, status="pending", budget_left=4,
                               planned_waits=[0, 0])
        world = world_with(game, [at_node, pending], now=0)
        assert detect_decision_instance(world, game, 4) == (0,)


class TestConditioning:
    def setup(self):
        net = make_net([(0, 0, 1, 100, 3, (0, 1)), (1, 1, 2, 100, 3)],
                       profiles={0: {}, 1: {(0, 2): 2}})
        game = make_game(net, [(0, (0, 1), 0, 4)])
        dist = ScenarioDistribution(
            edge_profiles={0: ((0, HALF), (1, HALF))},
            start_steps={0: ((0, ONE),)})
        return game, dist

    def test_completed_traversal_pins_the_profile(self):
        game, dist = self.setup()
        state = VehicleState(vid=0, status="at_node", node_index=1,
                             budget_left=4, planned_waits=[0, 0],
                             realized_start=0)
        world = world_with(game, [state], now=7, completed={0: [(2, 5)]})
        post = conditional_distribution(dist, world, game)
        assert post.edge_profiles[0] == ((1, ONE),)
        world = world_with(game, [state], now=5, completed={0: [(2, 3)]})
        post = conditional_distribution(dist, world, game)
        assert post.edge_profiles[0] == ((0, ONE),)

    def test_en_route_elimination(self):
        game, dist = self.setup()
        state = VehicleState(vid=0, status="on_edge", edge_index=0,
                             entered_at=2, budget_left=4,
                             planned_waits=[0, 0], realized_start=2)
        # elapsed 4 steps: the flat profile (travel 3) would have arrived
        world = world_with(game, [state], now=6)
        post = conditional_distribution(dist, world, game)
        assert post.edge_profiles[0] == ((1, ONE),)
        # elapsed 2 steps: both profiles still possible, renormalized as-is
        world = world_with(game, [state], now=4)
        post = conditional_distribution(dist, world, game)
        assert post.edge_profiles[0] == ((0, HALF), (1, HALF))

    def test_renormalization_is_exact(self):
        net = make_net([(0, 0, 1, 100, 3, (0, 1, 2))],
                       profiles={0: {}, 1: {(0, 0): 1}, 2: {(0, 0): 5}})
        game = make_game(net, [(0, (0,), 0, 4)])
        dist = ScenarioDistribution(
            edge_profiles={0: ((0, Fraction(1, 4)), (1, Fraction(1, 4)),
                               (2, HALF))},
            start_steps={0: ((0, ONE),)})
        state = VehicleState(vid=0, status="on_edge", edge_index=0,
                             entered_at=0, budget_left=4, planned_waits=[0],
                             realized_start=0)
        world = world_with(game, [state], now=3)  # flat would have arrived
        post = conditional_distribution(dist, world, game)
        assert post.edge_profiles[0] == ((1, Fraction(1, 3)),
                                         (2, Fraction(2, 3)))

    def test_contradiction_raises(self):
        game, dist = self.setup()
        state = VehicleState(vid=0, status="at_node", node_index=1,
                             budget_left=4, planned_waits=[0, 0],
                             realized_start=0)
        world = world_with(game, [state], now=9, completed={0: [(2, 9)]})
        with pytest.raises(ModelInconsistencyError):
            conditional_distribution(dist, world, game)

    def test_start_marginals_collapse_or_condition(self):
        net = make_net([(0, 0, 1, 100, 3)])
        game = make_game(net, [(0, (0,), 3, 4)])
        dist = ScenarioDistribution(
            edge_profiles={},
            start_steps={0: ((3, HALF), (5, HALF))})
        started = VehicleState(vid=0, status="at_node", node_index=0,
                               budget_left=4, planned_waits=[0],
                               realized_start=3)
        world = world_with(game, [started], now=3)
        post = conditional_distribution(dist, world, game)
        assert post.start_steps[0] == ((3, ONE),)
        pending = VehicleState(vid=0, status="pending", budget_left=4,
                               planned_waits=[0])
        world = world_with(game, [pending], now=3)
        post = conditional_distribution(dist, world, game)
        assert post.start_steps[0] == ((5, ONE),)
        world = world_with(game, [pending], now=5)
        with pytest.raises(ModelInconsistencyError):
            conditional_distribution(dist, world, game)

    def test_ground_truth_is_never_eliminated(self):
        # simulate a truth world forward and condition at every step
        net = make_net([(0, 0, 1, 100, 3, (0, 1)), (1, 1, 2, 100, 3, (2, 3))],
                       profiles={0: {}, 1: {(0, 0): 2},
                                 2: {}, 3: {(1, 3): 1, (1, 5): 2}})
        game = make_game(net, [(0, (0, 1), 0, 2), (1, (0, 1), 1, 2)])
        dist = ScenarioDistribution(
            edge_profiles={0: ((0, HALF), (1, HALF)),
                           1: ((2, HALF), (3, HALF))},
            start_steps={0: ((0, ONE),), 1: ((1, HALF), (2, HALF))})
        truth = Scenario(profile_assignment={0: 1, 1: 3},
                         start_steps={0: 0, 1: 2})
        trace = run_closed_loop(game, dist, truth, spec("drhs"), seed=3)
        assert set(trace.finish_steps) == {0, 1}


def visible_reference(posterior, views):
    """The marginals a horizon game reads, cut from a full posterior."""
    edges = {eid for v in views for eid in v.window_edges}
    edges |= {v.current_edge for v in views if v.current_edge is not None}
    vids = {v.vid for v in views if v.kind == "pending"}
    return (sorted((eid, pairs) for eid, pairs in posterior.edge_profiles.items()
                   if eid in edges),
            sorted((vid, pairs) for vid, pairs in posterior.start_steps.items()
                   if vid in vids))


def bundled(name):
    with resources.as_file(resources.files("hubplatoon") / "data"
                           / f"{name}.json") as path:
        return prepare_network(load_network(path), ExperimentConfig())


class TestAvail:
    def test_each_kind_of_view_against_its_scalar_rule(self):
        """At a node: now. Pending: the world's drawn start, or the fleet's
        start without a marginal. Moving: now plus what is left of the
        world's travel on the current edge, never below now."""
        net = make_net([(0, 0, 1, 100, 3, (0, 1)), (1, 1, 2, 100, 2, (0, 1))],
                       profiles={0: {}, 1: {(0, 4): 5, (1, 2): 1}})
        game = make_game(net, [(vid, (0, 1), 3 + vid, 2) for vid in range(5)])
        views = [HorizonView(vid=0, kind="at_node", span_nodes=(1,), window_edges=(1,),
                             committed=(0,), budget_left=2, player=True),
                 HorizonView(vid=1, kind="pending", span_nodes=(0, 1),
                             window_edges=(0, 1), committed=(0, 0), budget_left=2,
                             player=False),
                 HorizonView(vid=2, kind="pending", span_nodes=(0, 1),
                             window_edges=(0, 1), committed=(0, 0), budget_left=2,
                             player=False)]
        views += [HorizonView(vid=vid, kind="on_edge", span_nodes=(1,),
                              window_edges=(1,), committed=(0,), budget_left=2,
                              player=True, current_edge=0, entered_at=entered)
                  for vid, entered in ((3, 4), (4, 1))]
        matrix = net.travel_matrix
        rows = [matrix.index[(0, 0)], matrix.index[(0, 1)]]
        worlds = Worlds.of(matrix, (1, 1), 2, (0, 1), {0: rows}, {1: [9, 8]})
        now = 6
        got = _avail(game, now, views, worlds)
        for k, row in enumerate(rows):
            left = {vid: 3 + matrix.delay(row, entered) - (now - entered)
                    for vid, entered in ((3, 4), (4, 1))}
            assert got[:, k].tolist() == [now, [9, 8][k], 5,
                                          now + max(left[3], 0), now + max(left[4], 0)]
        assert got[3].tolist() == [7, 12] and got[4].tolist() == [6, 6]


class TestSrhsWorlds:
    """srhs draws its worlds straight into index arrays. They must be the
    worlds ``enumerate_support`` and ``sample_scenarios`` give for the
    same visible marginals, in the same order and from the same seed."""

    CAP = 512

    def test_worlds_equal_enumerated_and_sampled_scenarios(self, monkeypatch):
        original_visible, original_avail = Belief.visible, feedback._avail
        original_srhs = feedback.srhs_decide
        state, seen = {}, []

        def visible(belief, views, now):
            state["visible"] = original_visible(belief, views, now)
            return state["visible"]

        def avail(game, now, views, worlds):
            seen.append((game.net, state["seed"], state["visible"], worlds))
            return original_avail(game, now, views, worlds)

        def srhs(*args, seed=0, **kw):
            state["seed"] = seed
            return original_srhs(*args, seed=seed, **kw)

        monkeypatch.setattr(Belief, "visible", visible)
        monkeypatch.setattr(feedback, "_avail", avail)
        monkeypatch.setattr(feedback, "srhs_decide", srhs)
        config = ExperimentConfig(vehicle_count=20, samples=1, master_seed=31,
                                  policies=("srhs",), support_cap=self.CAP)
        run_sample(bundled("synthetic10"), config, 0)
        rng = random.Random(606)
        for case in range(12):   # small supports, mostly enumerated
            game = random_corridor(rng, n_profiles=3, max_vehicles=5)
            dist = uniform_profile_distribution(game.net, game.fleet.values())
            truth = sample_scenarios(dist, 1, rng)[0]
            run_closed_loop(game, dist, truth, config.policy_spec("srhs"), seed=case)
        kinds = []
        for net, seed, (edges, edge_m, start_m), worlds in seen:
            dist = ScenarioDistribution(
                edge_profiles={eid: normalised(m) for eid, m in edge_m.items()},
                start_steps={vid: normalised(m) for vid, m in start_m.items()})
            if dist.support_size() <= self.CAP:
                weighted = enumerate_support(dist, self.CAP)
            else:
                draws = config.oracle_draws
                weighted = [(scenario, Fraction(1, draws)) for scenario in
                            sample_scenarios(dist, draws, random.Random(seed))]
            kinds.append(dist.support_size() <= self.CAP)
            assert worlds.edges == edges
            assert (list(worlds.weights), worlds.scale) == \
                scaled_weights([p for _s, p in weighted])
            for k, (scenario, _p) in enumerate(weighted):
                assert worlds.rows[k].tolist() == [
                    profile_row(net, eid, scenario.profile_assignment[eid])
                    if eid in scenario.profile_assignment else 0 for eid in edges]
                assert dict(zip(worlds.vids, worlds.starts[k].tolist())) == \
                    scenario.start_steps
        assert kinds.count(True) >= 3 and kinds.count(False) >= 3


class TestBelief:
    """The run's belief against ``conditional_distribution``, the full
    recomputation from the prior, at every decision instance."""

    @pytest.mark.parametrize("kind", ["drhs", "srhs"])
    @pytest.mark.parametrize("name, vehicles", [("synthetic10", 30), ("sweden", 20)])
    def test_equals_full_recomputation(self, monkeypatch, kind, name, vehicles):
        original = getattr(feedback, f"{kind}_decide")
        checked = []

        def checking(game, world, belief, eligible, policy, **kw):
            assert isinstance(belief, Belief)
            solved = original(game, world, belief, eligible, policy, **kw)
            posterior = conditional_distribution(belief.prior, world, game)
            views = build_views(game, world, eligible, policy.horizon)
            edges, starts = visible_reference(posterior, views)
            _edges, edge_marginals, start_marginals = belief.visible(views, world.now)
            assert [(eid, normalised(m)) for eid, m in edge_marginals.items()] == edges
            assert [(vid, normalised(m)) for vid, m in start_marginals.items()] == starts
            for eid, pairs in edges:
                assert np.array_equal(belief.mean_row(eid),
                                      mean_row(game, eid, pairs)), (world.now, eid)
            checked.append(world.now)
            return solved

        monkeypatch.setattr(feedback, f"{kind}_decide", checking)
        config = ExperimentConfig(vehicle_count=vehicles, samples=1,
                                  master_seed=31, policies=(kind,))
        _fleet, traces = run_sample(bundled(name), config, 0)
        decides = [e.t for e in traces[kind].events if e.kind == "decide"]
        assert len(checked) >= 20 and len(checked) >= len(decides)

    def test_a_delay_near_the_int32_limit_is_compared_exactly(self):
        """The delay 2**31 - 2 fits the int32 travel matrix; the travel it
        gives does not. A truck still on the edge, and then its arrival,
        prune as ``conditional_distribution`` does."""
        big = 2 ** 31 - 2
        net = make_net([(0, 0, 1, 100, 3, (0, 1))], profiles={0: {(0, 0): big}, 1: {}})
        game = make_game(net, [(0, (0,), 0, 0)])
        prior = uniform_profile_distribution(net, game.fleet.values())
        assert net.travel_matrix.delays.dtype == np.int32
        for status, completed in (("on_edge", {}), ("done", {0: [(0, big + 3)]})):
            world = WorldState(now=big + 2, completed=completed, vehicles={0: VehicleState(
                vid=0, status=status, entered_at=0, realized_start=0)})
            belief = Belief(game, prior)
            belief.update(world)
            assert [pid for pid, _p in belief.edge_marginal(0).pairs] == [0] == \
                [pid for pid, _p in conditional_distribution(prior, world, game).edge_profiles[0]]

    @staticmethod
    def raises_like_reference(monkeypatch, game, prior, truth, kind):
        """Run with the reference computed before every decision; the
        belief must raise exactly when and what the reference raises.
        Returns the (step, message) of the raise, or None."""
        original = getattr(feedback, f"{kind}_decide")
        raised = []

        def checking(game, world, belief, eligible, policy, **kw):
            try:
                conditional_distribution(belief.prior, world, game)
                expected = None
            except ModelInconsistencyError as exc:
                expected = str(exc)
            try:
                solved = original(game, world, belief, eligible, policy, **kw)
            except ModelInconsistencyError as exc:
                assert str(exc) == expected, world.now
                raised.append((world.now, expected))
                raise
            assert expected is None, (world.now, expected)
            return solved

        with monkeypatch.context() as patch:
            patch.setattr(feedback, f"{kind}_decide", checking)
            try:
                run_closed_loop(game, prior, truth, PolicySpec(kind=kind), seed=5)
            except ModelInconsistencyError:
                assert raised
        return raised[0] if raised else None

    @staticmethod
    def contradicted(case):
        """Edges 0 and 2 take 3 steps under profile 0 and 5 under profile
        1, which the truth has; truck 0 drives edges 0 and 1, trucks 1 and
        2 drive edge 2. None of them may wait."""
        net = make_net([(0, 0, 1, 100, 3, (0, 1)), (1, 1, 2, 100, 3),
                        (2, 3, 4, 100, 3, (0, 1))],
                       profiles={0: {}, 1: {(e, t): 2 for e in (0, 2)
                                            for t in range(20)}})
        starts = {"en_route": (3, 9), "arrival": (9, 2), "start": (9, 2),
                  "two_edges": (0, 9)}[case]
        game = make_game(net, [(0, (0, 1), 0, 0), (1, (2,), starts[0], 0),
                               (2, (2,), starts[1], 0)])
        flat = ((0, ONE),)
        both = ((0, HALF), (1, HALF))
        late = ((1, HALF), (2, HALF)) if case == "start" else ((starts[0], ONE),)
        prior = ScenarioDistribution(
            edge_profiles={2: flat if case == "two_edges" else both,
                           0: both if case == "start" else flat},
            start_steps={0: ((0, ONE),), 1: late, 2: ((starts[1], ONE),)})
        truth = Scenario(profile_assignment={0: 1, 2: 1},
                         start_steps={0: 0, 1: starts[0], 2: starts[1]})
        return game, prior, truth

    @pytest.mark.parametrize("kind", ["drhs", "srhs"])
    @pytest.mark.parametrize("case, step, message", [
        # truck 0 is still on edge 0 when the prior's only profile says it
        # has arrived; truck 1's start opens the instance
        ("en_route", 3, "every profile on edge 0 is contradicted by observations"),
        # truck 0 arrives after 5 steps where the prior allows 3
        ("arrival", 5, "every profile on edge 0 is contradicted by observations"),
        # truck 1 has not started by its last possible start step
        ("start", 2, "vehicle 1 has not appeared but every start step is <= 2"),
        # trucks 0 and 1 contradict two edges at once: the first in the
        # prior's order is named
        ("two_edges", 5, "every profile on edge 2 is contradicted by observations"),
    ])
    def test_contradiction_raises_the_reference_error(self, monkeypatch, kind,
                                                      case, step, message):
        game, prior, truth = self.contradicted(case)
        assert self.raises_like_reference(monkeypatch, game, prior, truth,
                                          kind) == (step, message)

    def test_en_route_prunes_only_where_the_least_travel_is_reached(self):
        """Trucks 0 and 1 stay on edge 0, entered at steps 0 and 1. Its
        profiles take 3, 5 and 7 steps from step 0 and 3, 3 and 7 from
        step 1, so a truck prunes only once its elapsed time reaches the
        least travel its entry step has among the kept profiles."""
        net = make_net([(0, 0, 1, 100, 3, (0, 1, 2))],
                       profiles={0: {}, 1: {(0, 0): 2}, 2: {(0, 0): 4, (0, 1): 4}})
        game = make_game(net, [(0, (0,), 0, 0), (1, (0,), 1, 0)])
        third = Fraction(1, 3)
        prior = ScenarioDistribution(
            edge_profiles={0: ((0, third), (1, third), (2, third))},
            start_steps={0: ((0, ONE),), 1: ((1, ONE),)})
        belief = Belief(game, prior)
        pruned = []
        prune = belief._prune
        belief._prune = lambda eid, possible: (pruned.append(world.now), prune(eid, possible))
        kept = []
        for now in range(1, 7):
            world = world_with(game, [
                VehicleState(vid=vid, status="on_edge", entered_at=vid,
                             realized_start=vid) for vid in (0, 1)], now=now)
            belief.update(world)
            posterior = conditional_distribution(prior, world, game)
            assert normalised(belief.edge_marginal(0)) == posterior.edge_profiles[0]
            kept.append(tuple(pid for pid, _p in posterior.edge_profiles[0]))
        # truck 0 rules out profile 0 at step 3, truck 1 profile 1 at step 4
        assert kept == [(0, 1, 2)] * 2 + [(1, 2), (2,), (2,), (2,)]
        assert pruned == [3, 4]
        world.now = 7    # truck 0 has been out 7 steps: no profile is left
        with pytest.raises(ModelInconsistencyError) as reference:
            conditional_distribution(prior, world, game)
        with pytest.raises(ModelInconsistencyError, match=str(reference.value)):
            belief.update(world)
        assert pruned == [3, 4, 7]

    @pytest.mark.parametrize("kind", ["drhs", "srhs"])
    def test_seeded_priors_that_exclude_the_truth(self, monkeypatch, kind):
        rng = random.Random(4141)
        raised = 0
        for _case in range(40):
            game = random_corridor(rng, n_profiles=3)
            truth = Scenario(
                profile_assignment={eid: rng.randrange(3) for eid in game.net.edges},
                start_steps={vid: game.fleet[vid].start_step + rng.randint(0, 2)
                             for vid in game.vehicle_ids})
            edge_profiles = {}
            for eid in sorted(game.net.edges):
                pids = rng.sample(range(3), rng.randint(1, 2))
                edge_profiles[eid] = tuple((p, Fraction(1, len(pids))) for p in pids)
            start_steps = {}
            for vid in game.vehicle_ids:
                first = game.fleet[vid].start_step
                steps = rng.sample(range(first, first + 3), rng.randint(1, 2))
                start_steps[vid] = tuple((t, Fraction(1, len(steps))) for t in steps)
            prior = ScenarioDistribution(edge_profiles=edge_profiles,
                                         start_steps=start_steps)
            raised += self.raises_like_reference(monkeypatch, game, prior,
                                                 truth, kind) is not None
        assert raised >= 10


class TestHorizonViews:
    def setup_game(self):
        net = make_net([(k, k, k + 1, 100, 3) for k in range(5)])
        return make_game(net, [(0, (0, 1, 2, 3, 4), 0, 4)])

    def test_at_node_span(self):
        game = self.setup_game()
        state = VehicleState(vid=0, status="at_node", node_index=1,
                             budget_left=3, planned_waits=[0, 2, 0, 1, 0])
        world = world_with(game, [state], now=9)
        [view] = build_views(game, world, (0,), horizon=2)
        assert view.span_nodes == (1, 2, 3)
        assert view.window_edges == (1, 2, 3)
        assert view.committed == (2, 0, 1)
        assert view.player is True
        assert view.kind == "at_node"

    def test_waits_beyond_window_reduce_the_view_budget(self):
        # committed waits past the window still count against the budget,
        # otherwise a window solve could overspend and leave the plan
        # infeasible at the next decision instance
        game = self.setup_game()
        state = VehicleState(vid=0, status="at_node", node_index=0,
                             budget_left=4, planned_waits=[0, 1, 0, 2, 1])
        world = world_with(game, [state], now=0)
        [view] = build_views(game, world, (0,), horizon=2)
        assert view.span_nodes == (0, 1, 2)
        assert view.budget_left == 1    # 4 minus the 2+1 planned at nodes 3, 4

    def test_on_edge_span_and_clamping(self):
        game = self.setup_game()
        state = VehicleState(vid=0, status="on_edge", edge_index=3,
                             entered_at=9, budget_left=2,
                             planned_waits=[0, 0, 0, 0, 1])
        world = world_with(game, [state], now=10)
        [view] = build_views(game, world, (0,), horizon=2)
        assert view.span_nodes == (4,)      # clamped at the last wait node
        assert view.window_edges == (4,)
        assert view.current_edge == 3
        assert view.entered_at == 9

    def test_final_edge_has_no_view(self):
        game = self.setup_game()
        state = VehicleState(vid=0, status="on_edge", edge_index=4,
                             entered_at=12, budget_left=2,
                             planned_waits=[0] * 5)
        world = world_with(game, [state], now=13)
        assert build_views(game, world, (0,), horizon=2) == []

    def test_pending_view_is_environment(self):
        game = self.setup_game()
        state = VehicleState(vid=0, status="pending", budget_left=4,
                             planned_waits=[0, 1, 0, 0, 0])
        world = world_with(game, [state], now=0)
        [view] = build_views(game, world, (), horizon=1)
        assert view.span_nodes == (0, 1)
        assert view.player is False
        assert view.kind == "pending"

    def test_departure_chain(self):
        game = self.setup_game()
        state = VehicleState(vid=0, status="at_node", node_index=0,
                             budget_left=4, planned_waits=[0] * 5)
        world = world_with(game, [state], now=4)
        [view] = build_views(game, world, (0,), horizon=2)
        travel = lambda eid, t: 3 + (1 if t >= 6 else 0)
        # wait 1: enter edge 0 at 5, travel 3; enter edge 1 at 8 (+1 slow), ...
        assert ref_entries(4, (1, 0, 0), view.window_edges, travel) == (5, 8, 12)


def normalised(marginal):
    """A marginal's pairs with its weights' probabilities, which sum to one."""
    assert sum(marginal.weights) == marginal.scale
    return tuple((value, Fraction(w, marginal.scale))
                 for (value, _p), w in zip(marginal.pairs, marginal.weights))


def mean_row(game, eid, pairs):
    """The rounded mean delays of one edge's (profile, probability) pairs
    at every column of the network's travel matrix."""
    m = Marginal.of(pairs, [profile_row(game.net, eid, pid) for pid, _p in pairs])
    return _rounded_mean(m, game.net.travel_matrix.delays[m.values])


def mean_travel(game, posterior):
    """The drhs world's ``travel(edge id, t)``, read off the mean rows."""
    matrix = game.net.travel_matrix
    rows = {eid: mean_row(game, eid, pairs)
            for eid, pairs in posterior.edge_profiles.items()}
    return lambda eid, t: (game.net.edges[eid].base_travel_steps
                           + int(rows[eid][matrix.columns([t])[0]]))


class TestMeanProfile:
    """The drhs world's delays against the scalar definition of the
    rounded posterior mean."""

    WINDOW = range(-2, 14)

    @staticmethod
    def reference(game, pairs, eid, t):
        tables = {pid: delay_map(game.net.delay_profiles[pid]) for pid, _p in pairs}
        return game.net.edges[eid].base_travel_steps + ref_round_half_away(
            sum(p * tables[pid].get((eid, t), 0) for pid, p in pairs))

    def check(self, game, posterior):
        travel = mean_travel(game, posterior)
        for eid, pairs in posterior.edge_profiles.items():
            for t in self.WINDOW:
                assert travel(eid, t) == self.reference(game, pairs, eid, t), \
                    (eid, t, pairs)

    def test_seeded_random_posteriors(self):
        rng = random.Random(515)
        weightings = [(Fraction(1, 3),) * 3,
                      (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)),
                      (Fraction(1, 3), Fraction(1, 7), Fraction(11, 21)),
                      (HALF, HALF)]
        for _case in range(30):
            # every profile has entries on both edges, negative ones too
            profiles = {pid: {(e, t): rng.randint(-3, 5) for e in (0, 1)
                              for t in range(12) if rng.random() < 0.6}
                        for pid in range(4)}
            net = make_net([(0, 0, 1, 100, 4), (1, 1, 2, 100, 4)],
                           profiles=profiles)
            game = make_game(net, [(0, (0, 1), 0, 2)])
            edge_profiles = {}
            for eid in (0, 1):
                probs = rng.choice(weightings)
                pids = rng.sample(range(4), len(probs))
                edge_profiles[eid] = tuple(zip(pids, probs))
            self.check(game, ScenarioDistribution(edge_profiles=edge_profiles,
                                                  start_steps={}))

    def test_exact_halves_round_away_from_zero(self):
        # means 1.5, -1.5, 0.5 and -0.5 at steps 0..3
        profiles = {0: {(0, 0): 1, (0, 1): -1, (0, 2): 0, (0, 3): 0},
                    1: {(0, 0): 2, (0, 1): -2, (0, 2): 1, (0, 3): -1},
                    2: {(1, t): 9 for t in range(4)}}   # another edge only
        net = make_net([(0, 0, 1, 100, 4), (1, 1, 2, 100, 4)],
                       profiles=profiles)
        game = make_game(net, [(0, (0, 1), 0, 2)])
        posterior = ScenarioDistribution(
            edge_profiles={0: ((0, HALF), (1, HALF))}, start_steps={})
        travel = mean_travel(game, posterior)
        assert [travel(0, t) for t in range(5)] == [6, 2, 5, 3, 4]
        self.check(game, posterior)
        # a profile whose entries all lie on another edge adds nothing
        posterior = ScenarioDistribution(
            edge_profiles={0: ((1, HALF), (2, HALF))}, start_steps={})
        travel = mean_travel(game, posterior)
        assert [travel(0, t) for t in range(4)] == [5, 3, 5, 3]
        self.check(game, posterior)

    def test_delays_beyond_32_bits_stay_exact(self):
        big = 2 ** 31
        profiles = {0: {(0, 0): big, (0, 1): 2 ** 64 + 1},
                    1: {(0, 0): big + 1, (0, 1): 0}}
        net = make_net([(0, 0, 1, 100, 4)], profiles=profiles)
        game = make_game(net, [(0, (0,), 0, 2)])
        posterior = ScenarioDistribution(
            edge_profiles={0: ((0, HALF), (1, HALF))}, start_steps={})
        travel = mean_travel(game, posterior)
        assert [travel(0, t) for t in range(3)] == \
            [4 + big + 1, 4 + 2 ** 63 + 1, 4]
        row = mean_row(game, 0, posterior.edge_profiles[0])
        assert max(row.tolist()) == 2 ** 63 + 1
        # a drhs world over this row is refused by the table, not wrapped
        means = TravelMatrix(net.travel_matrix.lo, np.stack([row]))
        assert means.wide.tolist() == [True]
        self.check(game, posterior)

    def test_scale_beyond_int64_sums_python_ints(self):
        """Weights over 2^70 could overflow an int64 sum, so the mean is
        summed in Python ints; it equals the Fraction rounding."""
        profiles = {0: {(0, t): t - 2 for t in range(6)},
                    1: {(0, t): 3 for t in range(6)},
                    2: {(0, 0): 2 ** 69, (0, 1): -2 ** 69}, 3: {}}
        net = make_net([(0, 0, 1, 100, 4, (0, 1, 2, 3))], profiles=profiles)
        game = make_game(net, [(0, (0,), 0, 2)])
        eps = Fraction(1, 2 ** 70)
        for pids, probs in (((0, 1), (eps, 1 - eps)),
                            ((0, 1), (HALF - eps, HALF + eps)),
                            ((0, 1), (HALF, HALF)),
                            ((2, 3), (HALF + eps, HALF - eps))):
            pairs = tuple(zip(pids, probs))
            row = mean_row(game, 0, pairs)
            assert row.dtype == (np.int64 if probs == (HALF, HALF) else object)
            self.check(game, ScenarioDistribution(edge_profiles={0: pairs},
                                                  start_steps={}))
        # means of exactly 2^68 + 1/2 and its negative round away from zero
        assert [mean_travel(game, ScenarioDistribution(
            edge_profiles={0: pairs}, start_steps={}))(0, t)
            for t in range(3)] == [4 + 2 ** 68 + 1, 4 - 2 ** 68 - 1, 4]


def free_flow(net):
    """Travel at every edge's base time: the truth of a day without delays."""
    return lambda eid, t: net.edges[eid].base_travel_steps


class TestStepWorld:
    def test_wait_burns_budget_and_departure_rewards(self):
        net = make_net([(0, 0, 1, 100, 3)])
        game = make_game(net, [(0, (0,), 0, 4), (1, (0,), 0, 4)])
        s0 = VehicleState(vid=0, status="at_node", node_index=0,
                          budget_left=4, planned_waits=[1])
        s1 = VehicleState(vid=1, status="at_node", node_index=0,
                          budget_left=4, planned_waits=[0])
        world = world_with(game, [s0, s1], now=0)
        events = []
        step_world(game, world, free_flow(net), events)
        assert world.now == 1
        assert s0.waited_steps == 1 and s0.budget_left == 3
        assert s0.planned_waits == [0]
        assert s1.status == "on_edge" and s1.arrival_step == 3
        assert s1.reward_centi == 0    # alone on the edge
        kinds = [e.kind for e in events]
        assert kinds == ["wait", "depart"]

    def test_joint_departure_forms_platoon(self):
        net = make_net([(0, 0, 1, 100, 3)])
        game = make_game(net, [(0, (0,), 0, 4), (1, (0,), 0, 4)])
        s0 = VehicleState(vid=0, status="at_node", node_index=0,
                          budget_left=4, planned_waits=[0])
        s1 = VehicleState(vid=1, status="at_node", node_index=0,
                          budget_left=4, planned_waits=[0])
        world = world_with(game, [s0, s1], now=5)
        events = []
        step_world(game, world, free_flow(net), events)
        assert s0.reward_centi == s1.reward_centi == 8500
        platoons = [e for e in events if e.kind == "platoon"]
        assert len(platoons) == 1
        assert platoons[0].data == {"edge": 0, "members": [0, 1], "travel": 3}

    def test_wait_without_budget_raises(self):
        net = make_net([(0, 0, 1, 100, 3)])
        game = make_game(net, [(0, (0,), 0, 4)])
        s0 = VehicleState(vid=0, status="at_node", node_index=0,
                          budget_left=0, planned_waits=[2])
        world = world_with(game, [s0], now=0)
        with pytest.raises(InputError, match="no budget"):
            step_world(game, world, free_flow(net), [])


def separation_setup():
    """Vehicle 0 learns its first-edge speed on arrival; 1 is a fixed train.

    Edge 0 travels 2 or 6 steps (uniform). Vehicle 1 enters the shared
    150 km edge at step 5 with no slack. Joining from the fast arrival
    costs 3 waits: worth it once the speed is known (12750 - 6600), not in
    expectation (12750/2 - 6600 < 0).
    """
    net = make_net([(0, 0, 1, 50, 2, (0, 1)), (1, 1, 2, 150, 3)],
                   profiles={0: {},
                             1: {(0, t): 4 for t in range(0, 10)}})
    game = make_game(net, [(0, (0, 1), 0, 4), (1, (1,), 5, 0)])
    dist = uniform_profile_distribution(net, game.fleet.values())
    truth = Scenario(profile_assignment={0: 0}, start_steps={0: 0, 1: 5})
    return game, dist, truth


class TestClosedLoop:
    def totals(self, game, dist, truth, kind, **kw):
        trace = run_closed_loop(game, dist, truth, spec(kind, **kw), seed=11)
        return trace, trace.total_utility_centi()

    def test_replanning_catches_what_open_loop_misses(self):
        game, dist, truth = separation_setup()
        _sp, sp_total = self.totals(game, dist, truth, "sp")
        _ip, ip_total = self.totals(game, dist, truth, "ip")
        drhs, drhs_total = self.totals(game, dist, truth, "drhs")
        srhs, srhs_total = self.totals(game, dist, truth, "srhs")
        ktt, ktt_total = self.totals(game, dist, truth, "ktt")
        assert sp_total == 0
        assert ip_total == 0       # waiting is negative in expectation
        assert drhs_total == 18900  # 12750 - 6600 + 12750, learned on arrival
        assert srhs_total == 18900
        assert ktt_total == 18900
        assert drhs.platoon_events() == {(1, 5, (0, 1))}
        assert drhs.waited_steps == {0: 3, 1: 0}

    def test_decide_event_records_the_replan(self):
        game, dist, truth = separation_setup()
        trace, _ = self.totals(game, dist, truth, "drhs")
        decides = [e for e in trace.events
                   if e.kind == "decide" and 0 in e.data["eligible"]]
        # the decisive replan happens on arrival at node 1 (step 2)
        assert any(e.t == 2 and e.data["waits"]["0"] == [3] for e in decides)

    def test_point_mass_collapse_and_sp_difference(self, line_net):
        game = make_game(line_net, [(0, (0, 1, 2), 0, 4), (1, (0, 1, 2), 1, 4)])
        dist = uniform_profile_distribution(line_net, game.fleet.values())
        assert dist.support_size() == 1
        truth = deterministic_scenario(line_net, game.fleet.values())
        traces = {kind: run_closed_loop(game, dist, truth, spec(kind), seed=2)
                  for kind in ("sp", "ip", "ktt", "drhs", "srhs")}
        solved = {k: traces[k].platoon_events() for k in traces}
        assert solved["ip"] == solved["ktt"] == solved["drhs"] == solved["srhs"]
        assert len(solved["ktt"]) == 3     # full-route platoon of two
        assert solved["sp"] == set()
        assert traces["sp"].waited_steps == {0: 0, 1: 0}
        for kind in ("ip", "ktt", "drhs", "srhs"):
            assert traces[kind].total_utility_centi() == 48800  # 6*8500 - 2200

    def test_trace_is_internally_consistent(self):
        game, dist, truth = separation_setup()
        for kind in ("sp", "ip", "ktt", "drhs", "srhs"):
            trace = run_closed_loop(game, dist, truth, spec(kind), seed=4)
            rewards = {vid: 0 for vid in game.vehicle_ids}
            waits = {vid: 0 for vid in game.vehicle_ids}
            finishes = {}
            for e in trace.events:
                if e.kind == "platoon":
                    n = len(e.data["members"])
                    r = game.reward_model.reward(n, game.net.edges[e.data["edge"]])
                    for vid in e.data["members"]:
                        rewards[vid] += r
                elif e.kind == "wait":
                    waits[e.data["vehicle"]] += 1
                elif e.kind == "finish":
                    finishes[e.data["vehicle"]] = e.t
            for vid in game.vehicle_ids:
                expect = rewards[vid] - game.cost_model.step_cost_centi * waits[vid]
                assert trace.utility_centi[vid] == expect
                assert trace.waited_steps[vid] == waits[vid]
                assert trace.finish_steps[vid] == finishes[vid]
                assert waits[vid] <= game.fleet[vid].waiting_budget_steps

    def test_rerun_is_identical(self):
        game, dist, truth = separation_setup()
        for kind in ("ip", "srhs"):
            a = run_closed_loop(game, dist, truth, spec(kind), seed=9)
            b = run_closed_loop(game, dist, truth, spec(kind), seed=9)
            assert [e.to_json() for e in a.events] == \
                [e.to_json() for e in b.events]
            assert a.utility_centi == b.utility_centi

    def test_runaway_guard(self):
        game, dist, truth = separation_setup()
        with pytest.raises(NonConvergenceError, match="exceeded"):
            run_closed_loop(game, dist, truth, spec("sp"), max_steps=3)

    def test_trace_jsonl_output(self, tmp_path):
        game, dist, truth = separation_setup()
        trace = run_closed_loop(game, dist, truth, spec("ktt"), seed=0)
        p = tmp_path / "trace.jsonl"
        trace.write_jsonl(p)
        lines = p.read_text().splitlines()
        assert len(lines) == len(trace.events)
        import json as _json

        first = _json.loads(lines[0])
        assert set(first) >= {"t", "kind"}


def test_srhs_sampled_worlds_when_support_is_large():
    # 6 uncertain edges x 4 profiles: posterior support 4096 > tiny cap
    rows = [(k, k, k + 1, 60, 2, (4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3))
            for k in range(6)]
    profiles = {}
    for k in range(6):
        for j in range(4):
            profiles[4 * k + j] = {(k, t): j for t in range(30)} if j else {}
    net = make_net(rows, profiles=profiles)
    game = make_game(net, [(0, tuple(range(6)), 0, 2),
                           (1, tuple(range(6)), 1, 2)])
    dist = uniform_profile_distribution(net, game.fleet.values())
    truth = Scenario(profile_assignment={k: 4 * k + (k % 4) for k in range(6)},
                     start_steps={0: 0, 1: 1})
    policy = spec("srhs", support_cap=8, oracle_draws=5)
    a = run_closed_loop(game, dist, truth, policy, seed=21)
    b = run_closed_loop(game, dist, truth, policy, seed=21)
    assert [e.to_json() for e in a.events] == [e.to_json() for e in b.events]
    assert set(a.finish_steps) == {0, 1}
