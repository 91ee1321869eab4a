"""Closed-loop simulation with receding-horizon replanning.

The world advances on the global step grid. Whenever some vehicle sits at
a node, a decision instance fires: vehicles at nodes, plus vehicles close
enough to their next node (free-flow remaining time within the gating
window), re-solve a small coordination game over their next few nodes.
Everyone else keeps committed plans and enters the game as a fixed
environment. Two information models are supported: DRHS replaces
uncertain travel times with their rounded posterior means and solves a
deterministic horizon game; SRHS keeps the posterior and solves the
expected-utility game. Open-loop baselines (SP never waits, IP solves the
stochastic game once, KTT solves the deterministic game on the realized
scenario) run through the same world loop without replanning.

Horizon games live on truncated paths: nodes beyond a vehicle's horizon
window do not exist in the game, neither as rewards nor as platoon
partners, which keeps the horizon game an exact-potential coordination
game and the solve terminating.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, ModelInconsistencyError, NonConvergenceError
from .game import CoordinationGame, Scenario, round_ratio, zero_profile
from .network import TravelMatrix
from .seeding import derive_seed
from .solver import (DeterministicOracle, HorizonView, Worlds, WorldsOracle,
                     action_space, nash_seek, profile_row, scenario_travel,
                     spaces_for_fleet)
from .stochastic import (DEFAULT_DRAWS, DEFAULT_SUPPORT_CAP, Marginal,
                         ScenarioDistribution, draw, stochastic_oracle)

POLICY_KINDS = ("sp", "ip", "ktt", "drhs", "srhs")
DEFAULT_MAX_STEPS = 20_000   # a closed-loop run longer than this fails


@dataclass(frozen=True)
class PolicySpec:
    """Which decision rule drives the fleet, and its knobs."""

    kind: str
    horizon: int = 2
    gating_minutes: int = 20
    support_cap: int = 128        # horizon-game posterior enumeration cap
    oracle_draws: int = DEFAULT_DRAWS   # sample count above either cap
    open_loop_cap: int = DEFAULT_SUPPORT_CAP   # IP one-shot enumeration cap

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InputError(f"unknown policy kind {self.kind!r}")
        if self.horizon < 1:
            raise InputError("horizon must be >= 1")
        if self.oracle_draws < 1:
            raise InputError("oracle_draws must be >= 1")


@dataclass
class VehicleState:
    vid: int
    status: str                   # pending | at_node | on_edge | done
    node_index: int = 0           # meaningful when at_node
    edge_index: int = 0           # meaningful when on_edge
    entered_at: int = 0           # entry step of the current edge
    arrival_step: int = 0         # ground-truth arrival at the next node
    budget_left: int = 0
    planned_waits: list[int] = field(default_factory=list)
    waited_steps: int = 0
    reward_centi: int = 0
    finish_step: int | None = None
    realized_start: int | None = None


@dataclass
class WorldState:
    """Everything observable plus the bookkeeping the policies rely on."""

    now: int
    vehicles: dict[int, VehicleState]
    # edge id -> list of (entry step, realized travel) for finished traversals
    completed: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    def active_at_nodes(self) -> list[VehicleState]:
        return [v for v in self.vehicles.values() if v.status == "at_node"]

    def in_progress(self) -> list[VehicleState]:
        return [v for v in self.vehicles.values() if v.status == "on_edge"]


@dataclass
class TraceEvent:
    t: int
    kind: str
    data: dict

    def to_json(self) -> str:
        doc = {"t": self.t, "kind": self.kind}
        doc.update(self.data)
        return json.dumps(doc, sort_keys=True)


@dataclass
class SimulationTrace:
    policy: str
    events: list[TraceEvent]
    utility_centi: dict[int, int]
    waited_steps: dict[int, int]
    finish_steps: dict[int, int]

    def total_utility_centi(self) -> int:
        return sum(self.utility_centi.values())

    def platoon_events(self) -> set[tuple[int, int, tuple[int, ...]]]:
        """Set of (edge id, entry step, member ids) with two or more members."""
        return {(e.data["edge"], e.t, tuple(e.data["members"]))
                for e in self.events if e.kind == "platoon"}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(event.to_json() + "\n")


def gating_steps(policy: PolicySpec, step_minutes: int) -> int:
    return policy.gating_minutes // step_minutes


def detect_decision_instance(world: WorldState, game: CoordinationGame,
                             gate_steps: int) -> tuple[int, ...]:
    """Eligible vehicle ids, ascending; empty unless someone is at a node."""
    at_nodes = world.active_at_nodes()
    if not at_nodes:
        return ()
    eligible = {v.vid for v in at_nodes}
    for v in world.in_progress():
        edge = game.net.edges[game.fleet[v.vid].edge_sequence[v.edge_index]]
        free_flow_left = max(0, v.entered_at + edge.base_travel_steps - world.now)
        if free_flow_left <= gate_steps:
            eligible.add(v.vid)
    return tuple(sorted(eligible))


def conditional_distribution(dist: ScenarioDistribution, world: WorldState,
                             game: CoordinationGame) -> ScenarioDistribution:
    """Posterior after eliminating profiles contradicted by observations.

    A finished traversal pins the delay the profile must produce at that
    entry step; a truck still en route rules out every profile under which
    it would already have arrived. Start marginals collapse to the
    realized step once a vehicle has appeared and condition on being later
    than now while it has not. Probabilities renormalize exactly.
    """
    edges = game.net.edges
    matrix = game.net.travel_matrix
    posterior_edges: dict[int, tuple[tuple[int, Fraction], ...]] = {}
    for eid, pairs in dist.edge_profiles.items():
        base = edges[eid].base_travel_steps
        observations = world.completed.get(eid, ())
        en_route = [(v.entered_at, world.now - v.entered_at)
                    for v in world.in_progress()
                    if game.fleet[v.vid].edge_sequence[v.edge_index] == eid]
        rows = [profile_row(game.net, eid, pid) for pid, _p in pairs]
        kept = [pair for pair, row in zip(pairs, rows)
                if all(base + matrix.delay(row, t_in) == travel for t_in, travel in observations)
                and all(base + matrix.delay(row, t_in) > elapsed for t_in, elapsed in en_route)]
        if not kept:
            raise ModelInconsistencyError(
                f"every profile on edge {eid} is contradicted by observations")
        posterior_edges[eid] = _renormalised(kept)
    posterior_starts: dict[int, tuple[tuple[int, Fraction], ...]] = {}
    for vid, pairs in dist.start_steps.items():
        state = world.vehicles.get(vid)
        if _appeared(state):
            posterior_starts[vid] = ((state.realized_start, Fraction(1)),)
        else:
            kept = tuple((t, p) for t, p in pairs if t > world.now)
            if not kept:
                raise ModelInconsistencyError(
                    f"vehicle {vid} has not appeared but every start step is <= {world.now}")
            posterior_starts[vid] = _renormalised(kept)
    return ScenarioDistribution(edge_profiles=posterior_edges,
                                start_steps=posterior_starts)


def _appeared(state: VehicleState | None) -> bool:
    return state is not None and state.status != "pending" \
        and state.realized_start is not None


def _renormalised(pairs):
    """(value, probability) pairs scaled exactly to sum to one."""
    total = sum(p for _value, p in pairs)
    return tuple((value, p / total) for value, p in pairs)


class Belief:
    """The posterior of one closed-loop run, brought up to date in place.

    Per edge it keeps the prior's (profile, probability) pairs that no
    observation has ruled out. ``update`` reads each finished traversal
    once and prunes with the trucks on an edge at that moment, skipping a
    truck while its elapsed time is below the least travel the kept pairs
    give its entry step (cached per edge and entry step). Under the
    simulator's dynamics eliminations only grow: a truck's later en-route
    bound, and its arrival, each imply its earlier en-route bounds. So
    after ``update(world)`` the belief equals
    ``conditional_distribution(prior, world, game)``, and a contradiction
    raises the same error at the same step. Start marginals are formed
    only for the pending vehicles a horizon game sees; every vehicle's
    last possible start step keeps the "has not appeared" check. Each
    edge's kept matrix rows, normalised marginal and rounded-mean delay
    row are cached until its kept pairs change.
    """

    def __init__(self, game: CoordinationGame, prior: ScenarioDistribution):
        self.game = game
        self.prior = prior
        self._kept = dict(prior.edge_profiles)    # in the prior's edge order
        self._read: dict[int, int] = {}           # edge -> traversals applied
        self._last_start = {vid: max(t for t, _p in pairs)
                            for vid, pairs in prior.start_steps.items()}
        self._rows: dict[int, np.ndarray] = {}
        self._marginals: dict[int, Marginal] = {}
        self._means: dict[int, np.ndarray] = {}
        # edge -> entry step -> least travel over the kept pairs
        self._least: dict[int, dict[int, int]] = {}

    def _kept_rows(self, eid: int) -> np.ndarray:
        """The kept pairs' network travel-matrix rows on edge ``eid``."""
        got = self._rows.get(eid)
        if got is None:
            got = self._rows[eid] = np.array([profile_row(self.game.net, eid, pid)
                                              for pid, _p in self._kept[eid]], dtype=np.intp)
        return got

    def _delays(self, eid: int, steps) -> np.ndarray:
        """The kept pairs' delays on edge ``eid`` at entry ``steps``, a row each."""
        matrix = self.game.net.travel_matrix
        return matrix.delays[self._kept_rows(eid)[:, None], matrix.columns(steps)]

    def _delays_at(self, eid: int, step: int) -> np.ndarray:
        """The kept pairs' delays on edge ``eid`` at one entry ``step``."""
        matrix = self.game.net.travel_matrix
        return matrix.delays[self._kept_rows(eid), matrix.column(step)]

    def _prune(self, eid: int, possible: np.ndarray) -> None:
        """Keep the pairs of edge ``eid`` whose entry of ``possible`` is true."""
        possible = possible.tolist()
        if not all(possible):
            self._kept[eid] = tuple(pair for pair, ok in zip(self._kept[eid], possible) if ok)
            for cache in (self._rows, self._marginals, self._means, self._least):
                cache.pop(eid, None)

    def update(self, world: WorldState) -> None:
        """Apply what ``world`` has observed since the last update."""
        edges = self.game.net.edges
        for eid, done in world.completed.items():
            read = self._read.get(eid, 0)
            self._read[eid] = len(done)
            if read < len(done) and self._kept.get(eid):
                steps, travel = zip(*done[read:])
                base = edges[eid].base_travel_steps
                self._prune(eid, (self._delays(eid, steps)
                                  == [t - base for t in travel]).all(axis=1))
        for v in world.in_progress():
            eid = self.game.fleet[v.vid].edge_sequence[v.edge_index]
            if self._kept.get(eid):    # an emptied edge raises below
                base = edges[eid].base_travel_steps
                elapsed = world.now - v.entered_at
                least = self._least.setdefault(eid, {})
                shortest = least.get(v.entered_at)
                if shortest is None or shortest <= elapsed:
                    delays = self._delays_at(eid, v.entered_at)
                    if shortest is None:
                        shortest = least[v.entered_at] = base + int(delays.min())
                    if shortest <= elapsed:
                        self._prune(eid, delays > elapsed - base)
        for eid, kept in self._kept.items():
            if not kept:
                raise ModelInconsistencyError(
                    f"every profile on edge {eid} is contradicted by observations")
        for vid, last in self._last_start.items():
            if last <= world.now and not _appeared(world.vehicles.get(vid)):
                raise ModelInconsistencyError(
                    f"vehicle {vid} has not appeared but every start step is <= {world.now}")

    def edge_marginal(self, eid: int) -> Marginal:
        """The kept pairs' marginal, its values network travel-matrix rows."""
        got = self._marginals.get(eid)
        if got is None:
            got = self._marginals[eid] = Marginal.of(self._kept[eid], self._kept_rows(eid))
        return got

    def mean_row(self, eid: int) -> np.ndarray:
        """The rounded posterior-mean delay at every travel-matrix column."""
        got = self._means.get(eid)
        if got is None:
            m = self.edge_marginal(eid)
            got = self._means[eid] = _rounded_mean(
                m, self.game.net.travel_matrix.delays[m.values])
        return got

    def visible(self, views: Sequence[HorizonView], now: int):
        """What a horizon game reads: every edge of its views' windows and
        moving vehicles, in ascending order, and the marginals of those
        edges and of the start steps of pending vehicles, by ascending key."""
        edges = {e for v in views for e in (*v.window_edges, v.current_edge)
                 if e is not None}
        starts = {}
        for vid in sorted({v.vid for v in views if v.kind == "pending"}
                          & self.prior.start_steps.keys()):
            pairs = tuple((t, p) for t, p in self.prior.start_steps[vid] if t > now)
            starts[vid] = Marginal.of(pairs)
        return (tuple(sorted(edges)),
                {eid: self.edge_marginal(eid) for eid in sorted(edges & self._kept.keys())},
                starts)


# --- horizon game ------------------------------------------------------


def build_views(game: CoordinationGame, world: WorldState,
                eligible: Sequence[int], horizon: int) -> list[HorizonView]:
    views = []
    for vid in sorted(game.vehicle_ids):
        state = world.vehicles[vid]
        if state.status == "done":
            continue
        seq = game.fleet[vid].edge_sequence
        last_wait_node = len(seq) - 1
        if state.status == "on_edge":
            first, current_edge, entered_at = (state.edge_index + 1, seq[state.edge_index],
                                               state.entered_at)
            last = min(state.edge_index + horizon, last_wait_node)
        else:  # at_node or pending (pending behaves as at origin from its start)
            first = state.node_index if state.status == "at_node" else 0
            last, current_edge, entered_at = min(first + horizon, last_wait_node), None, None
        if first > last:
            continue  # nothing left to decide; final edge underway
        # waits already committed beyond the window still count against
        # the budget, so the window may only allocate what they leave
        beyond = sum(state.planned_waits[last + 1:last_wait_node + 1])
        views.append(HorizonView(
            vid=vid, kind=state.status, span_nodes=tuple(range(first, last + 1)),
            window_edges=tuple(seq[first:last + 1]),
            committed=tuple(state.planned_waits[first:last + 1]),
            budget_left=state.budget_left - beyond,
            player=(vid in eligible) and state.status != "pending",
            current_edge=current_edge, entered_at=entered_at))
    return views


def _avail(game: CoordinationGame, now: int, views: Sequence[HorizonView],
           worlds: Worlds) -> np.ndarray:
    """When each view's vehicle can first leave its span's first node, per
    world: now at a node, its start step when pending (the fleet spec's
    when it has no marginal), and its arrival in the world when moving."""
    matrix = worlds.matrix
    first = [game.fleet[v.vid].start_step if v.kind == "pending" else now for v in views]
    avail = np.repeat(np.array(first, dtype=object if matrix.delays.dtype == object
                               else np.int64)[:, None], len(worlds.weights), axis=1)
    drawn = [(i, worlds.vids.index(v.vid)) for i, v in enumerate(views)
             if v.kind == "pending" and v.vid in worlds.vids]
    avail[[i for i, _k in drawn]] = worlds.starts[:, [k for _i, k in drawn]].T
    moving = [(i, v) for i, v in enumerate(views) if v.kind == "on_edge"]
    if moving:
        delays = matrix.delays[
            worlds.rows[:, [worlds.edges.index(v.current_edge) for _i, v in moving]],
            matrix.columns([v.entered_at for _i, v in moving])]
        left = [game.net.edges[v.current_edge].base_travel_steps - (now - v.entered_at)
                for _i, v in moving]
        avail[[i for i, _v in moving]] += np.maximum(delays + left, 0).T
    return avail


def _rounded_mean(marginal: Marginal, values: np.ndarray):
    """The marginal's mean of ``values``, one entry (or row) per pair,
    rounded by ``round_ratio``. The sums are int64 when none can overflow,
    Python ints otherwise, and exact either way."""
    most = max(int(values.max()), -int(values.min()))
    exact = np.int64 if marginal.scale * (2 * most + 1) < 2 ** 63 else object
    return round_ratio(np.asarray(marginal.weights, dtype=exact)
                       @ values.astype(exact), marginal.scale)


def _decide(game: CoordinationGame, world: WorldState, belief: Belief,
            eligible: Sequence[int], policy: PolicySpec,
            draws) -> dict[int, dict[int, int]]:
    """The receding-horizon step both feedback rules share.

    The run's belief is brought up to date, so every observation is
    checked, and cut to what the horizon game sees. ``draws(edges, edge
    marginals, start marginals)`` turns that into its ``Worlds``; the
    game's players then solve for their waits, keyed by path node index.
    """
    belief.update(world)
    views = build_views(game, world, eligible, policy.horizon)
    worlds = draws(*belief.visible(views, world.now))
    oracle = WorldsOracle(game, views, worlds, _avail(game, world.now, views, worlds))
    spaces = {vid: action_space(len(oracle.views[vid].span_nodes),
                                oracle.views[vid].budget_left)
              for vid in oracle.players}
    if not spaces:
        return {}
    initial = {vid: oracle.views[vid].committed for vid in oracle.players}
    report = nash_seek(oracle, spaces, initial=initial)
    return {vid: dict(zip(oracle.views[vid].span_nodes, waits))
            for vid, waits in report.profile.items()}


def drhs_decide(game: CoordinationGame, world: WorldState, belief: Belief,
                eligible: Sequence[int],
                policy: PolicySpec) -> dict[int, dict[int, int]]:
    """Deterministic receding-horizon step: certainty-equivalent solve.

    The horizon game has one world, whose delays (a matrix of the
    belief's mean rows) and start steps are the rounded posterior means.
    Returns each player's new waits keyed by path node index.
    """
    def draws(edges, edge_marginals, start_marginals):
        network = game.net.travel_matrix
        means = TravelMatrix(network.lo, np.stack(
            [np.zeros(network.span + 1, dtype=np.int64)]
            + [belief.mean_row(eid) for eid in edge_marginals]))
        return Worlds.of(means, (1,), 1, edges,
                         {eid: k for k, eid in enumerate(edge_marginals, 1)},
                         {vid: [_rounded_mean(m, m.values)]
                          for vid, m in start_marginals.items()})

    return _decide(game, world, belief, eligible, policy, draws)


def srhs_decide(game: CoordinationGame, world: WorldState, belief: Belief,
                eligible: Sequence[int], policy: PolicySpec,
                seed: int = 0) -> dict[int, dict[int, int]]:
    """Stochastic receding-horizon step: expectation over the posterior.

    The visible marginals' joint worlds come from ``stochastic.draw``:
    enumerated exactly under the policy cap, sampled from the seed above
    it. Returns each player's new waits keyed by path node index.
    """
    def draws(edges, edge_marginals, start_marginals):
        drawn, weights, scale = draw([*edge_marginals.values(), *start_marginals.values()],
                                     policy.support_cap, policy.oracle_draws,
                                     random.Random(seed))
        return Worlds.of(game.net.travel_matrix, weights, scale, edges,
                         dict(zip(edge_marginals, drawn)),
                         dict(zip(start_marginals, drawn[len(edge_marginals):])))

    return _decide(game, world, belief, eligible, policy, draws)


# --- world dynamics ----------------------------------------------------


def step_world(game: CoordinationGame, world: WorldState,
               truth, events: list[TraceEvent]) -> None:
    """Execute one step: committed zero-waits depart, positive waits burn one.

    Decision logic has already run for this step; this applies plans
    against the ground truth's travel times, ``truth(edge id, entry
    step)``, forms platoons, and advances the clock.
    """
    now = world.now
    departures: dict[int, list[int]] = {}  # same step => same entry time
    for vid in sorted(world.vehicles):
        state = world.vehicles[vid]
        if state.status != "at_node":
            continue
        k = state.node_index
        seq = game.fleet[vid].edge_sequence
        wait = state.planned_waits[k]
        if wait > 0:
            if state.budget_left <= 0:
                raise InputError(f"vehicle {vid} plans to wait with no budget left")
            state.planned_waits[k] = wait - 1
            state.budget_left -= 1
            state.waited_steps += 1
            events.append(TraceEvent(now, "wait", {"vehicle": vid, "node": k}))
            continue
        eid = seq[k]
        steps = truth(eid, now)
        state.status, state.edge_index, state.entered_at = "on_edge", k, now
        state.arrival_step = now + steps
        events.append(TraceEvent(now, "depart",
                                 {"vehicle": vid, "edge": eid, "travel": steps}))
        departures.setdefault(eid, []).append(vid)
    for eid, members in sorted(departures.items()):
        n = len(members)
        per_member = game.reward_model.reward(n, game.net.edges[eid])
        for vid in members:
            world.vehicles[vid].reward_centi += per_member
        if n >= 2:
            travel = world.vehicles[members[0]].arrival_step - now
            events.append(TraceEvent(now, "platoon",
                                     {"edge": eid, "members": sorted(members),
                                      "travel": travel}))
    world.now = now + 1


def _arrivals_and_starts(game: CoordinationGame, world: WorldState,
                         truth: Scenario, events: list[TraceEvent]) -> None:
    now = world.now
    for vid in sorted(world.vehicles):
        state = world.vehicles[vid]
        if state.status == "pending" and game.start_of(vid, truth) == now:
            state.status, state.node_index, state.realized_start = "at_node", 0, now
            events.append(TraceEvent(now, "start", {"vehicle": vid, "node": 0}))
        elif state.status == "on_edge" and state.arrival_step == now:
            seq = game.fleet[vid].edge_sequence
            eid = seq[state.edge_index]
            travel = now - state.entered_at
            world.completed.setdefault(eid, []).append((state.entered_at, travel))
            node = state.edge_index + 1
            events.append(TraceEvent(now, "arrive",
                                     {"vehicle": vid, "node": node, "edge": eid,
                                      "entered": state.entered_at, "travel": travel}))
            if node == len(seq):
                state.status, state.finish_step = "done", now
                events.append(TraceEvent(now, "finish", {"vehicle": vid, "node": node}))
            else:
                state.status, state.node_index = "at_node", node


def open_loop_anchor(game: CoordinationGame, dist: ScenarioDistribution,
                     policy: PolicySpec, seed: int = 0) -> dict[int, tuple[int, ...]]:
    """The common open-loop equilibrium plan every planning policy starts from."""
    oracle = stochastic_oracle(game, dist, cap=policy.open_loop_cap,
                               draws=policy.oracle_draws,
                               seed=derive_seed(seed, "ip"))
    spaces = spaces_for_fleet(game.fleet.values())
    return nash_seek(oracle, spaces).profile


def clairvoyant_plan(game: CoordinationGame, truth: Scenario,
                     anchor: Mapping[int, tuple[int, ...]]
                     ) -> dict[int, tuple[int, ...]]:
    """Equilibrium plan against the realized travel times.

    Best-response dynamics can settle on different equilibria depending
    on where it starts. The coordinator runs it twice, from the shared
    open-loop plan and from the no-wait profile, and proposes whichever
    equilibrium yields more total utility (the anchor start on ties).
    """
    oracle = DeterministicOracle(game, truth)
    spaces = spaces_for_fleet(game.fleet.values())
    best, best_total = None, None
    for start in (anchor, zero_profile(game.fleet.values())):
        profile = nash_seek(oracle, spaces, initial=start).profile
        total = sum(oracle.utility(vid, profile) for vid in profile)
        if best is None or total > best_total:
            best, best_total = profile, total
    return best


def run_closed_loop(game: CoordinationGame, dist: ScenarioDistribution,
                    truth: Scenario, policy: PolicySpec, seed: int = 0,
                    max_steps: int = DEFAULT_MAX_STEPS,
                    anchor: Mapping[int, tuple[int, ...]] | None = None
                    ) -> SimulationTrace:
    """Simulate one realized day under a policy; returns the full trace.

    ``anchor`` lets a caller running several policies on one instance
    reuse the open-loop plan instead of recomputing it; it must equal
    open_loop_anchor(...) for the same seed, or determinism breaks.
    """
    truth_travel = scenario_travel(game, truth)
    plans: dict[int, tuple[int, ...]]
    if policy.kind == "sp":
        plans = {vid: (0,) * len(game.fleet[vid].edge_sequence)
                 for vid in game.vehicle_ids}
    else:
        # every planning policy starts from the same open-loop plan. ip
        # executes it as-is, the receding-horizon kinds revise it as
        # observations arrive, and ktt refines it against the realized
        # travel times up front. Sharing the anchor keeps the policies on
        # common random numbers: they diverge only where information does.
        if anchor is None:
            anchor = open_loop_anchor(game, dist, policy, seed)
        plans = {vid: tuple(anchor[vid]) for vid in game.vehicle_ids}
        if policy.kind == "ktt":
            plans = clairvoyant_plan(game, truth, plans)

    start_min = min(game.start_of(vid, truth) for vid in game.vehicle_ids)
    world = WorldState(now=start_min, vehicles={
        vid: VehicleState(vid=vid, status="pending",
                          budget_left=game.fleet[vid].waiting_budget_steps,
                          planned_waits=list(plans[vid]))
        for vid in game.vehicle_ids})
    events: list[TraceEvent] = []
    gate = gating_steps(policy, game.net.time_step_minutes)
    replanning = policy.kind in ("drhs", "srhs")
    belief = Belief(game, dist) if replanning else None
    steps = 0
    while True:
        _arrivals_and_starts(game, world, truth, events)
        if all(v.status == "done" for v in world.vehicles.values()):
            break
        eligible = detect_decision_instance(world, game, gate)
        if eligible and replanning:
            if policy.kind == "drhs":
                solved = drhs_decide(game, world, belief, eligible, policy)
            else:
                solved = srhs_decide(game, world, belief, eligible, policy,
                                     seed=derive_seed(seed, "srhs", world.now))
            if solved:
                for vid, waits in solved.items():
                    for k, w in waits.items():
                        world.vehicles[vid].planned_waits[k] = w
                events.append(TraceEvent(world.now, "decide",
                                         {"eligible": list(eligible),
                                          "waits": {str(v): list(w.values())
                                                    for v, w in sorted(solved.items())}}))
        step_world(game, world, truth_travel, events)
        steps += 1
        if steps > max_steps:
            raise NonConvergenceError(f"simulation exceeded {max_steps} steps")

    states = [world.vehicles[vid] for vid in game.vehicle_ids]
    return SimulationTrace(
        policy=policy.kind, events=events,
        utility_centi={v.vid: v.reward_centi - game.cost_model.step_cost_centi * v.waited_steps
                       for v in states},
        waited_steps={v.vid: v.waited_steps for v in states},
        finish_steps={v.vid: v.finish_step for v in states})


def run_policies(game: CoordinationGame, dist: ScenarioDistribution,
                 truth: Scenario, policies: Sequence[PolicySpec], seed: int = 0,
                 max_steps: int = DEFAULT_MAX_STEPS) -> dict[str, SimulationTrace]:
    """Every policy on one realized day, each under the same seed.

    The open-loop anchor is solved once, with the first planning policy's
    settings, and shared: the anchor and any sampled oracle draws are then
    common random numbers across policies.
    """
    planning = [p for p in policies if p.kind != "sp"]
    anchor = open_loop_anchor(game, dist, planning[0], seed) if planning else None
    return {p.kind: run_closed_loop(game, dist, truth, p, seed=seed,
                                    max_steps=max_steps, anchor=anchor)
            for p in policies}
