"""Best-response dynamics and Nash equilibrium search.

Round-robin best response over the fleet. Utilities come from an oracle
object. ``WorldsOracle`` is the one oracle: the deterministic game, the
expected-value game over a scenario distribution and the horizon games of
the feedback policies are all expectations over weighted worlds, so the
same loop solves each; ``static_game`` builds the full-route ones. As all
of these admit an exact potential, every action-changing best response
strictly increases a bounded function and the iteration terminates.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .dense import EntryTable, entry_tables
from .errors import InputError, NonConvergenceError
from .game import CoordinationGame, Scenario
from .network import Edge, RoadNetwork, TravelMatrix

DEFAULT_ROUND_CAP = 10_000


def enumerate_actions(length: int, budget: int) -> list[tuple[int, ...]]:
    """All nonnegative integer wait vectors with sum <= budget, lex order."""
    if length < 1:
        raise InputError(f"action length must be >= 1, got {length}")
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], left: int, slots: int) -> None:
        if slots == 0:
            out.append(prefix)
            return
        for w in range(left + 1):
            rec(prefix + (w,), left - w, slots - 1)

    rec((), budget, length)
    return out


@functools.lru_cache(maxsize=256)
def action_space(length: int, budget: int) -> tuple[tuple[int, ...], ...]:
    """``enumerate_actions`` as a tuple, built once per (length, budget):
    routes, spans and budgets take few values, met again at every solve.
    For a smaller budget the space is this one's rows within it, in order."""
    return tuple(enumerate_actions(length, budget))


def spaces_for_fleet(fleet) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Per-vehicle action space keyed by id; fleet is any VehicleSpec iterable."""
    return {v.id: action_space(len(v.edge_sequence), v.waiting_budget_steps)
            for v in fleet}


@dataclass
class HorizonView:
    """One vehicle's track in a game: the route nodes whose waits it decides.

    Players choose waits over ``span_nodes``; the others are environment
    tracks that keep their ``committed`` waits. A static game gives every
    vehicle its full route as a player view.
    """

    vid: int
    kind: str                     # at_node | on_edge | pending
    span_nodes: tuple[int, ...]   # path node indices whose waits are decided
    window_edges: tuple[int, ...] # edge ids out of the span nodes
    committed: tuple[int, ...]    # current plan over the span
    budget_left: int
    player: bool
    current_edge: int | None = None
    entered_at: int | None = None


def profile_row(net: RoadNetwork, eid: int, pid: int) -> int:
    """The travel-matrix row of profile ``pid`` on edge ``eid``; the one
    check that the edge and profile exist and the profile is admissible."""
    row = net.travel_matrix.index.get((eid, pid))
    if row is not None:
        return row
    edge = net.edges.get(eid)
    if edge is None:
        raise InputError(f"scenario assigns a profile to unknown edge {eid}")
    if pid not in net.delay_profiles:
        raise InputError(f"scenario references unknown delay profile {pid}")
    if edge.delay_profile_ids:
        raise InputError(f"profile {pid} is not admissible on edge {eid}")
    return 0   # admits any profile; this one has no entry on the edge


@dataclass(frozen=True)
class Worlds:
    """W weighted worlds as index arrays over one travel matrix.

    World k has probability ``weights[k] / scale``, travels ``edges[j]``
    with ``matrix`` row ``rows[k, j]`` and starts vehicle ``vids[i]`` at
    ``starts[k, i]``. ``edges`` lists every edge a game reads, ascending.
    """

    matrix: TravelMatrix
    weights: Sequence[int]
    scale: int
    edges: tuple[int, ...]
    rows: np.ndarray
    vids: tuple[int, ...]
    starts: np.ndarray

    @classmethod
    def of(cls, matrix: TravelMatrix, weights: Sequence[int], scale: int,
           edges: Sequence[int], drawn: Mapping, starts: Mapping) -> Worlds:
        """``drawn`` gives an edge its matrix row in each world, and other
        edges keep row 0, free flow; ``starts`` gives a vehicle its start
        step in each world."""
        rows = np.zeros((len(weights), len(edges)), dtype=np.intp)
        for j, eid in enumerate(edges):
            if eid in drawn:
                rows[:, j] = drawn[eid]
        steps = np.array(list(starts.values()), dtype=np.int64)
        return cls(matrix, weights, scale, tuple(edges), rows, tuple(starts),
                   steps.reshape(len(starts), len(weights)).T)

    def travel(self, k: int, edges: Mapping[int, Edge]):
        """World ``k``'s travel steps as ``travel(edge id, entry step)``."""
        rows = dict(zip(self.edges, self.rows[k].tolist()))
        return lambda eid, t: (edges[eid].base_travel_steps
                               + self.matrix.delay(rows[eid], t))


def static_game(game: CoordinationGame, weights: Sequence[int], scale: int,
                drawn: Mapping, starts: Mapping):
    """Views, worlds and availability of the static game: every vehicle is
    a player over its full route. ``drawn`` gives an edge its matrix row
    in each world, and other edges keep row 0; ``starts`` gives a vehicle
    its start step in each world, and other vehicles keep their fleet's."""
    views = [HorizonView(vid=v.id, kind="pending",
                         span_nodes=tuple(range(len(v.edge_sequence))),
                         window_edges=v.edge_sequence,
                         committed=(0,) * len(v.edge_sequence),
                         budget_left=v.waiting_budget_steps, player=True)
             for v in game.fleet.values()]
    edges = sorted({eid for v in views for eid in v.window_edges})
    worlds = Worlds.of(game.net.travel_matrix, weights, scale, edges, drawn,
                       {v.id: starts.get(v.id, [v.start_step] * len(weights))
                        for v in game.fleet.values()})
    return views, worlds, worlds.starts.T


class WorldsOracle:
    """Expected utilities of a game over a set of weighted worlds.

    ``avail[i, k]`` is when the vehicle of ``views[i]`` can first leave
    its span's first node in world k. Rewards count only a vehicle's own
    window edges; waiting cost covers its span. Values, utilities and the
    potential are read off ``dense.entry_tables``, one table per slice of
    the worlds, added up. The tables hold the players and only the
    environment tracks that share a window edge with one: no player reads
    the counts of the others.
    """

    approximate = False
    integral = False    # True: values in whole centi-SEK, else Fractions
    # while ``nash_seek`` runs, the players whose turn it takes next, the
    # one asking among them; a batched pass values them only. None: every
    # player
    due: set[int] | None = None

    def __init__(self, game: CoordinationGame, views: Sequence[HorizonView],
                 worlds: Worlds, avail: np.ndarray):
        self.game = game
        self.views = {v.vid: v for v in views}
        self.players = tuple(sorted(v.vid for v in views if v.player))
        self.has_environment = len(self.players) < len(self.views)
        self.worlds = worlds
        self.avail = avail
        self._tables: list[EntryTable] = []
        self._batch: dict[int, np.ndarray | None] = {}   # unread values of the last pass
        self._stale: set[int] = set()   # window edges of players moved since
        self._synced: dict = {}   # the profile the tables were last synced to

    def _typed(self, totals) -> list:
        """Values from totals weighted by the worlds' weights; the one
        place their type is chosen."""
        if self.integral:     # one world of weight 1, so the scale is 1
            return [int(v) for v in totals]
        return [Fraction(int(v), self.worlds.scale) for v in totals]

    def _waits(self, vid: int, profile: Mapping[int, Sequence[int]]):
        view = self.views[vid]
        return profile[vid] if view.player else view.committed

    def _dense(self, profile) -> list[EntryTable]:
        """The tables, synced to ``profile``."""
        if not self._tables:
            views = list(self.views.values())
            read = {eid for v in views if v.player for eid in v.window_edges}
            kept = [i for i, v in enumerate(views)
                    if v.player or not read.isdisjoint(v.window_edges)]
            self._tables = entry_tables(
                self.game, [views[i] for i in kept], self.worlds,
                self.avail[kept] if len(kept) < len(views) else self.avail,
                {views[i].vid: self._waits(views[i].vid, profile) for i in kept})
        if profile != self._synced:
            # the tables hold the same tracks, so each moves the same ones
            moved = self._tables[0].sync(profile, self.players)
            for table in self._tables[1:]:
                table.sync(profile, self.players)
            for vid in moved:
                self._stale.update(self.views[vid].window_edges)
            self._synced = {vid: tuple(w) for vid, w in profile.items()}
        return self._tables

    def action_values(self, vid: int, actions: Sequence[Sequence[int]],
                      profile: Mapping[int, Sequence[int]]) -> list:
        return self._typed(self.scaled_values(vid, actions, profile))

    def scaled_values(self, vid: int, actions: Sequence[Sequence[int]],
                      profile: Mapping[int, Sequence[int]]):
        """``action_values`` times the lcm of the world probabilities'
        denominators: exact integers in the same order, cheap to compare.

        A horizon game (one with environment tracks) batches a round. A
        player asking for its ``action_space`` reads the value the last
        pass gave it, once, unless a player sharing one of its window
        edges has moved since, or the pass left it out; then it is valued
        alone. Once its value is read, its next question starts a new pass
        over the players of ``due``, itself among them. A static game
        is not batched: its early rounds move so many players that most
        values of a pass would go unread.
        """
        tables = self._dense(profile)
        view = self.views[vid]
        if view.player and self.has_environment and actions is action_space(
                len(view.span_nodes), view.budget_left):
            if vid not in self._batch:
                self._batch = self._round_values(tables)
                self._stale.clear()
            values = self._batch.pop(vid)
            if values is not None and self._stale.isdisjoint(view.window_edges):
                return values
        values = tables[0].scaled_values(vid, actions)
        for table in tables[1:]:
            values = values + table.scaled_values(vid, actions)
        return values

    def _round_values(self, tables: Sequence[EntryTable]) -> dict:
        """Each player's values over its ``action_space`` against the
        tables' committed waits, keyed by id, from one
        ``EntryTable.batch_values`` pass per window length and table. With
        ``due`` set, only its players are valued and the others get None:
        ``nash_seek`` skips their turn until a player on one of their
        window edges moves, and then their value is stale."""
        groups: dict[int, list[int]] = {}
        for vid in self.players:
            if self.due is None or vid in self.due:
                groups.setdefault(len(self.views[vid].span_nodes), []).append(vid)
        out = dict.fromkeys(self.players)
        for length, vids in groups.items():
            budgets = [self.views[vid].budget_left for vid in vids]
            actions = action_space(length, max(budgets))
            values = tables[0].batch_values(vids, actions, budgets)
            for table in tables[1:]:
                values = [v + more for v, more in zip(
                    values, table.batch_values(vids, actions, budgets))]
            out.update(zip(vids, values))
        return out

    def utility(self, vid: int, profile: Mapping[int, Sequence[int]]):
        """A player's utility is read off the synced tables; no tree is kept."""
        tables = self._dense(profile)
        if self.views[vid].player:
            return self._typed([sum(table.committed_value(vid) for table in tables)])[0]
        return self.action_values(vid, [tuple(profile[vid])], profile)[0]

    def potential(self, profile: Mapping[int, Sequence[int]]):
        """Expected potential: cumulative platoon values minus all waiting,
        over the tracks the tables hold. A horizon game's tables leave out
        the tracks no player shares an edge with; that moves its potential
        by a constant, so its differences are those of every track's."""
        return self._typed([sum(table.potential() for table in self._dense(profile))])[0]


class DeterministicOracle(WorldsOracle):
    """Utilities of a CoordinationGame under one fixed scenario."""

    integral = True

    def __init__(self, game: CoordinationGame, scenario: Scenario):
        super().__init__(game, *static_game(
            game, [1], 1, {eid: [profile_row(game.net, eid, pid)]
                           for eid, pid in scenario.profile_assignment.items()},
            {vid: [t] for vid, t in scenario.start_steps.items()}))


def scenario_travel(game: CoordinationGame, scenario: Scenario):
    """One scenario's travel steps on the fleet's routes, as
    ``travel(edge id, entry step)``; the simulated truth is read so."""
    return DeterministicOracle(game, scenario).worlds.travel(0, game.net.edges)


def best_response(oracle, vid: int, actions: Sequence[tuple[int, ...]],
                  profile: Mapping[int, Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Best wait vector for ``vid`` against the rest of ``profile``.

    Returns (waits, candidates evaluated). Ties keep the current action if
    it attains the maximum, otherwise the lexicographically smallest
    maximizer wins; ``actions`` must already be in lex order. Values are
    the oracle's ``scaled_values``, integers in the order of utilities.
    """
    values = oracle.scaled_values(vid, actions, profile)
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    top = max(values)
    current = tuple(profile[vid])
    for value, action in zip(values, actions):
        if value == top and tuple(action) == current:
            return current, len(actions)
    return tuple(actions[values.index(top)]), len(actions)


@dataclass
class SolveReport:
    """Outcome of a Nash search: final profile plus effort accounting."""

    profile: dict[int, tuple[int, ...]]
    rounds: int
    evaluations: int
    verified: bool = False
    potential_trajectory: list | None = field(default=None)

    def to_dict(self) -> dict:
        doc = {"profile": {str(vid): list(w) for vid, w in sorted(self.profile.items())},
               "rounds": self.rounds, "evaluations": self.evaluations,
               "verified": self.verified}
        if self.potential_trajectory is not None:
            doc["potential_trajectory"] = [
                (float(p) if not isinstance(p, int) else p)
                for p in self.potential_trajectory]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def nash_seek(oracle, spaces: Mapping[int, Sequence[tuple[int, ...]]],
              initial: Mapping[int, Sequence[int]] | None = None,
              order: Sequence[int] | None = None,
              round_cap: int = DEFAULT_ROUND_CAP,
              track_potential: bool = False,
              verify: bool = False) -> SolveReport:
    """Round-robin best response until a full pass changes nothing.

    ``spaces`` maps vehicle id to its lex-ordered action set. The default
    start is the first (all-zero) action of every space; the default
    update order is ascending id. ``rounds`` counts full passes including
    the final confirming one.

    A player's values depend only on tracks sharing one of its window
    edges (``oracle.views``), so while none of those has moved since its
    last turn, the tie rule keeps its action and the turn is skipped.
    ``evaluations`` counts the candidates of every turn, skipped or not.
    While the search runs, ``oracle.due`` is the set of players whose next
    turn is taken, so a ``WorldsOracle`` batches no value a skip leaves
    unread.
    """
    ids = tuple(order) if order is not None else tuple(sorted(spaces))
    if set(ids) != set(spaces) or len(ids) != len(spaces):
        raise InputError("update order must list every vehicle exactly once")
    if initial is None:
        profile = {vid: spaces[vid][0] for vid in ids}
    else:
        profile = {vid: tuple(initial[vid]) for vid in ids}
        for vid in ids:
            if profile[vid] not in set(spaces[vid]):
                raise InputError(f"initial action of vehicle {vid} is not in its space")
    trajectory = None
    if track_potential:
        trajectory = [oracle.potential(profile)]
    on: dict[int, list[int]] = {}   # window edge -> the players on it
    for vid in ids:
        for eid in oracle.views[vid].window_edges:
            on.setdefault(eid, []).append(vid)
    # the players whose next turn is taken: another player on one of their
    # window edges moved since their last turn, or they had none; a player
    # leaves it when its turn is over
    due = oracle.due = set(ids)
    rounds = evaluations = 0
    changed = True
    try:
        while changed:
            rounds += 1
            if rounds > round_cap:
                raise NonConvergenceError(f"no equilibrium after {round_cap} rounds")
            changed = False
            for vid in ids:
                if vid not in due:
                    evaluations += len(spaces[vid])
                    continue
                waits, n_eval = best_response(oracle, vid, spaces[vid], profile)
                due.discard(vid)
                evaluations += n_eval
                if waits != profile[vid]:
                    profile[vid] = waits
                    changed = True
                    due.update(q for eid in oracle.views[vid].window_edges
                               for q in on[eid] if q != vid)
                    if trajectory is not None:
                        trajectory.append(oracle.potential(profile))
    finally:
        oracle.due = None
    verified = False
    if verify:
        verified = verify_ne(oracle, spaces, profile)
    return SolveReport(profile=dict(profile), rounds=rounds, evaluations=evaluations,
                       verified=verified, potential_trajectory=trajectory)


def verify_ne(oracle, spaces: Mapping[int, Sequence[tuple[int, ...]]],
              profile: Mapping[int, Sequence[int]]) -> bool:
    """Exhaustive unilateral-deviation check; exact comparisons."""
    for vid in sorted(spaces):
        values = np.asarray(oracle.scaled_values(vid, spaces[vid], profile))
        here = values[list(map(tuple, spaces[vid])).index(tuple(profile[vid]))]
        if (values > here).any():
            return False
    return True


def solve_deterministic(game: CoordinationGame, scenario: Scenario,
                        initial: Mapping[int, Sequence[int]] | None = None,
                        order: Sequence[int] | None = None,
                        round_cap: int = DEFAULT_ROUND_CAP,
                        track_potential: bool = False,
                        verify: bool = False) -> SolveReport:
    oracle = DeterministicOracle(game, scenario)
    spaces = spaces_for_fleet(game.fleet.values())
    return nash_seek(oracle, spaces, initial=initial, order=order,
                     round_cap=round_cap, track_potential=track_potential,
                     verify=verify)
