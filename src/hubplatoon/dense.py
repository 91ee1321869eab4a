"""Dense integer tables for batch evaluation of candidate wait vectors.

The best-response oracles all answer the same question: for one vehicle,
for every candidate wait vector, what is the (expected) utility against a
fixed profile of everyone else. Answering it one action and one scenario
at a time is exact but slow; this module tabulates travel times, entry
counts and platoon rewards as integer arrays so a whole action space is
valued with a handful of numpy gathers.

A table is built in whole-array passes, not per world. Travel is filled
per edge: the worlds are grouped by their travel model's row token, one
row is read per distinct token, and one gather copies it into every
world. Tracks of the same length are traced together, and their entry
counts go in with one scatter. Rewards come from the reward model's
per-edge rows ``[0, R(1, e), ..., R(n, e)]``, which it keeps between
tables.

Everything stays exact: probabilities enter as lcm-scaled integer
weights, so a value here equals the reference Fraction times the scale.
Construction raises TableLimitError when the tables would be too large
or the integers could overflow; callers then keep their plain loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

# beyond these, fall back to the reference evaluation path
MAX_TABLE_CELLS = 32_000_000
MAX_VALUE_BOUND = 2 ** 62


class TableLimitError(Exception):
    """The dense representation does not fit; use the reference path."""


def scaled_weights(probs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer weights preserving exact ordering: weight[i] = prob[i] * scale."""
    scale = 1
    for p in probs:
        scale = scale * p.denominator // math.gcd(scale, p.denominator)
    if scale > MAX_VALUE_BOUND:
        raise TableLimitError(f"weight scale {scale} too large")
    return [int(p * scale) for p in probs], scale


class EntryTable:
    """Entry times and platoon counts over W weighted worlds.

    A *track* is one vehicle's list of edges with a per-world availability
    step and a committed wait vector; player tracks can be re-valued and
    re-committed, environment tracks only contribute counts. A track's
    entries are kept as flat indices into ``counts``, so adding or taking
    out a track is one scatter.
    """

    def __init__(self, worlds: int, edge_ids: Sequence[int], horizon_steps: int,
                 t0: int, weights: Sequence[int], scale: int,
                 step_cost_centi: int):
        if worlds < 1 or not edge_ids or horizon_steps < 1:
            raise TableLimitError("empty table")
        cells = worlds * len(edge_ids) * horizon_steps
        if cells > MAX_TABLE_CELLS:
            raise TableLimitError(f"{cells} cells exceed the dense limit")
        self.w = worlds
        self.t0 = t0
        self.steps = horizon_steps
        self.scale = scale
        self.step_cost = step_cost_centi
        self.col = {eid: i for i, eid in enumerate(edge_ids)}
        self.travel = np.zeros((worlds, len(edge_ids), horizon_steps),
                               dtype=np.int32)
        self.counts = np.zeros_like(self.travel)
        self._flat_counts = self.counts.reshape(-1)   # a view, not a copy
        self.weights = np.asarray(weights, dtype=np.int64)
        self._worlds = np.arange(worlds)
        self._w_idx = self._worlds[:, None]
        self._w_cell = self._worlds * (len(edge_ids) * horizon_steps)
        self._cols: dict[int, np.ndarray] = {}
        self._avail: dict[int, np.ndarray] = {}
        self._waits: dict[int, tuple[int, ...]] = {}
        self._cells: dict[int, np.ndarray] = {}
        self._acts: dict[int, tuple] = {}
        self._rt: np.ndarray | None = None

    # -- construction -----------------------------------------------------

    def finish_travel(self, reward_model, edges: Mapping, max_platoon: int,
                      max_budget: int, max_track_len: int) -> None:
        """Freeze travel tables and build the reward lookup."""
        rt = np.stack([reward_model.reward_row(edges[eid], max_platoon)
                       for eid in self.col])
        self._rt = rt
        bound = self.scale * (max_track_len * int(abs(rt).max(initial=1))
                              + max_budget * self.step_cost + 1)
        if bound > MAX_VALUE_BOUND:
            raise TableLimitError(f"value bound {bound} risks overflow")

    def add_tracks(self, tracks: Sequence[tuple[int, Sequence[int],
                                                Sequence[int], Sequence[int]]]
                   ) -> None:
        """Add (vid, edge ids, availability per world, waits) tracks.

        Tracks of one length are traced together, and all their counts
        go in with one scatter.
        """
        by_len: dict[int, list] = {}
        for track in tracks:
            by_len.setdefault(len(track[1]), []).append(track)
        cells = []
        for group in by_len.values():
            cols = np.asarray([[self.col[e] for e in edge_ids]
                               for _v, edge_ids, _a, _w in group], dtype=np.int64)
            avail = np.asarray([a for _v, _e, a, _w in group],
                               dtype=np.int64) - self.t0
            waits = [tuple(w) for _v, _e, _a, w in group]
            got = self._trace(cols, avail, np.asarray(waits, dtype=np.int64))
            cells.append(got.reshape(-1))
            for i, (vid, _e, _a, _w) in enumerate(group):
                self._cols[vid] = cols[i]
                self._avail[vid] = avail[i]
                self._waits[vid] = waits[i]
                self._cells[vid] = got[i]
        np.add.at(self._flat_counts, np.concatenate(cells), 1)

    def _trace(self, cols: np.ndarray, avail: np.ndarray,
               waits: np.ndarray) -> np.ndarray:
        """Flat ``counts`` index of each entry, shape (tracks, worlds, edges).

        ``cols``, ``avail`` (relative to t0) and ``waits`` hold one row per
        track, all tracks of one length.
        """
        cells = np.empty((len(cols), self.w, cols.shape[1]), dtype=np.int64)
        t = avail + waits[:, :1]
        for k in range(cols.shape[1]):
            if t.max() >= self.steps or t.min() < 0:
                raise TableLimitError("entry outside the tabulated window")
            c = cols[:, k:k + 1]
            cells[:, :, k] = self._w_cell + c * self.steps + t
            if k + 1 < cols.shape[1]:
                t = t + self.travel[self._worlds, c, t] + waits[:, k + 1:k + 2]
        return cells

    # -- queries ----------------------------------------------------------

    def commit(self, vid: int, waits: Sequence[int]) -> None:
        """Adopt a new wait vector for an existing track."""
        waits = tuple(waits)
        if waits == self._waits[vid]:
            return
        np.subtract.at(self._flat_counts, self._cells[vid], 1)
        cells = self._trace(self._cols[vid][None], self._avail[vid][None],
                            np.asarray([waits], dtype=np.int64))[0]
        self._cells[vid] = cells
        self._waits[vid] = waits
        np.add.at(self._flat_counts, cells, 1)

    def sync(self, profile: Mapping[int, Sequence[int]]) -> None:
        for vid, waits in profile.items():
            if tuple(waits) != self._waits[vid]:
                self.commit(vid, waits)

    def action_matrix(self, vid: int, actions: Sequence[Sequence[int]]
                      ) -> np.ndarray:
        cached = self._acts.get(vid)
        if cached is not None and cached[0] is actions:
            return cached[1]
        got = np.asarray(actions, dtype=np.int64)
        self._acts[vid] = (actions, got)   # keep the list alive with its array
        return got

    def scaled_values(self, vid: int,
                      actions: Sequence[Sequence[int]]) -> np.ndarray:
        """scale * expected utility for each action, as int64."""
        cols = self._cols[vid]
        acts = self.action_matrix(vid, actions)
        own = self._cells[vid]
        np.subtract.at(self._flat_counts, own, 1)
        try:
            t = self._avail[vid][:, None] + acts[None, :, 0]
            rewards = np.zeros((self.w, len(acts)), dtype=np.int64)
            for k, c in enumerate(cols):
                if t.max() >= self.steps or t.min() < 0:
                    raise TableLimitError("entry outside the tabulated window")
                n = self.counts[self._w_idx, c, t]
                rewards += self._rt[c, n + 1]
                if k + 1 < len(cols):
                    t = t + self.travel[self._w_idx, c, t] + acts[None, :, k + 1]
        finally:
            np.add.at(self._flat_counts, own, 1)
        totals = rewards - self.step_cost * acts.sum(axis=1)[None, :]
        return self.weights @ totals


def worlds_table(game, views, worlds,
                 waits: Mapping[int, Sequence[int]]) -> EntryTable:
    """EntryTable over weighted worlds, one track per view.

    ``worlds`` are (probability, avail map, travel model) triples; the
    travel model supplies ``row_token``, ``max_extra`` and ``dense_row``.
    Worlds with equal ``row_token`` on an edge share that edge's row, so
    each edge reads one row per distinct token and gathers it into every
    world. ``waits`` gives the wait vector each track starts from.
    """
    edge_ids = sorted({eid for v in views for eid in v.window_edges})
    if not edge_ids:
        raise TableLimitError("no window edges")
    weights, scale = scaled_weights([p for p, _a, _t in worlds])
    travels = [t for _p, _a, t in worlds]
    groups = {eid: _token_groups(travels, eid) for eid in edge_ids}
    max_delta = {eid: max(t.max_extra(eid) for t in reps)
                 for eid, (reps, _inverse) in groups.items()}
    avail = [[a[v.vid] for _p, a, _t in worlds] for v in views]
    t0 = min(min(a) for a in avail)
    edges = game.net.edges
    horizon = 1
    for v, av in zip(views, avail):
        span = max(av) + v.budget_left + sum(
            edges[eid].base_travel_steps + max_delta[eid] for eid in v.window_edges)
        horizon = max(horizon, span - t0 + 1)
    table = EntryTable(len(worlds), edge_ids, horizon, t0, weights, scale,
                       game.cost_model.step_cost_centi)
    for eid, (reps, inverse) in groups.items():
        rows = np.stack([t.dense_row(eid, t0, t0 + horizon) for t in reps])
        if rows.min() < 0:
            raise TableLimitError(f"negative travel on edge {eid}")
        table.travel[:, table.col[eid]] = rows[inverse]
    table.finish_travel(game.reward_model, edges,
                        max_platoon=len(views),
                        max_budget=max(v.budget_left for v in views),
                        max_track_len=max(len(v.window_edges) for v in views))
    table.add_tracks([(v.vid, v.window_edges, av, waits[v.vid])
                      for v, av in zip(views, avail)])
    return table


def _token_groups(travels, eid: int) -> tuple[list, np.ndarray]:
    """One travel model per distinct ``row_token`` on ``eid``, in order of
    first appearance, and each world's index into that list."""
    index: dict = {}
    reps = []
    inverse = []
    for travel in travels:
        token = travel.row_token(eid)
        k = index.get(token)
        if k is None:
            k = index[token] = len(reps)
            reps.append(travel)
        inverse.append(k)
    return reps, np.asarray(inverse, dtype=np.intp)
