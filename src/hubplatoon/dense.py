"""Dense integer tables for batch evaluation of candidate wait vectors.

The best-response oracles all answer the same question: for one vehicle,
for every candidate wait vector, what is the (expected) utility against a
fixed profile of everyone else. Answering it one action and one scenario
at a time is exact but slow; this module tabulates travel times, entry
counts and platoon rewards as integer arrays so a whole action space is
valued with a handful of numpy gathers.

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
    re-committed, environment tracks only contribute counts.
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
        self.weights = np.asarray(weights, dtype=np.int64)
        self._w_idx = np.arange(worlds)[:, None]
        self._cols: dict[int, np.ndarray] = {}
        self._avail: dict[int, np.ndarray] = {}
        self._budget: dict[int, int] = {}
        self._waits: dict[int, tuple[int, ...]] = {}
        self._entries: dict[int, np.ndarray] = {}
        self._acts: dict[int, tuple] = {}
        self._rt: np.ndarray | None = None
        self._reward = None

    # -- construction -----------------------------------------------------

    def set_travel(self, world: int, eid: int, row: np.ndarray) -> None:
        """Absolute travel steps for one edge over [t0, t0 + steps)."""
        if row.min() < 0:
            raise TableLimitError(f"negative travel on edge {eid}")
        self.travel[world, self.col[eid]] = row

    def finish_travel(self, reward_model, edges: Mapping, max_platoon: int,
                      max_budget: int, max_track_len: int) -> None:
        """Freeze travel tables and build the reward lookup."""
        rt = np.zeros((len(self.col), max_platoon + 1), dtype=np.int64)
        for eid, c in self.col.items():
            edge = edges[eid]
            for n in range(1, max_platoon + 1):
                rt[c, n] = reward_model.reward(n, edge)
        self._rt = rt
        bound = self.scale * (max_track_len * int(abs(rt).max(initial=1))
                              + max_budget * self.step_cost + 1)
        if bound > MAX_VALUE_BOUND:
            raise TableLimitError(f"value bound {bound} risks overflow")

    def add_track(self, vid: int, edge_ids: Sequence[int],
                  avail: Sequence[int], waits: Sequence[int],
                  budget: int) -> None:
        cols = np.asarray([self.col[e] for e in edge_ids], dtype=np.int64)
        self._cols[vid] = cols
        self._avail[vid] = np.asarray(avail, dtype=np.int64) - self.t0
        self._budget[vid] = budget
        entries = self._trace(vid, tuple(waits))
        self._entries[vid] = entries
        self._waits[vid] = tuple(waits)
        np.add.at(self.counts, (self._w_idx, cols[None, :], entries), 1)

    def _trace(self, vid: int, waits: tuple[int, ...]) -> np.ndarray:
        """Entry step (relative to t0) per world for one wait vector."""
        cols = self._cols[vid]
        entries = np.empty((self.w, len(cols)), dtype=np.int64)
        t = self._avail[vid] + waits[0]
        w_idx = np.arange(self.w)
        for k, c in enumerate(cols):
            entries[:, k] = t
            if k + 1 < len(cols):
                t = t + self.travel[w_idx, c, t] + waits[k + 1]
        if entries.max() >= self.steps or entries.min() < 0:
            raise TableLimitError("entry outside the tabulated window")
        return entries

    # -- queries ----------------------------------------------------------

    def commit(self, vid: int, waits: Sequence[int]) -> None:
        """Adopt a new wait vector for an existing track."""
        waits = tuple(waits)
        if waits == self._waits[vid]:
            return
        cols = self._cols[vid]
        np.subtract.at(self.counts,
                       (self._w_idx, cols[None, :], self._entries[vid]), 1)
        entries = self._trace(vid, waits)
        self._entries[vid] = entries
        self._waits[vid] = waits
        np.add.at(self.counts, (self._w_idx, cols[None, :], entries), 1)

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
        own = self._entries[vid]
        np.subtract.at(self.counts, (self._w_idx, cols[None, :], own), 1)
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
            np.add.at(self.counts, (self._w_idx, cols[None, :], own), 1)
        totals = rewards - self.step_cost * acts.sum(axis=1)[None, :]
        return self.weights @ totals


def worlds_table(game, views, worlds,
                 waits: Mapping[int, Sequence[int]]) -> EntryTable:
    """EntryTable over weighted worlds, one track per view.

    ``worlds`` are (probability, avail map, travel model) triples; the
    travel model supplies ``row_token``, ``max_extra`` and ``dense_row``.
    ``waits`` gives the wait vector each track starts from.
    """
    edge_ids = sorted({eid for v in views for eid in v.window_edges})
    if not edge_ids:
        raise TableLimitError("no window edges")
    weights, scale = scaled_weights([p for p, _a, _t in worlds])
    avail = {v.vid: [a[v.vid] for _p, a, _t in worlds] for v in views}
    max_delta = {eid: max(t.max_extra(eid) for _p, _a, t in worlds)
                 for eid in edge_ids}
    t0 = min(min(a) for a in avail.values())
    horizon = 1
    for v in views:
        span = max(avail[v.vid]) + v.budget_left
        for eid in v.window_edges:
            span += game.net.edges[eid].base_travel_steps + max_delta[eid]
        horizon = max(horizon, span - t0 + 1)
    table = EntryTable(len(worlds), edge_ids, horizon, t0, weights, scale,
                       game.cost_model.step_cost_centi)
    rows: dict = {}
    for w, (_p, _a, travel) in enumerate(worlds):
        for eid in edge_ids:
            token = travel.row_token(eid)
            row = rows.get(token)
            if row is None:
                row = travel.dense_row(eid, t0, t0 + horizon)
                rows[token] = row
            table.set_travel(w, eid, row)
    table.finish_travel(game.reward_model, game.net.edges,
                        max_platoon=len(views),
                        max_budget=max(v.budget_left for v in views),
                        max_track_len=max(len(v.window_edges) for v in views))
    for v in views:
        table.add_track(v.vid, v.window_edges, avail[v.vid], waits[v.vid],
                        v.budget_left)
    return table
