"""Dense integer tables for batch evaluation of candidate wait vectors.

The best-response oracles all answer the same question: for one vehicle,
for every candidate wait vector, what is the (expected) utility against a
fixed profile of everyone else. Answering it one action and one scenario
at a time is exact but slow; this module tabulates exit steps, entry
counts and platoon rewards as integer arrays so a whole action space is
valued with a handful of numpy gathers.

A table is built in whole-array passes, not per world. The worlds are
index arrays over one travel matrix, so the exit steps are filled with
one gather of every (world, edge, step) cell. Tracks of the same length
are traced together, and their entry counts go in with one scatter.
Rewards come from the reward model's per-edge rows
``[0, R(1, e), ..., R(n, e)]``, which it keeps between tables, laid end
to end. A cell stores what an entry there reads: the step it leaves the
edge, and the index in those rows of the reward of one more entrant, so
each entry costs one gather for its departure and one for its reward.
One walk, ``_walk``, turns waits into entry cells for the build, for
``commit`` and for valuation, which walks the prefix tree of an action
list: level k holds the distinct prefixes of k+1 waits, each leaving
from its parent's exit one level up, so a level costs its prefixes, not
every action. ``scaled_values`` values one track, taken out of the
table for its walk; ``batch_values`` every track of one window length at
once, as a horizon game's best-response round asks.

Everything stays exact: probabilities enter as lcm-scaled integer
weights, so a value here equals the reference Fraction times the scale,
in int64 when no value can overflow it and in Python ints otherwise.
Values are sums over worlds, so ``entry_tables`` splits worlds too many
for ``MAX_TABLE_CELLS`` into slices whose values add up. A table
refuses, with InputError, what no real day holds: a negative delay in
its window, a delay beyond 32 bits, one world whose window alone is over
the cell limit, an entry outside its window, and a wait vector whose
length is not its track's window's.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError

# cells of one table; more worlds than fit are split between tables
MAX_TABLE_CELLS = 32_000_000
# (track, action, world) cells valued at once by ``batch_values``
BATCH_CELLS = 1 << 16


# id(actions) -> (actions, prefix tree); the list is kept so its id stays
# its own. Action lists are the shared tuples of ``solver.action_space``,
# so one tree serves every table that walks its list.
_trees: dict[int, tuple] = {}


def prefix_tree(actions: Sequence[Sequence[int]]
                ) -> tuple[list, list[np.ndarray], list[np.ndarray]]:
    """The prefix tree of ``actions`` (a list that does not change), kept
    for later calls, as ``(parents, waits, sums)`` by window position.
    Level k holds the distinct prefixes ``waits[:k+1]``, merged where
    adjacent as in a lex-ordered list: ``parents[k]`` indexes each one's
    parent at level k-1 (``parents[0]`` is None), ``waits[k]`` is its last
    wait, as a column, and ``sums[k]`` its wait sum. The last level is
    ``actions`` in its order, so ``sums[-1]`` holds the row sums."""
    got = _trees.get(id(actions))
    if got is None:
        if len({len(a) for a in actions}) > 1:
            raise InputError("wait vectors of different lengths")
        acts = np.asarray(actions, dtype=np.int64)
        # new[i, k]: row i's prefix waits[:k+1] differs from row i-1's
        new = np.ones(acts.shape, dtype=bool)
        np.logical_or.accumulate(acts[1:] != acts[:-1], axis=1, out=new[1:])
        new[:, -1] = True
        ids, sums = np.cumsum(new, axis=0) - 1, np.cumsum(acts, axis=1)
        firsts = list(enumerate(np.flatnonzero(row) for row in new.T))
        tree = ([None] + [ids[first, k - 1] for k, first in firsts[1:]],
                [acts[first, k, None] for k, first in firsts],
                [sums[first, k] for k, first in firsts])
        if len(_trees) == 256:    # as many as ``solver.action_space`` keeps
            del _trees[next(iter(_trees))]    # the oldest
        got = _trees[id(actions)] = (actions, tree)
    return got[1]


class Window(NamedTuple):
    """What the tables of a game tabulate, whichever worlds they hold: the
    columns ``edge_ids``, ascending, with base times ``base``, and from
    ``t0``, the earliest availability, ``steps`` entry steps, which hold
    every entry a track can make within its budget or its waits' sum,
    whichever is larger."""

    edge_ids: list[int]
    base: np.ndarray
    t0: int
    steps: int


def entry_tables(game, views, worlds, avail: np.ndarray,
                 waits: Mapping[int, Sequence[int]]) -> list[EntryTable]:
    """The tables of ``views`` over consecutive slices of ``worlds``, each
    with as many worlds as fit ``MAX_TABLE_CELLS``, over one ``Window``;
    values are sums over worlds, so the slices' add up to the game's."""
    edge_ids = sorted({eid for v in views for eid in v.window_edges})
    matrix = worlds.matrix
    rows = worlds.rows[:, np.searchsorted(worlds.edges, edge_ids)]
    if matrix.wide[rows].any():
        raise InputError("a delay does not fit in 32 bits")
    edges = game.net.edges
    base = np.array([edges[eid].base_travel_steps for eid in edge_ids],
                    dtype=np.int64)
    longest = dict(zip(edge_ids, (base + matrix.top[rows].max(axis=0)).tolist()))
    t0 = int(avail.min())
    ends = [av + max(v.budget_left, sum(waits[v.vid]))
            + sum(map(longest.__getitem__, v.window_edges))
            for v, av in zip(views, avail.max(axis=1).tolist())]
    window = Window(edge_ids, base, t0, max(1, max(ends) - t0 + 1))
    # one world's cells, checked before any gather: a window within the
    # limit keeps every base + delay far inside int32
    cells = len(edge_ids) * window.steps
    if cells > MAX_TABLE_CELLS:
        raise InputError(f"{cells} cells exceed the dense limit")
    per = MAX_TABLE_CELLS // cells
    return [EntryTable(game, views, dataclasses.replace(
                worlds, weights=worlds.weights[lo:lo + per],
                rows=worlds.rows[lo:lo + per], starts=worlds.starts[lo:lo + per]),
                       avail[:, lo:lo + per], waits, window)
            for lo in range(0, len(worlds.weights), per)]


class EntryTable:
    """Exit steps and platoon counts over W weighted worlds.

    ``worlds`` is a ``solver.Worlds``, and ``avail[i, k]`` is when the
    track of ``views[i]`` can first leave in world k. Each view is a
    *track*: a vehicle's window edges, starting from the wait vector
    ``waits`` gives it. Player tracks can be re-valued and re-committed,
    environment tracks only contribute counts. ``entry_tables`` builds
    the tables, and gives them their game's ``window``.

    Each (world, column, step) cell stores two int32s: the step an entry
    there leaves the edge, ``step + base + delay``, and the flat index of
    the reward of one more entrant, ``column * width + count + 1``, into
    the reward rows of ``width`` entries each. ``travel`` and ``counts``
    are read-only, derived from them as new arrays. A track's entries
    are kept as flat cell indices, so adding or taking out a track is one
    scatter. ``scaled_values`` takes the valued track out for its walk,
    so a reward reads the other tracks' count plus one, and puts it back
    after, also when the walk is refused. This is safe with a plain
    scatter: a track enters each of its cells once, since travel is at
    least the base, at least 1 step, and a negative delay is refused, so
    its entry steps strictly increase.
    """

    def __init__(self, game, views, worlds, avail: np.ndarray,
                 waits: Mapping[int, Sequence[int]], window: Window):
        edge_ids, base, t0, horizon = window
        rows = worlds.rows[:, np.searchsorted(worlds.edges, edge_ids)]
        matrix = worlds.matrix
        delays = matrix.delays[rows[:, :, None], matrix.columns(range(t0, t0 + horizon))]
        if matrix.negative[rows].any() and delays.min() < 0:
            raise InputError("negative delay in the window")
        self.t0 = t0
        self.w = len(worlds.weights)
        self.steps = horizon
        self.step_cost = game.cost_model.step_cost_centi
        self.col = {eid: i for i, eid in enumerate(edge_ids)}
        # a window within the cell limit keeps every exit step in int32
        self._exit = np.ascontiguousarray(delays, dtype=np.int32)
        self._exit += (base[:, None] + np.arange(horizon)).astype(np.int32)
        edges = game.net.edges
        self._rt = np.stack([game.reward_model.reward_row(edges[eid], len(views))
                             for eid in edge_ids])
        # flat rewards: column c's reward for n vehicles at c * width + n
        self._flat_rt = self._rt.reshape(-1)
        # the reward index of a cell no track enters: one entrant
        self._first = (np.arange(len(edge_ids), dtype=np.int32)[:, None]
                       * self._rt.shape[1] + 1)
        self._index = np.empty_like(self._exit)
        self._index[...] = self._first
        # views, not copies, indexed by one flat cell
        self._flat_exit = self._exit.reshape(-1)
        self._flat_index = self._index.reshape(-1)
        self._w_cell = np.arange(self.w) * (len(edge_ids) * horizon)
        # weights and values are int64 when no value can overflow it; the
        # waits of a track fit its window
        bound = worlds.scale * (max(len(v.window_edges) for v in views)
                                * int(abs(self._rt).max(initial=1))
                                + horizon * self.step_cost + 1)
        self.weights = np.asarray(worlds.weights,
                                  dtype=np.int64 if bound < 2 ** 63 else object)
        # waiting cost of one step, summed over the weighted worlds
        self._step_cost_scaled = self.step_cost * int(self.weights.sum())
        self._cols: dict[int, np.ndarray] = {}
        self._avail: dict[int, np.ndarray] = {}
        self._waits: dict[int, tuple[int, ...]] = {}
        self._cells: dict[int, np.ndarray] = {}
        # tracks of one length are traced together; every count goes in
        # with one scatter
        by_len: dict[int, list] = {}
        for i, v in enumerate(views):
            by_len.setdefault(len(v.window_edges), []).append((v, i))
        traced = []
        for group in by_len.values():
            cols = np.asarray([[self.col[e] for e in v.window_edges]
                               for v, _i in group], dtype=np.int64)
            # C order: a track's availability row is walked at every valuation
            starts = np.ascontiguousarray(avail[[i for _v, i in group]],
                                          dtype=np.int64) - t0
            first = [tuple(waits[v.vid]) for v, _i in group]
            for waited in first:
                self._check_length(len(waited), cols.shape[1])
            got = self._trace(cols, starts, np.asarray(first, dtype=np.int64))
            traced.append(got.reshape(-1))
            for i, (v, _i) in enumerate(group):
                self._cols[v.vid] = cols[i]
                self._avail[v.vid] = starts[i]
                self._waits[v.vid] = first[i]
                self._cells[v.vid] = got[i]
        # counted by np.unique, whose memory follows the traced cells;
        # a bincount would allocate an int64 array the table's size
        cells, counts = np.unique(np.concatenate(traced), return_counts=True)
        self._flat_index[cells] += counts.astype(np.int32)

    @property
    def counts(self) -> np.ndarray:
        """The entries of each (world, column, step) cell, a new array."""
        return self._index - self._first

    @property
    def travel(self) -> np.ndarray:
        """The travel steps of an entry at each cell, a new array."""
        return self._exit - np.arange(self.steps, dtype=np.int32)

    @staticmethod
    def _check_length(length: int, window: int) -> None:
        """Refuse a wait vector whose length is not the window's."""
        if length != window:
            raise InputError(f"{length} waits for a window of {window} edges")

    def _walk(self, cols, avail: np.ndarray, waits, fits=None, parents=None):
        """Yield the flat cell of each entry, window edge by window edge.

        ``avail`` is when a track can first leave (relative to t0), with
        the worlds on its last axis; ``cols[k]`` and ``waits[k]``, the
        column and wait of the k-th window edge, broadcast against it.
        With ``parents``, the k-th level's rows leave from the rows
        ``parents[k]`` of the level before, on the second-to-last axis (a
        prefix tree; ``parents[0]`` is not read). Where ``fits[k]`` is
        False the k-th entry is moved to step 0 and never read, so a wait
        vector beyond a track's budget cannot leave the window. An entry
        outside the tabulated window is refused before its exit is read.
        The waits are int64 arrays, so each ``t`` is a new int64 array.
        """
        t = avail
        cell = None
        for k, (c, wait) in enumerate(zip(cols, waits)):
            if cell is not None:
                t = self._flat_exit.take(cell)
                if parents is not None:
                    t = t.take(parents[k], axis=-2)
            t = t + wait
            if fits is not None:
                t = np.where(fits[k], t, 0)
            # entry steps are int64: a negative one viewed as unsigned is
            # huge, so one max checks both ends of the window
            if t.view(np.uint64).max() >= self.steps:
                raise InputError("entry outside the tabulated window")
            cell = self._w_cell + c * self.steps + t
            yield cell

    def _trace(self, cols: np.ndarray, avail: np.ndarray,
               waits: np.ndarray) -> np.ndarray:
        """Flat cells of the entries of tracks of one length, shape
        (tracks, edges, worlds); one row per track in each argument."""
        return np.stack(list(self._walk(cols.T[:, :, None], avail,
                                        waits.T[:, :, None])), axis=1)

    # -- queries ----------------------------------------------------------

    def commit(self, vid: int, waits: Sequence[int]) -> None:
        """Adopt a new wait vector for an existing track; one that is
        refused leaves the table as it was."""
        waits = tuple(waits)
        self._check_length(len(waits), len(self._cols[vid]))
        cells = self._trace(self._cols[vid][None], self._avail[vid][None],
                            np.asarray([waits], dtype=np.int64))[0]
        self._flat_index[self._cells[vid]] -= 1
        self._flat_index[cells] += 1
        self._cells[vid] = cells
        self._waits[vid] = waits

    def sync(self, profile: Mapping[int, Sequence[int]],
             vids: Sequence[int]) -> list[int]:
        """Commit each track of ``vids`` whose waits differ from ``profile``;
        the ids committed."""
        moved = [vid for vid in vids if tuple(profile[vid]) != self._waits[vid]]
        for vid in moved:
            self.commit(vid, profile[vid])
        return moved

    def _values(self, cols, shared, avail, own, tree, fits=None) -> np.ndarray:
        """scale * expected utility of each action of ``tree``, walked over
        ``cols``, ``avail`` and ``fits``; a prefix's weighted reward adds to
        its parent's. A reward is read at the count of the other tracks plus
        one: the table's reward index, less one where the cell is the
        track's own ``own[j]`` for a position j of ``shared[k]``, those
        whose column may be the k-th's. The table is left untouched."""
        parents, waits, sums = tree
        acc = 0
        cells = self._walk(cols, avail, waits, fits, parents)
        for k, (parent, cell) in enumerate(zip(parents, cells)):
            index = self._flat_index.take(cell)
            for j in shared[k]:
                index -= cell == own[j]
            value = self._flat_rt.take(index) @ self.weights
            acc = value if parent is None else acc.take(parent, axis=-1) + value
        return acc - self._step_cost_scaled * sums[-1].astype(self.weights.dtype, copy=False)

    def scaled_values(self, vid: int, actions: Sequence[Sequence[int]]) -> np.ndarray:
        """scale * expected utility for each action, walked over the
        ``prefix_tree`` of ``actions`` with the track taken out of the
        table; it is put back however the walk ends."""
        cols = self._cols[vid].tolist()
        tree = prefix_tree(actions)
        self._check_length(len(tree[1]), len(cols))
        own = self._cells[vid]
        self._flat_index[own] -= 1
        try:
            return self._values(cols, [()] * len(cols), self._avail[vid], None, tree)
        finally:
            self._flat_index[own] += 1

    def batch_values(self, vids: Sequence[int], actions: Sequence[Sequence[int]],
                     budgets: Sequence[int]) -> list[np.ndarray]:
        """``scaled_values`` of each track of ``vids``, all of one window
        length, over the rows of ``actions`` within the track's budget, in
        their order, walked together ``BATCH_CELLS`` (track, action, world)
        cells at a time. A prefix beyond a track's budget is masked at its
        level, so neither it nor its children can leave the window."""
        tree = prefix_tree(actions)
        sums = tree[2]
        budgets = np.asarray(budgets, dtype=np.int64)[:, None, None]
        every = sums[-1].max() <= budgets.min()
        per = max(1, BATCH_CELLS // (len(sums[-1]) * self.w))
        out = []
        for lo in range(0, len(vids), per):
            part = vids[lo:lo + per]
            cols = np.stack([self._cols[vid] for vid in part], axis=1)
            # per position k, the positions whose column is k's on some track
            shared = [np.flatnonzero(row) for row in (cols[:, None] == cols[None]).any(axis=2)]
            own = np.stack([self._cells[vid] for vid in part], axis=1)[:, :, None]
            avail = np.stack([self._avail[vid] for vid in part])[:, None, :]
            fits = None if every else [s[:, None] <= budgets[lo:lo + per] for s in sums]
            values = self._values(cols[:, :, None, None], shared, avail, own, tree, fits)
            out += list(values) if every else [r[ok] for r, ok in zip(values, fits[-1][..., 0])]
        return out

    def committed_value(self, vid: int) -> int:
        """``scaled_values`` of the track's committed waits, read at its own
        cells: its entry steps strictly increase, so it enters each cell
        once and a cell's count is the other tracks' plus one."""
        index = self._flat_index.take(self._cells[vid]) - 1
        return (int(self._flat_rt.take(index).sum(axis=0) @ self.weights)
                - self._step_cost_scaled * sum(self._waits[vid]))

    def potential(self) -> int:
        """scale * expected potential of the committed waits: per world, the
        sum over cells of the cumulative reward at the cell's count, less
        every track's waiting."""
        cells = np.flatnonzero(self.counts)
        cumulative = np.cumsum(self._rt, axis=1).reshape(-1)
        per_world = np.zeros(self.w, dtype=np.int64)
        np.add.at(per_world, cells // (len(self.col) * self.steps),
                  cumulative.take(self._flat_index[cells] - 1))
        return (sum(n * w for n, w in zip(per_world.tolist(), self.weights.tolist()))
                - self._step_cost_scaled * sum(map(sum, self._waits.values())))
