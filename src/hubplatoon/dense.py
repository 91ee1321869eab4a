"""Dense integer tables for batch evaluation of candidate wait vectors.

The best-response oracles all answer the same question: for one vehicle,
for every candidate wait vector, what is the (expected) utility against a
fixed profile of everyone else. Answering it one action and one scenario
at a time is exact but slow; this module tabulates exit steps, entry
counts and platoon rewards as integer arrays so a whole action space is
valued with a handful of numpy gathers.

A table is built in whole-array passes, not per world. The worlds are
index arrays over one travel matrix, so the exit steps are filled with
one gather of the window's in-span delay columns. ``entry_tables`` lays
a game's tracks out once as rows sorted by window length, longest first,
padded past each window with a sentinel column and a wait of 0, so the
first ``live[k]`` rows are the tracks with a k-th window edge; its world
slices share these rows. A table traces every track in one walk over
the window positions, and its entry counts go in with one scatter.
Rewards come from the reward model's per-edge rows
``[0, R(1, e), ..., R(n, e)]``, which it keeps between tables, laid end
to end. A cell stores what an entry there reads: the step it leaves the
edge, and the index in those rows of the reward of one more entrant, so
each entry costs one gather for its departure and one for its reward.
One walk, ``_walk``, turns waits into entry cells for ``commit`` and
for valuation, which walks the prefix tree of an action list: level k
holds the distinct prefixes of k+1 waits, each leaving from its
parent's exit one level up, so a level costs its prefixes, not every
action. ``scaled_values`` values one track, taken out of the table for
its walk; ``batch_values`` every track of one window length at once,
as a horizon game's best-response round asks.

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


class Tracks(NamedTuple):
    """A game's tracks as rows, shared by the tables of its world slices:
    longest window first, in view order within a length. ``cols[i, k]``
    is the column of row i's k-th window edge and ``waits[i, k]`` its
    first wait; past a track's window they hold ``len(edge_ids)``, one
    column past the last, and 0. So the first ``live[k]`` rows are the
    tracks with a k-th window edge. ``row`` maps a vehicle id to its row
    and ``first`` to its first waits."""

    row: dict[int, int]
    cols: np.ndarray
    waits: np.ndarray
    live: list[int]
    first: dict[int, tuple[int, ...]]


def entry_tables(game, views, worlds, avail: np.ndarray,
                 waits: Mapping[int, Sequence[int]]) -> list[EntryTable]:
    """The tables of ``views`` over consecutive slices of ``worlds``, each
    with as many worlds as fit ``MAX_TABLE_CELLS``, over one ``Window``
    and one ``Tracks``; values are sums over worlds, so the slices' add
    up to the game's. No table is built when any of them is refused."""
    # the tracks as rows, longest window first, in view order within a length
    lengths = [len(v.window_edges) for v in views]
    order = sorted(range(len(views)), key=lengths.__getitem__, reverse=True)
    views, lengths = [views[i] for i in order], [lengths[i] for i in order]
    windows = [v.window_edges for v in views]
    entered = [eid for window in windows for eid in window]
    edge_ids = sorted(set(entered))
    matrix = worlds.matrix
    rows = worlds.rows[:, np.searchsorted(worlds.edges, edge_ids)]
    if matrix.wide[rows].any():
        raise InputError("a delay does not fit in 32 bits")
    vids = [v.vid for v in views]
    waited = [tuple(waits[vid]) for vid in vids]
    if list(map(len, waited)) != lengths:    # refuse the first that differs
        for got, length in zip(map(len, waited), lengths):
            EntryTable._check_length(got, length)
    inside = np.arange(lengths[0]) < np.array(lengths)[:, None]
    cols = np.full(inside.shape, len(edge_ids), dtype=np.int64)
    cols[inside] = np.searchsorted(edge_ids, entered)
    padded = np.zeros(inside.shape, dtype=np.int64)
    padded[inside] = [wait for row in waited for wait in row]
    tracks = Tracks(dict(zip(vids, range(len(vids)))), cols, padded,
                    inside.sum(axis=0).tolist(), dict(zip(vids, waited)))
    edges = game.net.edges
    base = np.array([edges[eid].base_travel_steps for eid in edge_ids],
                    dtype=np.int64)
    # the most a track can travel: each window edge at its longest; the
    # sentinel column travels 0
    longest = np.append(base + matrix.top[rows].max(axis=0), 0)
    avail = avail[order]
    ends = (avail.max(axis=1) + np.maximum([v.budget_left for v in views], padded.sum(axis=1))
            + longest[cols].sum(axis=1))
    t0 = int(avail.min())
    window = Window(edge_ids, base, t0, max(1, int(ends.max()) - t0 + 1))
    # one world's cells, checked before any gather: a window within the
    # limit keeps every base + delay far inside int32
    cells = len(edge_ids) * window.steps
    if cells > MAX_TABLE_CELLS:
        raise InputError(f"{cells} cells exceed the dense limit")
    per = MAX_TABLE_CELLS // cells
    return [EntryTable(game, tracks, dataclasses.replace(
                worlds, weights=worlds.weights[lo:lo + per], edges=tuple(edge_ids),
                rows=rows[lo:lo + per], starts=worlds.starts[lo:lo + per]),
                       avail[:, lo:lo + per], window)
            for lo in range(0, len(worlds.weights), per)]


class EntryTable:
    """Exit steps and platoon counts over W weighted worlds.

    ``worlds`` is a ``solver.Worlds`` over the window's edges, and
    ``avail[i, k]`` is when the track of row i of ``tracks`` can first
    leave in world k. Each track is a vehicle's window edges, starting
    from its first waits. Player tracks can be re-valued and
    re-committed, environment tracks only contribute counts.
    ``entry_tables`` builds the tables, and gives them their game's
    ``window`` and ``tracks``.

    Each (world, column, step) cell stores two int32s: the step an entry
    there leaves the edge, ``step + base + delay``, and the flat index of
    the reward of one more entrant, ``column * width + count + 1``, into
    the reward rows of ``width`` entries each. ``travel`` and ``counts``
    are read-only, derived from them as new arrays. A track is a row of
    the (tracks, window) columns, (tracks, worlds) starts and (tracks,
    window, worlds) entry cells, kept as flat cell indices; ``track``
    reads one. Adding or taking out a track is one scatter, and
    ``commit`` writes its row in place. ``scaled_values`` takes the
    valued track out for its walk, so a reward reads the other tracks'
    count plus one, and puts it back after, also when the walk is
    refused. This is safe with a plain scatter: a track enters each of
    its cells once, since travel is at least the base, at least 1 step,
    and a negative delay is refused, so its entry steps strictly
    increase.
    """

    def __init__(self, game, tracks: Tracks, worlds, avail: np.ndarray,
                 window: Window):
        edge_ids, base, t0, horizon = window
        rows, matrix = worlds.rows, worlds.matrix
        # the in-span columns are sliced before the rows are gathered; the
        # steps outside the span keep delay 0, as its trailing column holds
        lo = min(max(matrix.lo - t0, 0), horizon)
        hi = max(min(matrix.lo + matrix.span - t0, horizon), lo)
        # a window within the cell limit keeps every exit step in int32
        self._exit = np.zeros((len(rows), len(edge_ids), horizon), dtype=np.int32)
        self._exit[:, :, lo:hi] = matrix.delays[:, t0 - matrix.lo + lo:t0 - matrix.lo + hi][rows]
        if matrix.negative[rows].any() and self._exit.min() < 0:
            raise InputError("negative delay in the window")
        self.t0 = t0
        self.w = len(worlds.weights)
        self.steps = horizon
        self.step_cost = game.cost_model.step_cost_centi
        self.col = {eid: i for i, eid in enumerate(edge_ids)}
        self._exit += (base[:, None] + np.arange(horizon)).astype(np.int32)
        edges = game.net.edges
        self._rt = np.stack([game.reward_model.reward_row(edges[eid], len(tracks.row))
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
        bound = worlds.scale * (tracks.cols.shape[1]
                                * int(abs(self._rt).max(initial=1))
                                + horizon * self.step_cost + 1)
        self.weights = np.asarray(worlds.weights,
                                  dtype=np.int64 if bound < 2 ** 63 else object)
        # waiting cost of one step, summed over the weighted worlds
        self._step_cost_scaled = self.step_cost * int(self.weights.sum())
        self._row = tracks.row
        self._cols = tracks.cols
        # C order: a track's availability row is walked at every valuation
        self._starts = np.asarray(avail, dtype=np.int64) - t0
        self._waits = dict(tracks.first)
        # every track traced in one walk over the window positions: each
        # cell starts at its column's first step, and the entry step is
        # added; past a track's window its cells are never read
        self._cells = self._w_cell + tracks.cols[:, :, None] * horizon
        t, traced = self._starts, []
        for k, n in enumerate(tracks.live):
            if k:
                t = self._flat_exit.take(cell[:n])
            t = t[:n] + tracks.waits[:n, k, None]
            if t.view(np.uint64).max() >= horizon:
                raise InputError("entry outside the tabulated window")
            cell = self._cells[:n, k]
            cell += t
            traced.append(cell)
        # counted by np.unique, whose memory follows the traced cells;
        # a bincount would allocate an int64 array the table's size
        cells, counts = np.unique(np.concatenate(traced, axis=None), return_counts=True)
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
        column and wait of the k-th window edge, broadcast against it,
        and ``cols`` is an array whose last axis has length 1.
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
        # the flat cell of each column's step 0, per world
        firsts = self._w_cell + cols * self.steps
        for k, (first, wait) in enumerate(zip(firsts, waits)):
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
            cell = first + t
            yield cell

    # -- queries ----------------------------------------------------------

    def track(self, vid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A track's window columns, its start steps per world (relative to
        ``t0``) and the flat cells of its committed entries, (window,
        worlds); new arrays, read off its row."""
        row, n = self._row[vid], len(self._waits[vid])
        return self._cols[row, :n].copy(), self._starts[row].copy(), self._cells[row, :n].copy()

    def commit(self, vid: int, waits: Sequence[int]) -> None:
        """Adopt a new wait vector for an existing track, written in its row;
        one that is refused leaves the table as it was."""
        waits = tuple(waits)
        row, n = self._row[vid], len(self._waits[vid])
        self._check_length(len(waits), n)
        cells = np.stack(list(self._walk(self._cols[row, :n, None], self._starts[row],
                                         np.asarray(waits, dtype=np.int64)[:, None])))
        own = self._cells[row, :n]
        self._flat_index[own] -= 1
        self._flat_index[cells] += 1
        own[...] = cells
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
        row, n = self._row[vid], len(self._waits[vid])
        tree = prefix_tree(actions)
        self._check_length(len(tree[1]), n)
        own = self._cells[row, :n]
        self._flat_index[own] -= 1
        try:
            return self._values(self._cols[row, :n, None], [()] * n,
                                self._starts[row], None, tree)
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
        n = len(self._waits[vids[0]])
        if any(len(self._waits[vid]) != n for vid in vids):
            raise InputError("tracks of different window lengths")
        every = sums[-1].max() <= min(budgets)
        budgets = np.asarray(budgets, dtype=np.int64)[:, None, None]
        per = max(1, BATCH_CELLS // (len(sums[-1]) * self.w))
        out = []
        for lo in range(0, len(vids), per):
            rows = [self._row[vid] for vid in vids[lo:lo + per]]
            cols = self._cols[rows, :n].T
            # per position k, the positions whose column is k's on some track
            same = (cols[:, None] == cols[None]).any(axis=2).tolist()
            shared = [[j for j, on in enumerate(row) if on] for row in same]
            own = self._cells[rows, :n].transpose(1, 0, 2)[:, :, None]
            avail = self._starts[rows][:, None, :]
            fits = None if every else [s[:, None] <= budgets[lo:lo + per] for s in sums]
            values = self._values(cols[:, :, None, None], shared, avail, own, tree, fits)
            out += list(values) if every else [r[ok] for r, ok in zip(values, fits[-1][..., 0])]
        return out

    def committed_value(self, vid: int) -> int:
        """``scaled_values`` of the track's committed waits, read at its own
        cells: its entry steps strictly increase, so it enters each cell
        once and a cell's count is the other tracks' plus one."""
        index = self._flat_index.take(self._cells[self._row[vid], :len(self._waits[vid])]) - 1
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
