"""Road network model: hubs, directed edges, time-varying travel times.

Time is a global integer grid; one step is ``time_step_minutes`` (5 by
default). Travel time on an edge is its free-flow step count plus a
nonnegative delay looked up in the delay profile assigned to that edge,
keyed by entry step. Distances are kilometres.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import operator
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .errors import FormatError, InputError

UNREACHABLE = math.inf


@dataclass(frozen=True)
class Hub:
    id: int
    name: str = ""
    population_weight: float = 1.0
    lat: float | None = None
    lon: float | None = None


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    length_km: float
    base_travel_steps: int
    delay_profile_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class DelayProfile:
    """Extra travel steps as three integer columns: entry k adds
    ``deltas[k]`` steps to edge ``edges[k]`` entered at step ``steps[k]``,
    and every other entry adds none."""

    id: int
    edges: tuple[int, ...] = ()
    steps: tuple[int, ...] = ()
    deltas: tuple[int, ...] = ()


@dataclass
class RoadNetwork:
    """Immutable once built; mutate nothing after construction."""

    hubs: dict[int, Hub]
    edges: dict[int, Edge]
    delay_profiles: dict[int, DelayProfile] = field(default_factory=dict)
    time_step_minutes: int = 5
    adjacency: dict[int, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        adj: dict[int, list[int]] = {hid: [] for hid in self.hubs}
        for edge in self.edges.values():
            if edge.tail in adj:
                adj[edge.tail].append(edge.id)
        # sorted for deterministic iteration everywhere downstream
        self.adjacency = {hid: tuple(sorted(eids)) for hid, eids in adj.items()}

    def out_edges(self, hub_id: int) -> tuple[int, ...]:
        return self.adjacency.get(hub_id, ())

    @functools.cached_property
    def travel_matrix(self) -> TravelMatrix:
        """The delays of every (edge, admissible profile) pair, built on
        first use from the profiles' columns; an edge that lists no
        profile admits any with entries on it."""
        eids, pids = sorted(self.edges), sorted(self.delay_profiles)
        profs = [self.delay_profiles[pid] for pid in pids]
        edge, step, delta = (_int_column([getattr(p, name) for p in profs])
                             for name in ("edges", "steps", "deltas"))
        # each entry's cell in the (edge, profile) grid, whose row-major
        # order numbers the matrix rows
        known = np.isin(edge, eids)
        at = np.searchsorted(eids, edge[known])
        cell = at * len(pids) + np.repeat(np.arange(len(pids)),
                                          [len(p.edges) for p in profs])[known]
        place = {pid: j for j, pid in enumerate(pids)}
        keyed = np.zeros(len(eids) * len(pids), dtype=bool)
        keyed[[i * len(pids) + place[pid] for i, eid in enumerate(eids)
               for pid in self.edges[eid].delay_profile_ids if pid in place]] = True
        is_open = np.array([not self.edges[eid].delay_profile_ids for eid in eids], dtype=bool)
        keyed[cell[is_open[at]]] = True
        kept = keyed[cell]
        cells = np.flatnonzero(keyed).tolist()
        index = {(eids[c // len(pids)], pids[c % len(pids)]): row
                 for row, c in enumerate(cells, 1)}
        steps, values = step[known][kept], delta[known][kept]
        lo, hi, least, most = (int(steps.min()), int(steps.max()), int(values.min()),
                               int(values.max())) if len(steps) else (0, 0, 0, 0)
        dtype = next((kind for kind, bits in ((np.int32, 31), (np.int64, 63))
                      if -2 ** bits <= least and most < 2 ** bits), object)
        delays = np.zeros((len(index) + 1, hi - lo + 2), dtype=dtype)
        delays[np.cumsum(keyed)[cell[kept]], (steps - lo).astype(np.intp)] = values
        return TravelMatrix(lo, delays, index)


def _int_column(columns) -> np.ndarray:
    """Integer columns joined as int64, or as exact ints if one does not fit."""
    try:
        return np.fromiter(chain.from_iterable(columns), dtype=np.int64)
    except OverflowError:
        return np.array(list(chain.from_iterable(columns)), dtype=object)


class TravelMatrix:
    """Delay rows over one span of entry steps, read by index.

    Column ``c`` holds the delay of an entry at step ``lo + c``, and one
    trailing zero column every step outside the span, where travel is the
    edge's base time. Row 0 is the zero row of an edge without a profile.
    ``delays`` is int32 when every delay fits, else exact wider integers.
    Per row: ``top``, the largest delay (0 at least; 0 for a wide row),
    ``negative`` and ``wide``, a delay beyond int32. ``index`` maps a
    network's (edge id, profile id) pairs to rows.
    """

    def __init__(self, lo: int, values: np.ndarray,
                 index: Mapping[tuple[int, int], int] | None = None):
        self.lo, self.span, self.index = lo, values.shape[1] - 1, index or {}
        self.wide = np.asarray(((values < -2 ** 31) | (values >= 2 ** 31)).any(axis=1),
                               dtype=bool)
        self.negative = np.asarray((values < 0).any(axis=1), dtype=bool)
        self.top = np.where(self.wide, 0, values.max(axis=1)).astype(np.int64)
        self.delays = values if self.wide.any() else values.astype(np.int32, copy=False)

    def columns(self, steps) -> np.ndarray:
        """The column of each entry step in ``steps``."""
        cols = np.asarray(steps, dtype=np.int64) - self.lo
        cols[(cols < 0) | (cols >= self.span)] = self.span
        return cols

    def column(self, step: int) -> int:
        """The column of entry step ``step``, as ``columns`` gives it."""
        c = step - self.lo
        return c if 0 <= c < self.span else self.span

    def delay(self, row: int, t: int) -> int:
        """Row ``row``'s delay at entry step ``t``, as an exact int."""
        return int(self.delays[row, self.column(t)])


def validate_network(net: RoadNetwork) -> list[str]:
    """Return human-readable violations; empty list means the model is sound."""
    problems: list[str] = []
    if net.time_step_minutes <= 0:
        problems.append(f"time_step_minutes must be positive, got {net.time_step_minutes}")
    for hid, hub in net.hubs.items():
        if hid != hub.id:
            problems.append(f"hub key {hid} disagrees with hub id {hub.id}")
        if hub.population_weight < 0:
            problems.append(f"hub {hub.id} has negative population_weight")
    for eid, edge in net.edges.items():
        if eid != edge.id:
            problems.append(f"edge key {eid} disagrees with edge id {edge.id}")
        if edge.tail not in net.hubs:
            problems.append(f"edge {edge.id} tail {edge.tail} is not a hub")
        if edge.head not in net.hubs:
            problems.append(f"edge {edge.id} head {edge.head} is not a hub")
        if edge.tail == edge.head:
            problems.append(f"edge {edge.id} is a self-loop at hub {edge.tail}")
        if not (edge.length_km > 0 and math.isfinite(edge.length_km)):
            problems.append(f"edge {edge.id} length_km must be positive and finite")
        if edge.base_travel_steps < 1:
            problems.append(f"edge {edge.id} base_travel_steps must be >= 1")
        for k, pid in enumerate(edge.delay_profile_ids):
            if pid not in net.delay_profiles:
                problems.append(f"edge {edge.id} references unknown delay profile {pid}")
            if edge.delay_profile_ids[:k].count(pid) == 1:
                problems.append(f"edge {edge.id} lists delay profile {pid} twice")
    for pid, prof in net.delay_profiles.items():
        if pid != prof.id:
            problems.append(f"profile key {pid} disagrees with profile id {prof.id}")
        # a profile with no negative delta and no unknown edge is not walked
        if min(prof.deltas, default=0) >= 0 and net.edges.keys() >= set(prof.edges):
            continue
        for eid, step, delta in zip(prof.edges, prof.steps, prof.deltas):
            if delta < 0:
                problems.append(
                    f"profile {prof.id} has negative delay {delta} on edge {eid} at step {step}")
            if eid not in net.edges:
                problems.append(f"profile {prof.id} has an entry for unknown edge {eid}")
    return problems


def shortest_path(net: RoadNetwork, origin: int,
                  destination: int) -> tuple[float, tuple[int, ...]]:
    """Dijkstra over length_km. Returns (km, edge ids); (UNREACHABLE, ()) if none.

    Deterministic: ties resolve toward the lower hub id and relaxations
    scan edge ids in sorted order.
    """
    if origin not in net.hubs or destination not in net.hubs:
        raise InputError(f"unknown hub in query ({origin}, {destination})")
    dist: dict[int, float] = {origin: 0.0}
    pred: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, origin)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == destination:
            break
        for eid in net.out_edges(node):
            edge = net.edges[eid]
            nd = d + edge.length_km
            if nd < dist.get(edge.head, UNREACHABLE):
                dist[edge.head] = nd
                pred[edge.head] = eid
                heapq.heappush(heap, (nd, edge.head))
    if destination not in done:
        return UNREACHABLE, ()
    path: list[int] = []
    node = destination
    while node != origin:
        eid = pred[node]
        path.append(eid)
        node = net.edges[eid].tail
    path.reverse()
    return dist[destination], tuple(path)


def shortest_path_km(net: RoadNetwork, origin: int, destination: int) -> float:
    """Length of the shortest route in km, or UNREACHABLE (math.inf)."""
    return shortest_path(net, origin, destination)[0]


# --- JSON serialization ------------------------------------------------

# The JSON type a field may hold: its name in error messages, the Python
# types json.load gives for it (so a boolean is not an integer), and for
# arrays, those of their items.
INTEGER = ("an integer", {int}, None)
NUMBER = ("a number", {int, float}, None)
STRING = ("a string", {str}, None)
ARRAY = ("an array", {list}, None)
OBJECT = ("an object", {dict}, None)
INTEGERS = ("an array of integers", {list}, {int})
STRINGS = ("an array of strings", {list}, {str})
NUMBER_OR_NULL = ("a number or null", {int, float, type(None)}, None)

_HUB_FIELDS = {"id": INTEGER, "name": STRING, "population_weight": NUMBER,
               "lat": NUMBER_OR_NULL, "lon": NUMBER_OR_NULL}
_HUB_REQUIRED = {"id", "name", "population_weight"}
_EDGE_FIELDS = {"id": INTEGER, "tail": INTEGER, "head": INTEGER,
                "length_km": NUMBER, "base_travel_steps": INTEGER,
                "delay_profile_ids": INTEGERS}
_PROFILE_FIELDS = {"id": INTEGER, "entries": ARRAY}
_ENTRY_FIELDS = {"edge": INTEGER, "t": INTEGER, "delta": INTEGER}
_TOP_FIELDS = {"time_step_minutes": INTEGER, "hubs": ARRAY, "edges": ARRAY,
               "delay_profiles": ARRAY}


def check_fields(obj: dict, fields: Mapping[str, tuple], what: str,
                 required: Iterable[str] | None = None) -> None:
    """A JSON object with no unknown fields, every required one (default:
    all of them), and each field of the JSON type ``fields`` gives it."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be an object, got {type(obj).__name__}")
    if obj.keys() != fields.keys():
        unknown = obj.keys() - fields.keys()
        if unknown:
            raise FormatError(f"{what} has unknown fields: {', '.join(sorted(unknown))}")
        missing = (fields.keys() if required is None else set(required)) - obj.keys()
        if missing:
            raise FormatError(f"{what} is missing fields: {', '.join(sorted(missing))}")
    for name, value in obj.items():
        kind, types, items = fields[name]
        if type(value) not in types or (
                items is not None and any(type(v) not in items for v in value)):
            raise field_error(what, name, kind, value)


def field_error(what: str, name: str, kind: str, value) -> FormatError:
    """The error for field ``name`` of ``what`` holding ``value``, not ``kind``."""
    shown = json.dumps(value)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    return FormatError(f"{what} field {name!r} must be {kind}, not {shown}")


def load_json(path, convert):
    """Read the JSON document at ``path`` and return ``convert(doc)``.

    Text that is not UTF-8 JSON, or a field whose JSON type or value does
    not convert, is a FormatError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return convert(doc)
    except InputError:
        raise
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{path}: malformed document: {exc}") from exc


def network_from_dict(doc: dict) -> RoadNetwork:
    check_fields(doc, _TOP_FIELDS, "network document")
    hubs: dict[int, Hub] = {}
    for raw in doc["hubs"]:
        check_fields(raw, _HUB_FIELDS, "hub", _HUB_REQUIRED)
        hub = Hub(id=int(raw["id"]), name=str(raw["name"]),
                  population_weight=float(raw["population_weight"]),
                  lat=raw.get("lat"), lon=raw.get("lon"))
        if hub.id in hubs:
            raise FormatError(f"duplicate hub id {hub.id}")
        hubs[hub.id] = hub
    edges: dict[int, Edge] = {}
    for raw in doc["edges"]:
        check_fields(raw, _EDGE_FIELDS, "edge")
        edge = Edge(id=int(raw["id"]), tail=int(raw["tail"]), head=int(raw["head"]),
                    length_km=float(raw["length_km"]),
                    base_travel_steps=int(raw["base_travel_steps"]),
                    delay_profile_ids=tuple(int(p) for p in raw["delay_profile_ids"]))
        if edge.id in edges:
            raise FormatError(f"duplicate edge id {edge.id}")
        edges[edge.id] = edge
    profiles: dict[int, DelayProfile] = {}
    for raw in doc["delay_profiles"]:
        check_fields(raw, _PROFILE_FIELDS, "delay profile")
        prof = DelayProfile(int(raw["id"]), *_entry_columns(raw["entries"]))
        keys = list(zip(prof.edges, prof.steps))
        if len(set(keys)) < len(keys):
            eid, t = next(key for k, key in enumerate(keys) if key in keys[:k])
            raise FormatError(f"delay profile {prof.id} lists edge {eid} at step {t} twice")
        if prof.id in profiles:
            raise FormatError(f"duplicate delay profile id {prof.id}")
        profiles[prof.id] = prof
    return RoadNetwork(hubs=hubs, edges=edges, delay_profiles=profiles,
                       time_step_minutes=int(doc["time_step_minutes"]))


def _entry_columns(entries: list) -> tuple:
    """The (edge, t, delta) columns of a profile's entries, checked in one
    pass; when an entry fails, ``check_fields`` names the first that does."""
    try:
        if {dict} >= set(map(type, entries)) and {3} >= set(map(len, entries)):
            cols = tuple(zip(*map(operator.itemgetter(*_ENTRY_FIELDS), entries)))
            if {int} >= set(map(type, chain(*cols))):
                return cols or ((), (), ())
    except KeyError:   # three fields, but not these three
        pass
    for entry in entries:
        check_fields(entry, _ENTRY_FIELDS, "delay entry")


def network_to_dict(net: RoadNetwork) -> dict:
    hubs = [{"id": hub.id, "name": hub.name, "population_weight": hub.population_weight,
             **{name: at for name, at in (("lat", hub.lat), ("lon", hub.lon)) if at is not None}}
            for hub in sorted(net.hubs.values(), key=lambda h: h.id)]
    edges = [{"id": e.id, "tail": e.tail, "head": e.head, "length_km": e.length_km,
              "base_travel_steps": e.base_travel_steps,
              "delay_profile_ids": list(e.delay_profile_ids)}
             for e in sorted(net.edges.values(), key=lambda e: e.id)]
    profiles = [{"id": p.id,
                 "entries": [{"edge": eid, "t": t, "delta": delta}
                             for eid, t, delta in sorted(zip(p.edges, p.steps, p.deltas))]}
                for p in sorted(net.delay_profiles.values(), key=lambda p: p.id)]
    return {"time_step_minutes": net.time_step_minutes, "hubs": hubs,
            "edges": edges, "delay_profiles": profiles}


def load_network(path) -> RoadNetwork:
    return load_json(path, network_from_dict)


def save_network(net: RoadNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def replace_profiles(net: RoadNetwork, profiles: Iterable[DelayProfile],
                     assignment: Mapping[int, tuple[int, ...]]) -> RoadNetwork:
    """New network with ``profiles`` installed and per-edge admissible ids set."""
    table = {p.id: p for p in profiles}
    edges = {eid: replace(e, delay_profile_ids=tuple(assignment.get(eid, ())))
             for eid, e in net.edges.items()}
    return RoadNetwork(hubs=dict(net.hubs), edges=edges, delay_profiles=table,
                       time_step_minutes=net.time_step_minutes)
