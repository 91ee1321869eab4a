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
from dataclasses import dataclass, field
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
    """Sparse map from (edge id, entry step) to extra travel steps."""

    id: int
    delay_at: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def delay(self, edge_id: int, entry_step: int) -> int:
        return self.delay_at.get((edge_id, entry_step), 0)


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
        first use; an edge that lists no profile admits any with entries."""
        pairs = {(eid, pid) for eid, e in self.edges.items()
                 for pid in e.delay_profile_ids if pid in self.delay_profiles}
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for pid, prof in self.delay_profiles.items():
            for (eid, t), d in prof.delay_at.items():
                rows.setdefault((eid, pid), {})[t] = d
        rows = {key: got for key, got in rows.items() if key in pairs or (
            key[0] in self.edges and not self.edges[key[0]].delay_profile_ids)}
        index = {key: row for row, key in enumerate(sorted(pairs | rows.keys()), 1)}
        steps = [t for got in rows.values() for t in got] or [0]
        values = [d for got in rows.values() for d in got.values()] or [0]
        lo, least, most = min(steps), min(values), max(values)
        dtype = next((kind for kind, bits in ((np.int32, 31), (np.int64, 63))
                      if -2 ** bits <= least and most < 2 ** bits), object)
        delays = np.zeros((len(index) + 1, max(steps) - lo + 2), dtype=dtype)
        for key, got in rows.items():
            delays[index[key], np.subtract(list(got), lo)] = list(got.values())
        return TravelMatrix(lo, delays, index)


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

    def delay(self, row: int, t: int) -> int:
        """Row ``row``'s delay at entry step ``t``, as an exact int."""
        c = t - self.lo
        return int(self.delays[row, c]) if 0 <= c < self.span else 0


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
        for pid in edge.delay_profile_ids:
            if pid not in net.delay_profiles:
                problems.append(f"edge {edge.id} references unknown delay profile {pid}")
    for pid, prof in net.delay_profiles.items():
        if pid != prof.id:
            problems.append(f"profile key {pid} disagrees with profile id {prof.id}")
        for (eid, step), delta in prof.delay_at.items():
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
        delay_at: dict[tuple[int, int], int] = {}
        for entry in raw["entries"]:
            check_fields(entry, _ENTRY_FIELDS, "delay entry")
            delay_at[(int(entry["edge"]), int(entry["t"]))] = int(entry["delta"])
        prof = DelayProfile(id=int(raw["id"]), delay_at=delay_at)
        if prof.id in profiles:
            raise FormatError(f"duplicate delay profile id {prof.id}")
        profiles[prof.id] = prof
    return RoadNetwork(hubs=hubs, edges=edges, delay_profiles=profiles,
                       time_step_minutes=int(doc["time_step_minutes"]))


def network_to_dict(net: RoadNetwork) -> dict:
    hubs = []
    for hub in sorted(net.hubs.values(), key=lambda h: h.id):
        raw: dict = {"id": hub.id, "name": hub.name,
                     "population_weight": hub.population_weight}
        if hub.lat is not None:
            raw["lat"] = hub.lat
        if hub.lon is not None:
            raw["lon"] = hub.lon
        hubs.append(raw)
    edges = [{"id": e.id, "tail": e.tail, "head": e.head, "length_km": e.length_km,
              "base_travel_steps": e.base_travel_steps,
              "delay_profile_ids": list(e.delay_profile_ids)}
             for e in sorted(net.edges.values(), key=lambda e: e.id)]
    profiles = [{"id": p.id,
                 "entries": [{"edge": eid, "t": t, "delta": delta}
                             for (eid, t), delta in sorted(p.delay_at.items())]}
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
    edges = {eid: Edge(id=e.id, tail=e.tail, head=e.head, length_km=e.length_km,
                       base_travel_steps=e.base_travel_steps,
                       delay_profile_ids=tuple(assignment.get(eid, ())))
             for eid, e in net.edges.items()}
    return RoadNetwork(hubs=dict(net.hubs), edges=edges, delay_profiles=table,
                       time_step_minutes=net.time_step_minutes)
