"""Platoon coordination game on a road network.

Vehicles follow fixed hub-to-hub routes and choose how many steps to wait
at each node before entering the next edge. Trucks entering the same edge
at the same step form a platoon and each member collects a reward that
grows with platoon size; waiting costs money per step. All money is
integer centi-SEK. The game admits an exact potential: the change in any
vehicle's utility under a unilateral change of its waiting vector equals
the change of the potential, which is what makes best-response iteration
terminate. Utilities and the potential are computed by
``solver.WorldsOracle``; this module holds the game's data and checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import FormatError, InputError
from .network import (INTEGER, INTEGERS, OBJECT, RoadNetwork, check_fields,
                      field_error, load_json)

DEFAULT_KM_REWARD_CENTI = 170     # 1.70 SEK saved per platooned km
DEFAULT_STEP_COST_CENTI = 2200    # 22 SEK per waited 5-minute step
DEFAULT_WAIT_BUDGET_STEPS = 4


def round_half_away(x) -> int:
    """Round to the nearest integer, halves away from zero."""
    f = Fraction(x)
    return round_ratio(f.numerator, f.denominator)


def round_ratio(num, den: int):
    """``round_half_away(num / den)`` for a positive ``den``, in integers;
    an integer array ``num`` is rounded elementwise."""
    mag = (2 * abs(num) + den) // (2 * den)
    if isinstance(num, np.ndarray):
        return np.where(num >= 0, mag, -mag)
    return mag if num >= 0 else -mag


def scaled_weights(probs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer weights over the lcm of the denominators of ``probs``:
    ``weights[i] == probs[i] * scale`` exactly."""
    scale = math.lcm(*(p.denominator for p in probs))
    return [p.numerator * (scale // p.denominator) for p in probs], scale


@dataclass(frozen=True)
class VehicleSpec:
    """A truck: fixed edge route, nominal start step, waiting budget."""

    id: int
    edge_sequence: tuple[int, ...]
    start_step: int
    waiting_budget_steps: int = DEFAULT_WAIT_BUDGET_STEPS


@dataclass(frozen=True)
class Scenario:
    """One realization: a delay profile per edge and a start step per vehicle."""

    profile_assignment: Mapping[int, int]
    start_steps: Mapping[int, int]


class RewardModel:
    """Per-member platooning reward R(n, e), rounded once per (n, edge).

    Default model: a follower saves ``km_rate_centi`` per km, the platoon
    splits total savings equally, so each of n members gets
    km_rate * length * (n-1)/n, rounded half away from zero. A custom
    table maps (n, edge id) to centi-SEK directly; platoon sizes missing
    from the table are an error. The default R(n, e) is computed in one
    place, the edge's reward row, and read from it.
    """

    def __init__(self, km_rate_centi: int = DEFAULT_KM_REWARD_CENTI,
                 table: Mapping[tuple[int, int], int] | None = None):
        if table is None and km_rate_centi < 0:
            raise InputError("km_rate_centi must be nonnegative")
        if table is not None and any(v < 0 for v in table.values()):
            raise InputError("custom reward table must be nonnegative")
        self.km_rate_centi = km_rate_centi
        self.table = dict(table) if table is not None else None
        self._rows: dict[int, np.ndarray] = {}

    def reward(self, n: int, edge) -> int:
        """Per-member reward for an n-truck platoon on ``edge``."""
        if n < 1:
            raise InputError(f"platoon size must be >= 1, got {n}")
        if self.table is not None:
            return self._listed(n, edge)
        return int(self.reward_row(edge, n)[n])

    def reward_row(self, edge, n: int) -> np.ndarray:
        """``[0, reward(1, edge), ..., reward(n, edge)]`` as read-only int64.

        One row per edge is kept and extended when a larger ``n`` is asked
        for; sizes beyond the largest asked are never looked up. With
        p / q the edge length (``str`` first: 0.3 km means 3/10, not the
        binary float near it), the default reward is
        km_rate * p * (k - 1) / (q * k), rounded in integers.
        """
        row = self._rows.get(edge.id)
        have = 0 if row is None else len(row) - 1
        if row is None or have < n:
            sizes = range(have + 1, n + 1)
            if self.table is not None:
                more = [self._listed(k, edge) for k in sizes]
            else:
                length = Fraction(str(edge.length_km))
                num = self.km_rate_centi * length.numerator
                more = [round_ratio(num * (k - 1), length.denominator * k) for k in sizes]
            row = np.concatenate((np.zeros(1, dtype=np.int64) if row is None
                                  else row, np.array(more, dtype=np.int64)))
            row.flags.writeable = False
            self._rows[edge.id] = row
        return row[:n + 1]

    def _listed(self, n: int, edge) -> int:
        try:
            return self.table[(n, edge.id)]
        except KeyError:
            raise InputError(
                f"reward table has no entry for size {n} on edge {edge.id}") from None


@dataclass(frozen=True)
class WaitingCostModel:
    """Linear waiting cost: step_cost_centi per waited step."""

    step_cost_centi: int = DEFAULT_STEP_COST_CENTI


class CoordinationGame:
    """A network, a fleet with checked routes, and the money models."""

    def __init__(self, net: RoadNetwork, fleet: Sequence[VehicleSpec],
                 reward_model: RewardModel | None = None,
                 cost_model: WaitingCostModel | None = None):
        self.net = net
        self.fleet = {v.id: v for v in fleet}
        if len(self.fleet) != len(fleet):
            raise InputError("duplicate vehicle ids in fleet")
        self.vehicle_ids = tuple(sorted(self.fleet))
        self.reward_model = reward_model if reward_model is not None else RewardModel()
        self.cost_model = cost_model if cost_model is not None else WaitingCostModel()
        for v in fleet:
            self._check_route(v)

    def _check_route(self, v: VehicleSpec) -> None:
        if not v.edge_sequence:
            raise InputError(f"vehicle {v.id} has an empty route")
        if v.waiting_budget_steps < 0:
            raise InputError(f"vehicle {v.id} has a negative waiting budget")
        prev_head = None
        for eid in v.edge_sequence:
            edge = self.net.edges.get(eid)
            if edge is None:
                raise InputError(f"vehicle {v.id} routes over unknown edge {eid}")
            if prev_head is not None and edge.tail != prev_head:
                raise InputError(
                    f"vehicle {v.id} route breaks at edge {eid}: tail {edge.tail} != {prev_head}")
            prev_head = edge.head

    def start_of(self, vid: int, scenario: Scenario) -> int:
        try:
            return scenario.start_steps[vid]
        except KeyError:
            return self.fleet[vid].start_step


def zero_profile(fleet: Sequence[VehicleSpec]) -> dict[int, tuple[int, ...]]:
    return {v.id: (0,) * len(v.edge_sequence) for v in fleet}


def deterministic_scenario(net: RoadNetwork, fleet: Sequence[VehicleSpec],
                           profile_assignment: Mapping[int, int] | None = None) -> Scenario:
    """Point scenario from nominal starts; free flow unless profiles given."""
    return Scenario(profile_assignment=dict(profile_assignment or {}),
                    start_steps={v.id: v.start_step for v in fleet})


# --- fleet / scenario serialization --------------------------------------

_VEHICLE_FIELDS = {"id": INTEGER, "edge_sequence": INTEGERS,
                   "start_step": INTEGER, "waiting_budget_steps": INTEGER}
_SCENARIO_FIELDS = {"profile_assignment": OBJECT, "start_steps": OBJECT}


def fleet_from_list(doc) -> list[VehicleSpec]:
    if not isinstance(doc, list):
        raise FormatError("fleet document must be a JSON array")
    out = []
    for raw in doc:
        check_fields(raw, _VEHICLE_FIELDS, "vehicle")
        out.append(VehicleSpec(id=int(raw["id"]),
                               edge_sequence=tuple(int(e) for e in raw["edge_sequence"]),
                               start_step=int(raw["start_step"]),
                               waiting_budget_steps=int(raw["waiting_budget_steps"])))
    return out


def fleet_to_list(fleet: Sequence[VehicleSpec]) -> list[dict]:
    return [{"id": v.id, "edge_sequence": list(v.edge_sequence),
             "start_step": v.start_step,
             "waiting_budget_steps": v.waiting_budget_steps}
            for v in sorted(fleet, key=lambda v: v.id)]


def load_fleet(path) -> list[VehicleSpec]:
    return load_json(path, fleet_from_list)


def save_fleet(fleet: Sequence[VehicleSpec], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fleet_to_list(fleet), fh, indent=2, sort_keys=True)
        fh.write("\n")


def scenario_from_dict(doc: dict) -> Scenario:
    check_fields(doc, _SCENARIO_FIELDS, "scenario")
    return Scenario(profile_assignment=_integer_map(doc, "profile_assignment"),
                    start_steps=_integer_map(doc, "start_steps"))


def _integer_map(doc: dict, name: str) -> dict[int, int]:
    """The scenario's object field ``name``, whose keys must be integer
    strings and whose values integers (not floats or booleans)."""
    value = doc[name]
    if not all(type(v) is int and k.isascii() and k.removeprefix("-").isdecimal()
               for k, v in value.items()):
        raise field_error("scenario", name, "an object of integers keyed by integers",
                          value)
    return {int(k): v for k, v in value.items()}


def scenario_to_dict(scenario: Scenario) -> dict:
    return {"profile_assignment": {str(k): v for k, v in sorted(scenario.profile_assignment.items())},
            "start_steps": {str(k): v for k, v in sorted(scenario.start_steps.items())}}
