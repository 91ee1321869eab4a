"""Stochastic coordination game: expectation over a scenario distribution.

Travel-time uncertainty is a delay profile drawn independently per edge;
start-step uncertainty is drawn independently per vehicle. Probabilities
are exact rationals so expected utilities and the expected potential stay
exact. ``draw`` makes every set of joint worlds: the full support up to
a cap, else a seeded sample, an empirical (uniform) measure that is
itself a finite-support game, so the solver still terminates; the
sampled oracle is flagged approximate. The static oracles pass one draw,
edges as matrix rows, to ``solver.static_game``; ``enumerate_support``
and ``sample_scenarios`` make ``Scenario``s of it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import FormatError, InputError, SupportTooLargeError
from .game import CoordinationGame, Scenario, scaled_weights
from .network import ARRAY, INTEGER, check_fields, load_json
from .solver import WorldsOracle, profile_row, static_game

DEFAULT_SUPPORT_CAP = 4096
DEFAULT_DRAWS = 16   # sample size above the cap


@dataclass(frozen=True)
class ScenarioDistribution:
    """Independent marginals: per-edge profile choices, per-vehicle starts.

    Each marginal is a tuple of (value, probability) with exact Fraction
    probabilities summing to one.
    """

    edge_profiles: Mapping[int, tuple[tuple[int, Fraction], ...]]
    start_steps: Mapping[int, tuple[tuple[int, Fraction], ...]]

    def __post_init__(self):
        for label, marginals in (("edge", self.edge_profiles),
                                 ("vehicle", self.start_steps)):
            for key, pairs in marginals.items():
                if not pairs:
                    raise InputError(f"{label} {key} has an empty marginal")
                seen = set()
                for value, p in pairs:
                    # a Fraction's denominator is positive, so its sign is
                    # its numerator's
                    if not isinstance(p, Fraction) or p.numerator <= 0:
                        raise InputError(
                            f"{label} {key} needs positive Fraction probabilities")
                    if value in seen:
                        raise InputError(f"{label} {key} repeats value {value}")
                    seen.add(value)
                # the exact sum in integers over the lcm of the denominators
                weights, scale = scaled_weights([p for _value, p in pairs])
                total = sum(weights)
                if total != scale:
                    raise InputError(f"{label} {key} probabilities sum to "
                                     f"{Fraction(total, scale)}, not 1")

    def support_size(self) -> int:
        return math.prod(len(pairs) for marginals in (self.edge_profiles, self.start_steps)
                         for pairs in marginals.values())


@dataclass(frozen=True)
class Marginal:
    """One marginal of a joint world: the (value, probability) pairs it is
    cut from, the values as an array (by default the pairs' own; matrix
    rows for a horizon game's edges) and the probabilities, renormalised,
    as integer weights over ``scale``."""

    pairs: tuple[tuple[int, Fraction], ...]
    values: np.ndarray
    weights: tuple[int, ...]
    scale: int

    @classmethod
    def of(cls, pairs, values=None) -> Marginal:
        values = np.array([v for v, _p in pairs] if values is None else values, np.int64)
        if len(pairs) == 1:
            return cls(pairs, values, (1,), 1)
        # over their gcd with their sum, the weights of the pairs are those
        # ``scaled_weights`` gives the renormalised probabilities
        weights = scaled_weights([p for _v, p in pairs])[0]
        total = sum(weights)
        common = math.gcd(total, *weights)
        return cls(pairs, values, tuple(w // common for w in weights), total // common)


def degenerate_distribution(scenario: Scenario) -> ScenarioDistribution:
    """Point mass on one scenario."""
    one = Fraction(1)
    return ScenarioDistribution(
        edge_profiles={eid: ((pid, one),)
                       for eid, pid in sorted(scenario.profile_assignment.items())},
        start_steps={vid: ((t, one),)
                     for vid, t in sorted(scenario.start_steps.items())})


def uniform_profile_distribution(net, fleet, starts: Mapping[int, int] | None = None
                                 ) -> ScenarioDistribution:
    """Equiprobable admissible profiles per edge; deterministic starts."""
    edge_profiles = {}
    for eid, edge in sorted(net.edges.items()):
        if edge.delay_profile_ids:
            n = len(edge.delay_profile_ids)
            edge_profiles[eid] = tuple((pid, Fraction(1, n))
                                       for pid in edge.delay_profile_ids)
    if starts is None:
        starts = {v.id: v.start_step for v in fleet}
    start_steps = {vid: ((t, Fraction(1)),) for vid, t in sorted(starts.items())}
    return ScenarioDistribution(edge_profiles=edge_profiles, start_steps=start_steps)


def enumerate_support(dist: ScenarioDistribution,
                      cap: int = DEFAULT_SUPPORT_CAP) -> list[tuple[Scenario, Fraction]]:
    """Full joint support as (scenario, probability), in ``draw``'s order.

    Raises SupportTooLargeError above ``cap``; callers should fall back to
    the sampled oracle.
    """
    return _scenarios(dist, cap, 0, None)


def sample_scenario(dist: ScenarioDistribution, rng: random.Random) -> Scenario:
    assignment = {eid: _draw(dist.edge_profiles[eid], rng) for eid in sorted(dist.edge_profiles)}
    starts = {vid: _draw(dist.start_steps[vid], rng) for vid in sorted(dist.start_steps)}
    return Scenario(profile_assignment=assignment, start_steps=starts)


def sample_scenarios(dist: ScenarioDistribution, draws: int,
                     rng: random.Random) -> list[Scenario]:
    """``draws`` joint scenarios, sampled by ``draw``."""
    return [scenario for scenario, _p in _scenarios(dist, 0, draws, rng)]


def _scenarios(dist: ScenarioDistribution, cap: int, draws: int, rng):
    """``_drawn`` as (scenario, probability) pairs."""
    weights, scale, edges, starts = _drawn(dist, cap, draws, rng)
    worlds = np.array([*edges.values(), *starts.values()], dtype=np.int64).reshape(
        len(edges) + len(starts), len(weights)).T
    return [(Scenario(profile_assignment=dict(zip(edges, world)),
                      start_steps=dict(zip(starts, world[len(edges):]))), Fraction(w, scale))
            for world, w in zip(worlds.tolist(), weights)]


def _drawn(dist: ScenarioDistribution, cap: int, draws: int, rng: random.Random | None,
           row=lambda _eid, pid: pid):
    """One ``draw`` over the marginals of ``dist``: its edges', valued
    ``row(edge, profile)``, then its vehicles', by ascending id. Returns
    the weights, the scale and the worlds' values keyed by edge and by
    vehicle. An exact draw (no ``rng``) first refuses a support above
    ``cap``."""
    eids, vids = sorted(dist.edge_profiles), sorted(dist.start_steps)
    axes = [Marginal.of(dist.edge_profiles[eid],
                        [row(eid, pid) for pid, _p in dist.edge_profiles[eid]])
            for eid in eids]
    axes += [Marginal.of(dist.start_steps[vid]) for vid in vids]
    if rng is None and dist.support_size() > cap:
        raise SupportTooLargeError(
            f"joint support has {dist.support_size()} scenarios, above the cap of "
            f"{cap}; use the sampled oracle")
    columns, weights, scale = draw(axes, cap, draws, rng)
    return weights, scale, dict(zip(eids, columns)), dict(zip(vids, columns[len(eids):]))


def draw(axes: Sequence[Marginal], cap: int, draws: int, rng: random.Random | None):
    """Joint worlds of independent marginals: each axis's value per world,
    the worlds' integer weights and their scale.

    Up to ``cap`` worlds are enumerated in lex order of the axes, weighted
    by the products of the marginals' weights and scales. Above it,
    ``draws`` worlds of weight 1 are drawn from ``rng``, one ``systematic``
    column per axis in order: stratified per marginal, paired at random.
    """
    size = math.prod(len(m.pairs) for m in axes)
    if size <= cap:
        combos = list(itertools.product(*(range(len(m.pairs)) for m in axes)))
        picks = np.array(combos, dtype=np.intp).reshape(size, len(axes)).T
        # a marginal's weights sum to its scale and share no factor with
        # it, so no prime of the product scale divides every world's
        # weight: these are the weights ``scaled_weights`` gives the
        # worlds' probabilities
        weights = [math.prod(m.weights[i] for m, i in zip(axes, c)) for c in combos]
        scale = math.prod(m.scale for m in axes)
    else:
        # w / scale is the renormalised probability as a float, correctly rounded
        picks = np.array([systematic([w / m.scale for w in m.weights], draws, rng)
                          for m in axes], dtype=np.intp).reshape(len(axes), draws)
        weights, scale = [1] * draws, draws
    return [m.values[pick] for m, pick in zip(axes, picks)], weights, scale


def systematic(probs: Sequence[float], draws: int,
               rng: random.Random) -> list[int]:
    """``draws`` indices into one marginal's ``probs``, on an evenly spaced
    grid with one random offset, then shuffled."""
    if len(probs) == 1:
        return [0] * draws
    u = rng.random()
    out = []
    i = 0
    acc = probs[0]
    for k in range(draws):
        x = (u + k) / draws
        while x >= acc:
            if i + 1 == len(probs):
                break  # float round-off at the tail of the CDF
            i += 1
            acc += probs[i]
        out.append(i)
    rng.shuffle(out)
    return out


def _draw(pairs: Sequence[tuple[int, Fraction]], rng: random.Random) -> int:
    if len(pairs) == 1:
        return pairs[0][0]
    x = rng.random()
    acc = 0.0
    for value, p in pairs:
        acc += float(p)
        if x < acc:
            return value
    return pairs[-1][0]


class ExpectedUtilityOracle(WorldsOracle):
    """Exact expectation over an enumerated support."""

    def __init__(self, game: CoordinationGame, dist: ScenarioDistribution,
                 cap: int = DEFAULT_SUPPORT_CAP):
        super().__init__(game, *static_game(game, *_drawn(
            dist, cap, 0, None, functools.partial(profile_row, game.net))))
        self.weighted = self.worlds.weights   # perfbench counts the worlds by it


class SampledUtilityOracle(WorldsOracle):
    """Empirical mean over scenarios drawn once (common random numbers).

    Deterministic for a given seed; self-reports as approximate.
    """

    approximate = True

    def __init__(self, game: CoordinationGame, dist: ScenarioDistribution,
                 draws: int, seed: int):
        if draws < 1:
            raise InputError(f"draws must be >= 1, got {draws}")
        self.draws = draws
        self.seed = seed
        super().__init__(game, *static_game(game, *_drawn(
            dist, 0, draws, random.Random(seed), functools.partial(profile_row, game.net))))
        self.weighted = self.worlds.weights   # perfbench counts the worlds by it


def stochastic_oracle(game: CoordinationGame, dist: ScenarioDistribution,
                      cap: int = DEFAULT_SUPPORT_CAP, draws: int = DEFAULT_DRAWS,
                      seed: int = 0):
    """Exact oracle when the support fits under the cap, else sampled."""
    if dist.support_size() <= cap:
        return ExpectedUtilityOracle(game, dist, cap)
    return SampledUtilityOracle(game, dist, draws, seed)


# --- JSON serialization ------------------------------------------------

_DIST_FIELDS = {"edges": ARRAY, "starts": ARRAY}
_EDGE_ROW_FIELDS = {"edge": INTEGER, "profiles": ARRAY}
_PROB_FIELDS = {"id": INTEGER, "p_num": INTEGER, "p_den": INTEGER}
_START_ROW_FIELDS = {"vehicle": INTEGER, "steps": ARRAY}
_STEP_FIELDS = {"t": INTEGER, "p_num": INTEGER, "p_den": INTEGER}


def distribution_from_dict(doc: dict) -> ScenarioDistribution:
    check_fields(doc, _DIST_FIELDS, "distribution")
    edge_profiles = {}
    for row in doc["edges"]:
        check_fields(row, _EDGE_ROW_FIELDS, "distribution edge row")
        pairs = []
        for cell in row["profiles"]:
            check_fields(cell, _PROB_FIELDS, "profile probability")
            pairs.append((int(cell["id"]),
                          Fraction(int(cell["p_num"]), int(cell["p_den"]))))
        edge_profiles[_new_key(edge_profiles, row["edge"], "edge")] = tuple(pairs)
    start_steps = {}
    for row in doc["starts"]:
        check_fields(row, _START_ROW_FIELDS, "distribution start row")
        pairs = []
        for cell in row["steps"]:
            check_fields(cell, _STEP_FIELDS, "start probability")
            pairs.append((int(cell["t"]),
                          Fraction(int(cell["p_num"]), int(cell["p_den"]))))
        start_steps[_new_key(start_steps, row["vehicle"], "vehicle")] = tuple(pairs)
    try:
        return ScenarioDistribution(edge_profiles=edge_profiles, start_steps=start_steps)
    except InputError as exc:
        raise FormatError(str(exc)) from exc


def _new_key(rows: dict, key: int, label: str) -> int:
    if key in rows:
        raise FormatError(f"distribution lists {label} {key} twice")
    return key


def distribution_to_dict(dist: ScenarioDistribution) -> dict:
    return {"edges": [{"edge": eid,
                       "profiles": [{"id": pid, "p_num": p.numerator, "p_den": p.denominator}
                                    for pid, p in pairs]}
                      for eid, pairs in sorted(dist.edge_profiles.items())],
            "starts": [{"vehicle": vid,
                        "steps": [{"t": t, "p_num": p.numerator, "p_den": p.denominator}
                                  for t, p in pairs]}
                       for vid, pairs in sorted(dist.start_steps.items())]}


def load_distribution(path) -> ScenarioDistribution:
    return load_json(path, distribution_from_dict)


def save_distribution(dist: ScenarioDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(distribution_to_dict(dist), fh, indent=2, sort_keys=True)
        fh.write("\n")
