"""Stochastic coordination game: expectation over a scenario distribution.

Travel-time uncertainty is a delay profile drawn independently per edge;
start-step uncertainty is drawn independently per vehicle. Probabilities
are exact rationals so expected utilities and the expected potential stay
exact. Joint supports are enumerated fully below a cap; above it a seeded
sample defines an empirical (uniform) measure, which is itself a
finite-support stochastic game, so the solver's termination argument is
unchanged; results from the sampled oracle are flagged approximate.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import FormatError, InputError, SupportTooLargeError
from .game import CoordinationGame, Scenario, scaled_weights
from .network import ARRAY, INTEGER, check_fields, load_json
from .solver import WorldsOracle, scenario_game

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
        n = 1
        for pairs in self.edge_profiles.values():
            n *= len(pairs)
        for pairs in self.start_steps.values():
            n *= len(pairs)
        return n


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
    """Full joint support as (scenario, probability), deterministic order.

    Raises SupportTooLargeError above ``cap``; callers should fall back to
    the sampled oracle.
    """
    size = dist.support_size()
    if size > cap:
        raise SupportTooLargeError(
            f"joint support has {size} scenarios, above the cap of {cap}; "
            "use the sampled oracle")
    edge_ids = sorted(dist.edge_profiles)
    vehicle_ids = sorted(dist.start_steps)
    axes = [dist.edge_profiles[eid] for eid in edge_ids]
    axes += [dist.start_steps[vid] for vid in vehicle_ids]
    out = []
    for combo in itertools.product(*axes):
        prob = Fraction(1)
        for _value, p in combo:
            prob *= p
        assignment = {eid: combo[i][0] for i, eid in enumerate(edge_ids)}
        starts = {vid: combo[len(edge_ids) + j][0]
                  for j, vid in enumerate(vehicle_ids)}
        out.append((Scenario(profile_assignment=assignment, start_steps=starts), prob))
    return out


def sample_scenario(dist: ScenarioDistribution, rng: random.Random) -> Scenario:
    assignment = {}
    for eid in sorted(dist.edge_profiles):
        pairs = dist.edge_profiles[eid]
        assignment[eid] = _draw(pairs, rng)
    starts = {}
    for vid in sorted(dist.start_steps):
        starts[vid] = _draw(dist.start_steps[vid], rng)
    return Scenario(profile_assignment=assignment, start_steps=starts)


def sample_scenarios(dist: ScenarioDistribution, draws: int,
                     rng: random.Random) -> list[Scenario]:
    """``draws`` joint scenarios, each marginal systematically stratified.

    Every marginal is sampled on an evenly spaced probability grid with a
    shared random offset and then shuffled, so the draw set covers each
    marginal in proportion to its weights while the pairing across
    marginals stays random. Same cost as independent draws, lower
    variance for effects that decompose per marginal.
    """
    def column(pairs):
        return [pairs[i][0] for i in systematic([float(p) for _v, p in pairs],
                                                  draws, rng)]

    edges = {eid: column(dist.edge_profiles[eid]) for eid in sorted(dist.edge_profiles)}
    starts = {vid: column(dist.start_steps[vid]) for vid in sorted(dist.start_steps)}
    return [Scenario(profile_assignment={eid: col[k] for eid, col in edges.items()},
                     start_steps={vid: col[k] for vid, col in starts.items()})
            for k in range(draws)]


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
        self.weighted = enumerate_support(dist, cap)
        super().__init__(game, *scenario_game(game, self.weighted))


class SampledUtilityOracle(WorldsOracle):
    """Empirical mean over scenarios drawn once (common random numbers).

    Deterministic for a given seed; self-reports as approximate.
    """

    approximate = True

    def __init__(self, game: CoordinationGame, dist: ScenarioDistribution,
                 draws: int, seed: int):
        if draws < 1:
            raise InputError(f"draws must be >= 1, got {draws}")
        weight = Fraction(1, draws)
        self.weighted = [(s, weight) for s in
                         sample_scenarios(dist, draws, random.Random(seed))]
        self.draws = draws
        self.seed = seed
        super().__init__(game, *scenario_game(game, self.weighted))


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
        edge_profiles[int(row["edge"])] = tuple(pairs)
    start_steps = {}
    for row in doc["starts"]:
        check_fields(row, _START_ROW_FIELDS, "distribution start row")
        pairs = []
        for cell in row["steps"]:
            check_fields(cell, _STEP_FIELDS, "start probability")
            pairs.append((int(cell["t"]),
                          Fraction(int(cell["p_num"]), int(cell["p_den"]))))
        start_steps[int(row["vehicle"])] = tuple(pairs)
    try:
        return ScenarioDistribution(edge_profiles=edge_profiles, start_steps=start_steps)
    except InputError as exc:
        raise FormatError(str(exc)) from exc


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
