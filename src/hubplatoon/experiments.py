"""Monte Carlo experiment harness: fleets, delay generators, metrics, sweeps.

A sample draws a fleet (population-weighted origins, destinations inside a
distance band, shortest-path routes, uniform injection window), realizes
one ground-truth scenario, and runs every requested policy against the
same realization (common random numbers). Sweeps reuse the same master
seed per sample index so adjacent parameter values share their draws.
"""

from __future__ import annotations

import csv
import json
import math
import random
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping, Sequence

from .errors import (FormatError, InputError, ModelInconsistencyError,
                     NonConvergenceError)
from .feedback import (DEFAULT_MAX_STEPS, POLICY_KINDS, PolicySpec, SimulationTrace,
                       run_policies)
from .game import (DEFAULT_KM_REWARD_CENTI, DEFAULT_STEP_COST_CENTI,
                   DEFAULT_WAIT_BUDGET_STEPS, CoordinationGame, RewardModel,
                   Scenario, VehicleSpec, WaitingCostModel)
from .network import (INTEGER, INTEGERS, NUMBER, STRINGS, DelayProfile,
                      RoadNetwork, check_fields, load_json, replace_profiles,
                      shortest_path)
from .seeding import derive_seed
from .stochastic import sample_scenario, uniform_profile_distribution

STEPS_PER_DAY = 288  # 5-minute grid


@dataclass(frozen=True)
class ExperimentConfig:
    vehicle_count: int = 100
    samples: int = 50
    master_seed: int = 0
    policies: tuple[str, ...] = POLICY_KINDS
    injection_start_step: int = 78      # 06:30
    injection_end_step: int = 102       # 08:30, inclusive
    waiting_budget_steps: int = DEFAULT_WAIT_BUDGET_STEPS
    km_rate_centi: int = DEFAULT_KM_REWARD_CENTI
    step_cost_centi: int = DEFAULT_STEP_COST_CENTI
    horizon: int = PolicySpec.horizon
    gating_minutes: int = PolicySpec.gating_minutes
    min_km: float = 300.0
    max_km: float = 800.0
    profiles_per_edge: int = 10
    peak_start_step: int = 84           # 07:00
    peak_end_step: int = 108            # 09:00, exclusive
    peak_heights: tuple[int, ...] = tuple(range(10))
    height_jitter: int = 0
    days: int = 2
    support_cap: int = PolicySpec.support_cap
    oracle_draws: int = PolicySpec.oracle_draws
    open_loop_cap: int = PolicySpec.open_loop_cap
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.vehicle_count < 1:
            raise InputError("vehicle_count must be >= 1")
        if self.samples < 1:
            raise InputError("samples must be >= 1")
        if len(self.peak_heights) != self.profiles_per_edge:
            raise InputError("peak_heights must list one height per profile")
        if any(h < 0 for h in self.peak_heights):
            raise InputError("peak heights must be nonnegative")
        if not self.injection_start_step <= self.injection_end_step:
            raise InputError("injection window is empty")
        if not self.policies:
            raise InputError("policies must name at least one policy")
        unknown = [p for p in self.policies if p not in POLICY_KINDS]
        if unknown:
            raise InputError(f"unknown policies: {', '.join(unknown)}")
        for i, kind in enumerate(self.policies):
            if kind in self.policies[:i]:
                raise InputError(f"policies lists {kind} twice")
            self.policy_spec(kind)   # a bad policy setting fails the config

    def policy_spec(self, kind: str) -> PolicySpec:
        return PolicySpec(kind=kind, horizon=self.horizon,
                          gating_minutes=self.gating_minutes,
                          support_cap=self.support_cap,
                          oracle_draws=self.oracle_draws,
                          open_loop_cap=self.open_loop_cap)


def generate_delay_profiles(net: RoadNetwork, config: ExperimentConfig,
                            seed: int = 0) -> tuple[list[DelayProfile],
                                                    dict[int, tuple[int, ...]]]:
    """Per-edge delay profiles with a flat morning peak, repeated daily.

    Profile j on an edge adds peak_heights[j] steps to entries inside the
    peak window. Heights can be jittered per (edge, profile) when
    height_jitter is positive; the result is deterministic given the seed.
    Returns (profiles, per-edge admissible profile ids).
    """
    rng = random.Random(seed)
    profiles: list[DelayProfile] = []
    assignment: dict[int, tuple[int, ...]] = {}
    peak = tuple(dict.fromkeys(t for day in range(config.days) for t in range(
        config.peak_start_step + day * STEPS_PER_DAY, config.peak_end_step + day * STEPS_PER_DAY)))
    for idx, eid in enumerate(sorted(net.edges)):
        ids = []
        for j, height in enumerate(config.peak_heights):
            if config.height_jitter > 0:
                height = height + rng.randint(0, config.height_jitter)
            pid = idx * config.profiles_per_edge + j
            steps = peak if height > 0 else ()
            profiles.append(DelayProfile(pid, (eid,) * len(steps), steps,
                                         (height,) * len(steps)))
            ids.append(pid)
        assignment[eid] = tuple(ids)
    return profiles, assignment


def prepare_network(net: RoadNetwork, config: ExperimentConfig,
                    seed: int = 0) -> RoadNetwork:
    """Install generated delay profiles on a (possibly profile-less) network."""
    profiles, assignment = generate_delay_profiles(net, config, seed)
    return replace_profiles(net, profiles, assignment)


def _weighted_draw(rng: random.Random, items: Sequence[int],
                   weights: Sequence[float]) -> int:
    total = float(sum(weights))
    if total <= 0:
        raise InputError("all candidate weights are zero")
    x = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if x < acc:
            return item
    return items[-1]


def feasible_destinations(net: RoadNetwork, config: ExperimentConfig
                          ) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
    """Per origin: destinations whose shortest route lies inside the band."""
    out: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for origin in sorted(net.hubs):
        rows = []
        for dest in sorted(net.hubs):
            if dest == origin:
                continue
            km, edges = shortest_path(net, origin, dest)
            if edges and config.min_km < km < config.max_km:
                rows.append((dest, edges))
        out[origin] = rows
    return out


def sample_fleet(net: RoadNetwork, config: ExperimentConfig,
                 rng: random.Random,
                 feasible: Mapping[int, list] | None = None) -> list[VehicleSpec]:
    """Draw the fleet: weighted origins, banded destinations, uniform starts."""
    if feasible is None:
        feasible = feasible_destinations(net, config)
    hubs = sorted(net.hubs)
    weights = [net.hubs[h].population_weight for h in hubs]
    if not any(w > 0 and feasible[h] for h, w in zip(hubs, weights)):
        raise InputError("no origin hub admits a destination in the distance band")
    fleet = []
    for i in range(config.vehicle_count):
        for _attempt in range(10_000):
            origin = _weighted_draw(rng, hubs, weights)
            if feasible[origin]:
                break
        else:
            raise InputError("could not sample a feasible origin")
        dests = feasible[origin]
        dest_weights = [net.hubs[d].population_weight for d, _e in dests]
        if not any(w > 0 for w in dest_weights):
            dest_weights = [1.0] * len(dests)
        chosen = _weighted_draw(rng, list(range(len(dests))), dest_weights)
        _dest, edges = dests[chosen]
        start = rng.randint(config.injection_start_step, config.injection_end_step)
        fleet.append(VehicleSpec(id=i, edge_sequence=edges, start_step=start,
                                 waiting_budget_steps=config.waiting_budget_steps))
    return fleet


# --- metrics ------------------------------------------------------------


@dataclass
class SampleMetrics:
    sample: int
    platooning_rate: float
    avg_wait_minutes: float
    total_utility_centi: int
    followed_km: float
    traveled_km: float


# a policy's summary numbers, as metrics.json and sweep.csv give them
SUMMARY_FIELDS = ("platooning_rate", "rate_mean", "rate_stderr", "wait_mean_minutes",
                  "wait_stderr_minutes", "utility_mean_centi", "utility_stderr_centi")


@dataclass
class MetricsReport:
    """Across-sample aggregate for one policy."""

    policy: str
    per_sample: list[SampleMetrics]
    platooning_rate: float          # pooled followed km / traveled km
    rate_mean: float
    rate_stderr: float
    wait_mean_minutes: float
    wait_stderr_minutes: float
    utility_mean_centi: float
    utility_stderr_centi: float
    follower_series: dict[int, float]   # step -> mean follower count
    platoon_hist: dict[int, int]        # platoon size -> traversal count

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in SUMMARY_FIELDS},
                "policy": self.policy, "samples": len(self.per_sample),
                "utility_mean_msek": self.utility_mean_centi / 1e8,
                "platoon_hist": {str(k): v for k, v in sorted(self.platoon_hist.items())}}


def trace_metrics(trace: SimulationTrace, fleet: Sequence[VehicleSpec],
                  net: RoadNetwork, sample: int = 0) -> tuple[SampleMetrics,
                                                              dict[int, int],
                                                              dict[int, int]]:
    """Single-trace numbers: rate parts, waits, utility, followers, histogram."""
    if {v.id for v in fleet} != set(trace.utility_centi):
        raise InputError("the fleet's vehicle ids differ from the trace's")
    traveled = sum(sum(net.edges[e].length_km for e in v.edge_sequence) for v in fleet)
    followed = 0.0
    followers: dict[int, int] = {}
    hist: dict[int, int] = {}
    for event in trace.events:
        if event.kind != "platoon":
            continue
        n = len(event.data["members"])
        length = net.edges[event.data["edge"]].length_km
        followed += (n - 1) * length
        hist[n] = hist.get(n, 0) + 1
        for t in range(event.t, event.t + event.data["travel"]):
            followers[t] = followers.get(t, 0) + (n - 1)
    waits = [trace.waited_steps[v.id] * net.time_step_minutes for v in fleet]
    metrics = SampleMetrics(
        sample=sample,
        platooning_rate=(followed / traveled) if traveled else 0.0,
        avg_wait_minutes=sum(waits) / len(waits) if waits else 0.0,
        total_utility_centi=trace.total_utility_centi(),
        followed_km=followed, traveled_km=traveled)
    return metrics, followers, hist


def _mean_stderr(xs: Sequence[float]) -> tuple[float, float]:
    n = len(xs)
    mean = sum(xs) / n
    if n < 2:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, math.sqrt(var / n)


def compute_metrics(traces: Sequence[SimulationTrace], fleet, net: RoadNetwork,
                    policy: str | None = None) -> MetricsReport:
    """Aggregate one policy's traces; ``fleet`` is one fleet or one per trace."""
    if not traces:
        raise InputError("no traces to aggregate")
    fleets = list(fleet) if fleet and isinstance(fleet[0], (list, tuple)) \
        else [fleet] * len(traces)
    if len(fleets) != len(traces):
        raise InputError("need one fleet, or exactly one per trace")
    rows, follower_sums, hist = [], Counter(), Counter()
    for i, (trace, fl) in enumerate(zip(traces, fleets)):
        metrics, followers, h = trace_metrics(trace, fl, net, sample=i)
        rows.append(metrics)
        follower_sums.update(followers)
        hist.update(h)
    n = len(rows)
    rate_mean, rate_se = _mean_stderr([r.platooning_rate for r in rows])
    wait_mean, wait_se = _mean_stderr([r.avg_wait_minutes for r in rows])
    util_mean, util_se = _mean_stderr([float(r.total_utility_centi) for r in rows])
    pooled_followed = sum(r.followed_km for r in rows)
    pooled_traveled = sum(r.traveled_km for r in rows)
    return MetricsReport(
        policy=policy if policy is not None else traces[0].policy,
        per_sample=rows,
        platooning_rate=(pooled_followed / pooled_traveled) if pooled_traveled else 0.0,
        rate_mean=rate_mean, rate_stderr=rate_se,
        wait_mean_minutes=wait_mean, wait_stderr_minutes=wait_se,
        utility_mean_centi=util_mean, utility_stderr_centi=util_se,
        follower_series={t: c / n for t, c in sorted(follower_sums.items())},
        platoon_hist=dict(hist))


# --- experiment driver --------------------------------------------------


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    reports: dict[str, MetricsReport]
    failures: list[tuple[int, str]] = field(default_factory=list)
    # populated only when run_experiment(..., keep_traces=True)
    sample_ids: list[int] = field(default_factory=list)
    traces: dict[str, list[SimulationTrace]] | None = None


def run_instance(net: RoadNetwork, config: ExperimentConfig,
                 fleet: Sequence[VehicleSpec], sample: int = 0,
                 truth: Scenario | None = None) -> dict[str, SimulationTrace]:
    """Every configured policy on one fleet and one realized day.

    The day is ``truth`` when given, otherwise a draw from the uniform
    profile distribution under the sample's truth seed.
    """
    game = CoordinationGame(net, fleet,
                            RewardModel(km_rate_centi=config.km_rate_centi),
                            WaitingCostModel(step_cost_centi=config.step_cost_centi))
    dist = uniform_profile_distribution(net, fleet)
    if truth is None:
        truth = sample_scenario(dist, random.Random(
            derive_seed(config.master_seed, "truth", sample)))
    return run_policies(game, dist, truth,
                        [config.policy_spec(k) for k in config.policies],
                        seed=derive_seed(config.master_seed, "policy", sample),
                        max_steps=config.max_steps)


def run_sample(net: RoadNetwork, config: ExperimentConfig, sample: int,
               feasible=None) -> tuple[list[VehicleSpec],
                                       dict[str, SimulationTrace]]:
    """One Monte Carlo draw: fleet + realized scenario, all policies on it."""
    fleet_rng = random.Random(derive_seed(config.master_seed, "fleet", sample))
    fleet = sample_fleet(net, config, fleet_rng, feasible)
    return fleet, run_instance(net, config, fleet, sample)


def _sample_payload(args):
    net, config, sample, feasible = args
    try:
        fleet, traces = run_sample(net, config, sample, feasible)
        return sample, traces, fleet, None
    except (InputError, NonConvergenceError, ModelInconsistencyError) as exc:
        # recorded, excluded from aggregation; anything else is a bug
        return sample, None, None, f"{type(exc).__name__}: {exc}"


def run_experiment(net: RoadNetwork, config: ExperimentConfig,
                   jobs: int = 1, keep_traces: bool = False) -> ExperimentResult:
    """All samples, all policies; failures are warned about and skipped."""
    prepared = net if net.delay_profiles else prepare_network(net, config)
    feasible = feasible_destinations(prepared, config)
    payloads = [(prepared, config, s, feasible) for s in range(config.samples)]
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            outcomes = pool.map(_sample_payload, payloads)
    else:
        outcomes = [_sample_payload(p) for p in payloads]
    failures = []
    per_policy: dict[str, list[SimulationTrace]] = {k: [] for k in config.policies}
    fleets: list = []
    sample_ids: list[int] = []
    for sample, traces, fleet, error in sorted(outcomes, key=lambda r: r[0]):
        if error is not None:
            warnings.warn(f"sample {sample} failed and was excluded: {error}")
            failures.append((sample, error))
            continue
        fleets.append(fleet)
        sample_ids.append(sample)
        for kind in config.policies:
            per_policy[kind].append(traces[kind])
    if not fleets:
        raise InputError("every sample failed")
    reports = {kind: compute_metrics(per_policy[kind], fleets, prepared, policy=kind)
               for kind in config.policies}
    return ExperimentResult(config=config, reports=reports, failures=failures,
                            sample_ids=sample_ids,
                            traces=per_policy if keep_traces else None)


SWEEP_AXES = {"vehicle_count": "vehicle_count",
              "budget": "waiting_budget_steps",
              "c_b": "km_rate_centi"}


def sweep(net: RoadNetwork, config: ExperimentConfig, axis: str,
          values: Sequence[int], jobs: int = 1) -> dict[int, ExperimentResult]:
    """Re-run the experiment along one axis with common random numbers."""
    if axis not in SWEEP_AXES:
        raise InputError(f"unknown sweep axis {axis!r}; "
                         f"choose from {', '.join(sorted(SWEEP_AXES))}")
    if not values:
        raise InputError("sweep needs at least one value")
    return {int(value): run_experiment(
        net, replace(config, **{SWEEP_AXES[axis]: int(value)}), jobs=jobs) for value in values}


# --- config / output files ----------------------------------------------

_CONFIG_FIELDS = {f.name: NUMBER if isinstance(f.default, float) else INTEGER
                  for f in fields(ExperimentConfig)}
_CONFIG_FIELDS.update(policies=STRINGS, peak_heights=INTEGERS)


def config_from_dict(doc: dict) -> ExperimentConfig:
    check_fields(doc, _CONFIG_FIELDS, "config", required=())
    kwargs = dict(doc)
    if "policies" in kwargs:
        kwargs["policies"] = tuple(kwargs["policies"])
    if "peak_heights" in kwargs:
        kwargs["peak_heights"] = tuple(kwargs["peak_heights"])
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, InputError) as exc:
        raise FormatError(f"bad config: {exc}") from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(config).items()}


def load_config(path) -> ExperimentConfig:
    return load_json(path, config_from_dict)


def write_metrics_json(result: ExperimentResult, path) -> None:
    doc = {"config": config_to_dict(result.config),
           "failures": [{"sample": s, "error": e} for s, e in result.failures],
           "policies": {kind: report.to_dict()
                        for kind, report in sorted(result.reports.items())}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_raw_csv(result: ExperimentResult, path) -> None:
    write_csv(path, ["sample", "policy", "platooning_rate", "avg_wait_minutes",
                     "total_utility_centi"],
              ([row.sample, kind, row.platooning_rate, row.avg_wait_minutes,
                row.total_utility_centi]
               for kind in sorted(result.reports) for row in result.reports[kind].per_sample))


def write_followers_csv(result: ExperimentResult, path) -> None:
    write_csv(path, ["policy", "step", "mean_followers"],
              ([kind, step, count] for kind in sorted(result.reports)
               for step, count in result.reports[kind].follower_series.items()))


def write_platoon_hist_csv(result: ExperimentResult, path) -> None:
    write_csv(path, ["policy", "size", "count"],
              ([kind, size, count] for kind in sorted(result.reports)
               for size, count in sorted(result.reports[kind].platoon_hist.items())))
