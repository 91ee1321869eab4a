"""Whole-system checks: engine math, solver soundness, simulator trends.

Run with ``pytest tests/test_acceptance.py -s`` to see one summary line
per check. The trend checks at the bottom run full desk-scale Monte
Carlo experiments and take a few minutes combined.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from importlib import resources

from conftest import make_game, make_net, reference_inputs
from hubplatoon.cli import main as cli_main
from hubplatoon.experiments import (ExperimentConfig, run_experiment, sweep,
                                    trace_metrics)
from hubplatoon.feedback import (PolicySpec, VehicleState, WorldState,
                                 conditional_distribution, run_closed_loop)
from hubplatoon.game import (Scenario, VehicleSpec, deterministic_scenario,
                             save_fleet)
from hubplatoon.network import load_network
from hubplatoon.solver import (DeterministicOracle, nash_seek,
                               solve_deterministic, spaces_for_fleet,
                               verify_ne)
from hubplatoon.stochastic import (ExpectedUtilityOracle,
                                   ScenarioDistribution,
                                   degenerate_distribution, enumerate_support,
                                   sample_scenario,
                                   uniform_profile_distribution)
from oracles import ref_potential, ref_utility

POLICY_LADDER = ("ktt", "srhs", "drhs", "ip", "sp")

# Desk-scale trend experiment: fleet sizes, sample count and seed are
# fixed here once; the remaining knobs are the library defaults.
TREND_SEED = 11
TREND_SAMPLES = 20
TREND_FLEETS = (50, 100, 200)
TREND_EXTRAS = {"oracle_draws": 32}

# Paired (per-sample) dominance is required only where the information
# structure orders the policies: the clairvoyant plan over each feedback
# rule, each feedback rule over the open-loop plan, the open-loop plan over
# straight-through. srhs and drhs see the same observations and differ only
# in how they weigh the posterior; neither dominates the other sample by
# sample, so their order is held by the means ladder alone.
TREND_PAIRS = (("ktt", "srhs"), ("ktt", "drhs"), ("srhs", "ip"),
               ("drhs", "ip"), ("ip", "sp"))


def _line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    return ok


def _bundled_net(name="synthetic10.json"):
    with resources.as_file(resources.files("hubplatoon") / "data" / name) as p:
        return load_network(p)


# --- randomized small instances ------------------------------------------


def _random_instance(rng, max_budget=3, n_profiles=2, max_vehicles=4):
    """Line corridor up to 5 hubs, both directions, short delay tables."""
    n_hubs = rng.randint(2, 5)
    profiles = {}
    for pid in range(n_profiles):
        profiles[pid] = {(eid, t): rng.randint(0, 2)
                         for eid in range(2 * (n_hubs - 1)) for t in range(16)
                         if rng.random() < 0.3}
    rows = []
    for k in range(n_hubs - 1):
        km = rng.choice((50, 100, 150))
        base = rng.randint(1, 3)
        rows.append((2 * k, k, k + 1, km, base, tuple(range(n_profiles))))
        rows.append((2 * k + 1, k + 1, k, km, base, tuple(range(n_profiles))))
    net = make_net(rows, profiles=profiles)
    vrows = []
    for vid in range(rng.randint(2, max_vehicles)):
        a = rng.randrange(n_hubs - 1)
        b = rng.randrange(a, n_hubs - 1)
        if rng.random() < 0.5:      # forward edges a..b
            seq = tuple(2 * k for k in range(a, b + 1))
        else:                       # backward edges b..a
            seq = tuple(2 * k + 1 for k in range(b, a - 1, -1))
        vrows.append((vid, seq, rng.randint(0, 3), rng.randint(0, max_budget)))
    return make_game(net, vrows)


def _random_scenario(rng, game, n_profiles=2):
    return Scenario(profile_assignment={eid: rng.randrange(n_profiles)
                                        for eid in game.net.edges},
                    start_steps={})


def _random_distribution(rng, game, n_profiles=2, max_open=4):
    """Joint support of at most 2**max_open scenarios."""
    open_edges = rng.sample(sorted(game.net.edges),
                            k=min(rng.randint(1, max_open), len(game.net.edges)))
    edge_profiles = {}
    for eid in game.net.edges:
        if eid in open_edges:
            num = rng.randint(1, 3)
            p = Fraction(num, 4)
            edge_profiles[eid] = ((0, p), (1, 1 - p))
        else:
            edge_profiles[eid] = ((rng.randrange(n_profiles), Fraction(1)),)
    starts = {vid: ((game.fleet[vid].start_step, Fraction(1)),)
              for vid in game.vehicle_ids}
    return ScenarioDistribution(edge_profiles=edge_profiles, start_steps=starts)


def _random_profile(rng, spaces):
    return {vid: rng.choice(space) for vid, space in spaces.items()}


# --- 1: deviation identity, deterministic --------------------------------
#
# Checks 1, 2 and 4 take utilities and potentials from the independent
# reference in tests/oracles.py. The engine's oracle must equal it wherever
# it is read, so the engine is never its own reference.


def test_deterministic_potential_exactness():
    rng = random.Random(101)
    t0 = time.monotonic()
    triples = 0
    for _case in range(100):
        game = _random_instance(rng)
        scenario = _random_scenario(rng, game)
        vehicles, travel, lengths = reference_inputs(game, scenario)
        oracle = DeterministicOracle(game, scenario)
        spaces = spaces_for_fleet(game.fleet.values())
        for _t in range(10):
            profile = _random_profile(rng, spaces)
            vid = rng.choice(sorted(spaces))
            alt = rng.choice(spaces[vid])
            moved = dict(profile)
            moved[vid] = alt
            phi = [ref_potential(vehicles, p, travel, lengths)
                   for p in (profile, moved)]
            u = [ref_utility(vid, vehicles, p, travel, lengths)
                 for p in (profile, moved)]
            d_phi, d_u = phi[1] - phi[0], u[1] - u[0]
            assert d_phi == d_u, f"case {_case}: {d_phi} != {d_u}"
            assert [oracle.potential(p) for p in (profile, moved)] == phi
            assert [oracle.utility(vid, p) for p in (profile, moved)] == u
            triples += 1
    print(f"[INFO] deterministic potential exactness elapsed: "
          f"{time.monotonic() - t0:.1f}s")
    assert _line("deterministic potential exactness", triples >= 1000,
                 f"{triples} deviation triples, integer equality")


# --- 2: deviation identity, stochastic -----------------------------------


def test_stochastic_potential_exactness():
    rng = random.Random(202)
    t0 = time.monotonic()
    triples = 0
    for _case in range(50):
        game = _random_instance(rng)
        dist = _random_distribution(rng, game)
        support = enumerate_support(dist, 16)
        assert len(support) <= 16
        worlds = [(prob, reference_inputs(game, scenario))
                  for scenario, prob in support]
        oracle = ExpectedUtilityOracle(game, dist, cap=16)
        spaces = spaces_for_fleet(game.fleet.values())
        for _t in range(10):
            profile = _random_profile(rng, spaces)
            vid = rng.choice(sorted(spaces))
            alt = rng.choice(spaces[vid])
            moved = dict(profile)
            moved[vid] = alt
            phi = [sum(prob * ref_potential(vehicles, p, travel, lengths)
                       for prob, (vehicles, travel, lengths) in worlds)
                   for p in (profile, moved)]
            u = [sum(prob * ref_utility(vid, vehicles, p, travel, lengths)
                     for prob, (vehicles, travel, lengths) in worlds)
                 for p in (profile, moved)]
            d_phi, d_u = phi[1] - phi[0], u[1] - u[0]
            assert d_phi == d_u, f"case {_case}: {d_phi} != {d_u}"
            assert [oracle.potential(p) for p in (profile, moved)] == phi
            assert [oracle.utility(vid, p) for p in (profile, moved)] == u
            triples += 1
    print(f"[INFO] stochastic potential exactness elapsed: "
          f"{time.monotonic() - t0:.1f}s")
    assert _line("stochastic potential exactness", triples >= 500,
                 f"{triples} deviation triples, rational equality")


# --- 3: best-response search soundness ------------------------------------


def test_solver_soundness():
    rng = random.Random(303)
    t0 = time.monotonic()
    solved = 0
    for _case in range(200):
        game = _random_instance(rng)
        spaces = spaces_for_fleet(game.fleet.values())
        if _case % 2 == 0:
            scenario = _random_scenario(rng, game)
            report = solve_deterministic(game, scenario, verify=True,
                                         track_potential=True)
            assert report.verified is True
        else:
            oracle = ExpectedUtilityOracle(game, _random_distribution(rng, game))
            report = nash_seek(oracle, spaces, track_potential=True)
            assert verify_ne(oracle, spaces, report.profile) is True
        traj = report.potential_trajectory
        assert all(a < b for a, b in zip(traj, traj[1:])), \
            f"case {_case}: potential not strictly increasing: {traj}"
        solved += 1
    print(f"[INFO] best-response solver soundness elapsed: "
          f"{time.monotonic() - t0:.1f}s")
    assert _line("best-response solver soundness", solved >= 200,
                 f"{solved} instances verified as equilibria")


# --- 4: exhaustive potential maximizer ------------------------------------


def test_brute_force_equilibrium_consistency():
    rng = random.Random(404)
    checked = 0
    for _case in range(25):
        game = _random_instance(rng, max_vehicles=3)
        spaces = spaces_for_fleet(game.fleet.values())
        joint = math.prod(len(s) for s in spaces.values())
        if joint > 100_000:     # outside the exhaustive regime
            continue
        scenario = _random_scenario(rng, game)
        vehicles, travel, lengths = reference_inputs(game, scenario)
        oracle = DeterministicOracle(game, scenario)
        vids = sorted(spaces)
        best, best_phi = None, None
        for combo in itertools.product(*(spaces[v] for v in vids)):
            profile = dict(zip(vids, combo))
            phi = ref_potential(vehicles, profile, travel, lengths)
            if best_phi is None or phi > best_phi:
                best, best_phi = profile, phi
        assert verify_ne(oracle, spaces, best) is True, \
            f"case {_case}: potential maximizer fails equilibrium check"
        report = solve_deterministic(game, scenario)
        zero = {vid: (0,) * len(game.fleet[vid].edge_sequence) for vid in vids}
        assert ref_potential(vehicles, report.profile, travel, lengths) >= \
            ref_potential(vehicles, zero, travel, lengths)
        checked += 1
    assert _line("brute-force equilibrium consistency", checked >= 20,
                 f"{checked} instances, every potential maximizer is an equilibrium")


# --- 5: degenerate-distribution collapse ----------------------------------


def test_point_mass_policy_collapse():
    rng = random.Random(505)
    agree = 0
    sp_matches = 0
    for _case in range(20):
        base = _random_instance(rng, max_budget=2)
        start = rng.randint(0, 2)   # a common injection step for the fleet
        game = make_game(base.net,
                         [(v.id, v.edge_sequence, start,
                           v.waiting_budget_steps)
                          for v in base.fleet.values()])
        truth = Scenario(
            profile_assignment={eid: rng.randrange(2) for eid in game.net.edges},
            start_steps={vid: start for vid in game.vehicle_ids})
        dist = degenerate_distribution(truth)
        horizon = max(len(v.edge_sequence) for v in game.fleet.values())
        events = {}
        for kind in ("ip", "ktt", "drhs", "srhs", "sp"):
            trace = run_closed_loop(game, dist, truth,
                                    PolicySpec(kind=kind, horizon=horizon),
                                    seed=_case)
            events[kind] = trace.platoon_events()
        solved = [events[k] for k in ("ip", "ktt", "drhs", "srhs")]
        assert all(e == solved[0] for e in solved), \
            f"case {_case}: point-mass traces diverge"
        agree += 1
        sp_matches += events["sp"] == events["ip"]
    assert _line("point-mass policy collapse", agree >= 20,
                 f"{agree} instances, identical platoon sets for the four "
                 f"solved policies (straight-through agreed on {sp_matches})")


# --- 6: posterior conditioning --------------------------------------------


def _replay_conditioning(game, dist, truth, trace):
    """Re-walk a trace step by step; the posterior must keep the truth."""
    by_step = {}
    for e in trace.events:
        by_step.setdefault(e.t, []).append(e)
    vehicles = {vid: VehicleState(vid=vid, status="pending",
                                  budget_left=game.fleet[vid].waiting_budget_steps,
                                  planned_waits=[0] * len(game.fleet[vid].edge_sequence))
                for vid in game.vehicle_ids}
    world = WorldState(now=min(by_step), vehicles=vehicles)
    position = {vid: 0 for vid in game.vehicle_ids}    # departures so far
    steps = 0
    for t in range(min(by_step), max(by_step) + 1):
        world.now = t
        for e in by_step.get(t, ()):    # arrivals and starts happen first
            if e.kind == "start":
                v = vehicles[e.data["vehicle"]]
                v.status, v.node_index, v.realized_start = "at_node", 0, t
            elif e.kind == "arrive":
                v = vehicles[e.data["vehicle"]]
                world.completed.setdefault(e.data["edge"], []).append(
                    (e.data["entered"], e.data["travel"]))
                if e.data["node"] == len(game.fleet[v.vid].edge_sequence):
                    v.status = "done"
                else:
                    v.status, v.node_index = "at_node", e.data["node"]
        posterior = conditional_distribution(dist, world, game)
        for eid, pid in truth.profile_assignment.items():
            kept = {p for p, _w in posterior.edge_profiles[eid]}
            assert pid in kept, f"step {t}: truth profile {pid} eliminated on edge {eid}"
        for vid, s in truth.start_steps.items():
            kept = {x for x, _w in posterior.start_steps[vid]}
            assert s in kept, f"step {t}: truth start {s} eliminated for vehicle {vid}"
        steps += 1
        for e in by_step.get(t, ()):
            if e.kind == "depart":
                v = vehicles[e.data["vehicle"]]
                v.status, v.entered_at = "on_edge", t
                v.edge_index = position[v.vid]
                position[v.vid] += 1
    return steps


def test_posterior_conditioning_correctness():
    # constructed two-profile edge, free flow 3 steps vs a flat 2-step bump
    profiles = {0: {}, 1: {(0, t): 2 for t in range(24)}}
    net = make_net([(0, 0, 1, 100, 3, (0, 1))], profiles=profiles)
    game = make_game(net, [(0, (0,), 0, 2)])
    half = Fraction(1, 2)
    dist = ScenarioDistribution(edge_profiles={0: ((0, half), (1, half))},
                                start_steps={0: ((0, Fraction(1)),)})
    finished = VehicleState(vid=0, status="done", realized_start=0)
    world = WorldState(now=5, vehicles={0: finished}, completed={0: [(0, 3)]})
    post = conditional_distribution(dist, world, game)
    assert post.edge_profiles[0] == ((0, Fraction(1)),)   # bump contradicted
    en_route = VehicleState(vid=0, status="on_edge", edge_index=0,
                            entered_at=0, realized_start=0)
    world = WorldState(now=4, vehicles={0: en_route})
    post = conditional_distribution(dist, world, game)
    assert post.edge_profiles[0] == ((1, Fraction(1)),)   # free flow ruled out

    # volume: the ground truth survives every step of real closed loops
    rng = random.Random(606)
    steps = 0
    for _case in range(80):
        game = _random_instance(rng, n_profiles=3)
        dist = uniform_profile_distribution(game.net, game.fleet.values())
        truth = sample_scenario(dist, rng)
        for kind in ("drhs", "srhs"):
            trace = run_closed_loop(game, dist, truth, PolicySpec(kind=kind),
                                    seed=_case)
            steps += _replay_conditioning(game, dist, truth, trace)
    assert _line("posterior conditioning correctness", steps >= 1000,
                 f"exact elimination on the constructed cases, truth kept "
                 f"across {steps} replayed steps")


# --- 7: desk-scale trend reproduction --------------------------------------


def test_trend_reproduction_ladder():
    net = _bundled_net()
    t0 = time.monotonic()
    results = {}
    for n in TREND_FLEETS:
        config = ExperimentConfig(vehicle_count=n, samples=TREND_SAMPLES,
                                  master_seed=TREND_SEED, **TREND_EXTRAS)
        results[n] = run_experiment(net, config)
        assert not results[n].failures
    elapsed = time.monotonic() - t0
    # wall time depends on the machine and its load: reported, never judged
    print(f"[INFO] trend elapsed: {elapsed:.0f}s for N in {TREND_FLEETS}")
    checks = []
    for n in TREND_FLEETS:
        rep = results[n].reports
        means = {k: rep[k].utility_mean_centi for k in POLICY_LADDER}
        checks.append(_line(
            f"trend means N={n}",
            all(means[hi] >= means[lo]
                for hi, lo in zip(POLICY_LADDER, POLICY_LADDER[1:])),
            " >= ".join(f"{k} {means[k]:.0f}" for k in POLICY_LADDER)))
        for hi, lo in TREND_PAIRS:
            xs = {s.sample: s.total_utility_centi for s in rep[hi].per_sample}
            ys = {s.sample: s.total_utility_centi for s in rep[lo].per_sample}
            frac = sum(xs[s] >= ys[s] for s in xs) / len(xs)
            checks.append(_line(f"trend pairs N={n}", frac >= 0.8,
                                f"{hi}>={lo} in {frac:.0%} of samples"))
        checks.append(_line(f"trend sp wait N={n}",
                            rep["sp"].wait_mean_minutes == 0.0,
                            f"{rep['sp'].wait_mean_minutes} min"))
    for kind in POLICY_LADDER:
        rates = [results[n].reports[kind].platooning_rate for n in TREND_FLEETS]
        checks.append(_line(f"trend rates {kind}",
                            all(a < b for a, b in zip(rates, rates[1:])),
                            "strictly increasing with fleet size: "
                            + ", ".join(f"{r:.4f}" for r in rates)))
    assert _line("desk-scale trend reproduction", all(checks),
                 f"{checks.count(False)} of {len(checks)} checks failed: means "
                 f"ladder, paired >=80% over the information order, sp never "
                 f"waits, rates rise with fleet size")


# --- 8: budget and benefit monotonicity ------------------------------------


def test_budget_and_benefit_monotonicity():
    net = _bundled_net()
    base = ExperimentConfig(vehicle_count=40, samples=8, master_seed=TREND_SEED)
    t0 = time.monotonic()
    ok = True
    for axis, values in (("budget", (1, 2, 3, 4)), ("c_b", (50, 170, 400))):
        swept = sweep(net, base, axis, values)
        for kind in base.policies:
            for a, b in zip(values, values[1:]):
                lo, hi = swept[a].reports[kind], swept[b].reports[kind]
                pooled = math.hypot(lo.rate_stderr, hi.rate_stderr)
                if not hi.rate_mean >= lo.rate_mean - pooled:
                    ok = _line(f"monotonicity {axis} {kind}", False,
                               f"{a}->{b}: {lo.rate_mean:.4f} drops to "
                               f"{hi.rate_mean:.4f}, pooled se {pooled:.4f}") and ok
    elapsed = time.monotonic() - t0
    assert _line("budget and benefit monotonicity", ok,
                 f"platooning rate nondecreasing along both sweeps, {elapsed:.0f}s")


# --- 9: metrics arithmetic --------------------------------------------------


def test_metrics_arithmetic():
    # two vehicles sharing one 100 km edge: rate 100 followed / 200 traveled
    net = make_net([(0, 0, 1, 100, 3)])
    game = make_game(net, [(0, (0,), 0, 4), (1, (0,), 0, 4)])
    truth = deterministic_scenario(net, game.fleet.values())
    trace = run_closed_loop(game, degenerate_distribution(truth), truth,
                            PolicySpec(kind="sp"))
    fleet = list(game.fleet.values())
    metrics, followers, hist = trace_metrics(trace, fleet, net)
    assert metrics.platooning_rate == 0.5
    assert hist == {2: 1}

    # platoon of three: histogram {3: 1}, two followers while traversing
    game3 = make_game(net, [(0, (0,), 0, 4), (1, (0,), 0, 4), (2, (0,), 0, 4)])
    truth3 = deterministic_scenario(net, game3.fleet.values())
    trace3 = run_closed_loop(game3, degenerate_distribution(truth3), truth3,
                             PolicySpec(kind="sp"))
    metrics3, followers3, hist3 = trace_metrics(trace3, list(game3.fleet.values()),
                                                net)
    assert hist3 == {3: 1}
    assert followers3 == {0: 2, 1: 2, 2: 2}    # 3-step traversal, 2 followers
    assert metrics3.platooning_rate == 2 / 3
    assert _line("metrics arithmetic", True,
                 "rate 0.5, histogram {3: 1} and follower count 2 reproduced")


# --- 10: byte-identical reruns ----------------------------------------------


def test_byte_identical_reruns(tmp_path):
    with resources.as_file(resources.files("hubplatoon") / "data"
                           / "synthetic10.json") as p:
        net_path = tmp_path / "net.json"
        net_path.write_bytes(p.read_bytes())
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "vehicle_count": 12, "samples": 2, "master_seed": 7,
        "policies": ["sp", "ip", "drhs"], "profiles_per_edge": 3,
        "peak_heights": [0, 2, 4], "days": 1, "min_km": 150.0,
        "max_km": 500.0}))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"sim_{run}"
        code = cli_main(["simulate", "--network", str(net_path),
                         "--config", str(config_path), "--out", str(out),
                         "--traces"])
        assert code == 0
        outputs.append({str(f.relative_to(out)): f.read_bytes()
                        for f in sorted(out.rglob("*")) if f.is_file()})
    assert outputs[0].keys() == outputs[1].keys()
    sim_same = all(outputs[0][k] == outputs[1][k] for k in outputs[0])

    fleet_path = tmp_path / "fleet.json"
    save_fleet([VehicleSpec(id=0, edge_sequence=(0, 2), start_step=0,
                            waiting_budget_steps=4),
                VehicleSpec(id=1, edge_sequence=(0, 2), start_step=1,
                            waiting_budget_steps=4)], fleet_path)
    reports = []
    for run in ("a", "b"):
        out = tmp_path / f"solve_{run}.json"
        code = cli_main(["solve-static", "--network", str(net_path),
                         "--fleet", str(fleet_path), "--out", str(out),
                         "--verify"])
        assert code == 0
        reports.append(out.read_bytes())
    solve_same = reports[0] == reports[1]
    assert _line("byte-identical reruns", sim_same and solve_same,
                 f"{len(outputs[0])} simulation files and the solve report "
                 f"match exactly")
