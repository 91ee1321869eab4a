"""The benchmark's output checks pass on real outputs and fail on corrupted ones."""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from hubplatoon import cli  # noqa: E402
from hubplatoon.experiments import (ExperimentConfig, feasible_destinations,  # noqa: E402
                                    prepare_network, run_sample, sample_fleet)
from hubplatoon.network import load_network, save_network  # noqa: E402

DATA = HERE.parent / "src" / "hubplatoon" / "data" / "synthetic10.json"


@pytest.fixture(scope="module")
def sample():
    config = ExperimentConfig(vehicle_count=24, samples=1, master_seed=5,
                              policies=("sp", "ip", "drhs"))
    net = prepare_network(load_network(DATA), config)
    fleet, traces = run_sample(net, config, 0, feasible_destinations(net, config))
    return config, net, fleet, traces


def trace_check(kind, events, utility, sample):
    config, net, fleet, _traces = sample
    return checks.check_trace(
        kind, events, utility, {v.id: v.edge_sequence for v in fleet},
        {v.id: v.waiting_budget_steps for v in fleet},
        {eid: e.length_km for eid, e in net.edges.items()},
        config.km_rate_centi, config.step_cost_centi)


def events_of(trace):
    return [(e.t, e.kind, dict(e.data)) for e in trace.events]


def add_waits(events, utility, vid, extra, step_cost):
    """``extra`` more wait events for ``vid``, paid for in its utility, so
    that only the budget and no-wait rules can object."""
    t = next(t for t, what, data in events if what == "depart" and data["vehicle"] == vid)
    events = [(t, "wait", {"vehicle": vid, "node": 0})] * extra + events
    utility = dict(utility)
    utility[vid] -= step_cost * extra
    return events, utility


def test_real_traces_pass(sample):
    traces = sample[3]
    assert any(e.kind == "platoon" for e in traces["drhs"].events)
    assert any(e.kind == "wait" for e in traces["drhs"].events)
    for kind, trace in traces.items():
        assert trace_check(kind, events_of(trace), trace.utility_centi, sample) == []


def test_utility_off_by_one_centi_fails(sample):
    trace = sample[3]["drhs"]
    vid = min(trace.utility_centi)
    utility = dict(trace.utility_centi)
    utility[vid] += 1
    problems = trace_check("drhs", events_of(trace), utility, sample)
    assert problems == [f"drhs: vehicle {vid} utility {utility[vid]}, "
                        f"recomputed {utility[vid] - 1}"]


def test_vehicle_over_budget_fails(sample):
    config, _net, fleet, traces = sample
    trace = traces["drhs"]
    vehicle = fleet[0]
    extra = vehicle.waiting_budget_steps - trace.waited_steps[vehicle.id] + 1
    events, utility = add_waits(events_of(trace), trace.utility_centi, vehicle.id,
                                extra, config.step_cost_centi)
    problems = trace_check("drhs", events, utility, sample)
    assert problems == [f"drhs: vehicle {vehicle.id} waited "
                        f"{vehicle.waiting_budget_steps + 1} steps, "
                        f"budget {vehicle.waiting_budget_steps}"]


def test_waiting_sp_fails(sample):
    config, _net, fleet, traces = sample
    trace = traces["sp"]
    events, utility = add_waits(events_of(trace), trace.utility_centi, fleet[0].id,
                                1, config.step_cost_centi)
    assert trace_check("sp", events, utility, sample) == [
        f"sp: vehicle {fleet[0].id} waited 1 steps"]


def test_decide_in_open_loop_policy_fails(sample):
    trace = sample[3]["ip"]
    events = events_of(trace) + [(0, "decide", {"eligible": [], "waits": {}})]
    assert trace_check("ip", events, trace.utility_centi, sample) == [
        "ip: open-loop policy has a decide event at t=0"]


def test_platoon_event_without_departure_group_fails(sample):
    trace = sample[3]["drhs"]
    events = events_of(trace)
    k = next(k for k, (_t, what, _d) in enumerate(events) if what == "platoon")
    t, what, data = events[k]
    events[k] = (t + 1, what, data)
    problems = trace_check("drhs", events, trace.utility_centi, sample)
    assert len(problems) == 2 and "matches no departure group" in problems[0] \
        and "has no platoon event" in problems[1]


@pytest.fixture(scope="module")
def plan(tmp_path_factory):
    """A solved exact open-loop plan and the reference built from its files."""
    tmp = tmp_path_factory.mktemp("plan")
    config = ExperimentConfig(vehicle_count=8)
    net = prepare_network(load_network(DATA), config)
    fleet = sample_fleet(net, config, random.Random(4), feasible_destinations(net, config))
    net_path, fleet_path, dist_path, out = (tmp / n for n in
                                            ("net.json", "fleet.json", "dist.json", "plan.json"))
    save_network(net, net_path)
    fleet_doc = [{"id": v.id, "edge_sequence": list(v.edge_sequence),
                  "start_step": v.start_step, "waiting_budget_steps": v.waiting_budget_steps}
                 for v in fleet]
    eid = fleet[0].edge_sequence[0]
    pids = net.edges[eid].delay_profile_ids
    dist_doc = {"edges": [{"edge": eid, "profiles": [{"id": p, "p_num": 1, "p_den": len(pids)}
                                                     for p in pids]}],
                "starts": [{"vehicle": fleet[1].id, "steps": [
                    {"t": fleet[1].start_step, "p_num": 1, "p_den": 3},
                    {"t": fleet[1].start_step + 1, "p_num": 2, "p_den": 3}]}]}
    fleet_path.write_text(json.dumps(fleet_doc))
    dist_path.write_text(json.dumps(dist_doc))
    assert cli.main(["solve-static", "--network", str(net_path), "--fleet", str(fleet_path),
                     "--distribution", str(dist_path), "--verify",
                     "--out", str(out)]) == 0
    ref = checks.PlanReference(json.loads(net_path.read_text()), fleet_doc, dist_doc,
                               config.km_rate_centi, config.step_cost_centi)
    return json.loads(out.read_text()), ref


def test_solved_plan_passes(plan):
    report, ref = plan
    assert len(ref.worlds) == 20
    assert checks.check_plan(report, ref, sorted(ref.routes)) == []


def test_vehicle_off_its_best_response_fails(plan):
    report, ref = plan
    profile = {int(v): tuple(w) for v, w in report["profile"].items()}
    for vid in sorted(ref.routes):
        values = ref.action_values(vid, profile)
        worse = [w for w, v in values.items() if v < values[profile[vid]]]
        if worse:
            break
    moved = dict(report, profile=dict(report["profile"], **{str(vid): list(worse[0])}))
    problems = checks.check_plan(moved, ref, [vid])
    assert len(problems) == 1 and problems[0].startswith(f"vehicle {vid} gains by moving")


def test_plan_outside_action_space_or_unverified_fails(plan):
    report, ref = plan
    vid = min(ref.routes)
    over = [ref.budgets[vid] + 1] + [0] * (len(ref.routes[vid]) - 1)
    moved = dict(report, verified=False,
                 profile=dict(report["profile"], **{str(vid): over}))
    assert checks.check_plan(moved, ref, [vid]) == [
        "report does not say verified",
        f"vehicle {vid} action {over} is outside its space"]
