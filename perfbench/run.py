"""Benchmark of hubplatoon: closed-loop Monte Carlo and exact open-loop planning.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corridor-mc --seed 11 --seconds 35 --trace 0

The program is imported from ``src/`` of the checkout and driven
through its public API. Set-up (import, network load, delay profiles,
route table, input files) is timed in five fresh interpreters, one after
another, and its median reported. Then, in this process and with no
worker pool, whole operations run until ``--seconds`` of measured time
is spent. Every operation's outputs are checked against
``checks.py`` outside the timed region. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import layers
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROCESSES = 5
SELF_TIME_SHARE = (0.98, 1.0 + 1e-9)
MODULES = ("network", "game", "solver", "stochastic", "dense", "feedback",
           "experiments", "cli")


def import_program():
    """Import hubplatoon's modules, from the checkout's ``src/`` only."""
    package = importlib.import_module("hubplatoon")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"hubplatoon was imported from {package.__file__}")
    return SimpleNamespace(**{name: importlib.import_module(f"hubplatoon.{name}")
                              for name in MODULES})


def setup_in_fresh_process(workload_name: str, seed: int) -> float:
    """One set-up, timed inside a new interpreter.

    Import time moves by about 15% from one process to the next, so the
    set-ups are spread over processes rather than repeated in one.
    """
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- workloads ----------------------------------------------------------


class MonteCarlo:
    """Samples of ``experiments.run_sample``: one fleet, one realized day,
    all five policies, then the per-policy metrics a ``simulate`` run writes."""

    def __init__(self, network: str, vehicles: int, seed: int):
        self.network = network
        self.vehicles = vehicles
        self.seed = seed

    def setup(self, m):
        config = m.experiments.ExperimentConfig(vehicle_count=self.vehicles,
                                                samples=1, master_seed=self.seed,
                                                policies=layers.POLICIES)
        raw = m.network.load_network(ROOT / "src" / "hubplatoon" / "data"
                                     / f"{self.network}.json")
        net = m.experiments.prepare_network(raw, config)
        feasible = m.experiments.feasible_destinations(net, config)
        return SimpleNamespace(config=config, net=net, feasible=feasible)

    def operation(self, m, st, i):
        fleet, traces = m.experiments.run_sample(st.net, st.config, i, st.feasible)
        reports = {kind: m.experiments.compute_metrics([traces[kind]], fleet, st.net,
                                                        policy=kind)
                   for kind in st.config.policies}
        return fleet, traces, reports

    def check(self, st, i, result) -> list[str]:
        fleet, traces, reports = result
        config = st.config
        routes = {v.id: v.edge_sequence for v in fleet}
        budgets = {v.id: v.waiting_budget_steps for v in fleet}
        lengths = {eid: e.length_km for eid, e in st.net.edges.items()}
        problems = []
        if tuple(sorted(traces)) != tuple(sorted(layers.POLICIES)):
            problems.append(f"sample {i} ran policies {sorted(traces)}")
        for kind, trace in sorted(traces.items()):
            events = [(e.t, e.kind, e.data) for e in trace.events]
            found = checks.check_trace(kind, events, trace.utility_centi, routes,
                                       budgets, lengths, config.km_rate_centi,
                                       config.step_cost_centi)
            total = reports[kind].per_sample[0].total_utility_centi
            if not found and total != sum(trace.utility_centi.values()):
                found.append(f"{kind}: metrics total {total} differs from the trace")
            problems += [f"sample {i} {p}" for p in found]
        return problems


class ExactPlan:
    """``hubplatoon solve-static --distribution ... --verify`` through
    ``cli.main``, on fleets and distributions written at set-up. Each
    distribution gives the fleet's two busiest edges five profiles each
    and two vehicles two start steps each: 100 worlds, under the support
    cap, so the exact expectation oracle solves every plan. A run cycles
    through the pool of plans in order."""

    # solve-static prices with the default models: 1.70 SEK per platooned
    # km and 22 SEK per waited step, in centi-SEK
    km_rate_centi = 170
    step_cost_centi = 2200
    vehicles = 30
    uncertain_edges = 2
    uncertain_starts = 2
    fleets = 64
    support_cap = 4096
    checked_vehicles = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, m):
        config = m.experiments.ExperimentConfig(vehicle_count=self.vehicles)
        raw = m.network.load_network(ROOT / "src" / "hubplatoon" / "data" / "synthetic10.json")
        net = m.experiments.prepare_network(raw, config)
        feasible = m.experiments.feasible_destinations(net, config)
        OUT.mkdir(exist_ok=True)
        inputs = OUT / "exact-plan"
        inputs.mkdir(exist_ok=True)
        net_path = inputs / "network.json"
        m.network.save_network(net, net_path)
        plans = []
        for i in range(self.fleets):
            rng = random.Random(f"exact-plan:{self.seed}:{i}")
            fleet = m.experiments.sample_fleet(net, config, rng, feasible)
            fleet_doc = [{"id": v.id, "edge_sequence": list(v.edge_sequence),
                          "start_step": v.start_step,
                          "waiting_budget_steps": v.waiting_budget_steps}
                         for v in fleet]
            use: dict[int, int] = {}
            for v in fleet:
                for eid in v.edge_sequence:
                    use[eid] = use.get(eid, 0) + 1
            busiest = sorted(use, key=lambda e: (-use[e], e))[:self.uncertain_edges]
            # every other profile: flat, then peaks of 2, 4, 6 and 8 steps
            dist_doc = {
                "edges": [{"edge": eid, "profiles": [
                    {"id": pid, "p_num": 1, "p_den": 5}
                    for pid in net.edges[eid].delay_profile_ids[::2]]}
                    for eid in sorted(busiest)],
                "starts": [{"vehicle": v.id, "steps": [
                    {"t": v.start_step, "p_num": 3, "p_den": 4},
                    {"t": v.start_step + 1, "p_num": 1, "p_den": 4}]}
                    for v in sorted(rng.sample(fleet, self.uncertain_starts),
                                    key=lambda v: v.id)]}
            paths = [inputs / f"{kind}{i:03d}.json" for kind in ("fleet", "dist", "plan")]
            for path, doc in zip(paths, (fleet_doc, dist_doc)):
                path.write_text(json.dumps(doc), encoding="utf-8")
            plans.append(SimpleNamespace(fleet=paths[0], dist=paths[1], out=paths[2],
                                         fleet_doc=fleet_doc, dist_doc=dist_doc,
                                         rng=rng))
        return SimpleNamespace(net_path=net_path, plans=plans, net_doc=None, seen={})

    def operation(self, m, st, i):
        plan = st.plans[i % len(st.plans)]
        argv = ["solve-static", "--network", str(st.net_path), "--fleet", str(plan.fleet),
                "--distribution", str(plan.dist), "--verify",
                "--support-cap", str(self.support_cap), "--out", str(plan.out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = m.cli.main(argv)
        return code, err.getvalue()

    def check(self, st, i, result) -> list[str]:
        code, err = result
        plan = st.plans[i % len(st.plans)]
        if code != 0:
            return [f"plan {i} exited {code}: {err.strip()}"]
        if "expected (exact) solve" not in err:
            return [f"plan {i} did not use the exact oracle: {err.strip()}"]
        text = plan.out.read_text(encoding="utf-8")
        if i >= len(st.plans):   # a second round repeats the first byte for byte
            same = st.seen[i % len(st.plans)] == text
            return [] if same else [f"plan {i} differs from its first run"]
        st.seen[i] = text
        if st.net_doc is None:
            st.net_doc = json.loads(st.net_path.read_text(encoding="utf-8"))
        ref = checks.PlanReference(st.net_doc, plan.fleet_doc, plan.dist_doc,
                                   self.km_rate_centi, self.step_cost_centi)
        chosen = plan.rng.sample(sorted(ref.routes), self.checked_vehicles)
        return [f"plan {i}: {p}" for p in checks.check_plan(json.loads(text), ref, chosen)]


WORKLOADS = {
    "corridor-mc": (11, lambda seed: MonteCarlo("synthetic10", 100, seed)),
    "country-mc": (7, lambda seed: MonteCarlo("sweden", 30, seed)),
    "exact-plan": (3, ExactPlan),
}


# --- one run ------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name][1](seed)
    setups = [setup_in_fresh_process(workload_name, seed) for _ in range(SETUP_PROCESSES)]
    m = import_program()
    st = workload.setup(m)

    decide: dict[str, list[float]] = {}
    tracer = None
    unwrapped: list[str] = []
    if trace:
        tracer = Tracer()
        unwrapped = layers.install(m, tracer)
        for name in unwrapped:
            print(f"perfbench: {name} is gone; its spans are not recorded", file=sys.stderr)
        st = workload.setup(m)
        setup_bucket = tracer.reset()
    elif isinstance(workload, MonteCarlo):
        layers.install_decide_timers(m, decide)

    durations, self_shares, problems = [], [], []
    failed = 0
    i = 0
    while i == 0 or sum(durations) + statistics.fmean(durations) <= seconds:
        roots_before = tracer.bucket["root_s"] if tracer else 0.0
        start = perf_counter()
        try:
            result = workload.operation(m, st, i)
        except Exception:   # the run goes on; the operation counts as failed
            spent = perf_counter() - start
            found = [f"operation {i} raised:\n{traceback.format_exc()}"]
        else:
            spent = perf_counter() - start
            found = workload.check(st, i, result)
            del result
        durations.append(spent)
        if tracer:
            # self times of the spans under an operation sum to the time its
            # top-level spans cover; all but a sliver of glue must be covered
            share = (tracer.bucket["root_s"] - roots_before) / spent
            self_shares.append(share)
            if not SELF_TIME_SHARE[0] <= share <= SELF_TIME_SHARE[1]:
                found = found + [f"operation {i}: span self times cover {share:.4f} "
                                 f"of its wall time"]
        if found:
            failed += 1
            problems += found
        i += 1

    attempted = len(durations)
    measured = sum(durations)
    if trace:
        op_bucket = tracer.bucket
        values = layers.layer_values(setup_bucket, op_bucket, attempted)
        values["trace.ops_per_s"] = (attempted - failed) / measured
        values["trace.self_time_share"] = statistics.median(self_shares)
        values["trace.spans_per_op"] = sum(op_bucket["calls"].values()) / attempted
        units = layers.PER_LAYER_UNITS
        spans = [{"name": n, "start": s, "end": e, "parent": p}
                 for n, s, e, p in tracer.records]
    else:
        if isinstance(workload, MonteCarlo):
            calls = decide.get("drhs", []) + decide.get("srhs", [])
        else:
            calls = durations
        calls = calls or [0.0]   # every sample failed before its first decision
        values = {
            "ops_per_s": (attempted - failed) / measured,
            "decide_ms_p50": 1000 * statistics.median(calls),
            "decide_ms_p90": 1000 * percentile(calls, 0.9),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"ops_per_s": "1/s", "decide_ms_p50": "ms", "decide_ms_p90": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        spans = []
    detail = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": trace, "durations_s": durations, "setups_s": setups,
              "decide_ms": {kind: {"calls": len(v), "p50": 1000 * statistics.median(v),
                                   "p90": 1000 * percentile(v, 0.9)}
                            for kind, v in decide.items() if v},
              "unwrapped": unwrapped, "problems": problems, "spans": spans}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail), encoding="utf-8")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measured time to spend on whole operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting the per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hubplatoon" / "__init__.py").is_file():
        print(f"perfbench: no hubplatoon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    seed = WORKLOADS[args.workload][0] if args.seed is None else args.seed
    if args.setup_only:
        import numpy  # noqa: F401  a dependency, loaded before set-up is timed
        start = perf_counter()
        WORKLOADS[args.workload][1](seed).setup(import_program())
        print(perf_counter() - start)
        return 0
    result = run(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
