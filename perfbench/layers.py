"""Which hubplatoon calls are wrapped, and the per-layer metrics built from them.

``install`` puts a span around each public function or method listed
below. ``PER_OP`` and ``PER_SETUP`` say how each per-layer metric is read
off the span totals: ``self`` is the self time of the named spans,
``total`` their whole duration, ``calls`` how often they ran and
``count`` a counter bumped at a span boundary. Per-operation metrics are
averages over the run's operations (a Monte Carlo sample or one plan);
set-up metrics are read from one traced set-up.
"""

from __future__ import annotations

from time import perf_counter

from tracing import Tracer, package_modules, rebind_function

POLICIES = ("sp", "ip", "ktt", "drhs", "srhs")

# (metric, unit, how, span or counter names)
PER_OP = [
    ("feedback.conditioning_s", "s/op", "total", ["feedback.conditioning"]),
    ("feedback.conditioning_calls", "count/op", "calls", ["feedback.conditioning"]),
    ("feedback.decisions", "count/op", "calls", ["feedback.drhs", "feedback.srhs"]),
    ("feedback.views_s", "s/op", "total", ["feedback.views"]),
    ("feedback.drhs_self_s", "s/op", "self", ["feedback.drhs"]),
    ("feedback.srhs_self_s", "s/op", "self", ["feedback.srhs"]),
    ("feedback.srhs_exact", "count/op", "count", ["feedback.srhs_exact"]),
    ("feedback.srhs_sampled", "count/op", "count", ["feedback.srhs_sampled"]),
    ("feedback.srhs_worlds", "count/op", "count", ["feedback.srhs_worlds"]),
    ("feedback.anchor_s", "s/op", "total", ["feedback.anchor"]),
    ("feedback.clairvoyant_self_s", "s/op", "self", ["feedback.clairvoyant"]),
    ("game.utility_calls", "count/op", "calls", ["game.utility"]),
    ("game.utility_s", "s/op", "total", ["game.utility"]),
    ("feedback.step_world_s", "s/op", "total", ["feedback.step_world"]),
] + [
    (f"feedback.closed_loop_{kind}_s", "s/op", "total", [f"feedback.closed_loop_{kind}"])
    for kind in POLICIES
] + [
    ("solver.nash_seek_self_s", "s/op", "self", ["solver.nash_seek"]),
    ("solver.nash_seek_calls", "count/op", "calls", ["solver.nash_seek"]),
    ("solver.rounds", "count/op", "count", ["solver.rounds"]),
    ("solver.evaluations", "count/op", "count", ["solver.evaluations"]),
    ("solver.verify_s", "s/op", "total", ["solver.verify"]),
    ("dense.values_s", "s/op", "self", ["dense.values"]),
    ("dense.values_calls", "count/op", "calls", ["dense.values"]),
    ("dense.cells_gathered", "count/op", "count", ["dense.cells_gathered"]),
    ("dense.commit_s", "s/op", "self", ["dense.commit"]),
    ("dense.table_build_s", "s/op", "self", ["dense.table_build"]),
    ("dense.tables", "count/op", "count", ["dense.tables"]),
    ("dense.delay_row_s", "s/op", "self", ["dense.delay_row"]),
    ("dense.fallbacks", "count/op", "count", ["dense.fallbacks"]),
    ("stochastic.oracle_s", "s/op", "self", ["stochastic.oracle"]),
    ("stochastic.worlds", "count/op", "count", ["stochastic.worlds"]),
    ("stochastic.sample_s", "s/op", "self", ["stochastic.sample"]),
    ("experiments.fleet_s", "s/op", "total", ["experiments.fleet"]),
    ("experiments.metrics_s", "s/op", "total", ["experiments.metrics"]),
    ("experiments.sample_self_s", "s/op", "self", ["experiments.run_sample"]),
    ("cli.solve_static_self_s", "s/op", "self", ["cli.main", "cli.solve_static"]),
    ("cli.inputs_s", "s/op", "total", ["network.load", "cli.inputs"]),
]

PER_SETUP = [
    ("network.load_s", "s/setup", "total", ["network.load"]),
    ("network.paths_s", "s/setup", "total", ["network.paths"]),
    ("experiments.prepare_s", "s/setup", "total", ["experiments.prepare"]),
]

# read off the run itself rather than the span totals
RUN_METRICS = [
    ("trace.ops_per_s", "1/s"),
    ("trace.self_time_share", "ratio"),
    ("trace.spans_per_op", "count/op"),
]

PER_LAYER_UNITS = {name: unit for name, unit, _how, _src in PER_OP + PER_SETUP}
PER_LAYER_UNITS.update(RUN_METRICS)


def read(bucket: dict, how: str, sources) -> float:
    table = {"self": bucket["self_s"], "total": bucket["total_s"],
             "calls": bucket["calls"], "count": bucket["counts"]}[how]
    return float(sum(table.get(name, 0) for name in sources))


def layer_values(setup_bucket: dict, op_bucket: dict, ops: int) -> dict[str, float]:
    out = {name: read(setup_bucket, how, src) for name, _u, how, src in PER_SETUP}
    out.update({name: read(op_bucket, how, src) / ops
                for name, _u, how, src in PER_OP})
    return out


def install_decide_timers(m, sink: dict) -> None:
    """Time each drhs_decide and srhs_decide call; nothing else is touched."""
    for kind in ("drhs", "srhs"):
        original = getattr(m.feedback, f"{kind}_decide")
        calls = sink.setdefault(kind, [])

        def timed(*args, _fn=original, _calls=calls, **kwargs):
            start = perf_counter()
            result = _fn(*args, **kwargs)
            _calls.append(perf_counter() - start)
            return result

        rebind_function(package_modules(), m.feedback, f"{kind}_decide", timed)


def install(m, tracer: Tracer) -> list[str]:
    """Wrap the public calls of every layer. ``m`` holds the imported modules.

    A call the program no longer has is skipped, so its metrics read 0;
    the skipped names are returned.
    """
    modules = package_modules()
    table_limit = getattr(m.dense, "TableLimitError", ())
    missing = []

    def fallback(exc, parent):
        # count a table refusal once, where it leaves the dense layer
        if isinstance(exc, table_limit) and (
                parent is None or not parent[0].startswith("dense.")):
            tracer.count("dense.fallbacks")

    def fn(owner, attr, name, after=None, on_error=None):
        if not hasattr(owner, attr):
            missing.append(f"{owner.__name__}.{attr}")
            return
        wrapped = tracer.wrap(getattr(owner, attr), name, after, on_error)
        rebind_function(modules, owner, attr, wrapped)

    def meth(cls, attr, name, after=None, on_error=None):
        if not hasattr(cls, attr):
            missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, after, on_error))

    def solve_counts(report, *_a, **_k):
        tracer.count("solver.rounds", report.rounds)
        tracer.count("solver.evaluations", report.evaluations)

    def support_counts(kind):
        def after(worlds, *_a, **_k):
            if tracer.parent_name() == "feedback.srhs":
                tracer.count(f"feedback.srhs_{kind}")
                tracer.count("feedback.srhs_worlds", len(worlds))
        return after

    def cells(_values, table, _vid, actions):
        tracer.count("dense.cells_gathered", table.w * len(actions) * len(actions[0]))

    def oracle_worlds(_none, oracle, *_a, **_k):
        tracer.count("stochastic.worlds", len(oracle.weighted))

    def closed_loop_name(*args, **kwargs):
        policy = kwargs["policy"] if "policy" in kwargs else args[3]
        return f"feedback.closed_loop_{policy.kind}"

    fn(m.network, "load_network", "network.load")
    fn(m.network, "shortest_path", "network.paths")
    fn(m.game, "load_fleet", "cli.inputs")
    fn(m.stochastic, "load_distribution", "cli.inputs")
    fn(m.experiments, "prepare_network", "experiments.prepare")
    fn(m.experiments, "sample_fleet", "experiments.fleet")
    fn(m.experiments, "compute_metrics", "experiments.metrics")
    fn(m.experiments, "run_sample", "experiments.run_sample")
    fn(m.feedback, "run_closed_loop", closed_loop_name)
    fn(m.feedback, "open_loop_anchor", "feedback.anchor")
    fn(m.feedback, "clairvoyant_plan", "feedback.clairvoyant")
    fn(m.feedback, "drhs_decide", "feedback.drhs")
    fn(m.feedback, "srhs_decide", "feedback.srhs")
    fn(m.feedback, "conditional_distribution", "feedback.conditioning")
    fn(m.feedback, "build_views", "feedback.views")
    fn(m.feedback, "step_world", "feedback.step_world")
    fn(m.solver, "nash_seek", "solver.nash_seek", after=solve_counts)
    fn(m.solver, "verify_ne", "solver.verify")
    fn(m.stochastic, "enumerate_support", "stochastic.sample",
       after=support_counts("exact"))
    fn(m.stochastic, "sample_scenarios", "stochastic.sample",
       after=support_counts("sampled"))
    fn(m.stochastic, "sample_scenario", "stochastic.sample")
    for cls in (m.stochastic.ExpectedUtilityOracle, m.stochastic.SampledUtilityOracle):
        meth(cls, "__init__", "stochastic.oracle", after=oracle_worlds)
        meth(cls, "action_values", "stochastic.oracle")
    meth(m.game.CoordinationGame, "utility", "game.utility")
    fn(m.dense, "dense_delay_row", "dense.delay_row", on_error=fallback)
    fn(m.dense, "rounded_mean_rows", "dense.delay_row", on_error=fallback)
    fn(m.dense, "scaled_weights", "dense.table_build", on_error=fallback)
    fn(m.dense, "static_table", "dense.table_build", on_error=fallback)
    table = m.dense.EntryTable
    meth(table, "__init__", "dense.table_build",
         after=lambda *_a, **_k: tracer.count("dense.tables"), on_error=fallback)
    for attr in ("set_travel", "finish_travel", "add_track"):
        meth(table, attr, "dense.table_build", on_error=fallback)
    meth(table, "scaled_values", "dense.values", after=cells, on_error=fallback)
    meth(table, "commit", "dense.commit", on_error=fallback)
    # the whole entry point, argument parsing too, so a plan's spans cover
    # all of it but the benchmark's stderr capture
    fn(m.cli, "main", "cli.main")
    fn(m.cli, "cmd_solve_static", "cli.solve_static")
    return missing
