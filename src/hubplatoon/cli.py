"""Command line front end.

Subcommands: validate (network checks), solve-static (open-loop Nash
search), simulate (closed-loop Monte Carlo), sweep (parameter sweeps).
Exit codes: 0 success, 1 domain or config error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import InputError, ModelInconsistencyError, NonConvergenceError
from .experiments import (SUMMARY_FIELDS, SWEEP_AXES, ExperimentConfig,
                          ExperimentResult, compute_metrics, config_from_dict,
                          config_to_dict, load_config, prepare_network,
                          run_experiment, run_instance, sweep, write_csv,
                          write_followers_csv, write_metrics_json,
                          write_platoon_hist_csv, write_raw_csv)
from .feedback import POLICY_KINDS
from .game import (CoordinationGame, RewardModel, WaitingCostModel,
                   deterministic_scenario, load_fleet, scenario_from_dict)
from .network import load_json, load_network, validate_network
from .solver import (DEFAULT_ROUND_CAP, nash_seek, solve_deterministic,
                     spaces_for_fleet)
from .stochastic import (DEFAULT_DRAWS, DEFAULT_SUPPORT_CAP, load_distribution,
                         stochastic_oracle)


class _Parser(argparse.ArgumentParser):
    # usage mistakes are config errors, not I/O errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hubplatoon",
                     description="Coordination games for hub-to-hub truck platooning.")
    parser.add_argument("--version", action="version",
                        version=f"hubplatoon {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("validate",
                       help="check a network file for structural problems")
    p.add_argument("--network", required=True,
                   help="path to the network JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve-static",
                       help="find a pure Nash equilibrium of the one-shot game")
    p.add_argument("--network", required=True,
                   help="path to the network JSON file")
    p.add_argument("--fleet", required=True,
                   help="path to the fleet JSON file")
    p.add_argument("--scenario", default=None,
                   help="scenario JSON fixing delay profiles and starts "
                        "(default: free flow, nominal starts)")
    p.add_argument("--distribution", default=None,
                   help="scenario distribution JSON; solves the expected-utility "
                        "game instead of a deterministic one")
    p.add_argument("--out", default=None,
                   help="write the solve report JSON here (default: stdout)")
    p.add_argument("--verify", action="store_true",
                   help="exhaustively confirm the result is a Nash equilibrium")
    p.add_argument("--track-potential", action="store_true",
                   help="record the potential after every accepted change")
    p.add_argument("--round-cap", type=int, default=DEFAULT_ROUND_CAP,
                   help="abort after this many best-response passes")
    p.add_argument("--support-cap", type=int, default=DEFAULT_SUPPORT_CAP,
                   help="largest scenario support enumerated exactly")
    p.add_argument("--draws", type=int, default=DEFAULT_DRAWS,
                   help="sample size when the support exceeds the cap")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled-oracle draws")
    p.set_defaults(func=cmd_solve_static)

    p = sub.add_parser("simulate",
                       help="closed-loop simulation (Monte Carlo or one instance)")
    p.add_argument("--network", required=True,
                   help="path to the network JSON file")
    p.add_argument("--config", default=None,
                   help="experiment config JSON (defaults apply when omitted)")
    p.add_argument("--out", required=True,
                   help="output directory for metrics and CSV files")
    p.add_argument("--policies", default=None,
                   help="comma-separated policies to run "
                        f"(subset of {','.join(POLICY_KINDS)})")
    p.add_argument("--samples", type=int, default=None,
                   help="override the number of Monte Carlo samples")
    p.add_argument("--vehicles", type=int, default=None,
                   help="override the fleet size drawn per sample")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for samples (1 = sequential)")
    p.add_argument("--traces", action="store_true",
                   help="also write per-sample event traces (JSON lines)")
    p.add_argument("--fleet", default=None,
                   help="run this exact fleet instead of sampling one")
    p.add_argument("--truth", default=None,
                   help="ground-truth scenario JSON for --fleet mode "
                        "(default: drawn from the uniform distribution)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep",
                       help="rerun the experiment along one parameter axis")
    p.add_argument("--network", required=True,
                   help="path to the network JSON file")
    p.add_argument("--config", default=None,
                   help="experiment config JSON (defaults apply when omitted)")
    p.add_argument("--out", required=True,
                   help="output directory for per-value results and sweep.csv")
    p.add_argument("--axis", default=None, choices=sorted(SWEEP_AXES),
                   help="swept parameter")
    p.add_argument("--values", default=None,
                   help="comma-separated axis values (c_b values are SEK/km)")
    p.add_argument("--cb-values", default=None,
                   help="shorthand for --axis c_b --values ... (SEK/km)")
    p.add_argument("--policies", default=None,
                   help="comma-separated policies to run "
                        f"(subset of {','.join(POLICY_KINDS)})")
    p.add_argument("--samples", type=int, default=None,
                   help="override the number of Monte Carlo samples")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for samples (1 = sequential)")
    p.set_defaults(func=cmd_sweep)
    return parser


def cmd_validate(args) -> int:
    net = load_network(args.network)
    issues = validate_network(net)
    for issue in issues:
        print(issue, file=sys.stderr)
    if issues:
        print(f"network has {len(issues)} problem(s)")
        return 1
    print(f"network OK: {len(net.hubs)} hubs, {len(net.edges)} edges, "
          f"{len(net.delay_profiles)} delay profiles")
    return 0


def cmd_solve_static(args) -> int:
    net = load_network(args.network)
    _fail_on_issues(net)
    fleet = load_fleet(args.fleet)
    game = CoordinationGame(net, fleet, RewardModel(), WaitingCostModel())
    if args.distribution is not None and args.scenario is not None:
        raise InputError("--scenario and --distribution are mutually exclusive")
    if args.distribution is not None:
        dist = load_distribution(args.distribution)
        oracle = stochastic_oracle(game, dist, cap=args.support_cap,
                                   draws=args.draws, seed=args.seed)
        report = nash_seek(oracle, spaces_for_fleet(fleet),
                           round_cap=args.round_cap,
                           track_potential=args.track_potential,
                           verify=args.verify)
        mode = "expected (sampled)" if oracle.approximate else "expected (exact)"
    else:
        if args.scenario is not None:
            scenario = load_json(args.scenario, scenario_from_dict)
        else:
            scenario = deterministic_scenario(net, fleet)
        report = solve_deterministic(game, scenario, round_cap=args.round_cap,
                                     track_potential=args.track_potential,
                                     verify=args.verify)
        mode = "deterministic"
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"{mode} solve: {report.rounds} rounds, "
          f"{report.evaluations} action evaluations"
          + (", verified equilibrium" if report.verified else ""),
          file=sys.stderr)
    return 0


def _fail_on_issues(net) -> None:
    issues = validate_network(net)
    if issues:
        raise InputError("network is invalid: " + "; ".join(issues))


def _build_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    doc = config_to_dict(config)
    if getattr(args, "policies", None):
        doc["policies"] = [p.strip() for p in args.policies.split(",") if p.strip()]
    for name, key in (("samples", "samples"), ("vehicles", "vehicle_count"),
                      ("seed", "master_seed")):
        if getattr(args, name, None) is not None:
            doc[key] = getattr(args, name)
    return config_from_dict(doc)


def _write_result(result: ExperimentResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_metrics_json(result, os.path.join(out_dir, "metrics.json"))
    write_raw_csv(result, os.path.join(out_dir, "raw.csv"))
    write_followers_csv(result, os.path.join(out_dir, "followers.csv"))
    write_platoon_hist_csv(result, os.path.join(out_dir, "platoon_hist.csv"))


def cmd_simulate(args) -> int:
    net = load_network(args.network)
    _fail_on_issues(net)
    config = _build_config(args)
    if args.truth is not None and args.fleet is None:
        raise InputError("--truth only makes sense together with --fleet")
    if args.fleet is not None:
        return _simulate_instance(net, config, args)
    result = run_experiment(net, config, jobs=args.jobs,
                            keep_traces=args.traces)
    _write_result(result, args.out)
    if args.traces and result.traces is not None:
        trace_dir = os.path.join(args.out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        for kind, traces in result.traces.items():
            for sample, trace in zip(result.sample_ids, traces):
                trace.write_jsonl(os.path.join(trace_dir,
                                               f"sample{sample:04d}_{kind}.jsonl"))
    _print_summary(result.reports, config.policies, "mean utility")
    if result.failures:
        print(f"{len(result.failures)} sample(s) failed and were excluded",
              file=sys.stderr)
    return 0


def _simulate_instance(net, config: ExperimentConfig, args) -> int:
    """One explicit fleet against one realized scenario, every policy."""
    prepared = net if net.delay_profiles else prepare_network(net, config)
    fleet = load_fleet(args.fleet)
    truth = None
    if args.truth is not None:
        truth = load_json(args.truth, scenario_from_dict)
    os.makedirs(args.out, exist_ok=True)
    traces = run_instance(prepared, config, fleet, truth=truth)
    if args.traces:
        for kind, trace in traces.items():
            trace.write_jsonl(os.path.join(args.out, f"{kind}.jsonl"))
    reports = {kind: compute_metrics([trace], fleet, prepared, policy=kind)
               for kind, trace in traces.items()}
    write_metrics_json(ExperimentResult(config=config, reports=reports),
                       os.path.join(args.out, "metrics.json"))
    _print_summary(reports, config.policies, "total utility")
    return 0


def _print_summary(reports, policies, utility_label: str) -> None:
    for kind in policies:
        report = reports[kind]
        print(f"{kind}: platooning rate {report.platooning_rate:.4f}, "
              f"mean wait {report.wait_mean_minutes:.2f} min, "
              f"{utility_label} {report.utility_mean_centi / 100:.0f} SEK")


def cmd_sweep(args) -> int:
    net = load_network(args.network)
    _fail_on_issues(net)
    config = _build_config(args)
    if args.cb_values is not None:
        if args.axis not in (None, "c_b") or args.values is not None:
            raise InputError("--cb-values replaces --axis/--values")
        axis, raw_values = "c_b", args.cb_values
    else:
        if args.axis is None or args.values is None:
            raise InputError("sweep needs --axis and --values (or --cb-values)")
        axis, raw_values = args.axis, args.values
    try:
        if axis == "c_b":  # SEK/km on the command line, centi-SEK inside
            values = [round(float(v) * 100) for v in raw_values.split(",") if v]
        else:
            values = [int(v) for v in raw_values.split(",") if v]
    except (ValueError, OverflowError) as exc:
        raise InputError(f"bad sweep values {raw_values!r}: {exc}") from exc
    results = sweep(net, config, axis, values, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for value in values:
        result = results[int(value)]
        _write_result(result, os.path.join(args.out, f"{axis}_{value}"))
        rows += [[axis, value, kind, *(getattr(report, name) for name in SUMMARY_FIELDS)]
                 for kind, report in sorted(result.reports.items())]
        print(f"{axis}={value}: done "
              f"({len(result.reports)} policies, "
              f"{len(next(iter(result.reports.values())).per_sample)} samples)")
    write_csv(os.path.join(args.out, "sweep.csv"), ["axis", "value", "policy", *SUMMARY_FIELDS],
              rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, NonConvergenceError, ModelInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
