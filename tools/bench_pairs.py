"""Compare two checkouts on the benchmark, in alternating pairs.

Usage (from the root of a checkout of the change):

    git worktree add ../parent <parent>
    python3 tools/bench_pairs.py --parent ../parent --change . --pr 6 \
        --pairs country-mc=10,corridor-mc=3,exact-plan=3 --seed 601

``<parent>`` is the commit the change starts from, not ``HEAD~1`` when
the change has several commits; on a branch of its own it is
``$(git merge-base HEAD main)``.

Each pair runs ``perfbench/run.py`` once in each checkout on the same
seed, for BENCHMARK.json's ``run_seconds``, one after the other; the
order flips from one pair to the next, so a drift of the machine's speed
hits both sides alike. Pair ``i`` uses seed ``--seed + i``.
``BENCH_<pr>.json`` gets, per workload and end-to-end metric, the median
and quartiles of each side, the number of pairs the change won and three
verdicts: ``gain_shown``, when the change won at least 0.9 of the pairs
and its median beats the parent's by more than the parent's q3 - q1;
``beyond_bound``, when the change's median is worse than the parent's
by more than the metric's bound in BENCHMARK.json (a share of the
parent's median); and ``unresolved``, when either side's q3 - q1 is
wider than that bound, so the runs cannot tell a regression within the
bound from noise, unless every change run beats every parent run.
Per workload and side it gets the operations
attempted and failed and whether every run checked correct. Per side it
gets the commit and ``git status --porcelain --untracked-files=no`` at
the start; both are read again before every run, and a side whose
commit or tracked files have changed stops the comparison with a
``CHANGED`` line on stderr and exit status 1, since its later runs would
measure code the file does not name. With ``--setup-runs N``, after
the pairs, each workload's set-up is timed alone, ``perfbench/run.py
--setup-only`` on seed ``--seed``, N times per side with the sides
alternating; ``setup_only`` gets each side's runs, median and quartiles
per workload, as evidence beside ``setup_s``, and no verdict. The file is
rewritten after every pair, so an interrupted comparison keeps the pairs
it finished. As each pair finishes, stderr gets its ``ops_per_s``,
``decide_ms_p50``, ``decide_ms_p90``, ``setup_s`` and ``peak_rss_mb``
on both sides; the verdicts
are printed on stderr at the end. The exit status is 1 when any run
failed an operation or a check, else 0. A run that exits non-zero stops
the comparison: stderr gets its side, workload, seed, exit code and the
last lines of its stderr, the file keeps the pairs finished before it,
and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# the metrics of each pair's line on stderr, where both runs report them
PAIR_LINE = ("ops_per_s", "decide_ms_p50", "decide_ms_p90", "setup_s",
             "peak_rss_mb")
# stderr lines shown of a run that exits non-zero
CRASH_LINES = 20


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; its last line of output is the result.
    A run that exits non-zero raises ``CalledProcessError``, with its
    stderr."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_once(checkout: Path, workload: str, seed: int) -> float:
    """One ``--setup-only`` perfbench run: its set-up time in seconds."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout


def label(checkout: Path) -> str:
    """The checkout's commit."""
    return git(checkout, "rev-parse", "--short", "HEAD").strip()


def status(checkout: Path) -> str:
    """The checkout's tracked files that differ from its commit."""
    return git(checkout, "status", "--porcelain", "--untracked-files=no")


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and
    the ``gain_shown``, ``beyond_bound`` and ``unresolved`` verdicts.

    Under ``operations``, per side: the operations attempted and failed
    over all runs, and whether every run reported ``correct``.
    """
    out = {"operations": {side: {
        "attempted": sum(p[side]["attempted"] for p in pairs),
        "failed": sum(p[side]["failed"] for p in pairs),
        "correct": all(p[side]["correct"] for p in pairs)} for side in SIDES}}
    for metric in metrics:
        name = metric["name"]
        got = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        higher = metric["better"] == "higher"
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(got["parent"], got["change"]))
        parent, change = spread(got["parent"]), spread(got["change"])
        # how far the change's median is better than the parent's
        gap = (change["median"] - parent["median"]) * (1 if higher else -1)
        bound = metric["bound"] * abs(parent["median"])
        # every change run beats every parent run
        apart = (min(got["change"]) > max(got["parent"]) if higher
                 else max(got["change"]) < min(got["parent"]))
        out[name] = {"better": metric["better"], "bound": metric["bound"],
                     "parent": parent, "change": change,
                     "change_wins": wins, "pairs": len(pairs),
                     "gain_shown": wins >= 0.9 * len(pairs)
                     and gap > parent["q3"] - parent["q1"],
                     "beyond_bound": -gap > bound,
                     "unresolved": not apart and any(
                         s["q3"] - s["q1"] > bound for s in (parent, change))}
    return out


def failures(doc: dict) -> list[str]:
    """One line per workload and side with a failed operation or check."""
    out = []
    for workload, got in doc["workloads"].items():
        for side, ops in got["summary"]["operations"].items():
            if ops["failed"] or not ops["correct"]:
                out.append(f"{workload} {side}: {ops['failed']} of {ops['attempted']} "
                           f"operations failed, all correct: {ops['correct']}")
    return out


def verdicts(doc: dict) -> list[str]:
    """One line per workload and metric: wins, medians and the verdicts."""
    out = []
    for workload, got in doc["workloads"].items():
        for name, s in got["summary"].items():
            if name != "operations":
                out.append(f"{workload} {name}: {s['change_wins']}/{s['pairs']} won, "
                           f"median {s['parent']['median']:.4g} -> "
                           f"{s['change']['median']:.4g}, gain_shown {s['gain_shown']}, "
                           f"beyond_bound {s['beyond_bound']}, "
                           f"unresolved {s['unresolved']}")
    return out


def pair_line(workload: str, pair: dict) -> str:
    """One pair's ``PAIR_LINE`` metrics, parent and change side by side."""
    shown = [name for name in PAIR_LINE
             if all(name in pair[side]["metrics"] for side in SIDES)]
    return f"{workload} seed {pair['seed']}: " + "; ".join(
        f"{name} parent {pair['parent']['metrics'][name]['value']:.3f}, "
        f"change {pair['change']['metrics'][name]['value']:.3f}" for name in shown)


def parse_pairs(text: str) -> dict[str, int]:
    counts = {}
    for item in text.split(","):
        name, _, count = item.partition("=")
        counts[name.strip()] = int(count)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path,
                        help="checkout of the change")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--pairs", required=True,
                        help="pairs per workload, e.g. country-mc=10,exact-plan=3")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="where BENCH_<pr>.json is written")
    parser.add_argument("--setup-runs", type=int, default=0,
                        help="set-up-only runs per side and workload after the pairs")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    doc = {"pr": args.pr, "seconds": seconds, "first_seed": args.seed,
           "sides": {side: label(path) for side, path in checkouts.items()},
           "status": {side: status(path) for side, path in checkouts.items()},
           "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "system": platform.system(), "machine": platform.machine()},
           "workloads": {}}
    out = args.out_dir / f"BENCH_{args.pr}.json"

    def save() -> None:
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def measure(side: str, workload: str, seed: int, once):
        """``once(checkout)`` on one side, or None once the comparison
        stops because the side changed or its run crashed."""
        path = checkouts[side]
        if (label(path), status(path)) != (doc["sides"][side], doc["status"][side]):
            print(f"CHANGED: the {side} checkout {path} is no longer at "
                  f"{doc['sides'][side]} with the tracked files it had at the "
                  "start; its runs would measure other code", file=sys.stderr)
            return None
        try:
            return once(path)
        except subprocess.CalledProcessError as exc:
            print(f"CRASHED: {side} run of {workload}, seed {seed}, exit code "
                  f"{exc.returncode}; the last {CRASH_LINES} lines of its stderr:",
                  file=sys.stderr)
            for line in exc.stderr.splitlines()[-CRASH_LINES:]:
                print(f"  {line}", file=sys.stderr)
            return None

    counts = parse_pairs(args.pairs)
    for workload, count in counts.items():
        pairs: list[dict] = []
        for i in range(count):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = measure(side, workload, seed, lambda path: run_once(
                    path, workload, seed, seconds))
                if pair[side] is None:
                    return 1
            pairs.append(pair)
            doc["workloads"][workload] = {
                "summary": summarise(pairs, bench["end_to_end"]), "pairs": pairs}
            save()
            print(pair_line(workload, pair), file=sys.stderr)
    for workload in (counts if args.setup_runs > 0 else ()):
        runs: dict[str, list[float]] = {side: [] for side in SIDES}
        for k in range(args.setup_runs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                took = measure(side, workload, args.seed, lambda path: setup_once(
                    path, workload, args.seed))
                if took is None:
                    return 1
                runs[side].append(took)
        got = doc.setdefault("setup_only", {})[workload] = {
            side: {**spread(runs[side]), "runs": runs[side]} for side in SIDES}
        save()
        print(f"{workload} setup_only: median parent {got['parent']['median']:.4f} s, "
              f"change {got['change']['median']:.4f} s", file=sys.stderr)
    for line in verdicts(doc):
        print(line, file=sys.stderr)
    bad = failures(doc)
    for line in bad:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
