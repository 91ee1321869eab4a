"""tools/bench_pairs.py on fabricated perfbench results; nothing is run."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def run(ops, rss, attempted=10, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def pairs():
    return [{"seed": 1, "first": "parent", "parent": run(1.0, 50.0),
             "change": run(1.5, 49.0, attempted=12)},
            {"seed": 2, "first": "change", "parent": run(1.2, 48.0),
             "change": run(1.1, 49.0, attempted=11)},
            {"seed": 3, "first": "parent", "parent": run(0.8, 50.0),
             "change": run(1.4, 52.0, attempted=13)}]


def test_pair_line_prints_throughput_and_decide_latency_of_both_sides():
    def timed(ops, p50, p90, setup, rss):
        got = run(ops, rss)
        got["metrics"].update({"decide_ms_p50": {"value": p50, "unit": "ms"},
                               "decide_ms_p90": {"value": p90, "unit": "ms"},
                               "setup_s": {"value": setup, "unit": "s"}})
        return got

    pair = {"seed": 7, "first": "change", "parent": timed(0.5, 9.47, 12.0, 0.096, 44.5),
            "change": timed(0.61, 7.125, 9.5, 0.141, 44.25)}
    assert bench_pairs.pair_line("corridor-mc", pair) == (
        "corridor-mc seed 7: ops_per_s parent 0.500, change 0.610; "
        "decide_ms_p50 parent 9.470, change 7.125; "
        "decide_ms_p90 parent 12.000, change 9.500; "
        "setup_s parent 0.096, change 0.141; "
        "peak_rss_mb parent 44.500, change 44.250")
    # a metric that a run does not report is left out of the line
    assert bench_pairs.pair_line("x", {"seed": 1, "parent": run(1.0, 50.0),
                                       "change": run(2.0, 50.0)}) == \
        "x seed 1: ops_per_s parent 1.000, change 2.000; " \
        "peak_rss_mb parent 50.000, change 50.000"


def test_parse_pairs():
    assert bench_pairs.parse_pairs("country-mc=10, exact-plan=3") == \
        {"country-mc": 10, "exact-plan": 3}


def test_summarise_counts_wins_quartiles_and_operations():
    got = bench_pairs.summarise(pairs(), METRICS)
    ops = got["ops_per_s"]
    assert ops["change_wins"] == 2 and ops["pairs"] == 3
    assert ops["parent"] == {"median": 1.0, "q1": 0.9, "q3": 1.1}
    assert ops["change"]["median"] == 1.4
    assert ops["better"] == "higher" and ops["bound"] == 0.25
    assert got["peak_rss_mb"]["change_wins"] == 1    # lower is better; a tie wins nothing
    assert got["operations"] == {
        "parent": {"attempted": 30, "failed": 0, "correct": True},
        "change": {"attempted": 36, "failed": 0, "correct": True}}


def test_gain_shown_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr():
    """Parent ops 1.0..1.9 (q1 1.225, q3 1.675, IQR 0.45); lower RSS is better."""
    def ten(change_ops, change_rss):
        return [{"seed": i, "first": "parent", "parent": run(1.0 + i / 10, 50.0),
                 "change": run(change_ops(i), change_rss)} for i in range(10)]

    shown = bench_pairs.summarise(ten(lambda i: 2.0 + i / 10, 49.0), METRICS)
    assert shown["ops_per_s"]["change_wins"] == 10
    assert shown["ops_per_s"]["gain_shown"] is True      # gap 1.0 > 0.45
    assert shown["peak_rss_mb"]["gain_shown"] is True    # 1 MB lower, IQR 0
    small = bench_pairs.summarise(ten(lambda i: 1.3 + i / 10, 50.0), METRICS)
    assert small["ops_per_s"]["change_wins"] == 10
    assert small["ops_per_s"]["gain_shown"] is False     # gap 0.3 < 0.45
    lost = bench_pairs.summarise(ten(lambda i: 2.0 + i / 10 if i else 0.5, 50.0),
                                 METRICS)
    assert lost["ops_per_s"]["change_wins"] == 9
    assert lost["ops_per_s"]["gain_shown"] is True       # 9 of 10 is enough
    assert small["peak_rss_mb"]["gain_shown"] is False   # ties win nothing


def test_beyond_bound_compares_the_median_with_the_metric_bound():
    within = bench_pairs.summarise(
        [{"seed": 1, "first": "parent", "parent": run(1.0, 50.0),
          "change": run(0.76, 54.9)}], METRICS)
    assert within["ops_per_s"]["beyond_bound"] is False    # 24% slower, bound 25%
    assert within["peak_rss_mb"]["beyond_bound"] is False  # 9.8% more, bound 10%
    beyond = bench_pairs.summarise(
        [{"seed": 1, "first": "parent", "parent": run(1.0, 50.0),
          "change": run(0.74, 55.1)}], METRICS)
    assert beyond["ops_per_s"]["beyond_bound"] is True
    assert beyond["peak_rss_mb"]["beyond_bound"] is True
    assert within["ops_per_s"]["gain_shown"] is False


def test_unresolved_when_a_side_spreads_beyond_the_bound():
    """Parent ops 0.8, 1.0, 1.2 (q1 0.9, q3 1.1): an IQR of 0.2 is within
    the bound of 0.25 x median 1.0; RSS 40, 50, 60 (IQR 10) is beyond
    0.1 x 50."""
    def three(change_ops, change_rss):
        return [{"seed": i, "first": "parent", "parent": run(0.8 + i / 5, 40.0 + 10 * i),
                 "change": run(change_ops[i], change_rss[i])} for i in range(3)]

    steady = bench_pairs.summarise(three([0.9, 1.0, 1.1], [40, 50, 60]), METRICS)
    assert steady["ops_per_s"]["unresolved"] is False
    assert steady["peak_rss_mb"]["unresolved"] is True     # the parent spreads
    # the change spreads: q1 0.85, q3 1.45, IQR 0.6
    wide = bench_pairs.summarise(three([0.7, 1.0, 1.9], [40, 50, 60]), METRICS)
    assert wide["ops_per_s"]["unresolved"] is True
    # every change run beats every parent run: resolved however wide
    apart = bench_pairs.summarise(three([1.3, 2.0, 3.0], [39, 30, 20]), METRICS)
    assert apart["ops_per_s"]["change"]["q3"] - apart["ops_per_s"]["change"]["q1"] > 0.25
    assert apart["ops_per_s"]["unresolved"] is False
    assert apart["peak_rss_mb"]["unresolved"] is False    # lower is better
    # one change run ties the worst parent run: not apart
    tied = bench_pairs.summarise(three([1.3, 2.0, 3.0], [40, 30, 20]), METRICS)
    assert tied["peak_rss_mb"]["unresolved"] is True

def doc_with(parent_run, change_run):
    pair = {"seed": 1, "first": "parent", "parent": parent_run, "change": change_run}
    return {"workloads": {"corridor-mc": {
        "summary": bench_pairs.summarise([pair], METRICS), "pairs": [pair]}}}


def test_clean_runs_have_no_failures():
    assert bench_pairs.failures(doc_with(run(1.0, 50.0), run(1.1, 50.0))) == []


def test_failed_operation_or_check_is_reported_per_side():
    failed = bench_pairs.failures(doc_with(run(1.0, 50.0),
                                           run(1.1, 50.0, failed=2)))
    assert failed == ["corridor-mc change: 2 of 10 operations failed, "
                      "all correct: True"]
    wrong = bench_pairs.failures(doc_with(run(1.0, 50.0, correct=False),
                                          run(1.1, 50.0)))
    assert wrong == ["corridor-mc parent: 0 of 10 operations failed, "
                     "all correct: False"]


def test_main_writes_the_file_then_exits_1_on_a_failed_run(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": METRICS}), encoding="utf-8")
    results = {"parent": run(1.0, 50.0), "change": run(1.1, 50.0, failed=1)}
    monkeypatch.setattr(bench_pairs, "label", lambda checkout: checkout.name)
    monkeypatch.setattr(bench_pairs, "status", lambda checkout: "")
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, seconds:
                        results["parent" if checkout.name == "p" else "change"])
    (tmp_path / "p").mkdir()
    argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path), "--pr", "t",
            "--pairs", "corridor-mc=2", "--seed", "5", "--out-dir", str(tmp_path)]
    assert bench_pairs.main(argv) == 1
    doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert doc["workloads"]["corridor-mc"]["summary"]["operations"]["change"] == \
        {"attempted": 20, "failed": 2, "correct": True}
    results["change"] = run(1.1, 50.0)
    assert bench_pairs.main(argv) == 0


def test_main_prints_both_verdicts_on_stderr(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": METRICS}), encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "label", lambda checkout: checkout.name)
    monkeypatch.setattr(bench_pairs, "status", lambda checkout: "")
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, seconds:
                        run(1.0, 50.0) if checkout.name == "p" else run(2.0, 60.0))
    (tmp_path / "p").mkdir()
    assert bench_pairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path),
                             "--pr", "t", "--pairs", "exact-plan=1", "--seed", "5",
                             "--out-dir", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "exact-plan ops_per_s: 1/1 won, median 1 -> 2, gain_shown True, " \
        "beyond_bound False, unresolved False" in err
    assert "exact-plan peak_rss_mb: 0/1 won, median 50 -> 60, gain_shown False, " \
        "beyond_bound True, unresolved False" in err


def test_a_crashed_run_is_reported_and_the_finished_pairs_kept(tmp_path, monkeypatch,
                                                              capsys):
    """The change's perfbench/run.py exits 3 on seed 6 after 25 lines of
    stderr; pair 0 (seed 5) finishes, pair 1 runs the change first."""
    result = json.dumps(run(1.0, 50.0))
    for side, crash in (("p", ""), ("c", "\nif seed == 6:\n"
                                         "    for k in range(25):\n"
                                         "        print(f'line {k}', file=sys.stderr)\n"
                                         "    sys.exit(3)")):
        script = tmp_path / side / "perfbench" / "run.py"
        script.parent.mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": METRICS}), encoding="utf-8")
        script.write_text("import sys\nseed = int(sys.argv[sys.argv.index('--seed') + 1])"
                          f"{crash}\nprint({result!r})\n", encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "label", lambda checkout: checkout.name)
    monkeypatch.setattr(bench_pairs, "status", lambda checkout: "")
    assert bench_pairs.main(["--parent", str(tmp_path / "p"), "--change",
                             str(tmp_path / "c"), "--pr", "t", "--pairs",
                             "corridor-mc=2", "--seed", "5", "--out-dir",
                             str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    at = err.index("CRASHED: change run of corridor-mc, seed 6, exit code 3; "
                   "the last 20 lines of its stderr:")
    assert err[at + 1:] == [f"  line {k}" for k in range(5, 25)]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert [p["seed"] for p in doc["workloads"]["corridor-mc"]["pairs"]] == [5]


def test_a_checkout_that_changes_mid_comparison_stops_it(tmp_path, monkeypatch, capsys):
    """The change's tracked files are edited after its first run: the
    run after that is not made, and the file names both sides' state at
    the start."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": METRICS}), encoding="utf-8")
    ran = []
    edits = {"p": "", tmp_path.name: ""}

    def run_once(checkout, workload, seed, seconds):
        ran.append((checkout.name, seed))
        if checkout.name != "p":
            edits[checkout.name] = " M src/hubplatoon/dense.py\n"
        return run(1.0, 50.0)

    monkeypatch.setattr(bench_pairs, "label", lambda checkout: checkout.name)
    monkeypatch.setattr(bench_pairs, "status", lambda checkout: edits[checkout.name])
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    (tmp_path / "p").mkdir()
    assert bench_pairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path),
                             "--pr", "t", "--pairs", "corridor-mc=3", "--seed", "5",
                             "--out-dir", str(tmp_path)]) == 1
    # pair 0 runs parent then change; pair 1 would run the change first
    assert ran == [("p", 5), (tmp_path.name, 5)]
    assert f"CHANGED: the change checkout {tmp_path} is no longer at {tmp_path.name}" \
        in capsys.readouterr().err
    doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert doc["sides"] == {"parent": "p", "change": tmp_path.name}
    assert doc["status"] == {"parent": "", "change": ""}
    assert [p["seed"] for p in doc["workloads"]["corridor-mc"]["pairs"]] == [5]


def test_a_parent_that_moves_to_another_commit_stops_it(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": METRICS}), encoding="utf-8")
    heads = iter(["abc1234", "abc1234", "def5678"])
    monkeypatch.setattr(bench_pairs, "label", lambda checkout: next(heads)
                        if checkout.name == "p" else "c")
    monkeypatch.setattr(bench_pairs, "status", lambda checkout: "")
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: run(1.0, 50.0))
    (tmp_path / "p").mkdir()
    assert bench_pairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path),
                             "--pr", "t", "--pairs", "exact-plan=3", "--seed", "5",
                             "--out-dir", str(tmp_path)]) == 1
    assert f"CHANGED: the parent checkout {tmp_path / 'p'} is no longer at abc1234" \
        in capsys.readouterr().err


def test_setup_runs_alternate_the_sides_after_the_pairs(tmp_path, monkeypatch, capsys):
    """Stub checkouts whose perfbench/run.py logs each call and, with
    --setup-only, prints the next of its side's set-up times."""
    log = tmp_path / "log"
    result = json.dumps(run(1.0, 50.0))
    for side, times in (("p", [0.5, 0.25, 0.25, 0.75]), ("c", [0.25, 0.125, 0.5, 1.0])):
        script = tmp_path / side / "perfbench" / "run.py"
        script.parent.mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": METRICS}), encoding="utf-8")
        script.write_text(
            "import sys\n"
            f"log = open({str(log)!r}, 'a+')\nlog.seek(0)\n"
            f"done = [line for line in log if line.startswith('{side} setup')]\n"
            "setup = '--setup-only' in sys.argv\n"
            f"log.write('{side} ' + ('setup' if setup else 'run') + ' '"
            " + sys.argv[sys.argv.index('--workload') + 1]"
            " + ' ' + sys.argv[sys.argv.index('--seed') + 1] + '\\n')\n"
            f"print({times!r}[len(done) % 4] if setup else {result!r})\n", encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "label", lambda checkout: checkout.name)
    monkeypatch.setattr(bench_pairs, "status", lambda checkout: "")
    assert bench_pairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                             "--pr", "t", "--pairs", "corridor-mc=1,exact-plan=1",
                             "--seed", "5", "--setup-runs", "2",
                             "--out-dir", str(tmp_path)]) == 0
    assert log.read_text().splitlines() == [
        "p run corridor-mc 5", "c run corridor-mc 5", "p run exact-plan 5", "c run exact-plan 5",
        "p setup corridor-mc 5", "c setup corridor-mc 5", "c setup corridor-mc 5",
        "p setup corridor-mc 5", "p setup exact-plan 5", "c setup exact-plan 5",
        "c setup exact-plan 5", "p setup exact-plan 5"]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert doc["setup_only"] == {
        "corridor-mc": {
            "parent": {"runs": [0.5, 0.25], "median": 0.375, "q1": 0.3125, "q3": 0.4375},
            "change": {"runs": [0.25, 0.125], "median": 0.1875, "q1": 0.15625,
                       "q3": 0.21875}},
        "exact-plan": {
            "parent": {"runs": [0.25, 0.75], "median": 0.5, "q1": 0.375, "q3": 0.625},
            "change": {"runs": [0.5, 1.0], "median": 0.75, "q1": 0.625, "q3": 0.875}}}
    # no verdict reads them
    assert set(doc["workloads"]["exact-plan"]["summary"]) == {"operations", "ops_per_s",
                                                              "peak_rss_mb"}
    err = capsys.readouterr().err
    assert "corridor-mc setup_only: median parent 0.3750 s, change 0.1875 s" in err
    assert "exact-plan ops_per_s: 0/1 won, median 1 -> 1, gain_shown False" in err
