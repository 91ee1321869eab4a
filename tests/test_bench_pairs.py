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
