import json
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_net
from hubplatoon.cli import build_parser, main
from hubplatoon.game import Scenario, VehicleSpec, save_fleet, scenario_to_dict
from hubplatoon.network import save_network
from hubplatoon.stochastic import ScenarioDistribution, save_distribution

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def workdir(tmp_path):
    """Network, fleet, scenario and distribution files plus default config."""
    profiles = {0: {}, 1: {(0, t): 2 for t in range(0, 12)}}
    net = make_net([(0, 0, 1, 100, 3, (0, 1)), (1, 1, 2, 100, 3),
                    (2, 2, 3, 100, 3)], profiles=profiles)
    paths = {
        "net": tmp_path / "net.json",
        "fleet": tmp_path / "fleet.json",
        "scenario": tmp_path / "scenario.json",
        "dist": tmp_path / "dist.json",
        "config": tmp_path / "config.json",
        "out": tmp_path / "out",
    }
    save_network(net, paths["net"])
    fleet = [VehicleSpec(id=0, edge_sequence=(0, 1, 2), start_step=0,
                         waiting_budget_steps=4),
             VehicleSpec(id=1, edge_sequence=(0, 1, 2), start_step=1,
                         waiting_budget_steps=4)]
    save_fleet(fleet, paths["fleet"])
    scenario = Scenario(profile_assignment={0: 0}, start_steps={0: 0, 1: 1})
    paths["scenario"].write_text(json.dumps(scenario_to_dict(scenario)))
    half = Fraction(1, 2)
    dist = ScenarioDistribution(edge_profiles={0: ((0, half), (1, half))},
                                start_steps={0: ((0, Fraction(1)),),
                                             1: ((1, Fraction(1)),)})
    save_distribution(dist, paths["dist"])
    paths["config"].write_text(json.dumps({
        "vehicle_count": 3, "samples": 2, "master_seed": 5,
        "policies": ["sp", "ktt"], "injection_start_step": 0,
        "injection_end_step": 3, "min_km": 50.0, "max_km": 500.0,
        "profiles_per_edge": 2, "peak_heights": [0, 2],
        "peak_start_step": 0, "peak_end_step": 8, "days": 1}))
    return paths


def run(argv):
    return main([str(a) for a in argv])


class TestParser:
    def test_every_flag_documents_itself(self):
        parser = build_parser()
        for action in parser._subparsers._group_actions:
            for sub in action.choices.values():
                for arg in sub._actions:
                    assert arg.help, f"{sub.prog}: {arg.dest} lacks help text"

    def test_usage_errors_exit_1(self, capsys):
        for argv in ([], ["frobnicate"], ["validate"],
                     ["simulate", "--network", "x.json"]):
            with pytest.raises(SystemExit) as err:
                run(argv)
            assert err.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("hubplatoon ")


class TestValidate:
    def test_ok(self, workdir, capsys):
        assert run(["validate", "--network", workdir["net"]]) == 0
        out = capsys.readouterr().out
        assert "network OK: 4 hubs, 3 edges, 2 delay profiles" in out

    def test_broken_network(self, workdir, capsys):
        doc = json.loads(workdir["net"].read_text())
        doc["edges"][0]["length_km"] = -5
        workdir["net"].write_text(json.dumps(doc))
        assert run(["validate", "--network", workdir["net"]]) == 1
        captured = capsys.readouterr()
        assert "problem(s)" in captured.out
        assert "length" in captured.err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert run(["validate", "--network", tmp_path / "nope.json"]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert run(["validate", "--network", bad]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        assert run(["validate", "--network", bad]) == 1
        assert "error: " in capsys.readouterr().err


class TestSolveStatic:
    def test_free_flow_solve_to_stdout(self, workdir, capsys):
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"], "--verify"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["verified"] is True
        assert report["profile"]["0"] == [1, 0, 0]
        assert report["profile"]["1"] == [0, 0, 0]
        assert "deterministic solve" in captured.err
        assert "verified equilibrium" in captured.err

    def test_scenario_file_and_out_file(self, workdir, capsys):
        out = workdir["out"].parent / "report.json"
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"],
                    "--scenario", workdir["scenario"],
                    "--track-potential", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["rounds"] >= 1
        assert report["potential_trajectory"], "trajectory should be tracked"
        assert capsys.readouterr().out == ""

    def test_distribution_mode(self, workdir, capsys):
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"],
                    "--distribution", workdir["dist"]]) == 0
        captured = capsys.readouterr()
        assert "expected (exact) solve" in captured.err
        json.loads(captured.out)

    def test_sampled_oracle_when_support_exceeds_cap(self, workdir, capsys):
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"],
                    "--distribution", workdir["dist"],
                    "--support-cap", "1", "--draws", "8", "--seed", "3"]) == 0
        assert "expected (sampled) solve" in capsys.readouterr().err

    @pytest.mark.parametrize("pid, message", [
        (9, "scenario references unknown delay profile 9"),
        (2, "profile 2 is not admissible on edge 0")])
    def test_sampled_oracle_refuses_a_profile_whatever_the_draws(self, workdir, capsys,
                                                                 pid, message):
        """Edge 0 lists the profile with p = 1/16, so 4 draws mostly miss it."""
        doc = json.loads(workdir["dist"].read_text())
        doc["edges"][0]["profiles"] = [{"id": 1, "p_num": 15, "p_den": 16},
                                       {"id": pid, "p_num": 1, "p_den": 16}]
        workdir["dist"].write_text(json.dumps(doc))
        net = json.loads(workdir["net"].read_text())
        net["delay_profiles"].append({"id": 2, "entries": []})
        workdir["net"].write_text(json.dumps(net))
        for seed in range(8):
            assert run(["solve-static", "--network", workdir["net"],
                        "--fleet", workdir["fleet"], "--distribution", workdir["dist"],
                        "--support-cap", "1", "--draws", "4", "--seed", seed]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_scenario_and_distribution_conflict(self, workdir, capsys):
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"],
                    "--scenario", workdir["scenario"],
                    "--distribution", workdir["dist"]]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_wrong_typed_fleet_field(self, workdir, capsys):
        doc = json.loads(workdir["fleet"].read_text())
        doc[0]["edge_sequence"] = 5
        workdir["fleet"].write_text(json.dumps(doc))
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"]]) == 1
        assert capsys.readouterr().err == ("error: vehicle field 'edge_sequence' "
                                           "must be an array of integers, not 5\n")

    def test_wrong_typed_scenario_field(self, workdir, capsys):
        doc = json.loads(workdir["scenario"].read_text())
        doc["profile_assignment"] = []
        workdir["scenario"].write_text(json.dumps(doc))
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"],
                    "--scenario", workdir["scenario"]]) == 1
        assert capsys.readouterr().err == ("error: scenario field 'profile_assignment' "
                                           "must be an object, not []\n")

    @pytest.mark.parametrize("file, edit, message", [
        ("net", lambda d: d["edges"][0].update(length_km="far"),
         "edge field 'length_km' must be a number, not \"far\""),
        ("net", lambda d: d["edges"][1].update(delay_profile_ids=[0, True]),
         "edge field 'delay_profile_ids' must be an array of integers, not [0, true]"),
        ("fleet", lambda d: d[1].update(start_step=1.5),
         "vehicle field 'start_step' must be an integer, not 1.5"),
        ("dist", lambda d: d["starts"][0]["steps"][0].update(p_den=None),
         "start probability field 'p_den' must be an integer, not null"),
    ])
    def test_wrong_typed_field_is_named(self, workdir, capsys, file, edit, message):
        doc = json.loads(workdir[file].read_text())
        edit(doc)
        workdir[file].write_text(json.dumps(doc))
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"],
                    "--distribution", workdir["dist"]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("extra", [[], ["--track-potential"]])
    def test_inadmissible_scenario_profile(self, workdir, capsys, extra):
        # edge 1 admits only profile 1; both vehicles drive over it
        doc = json.loads(workdir["net"].read_text())
        doc["edges"][1]["delay_profile_ids"] = [1]
        workdir["net"].write_text(json.dumps(doc))
        workdir["scenario"].write_text(json.dumps(scenario_to_dict(
            Scenario(profile_assignment={1: 0}, start_steps={}))))
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"],
                    "--scenario", workdir["scenario"], *extra]) == 1
        assert "profile 0 is not admissible on edge 1" in capsys.readouterr().err

    def test_invalid_network_rejected(self, workdir, capsys):
        doc = json.loads(workdir["net"].read_text())
        doc["edges"][0]["base_travel_steps"] = 0
        workdir["net"].write_text(json.dumps(doc))
        assert run(["solve-static", "--network", workdir["net"],
                    "--fleet", workdir["fleet"]]) == 1
        assert "network is invalid" in capsys.readouterr().err


class TestSimulate:
    def test_monte_carlo_with_config(self, workdir, capsys):
        out = workdir["out"]
        assert run(["simulate", "--network", workdir["net"],
                    "--config", workdir["config"], "--out", out]) == 0
        for name in ("metrics.json", "raw.csv", "followers.csv",
                     "platoon_hist.csv"):
            assert (out / name).exists()
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc["policies"]) == {"sp", "ktt"}
        stdout = capsys.readouterr().out
        assert "sp: platooning rate" in stdout
        assert "ktt: platooning rate" in stdout

    def test_overrides_and_traces(self, workdir):
        out = workdir["out"]
        assert run(["simulate", "--network", workdir["net"],
                    "--config", workdir["config"], "--out", out,
                    "--policies", "sp", "--samples", "1", "--vehicles", "2",
                    "--seed", "9", "--traces"]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert list(doc["policies"]) == ["sp"]
        assert doc["config"]["vehicle_count"] == 2
        assert doc["config"]["master_seed"] == 9
        trace = out / "traces" / "sample0000_sp.jsonl"
        assert trace.exists()
        first = json.loads(trace.read_text().splitlines()[0])
        assert {"t", "kind"} <= set(first)

    def test_an_edge_listing_a_profile_twice_stops_before_any_sample(self, workdir,
                                                                      capsys):
        doc = json.loads(workdir["net"].read_text())
        doc["edges"][0]["delay_profile_ids"] = [0, 1, 0]
        workdir["net"].write_text(json.dumps(doc))
        assert run(["validate", "--network", workdir["net"]]) == 1
        assert capsys.readouterr().err == "edge 0 lists delay profile 0 twice\n"
        assert run(["simulate", "--network", workdir["net"], "--config", workdir["config"],
                    "--out", workdir["out"]]) == 1
        assert capsys.readouterr().err == \
            "error: network is invalid: edge 0 lists delay profile 0 twice\n"
        assert not workdir["out"].exists()

    def test_instance_mode_with_truth(self, workdir, capsys):
        out = workdir["out"]
        assert run(["simulate", "--network", workdir["net"],
                    "--config", workdir["config"], "--out", out,
                    "--fleet", workdir["fleet"], "--truth",
                    workdir["scenario"], "--traces",
                    "--policies", "sp,ktt,drhs"]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc["policies"]) == {"sp", "ktt", "drhs"}
        for kind in ("sp", "ktt", "drhs"):
            assert (out / f"{kind}.jsonl").exists()
        # both vehicles share the whole route; solved policies platoon it
        assert doc["policies"]["ktt"]["platooning_rate"] == 0.5
        assert doc["policies"]["sp"]["platooning_rate"] == 0.0

    def test_instance_mode_solves_one_anchor(self, workdir, monkeypatch):
        import hubplatoon.feedback as fb

        calls = []
        solve = fb.open_loop_anchor

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fb, "open_loop_anchor", counted)
        assert run(["simulate", "--network", workdir["net"],
                    "--config", workdir["config"], "--out", workdir["out"],
                    "--fleet", workdir["fleet"],
                    "--policies", "sp,ip,ktt,drhs,srhs"]) == 0
        assert len(calls) == 1

    def test_runaway_day_is_a_domain_error(self, workdir, capsys):
        doc = json.loads(workdir["config"].read_text())
        doc["max_steps"] = 3
        workdir["config"].write_text(json.dumps(doc))
        assert run(["simulate", "--network", workdir["net"],
                    "--config", workdir["config"], "--out", workdir["out"],
                    "--fleet", workdir["fleet"], "--policies", "sp"]) == 1
        assert "error: simulation exceeded 3 steps" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["horizon", "oracle_draws"])
    def test_bad_policy_setting_is_a_config_error(self, workdir, capsys, field):
        doc = json.loads(workdir["config"].read_text())
        doc[field] = 0
        workdir["config"].write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["simulate", "--network", workdir["net"],
                        "--config", workdir["config"], "--out", workdir["out"]]) == 1
        assert not caught, "no sample may run on a bad config"
        assert f"error: bad config: {field} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_empty_policy_list_is_a_config_error(self, workdir, capsys, command):
        extra = ["--axis", "budget", "--values", "1"] if command == "sweep" else []
        assert run([command, "--network", workdir["net"], "--config", workdir["config"],
                    "--out", workdir["out"], "--policies", ","] + extra) == 1
        assert capsys.readouterr().err == \
            "error: bad config: policies must name at least one policy\n"
        assert not workdir["out"].exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_repeated_policy_is_a_config_error(self, workdir, capsys, command):
        extra = ["--axis", "budget", "--values", "1"] if command == "sweep" else []
        assert run([command, "--network", workdir["net"], "--config", workdir["config"],
                    "--out", workdir["out"], "--policies", "sp,sp,ktt"] + extra) == 1
        assert capsys.readouterr().err == "error: bad config: policies lists sp twice\n"
        assert not workdir["out"].exists()

    @pytest.mark.parametrize("policies", ["sp", "sp,ktt"])
    def test_inadmissible_truth_on_an_undriven_edge(self, workdir, capsys,
                                                     policies):
        # edge 3 admits only profile 1 and no truck drives it
        doc = json.loads(workdir["net"].read_text())
        doc["edges"].append(dict(doc["edges"][0], id=3, tail=3, head=0,
                                 delay_profile_ids=[1]))
        workdir["net"].write_text(json.dumps(doc))
        workdir["scenario"].write_text(json.dumps(scenario_to_dict(
            Scenario(profile_assignment={0: 0, 3: 0}, start_steps={}))))
        assert run(["simulate", "--network", workdir["net"],
                    "--config", workdir["config"], "--out", workdir["out"],
                    "--fleet", workdir["fleet"], "--truth", workdir["scenario"],
                    "--policies", policies]) == 1
        assert capsys.readouterr().err == \
            "error: profile 0 is not admissible on edge 3\n"

    def test_truth_without_fleet_rejected(self, workdir, capsys):
        assert run(["simulate", "--network", workdir["net"],
                    "--out", workdir["out"],
                    "--truth", workdir["scenario"]]) == 1
        assert "--fleet" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, workdir):
        out_a = workdir["out"].parent / "a"
        out_b = workdir["out"].parent / "b"
        for out in (out_a, out_b):
            assert run(["simulate", "--network", workdir["net"],
                        "--config", workdir["config"], "--out", out]) == 0
        for name in ("metrics.json", "raw.csv", "followers.csv",
                     "platoon_hist.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSweep:
    def test_budget_axis(self, workdir, capsys):
        out = workdir["out"]
        assert run(["sweep", "--network", workdir["net"],
                    "--config", workdir["config"], "--out", out,
                    "--axis", "budget", "--values", "1,2"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("axis,value,policy,")
        assert len(lines) == 1 + 2 * 2   # two values, two policies
        assert (out / "budget_1" / "metrics.json").exists()
        assert (out / "budget_2" / "metrics.json").exists()
        assert "budget=1: done" in capsys.readouterr().out

    def test_cb_shorthand_converts_sek(self, workdir):
        out = workdir["out"]
        assert run(["sweep", "--network", workdir["net"],
                    "--config", workdir["config"], "--out", out,
                    "--policies", "sp", "--samples", "1",
                    "--cb-values", "0.50,1.70"]) == 0
        doc = json.loads((out / "c_b_50" / "metrics.json").read_text())
        assert doc["config"]["km_rate_centi"] == 50
        doc = json.loads((out / "c_b_170" / "metrics.json").read_text())
        assert doc["config"]["km_rate_centi"] == 170

    def test_argument_conflicts(self, workdir, capsys):
        base = ["sweep", "--network", workdir["net"], "--out", workdir["out"]]
        assert run(base) == 1
        assert run(base + ["--axis", "budget"]) == 1
        assert run(base + ["--cb-values", "1.0", "--axis", "budget",
                           "--values", "2"]) == 1
        assert run(base + ["--axis", "budget", "--values", "1,x"]) == 1
        err = capsys.readouterr().err
        assert "bad sweep values" in err
        assert run(base + ["--cb-values", "inf"]) == 1
        assert "error: bad sweep values 'inf': " in capsys.readouterr().err


def test_module_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "hubplatoon", "validate",
         "--network", str(workdir["net"])],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "network OK" in proc.stdout


def test_public_names_resolve():
    import hubplatoon

    missing = [name for name in hubplatoon.__all__
               if not hasattr(hubplatoon, name)]
    assert missing == []
    namespace = {}
    exec("from hubplatoon import *", namespace)
    assert set(hubplatoon.__all__) <= set(namespace)


# What the installer-generated ``hubplatoon`` wrapper does: load the
# ``module:attr`` target and exit with its return value.
_WRAPPER = """
import sys
from importlib.metadata import EntryPoint
sys.argv[0] = "hubplatoon"
target = EntryPoint(name="hubplatoon", value=sys.argv.pop(1),
                    group="console_scripts").load()
sys.exit(target())
"""


def test_console_script():
    tomllib = pytest.importorskip("tomllib")    # stdlib from Python 3.11
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    target = project["scripts"]["hubplatoon"]
    expected = f"hubplatoon {project['version']}\n"
    proc = subprocess.run([sys.executable, "-c", _WRAPPER, target, "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    installed = shutil.which("hubplatoon")
    if installed is not None:
        proc = subprocess.run([installed, "--version"], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
