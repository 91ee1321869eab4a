import inspect
import json
import random

import pytest

from conftest import delay_map, make_net
from hubplatoon.errors import FormatError, InputError, NonConvergenceError
from hubplatoon.experiments import (STEPS_PER_DAY, ExperimentConfig,
                                    compute_metrics, config_from_dict,
                                    config_to_dict, feasible_destinations,
                                    generate_delay_profiles, load_config,
                                    prepare_network, run_experiment,
                                    run_sample, sample_fleet, sweep,
                                    trace_metrics, write_followers_csv,
                                    write_metrics_json, write_platoon_hist_csv,
                                    write_raw_csv)
from hubplatoon.cli import build_parser
from hubplatoon.feedback import (DEFAULT_MAX_STEPS, POLICY_KINDS, PolicySpec,
                                 SimulationTrace, TraceEvent, run_closed_loop,
                                 run_policies)
from hubplatoon.game import RewardModel, VehicleSpec, WaitingCostModel
from hubplatoon.network import validate_network
from hubplatoon.stochastic import DEFAULT_DRAWS, DEFAULT_SUPPORT_CAP, stochastic_oracle


def corridor_net(hubs=None):
    return make_net([(0, 0, 1, 100, 15), (1, 1, 2, 100, 15),
                     (2, 2, 3, 100, 15)], hubs=hubs)


def tiny_config(**kw):
    base = dict(vehicle_count=3, samples=2, master_seed=7,
                policies=("sp", "ktt"), injection_start_step=0,
                injection_end_step=3, min_km=50.0, max_km=500.0,
                profiles_per_edge=2, peak_heights=(0, 2),
                peak_start_step=0, peak_end_step=8, days=1)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.vehicle_count == 100
        assert config.policies == ("sp", "ip", "ktt", "drhs", "srhs")
        assert STEPS_PER_DAY == 288

    @pytest.mark.parametrize("kw,msg", [
        (dict(vehicle_count=0), "vehicle_count"),
        (dict(samples=0), "samples"),
        (dict(peak_heights=(1, 2, 3)), "one height per profile"),
        (dict(profiles_per_edge=2, peak_heights=(1, -2)), "nonnegative"),
        (dict(injection_start_step=10, injection_end_step=9), "window"),
        (dict(policies=("sp", "greedy")), "unknown policies: greedy"),
        (dict(horizon=0), "horizon must be >= 1"),
        (dict(policies=("sp",), oracle_draws=0), "oracle_draws must be >= 1"),
        (dict(policies=("sp", "ktt", "sp")), "policies lists sp twice"),
    ])
    def test_validation(self, kw, msg):
        with pytest.raises(InputError, match=msg):
            tiny_config(**kw)

    def test_policy_spec_passthrough(self):
        config = tiny_config(horizon=3, gating_minutes=15, support_cap=64,
                             oracle_draws=8, open_loop_cap=99)
        policy = config.policy_spec("srhs")
        assert (policy.kind, policy.horizon, policy.gating_minutes) == \
            ("srhs", 3, 15)
        assert (policy.support_cap, policy.oracle_draws,
                policy.open_loop_cap) == (64, 8, 99)

    def test_policy_defaults_have_one_definition(self):
        for kind in POLICY_KINDS:
            assert ExperimentConfig().policy_spec(kind) == PolicySpec(kind)
        # solve-static and the static oracles sample as many draws
        assert PolicySpec("srhs").oracle_draws == DEFAULT_DRAWS == \
            build_parser().parse_args(["solve-static", "--network", "n",
                                       "--fleet", "f"]).draws
        assert inspect.signature(stochastic_oracle).parameters["draws"].default \
            == DEFAULT_DRAWS
        # the open-loop cap is the static oracles' cap
        assert PolicySpec("ip").open_loop_cap == DEFAULT_SUPPORT_CAP == \
            inspect.signature(stochastic_oracle).parameters["cap"].default
        # one step limit for a config and for both closed-loop entry points
        assert ExperimentConfig().max_steps == DEFAULT_MAX_STEPS == \
            inspect.signature(run_closed_loop).parameters["max_steps"].default == \
            inspect.signature(run_policies).parameters["max_steps"].default
        # the game's cost and budget defaults are the models' and vehicles'
        config = ExperimentConfig()
        assert (config.waiting_budget_steps, config.km_rate_centi,
                config.step_cost_centi) == \
            (VehicleSpec(0, (0,), 0).waiting_budget_steps,
             RewardModel().km_rate_centi, WaitingCostModel().step_cost_centi)


class TestProfileGeneration:
    def test_ids_follow_sorted_edge_order(self):
        net = make_net([(7, 0, 1, 100, 3), (3, 1, 2, 100, 3)])
        config = tiny_config(profiles_per_edge=2, peak_heights=(0, 2), days=2,
                             peak_start_step=84, peak_end_step=108)
        profiles, assignment = generate_delay_profiles(net, config)
        assert assignment == {3: (0, 1), 7: (2, 3)}
        assert delay_map(profiles[0]) == {}
        bump = delay_map(profiles[1])
        assert all(eid == 3 for eid, _t in bump)
        want = set(range(84, 108)) | set(range(84 + 288, 108 + 288))
        assert {t for _e, t in bump} == want
        assert set(bump.values()) == {2}

    def test_deterministic_and_jitter(self):
        net = corridor_net()
        config = tiny_config(height_jitter=3)
        a = generate_delay_profiles(net, config, seed=5)
        b = generate_delay_profiles(net, config, seed=5)
        assert a == b
        c = generate_delay_profiles(net, config, seed=6)
        assert a != c

    def test_prepare_network_validates_clean(self):
        net = prepare_network(corridor_net(), tiny_config())
        assert validate_network(net) == []
        assert len(net.delay_profiles) == 6
        assert all(e.delay_profile_ids for e in net.edges.values())


class TestFleetSampling:
    def test_band_is_open(self):
        net = corridor_net()
        feasible = feasible_destinations(net, tiny_config(min_km=100.0,
                                                          max_km=300.0))
        # 100 km routes sit on the lower bound, 300 km on the upper: both out
        assert [d for d, _e in feasible[0]] == [2]
        assert feasible[2] == []

    def test_weights_steer_origins_and_destinations(self):
        net = corridor_net(hubs={0: 5.0, 1: 0.0, 2: 1.0, 3: 0.0})
        config = tiny_config(vehicle_count=40, min_km=50.0, max_km=500.0)
        fleet = sample_fleet(net, config, random.Random(1))
        origins = {net.edges[s.edge_sequence[0]].tail for s in fleet}
        assert origins <= {0, 2}    # zero-weight hubs are never drawn
        for spec in fleet:
            origin = net.edges[spec.edge_sequence[0]].tail
            dest = net.edges[spec.edge_sequence[-1]].head
            # from 0 the only positive-weight destination is 2; from 2
            # only 3 is reachable, kept by the uniform fallback
            assert dest == {0: 2, 2: 3}[origin]

    def test_starts_budget_and_prefix_property(self):
        net = corridor_net()
        config5 = tiny_config(vehicle_count=5, waiting_budget_steps=3)
        config8 = tiny_config(vehicle_count=8, waiting_budget_steps=3)
        fleet5 = sample_fleet(net, config5, random.Random(42))
        fleet8 = sample_fleet(net, config8, random.Random(42))
        assert fleet8[:5] == fleet5  # draws are sequential per vehicle
        for spec in fleet8:
            assert 0 <= spec.start_step <= 3
            assert spec.waiting_budget_steps == 3

    def test_no_feasible_origin_raises(self):
        net = corridor_net()
        with pytest.raises(InputError, match="distance band"):
            sample_fleet(net, tiny_config(min_km=1000.0, max_km=2000.0),
                         random.Random(0))
        starved = corridor_net(hubs={0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0})
        with pytest.raises(InputError, match="distance band"):
            sample_fleet(starved, tiny_config(), random.Random(0))


def hand_trace(policy="sp"):
    events = [TraceEvent(t=0, kind="platoon",
                         data={"edge": 0, "members": [0, 1], "travel": 3})]
    return SimulationTrace(policy=policy, events=events,
                           utility_centi={0: 8500, 1: 8500},
                           waited_steps={0: 0, 1: 1},
                           finish_steps={0: 3, 1: 3})


def empty_trace(policy="sp"):
    return SimulationTrace(policy=policy, events=[],
                           utility_centi={0: 0, 1: 0},
                           waited_steps={0: 0, 1: 0},
                           finish_steps={0: 3, 1: 3})


class TestMetrics:
    def fleet(self):
        return [VehicleSpec(id=0, edge_sequence=(0,), start_step=0,
                            waiting_budget_steps=4),
                VehicleSpec(id=1, edge_sequence=(0,), start_step=0,
                            waiting_budget_steps=4)]

    def net(self):
        return make_net([(0, 0, 1, 100, 3)])

    def test_single_trace_arithmetic(self):
        metrics, followers, hist = trace_metrics(hand_trace(), self.fleet(),
                                                 self.net())
        assert metrics.platooning_rate == 0.5        # 100 followed / 200 total
        assert metrics.followed_km == 100.0
        assert metrics.traveled_km == 200.0
        assert metrics.avg_wait_minutes == 2.5       # (0 + 5) / 2
        assert metrics.total_utility_centi == 17000
        assert followers == {0: 1, 1: 1, 2: 1}
        assert hist == {2: 1}

    def test_aggregation(self):
        report = compute_metrics([hand_trace(), empty_trace()], self.fleet(),
                                 self.net(), policy="sp")
        assert report.platooning_rate == 0.25        # pooled 100 / 400
        assert report.rate_mean == 0.25
        assert report.rate_stderr == 0.25
        assert report.wait_mean_minutes == 1.25
        assert report.utility_mean_centi == 8500.0
        assert report.follower_series == {0: 0.5, 1: 0.5, 2: 0.5}
        assert report.platoon_hist == {2: 1}
        doc = report.to_dict()
        assert doc["samples"] == 2
        assert doc["utility_mean_msek"] == 8500.0 / 1e8
        assert doc["platoon_hist"] == {"2": 1}

    def test_per_trace_fleets(self):
        fleets = [self.fleet(), self.fleet()]
        report = compute_metrics([hand_trace(), empty_trace()], fleets,
                                 self.net())
        assert report.policy == "sp"
        assert len(report.per_sample) == 2

    def test_bad_aggregation_inputs(self):
        with pytest.raises(InputError, match="no traces"):
            compute_metrics([], self.fleet(), self.net())
        with pytest.raises(InputError, match="one fleet"):
            compute_metrics([hand_trace()], [self.fleet(), self.fleet()],
                            self.net())

    def test_fleet_must_match_the_trace(self):
        short = self.fleet()[:1]
        stranger = short + [VehicleSpec(id=2, edge_sequence=(0,), start_step=0)]
        for fleet in (short, stranger):
            with pytest.raises(InputError, match="vehicle ids differ"):
                compute_metrics([hand_trace()], fleet, self.net())


class TestRunExperiment:
    def test_happy_path_and_determinism(self):
        net = corridor_net()
        config = tiny_config()
        a = run_experiment(net, config)
        b = run_experiment(net, config)
        assert set(a.reports) == {"sp", "ktt"}
        assert a.failures == [] and a.sample_ids == [0, 1]
        assert a.traces is None
        for kind in a.reports:
            assert len(a.reports[kind].per_sample) == 2
            assert a.reports[kind].to_dict() == b.reports[kind].to_dict()
        assert a.reports["sp"].wait_mean_minutes == 0.0

    def test_keep_traces(self):
        result = run_experiment(corridor_net(), tiny_config(samples=1),
                                keep_traces=True)
        assert set(result.traces) == {"sp", "ktt"}
        assert len(result.traces["ktt"]) == 1
        assert result.sample_ids == [0]

    def test_all_policies_run(self):
        config = tiny_config(vehicle_count=2, samples=1,
                             policies=("sp", "ip", "ktt", "drhs", "srhs"))
        result = run_experiment(corridor_net(), config)
        assert set(result.reports) == set(config.policies)

    def test_parallel_matches_serial(self):
        net = corridor_net()
        config = tiny_config(vehicle_count=2)
        serial = run_experiment(net, config, jobs=1)
        parallel = run_experiment(net, config, jobs=2)
        for kind in config.policies:
            assert serial.reports[kind].to_dict() == \
                parallel.reports[kind].to_dict()

    def test_failed_samples_are_excluded(self, monkeypatch):
        import hubplatoon.experiments as mod

        real = run_sample

        def flaky(net, config, sample, feasible=None):
            if sample == 0:
                raise InputError("boom")
            return real(net, config, sample, feasible)

        monkeypatch.setattr(mod, "run_sample", flaky)
        with pytest.warns(UserWarning, match="sample 0 failed"):
            result = run_experiment(corridor_net(), tiny_config())
        assert result.failures == [(0, "InputError: boom")]
        assert result.sample_ids == [1]
        assert len(result.reports["sp"].per_sample) == 1

    def test_non_convergence_is_a_failed_sample(self, monkeypatch):
        import hubplatoon.experiments as mod

        real = run_sample

        def stuck(net, config, sample, feasible=None):
            if sample == 1:
                raise NonConvergenceError("simulation exceeded 3 steps")
            return real(net, config, sample, feasible)

        monkeypatch.setattr(mod, "run_sample", stuck)
        with pytest.warns(UserWarning, match="sample 1 failed"):
            result = run_experiment(corridor_net(), tiny_config())
        assert result.failures == [
            (1, "NonConvergenceError: simulation exceeded 3 steps")]
        assert result.sample_ids == [0]

    def test_programming_errors_are_not_failed_samples(self, monkeypatch):
        import hubplatoon.experiments as mod

        def buggy(net, config, sample, feasible=None):
            return [][sample]

        monkeypatch.setattr(mod, "run_sample", buggy)
        with pytest.raises(IndexError):
            run_experiment(corridor_net(), tiny_config())

    def test_every_sample_failing_raises(self, monkeypatch):
        import hubplatoon.experiments as mod

        def broken(net, config, sample, feasible=None):
            raise InputError("boom")

        monkeypatch.setattr(mod, "run_sample", broken)
        with pytest.warns(UserWarning):
            with pytest.raises(InputError, match="every sample failed"):
                run_experiment(corridor_net(), tiny_config())


class TestSweep:
    def test_budget_sweep_shares_random_numbers(self):
        net = corridor_net()
        results = sweep(net, tiny_config(), "budget", [1, 2])
        assert sorted(results) == [1, 2]
        # sp ignores the budget, so identical draws mean identical metrics
        assert results[1].reports["sp"].to_dict() == \
            results[2].reports["sp"].to_dict()

    def test_axis_validation(self):
        net = corridor_net()
        with pytest.raises(InputError, match="unknown sweep axis"):
            sweep(net, tiny_config(), "speed", [1])
        with pytest.raises(InputError, match="at least one value"):
            sweep(net, tiny_config(), "budget", [])


class TestConfigIO:
    def test_round_trip(self):
        config = tiny_config(height_jitter=1)
        assert config_from_dict(config_to_dict(config)) == config

    def test_strictness(self):
        with pytest.raises(FormatError, match="unknown fields: speed"):
            config_from_dict({"speed": 3})
        with pytest.raises(FormatError, match="must be an object"):
            config_from_dict([1, 2])
        with pytest.raises(FormatError, match="bad config"):
            config_from_dict({"samples": 0})
        with pytest.raises(FormatError,
                           match="config field 'samples' must be an integer"):
            config_from_dict({"samples": "many"})

    def test_load_config(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"vehicle_count": 9, "samples": 3}))
        config = load_config(p)
        assert (config.vehicle_count, config.samples) == (9, 3)
        p.write_text("{nope")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_config(p)


@pytest.fixture(scope="module")
def result():
    return run_experiment(corridor_net(), tiny_config())


class TestWriters:
    def test_metrics_json(self, result, tmp_path):
        p = tmp_path / "metrics.json"
        write_metrics_json(result, p)
        doc = json.loads(p.read_text())
        assert set(doc) == {"config", "failures", "policies"}
        assert set(doc["policies"]) == {"sp", "ktt"}
        assert doc["config"]["vehicle_count"] == 3
        assert doc["failures"] == []
        assert p.read_text().endswith("\n")

    def test_raw_csv(self, result, tmp_path):
        p = tmp_path / "raw.csv"
        write_raw_csv(result, p)
        lines = p.read_text().splitlines()
        assert lines[0] == ("sample,policy,platooning_rate,avg_wait_minutes,"
                            "total_utility_centi")
        assert len(lines) == 1 + 2 * 2    # two samples, two policies

    def test_followers_csv(self, result, tmp_path):
        p = tmp_path / "followers.csv"
        write_followers_csv(result, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "policy,step,mean_followers"

    def test_platoon_hist_csv(self, result, tmp_path):
        p = tmp_path / "hist.csv"
        write_platoon_hist_csv(result, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "policy,size,count"
        for line in lines[1:]:
            policy, size, count = line.split(",")
            assert policy in ("sp", "ktt")
            assert int(size) >= 2 and int(count) >= 1
