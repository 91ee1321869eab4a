"""Fixed-seed closed-loop traces and static solve reports, pinned by sha256.

A change meant to keep results (a refactor or a speed-up) must leave
every trace and report byte-identical; this fails when it does not. A
change that alters results on purpose updates the digests and says which
results moved and why.
"""

import hashlib
import json
import random
from importlib import resources

import pytest

from hubplatoon.cli import main
from hubplatoon.experiments import (ExperimentConfig, feasible_destinations,
                                    prepare_network, run_sample, sample_fleet)
from hubplatoon.feedback import POLICY_KINDS
from hubplatoon.game import save_fleet
from hubplatoon.network import load_network, save_network

DIGESTS = {
    ("synthetic10", 30): {
        "sp": "fb93b4fc05fa4d73e35c5dbe6b26fe4a037d906565f7d3bc3d928b29c12a74f5",
        "ip": "2a5091612a44596201ef86b390ac089ee588642422489fc89f005ff034169f96",
        "ktt": "507bf08a2af9e30eb2d9f352e538c667a52aad9e98b4b8138744e99a14d28651",
        "drhs": "da10af872b149a8fc3a35571948e368d3bbcfa926fb65b69da62123e4167f942",
        "srhs": "6d3f14f0d010c733617b6172d2129eb257352a1bcf21e218ac2cf979ada6bdcd",
    },
    ("sweden", 20): {
        "sp": "b69f3e24f7c935e402ffee3fc595bfc9a8252c5daa7ccccc6f13bebd77f3a5b3",
        "ip": "1d7fc0f0c1363d33460954686c651788f0326fe8290f152df28a3d6a4df31e92",
        "ktt": "9f675661dd5fd9ea4e6bc45227ebf5b7dcc7513183e586c83650d030a117a7dd",
        "drhs": "345faeb593256952ea7eac56d80f28172495a6add28bd1873b8b22b0f1fc3c4a",
        "srhs": "05cd32edf97ffd6e31e98c1f68a1533ad69a12f937edf635f7bc55ba5574a688",
    },
}


@pytest.mark.parametrize("name, vehicles", sorted(DIGESTS))
def test_sample_traces_are_unchanged(tmp_path, name, vehicles):
    config = ExperimentConfig(vehicle_count=vehicles, samples=1, master_seed=11)
    with resources.as_file(resources.files("hubplatoon") / "data"
                           / f"{name}.json") as path:
        net = prepare_network(load_network(path), config)
    _fleet, traces = run_sample(net, config, 0)
    assert tuple(traces) == POLICY_KINDS
    got = {}
    for kind, trace in traces.items():
        out = tmp_path / f"{kind}.jsonl"
        trace.write_jsonl(out)
        got[kind] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == DIGESTS[(name, vehicles)]


# solve-static --verify --track-potential reports on one 30-truck fleet of
# the prepared synthetic10 network (fleet seed 5); the distribution gives
# the fleet's two busiest edges five profiles each and its two lowest ids
# two start steps each (2/3 and 1/3, which eight stratified draws cannot
# match, so the sampled report differs from the exact one), 100 worlds
STATIC_DIGESTS = {
    "free-flow": "876683ece1a7eb7a15080e0e01360b64936f6d2016221218b0f3498ecaec9f2d",
    "exact": "3cf97df321917cc99087009a29d1557db67329fa886ac1424f53b23ea766c8b8",
    "sampled": "ee6472184e999911b48be9fdfba20e0335195acf6c469ae8b30868433d895831",
}
STATIC_ARGS = {
    "free-flow": [],
    "exact": ["--distribution", "dist.json"],
    "sampled": ["--distribution", "dist.json", "--support-cap", "1",
                "--draws", "8"],
}


@pytest.fixture(scope="module")
def static_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("static")
    config = ExperimentConfig(vehicle_count=30)
    with resources.as_file(resources.files("hubplatoon") / "data"
                           / "synthetic10.json") as path:
        net = prepare_network(load_network(path), config)
    fleet = sample_fleet(net, config, random.Random(5),
                         feasible_destinations(net, config))
    save_network(net, root / "net.json")
    save_fleet(fleet, root / "fleet.json")
    use = {}
    for v in fleet:
        for eid in v.edge_sequence:
            use[eid] = use.get(eid, 0) + 1
    busiest = sorted(use, key=lambda e: (-use[e], e))[:2]
    dist = {"edges": [{"edge": eid, "profiles": [
                {"id": pid, "p_num": 1, "p_den": 5}
                for pid in net.edges[eid].delay_profile_ids[::2]]}
                for eid in sorted(busiest)],
            "starts": [{"vehicle": v.id, "steps": [
                {"t": v.start_step, "p_num": 2, "p_den": 3},
                {"t": v.start_step + 1, "p_num": 1, "p_den": 3}]}
                for v in sorted(fleet, key=lambda v: v.id)[:2]]}
    (root / "dist.json").write_text(json.dumps(dist))
    return root


@pytest.mark.parametrize("mode", sorted(STATIC_DIGESTS))
def test_static_reports_are_unchanged(static_inputs, mode):
    out = static_inputs / f"{mode}.json"
    args = [str(static_inputs / a) if a.endswith(".json") else a
            for a in STATIC_ARGS[mode]]
    assert main(["solve-static", "--network", str(static_inputs / "net.json"),
                 "--fleet", str(static_inputs / "fleet.json"), *args,
                 "--verify", "--track-potential", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verified"] and report["rounds"] > 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STATIC_DIGESTS[mode]
