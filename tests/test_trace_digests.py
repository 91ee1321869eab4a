"""Fixed-seed closed-loop traces, pinned by sha256.

A change meant to keep results (a refactor or a speed-up) must leave
every trace byte-identical; this fails when it does not. A change that
alters results on purpose updates the digests and says which results
moved and why.
"""

import hashlib
from importlib import resources

import pytest

from hubplatoon.experiments import (POLICY_ORDER, ExperimentConfig,
                                    prepare_network, run_sample)
from hubplatoon.network import load_network

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
    assert tuple(traces) == POLICY_ORDER
    got = {}
    for kind, trace in traces.items():
        out = tmp_path / f"{kind}.jsonl"
        trace.write_jsonl(out)
        got[kind] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == DIGESTS[(name, vehicles)]
