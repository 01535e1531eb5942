"""The benchmark's own checks: seeded inputs repeat byte for byte, and
BENCHMARK.json names exactly the metrics run.py reports."""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from run import END_TO_END
from tracing import PER_LAYER
from workloads import WORKLOADS


def _snapshot(workload, seed, workdir):
    inputs, config_path = workload.prepare(seed, workdir)
    config = config_path.read_bytes() if config_path else b""
    return json.dumps([asdict(i) for i in inputs], sort_keys=True).encode() + config


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _snapshot(workload, 7, tmp_path / "a")
    assert first == _snapshot(workload, 7, tmp_path / "b")
    assert first != _snapshot(workload, 8, tmp_path / "a")


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
