"""The baseline's layer map names the per-layer metrics of BENCHMARK.json."""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def test_layer_map_matches_benchmark_per_layer():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "baseline.json").read_text())
    mapped = [name for layer in baseline["layer_map"]
              for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    for workload, layers in baseline["per_layer_seed_1"].items():
        assert set(layers) == set(mapped), workload
