"""The comparison rule and the shape of ``BENCHMARK.json``."""

from __future__ import annotations

import json
import re

from bench.compare import compare, verdict
from bench.spec import load_benchmark

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [value * 1.2 for value in base]
    slower = [value * 0.8 for value in base]
    assert verdict(base, faster, "higher", 0.05)["flags"] == ["better"]
    assert verdict(base, base, "higher", 0.05)["flags"] == ["same"]
    assert verdict(base, slower, "higher", 0.05)["flags"] == ["worse>bound"]
    assert verdict(base, slower, "lower", 0.05)["flags"] == ["better"]
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert "unresolved" in verdict(noisy, noisy, "higher", 0.05)["flags"]
    result = verdict(base, faster, "higher", 0.05)
    assert (result["won"], result["pairs"]) == (10, 10)


def test_compare_flags_a_regression(tmp_path):
    benchmark = load_benchmark()
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    for side, factor in (("base", 1.0), ("change", 2.0)):
        records = tmp_path / side / "records"
        records.mkdir(parents=True)
        for index in range(3):
            record = {
                "workload": "serve_text",
                "traced": False,
                "finished_ns": index,
                "metrics": {name: (1.0 + index / 100) * factor for name in names},
            }
            (records / f"r{index}.json").write_text(json.dumps(record))
    lines, regressed = compare(tmp_path / "base", tmp_path / "change", benchmark)
    assert regressed
    assert any("serve_text" in line and "lat_p50_ms" in line and "worse>bound" in line for line in lines)


def test_benchmark_json_shape():
    benchmark = load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= benchmark["run_seconds"] <= 60
    assert 2 <= len(benchmark["workloads"]) <= 8
    seen = set()
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert NAME.match(workload["name"])
    for key in ("end_to_end", "per_layer"):
        for metric in benchmark[key]:
            assert NAME.match(metric["name"]) and metric["name"] not in seen
            seen.add(metric["name"])
            assert UNIT.match(metric["unit"])
            assert metric["better"] in ("higher", "lower")
            if key == "end_to_end":
                assert 0 <= metric["bound"] <= 0.25
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])
