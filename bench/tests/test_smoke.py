"""Every workload end to end at a tiny size, through the real command."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from bench.load import Sample
from bench.spec import REPO_ROOT, load_benchmark
from bench.workloads import serve_layer_metrics

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TINY = ["--scale", "0.05", "--seconds", "0.1"]


def _bench(*args: str, cwd=REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=240,
    )


def _printed(stdout: str) -> tuple[list[dict], set[str]]:
    """Result objects and every ``<workload> <metric> <value> <unit>`` name."""
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    names = set()
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in {w["name"] for w in load_benchmark()["workloads"]}:
            names.add(parts[1])
    return results, names


def test_all_workloads_tiny(tmp_path):
    completed = _bench(*TINY, "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stderr[-3000:]
    results, printed = _printed(completed.stdout)
    declared = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    assert len(results) == 4
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(declared)
        for name, entry in result["metrics"].items():
            assert entry["unit"] == declared[name]["unit"]
            assert entry["value"] > 0, name
    assert printed == set(declared)
    assert all(NAME.match(name) for name in printed)


def test_traced_run_attributes_worker_spans(tmp_path):
    completed = _bench("--workload", "scale_cold", "--trace", "1", *TINY, "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stderr[-3000:]
    results, printed = _printed(completed.stdout)
    per_layer = {m["name"] for m in load_benchmark()["per_layer"]}
    assert set(results[-1]["metrics"]) == per_layer
    assert printed == per_layer and all(NAME.match(name) for name in printed)
    metrics = {name: entry["value"] for name, entry in results[-1]["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["ingest.gate.calls"] > 0 and metrics["ml.crf.tag.sentences"] > 0

    (record_path,) = (tmp_path / "records").glob("scale_cold-*-t1-*.json")
    record = json.loads(record_path.read_text())
    traced = [run for run in record["runs"] if run["traced"]]
    processes = traced[0]["by_process"]
    shard_count = -(-traced[0]["pages"] // record["params"]["shard_size"])
    workers = [entry for entry in processes.values() if entry["shards"]]
    assert len(processes) >= 2 and workers
    assert set().union(*(entry["shards"] for entry in workers)) == set(range(shard_count))
    # Batch and serve layers together produce exactly the declared set.
    serve_names = set(
        serve_layer_metrics(
            [
                {
                    "rate": 20,
                    "p50_s": 0.01,
                    "page_ids": ["p"],
                    "samples": [Sample(0, 0.0, 0.0, 0.01, 0.0, 200, b"{}")],
                }
            ],
            [],
            {"batcher": {"batches": 1, "batched_jobs": 1}, "admission": {"shed": 0}},
            0.01,
        )
    )
    assert set(record["metrics"]) | serve_names == per_layer


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(REPO_ROOT / "bench", tmp_path / "bench")
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    completed = _bench("--workload", "serve_text", cwd=tmp_path)
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())
