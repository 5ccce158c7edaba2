"""The published benchmark numbers are generated, never hand-copied.

EXPERIMENTS.md §V carries a table rendered by ``tools/bench_table.py``
from the ``bench`` records committed under ``docs/bench/``. These
tests fail when the table drifts from the records (re-render it with
``python3 tools/bench_table.py --write``) and when a committed record
is not a passing, untraced, digest-checked run.
"""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_table.py"


@pytest.fixture(scope="module")
def bench_table():
    spec = importlib.util.spec_from_file_location("bench_table", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiments_table_matches_records(bench_table):
    text = bench_table.EXPERIMENTS.read_text()
    table = bench_table.render(*bench_table.load_records())
    assert bench_table.splice(text, table) == text, (
        "EXPERIMENTS.md bench block drifted from docs/bench/*.json; "
        "run `python3 tools/bench_table.py --write`"
    )


def test_records_are_correct_untraced_and_digest_checked(bench_table):
    benchmark, records = bench_table.load_records()
    for workload, record in zip(benchmark["workloads"], records):
        assert record["workload"] == workload["name"]
        assert record["traced"] is False, workload["name"]
        assert record["correct"] is True, workload["name"]
        assert record["failed"] == 0, workload["name"]
        if record["params"]["kind"] == "batch":
            assert record["digest_checked"] is True, workload["name"]
        else:
            assert record.get("digest_checked") is not False
        declared = {metric["name"] for metric in benchmark["end_to_end"]}
        assert declared <= set(record["metrics"]), workload["name"]


def test_splice_replaces_only_the_marked_block(bench_table):
    text = "intro\n<!-- bench:begin -->\nold\n<!-- bench:end -->\noutro\n"
    assert bench_table.splice(text, "new") == (
        "intro\n<!-- bench:begin -->\nnew\n<!-- bench:end -->\noutro\n"
    )
    with pytest.raises(ValueError):
        bench_table.splice("no markers here", "new")
