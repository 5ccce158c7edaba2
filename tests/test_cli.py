"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_categories_command(capsys):
    assert main(["categories"]) == 0
    out = capsys.readouterr().out
    assert "vacuum_cleaner" in out
    assert "baby_goods" in out
    assert "heterogeneous union" in out


def test_run_command(capsys):
    code = main(
        [
            "run", "--category", "tennis", "--products", "50",
            "--iterations", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "precision:" in out
    assert "coverage:" in out
    assert "iteration" in out


def test_run_command_no_cleaning(capsys):
    code = main(
        [
            "run", "--category", "tennis", "--products", "50",
            "--iterations", "1", "--no-cleaning",
            "--no-diversification",
        ]
    )
    assert code == 0


def test_run_command_writes_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "run", "--category", "tennis", "--products", "40",
            "--iterations", "1", "--trace", str(trace_path),
        ]
    )
    assert code == 0
    import json

    payload = json.loads(trace_path.read_text())
    assert payload["label"] == "tennis"
    stages = {event["stage"] for event in payload["events"]}
    assert {"seed_build", "tagger_train", "tagger_tag"} <= stages
    assert any(event.get("iteration") == 1 for event in payload["events"])


def test_run_command_multi_category_sweep(capsys, tmp_path):
    trace_path = tmp_path / "sweep.json"
    code = main(
        [
            "run", "--category", "tennis,garden", "--products", "40",
            "--iterations", "1", "--workers", "2",
            "--trace", str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "category:   tennis" in out
    assert "category:   garden" in out
    assert "wall-clock:" in out
    import json

    payload = json.loads(trace_path.read_text())
    assert set(payload["categories"]) == {"tennis", "garden"}


def test_run_command_sweep_reports_failures(capsys):
    code = main(
        [
            "run", "--category", "tennis,no_such_category",
            "--products", "40", "--iterations", "1",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "category:   tennis" in out


def test_experiment_command_table1(capsys):
    code = main(
        [
            "experiment", "--name", "table1", "--products", "60",
            "--iterations", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Table I" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "--name", "table99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_run_command_writes_bench_counters(capsys, tmp_path):
    bench_path = tmp_path / "bench.json"
    code = main(
        [
            "run", "--category", "tennis", "--products", "40",
            "--iterations", "1",
            "--bench-out", str(bench_path),
        ]
    )
    assert code == 0
    import json

    payload = json.loads(bench_path.read_text())
    counters = payload["tennis"]
    assert counters["feature_cache"]["hits"] > 0
    assert "tagger_train" in counters["stage_seconds"]


def test_run_command_streamed(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "run", "--category", "tennis", "--products", "40",
            "--iterations", "1", "--stream", "--shard-size", "15",
            "--trace", str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "streamed" in out
    assert "throughput:" in out
    assert "3 shard(s)" in out
    assert "coverage:" in out
    import json

    payload = json.loads(trace_path.read_text())
    stages = {event["stage"] for event in payload["events"]}
    assert "shard_prep" in stages


def test_run_command_stream_rejects_sweeps(capsys):
    code = main(
        [
            "run", "--category", "tennis,running_shoes",
            "--products", "10", "--stream",
        ]
    )
    assert code == 1
    assert "one category at a time" in capsys.readouterr().err


def test_run_command_stream_accepts_dirt(capsys):
    code = main(
        [
            "run", "--category", "tennis", "--products", "10",
            "--stream", "--dirt-rate", "0.2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "streamed" in out
    assert "containment:" in out


@pytest.mark.parametrize("option", ["--trace", "--bench-out"])
@pytest.mark.parametrize(
    "mode",
    [
        ["--category", "tennis"],
        ["--category", "tennis", "--stream"],
        ["--category", "tennis,garden"],
    ],
    ids=["single", "stream", "sweep"],
)
def test_run_rejects_missing_output_directory_before_work(
    mode, option, tmp_path, monkeypatch, capsys
):
    import repro.cli
    from repro.runtime import CategoryRunner

    def no_work(*args, **kwargs):
        raise AssertionError("the run started before the path check")

    monkeypatch.setattr(repro.cli, "PAEPipeline", no_work)
    monkeypatch.setattr(CategoryRunner, "run", no_work)
    missing = tmp_path / "nope" / "out.json"
    with pytest.raises(SystemExit) as excinfo:
        main(
            ["run", *mode, "--products", "20", "--iterations", "1",
             option, str(missing)]
        )
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert option in err and "no directory" in err
    assert not missing.parent.exists()
