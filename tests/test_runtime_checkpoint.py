"""Checkpoint/resume: kill-and-resume bit-identity and integrity.

The crash-safety contract: a bootstrap run killed after any completed
iteration, re-invoked with the same arguments and checkpoint directory,
resumes from its last snapshot and produces **bit-identical** output to
an uninterrupted run — including under an active fault plan that the
retry path absorbs. Corrupt, truncated or foreign checkpoints raise
:class:`~repro.errors.CheckpointError` instead of resuming from
garbage.
"""

import gzip
import json
import shutil

import pytest

from repro import PAEPipeline, PipelineConfig
from repro.corpus import Marketplace
from repro.errors import CheckpointError, FaultInjectionError
from repro.runtime import (
    CheckpointStore,
    FaultPlan,
    FaultSpec,
    PipelineTrace,
)

pytestmark = pytest.mark.usefixtures("watchdog")

CONFIG = PipelineConfig(iterations=3)


@pytest.fixture(scope="module")
def tennis():
    return Marketplace(seed=7).generate("tennis", 40)


@pytest.fixture(scope="module")
def baseline(tennis):
    """The uninterrupted reference run (no checkpointing, no faults)."""
    trace = PipelineTrace(label="baseline")
    return PAEPipeline(CONFIG).run(
        tennis.product_pages, tennis.query_log, trace=trace
    )


def _run(tennis, directory, *, faults=None, resume=True, config=CONFIG):
    trace = PipelineTrace(label="checkpointed")
    return PAEPipeline(config).run(
        tennis.product_pages,
        tennis.query_log,
        trace=trace,
        checkpoint_dir=str(directory),
        resume=resume,
        faults=faults,
    )


def _kill_after(tennis, directory, completed):
    """Start a checkpointed run that dies entering ``completed + 1``.

    ``times=2`` outlives the single default stage retry, so the crash
    escalates out of the run exactly like a killed worker.
    """
    plan = FaultPlan(
        [FaultSpec(stage="tagger_train", iteration=completed + 1, times=2)]
    )
    with pytest.raises(FaultInjectionError):
        _run(tennis, directory, faults=plan)


def _iteration_structure(trace, iterations):
    """(stage, iteration, counters) events of the given cycles,
    minus the checkpointing stages that only a snapshotting run has."""
    return [
        (event.stage, event.iteration, event.counters)
        for event in trace.events
        if event.iteration in iterations
        and event.stage not in ("checkpoint_write", "checkpoint_resume")
    ]


def test_snapshots_written_per_iteration(tennis, tmp_path):
    result = _run(tennis, tmp_path)
    # The run-lock sentinel (".run.lock") stays behind by design —
    # flock state lives on the open fd, the file is just its anchor.
    names = sorted(
        path.name
        for path in tmp_path.iterdir()
        if not path.name.startswith(".")
    )
    # prep_cache/ holds the shard-prep artifacts a resumed run replays.
    assert names == [
        "iteration_0001.json.gz",
        "iteration_0002.json.gz",
        "iteration_0003.json.gz",
        "meta.json",
        "prep_cache",
    ]
    assert len(result.bootstrap.iterations) == 3


@pytest.mark.parametrize("completed", [1, 2])
def test_kill_and_resume_bit_identical(tennis, baseline, tmp_path, completed):
    """The acceptance contract, for a crash after every iteration."""
    _kill_after(tennis, tmp_path, completed)
    snapshots = sorted(
        path.name for path in tmp_path.glob("iteration_*.json.gz")
    )
    assert len(snapshots) == completed

    resumed = _run(tennis, tmp_path)
    assert resumed.triples == baseline.triples
    assert resumed.bootstrap == baseline.bootstrap
    # The resumed run really did skip the completed cycles...
    resumed_iters = resumed.trace.iterations()
    trained = {
        event.iteration
        for event in resumed.trace.events
        if event.stage == "tagger_train"
    }
    assert trained == set(range(completed + 1, 4))
    assert resumed_iters == list(range(completed + 1, 4))
    # ...and the cycles it did run are structurally identical to the
    # uninterrupted run's (same stages, same counters, in order).
    live = set(range(completed + 1, 4))
    assert _iteration_structure(resumed.trace, live) == (
        _iteration_structure(baseline.trace, live)
    )


def test_resume_under_recovered_fault_is_bit_identical(
    tennis, baseline, tmp_path
):
    """Resume stays bit-identical even with an active fault plan that
    the stage-retry path absorbs."""
    _kill_after(tennis, tmp_path, 1)
    plan = FaultPlan(
        [FaultSpec(stage="tagger_tag", iteration=3, times=1)], seed=11
    )
    resumed = _run(tennis, tmp_path, faults=plan)
    assert resumed.triples == baseline.triples
    assert resumed.bootstrap == baseline.bootstrap
    counters = resumed.resilience_counters()
    assert counters["faults"] == {"tagger_tag": 1}
    assert counters["retries"] == {"tagger_tag": 1}


def test_resume_of_complete_run_recomputes_nothing(
    tennis, baseline, tmp_path
):
    _run(tennis, tmp_path)
    resumed = _run(tennis, tmp_path)
    assert resumed.bootstrap == baseline.bootstrap
    assert not any(
        event.stage == "tagger_train" for event in resumed.trace.events
    )


def test_resume_false_restarts_from_scratch(tennis, baseline, tmp_path):
    _kill_after(tennis, tmp_path, 2)
    fresh = _run(tennis, tmp_path, resume=False)
    assert fresh.bootstrap == baseline.bootstrap
    # All three snapshots were rewritten by the fresh run.
    assert len(list(tmp_path.glob("iteration_*.json.gz"))) == 3


def test_truncated_snapshot_raises_checkpoint_error(tennis, tmp_path):
    _kill_after(tennis, tmp_path, 2)
    snapshot = tmp_path / "iteration_0002.json.gz"
    snapshot.write_bytes(snapshot.read_bytes()[: 200])
    with pytest.raises(CheckpointError, match="corrupt"):
        _run(tennis, tmp_path)


def test_tampered_snapshot_fails_checksum(tennis, tmp_path):
    _kill_after(tennis, tmp_path, 1)
    snapshot = tmp_path / "iteration_0001.json.gz"
    with gzip.open(snapshot, "rt", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["iteration"] = 7
    with gzip.open(snapshot, "wt", encoding="utf-8") as handle:
        json.dump(payload, handle)
    with pytest.raises(CheckpointError, match="checksum"):
        _run(tennis, tmp_path)


def test_corrupt_meta_raises_checkpoint_error(tennis, tmp_path):
    _kill_after(tennis, tmp_path, 1)
    (tmp_path / "meta.json").write_text("{not json")
    with pytest.raises(CheckpointError):
        _run(tennis, tmp_path)


def test_missing_iteration_gap_raises(tennis, tmp_path):
    _kill_after(tennis, tmp_path, 2)
    (tmp_path / "iteration_0001.json.gz").unlink()
    with pytest.raises(CheckpointError, match="missing"):
        _run(tennis, tmp_path)


def test_foreign_checkpoint_rejected_by_fingerprint(tennis, tmp_path):
    """Resuming with a different config must not splice two runs."""
    _kill_after(tennis, tmp_path, 1)
    other = PipelineConfig(iterations=3, seed=99)
    with pytest.raises(CheckpointError, match="fingerprint"):
        _run(tennis, tmp_path, config=other)


def test_crash_during_checkpoint_write_is_atomic(tennis, baseline, tmp_path):
    """A kill mid-snapshot never leaves a half-written file behind."""
    plan = FaultPlan(
        [FaultSpec(stage="checkpoint_write", iteration=2, times=2)]
    )
    with pytest.raises(FaultInjectionError):
        _run(tennis, tmp_path, faults=plan)
    # Iteration 1's snapshot is intact; iteration 2's was never
    # published under its final name.
    names = sorted(path.name for path in tmp_path.glob("iteration_*"))
    assert names == ["iteration_0001.json.gz"]
    resumed = _run(tennis, tmp_path)
    assert resumed.bootstrap == baseline.bootstrap


def test_load_resume_state_roundtrip(tennis, tmp_path):
    """The store's own view: results and dataset survive the round
    trip through JSON exactly."""
    _run(tennis, tmp_path)
    state = CheckpointStore(tmp_path).load_resume_state()
    assert state is not None
    assert state.completed_iterations == 3
    assert [result.iteration for result in state.results] == [1, 2, 3]
    assert all(
        len(tagged.labels) == len(tagged.sentence.tokens)
        for tagged in state.dataset
    )


def test_legacy_uncompressed_snapshots_still_resume(
    tennis, baseline, tmp_path
):
    """Plain ``.json`` snapshots from pre-compression stores resume
    transparently (the checksum covers the payload, not the encoding)."""
    _kill_after(tennis, tmp_path, 2)
    for snapshot in sorted(tmp_path.glob("iteration_*.json.gz")):
        with gzip.open(snapshot, "rt", encoding="utf-8") as handle:
            text = handle.read()
        legacy = tmp_path / snapshot.name.removesuffix(".gz")
        legacy.write_text(text, encoding="utf-8")
        snapshot.unlink()
    resumed = _run(tennis, tmp_path)
    assert resumed.bootstrap == baseline.bootstrap


def test_indented_level9_snapshots_still_resume(tennis, baseline, tmp_path):
    """Snapshots are written compact, but ones encoded the older way —
    indented JSON at gzip level 9 — still load and resume: the
    checksum covers the parsed payload, not its encoding."""
    _kill_after(tennis, tmp_path, 2)
    for path in [tmp_path / "meta.json", *tmp_path.glob("iteration_*.gz")]:
        gzipped = path.suffix == ".gz"
        raw = path.read_bytes()
        text = (gzip.decompress(raw) if gzipped else raw).decode("utf-8")
        payload = json.loads(text)
        assert text == json.dumps(
            payload, ensure_ascii=False, separators=(",", ":")
        )
        old_style = json.dumps(payload, ensure_ascii=False, indent=1)
        encoded = old_style.encode("utf-8")
        path.write_bytes(
            gzip.compress(encoded, compresslevel=9, mtime=0)
            if gzipped
            else encoded
        )
    state = CheckpointStore(tmp_path).load_resume_state()
    assert state is not None and state.completed_iterations == 2
    resumed = _run(tennis, tmp_path)
    assert resumed.triples == baseline.triples
    assert resumed.bootstrap == baseline.bootstrap


def test_empty_store_has_no_resume_state(tmp_path):
    assert CheckpointStore(tmp_path).load_resume_state() is None
    assert not CheckpointStore(tmp_path).has_run()
    with pytest.raises(CheckpointError, match="no checkpoint run"):
        CheckpointStore(tmp_path).load_meta()


# -- per-shard tag snapshots (sharded bootstrap) -------------------------


def test_shard_tags_roundtrip(tmp_path, make_tagged):
    store = CheckpointStore(tmp_path)
    tagged = [
        make_tagged("重さ は 500 g です", "500 g", "weight"),
        make_tagged("高さ は 30 cm です", "30 cm", "height", "p1", 2),
    ]
    store.write_shard_tags(2, 5, tagged, sentence_count=40)
    loaded = store.load_shard_tags(2, 5)
    assert loaded is not None
    assert loaded[0] == tagged
    assert loaded[1] == 40
    # Other (iteration, shard) slots stay empty.
    assert store.load_shard_tags(2, 4) is None
    assert store.load_shard_tags(1, 5) is None


def test_shard_tags_corruption_raises(tmp_path, make_tagged):
    store = CheckpointStore(tmp_path)
    store.write_shard_tags(
        1, 0, [make_tagged("重さ は 500 g", "500 g", "weight")], 3
    )
    path = tmp_path / "shard_tag_0001_0000.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["sentence_count"] = 999
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(payload, handle)
    with pytest.raises(CheckpointError, match="checksum"):
        store.load_shard_tags(1, 0)


def test_misnamed_shard_tag_snapshot_raises(tmp_path, make_tagged):
    """A whole, checksum-valid snapshot under another shard's name is
    not that shard's output."""
    store = CheckpointStore(tmp_path)
    store.write_shard_tags(
        2, 5, [make_tagged("重さ は 500 g", "500 g", "weight")], 3
    )
    shutil.copy(
        tmp_path / "shard_tag_0002_0005.json.gz",
        tmp_path / "shard_tag_0003_0004.json.gz",
    )
    with pytest.raises(CheckpointError, match="iteration 2 shard 5"):
        store.load_shard_tags(3, 4)
    assert store.load_shard_tags(2, 5) is not None


def test_clear_shard_tags_by_iteration_and_wholesale(
    tmp_path, make_tagged
):
    store = CheckpointStore(tmp_path)
    tagged = [make_tagged("重さ は 500 g", "500 g", "weight")]
    for iteration in (1, 2):
        for shard in (0, 1):
            store.write_shard_tags(iteration, shard, tagged, 1)
    assert store.clear_shard_tags(1) == 2
    assert store.load_shard_tags(1, 0) is None
    assert store.load_shard_tags(2, 0) is not None
    assert store.clear_shard_tags() == 2
    assert store.load_shard_tags(2, 0) is None
    assert store.clear_shard_tags() == 0


def test_begin_wipes_stale_shard_tags(tmp_path, make_tagged):
    store = CheckpointStore(tmp_path)
    store.write_shard_tags(
        1, 0, [make_tagged("重さ は 500 g", "500 g", "weight")], 1
    )
    store.begin("fingerprint", "digest", iterations=2)
    assert store.load_shard_tags(1, 0) is None
