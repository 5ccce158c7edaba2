"""Shard-layout invariance of the one bootstrap engine + resume.

The acceptance contract of :mod:`repro.core.sharded`: ``run`` (the
pages as one shard) and ``run_streamed`` under any shard size, pool
size and prep-cache state produce **bit-identical** output — triples,
seed, per-iteration records, quarantine ledger — and a run killed mid-
iteration resumes from its per-shard tag snapshots without re-tagging
completed shards.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro import IngestConfig, PAEPipeline, PipelineConfig
from repro.corpus import (
    GeneratedPageSource,
    Marketplace,
    MaterializedPageSource,
)
from repro.errors import FaultInjectionError, PageQuarantinedError
from repro.runtime import FaultPlan, FaultSpec, PipelineTrace

pytestmark = pytest.mark.usefixtures("watchdog")

CONFIG = PipelineConfig(iterations=2)
PAGES = 40

#: sha256 of the sorted ``[product, attribute, value]`` rows (JSON) of
#: ``PAEPipeline(CONFIG).run`` over ``vacuum_cleaner`` x 40 (seed 7),
#: captured under ``PYTHONHASHSEED=0`` before the engines were merged.
#: Pipeline output depends on the hash seed, so the matrix below runs
#: in a child process with the seed pinned.
GOLDEN_DIGEST = (
    "c491f404079b6661858c2ef70d99c52e1576a5e3b5575536596ac8647c33f935"
)

#: sha256 of the seed triples and of ``attributes`` plus
#: ``bootstrap.iterations`` (the whole per-iteration records) of the
#: same run, serialised by ``_MATRIX_CHILD``'s ``digest``: dataclasses
#: as field dicts, sets sorted by their canonical JSON, tuples kept in
#: order, JSON with sorted keys. Captured under ``PYTHONHASHSEED=0``
#: from the one-shard ``run``.
GOLDEN_SEED_DIGEST = (
    "578d614ffd60fddcdd438d1657d94d7fbc3412a504ec2c6693ca3d28c746c5aa"
)
GOLDEN_ITERATIONS_DIGEST = (
    "049a8f4e9f6b6a381aa921826a4e6efbcfa73a7a54bdb77936865520c25d976e"
)

#: Child-process body: one shard layout under three prep-cache states.
_MATRIX_CHILD = """
import dataclasses, hashlib, json, sys, tempfile
from repro import PAEPipeline, PipelineConfig
from repro.corpus import Marketplace, MaterializedPageSource

shard_size, workers, pages = (int(arg) for arg in sys.argv[1:4])
vacuum = Marketplace(seed=7).generate("vacuum_cleaner", pages)
source = MaterializedPageSource(vacuum.product_pages, shard_size=shard_size)
config = PipelineConfig(iterations=2, pool_workers=workers)
out = {"shards": source.shard_count}

def canonical(value):
    if dataclasses.is_dataclass(value):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (set, frozenset)):
        items = [canonical(item) for item in value]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    return value

def digest(value):
    text = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()

def record(result):
    rows = sorted([t.product_id, t.attribute, t.value] for t in result.triples)
    return {
        "digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "seed": digest(result.seed_triples),
        "iterations": digest({
            "attributes": result.attributes,
            "iterations": result.bootstrap.iterations,
        }),
        "prep_cache": result.perf_counters()["prep_cache"],
    }

with tempfile.TemporaryDirectory() as cache_dir:
    for state in ("cold", "warm"):
        out[state] = record(PAEPipeline(config).run_streamed(
            source, vacuum.query_log, cache_dir=cache_dir
        ))
out["off"] = record(PAEPipeline(
    dataclasses.replace(config, enable_prep_cache=False)
).run_streamed(source, vacuum.query_log))
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def vacuum():
    return Marketplace(seed=7).generate("vacuum_cleaner", PAGES)


@pytest.fixture(scope="module")
def one_shard(vacuum):
    return PAEPipeline(CONFIG).run(
        vacuum.product_pages, vacuum.query_log
    )


def _assert_identical(streamed, reference):
    assert streamed.triples == reference.triples
    assert streamed.seed_triples == reference.seed_triples
    assert streamed.attributes == reference.attributes
    assert streamed.bootstrap.iterations == reference.bootstrap.iterations


# -- bit-identity across shard layouts -----------------------------------


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shard_size", [PAGES, 7, 1])
def test_bit_identical_across_shard_and_worker_combos(shard_size, workers):
    """Every layout x pool size x prep-cache state hits the golden
    digests of the one-shard run: final triples, seed triples and the
    whole per-iteration records."""
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]),
    )
    completed = subprocess.run(
        [
            sys.executable, "-c", _MATRIX_CHILD,
            str(shard_size), str(workers), str(PAGES),
        ],
        env=env, capture_output=True, text=True, timeout=80,
    )
    assert completed.returncode == 0, completed.stderr
    out = json.loads(completed.stdout.splitlines()[-1])
    shards = out["shards"]
    assert shards == -(-PAGES // shard_size)
    for state in ("cold", "warm", "off"):
        assert out[state]["digest"] == GOLDEN_DIGEST, state
        assert out[state]["seed"] == GOLDEN_SEED_DIGEST, state
        assert out[state]["iterations"] == GOLDEN_ITERATIONS_DIGEST, state
    assert out["cold"]["prep_cache"] == {"hits": 0, "misses": shards}
    assert out["warm"]["prep_cache"] == {"hits": shards, "misses": 0}
    assert out["off"]["prep_cache"] == {"hits": 0, "misses": 0}


def test_run_is_the_one_shard_streamed_run(vacuum, one_shard):
    streamed = PAEPipeline(CONFIG).run_streamed(
        MaterializedPageSource(vacuum.product_pages, shard_size=PAGES),
        vacuum.query_log,
    )
    assert streamed.bootstrap == one_shard.bootstrap
    assert streamed.product_count == one_shard.product_count == PAGES
    stages = set(one_shard.trace.stage_totals())
    assert "shard_prep" in stages
    assert one_shard.trace.counter_totals("pool_supervision") == {}


def test_bit_identical_without_semantic_cleaning(vacuum):
    config = replace(CONFIG, enable_semantic_cleaning=False)
    reference = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log
    )
    source = MaterializedPageSource(vacuum.product_pages, shard_size=9)
    streamed = PAEPipeline(config).run_streamed(
        source, vacuum.query_log
    )
    _assert_identical(streamed, reference)


def test_merge_survives_shuffled_completion_order(
    vacuum, one_shard, monkeypatch
):
    """Shard results arriving in any order must merge identically.

    The pool returns a ``{shard: result}`` map; this test hands the
    engine every wave's map in shuffled order (as if fast shards
    finished first) and asserts the index-addressed merge still
    reproduces the one-shard output.
    """
    from repro.runtime.pool import ShardWorkerPool

    real = ShardWorkerPool.run
    rng = random.Random(11)

    def shuffled(self, *args, **kwargs):
        results, failures, report = real(self, *args, **kwargs)
        items = list(results.items())
        rng.shuffle(items)
        return dict(items), failures, report

    monkeypatch.setattr(ShardWorkerPool, "run", shuffled)
    config = replace(CONFIG, enable_prep_cache=False)
    source = MaterializedPageSource(vacuum.product_pages, shard_size=6)
    streamed = PAEPipeline(config).run_streamed(source, vacuum.query_log)
    _assert_identical(streamed, one_shard)


def test_max_labeled_sentences_cap_parity(vacuum):
    config = replace(CONFIG, max_labeled_sentences=40)
    reference = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log
    )
    source = MaterializedPageSource(vacuum.product_pages, shard_size=13)
    streamed = PAEPipeline(config).run_streamed(
        source, vacuum.query_log
    )
    _assert_identical(streamed, reference)


# -- dirty input: the sequential-gate replay -----------------------------


def _with_cross_shard_duplicates(pages):
    # Copies of early pages appended at the end: with shard_size=10
    # the duplicates land two shards away from their originals, so
    # only the parent's global replay can catch them.
    return list(pages) + [pages[0], pages[5]]


def test_cross_shard_duplicates_match_monolithic(vacuum):
    config = replace(
        CONFIG,
        ingest=IngestConfig(enabled=True, policy="repair"),
        pool_workers=2,
    )
    pages = _with_cross_shard_duplicates(vacuum.product_pages)
    reference = PAEPipeline(config).run(pages, vacuum.query_log)
    source = MaterializedPageSource(pages, shard_size=10)
    streamed = PAEPipeline(config).run_streamed(
        source, vacuum.query_log
    )
    _assert_identical(streamed, reference)
    assert reference.quarantine is not None
    assert streamed.quarantine is not None
    assert (
        streamed.quarantine.to_payload()
        == reference.quarantine.to_payload()
    )
    checks = streamed.quarantine.counts_by_check()
    assert checks.get("duplicate_id") == 2


def test_strict_cross_shard_duplicate_raises_like_monolithic(vacuum):
    config = replace(
        CONFIG, ingest=IngestConfig(enabled=True, policy="strict")
    )
    pages = _with_cross_shard_duplicates(vacuum.product_pages)
    with pytest.raises(PageQuarantinedError) as reference_error:
        PAEPipeline(config).run(pages, vacuum.query_log)
    source = MaterializedPageSource(pages, shard_size=10)
    with pytest.raises(PageQuarantinedError) as stream_error:
        PAEPipeline(config).run_streamed(source, vacuum.query_log)
    assert stream_error.value.page_id == reference_error.value.page_id
    assert stream_error.value.check == "duplicate_id"
    assert stream_error.value.detail == reference_error.value.detail


# -- page-fault injection inside shard workers ---------------------------


def test_streamed_dirt_faults_populate_quarantine(vacuum):
    config = replace(CONFIG, iterations=1, pool_workers=2)
    plan = FaultPlan(
        [FaultSpec(stage="corpus", kind="dirt", corrupt_fraction=0.25)],
        seed=5,
    )
    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    result = PAEPipeline(config).run_streamed(
        source, vacuum.query_log, faults=plan
    )
    # Worker tallies were absorbed into the parent's plan...
    assert plan.injected.get(("corpus", "dirt_pages"), 0) > 0
    counters = result.resilience_counters()
    # ...the corruption count reached the trace...
    assert counters["pages_corrupted"] > 0
    # ...and the gate contained the damage (dirt is calibrated to trip
    # at least one repair or quarantine check).
    contained = sum(counters["quarantined"].values()) + sum(
        counters["repaired"].values()
    )
    assert contained > 0


def test_streamed_corrupt_pages_faults_absorbed(vacuum):
    config = replace(CONFIG, iterations=1)
    plan = FaultPlan(
        [
            FaultSpec(
                stage="corpus",
                kind="corrupt_pages",
                corrupt_fraction=0.2,
                times=None,
            )
        ],
        seed=9,
    )
    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    result = PAEPipeline(config).run_streamed(
        source, vacuum.query_log, faults=plan
    )
    assert plan.injected.get(("corpus", "pages"), 0) > 0
    assert result.resilience_counters()["pages_corrupted"] > 0
    # The run survives the tag soup end to end.
    assert len(result.triples) > 0


def test_streamed_page_faults_deterministic_across_worker_counts(vacuum):
    outputs = []
    for workers in (1, 2):
        config = replace(CONFIG, iterations=1, pool_workers=workers)
        plan = FaultPlan(
            [
                FaultSpec(
                    stage="corpus", kind="dirt", corrupt_fraction=0.25
                )
            ],
            seed=5,
        )
        source = MaterializedPageSource(
            vacuum.product_pages, shard_size=10
        )
        result = PAEPipeline(config).run_streamed(
            source, vacuum.query_log, faults=plan
        )
        # One dirt report per prep shard, appended in shard order.
        assert len(plan.dirt_reports) == source.shard_count
        reports = [report.applied for report in plan.dirt_reports]
        outputs.append((result, dict(plan.injected), reports))
    (first, first_injected, first_reports), (
        second, second_injected, second_reports
    ) = outputs
    # Decisions derive from (plan seed, shard index), so the worker
    # count cannot change what was corrupted or what came out.
    assert first_injected == second_injected
    assert first_reports == second_reports
    assert first.triples == second.triples
    assert (
        first.quarantine.to_payload() == second.quarantine.to_payload()
    )


# -- generated sources end to end ----------------------------------------


def test_generated_source_runs_end_to_end():
    source = GeneratedPageSource("tennis", 30, shard_size=10, seed=7)
    trace = PipelineTrace()
    result = PAEPipeline(CONFIG).run_streamed(
        source, source.build_query_log(), trace=trace
    )
    assert len(result.triples) > 0
    assert result.coverage() > 0.0
    assert result.product_count == 30
    stages = {event.stage for event in trace.events}
    assert "shard_prep" in stages
    assert "tagger_tag" in stages
    # Peak RSS lands on the trace and in the resilience counters.
    assert result.resilience_counters()["peak_rss_bytes"] > 0


def test_generated_source_is_shard_size_invariant():
    logs = []
    results = []
    for shard_size in (7, 30):
        source = GeneratedPageSource(
            "tennis", 30, shard_size=shard_size, seed=7
        )
        logs.append(source.build_query_log().counts)
        results.append(
            PAEPipeline(CONFIG).run_streamed(
                source, source.build_query_log()
            )
        )
    assert logs[0] == logs[1]
    assert results[0].triples == results[1].triples
    assert results[0].seed_triples == results[1].seed_triples


# -- kill-and-resume mid-iteration ---------------------------------------


def test_kill_mid_iteration_resumes_without_retagging(vacuum, tmp_path):
    config = replace(CONFIG, stage_retries=0, pool_workers=1)
    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    reference = PAEPipeline(config).run_streamed(
        source, vacuum.query_log
    )

    # Shards 0 and 1 snapshot, then the fault kills the run entering
    # shard 2 of iteration 1 (inline workers keep the plan's counter
    # in-process; zero stage retries lets the crash escalate).
    plan = FaultPlan([FaultSpec(stage="shard_tag:0002", iteration=1)])
    with pytest.raises(FaultInjectionError):
        PAEPipeline(config).run_streamed(
            source,
            vacuum.query_log,
            checkpoint_dir=str(tmp_path),
            faults=plan,
        )
    snapshots = sorted(
        path.name for path in tmp_path.glob("shard_tag_*.json.gz")
    )
    assert snapshots == [
        "shard_tag_0001_0000.json.gz",
        "shard_tag_0001_0001.json.gz",
    ]
    assert not list(tmp_path.glob("iteration_*.json.gz"))

    trace = PipelineTrace()
    resumed = PAEPipeline(config).run_streamed(
        source,
        vacuum.query_log,
        checkpoint_dir=str(tmp_path),
        trace=trace,
    )
    _assert_identical(resumed, reference)
    assert resumed.bootstrap.iterations == reference.bootstrap.iterations
    # The two completed shards were loaded, not re-tagged...
    assert trace.counter_totals("shard_resume") == {"shards": 2}
    # ...and the finished iterations cleaned their scaffolding up.
    assert not list(tmp_path.glob("shard_tag_*.json.gz"))
    assert len(list(tmp_path.glob("iteration_*.json.gz"))) == 2


def test_completed_checkpoint_resumes_without_work(vacuum, tmp_path):
    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    first = PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log, checkpoint_dir=str(tmp_path)
    )
    trace = PipelineTrace()
    second = PAEPipeline(CONFIG).run_streamed(
        source,
        vacuum.query_log,
        checkpoint_dir=str(tmp_path),
        trace=trace,
    )
    _assert_identical(second, first)
    assert trace.counter_totals("checkpoint_resume") == {"iterations": 2}
    assert not any(
        event.stage == "tagger_train" for event in trace.events
    )


def test_foreign_source_checkpoint_rejected(vacuum, tmp_path):
    from repro.errors import CheckpointError

    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log, checkpoint_dir=str(tmp_path)
    )
    other = MaterializedPageSource(
        vacuum.product_pages[:30], shard_size=10
    )
    with pytest.raises(CheckpointError):
        PAEPipeline(CONFIG).run_streamed(
            other, vacuum.query_log, checkpoint_dir=str(tmp_path)
        )
