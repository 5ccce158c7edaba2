"""Cross-run shard-prep artifact cache (:mod:`repro.perf.prep_cache`).

The contract under test: cached streamed runs are bit-identical to
uncached ones (cache cold, warm, tampered, bypassed), the disk cache
self-validates via its checksummed sidecars, and page-corrupting fault
plans never touch the cache in either direction.
"""

import gzip
import json

import pytest

from repro import PAEPipeline, PipelineConfig
from repro.config import IngestConfig
from repro.corpus import Marketplace, MaterializedPageSource
from repro.perf.prep_cache import (
    PREP_FORMAT_VERSION,
    DiskPrepCache,
    PrepStore,
    prep_cache_key,
    prep_digest,
)
from repro.runtime import FaultPlan, FaultSpec, PipelineTrace

pytestmark = pytest.mark.usefixtures("watchdog")

CONFIG = PipelineConfig(iterations=1)


@pytest.fixture(scope="module")
def vacuum():
    return Marketplace(seed=7).generate("vacuum_cleaner", 40)


def _source(vacuum, shard_size=10):
    return MaterializedPageSource(
        vacuum.product_pages, shard_size=shard_size
    )


def _assert_same_output(left, right):
    assert left.triples == right.triples
    assert left.seed_triples == right.seed_triples
    assert left.attributes == right.attributes
    assert left.quarantine.to_payload() == right.quarantine.to_payload()


# -- key and digest ------------------------------------------------------


def test_prep_digest_tracks_gate_config():
    base = prep_digest(IngestConfig())
    assert base == prep_digest(IngestConfig())
    assert base != prep_digest(IngestConfig(policy="drop"))
    assert base != prep_digest(IngestConfig(max_page_bytes=123))


def test_prep_cache_key_shape():
    digest = prep_digest(IngestConfig())
    key = prep_cache_key("f" * 64, digest)
    assert key == f"{digest[:16]}_{'f' * 16}"


# -- disk tier -----------------------------------------------------------


def _write_shard(cache, index=0, line='{"pid": "p1"}\n'):
    path = cache.shard_path(index)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(line)
    return path


def test_disk_cache_roundtrips_outcomes(tmp_path):
    cache = DiskPrepCache(tmp_path, "key")
    _write_shard(cache)
    cache.store(
        0, [["k", "p1", "ja", [], []]], {"parse_budget_soft": 1}
    )
    loaded = cache.load(0)
    assert loaded is not None
    assert loaded.outcomes == [("k", "p1", "ja", [], [])]
    assert loaded.warnings == {"parse_budget_soft": 1}


def test_disk_cache_checksum_mismatch_misses(tmp_path):
    cache = DiskPrepCache(tmp_path, "key")
    path = _write_shard(cache)
    cache.store(0, [], {})
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write('{"pid": "tampered"}\n')
    assert cache.load(0) is None


def test_disk_cache_format_mismatch_misses(tmp_path):
    cache = DiskPrepCache(tmp_path, "key")
    _write_shard(cache)
    cache.store(0, [], {})
    meta_path = cache.meta_path(0)
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["format"] = PREP_FORMAT_VERSION + 1
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    assert cache.load(0) is None


def test_disk_cache_missing_sidecar_misses(tmp_path):
    cache = DiskPrepCache(tmp_path, "key")
    _write_shard(cache)
    assert cache.load(0) is None


def test_disk_cache_prunes_sibling_keys(tmp_path):
    stale = tmp_path / "stale_key"
    stale.mkdir()
    (stale / "shard_0000.jsonl.gz").write_bytes(b"x")
    DiskPrepCache(tmp_path, "fresh_key")
    assert not stale.exists()
    assert (tmp_path / "fresh_key").is_dir()


def test_prune_spares_a_sibling_a_live_run_holds(tmp_path):
    """Two live runs with different keys share one root: opening the
    second must not delete the first one's shard files; once the first
    is closed, the next open prunes it."""
    first = DiskPrepCache(tmp_path, "key_a")
    shard = _write_shard(first)
    second = DiskPrepCache(tmp_path, "key_b")
    assert not second.contended
    assert shard.exists()
    assert (tmp_path / "key_b").is_dir()
    first.close()
    second.close()
    third = DiskPrepCache(tmp_path, "key_c")
    assert not (tmp_path / "key_a").exists()
    assert not (tmp_path / "key_b").exists()
    third.close()


# -- streamed runs against the cache -------------------------------------


def test_warm_run_hits_every_shard_and_matches_cold(vacuum, tmp_path):
    source = _source(vacuum)
    pipeline = PAEPipeline(CONFIG)
    cold = pipeline.run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path)
    )
    assert cold.perf_counters()["prep_cache"] == {
        "hits": 0, "misses": source.shard_count,
    }
    warm = pipeline.run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path)
    )
    assert warm.perf_counters()["prep_cache"] == {
        "hits": source.shard_count, "misses": 0,
    }
    _assert_same_output(warm, cold)


def test_cached_run_matches_cold_run_in_fresh_cache_dir(vacuum, tmp_path):
    """A run served from the cache equals one that prepped every shard
    into a directory no other run has touched."""
    source = _source(vacuum)
    pipeline = PAEPipeline(CONFIG)
    pipeline.run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path / "shared")
    )
    cached = pipeline.run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path / "shared")
    )
    assert cached.perf_counters()["prep_cache"] == {
        "hits": source.shard_count, "misses": 0,
    }
    cold = pipeline.run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path / "fresh")
    )
    assert cold.perf_counters()["prep_cache"] == {
        "hits": 0, "misses": source.shard_count,
    }
    _assert_same_output(cold, cached)


def test_checkpoint_retains_prep_cache_across_restart(vacuum, tmp_path):
    source = _source(vacuum)
    pipeline = PAEPipeline(CONFIG)
    first = pipeline.run_streamed(
        source, vacuum.query_log, checkpoint_dir=str(tmp_path)
    )
    prep_root = tmp_path / "prep_cache"
    assert list(prep_root.glob("*/shard_*.meta.json"))
    # resume=False wipes the snapshots (CheckpointStore.begin) but the
    # prep artifacts survive and serve the restarted run.
    trace = PipelineTrace()
    second = pipeline.run_streamed(
        source,
        vacuum.query_log,
        checkpoint_dir=str(tmp_path),
        resume=False,
        trace=trace,
    )
    assert trace.counter_totals("prep_cache") == {
        "hits": source.shard_count, "misses": 0,
    }
    _assert_same_output(second, first)


def test_tampered_artifact_degrades_to_reprep(vacuum, tmp_path):
    source = _source(vacuum)
    pipeline = PAEPipeline(CONFIG)
    first = pipeline.run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path)
    )
    [keyed] = [path for path in tmp_path.iterdir() if path.is_dir()]
    (keyed / "shard_0001.jsonl.gz").write_bytes(b"not a gzip file")
    again = pipeline.run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path)
    )
    assert again.perf_counters()["prep_cache"] == {
        "hits": source.shard_count - 1, "misses": 1,
    }
    _assert_same_output(again, first)


def test_config_change_invalidates_cache_key(vacuum, tmp_path):
    source = _source(vacuum)
    PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path)
    )
    changed = PipelineConfig(
        iterations=1,
        ingest=IngestConfig(max_page_bytes=500_000),
    )
    result = PAEPipeline(changed).run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path)
    )
    # New digest -> new keyed directory, all shards re-prepped (and the
    # stale key pruned so the root holds one prep set).
    assert result.perf_counters()["prep_cache"] == {
        "hits": 0, "misses": source.shard_count,
    }
    assert len([p for p in tmp_path.iterdir() if p.is_dir()]) == 1


def test_page_faults_bypass_cache_in_both_directions(vacuum, tmp_path):
    source = _source(vacuum)
    plan = FaultPlan(
        [
            FaultSpec(
                stage="corpus", kind="dirt", corrupt_fraction=0.2
            )
        ],
        seed=3,
    )
    result = PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path), faults=plan
    )
    # Nothing recorded (no sidecars), nothing served (no counters).
    assert result.perf_counters()["prep_cache"] == {
        "hits": 0, "misses": 0,
    }
    assert not list(tmp_path.rglob("*.meta.json"))
    assert plan.injected.get(("corpus", "dirt_pages"), 0) > 0
    # And a later clean run must not be poisoned by the faulted one.
    clean = PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path)
    )
    reference = PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log, cache_dir=str(tmp_path / "fresh")
    )
    assert reference.perf_counters()["prep_cache"] == {
        "hits": 0, "misses": source.shard_count,
    }
    _assert_same_output(clean, reference)


def _dirt_plan():
    return FaultPlan(
        [FaultSpec(stage="corpus", kind="dirt", corrupt_fraction=0.2)],
        seed=3,
    )


def test_page_faulted_run_leaves_nothing_in_cache_dir(vacuum, tmp_path):
    """A bypassed run preps into a self-cleaning temporary directory:
    no shard file lands in the cache root, where no later run would
    ever remove it."""
    plan = _dirt_plan()
    PAEPipeline(CONFIG).run_streamed(
        _source(vacuum), vacuum.query_log,
        cache_dir=str(tmp_path), faults=plan,
    )
    assert plan.injected.get(("corpus", "dirt_pages"), 0) > 0
    assert list(tmp_path.iterdir()) == []


def test_page_faulted_checkpoint_run_keeps_no_shard_cache(
    vacuum, tmp_path
):
    PAEPipeline(CONFIG).run_streamed(
        _source(vacuum), vacuum.query_log,
        checkpoint_dir=str(tmp_path), faults=_dirt_plan(),
    )
    assert not (tmp_path / "prep_cache").exists()
    assert not list(tmp_path.rglob("shard_*.jsonl.gz"))


def test_run_without_root_caches_nothing(vacuum):
    result = PAEPipeline(CONFIG).run_streamed(
        _source(vacuum), vacuum.query_log
    )
    assert result.perf_counters()["prep_cache"] == {
        "hits": 0, "misses": 0,
    }


# -- concurrency and hostile-environment behaviour -----------------------


def test_prune_tolerates_concurrent_deleter(tmp_path, monkeypatch):
    """A sibling key vanishing between the listing and the removal is
    another run winning the same cleanup race, not an error."""
    import pathlib
    import shutil

    stale = tmp_path / "stale_key"
    stale.mkdir()
    (stale / "shard_0000.jsonl.gz").write_bytes(b"x")
    real_iterdir = pathlib.Path.iterdir

    def racing_iterdir(self):
        children = list(real_iterdir(self))
        shutil.rmtree(stale, ignore_errors=True)  # the deleter wins
        return iter(children)

    monkeypatch.setattr(pathlib.Path, "iterdir", racing_iterdir)
    cache = DiskPrepCache(tmp_path, "fresh_key")
    cache.close()
    assert not stale.exists()
    assert (tmp_path / "fresh_key").is_dir()


def test_prune_survives_root_vanishing(tmp_path):
    import shutil

    root = tmp_path / "root"
    cache = DiskPrepCache(root, "key")
    shutil.rmtree(root)
    cache._prune()  # no raise: the whole root raced away
    cache.close()


def test_second_cache_handle_reports_contention(tmp_path):
    first = DiskPrepCache(tmp_path, "key")
    assert not first.contended
    second = DiskPrepCache(tmp_path, "key")
    assert second.contended
    second.close()
    first.close()
    third = DiskPrepCache(tmp_path, "key")
    assert not third.contended
    third.close()


def test_store_write_failure_disables_further_stores(tmp_path):
    """The first classified write failure turns the cache off for the
    run — later shards skip the (known-failing) disk entirely."""
    plan = FaultPlan(
        [FaultSpec(stage="prep_cache_write", kind="disk_full", times=None)]
    )
    disk = DiskPrepCache(tmp_path, "key", faults=plan)
    store = PrepStore(disk)
    _write_shard(disk)
    store.store(0, [], {})
    assert store.disabled
    assert store.write_failures == 1
    store.store(1, [], {})  # no-op, no second failure recorded
    assert store.write_failures == 1
    assert disk.load(0) is None  # nothing was sealed
    disk.close()
