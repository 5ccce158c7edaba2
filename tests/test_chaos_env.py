"""Environment-fault acceptance suite (``make chaos-env``).

The hostile-machine contract, end to end through ``run_streamed``:

* a SIGKILLed shard worker is detected, respawned and its shard
  requeued — final triples bit-identical to a fault-free run;
* a shard that kills every worker it touches is quarantined as
  ``poisoned_shard`` and the run completes on the survivors (or raises
  under the strict ingest policy);
* ``ENOSPC`` during prep-cache or checkpoint writes degrades to
  cache-off / checkpoint-less with counted warnings — never a crash,
  never different triples;
* two runs duelling over one cache directory serialize via the
  advisory lock: the loser falls back to a private scratch cache and
  still produces identical output;
* memory pressure throttles the fan-out and is counted, without
  changing the output — on ``run`` (one shard) as on ``run_streamed``.

Every scenario is seeded (fault plans are deterministic) and sized for
a 1-CPU box: 40 pages, 2 iterations, at most 2 workers.
"""

from dataclasses import replace

import pytest

from repro import IngestConfig, PAEPipeline, PipelineConfig
from repro.corpus import Marketplace, MaterializedPageSource
from repro.errors import PoisonedShardError
from repro.perf.prep_cache import (
    DiskPrepCache,
    prep_cache_key,
    prep_digest,
)
from repro.runtime import FaultPlan, FaultSpec

pytestmark = pytest.mark.usefixtures("watchdog")

CONFIG = PipelineConfig(iterations=2)
SHARD_SIZE = 10  # 40 pages -> 4 shards


@pytest.fixture(scope="module")
def vacuum():
    return Marketplace(seed=7).generate("vacuum_cleaner", 40)


@pytest.fixture(scope="module")
def baseline(vacuum):
    """Fault-free one-shard reference."""
    return PAEPipeline(CONFIG).run(
        vacuum.product_pages, vacuum.query_log
    )


def _source(vacuum):
    return MaterializedPageSource(
        vacuum.product_pages, shard_size=SHARD_SIZE
    )


def _run(vacuum, *, faults=None, workers=1, config=CONFIG, **kwargs):
    return PAEPipeline(replace(config, pool_workers=workers)).run_streamed(
        _source(vacuum),
        vacuum.query_log,
        faults=faults,
        **kwargs,
    )


# -- worker SIGKILL ------------------------------------------------------


def test_sigkilled_workers_respawn_requeue_bit_identical(
    vacuum, baseline
):
    """The headline acceptance: real SIGKILLs mid-prep and mid-tag,
    detected via the exitcode sentinel, leave the output bit-identical
    to a fault-free run."""
    plan = FaultPlan(
        [
            FaultSpec(stage="shard_prep:0001", kind="worker_kill"),
            FaultSpec(stage="shard_tag:0002", kind="worker_kill"),
        ]
    )
    result = _run(vacuum, faults=plan, workers=2)
    assert result.triples == baseline.triples
    assert len(result.quarantine) == 0
    pool = result.resilience_counters()["pool"]
    # One prep kill + one tag kill per iteration (attempt counters are
    # per wave, and times=1 condemns each shard's first attempt).
    assert pool["injected_kills"] == 1 + CONFIG.iterations
    assert pool["deaths"] >= pool["injected_kills"]
    assert pool["requeues"] >= pool["injected_kills"]
    assert pool["respawns"] >= 1
    assert pool.get("poisoned", 0) == 0


def test_poisoned_shard_quarantined_run_completes_on_survivors(vacuum):
    """A shard that kills every worker (times=None) exhausts its
    retries, lands in the quarantine ledger, and the run completes
    with exactly the survivors' triples."""
    plan = FaultPlan(
        [
            FaultSpec(
                stage="shard_prep:0001", kind="worker_kill", times=None
            )
        ]
    )
    result = _run(vacuum, faults=plan)
    survivors = (
        vacuum.product_pages[:SHARD_SIZE]
        + vacuum.product_pages[2 * SHARD_SIZE :]
    )
    expected = PAEPipeline(CONFIG).run(survivors, vacuum.query_log)
    assert result.triples == expected.triples
    assert result.quarantine is not None
    entries = [
        entry
        for entry in result.quarantine
        if entry.check == "poisoned_shard"
    ]
    assert len(entries) == 1
    assert entries[0].page_id == "shard-0001"
    assert entries[0].source == "pool"
    assert result.resilience_counters()["pool"]["poisoned"] == 1


def test_strict_policy_raises_on_poisoned_shard(vacuum):
    config = PipelineConfig(
        iterations=2, ingest=IngestConfig(policy="strict")
    )
    plan = FaultPlan(
        [
            FaultSpec(
                stage="shard_prep:0000", kind="worker_kill", times=None
            )
        ]
    )
    with pytest.raises(PoisonedShardError) as excinfo:
        _run(vacuum, faults=plan, config=config)
    assert excinfo.value.stage == "shard_prep"
    assert excinfo.value.shard_index == 0


# -- full disk -----------------------------------------------------------


def test_prep_cache_enospc_degrades_to_cache_off(
    vacuum, baseline, tmp_path
):
    """Every prep-cache sidecar write hits ENOSPC: the run turns the
    cache off after the first failure, counts it, and completes with
    identical triples."""
    plan = FaultPlan(
        [
            FaultSpec(
                stage="prep_cache_write", kind="disk_full", times=None
            )
        ]
    )
    result = _run(vacuum, faults=plan, cache_dir=str(tmp_path))
    assert result.triples == baseline.triples
    counters = result.resilience_counters()
    assert counters["prep_cache_disabled"] == 1
    # A later clean run over the same directory simply re-preps.
    clean = _run(vacuum, cache_dir=str(tmp_path))
    assert clean.triples == baseline.triples


def test_checkpoint_enospc_degrades_to_checkpoint_less(
    vacuum, baseline, tmp_path
):
    """Every checkpoint write hits ENOSPC: snapshots are abandoned
    with a counted warning and the run completes unscathed."""
    plan = FaultPlan(
        [
            FaultSpec(
                stage="checkpoint_write", kind="disk_full", times=None
            )
        ]
    )
    result = _run(vacuum, faults=plan, checkpoint_dir=str(tmp_path))
    assert result.triples == baseline.triples
    assert result.resilience_counters()["checkpoint_disabled"] >= 1
    # Nothing torn was published under a snapshot name.
    assert list(tmp_path.glob("iteration_*.json.gz")) == []


def test_mid_run_snapshot_failure_is_counted(
    vacuum, baseline, tmp_path, monkeypatch
):
    """The checkpoint opens cleanly, then every iteration snapshot
    fails past its retries: checkpointing is disabled once, the trip
    is counted, and the run completes unscathed."""
    from repro.errors import StorageError
    from repro.runtime.checkpoint import CheckpointStore

    def full_disk(self, result, dataset):
        raise StorageError(
            "checkpoint_write", str(self.directory), 28, "injected"
        )

    monkeypatch.setattr(CheckpointStore, "write_iteration", full_disk)
    result = PAEPipeline(CONFIG).run(
        vacuum.product_pages,
        vacuum.query_log,
        checkpoint_dir=str(tmp_path),
    )
    assert result.triples == baseline.triples
    assert result.resilience_counters()["checkpoint_disabled"] == 1
    assert (tmp_path / "meta.json").exists()
    assert list(tmp_path.glob("iteration_*.json.gz")) == []


# -- contended cache directory -------------------------------------------


def test_dueling_runs_fall_back_to_private_cache(
    vacuum, baseline, tmp_path
):
    """While another live run holds the cache lock, a second run must
    not interleave writes: it falls back to a private scratch cache,
    counts the contention, and produces identical output."""
    digest = prep_digest(CONFIG.ingest)
    key = prep_cache_key(_source(vacuum).fingerprint(), digest)
    holder = DiskPrepCache(tmp_path, key)
    assert not holder.contended
    try:
        contended = _run(vacuum, cache_dir=str(tmp_path))
    finally:
        holder.close()
    assert contended.triples == baseline.triples
    assert contended.resilience_counters()["prep_cache_contended"] == 1
    # The keyed directory gained no shard artifacts from the loser.
    assert list((tmp_path / key).glob("shard_*")) == []
    # With the lock released the next run owns the cache normally.
    owner = _run(vacuum, cache_dir=str(tmp_path))
    assert owner.triples == baseline.triples
    assert owner.resilience_counters()["prep_cache_contended"] == 0
    assert list((tmp_path / key).glob("shard_*.meta.json"))


# -- memory pressure -----------------------------------------------------


def test_memory_pressure_throttles_and_counts(vacuum, baseline):
    plan = FaultPlan(
        [
            FaultSpec(
                stage="shard_prep",
                kind="mem_pressure",
                pressure_bytes=1 << 40,
                times=None,
            )
        ]
    )
    result = _run(vacuum, faults=plan, workers=2)
    assert result.triples == baseline.triples
    pressure = result.resilience_counters()["memory_pressure"]
    assert pressure["samples"] >= 1
    assert pressure["events"] >= 1


def test_run_honours_memory_pressure(vacuum, baseline):
    """``run`` is the one-shard streamed run, so it builds the memory
    governor too: pressure is sampled and counted, output unchanged."""
    plan = FaultPlan(
        [
            FaultSpec(
                stage="shard_prep",
                kind="mem_pressure",
                pressure_bytes=1 << 40,
                times=None,
            )
        ]
    )
    result = PAEPipeline(CONFIG).run(
        vacuum.product_pages, vacuum.query_log, faults=plan
    )
    assert result.triples == baseline.triples
    pressure = result.resilience_counters()["memory_pressure"]
    assert pressure
    assert pressure["samples"] >= 1
    assert pressure["events"] >= 1


# -- clean-pool smoke ----------------------------------------------------


def test_clean_pooled_run_bit_identical_to_monolithic(vacuum, baseline):
    """The no-fault guardrail: moving the fan-out onto the supervised
    pool changed nothing about a healthy run's output."""
    result = _run(vacuum, workers=2)
    assert result.triples == baseline.triples
    assert result.seed_triples == baseline.seed_triples
    counters = result.resilience_counters()
    assert counters["pool"] == {}
    assert counters["checkpoint_disabled"] == 0
    assert counters["prep_cache_disabled"] == 0
