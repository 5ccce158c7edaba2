"""Dirty-input chaos: full bootstrap runs over seeded 20%-dirt corpora.

The containment contract, end to end:

* a 20%-dirt corpus completes the paper's 5-iteration bootstrap under
  both ``repair`` and ``drop`` with zero uncaught exceptions, and the
  quarantine/repair ledgers match the injection ledger exactly;
* dirt rate 0 is bit-identical to a clean run;
* no single hostile page can abort or hang a :class:`CategoryRunner`
  job (the watchdog turns a hang into a failure);
* a killed dirty run checkpoint-resumes to bit-identical results with
  the same quarantine ledger;
* the iteration-health circuit breaker halts a poisoned run with the
  last healthy iteration's output.
"""

from dataclasses import replace

import pytest

from repro import PAEPipeline, PipelineConfig
from repro.config import HealthConfig, IngestConfig, VetoConfig
from repro.core.bootstrap import (
    Bootstrapper,
    IterationResult,
    _IterationArtifacts,
)
from repro.corpus import Marketplace
from repro.errors import CheckpointError, FaultInjectionError
from repro.ingest import IngestGate
from repro.runtime import (
    CategoryRunner,
    CheckpointStore,
    FaultPlan,
    FaultSpec,
    PipelineTrace,
    RunnerJob,
    summarize_outcomes,
)
from repro.types import ProductPage

pytestmark = pytest.mark.usefixtures("watchdog")

DIRT_RATE = 0.2
CONFIG = PipelineConfig(iterations=5)


def _dirt_plan(seed: int = 5, rate: float = DIRT_RATE) -> FaultPlan:
    return FaultPlan(
        [FaultSpec(stage="corpus", kind="dirt", corrupt_fraction=rate)],
        seed=seed,
    )


@pytest.fixture(scope="module")
def vacuum():
    return Marketplace(seed=7).generate("vacuum_cleaner", 40)


# -- the acceptance run --------------------------------------------------


@pytest.mark.parametrize("policy", ["repair", "drop"])
def test_twenty_percent_dirt_completes_five_iterations(vacuum, policy):
    """20% dirt, 5 iterations, ledger == injection, no exceptions."""
    plan = _dirt_plan()
    config = replace(CONFIG, ingest=IngestConfig(policy=policy))
    result = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log, faults=plan
    )
    assert len(result.bootstrap.iterations) == CONFIG.iterations
    (report,) = plan.dirt_reports
    assert report.total == round(DIRT_RATE * len(vacuum.product_pages))

    counters = result.resilience_counters()
    observed = dict(counters["quarantined"])
    if policy == "drop":
        assert counters["repaired"] == {}
    for check, count in counters["repaired"].items():
        observed[check] = observed.get(check, 0) + count
    assert observed == report.expected_checks()
    # The ledger object carries the same census as the trace counters.
    assert result.quarantine is not None
    assert (
        result.quarantine.counts_by_check() == counters["quarantined"]
    )
    assert counters["circuit_breaker"] == {}
    # Mangled pages never invent phantom products.
    ids = {page.product_id for page in vacuum.product_pages}
    assert {t.product_id for t in result.triples} <= ids


def test_dirt_rate_zero_is_bit_identical_to_clean(vacuum):
    config = PipelineConfig(iterations=2)
    clean = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log
    )
    plan = _dirt_plan(rate=0.0)
    dirty = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log, faults=plan
    )
    assert dirty.triples == clean.triples
    assert dirty.bootstrap == clean.bootstrap
    assert plan.dirt_reports[0].total == 0
    assert not dirty.quarantine


def test_gate_keeps_clean_pages_unchanged(vacuum):
    """The shipped repair gate passes a clean corpus through as is:
    every page kept and equal to its input, no repair, no ledger."""
    pages = vacuum.product_pages
    gated = IngestGate().process(pages)
    assert gated.pages == list(pages)
    assert gated.repaired == {}
    assert not gated.quarantine
    assert gated.pages_in == len(pages)


def test_default_gate_is_noop_on_clean_corpus(vacuum):
    """The shipped repair gate must not perturb a clean run at all."""
    gated = PAEPipeline(PipelineConfig(iterations=2)).run(
        vacuum.product_pages, vacuum.query_log
    )
    assert not gated.quarantine
    # Containment stays silent on a clean run: every fault, retry,
    # skip, quarantine, repair, breaker, trainer-warning, pool, memory
    # and storage-degradation counter is empty or zero.
    counters = gated.resilience_counters()
    counters.pop("peak_rss_bytes")
    assert not any(counters.values()), counters


# -- the kill-test -------------------------------------------------------


def test_hostile_pages_cannot_kill_a_runner_job(vacuum):
    """Each hostile page is quarantined; the job's output matches a run
    that never saw them. No aborts, no hangs (watchdog-enforced)."""
    hostile = [
        ProductPage(
            "hostile-truncated", "vacuum_cleaner",
            "<html><body><table><tr><td cla", "ja",
        ),
        ProductPage(
            "hostile-deep", "vacuum_cleaner", "<div>" * 5_000 + "x", "ja"
        ),
        ProductPage(
            "hostile-mega", "vacuum_cleaner",
            "<div>" + "x" * 1_200_000 + "</div>", "ja",
        ),
        ProductPage(
            "hostile-soup", "vacuum_cleaner",
            "<" * 5_000 + "&#" * 5_000, "ja",
        ),
    ]
    config = replace(
        PipelineConfig(iterations=2), ingest=IngestConfig(policy="drop")
    )
    jobs = [
        RunnerJob(
            name="dirty", config=config,
            pages=list(vacuum.product_pages) + hostile,
            query_log=vacuum.query_log,
        ),
        RunnerJob(
            name="clean", config=config,
            pages=vacuum.product_pages, query_log=vacuum.query_log,
        ),
    ]
    outcomes = CategoryRunner(workers=2, job_timeout=120).run(jobs)
    assert [outcome.ok for outcome in outcomes] == [True, True]
    dirty, clean = outcomes[0].result, outcomes[1].result
    assert dirty.quarantine.page_ids() == {
        page.product_id for page in hostile
    }
    assert dirty.triples == clean.triples


def test_sweep_summary_aggregates_containment(vacuum):
    config = replace(
        PipelineConfig(iterations=2), ingest=IngestConfig(policy="drop")
    )
    plans = {seed: _dirt_plan(seed=seed) for seed in (1, 2)}
    jobs = [
        RunnerJob(
            name=f"job{seed}", config=config,
            pages=vacuum.product_pages, query_log=vacuum.query_log,
            faults=plan,
        )
        for seed, plan in plans.items()
    ]
    outcomes = CategoryRunner(workers=2).run(jobs)
    summary = summarize_outcomes(outcomes)
    assert summary["jobs"] == 2
    assert summary["succeeded"] == 2
    assert summary["failed"] == 0
    assert summary["failures"] == []
    assert summary["halted_jobs"] == []
    assert summary["circuit_breaker"] == {}
    # Pooled jobs dirty pickled copies of the plans, so replay the same
    # seeded plans on the one shard a job's run prepares, here.
    injected = sum(
        _dirt_plan(seed=seed)
        .corrupt_shard_pages(vacuum.product_pages, 0)[3][0]
        .total
        for seed in plans
    )
    assert sum(summary["quarantined"].values()) == injected
    assert summary["repaired"] == {}


# -- checkpoint/resume under dirt ----------------------------------------


def test_dirty_checkpoint_resume_bit_identical(vacuum, tmp_path):
    config = replace(
        PipelineConfig(iterations=3), ingest=IngestConfig(policy="drop")
    )
    base_dir = tmp_path / "base"
    kill_dir = tmp_path / "kill"

    baseline = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log,
        checkpoint_dir=str(base_dir), faults=_dirt_plan(),
    )
    assert baseline.quarantine

    # Same dirt, plus a crash entering iteration 2 (times=2 outlives
    # the single stage retry, escalating out like a killed worker).
    kill_plan = FaultPlan(
        [
            FaultSpec(
                stage="corpus", kind="dirt", corrupt_fraction=DIRT_RATE
            ),
            FaultSpec(stage="tagger_train", iteration=2, times=2),
        ],
        seed=5,
    )
    with pytest.raises(FaultInjectionError):
        PAEPipeline(config).run(
            vacuum.product_pages, vacuum.query_log,
            checkpoint_dir=str(kill_dir), faults=kill_plan,
        )
    # The ledger was persisted before the crash, and matches the
    # uninterrupted run's exactly.
    stored = CheckpointStore(str(kill_dir)).load_quarantine()
    assert stored == baseline.quarantine.to_payload()

    trace = PipelineTrace(label="resumed")
    resumed = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log, trace=trace,
        checkpoint_dir=str(kill_dir), faults=_dirt_plan(),
    )
    assert resumed.triples == baseline.triples
    assert resumed.bootstrap == baseline.bootstrap
    assert resumed.quarantine == baseline.quarantine
    # The resume really skipped the completed cycle.
    trained = {
        event.iteration
        for event in trace.events
        if event.stage == "tagger_train"
    }
    assert trained == {2, 3}


def test_resume_with_different_dirt_raises(vacuum, tmp_path):
    """Resuming a dirty checkpoint against a differently-dirtied corpus
    must fail loudly, never splice two corpora."""
    config = replace(
        PipelineConfig(iterations=3), ingest=IngestConfig(policy="drop")
    )
    kill_plan = FaultPlan(
        [
            FaultSpec(
                stage="corpus", kind="dirt", corrupt_fraction=DIRT_RATE
            ),
            FaultSpec(stage="tagger_train", iteration=2, times=2),
        ],
        seed=5,
    )
    with pytest.raises(FaultInjectionError):
        PAEPipeline(config).run(
            vacuum.product_pages, vacuum.query_log,
            checkpoint_dir=str(tmp_path), faults=kill_plan,
        )
    with pytest.raises(CheckpointError):
        PAEPipeline(config).run(
            vacuum.product_pages, vacuum.query_log,
            checkpoint_dir=str(tmp_path), faults=_dirt_plan(seed=99),
        )


def test_record_quarantine_digest_contract(tmp_path):
    store = CheckpointStore(str(tmp_path))
    entry = {
        "page_id": "a", "check": "page_bytes", "error": "page_bytes",
        "detail": "too big", "byte_offset": None, "source": "ingest",
        "line": None,
    }
    # Empty ledger + no file: nothing written (clean-run checkpoints
    # stay byte-identical to the pre-gate layout).
    store.record_quarantine([])
    assert store.load_quarantine() is None
    store.record_quarantine([entry])
    store.record_quarantine([entry])  # same ledger: idempotent
    assert store.load_quarantine() == [entry]
    with pytest.raises(CheckpointError):
        store.record_quarantine([entry, dict(entry, page_id="b")])
    with pytest.raises(CheckpointError):
        store.record_quarantine([])  # file exists, ledger diverged


# -- circuit breaker -----------------------------------------------------


def test_circuit_breaker_halts_on_rejection_explosion(vacuum):
    """Cleaning rejecting ~everything halts the loop with the last
    healthy (here: seed-only) output instead of folding garbage in."""
    config = replace(
        PipelineConfig(iterations=3),
        veto=VetoConfig(max_value_chars=1),
        health=HealthConfig(
            max_rejection_rate=0.5, min_rejection_sample=10
        ),
    )
    result = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log
    )
    bootstrap = result.bootstrap
    assert bootstrap.halted_reason == "rejection_rate"
    assert bootstrap.halted_at_iteration == 1
    assert bootstrap.iterations == ()
    assert result.triples == bootstrap.seed_triples
    assert result.resilience_counters()["circuit_breaker"] == {
        "rejection_rate": 1
    }


def test_circuit_breaker_disabled_runs_to_completion(vacuum):
    config = replace(
        PipelineConfig(iterations=3),
        veto=VetoConfig(max_value_chars=1),
        health=HealthConfig(
            max_rejection_rate=1.0, yield_collapse_ratio=0.0
        ),
    )
    result = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log
    )
    assert result.bootstrap.halted_reason is None
    assert len(result.bootstrap.iterations) == 3


def _iteration(iteration: int, candidates: int) -> IterationResult:
    return IterationResult(
        iteration=iteration,
        triples=frozenset(),
        new_triples=frozenset(),
        candidate_extractions=candidates,
        veto_stats=None,
        semantic_stats=None,
        dataset_sentences=0,
    )


def test_health_trip_decision_table():
    """The trip predicate, case by case, with default thresholds."""
    boot = Bootstrapper(PipelineConfig())
    empty = _IterationArtifacts(kept_extractions=[], tagged=[])
    # Rejection explosion: 100 candidates, 0 survive cleaning.
    assert boot._health_trip(_iteration(1, 100), empty, []) == (
        "rejection_rate"
    )
    # Below the rejection sample floor: noise, not signal.
    assert boot._health_trip(_iteration(1, 5), empty, []) is None
    # Yield collapse: 100 candidates then 1 (< 100 * 0.02).
    assert boot._health_trip(
        _iteration(2, 1), empty, [_iteration(1, 100)]
    ) == "yield_collapse"
    # Prior iteration too small to diagnose collapse from.
    assert (
        boot._health_trip(_iteration(2, 0), empty, [_iteration(1, 10)])
        is None
    )
    # Breaker off (thresholds that cannot trip): never trips.
    off = Bootstrapper(
        replace(
            PipelineConfig(),
            health=HealthConfig(
                max_rejection_rate=1.0, yield_collapse_ratio=0.0
            ),
        )
    )
    assert off._health_trip(_iteration(1, 100), empty, []) is None
    assert (
        off._health_trip(_iteration(2, 0), empty, [_iteration(1, 100)])
        is None
    )
