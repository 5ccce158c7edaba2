"""Chaos suite: the full pipeline under deterministic fault plans.

Every test asserts one of the two acceptable outcomes of a fault:

* **full recovery** — the retry path absorbs the fault and the output
  is bit-identical to a fault-free run; or
* **clean structured degradation** — the run (or sweep) completes with
  per-stage fault/retry/skip counters on the trace and
  ``PipelineResult.resilience_counters()``, or the job is written off
  as a structured :class:`JobFailure` — never a crashed sweep, never a
  silent wrong answer.

Run standalone via ``make chaos``. The ``watchdog`` fixture kills any
test that wedges instead of failing.
"""

import time

import pytest

from repro import PAEPipeline, PipelineConfig
from repro.corpus import Marketplace
from repro.errors import ConfigError, FaultInjectionError
from repro.runtime import (
    CategoryRunner,
    FaultPlan,
    FaultSpec,
    RunnerJob,
    execute_job,
    retry_backoff,
)

pytestmark = pytest.mark.usefixtures("watchdog")

CONFIG = PipelineConfig(iterations=2)


@pytest.fixture(scope="module")
def vacuum():
    # vacuum_cleaner at this scale exercises every stage, including the
    # optional cleaning pair (tiny categories can finish an iteration
    # with zero extractions, which skips semantic cleaning legitimately).
    return Marketplace(seed=7).generate("vacuum_cleaner", 40)


@pytest.fixture(scope="module")
def fault_free(vacuum):
    return PAEPipeline(CONFIG).run(vacuum.product_pages, vacuum.query_log)


# -- full recovery -------------------------------------------------------


@pytest.mark.parametrize(
    "stage",
    ["shard_prep", "seed_build", "tagger_train", "tagger_tag",
     "fold_dataset"],
)
def test_single_fault_recovered_bit_identically(vacuum, fault_free, stage):
    """One transient fault at any mandatory stage: the stage retry
    absorbs it and output equals the fault-free run exactly."""
    plan = FaultPlan([FaultSpec(stage=stage, times=1)], seed=3)
    result = PAEPipeline(CONFIG).run(
        vacuum.product_pages, vacuum.query_log, faults=plan
    )
    assert result.triples == fault_free.triples
    assert result.bootstrap == fault_free.bootstrap
    counters = result.resilience_counters()
    assert counters["faults"] == {stage: 1}
    assert counters["retries"] == {stage: 1}
    assert counters["skips"] == {}
    assert plan.total_injected == 1


def test_job_level_retry_recovers_from_exhausted_stage(vacuum, fault_free):
    """A fault that outlives the stage retry still recovers one level
    up: execute_job's second attempt runs against the exhausted plan."""
    plan = FaultPlan([FaultSpec(stage="tagger_train", times=2)])
    job = RunnerJob.from_dataset(
        "vacuum_cleaner", vacuum.product_pages, vacuum.query_log, CONFIG
    )
    job = RunnerJob(
        name=job.name,
        config=job.config,
        pages=job.pages,
        query_log=job.query_log,
        faults=plan,
    )
    outcome = execute_job(0, job, retries=1, backoff_base=0.01)
    assert outcome.ok
    assert outcome.attempts == 2
    assert outcome.result.triples == fault_free.triples


# -- clean structured degradation ---------------------------------------


def test_persistent_mandatory_fault_degrades_to_job_failure(vacuum):
    plan = FaultPlan([FaultSpec(stage="tagger_train", times=None)])
    job = RunnerJob(
        name="vacuum_cleaner",
        config=CONFIG,
        pages=vacuum.product_pages,
        query_log=vacuum.query_log,
        faults=plan,
    )
    outcome = execute_job(0, job, retries=1, backoff_base=0.01)
    assert not outcome.ok
    assert outcome.attempts == 2
    assert outcome.failure.error_type == "FaultInjectionError"
    assert "tagger_train" in outcome.failure.message


def test_persistent_optional_stage_fault_skips_cleaning(vacuum):
    """Cleaning stages degrade to a counted skip, not a dead run."""
    plan = FaultPlan([FaultSpec(stage="semantic_clean", times=None)])
    result = PAEPipeline(CONFIG).run(
        vacuum.product_pages, vacuum.query_log, faults=plan
    )
    assert len(result.triples) > 0
    counters = result.resilience_counters()
    assert counters["skips"] == {"semantic_clean": CONFIG.iterations}
    # Skipped cleaning shows up structurally too.
    assert all(
        record.semantic_stats is None
        for record in result.bootstrap.iterations
    )


def test_corrupted_pages_degrade_not_crash(vacuum):
    plan = FaultPlan(
        [FaultSpec(stage="corpus", kind="corrupt_pages",
                   corrupt_fraction=0.3)],
        seed=5,
    )
    result = PAEPipeline(CONFIG).run(
        vacuum.product_pages, vacuum.query_log, faults=plan
    )
    counters = result.resilience_counters()
    assert counters["pages_corrupted"] == round(
        0.3 * len(vacuum.product_pages)
    )
    # Mangled HTML never invents phantom products.
    ids = {page.product_id for page in vacuum.product_pages}
    assert {t.product_id for t in result.triples} <= ids


def test_corruption_is_deterministic(vacuum):
    def run(seed):
        plan = FaultPlan(
            [FaultSpec(stage="corpus", kind="corrupt_pages",
                       corrupt_fraction=0.2)],
            seed=seed,
        )
        return PAEPipeline(CONFIG).run(
            vacuum.product_pages, vacuum.query_log, faults=plan
        )

    assert run(5).bootstrap == run(5).bootstrap


def test_sweep_survives_mixed_fault_plans(vacuum):
    """A whole sweep under chaos: one healthy job, one recovering job,
    one doomed job — outcomes stay structured and ordered."""
    doomed = FaultPlan([FaultSpec(stage="tagger_train", times=None)])
    recovering = FaultPlan([FaultSpec(stage="tagger_tag", times=1)])
    jobs = [
        RunnerJob(name="healthy", config=CONFIG,
                  pages=vacuum.product_pages, query_log=vacuum.query_log),
        RunnerJob(name="recovering", config=CONFIG,
                  pages=vacuum.product_pages, query_log=vacuum.query_log,
                  faults=recovering),
        RunnerJob(name="doomed", config=CONFIG,
                  pages=vacuum.product_pages, query_log=vacuum.query_log,
                  faults=doomed),
    ]
    outcomes = CategoryRunner(workers=2).run(jobs)
    assert [o.job_name for o in outcomes] == [
        "healthy", "recovering", "doomed",
    ]
    assert [o.ok for o in outcomes] == [True, True, False]
    assert outcomes[0].result.triples == outcomes[1].result.triples
    assert outcomes[2].failure.error_type == "FaultInjectionError"


# -- deadlines ----------------------------------------------------------


def test_delay_fault_with_deadline_becomes_timeout(vacuum):
    """A hung stage + job deadline = structured Timeout, live sweep."""
    hung = FaultPlan(
        [FaultSpec(stage="shard_prep", kind="delay", delay_seconds=8.0,
                   times=None)]
    )
    jobs = [
        RunnerJob(name="hung", config=CONFIG,
                  pages=vacuum.product_pages, query_log=vacuum.query_log,
                  faults=hung),
        RunnerJob(name="healthy", config=CONFIG,
                  pages=vacuum.product_pages, query_log=vacuum.query_log),
    ]
    start = time.perf_counter()
    outcomes = CategoryRunner(workers=2, job_timeout=2.5).run(jobs)
    elapsed = time.perf_counter() - start
    assert [o.ok for o in outcomes] == [False, True]
    failure = outcomes[0].failure
    assert failure.error_type == "Timeout"
    assert "2.5" in failure.message
    # The sweep never joined the wedged worker.
    assert elapsed < 8.0


def test_in_worker_deadline_stops_retry_loop(vacuum):
    """The in-worker budget halts retries even when each attempt fails
    fast: no attempt starts past the deadline."""
    plan = FaultPlan([FaultSpec(stage="shard_prep", times=None)])
    job = RunnerJob(name="vacuum_cleaner", config=CONFIG,
                    pages=vacuum.product_pages,
                    query_log=vacuum.query_log, faults=plan)
    outcome = execute_job(
        0, job, retries=50, timeout=0.15, backoff_base=1.0
    )
    assert not outcome.ok
    assert outcome.failure.error_type == "Timeout"
    assert outcome.attempts < 51
    assert "FaultInjectionError" in outcome.failure.message


# -- harness determinism ------------------------------------------------


def test_probabilistic_injection_is_seed_deterministic():
    def decisions(seed):
        plan = FaultPlan(
            [FaultSpec(stage="s", probability=0.5, times=None)],
            seed=seed,
        )
        fired = []
        for _ in range(64):
            try:
                plan.fire("s")
                fired.append(False)
            except FaultInjectionError:
                fired.append(True)
        return fired

    first = decisions(3)
    assert first == decisions(3)
    assert any(first) and not all(first)
    assert first != decisions(4)


def test_backoff_is_deterministic_and_exponential():
    delays = [retry_backoff("tennis", attempt) for attempt in (1, 2, 3)]
    assert delays == [
        retry_backoff("tennis", attempt) for attempt in (1, 2, 3)
    ]
    assert delays[0] < delays[1] < delays[2]
    # Jitter decorrelates distinct jobs.
    assert retry_backoff("garden", 1) != retry_backoff("tennis", 1)
    assert retry_backoff("tennis", 1, base=0.0) == 0.0


def test_fault_spec_validation():
    with pytest.raises(ConfigError):
        FaultSpec(stage="s", kind="meteor")
    with pytest.raises(ConfigError):
        FaultSpec(stage="s", probability=1.5)
    with pytest.raises(ConfigError):
        FaultSpec(stage="s", times=0)
    with pytest.raises(ConfigError):
        FaultSpec(stage="s", delay_seconds=-1.0)
    with pytest.raises(ConfigError):
        FaultSpec(stage="s", corrupt_fraction=2.0)


def test_iteration_scoped_fault_only_fires_there():
    plan = FaultPlan(
        [FaultSpec(stage="s", iteration=2, times=None)]
    )
    plan.fire("s", iteration=1)
    plan.fire("s", iteration=None)
    with pytest.raises(FaultInjectionError):
        plan.fire("s", iteration=2)
    assert plan.injected == {("s", "error"): 1}
