"""Tests for CategoryRunner: sweeps on the supervised pool, retries,
worker death, timeouts, and Table I's pool wave."""

import math
import os
import signal
import time

import pytest

from repro.config import PipelineConfig
from repro.errors import ConfigError
from repro.runtime import (
    CategoryRunner,
    RunnerJob,
    ShardWorkerPool,
    default_workers,
    execute_job,
    retry_backoff,
    summarize_outcomes,
)
from repro.runtime import runner as runner_module
from repro.runtime.pool import HEARTBEAT_INTERVAL

pytestmark = pytest.mark.usefixtures("watchdog")

SWEEP_CATEGORIES = ("tennis", "kitchen", "garden", "vacuum_cleaner")


def _sweep_jobs(products=40, iterations=1):
    config = PipelineConfig(iterations=iterations)
    return [
        RunnerJob.generate(category, products, config, data_seed=7)
        for category in SWEEP_CATEGORIES
    ]


def test_job_requires_dataset_or_spec():
    config = PipelineConfig(iterations=1)
    with pytest.raises(ValueError):
        RunnerJob(name="bad", config=config)
    with pytest.raises(ValueError):
        RunnerJob(
            name="bad",
            config=config,
            pages=(),
            query_log=object(),
            category="tennis",
            products=10,
        )


def test_parallel_matches_serial_on_four_categories():
    """The headline determinism contract of the sweep runner."""
    serial = CategoryRunner(workers=1).run(_sweep_jobs())
    parallel = CategoryRunner(workers=4).run(_sweep_jobs())
    assert len(serial) == len(parallel) == len(SWEEP_CATEGORIES)
    for ser, par in zip(serial, parallel):
        assert ser.ok and par.ok
        assert ser.job_name == par.job_name
        # Full structural equality: seed, material, every iteration.
        assert ser.result.bootstrap == par.result.bootstrap
        assert ser.result.triples == par.result.triples


def test_outcomes_in_submission_order():
    outcomes = CategoryRunner(workers=2).run(_sweep_jobs(products=30))
    assert [o.job_name for o in outcomes] == list(SWEEP_CATEGORIES)
    assert [o.index for o in outcomes] == [0, 1, 2, 3]


def test_failed_category_yields_error_record_not_crash():
    config = PipelineConfig(iterations=1)
    jobs = [
        RunnerJob.generate("tennis", 30, config),
        RunnerJob.generate("no_such_category", 30, config),
        RunnerJob.generate("garden", 30, config),
    ]
    outcomes = CategoryRunner(workers=2).run(jobs)
    assert [o.ok for o in outcomes] == [True, False, True]
    failure = outcomes[1].failure
    assert failure is not None
    assert failure.job_name == "no_such_category"
    assert failure.error_type
    assert failure.traceback
    assert outcomes[1].trace is None


def test_execute_job_retries_until_success(monkeypatch):
    attempts = {"n": 0}
    original = RunnerJob.materialize

    def flaky(self):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise OSError("transient")
        return original(self)

    monkeypatch.setattr(RunnerJob, "materialize", flaky)
    job = RunnerJob.generate("tennis", 30, PipelineConfig(iterations=1))
    outcome = execute_job(0, job, retries=2)
    assert outcome.ok
    assert outcome.attempts == 3


def test_execute_job_exhausts_retries(monkeypatch):
    def always_broken(self):
        raise OSError("permanent")

    monkeypatch.setattr(RunnerJob, "materialize", always_broken)
    job = RunnerJob.generate("tennis", 30, PipelineConfig(iterations=1))
    outcome = execute_job(0, job, retries=1)
    assert not outcome.ok
    assert outcome.attempts == 2
    assert outcome.failure.error_type == "OSError"


def test_runner_trace_travels_across_processes():
    outcomes = CategoryRunner(workers=2).run(_sweep_jobs(products=30))
    for outcome in outcomes:
        assert outcome.trace is not None
        assert "tagger_train" in outcome.trace.stage_totals()


def test_empty_job_list():
    assert CategoryRunner().run([]) == []


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    assert default_workers(job_count=2) == 2
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert default_workers() == 1


def test_default_workers_rejects_non_integer_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "banana")
    with pytest.raises(ConfigError, match="banana"):
        default_workers()


def test_runner_validates_deadline_retries_and_backoff():
    """``job_timeout`` is validated; the in-worker retry count and the
    backoff base are module constants, no longer runner options."""
    with pytest.raises(ValueError):
        CategoryRunner(job_timeout=0)
    with pytest.raises(ValueError):
        CategoryRunner(job_timeout=-1.0)
    for option in ("retries", "backoff_base", "mode"):
        with pytest.raises(TypeError):
            CategoryRunner(**{option: 1})
    assert runner_module.JOB_RETRIES == 1
    assert runner_module.JOB_BACKOFF_BASE == 0.05


@pytest.mark.parametrize("timeout", [0, -1, math.nan, math.inf])
def test_runner_rejects_non_finite_or_non_positive_timeout(timeout):
    with pytest.raises(ValueError):
        CategoryRunner(workers=2, job_timeout=timeout)
    with ShardWorkerPool(2) as pool, pytest.raises(ValueError):
        pool.run(_echo, None, range(2), stage="sweep", task_timeout=timeout)


def _echo(context, index):
    return index


def test_retry_backoff_is_deterministic_and_capped():
    schedule = [retry_backoff("tennis", n) for n in (1, 2, 3)]
    assert schedule == [retry_backoff("tennis", n) for n in (1, 2, 3)]
    assert schedule[0] < schedule[1] < schedule[2]
    assert retry_backoff("tennis", 50, cap=2.0) <= 2.0
    assert retry_backoff("tennis", 1, base=0.0) == 0.0


def _kill_own_worker_once(marker, victim):
    """A ``RunnerJob.materialize`` that SIGKILLs the worker running job
    ``victim`` the first time, leaving ``marker`` behind so the
    requeued attempt (a fork of the same parent) runs normally."""
    original = RunnerJob.materialize

    def materialize(self):
        if self.name == victim and not marker.exists():
            marker.write_text("killed")
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self)

    return materialize


def test_sweep_requeues_job_whose_worker_died(tmp_path, monkeypatch):
    """A SIGKILLed sweep worker is respawned and its job requeued; the
    outcome equals a clean run and the summary counts the death."""
    jobs = _sweep_jobs(products=30)[:2]
    clean = CategoryRunner(workers=1).run(jobs)
    monkeypatch.setattr(runner_module, "visible_cpus", lambda: 2)
    monkeypatch.setattr(
        RunnerJob,
        "materialize",
        _kill_own_worker_once(tmp_path / "killed", jobs[1].name),
    )
    runner = CategoryRunner(workers=2)
    outcomes = runner.run(jobs)
    assert (tmp_path / "killed").exists()
    assert [outcome.ok for outcome in outcomes] == [True, True]
    for ours, theirs in zip(outcomes, clean):
        assert ours.result.bootstrap == theirs.result.bootstrap
        assert ours.result.triples == theirs.result.triples
    workers = summarize_outcomes(outcomes, runner.report)["workers"]
    assert workers["deaths"] == workers["requeues"] == 1
    assert workers["respawns"] == 1
    assert workers["poisoned"] == workers["timeouts"] == 0


def test_job_that_always_kills_its_worker_is_written_off(monkeypatch):
    """A job whose worker dies on every attempt is poisoned into a
    structured WorkerDeath failure; its sibling still succeeds."""
    original = RunnerJob.materialize

    def materialize(self):
        if self.name == "doomed":
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self)

    monkeypatch.setattr(runner_module, "visible_cpus", lambda: 2)
    monkeypatch.setattr(RunnerJob, "materialize", materialize)
    config = PipelineConfig(iterations=1)
    jobs = [
        RunnerJob.generate("tennis", 30, config),
        RunnerJob.generate("garden", 30, config, name="doomed"),
    ]
    runner = CategoryRunner(workers=2)
    outcomes = runner.run(jobs)
    assert [outcome.ok for outcome in outcomes] == [True, False]
    failure = outcomes[1].failure
    assert failure.error_type == "WorkerDeath"
    assert failure.attempts == outcomes[1].attempts == 3
    assert "worker_death" in failure.message
    workers = summarize_outcomes(outcomes, runner.report)["workers"]
    assert workers["deaths"] == 3
    assert workers["requeues"] == 2
    assert workers["poisoned"] == 1


def test_hung_job_times_out_within_limit_plus_heartbeat(monkeypatch):
    """A job stuck past ``job_timeout`` is SIGKILLed and written off as
    Timeout within the limit plus one heartbeat interval, without
    waiting for it; its sibling succeeds."""
    original = RunnerJob.materialize

    def materialize(self):
        if self.name == "hung":
            time.sleep(60)
        return original(self)

    monkeypatch.setattr(RunnerJob, "materialize", materialize)
    config = PipelineConfig(iterations=1)
    jobs = [
        RunnerJob.generate("tennis", 30, config, name="hung"),
        RunnerJob.generate("garden", 30, config),
    ]
    limit = 2.0
    runner = CategoryRunner(workers=2, job_timeout=limit)
    start = time.monotonic()
    outcomes = runner.run(jobs)
    elapsed = time.monotonic() - start
    assert [outcome.ok for outcome in outcomes] == [False, True]
    hung = outcomes[0]
    assert hung.failure.error_type == "Timeout"
    assert f"{limit:g}s" in hung.failure.message
    assert limit <= hung.seconds <= limit + HEARTBEAT_INTERVAL
    assert elapsed < 30
    workers = summarize_outcomes(outcomes, runner.report)["workers"]
    assert workers["timeouts"] == 1
    assert workers["deaths"] == workers["requeues"] == 0


def test_pool_workers_job_inside_pooled_sweep_equals_serial(monkeypatch):
    """Sweep jobs run in daemonic pool workers and must not start
    processes: a ``pool_workers=2`` job runs its one-shard bootstrap
    inline and matches the serial sweep."""
    monkeypatch.setattr(runner_module, "visible_cpus", lambda: 2)
    config = PipelineConfig(iterations=1, pool_workers=2)
    jobs = [
        RunnerJob.generate(category, 30, config, data_seed=7)
        for category in SWEEP_CATEGORIES[:2]
    ]
    serial = CategoryRunner(workers=1).run(jobs)
    runner = CategoryRunner(workers=2)
    pooled = runner.run(jobs)
    assert [outcome.ok for outcome in pooled] == [True, True]
    for ours, theirs in zip(pooled, serial):
        assert ours.result.bootstrap == theirs.result.bootstrap
        assert ours.result.triples == theirs.result.triples
    assert runner.report.deaths == 0


def test_table1_rows_from_pool_match_serial_rows(monkeypatch):
    from repro.experiments import table1
    from repro.experiments.common import (
        CORE_CATEGORIES,
        ExperimentSettings,
        clear_cache,
    )

    monkeypatch.setenv("REPRO_WORKERS", "2")
    settings = ExperimentSettings(products=30, iterations=1)
    clear_cache()
    pooled = table1.run(settings).rows
    assert pooled == tuple(
        table1.seed_row(category, settings)
        for category in CORE_CATEGORIES
    )


def test_table1_row_error_reraises_with_its_type(tmp_path, monkeypatch):
    """A row that raises in a pool worker re-raises in the parent with
    its own type (even an OSError), after exactly one attempt."""
    from repro.experiments import table1
    from repro.experiments.common import ExperimentSettings

    log = tmp_path / "calls.log"

    def seed_row(category, settings):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{category}\n")
        if category == "kitchen":
            raise OSError("deterministic row failure")
        return category

    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setattr(table1, "seed_row", seed_row)
    with pytest.raises(OSError, match="deterministic row failure"):
        table1.run(ExperimentSettings(products=30))
    calls = log.read_text(encoding="utf-8").split()
    assert calls.count("kitchen") == 1


def test_process_pool_capped_at_visible_cpus(monkeypatch):
    """Requesting more workers than CPUs must not oversubscribe."""
    monkeypatch.setattr(runner_module, "visible_cpus", lambda: 1)

    def _no_spawn(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("worker spawned despite 1 visible CPU")

    monkeypatch.setattr(ShardWorkerPool, "_spawn", _no_spawn)
    outcomes = CategoryRunner(workers=4).run(_sweep_jobs(products=30)[:2])
    assert [outcome.ok for outcome in outcomes] == [True, True]


def test_deadline_runs_keep_requested_pool(monkeypatch):
    """A job_timeout needs a real pool even on a 1-CPU box."""
    monkeypatch.setattr(runner_module, "visible_cpus", lambda: 1)
    spawned = []
    spawn = ShardWorkerPool._spawn

    def counting_spawn(pool):
        spawned.append(pool.workers)
        return spawn(pool)

    monkeypatch.setattr(ShardWorkerPool, "_spawn", counting_spawn)
    outcomes = CategoryRunner(workers=2, job_timeout=120.0).run(
        _sweep_jobs(products=30)[:2]
    )
    assert [outcome.ok for outcome in outcomes] == [True, True]
    assert spawned == [2, 2]


def test_job_results_carry_no_training_material():
    """A result crosses the process boundary as-is: it holds triples,
    per-iteration records and the trace, never the tokenized corpus or
    the labelled training set, so it pickles smaller than its pages."""
    import pickle

    job = RunnerJob.generate(
        "tennis", 30, PipelineConfig(iterations=1), data_seed=7
    )
    outcome = execute_job(0, job, retries=0)
    assert outcome.ok
    assert len(outcome.result.triples) > 0
    pages, _ = job.materialize()
    assert len(pickle.dumps(outcome.result)) < len(pickle.dumps(pages))
