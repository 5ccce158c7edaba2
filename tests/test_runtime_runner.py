"""Tests for CategoryRunner: parallel sweeps, retries, degradation."""

from concurrent.futures import Future

import pytest

from repro.config import PipelineConfig
from repro.errors import ConfigError
from repro.runtime import (
    CategoryRunner,
    JobOutcome,
    RunnerJob,
    default_workers,
    execute_job,
    parallel_map,
    retry_backoff,
)

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
    serial = CategoryRunner(mode="serial").run(_sweep_jobs())
    parallel = CategoryRunner(workers=4, mode="process").run(_sweep_jobs())
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
    outcomes = CategoryRunner(workers=2, retries=0).run(jobs)
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


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        CategoryRunner(mode="coroutine")


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    assert default_workers(job_count=2) == 2
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert default_workers() == 1


def test_parallel_map_preserves_order():
    assert parallel_map(str.upper, ["a", "b", "c"], workers=2) == [
        "A",
        "B",
        "C",
    ]
    assert parallel_map(str.upper, [], workers=2) == []


def test_default_workers_rejects_non_integer_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "banana")
    with pytest.raises(ConfigError, match="banana"):
        default_workers()


def test_runner_validates_deadline_retries_and_backoff():
    with pytest.raises(ValueError):
        CategoryRunner(job_timeout=0)
    with pytest.raises(ValueError):
        CategoryRunner(job_timeout=-1.0)
    with pytest.raises(ValueError):
        CategoryRunner(backoff_base=-0.1)
    with pytest.raises(ValueError):
        CategoryRunner(retries=-1)


def test_retry_backoff_is_deterministic_and_capped():
    schedule = [retry_backoff("tennis", n) for n in (1, 2, 3)]
    assert schedule == [retry_backoff("tennis", n) for n in (1, 2, 3)]
    assert schedule[0] < schedule[1] < schedule[2]
    assert retry_backoff("tennis", 50, cap=2.0) <= 2.0
    assert retry_backoff("tennis", 1, base=0.0) == 0.0


def _failed_future(error: Exception) -> Future:
    future: Future = Future()
    future.set_exception(error)
    return future


def test_collect_pool_fault_recovers_inline():
    """A worker that died of a pool-level fault gets one inline retry."""
    runner = CategoryRunner(workers=2, backoff_base=0.0)
    job = RunnerJob.generate("tennis", 30, PipelineConfig(iterations=1))
    outcome = runner._collect(
        0, job, _failed_future(RuntimeError("pool died"))
    )
    assert outcome.ok
    assert outcome.result is not None


def test_collect_merges_pool_and_inline_failures():
    """When the inline retry fails too, the merged failure keeps the
    inline root cause, notes the pool fault, and counts both attempts."""
    runner = CategoryRunner(workers=2, backoff_base=0.0)
    job = RunnerJob.generate(
        "no_such_category", 30, PipelineConfig(iterations=1)
    )
    outcome = runner._collect(
        0, job, _failed_future(RuntimeError("pool died"))
    )
    assert not outcome.ok
    failure = outcome.failure
    assert failure.attempts == 2
    assert outcome.attempts == 2
    # The inline error is the root cause; the pool fault is context.
    assert failure.error_type != "RuntimeError"
    assert "worker pool fault: RuntimeError: pool died" in failure.message
    assert failure.traceback


def _record_and_maybe_raise(item):
    path, index = item
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{index}\n")
    if index == 1:
        raise OSError("deterministic item failure")
    return index * 10


def test_parallel_map_item_error_raises_without_serial_rerun(tmp_path):
    """A deterministic per-item failure surfaces with its original type
    (even an OSError, the pool-degradation trigger) after exactly one
    guarded inline retry — never a full serial re-run of every item."""
    path = str(tmp_path / "calls.log")
    items = [(path, 0), (path, 1), (path, 2)]
    with pytest.raises(OSError, match="deterministic item failure"):
        parallel_map(_record_and_maybe_raise, items, workers=2)
    with open(path, encoding="utf-8") as handle:
        calls = [int(line) for line in handle.read().split()]
    assert calls.count(1) == 2  # pool attempt + guarded inline retry
    assert calls.count(0) == 1  # healthy items never re-run


def test_process_pool_capped_at_visible_cpus(monkeypatch):
    """Requesting more workers than CPUs must not oversubscribe."""
    from repro.runtime import runner as runner_module

    monkeypatch.setattr(runner_module, "visible_cpus", lambda: 1)

    def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("pool built despite 1 visible CPU")

    monkeypatch.setattr(
        runner_module, "ProcessPoolExecutor", _no_pool
    )
    outcomes = CategoryRunner(workers=4, mode="process").run(
        _sweep_jobs(products=30)[:2]
    )
    assert [outcome.ok for outcome in outcomes] == [True, True]


def test_deadline_runs_keep_requested_pool(monkeypatch):
    """A job_timeout needs a real pool even on a 1-CPU box."""
    from repro.runtime import runner as runner_module

    monkeypatch.setattr(runner_module, "visible_cpus", lambda: 1)
    outcomes = CategoryRunner(
        workers=2, mode="process", job_timeout=120.0
    ).run(_sweep_jobs(products=30)[:2])
    assert [outcome.ok for outcome in outcomes] == [True, True]


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
