"""The multi-category sweep: job specs, the in-worker job loop, the runner.

A :class:`RunnerJob` describes one pipeline run: either an explicit
``(pages, query_log)`` dataset or a generator spec (category name +
scale + RNG seed) that the worker materialises locally. Generator-spec
jobs are the cheap way to fan out: a sweep sends its whole job list to
every worker once, so a few ints and strings cross the process
boundary instead of every job's pickled page corpus.

:func:`execute_job` runs one job with bounded retries and converts any
exception into a structured :class:`JobFailure` instead of letting it
propagate — a failed category must never crash the sweep. Between
attempts it backs off with :func:`~repro.runtime.jobs.retry_backoff`,
and an optional in-worker ``timeout`` stops the retry loop from
starting attempts past the job's wall-clock budget.

:class:`CategoryRunner` runs a list of jobs as one wave of the
supervised :class:`~repro.runtime.pool.ShardWorkerPool` and returns one
:class:`JobOutcome` per job **in submission order**, so a sweep is
reproducible run-to-run and identical to serial execution. The pool is
what makes the sweep survive the machine: a job whose worker is
SIGKILLed is requeued on a fresh worker, a job that keeps killing its
worker becomes ``JobFailure(error_type="WorkerDeath")``, and with a
``job_timeout`` a worker stuck on one job past the budget is SIGKILLed
and the job written off as ``JobFailure(error_type="Timeout")``.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Sequence

from ..config import PipelineConfig
from ..errors import ConfigError, JobTimeoutError
from ..types import ProductPage
from .jobs import retry_backoff
from .pool import (
    PoolReport,
    ShardFailure,
    ShardWorkerPool,
    check_task_timeout,
)
from .trace import PipelineTrace

#: Extra in-worker attempts a failed sweep job gets.
JOB_RETRIES = 1

#: Backoff in seconds before a sweep job's first retry (doubles per
#: retry, deterministic jitter; see :func:`retry_backoff`).
JOB_BACKOFF_BASE = 0.05

#: The sweep wave's :class:`PoolReport` tallies a summary carries.
_POOL_COUNTS = ("deaths", "respawns", "requeues", "poisoned", "timeouts")


@dataclass(frozen=True)
class RunnerJob:
    """One category run in a sweep.

    Exactly one of (``pages`` + ``query_log``) or ``category`` must be
    provided. ``products``/``data_seed`` only apply to generator-spec
    jobs.
    """

    name: str
    config: PipelineConfig
    attribute_subset: tuple[str, ...] | None = None
    pages: tuple[ProductPage, ...] | None = None
    query_log: object | None = None
    category: str | None = None
    products: int | None = None
    data_seed: int = 7
    #: Optional per-job checkpoint directory: the worker snapshots each
    #: completed bootstrap iteration there, so a retried (or re-run)
    #: job resumes instead of recomputing finished cycles.
    checkpoint_dir: str | None = None
    resume: bool = True
    #: Optional :class:`~repro.runtime.faults.FaultPlan` injected into
    #: the worker's pipeline run (chaos testing). The plan's exhaustion
    #: state is shared across this job's in-worker retry attempts, so a
    #: ``times``-bounded fault hit on attempt 1 is absent on attempt 2
    #: — exactly how a transient production fault behaves.
    faults: object | None = None

    def __post_init__(self) -> None:
        has_dataset = self.pages is not None
        has_spec = self.category is not None
        if has_dataset == has_spec:
            raise ValueError(
                "RunnerJob needs either pages+query_log or a category "
                "generator spec, not both"
            )
        if has_dataset and self.query_log is None:
            raise ValueError("RunnerJob with pages also needs a query_log")

    @classmethod
    def from_dataset(
        cls,
        name: str,
        pages: Sequence[ProductPage],
        query_log: object,
        config: PipelineConfig,
        attribute_subset: Sequence[str] | None = None,
    ) -> "RunnerJob":
        """A job over an explicit page collection."""
        return cls(
            name=name,
            config=config,
            attribute_subset=(
                tuple(attribute_subset)
                if attribute_subset is not None
                else None
            ),
            pages=tuple(pages),
            query_log=query_log,
        )

    @classmethod
    def generate(
        cls,
        category: str,
        products: int,
        config: PipelineConfig,
        *,
        data_seed: int = 7,
        attribute_subset: Sequence[str] | None = None,
        name: str | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = True,
    ) -> "RunnerJob":
        """A job whose dataset the worker generates from a spec."""
        return cls(
            name=name or category,
            config=config,
            attribute_subset=(
                tuple(attribute_subset)
                if attribute_subset is not None
                else None
            ),
            category=category,
            products=products,
            data_seed=data_seed,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )

    def materialize(self) -> tuple[tuple[ProductPage, ...], object]:
        """The (pages, query_log) this job runs over."""
        if self.pages is not None:
            return self.pages, self.query_log
        from ..corpus import Marketplace

        dataset = Marketplace(seed=self.data_seed).generate(
            self.category, self.products
        )
        return dataset.product_pages, dataset.query_log


@dataclass(frozen=True)
class JobFailure:
    """Structured record of a job that exhausted its retries."""

    job_name: str
    error_type: str
    message: str
    traceback: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"{self.job_name}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt(s))"
        )


@dataclass(frozen=True)
class JobOutcome:
    """Result slot of one job, in submission order.

    Exactly one of ``result``/``failure`` is set.
    """

    index: int
    job_name: str
    result: object | None  # PipelineResult, annotated loosely to avoid cycle
    failure: JobFailure | None
    seconds: float
    attempts: int

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def trace(self) -> PipelineTrace | None:
        """The run's trace (None for failed jobs)."""
        return None if self.result is None else self.result.trace


def execute_job(
    index: int,
    job: RunnerJob,
    retries: int = JOB_RETRIES,
    timeout: float | None = None,
    backoff_base: float = JOB_BACKOFF_BASE,
) -> JobOutcome:
    """Run one job, retrying on failure, never raising.

    Args:
        index: submission position (preserved for deterministic result
            ordering).
        job: the job spec.
        retries: extra attempts after the first failure.
        timeout: in-worker wall-clock budget across all attempts; once
            elapsed, no further attempt (or backoff sleep) starts and
            the outcome records a structured ``Timeout`` failure. The
            budget cannot interrupt a stuck attempt mid-flight — that
            is the pool's per-task limit's job.
        backoff_base: first-retry backoff in seconds (doubles per
            retry, deterministic jitter; see :func:`retry_backoff`).
            ``0`` disables backoff.

    Returns:
        A :class:`JobOutcome` carrying either the
        :class:`~repro.core.pipeline.PipelineResult` or a
        :class:`JobFailure`.
    """
    from ..core.pipeline import PAEPipeline

    attempts = 0
    start = time.perf_counter()
    last_failure: JobFailure | None = None
    while attempts <= retries:
        elapsed = time.perf_counter() - start
        if timeout is not None and attempts > 0 and elapsed >= timeout:
            error = JobTimeoutError(job.name, timeout)
            last_failure = JobFailure(
                job_name=job.name,
                error_type="Timeout",
                message=(
                    f"{error}; gave up after {attempts} attempt(s), "
                    f"last error: {last_failure.error_type}: "
                    f"{last_failure.message}"
                    if last_failure is not None
                    else str(error)
                ),
                traceback=(
                    last_failure.traceback
                    if last_failure is not None
                    else ""
                ),
                attempts=attempts,
            )
            break
        if attempts > 0 and backoff_base > 0:
            delay = retry_backoff(job.name, attempts, base=backoff_base)
            if timeout is not None:
                delay = min(delay, max(0.0, timeout - elapsed))
            if delay > 0:
                time.sleep(delay)
        attempts += 1
        try:
            pages, query_log = job.materialize()
            pipeline = PAEPipeline(job.config, job.attribute_subset)
            trace = PipelineTrace(label=job.name)
            result = pipeline.run(
                pages,
                query_log,
                trace=trace,
                checkpoint_dir=job.checkpoint_dir,
                # Only the first attempt honours resume=False: once this
                # invocation has begun a fresh checkpointed run, its own
                # retries must resume it, not wipe it again.
                resume=job.resume or attempts > 1,
                faults=job.faults,
            )
            return JobOutcome(
                index=index,
                job_name=job.name,
                result=result,
                failure=None,
                seconds=time.perf_counter() - start,
                attempts=attempts,
            )
        except Exception as error:  # noqa: BLE001 - sweeps must not crash
            last_failure = JobFailure(
                job_name=job.name,
                error_type=type(error).__name__,
                message=str(error),
                traceback=traceback.format_exc(),
                attempts=attempts,
            )
    return JobOutcome(
        index=index,
        job_name=job.name,
        result=None,
        failure=last_failure,
        seconds=time.perf_counter() - start,
        attempts=attempts,
    )


def visible_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def default_workers(job_count: int | None = None) -> int:
    """A sensible worker count: CPUs visible to this process, capped.

    Honours the ``REPRO_WORKERS`` environment variable when set;
    ``REPRO_WORKERS=0`` (or 1) forces serial execution. A value that is
    not an integer raises :class:`~repro.errors.ConfigError` naming the
    offending value.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        text = env.strip()
        if not text:
            workers = 1
        else:
            try:
                value = int(text)
            except ValueError:
                raise ConfigError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
            workers = max(1, value)
    else:
        workers = visible_cpus()
    if job_count is not None:
        workers = min(workers, max(1, job_count))
    return workers


def summarize_outcomes(
    outcomes: Sequence[JobOutcome], report: PoolReport | None = None
) -> dict:
    """Aggregate sweep health across a runner's outcomes.

    One dict a sweep driver can print or log: job success/failure
    census, every structured failure line, the dirty-input containment
    totals merged across jobs — pages quarantined per gate check, pages
    repaired per check, circuit-breaker trips per reason, and which
    jobs a breaker halted early — and, under ``"workers"``, the sweep
    wave's worker deaths, respawns, requeues, poisoned jobs and
    timeouts from ``report`` (:attr:`CategoryRunner.report`). Failed
    jobs contribute their failure line only; nothing here ever raises
    on a partial sweep.
    """
    report = report or PoolReport()
    summary: dict = {
        "jobs": len(outcomes),
        "succeeded": sum(1 for outcome in outcomes if outcome.ok),
        "failed": sum(1 for outcome in outcomes if not outcome.ok),
        "failures": [
            str(outcome.failure)
            for outcome in outcomes
            if outcome.failure is not None
        ],
        "quarantined": {},
        "repaired": {},
        "circuit_breaker": {},
        "halted_jobs": [],
        "workers": {name: getattr(report, name) for name in _POOL_COUNTS},
    }
    for outcome in outcomes:
        result = outcome.result
        if result is None:
            continue
        counters = (
            result.resilience_counters()
            if hasattr(result, "resilience_counters")
            else {}
        )
        for key in ("quarantined", "repaired", "circuit_breaker"):
            for name, count in counters.get(key, {}).items():
                summary[key][name] = summary[key].get(name, 0) + count
        bootstrap = getattr(result, "bootstrap", None)
        if bootstrap is not None and bootstrap.halted_reason is not None:
            summary["halted_jobs"].append(
                {
                    "job": outcome.job_name,
                    "reason": bootstrap.halted_reason,
                    "iteration": bootstrap.halted_at_iteration,
                }
            )
    return summary


def _run_job(context: tuple, index: int) -> JobOutcome:
    """Pool task: run job ``index`` of the wave's ``(jobs, timeout)``."""
    jobs, timeout = context
    return execute_job(index, jobs[index], timeout=timeout)


def _written_off(
    index: int,
    job: RunnerJob,
    failure: ShardFailure,
    job_timeout: float | None,
) -> JobOutcome:
    """The outcome of a job the pool gave up on (no result came back)."""
    if failure.reason == "timeout":
        error_type = "Timeout"
        message = str(JobTimeoutError(job.name, job_timeout))
    else:
        error_type = "WorkerDeath"
        message = (
            f"its worker died on every attempt ({failure.reason}: "
            f"{failure.detail})"
        )
    return JobOutcome(
        index=index,
        job_name=job.name,
        result=None,
        failure=JobFailure(
            job_name=job.name,
            error_type=error_type,
            message=message,
            traceback="",
            attempts=failure.attempts,
        ),
        seconds=failure.seconds,
        attempts=failure.attempts,
    )


class CategoryRunner:
    """Run many category pipelines as one supervised pool wave.

    Args:
        workers: pool size; None resolves via :func:`default_workers`
            at ``run()`` time. ``<= 1`` runs the jobs inline, in order.
            Without a ``job_timeout`` the pool is also capped at
            :func:`visible_cpus` — CPU-bound workers beyond the visible
            CPUs only thrash; a deadline-bearing run keeps its
            requested pool, because only a pooled worker can be killed
            when it hangs.
        job_timeout: per-job wall-clock budget in seconds, enforced
            twice: inside the worker (no new attempt starts past it)
            and by the pool (a worker still busy on the job past the
            budget is SIGKILLed and the job written off as a
            ``Timeout`` failure). Must be finite and positive; None
            disables deadlines.

    After :meth:`run`, :attr:`report` holds the wave's
    :class:`~repro.runtime.pool.PoolReport` (pass it to
    :func:`summarize_outcomes`).
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        job_timeout: float | None = None,
    ):
        check_task_timeout(job_timeout)
        self.workers = workers
        self.job_timeout = job_timeout
        self.report = PoolReport()

    def run(self, jobs: Sequence[RunnerJob]) -> list[JobOutcome]:
        """Execute every job; outcomes come back in submission order."""
        jobs = list(jobs)
        self.report = PoolReport()
        if not jobs:
            return []
        workers = (
            default_workers(len(jobs))
            if self.workers is None
            else min(self.workers, len(jobs))
        )
        if self.job_timeout is None:
            workers = min(workers, visible_cpus())
        with ShardWorkerPool(workers) as pool:
            results, failures, self.report = pool.run(
                _run_job,
                (jobs, self.job_timeout),
                range(len(jobs)),
                stage="sweep",
                task_timeout=self.job_timeout,
            )
        return [
            results[index]
            if index in results
            else _written_off(
                index, job, failures[index], self.job_timeout
            )
            for index, job in enumerate(jobs)
        ]
