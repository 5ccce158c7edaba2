"""Job specifications and the worker entry point for category sweeps.

A :class:`RunnerJob` describes one pipeline run: either an explicit
``(pages, query_log)`` dataset or a generator spec (category name +
scale + RNG seed) that the worker materialises locally. Generator-spec
jobs are the cheap way to fan out over a process pool — a few ints and
strings cross the process boundary instead of a pickled page corpus.

``execute_job`` is a module-level function (so it pickles by reference
into worker processes) that runs one job with bounded retries and
converts any exception into a structured :class:`JobFailure` instead of
letting it propagate — a failed category must never crash the sweep.
Between attempts it backs off exponentially with *deterministic*
jitter (a CRC of the job name and attempt number, not wall-clock
entropy), so retry schedules are reproducible run-to-run while distinct
jobs still decorrelate. An optional in-worker ``timeout`` stops the
retry loop from starting attempts past the job's wall-clock budget.
"""

from __future__ import annotations

import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Sequence

from ..config import PipelineConfig
from ..errors import JobTimeoutError
from ..types import ProductPage
from .trace import PipelineTrace


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


@dataclass(frozen=True)
class Deadline:
    """A monotonic wall-clock budget shared across pipeline stages.

    The serve path threads one :class:`Deadline` through admission,
    batching and tagging so every stage can cheaply ask "is there time
    left?" — a blown deadline becomes a structured
    :class:`~repro.errors.JobTimeoutError`, never a hung socket.
    """

    expires_at: float
    budget_seconds: float

    @classmethod
    def after(cls, budget_seconds: float) -> "Deadline":
        """A deadline ``budget_seconds`` from now."""
        return cls(
            expires_at=time.monotonic() + budget_seconds,
            budget_seconds=budget_seconds,
        )

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def error(self, job_name: str) -> JobTimeoutError:
        """The structured timeout this deadline produces when blown."""
        return JobTimeoutError(job_name, self.budget_seconds)


def retry_backoff(
    job_name: str,
    attempt: int,
    base: float = 0.05,
    cap: float = 2.0,
) -> float:
    """Backoff before retry number ``attempt`` (1-based), in seconds.

    Exponential in the attempt number, capped, with deterministic
    jitter in ``[0.5, 1.0)`` of the raw delay derived from a CRC of
    ``(job_name, attempt)`` — the schedule is reproducible for a given
    job yet decorrelated across jobs, so a sweep's retries do not
    stampede in lockstep. Pure and lock-free: concurrent callers (the
    serve daemon computes shed ``Retry-After`` hints from worker
    threads) always observe identical values for identical inputs.
    """
    if base <= 0:
        return 0.0
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    seed = zlib.crc32(f"{job_name}:{attempt}".encode("utf-8"))
    jitter = 0.5 + 0.5 * ((seed % 10_000) / 10_000.0)
    return raw * jitter


def execute_job(
    index: int,
    job: RunnerJob,
    retries: int = 1,
    timeout: float | None = None,
    backoff_base: float = 0.05,
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
            is the runner's pool-level deadline's job.
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
