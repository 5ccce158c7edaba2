"""Micro-batching for the serve hot path, with per-request isolation.

Concurrent requests that resolved to the *same model bundle* are
gathered (up to ``max_size`` jobs or ``max_wait_seconds``, whichever
comes first) into one ``tagger.tag()`` call — the tagger internally
length-buckets via :mod:`repro.perf.bucketing`, so a combined batch
amortises feature extraction and padding across requests.

The failure contract is strict per-request isolation: when a combined
batch raises (a strict-decode :class:`~repro.errors.ModelError` on one
dropped sentence, an injected :class:`~repro.errors.WorkerDeathError`),
the batcher **retries every job individually** so exactly the faulty
request fails with a structured error and its batch-mates still get
their results. One bad sentence never takes down its micro-batch.

Jobs whose deadline expired while queued are dropped with a structured
timeout before any model work is spent on them.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..errors import (
    FaultInjectionError,
    JobTimeoutError,
    ModelError,
    WorkerDeathError,
)
from ..runtime.jobs import Deadline
from ..types import Sentence, TaggedSentence

#: Model failures: retrying jobs individually can rescue batch-mates,
#: and the server falls to the next ladder rung on any of them.
ISOLATABLE = (ModelError, WorkerDeathError, FaultInjectionError)


class BatchJob:
    """One request's unit of model work, owned by the batcher."""

    __slots__ = (
        "bundle",
        "sentences",
        "deadline",
        "faults",
        "stage",
        "result",
        "error",
        "_done",
    )

    def __init__(
        self,
        bundle,
        sentences: Sequence[Sentence],
        deadline: Deadline,
        faults=None,
        stage: str = "serve_tag",
    ):
        self.bundle = bundle
        self.sentences = list(sentences)
        self.deadline = deadline
        self.faults = faults
        self.stage = stage
        self.result: list[TaggedSentence] | None = None
        self.error: Exception | None = None
        self._done = threading.Event()

    def finish(
        self,
        result: list[TaggedSentence] | None = None,
        error: Exception | None = None,
    ) -> None:
        self.result = result
        self.error = error
        self._done.set()

    def wait(self, timeout: float) -> bool:
        """Block until resolved; False when the wait itself timed out."""
        return self._done.wait(timeout)


class MicroBatcher:
    """A single worker thread draining a queue of :class:`BatchJob`.

    Args:
        max_size: most jobs merged into one ``tag()`` call.
        max_wait_seconds: how long the worker lingers after the first
            job arrives, gathering batch-mates, before tagging. Kept
            tiny (milliseconds) — it trades a sliver of p50 for large
            p99/throughput wins under concurrency.
    """

    def __init__(self, max_size: int = 16, max_wait_seconds: float = 0.005):
        self.max_size = max(1, max_size)
        self.max_wait_seconds = max(0.0, max_wait_seconds)
        self._cond = threading.Condition()
        self._queue: list[BatchJob] = []
        self._running = True
        #: Counters surfaced through /stats.
        self.batches = 0
        self.batched_jobs = 0
        self.isolated_retries = 0
        self.deadline_drops = 0
        self._worker = threading.Thread(
            target=self._run, name="serve-batcher", daemon=True
        )
        self._worker.start()

    # -- producer side -------------------------------------------------

    def submit(self, job: BatchJob) -> BatchJob:
        with self._cond:
            if not self._running:
                job.finish(error=RuntimeError("batcher is shut down"))
                return job
            self._queue.append(job)
            self._cond.notify_all()
        return job

    def close(self) -> None:
        with self._cond:
            self._running = False
            pending = self._queue[:]
            self._queue.clear()
            self._cond.notify_all()
        for job in pending:
            job.finish(error=RuntimeError("batcher is shut down"))
        self._worker.join(timeout=5.0)

    # -- worker side ---------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._gather()
            if batch is None:
                return
            if batch:
                self._execute(batch)

    def _gather(self) -> list[BatchJob] | None:
        """Block for a first job, linger briefly for same-bundle mates."""
        with self._cond:
            while self._running and not self._queue:
                self._cond.wait()
            if not self._running:
                return None
            lead = self._queue[0]
            if self.max_wait_seconds > 0 and len(self._queue) < self.max_size:
                # Linger once for batch-mates; bounded, not re-armed.
                self._cond.wait(self.max_wait_seconds)
                if not self._running:
                    return None
            batch: list[BatchJob] = []
            rest: list[BatchJob] = []
            for job in self._queue:
                if (
                    job.bundle is lead.bundle
                    and len(batch) < self.max_size
                ):
                    batch.append(job)
                else:
                    rest.append(job)
            self._queue = rest
            if rest:
                self._cond.notify_all()
            return batch

    def _execute(self, batch: list[BatchJob]) -> None:
        live: list[BatchJob] = []
        for job in batch:
            if job.deadline.expired:
                self.deadline_drops += 1
                job.finish(error=job.deadline.error("serve-extract"))
            else:
                live.append(job)
        if not live:
            return
        self.batches += 1
        self.batched_jobs += len(live)
        try:
            results = self._tag_combined(live)
        except ISOLATABLE:
            # Combined batch poisoned — isolate: each job retried
            # alone, so only the faulty request(s) fail.
            self.isolated_retries += 1
            self._tag_isolated(live)
            return
        except Exception as error:  # defensive: never hang a waiter
            for job in live:
                job.finish(error=error)
            return
        for job, tagged in zip(live, results):
            job.finish(result=tagged)

    @staticmethod
    def _fire_faults(jobs: list[BatchJob]) -> None:
        for job in jobs:
            if job.faults is not None:
                job.faults.fire(job.stage)

    def _tag_combined(
        self, jobs: list[BatchJob]
    ) -> list[list[TaggedSentence]]:
        self._fire_faults(jobs)
        bundle = jobs[0].bundle
        sentences = [s for job in jobs for s in job.sentences]
        tagged = list(bundle.tagger.tag(sentences))
        results: list[list[TaggedSentence]] = []
        cursor = 0
        for job in jobs:
            results.append(tagged[cursor : cursor + len(job.sentences)])
            cursor += len(job.sentences)
        return results

    def _tag_isolated(self, jobs: list[BatchJob]) -> None:
        for job in jobs:
            try:
                if job.faults is not None:
                    job.faults.fire(job.stage)
                tagged = list(job.bundle.tagger.tag(job.sentences))
            except Exception as error:
                job.finish(error=error)
            else:
                job.finish(result=tagged)

    def stats(self) -> dict:
        with self._cond:
            queued = len(self._queue)
        return {
            "batches": self.batches,
            "batched_jobs": self.batched_jobs,
            "isolated_retries": self.isolated_retries,
            "deadline_drops": self.deadline_drops,
            "queued": queued,
        }
