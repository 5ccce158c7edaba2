"""Tests for the serve micro-batcher and its per-request isolation."""

import threading
import time

import pytest

from repro.errors import JobTimeoutError, ModelError, WorkerDeathError
from repro.runtime.jobs import Deadline
from repro.serve.batcher import BatchJob, MicroBatcher
from repro.types import TaggedSentence

pytestmark = pytest.mark.usefixtures("watchdog")

POISON_ID = "poison"


class EchoTagger:
    """Tags every token O; raises on sentences from the poison product.

    Mimics the strict-decode contract of ``CrfTagger.tag``: one bad
    sentence raises ``ModelError`` for the whole call.
    """

    def __init__(self, error=ModelError):
        self.error = error
        self.calls = 0

    def tag(self, sentences):
        self.calls += 1
        tagged = []
        for sentence in sentences:
            if sentence.product_id == POISON_ID:
                raise self.error(
                    "CrfTagger.tag decoded no labels for non-empty "
                    f"sentence {sentence.product_id!r}"
                )
            tagged.append(TaggedSentence(sentence, ("O",) * len(sentence)))
        return tagged


class GateTagger(EchoTagger):
    """EchoTagger whose first ``tag()`` call holds the worker until
    ``release`` is set, so jobs submitted meanwhile queue behind it."""

    def __init__(self, error=ModelError):
        super().__init__(error)
        self.entered = threading.Event()
        self.release = threading.Event()

    def tag(self, sentences):
        if not self.entered.is_set():
            self.entered.set()
            self.release.wait(5.0)
        return super().tag(sentences)


class FakeBundle:
    def __init__(self, tagger):
        self.tagger = tagger
        self.version = "fake"


@pytest.fixture
def batcher():
    instance = MicroBatcher(max_size=8)
    yield instance
    instance.close()


def _job(bundle, make_sentence, product_id="p0", budget=5.0):
    return BatchJob(
        bundle,
        [make_sentence("iro wa aka desu", product_id)],
        Deadline.after(budget),
    )


def _burst(batcher, lead, rest):
    """Submit ``lead``, then ``rest`` while the lead's gated ``tag()``
    holds the worker: ``rest`` is all queued when the worker frees up,
    so its same-bundle jobs form one batch."""
    tagger = lead.bundle.tagger
    batcher.submit(lead)
    assert tagger.entered.wait(5.0)
    for job in rest:
        batcher.submit(job)
    tagger.release.set()


def test_jobs_resolve_with_results(batcher, make_sentence):
    bundle = FakeBundle(EchoTagger())
    jobs = [
        batcher.submit(_job(bundle, make_sentence, f"p{i}"))
        for i in range(4)
    ]
    for job in jobs:
        assert job.wait(5.0)
        assert job.error is None
        assert len(job.result) == 1
        assert job.result[0].labels == ("O",) * len(job.result[0].sentence)


def test_concurrent_jobs_share_batches(batcher, make_sentence):
    bundle = FakeBundle(GateTagger())
    jobs = [_job(bundle, make_sentence, f"p{i}") for i in range(8)]
    _burst(batcher, jobs[0], jobs[1:])
    for job in jobs:
        assert job.wait(5.0)
    # Jobs that queued while a batch was tagged merged: fewer tagger
    # calls than jobs.
    assert bundle.tagger.calls < len(jobs)
    assert batcher.batched_jobs == len(jobs)


def test_model_error_fails_only_the_poisoned_request(
    batcher, make_sentence
):
    """Satellite: a strict-decode ModelError on one request's sentence
    must fail that request alone, not its whole micro-batch."""
    bundle = FakeBundle(GateTagger())
    good = [_job(bundle, make_sentence, f"good{i}") for i in range(3)]
    poisoned = _job(bundle, make_sentence, POISON_ID)
    # good0 holds the worker while the rest queue, so good1, the
    # poisoned request and good2 share a batch.
    _burst(batcher, good[0], (good[1], poisoned, good[2]))
    for job in (*good, poisoned):
        assert job.wait(5.0)
    assert isinstance(poisoned.error, ModelError)
    for job in good:
        assert job.error is None, f"batch-mate failed: {job.error}"
        assert job.result is not None
    assert batcher.isolated_retries >= 1


def test_worker_death_is_isolated_the_same_way(batcher, make_sentence):
    bundle = FakeBundle(GateTagger(error=lambda msg: WorkerDeathError("tag", msg)))
    lead = _job(bundle, make_sentence, "lead")
    good = _job(bundle, make_sentence, "good")
    dead = _job(bundle, make_sentence, POISON_ID)
    # The lead holds the worker, so good and dead share a batch.
    _burst(batcher, lead, (good, dead))
    assert good.wait(5.0) and dead.wait(5.0)
    assert isinstance(dead.error, WorkerDeathError)
    assert good.error is None


def test_expired_deadline_drops_before_model_work(batcher, make_sentence):
    bundle = FakeBundle(EchoTagger())
    job = BatchJob(
        bundle,
        [make_sentence("iro wa aka desu")],
        Deadline.after(-1.0),
    )
    batcher.submit(job)
    assert job.wait(5.0)
    assert isinstance(job.error, JobTimeoutError)
    assert batcher.deadline_drops == 1
    # The tagger never ran for the dropped job.
    assert bundle.tagger.calls == 0


def test_jobs_queued_during_a_tag_form_one_batch(batcher, make_sentence):
    """Batching under load without a linger: one job, then five more
    submitted while it is tagged, take exactly two ``tag()`` calls."""
    bundle = FakeBundle(GateTagger())
    jobs = [_job(bundle, make_sentence, f"p{i}") for i in range(6)]
    _burst(batcher, jobs[0], jobs[1:])
    for job in jobs:
        assert job.wait(5.0)
        assert job.error is None
    assert bundle.tagger.calls == 2
    assert batcher.batches == 2
    assert batcher.batched_jobs == len(jobs)


def test_different_bundles_never_share_a_batch(batcher, make_sentence):
    first = FakeBundle(EchoTagger())
    second = FakeBundle(EchoTagger())
    jobs = [
        batcher.submit(_job(first, make_sentence, "a")),
        batcher.submit(_job(second, make_sentence, "b")),
    ]
    for job in jobs:
        assert job.wait(5.0)
        assert job.error is None
    assert first.tagger.calls == 1
    assert second.tagger.calls == 1


def test_close_resolves_pending_jobs(make_sentence):
    class SlowTagger(EchoTagger):
        def tag(self, sentences):
            time.sleep(0.1)
            return super().tag(sentences)

    batcher = MicroBatcher(max_size=2)
    bundle = FakeBundle(SlowTagger())
    jobs = [_job(bundle, make_sentence, f"p{i}") for i in range(6)]
    for job in jobs:
        batcher.submit(job)
    batcher.close()
    for job in jobs:
        assert job.wait(5.0), "close() left a job unresolved"
    # After close, new submissions fail fast instead of hanging.
    late = batcher.submit(_job(bundle, make_sentence, "late"))
    assert late.wait(1.0)
    assert late.error is not None


def test_submissions_from_many_threads(batcher, make_sentence):
    bundle = FakeBundle(EchoTagger())
    jobs = []
    lock = threading.Lock()

    def submit_some(prefix):
        for i in range(10):
            job = _job(bundle, make_sentence, f"{prefix}-{i}")
            batcher.submit(job)
            with lock:
                jobs.append(job)

    threads = [
        threading.Thread(target=submit_some, args=(f"t{t}",))
        for t in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for job in jobs:
        assert job.wait(5.0)
        assert job.error is None
    assert batcher.batched_jobs == 40
