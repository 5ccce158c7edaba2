"""Supervised shard-worker pool: death detection, respawn, poisoning.

The pool's contract (:mod:`repro.runtime.pool`): a SIGKILLed worker is
detected by its exitcode sentinel alone, respawned, and its shard
requeued with deterministic attempt accounting; a shard that keeps
killing its worker is returned as a :class:`ShardFailure` instead of
wedging the run; ordinary task exceptions re-raise in the parent
exactly as the pre-pool fan-out's did. With one worker the pool runs
inline with identical accounting (kills simulated), so every semantic
is testable on a 1-CPU box; the pooled tests then exercise the real
fork/SIGKILL machinery.
"""

import os
import signal
import time
import types

import pytest

from repro.runtime import FaultPlan, FaultSpec, ShardWorkerPool
from repro.runtime import pool as pool_module
from repro.runtime.pool import PoolReport, ShardFailure

pytestmark = pytest.mark.usefixtures("watchdog")


# Worker functions must be module-level (pickled into forked workers).


def _scale(context, index):
    return (index, context["factor"] * index)


def _raise_on(context, index):
    if index == context:
        raise ValueError(f"boom at shard {index}")
    return index


class UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("this exception refuses to pickle")


def _raise_unpicklable(context, index):
    raise UnpicklableError("exotic failure")


def _stop_self(context, index):
    if index == context:
        # Freeze the whole process (heartbeat thread included): the
        # supervisor must notice the silence, not an exitcode.
        os.kill(os.getpid(), signal.SIGSTOP)
    return index


def _sleep_on(context, index):
    if index == context:
        time.sleep(60)
    return index


def _expected(indices, factor=3):
    return {index: (index, factor * index) for index in indices}


# -- inline degradation (workers=1) --------------------------------------


def test_inline_clean_run(tmp_path):
    with ShardWorkerPool(1) as pool:
        results, failures, report = pool.run(
            _scale, {"factor": 3}, range(5), stage="shard_prep"
        )
    assert results == _expected(range(5))
    assert failures == {}
    assert report.as_counts() == {}


def test_inline_injected_kill_requeues_and_completes():
    plan = FaultPlan(
        [FaultSpec(stage="shard_prep:0002", kind="worker_kill")]
    )
    with ShardWorkerPool(1) as pool:
        results, failures, report = pool.run(
            _scale,
            {"factor": 3},
            range(4),
            stage="shard_prep",
            faults=plan,
        )
    assert results == _expected(range(4))
    assert failures == {}
    assert report.deaths == 1
    assert report.injected_kills == 1
    assert report.requeues == 1
    assert report.poisoned == 0
    assert sum(plan.injected.values()) == 1


def test_inline_unlimited_kill_poisons_shard():
    plan = FaultPlan(
        [
            FaultSpec(
                stage="shard_prep:0001", kind="worker_kill", times=None
            )
        ]
    )
    with ShardWorkerPool(1, max_shard_retries=2) as pool:
        results, failures, report = pool.run(
            _scale,
            {"factor": 3},
            range(3),
            stage="shard_prep",
            faults=plan,
        )
    assert results == _expected([0, 2])
    assert set(failures) == {1}
    failure = failures[1]
    assert isinstance(failure, ShardFailure)
    assert failure.attempts == 3  # 1 + max_shard_retries
    assert failure.reason == "worker_death"
    assert report.poisoned == 1
    assert report.deaths == 3


def test_inline_task_exception_propagates():
    """Deterministic code errors are the caller's to retry/escalate —
    the pool must NOT absorb them into retry/poison accounting."""
    with ShardWorkerPool(1) as pool:
        with pytest.raises(ValueError, match="boom at shard 2"):
            pool.run(_raise_on, 2, range(4), stage="shard_tag")
        # The wave died mid-flight but its tallies stayed clean.
        assert pool.report.poisoned == 0
        assert pool.report.deaths == 0


def test_run_after_close_raises():
    pool = ShardWorkerPool(1)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.run(_scale, {"factor": 3}, [0], stage="shard_prep")


def test_max_workers_cap_forces_inline():
    with ShardWorkerPool(4) as pool:
        results, _, _ = pool.run(
            _scale,
            {"factor": 3},
            range(4),
            stage="shard_prep",
            max_workers=1,
        )
        assert results == _expected(range(4))
        # No worker process was ever spawned.
        assert pool._handles == []


def test_empty_indices_short_circuit():
    with ShardWorkerPool(2) as pool:
        assert pool.run(_scale, None, [], stage="shard_prep") == (
            {},
            {},
            PoolReport(),
        )


# -- pooled execution (real processes) -----------------------------------


def test_pooled_clean_run_matches_inline():
    with ShardWorkerPool(2) as pool:
        results, failures, report = pool.run(
            _scale, {"factor": 3}, range(6), stage="shard_prep"
        )
    assert results == _expected(range(6))
    assert failures == {}
    assert report.as_counts() == {}


def test_pooled_workers_persist_across_waves():
    with ShardWorkerPool(2) as pool:
        pool.run(_scale, {"factor": 3}, range(4), stage="shard_prep")
        pids = [handle.process.pid for handle in pool._handles]
        results, _, _ = pool.run(
            _scale, {"factor": 5}, range(4), stage="shard_tag"
        )
        assert [h.process.pid for h in pool._handles] == pids
    assert results == _expected(range(4), factor=5)


def test_pooled_waves_wait_on_events_not_sleep(monkeypatch):
    """Between sweeps the supervisor blocks on worker pipes and
    sentinels; it never sleeps on a polling tick."""
    slept = []
    monkeypatch.setattr(
        pool_module,
        "time",
        types.SimpleNamespace(monotonic=time.monotonic, sleep=slept.append),
    )
    with ShardWorkerPool(2) as pool:
        for factor in (3, 5, 7):
            results, _, _ = pool.run(
                _scale, {"factor": factor}, range(8), stage="shard_tag"
            )
            assert results == _expected(range(8), factor=factor)
    assert slept == []


def test_pooled_sigkill_respawns_and_requeues():
    """The acceptance scenario: a worker SIGKILLed mid-shard (no
    goodbye message possible) is detected via exitcode, replaced, and
    the shard re-run — with the injection booked deterministically."""
    plan = FaultPlan(
        [FaultSpec(stage="shard_prep:0003", kind="worker_kill")]
    )
    with ShardWorkerPool(2) as pool:
        results, failures, report = pool.run(
            _scale,
            {"factor": 3},
            range(6),
            stage="shard_prep",
            faults=plan,
        )
    assert results == _expected(range(6))
    assert failures == {}
    assert report.deaths >= 1
    assert report.respawns >= 1
    assert report.requeues >= 1
    assert report.injected_kills == 1
    assert report.poisoned == 0
    assert sum(plan.injected.values()) == 1


def test_pooled_unlimited_kill_poisons_and_survivors_complete():
    plan = FaultPlan(
        [
            FaultSpec(
                stage="shard_prep:0000", kind="worker_kill", times=None
            )
        ]
    )
    with ShardWorkerPool(2, max_shard_retries=1) as pool:
        results, failures, report = pool.run(
            _scale,
            {"factor": 3},
            range(4),
            stage="shard_prep",
            faults=plan,
        )
    assert results == _expected([1, 2, 3])
    assert set(failures) == {0}
    assert failures[0].attempts == 2
    assert failures[0].reason == "worker_death"
    assert report.poisoned == 1


def test_pooled_task_exception_reraises_in_parent():
    with ShardWorkerPool(2) as pool:
        with pytest.raises(ValueError, match="boom at shard 1"):
            pool.run(_raise_on, 1, range(4), stage="shard_tag")


def test_pooled_unpicklable_exception_still_surfaces():
    """mp.Queue's feeder thread pickles in the background and drops
    unpicklable items *silently* — the worker must probe the pickle
    itself so an exotic exception surfaces instead of hanging the
    wave."""
    with ShardWorkerPool(2) as pool:
        with pytest.raises(RuntimeError, match="unpicklable"):
            pool.run(_raise_unpicklable, None, range(2), stage="shard_tag")


def test_pooled_wedged_worker_detected_by_heartbeat():
    """A SIGSTOPped worker is alive by exitcode but silent: the
    supervisor escalates to SIGKILL after heartbeat_timeout and the
    shard is charged a failed attempt."""
    pool = ShardWorkerPool(
        2,
        max_shard_retries=0,
        heartbeat_timeout=1.5,
        heartbeat_interval=0.1,
    )
    try:
        results, failures, report = pool.run(
            _stop_self, 1, range(3), stage="shard_tag"
        )
    finally:
        pool.close()
    assert set(results) == {0, 2}
    assert set(failures) == {1}
    assert failures[1].reason == "heartbeat_timeout"
    assert report.deaths >= 1
    assert report.respawns >= 1


def test_pooled_task_timeout_kills_without_requeue():
    """A task busy past ``task_timeout`` is SIGKILLed and written off
    as a ``"timeout"`` failure after one attempt — not requeued, not
    counted as a death — while its siblings complete."""
    with ShardWorkerPool(2) as pool:
        results, failures, report = pool.run(
            _sleep_on, 1, range(4), stage="sweep", task_timeout=1.0
        )
        again, _, _ = pool.run(_scale, {"factor": 3}, range(3), stage="s")
    assert results == {0: 0, 2: 2, 3: 3}
    assert set(failures) == {1}
    failure = failures[1]
    assert (failure.reason, failure.attempts) == ("timeout", 1)
    assert 1.0 <= failure.seconds <= 1.0 + pool_module.HEARTBEAT_INTERVAL
    assert report.as_counts() == {"timeouts": 1, "respawns": 1}
    assert again == _expected(range(3))
