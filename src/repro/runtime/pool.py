"""Persistent, supervised worker pool: the one process fan-out.

Every process-parallel fan-out in the package runs here: the
bootstrap's prep and tag waves over shards, the multi-category sweep
(:class:`~repro.runtime.runner.CategoryRunner`) and Table I's seed
rows. The production question it answers is *what happens when the
machine kills a worker mid-task?* A ``concurrent.futures`` pool whose
worker is SIGKILLed (OOM killer, cgroup limit, an operator's
``kill -9``) raises ``BrokenProcessPool`` and abandons every in-flight
task — the exact failure mode a paper-scale overnight bootstrap cannot
afford. :class:`ShardWorkerPool` runs long-lived supervised workers
instead:

* **Persistent workers.** One process per slot lives across every
  fan-out of a run (prep, then each iteration's tag wave); work units
  are shard indices sent over a per-worker task queue after a single
  per-wave context broadcast (so the model pickles once per worker per
  wave, not per task).
* **True-death detection.** Each worker runs a heartbeat thread; the
  parent's supervision loop treats ``proc.exitcode is not None`` as
  the authoritative death sentinel (a SIGKILLed process cannot send a
  goodbye) and a stale heartbeat as a wedged worker, which it
  escalates to SIGKILL and handles identically. The loop is
  event-driven: when a sweep finds nothing to do it blocks in
  :func:`multiprocessing.connection.wait` on every worker's result
  pipe and process sentinel, so it wakes as soon as a worker replies
  or exits, and at least once per heartbeat interval.
* **Respawn + requeue with deterministic retry accounting.** A dead
  worker is replaced (fresh queues — its old queue may hold a stale
  task) and its in-flight shard is requeued at the front with an
  incremented attempt counter. Attempt numbers depend only on the
  failure history of the shard itself, never on scheduling, so
  injected ``worker_kill`` faults (pure in ``(seed, stage, shard,
  attempt)``) replay identically at any worker count.
* **Poisoned shards.** A shard whose worker dies ``1 +
  max_shard_retries`` times is returned as a :class:`ShardFailure`
  instead of wedging the run; the caller quarantines it
  (``check="poisoned_shard"``) and completes on the survivors, or
  raises under the strict policy. Ordinary in-worker *exceptions* are
  not retried here — they re-raise in the parent with their own type,
  so stage-level retry/escalation semantics belong to the caller.
* **Per-task wall-clock limit.** With ``task_timeout`` set, a worker
  busy on one index longer than the limit is SIGKILLed and the index
  comes back as ``ShardFailure(reason="timeout")`` — not requeued,
  because a hung task would only hang again. Without a limit (the
  bootstrap's waves) nothing is timed.

With one worker the pool degrades to inline execution with the same
retry/poison accounting (``worker_kill`` faults are *simulated* — the
parent cannot SIGKILL itself — so chaos suites stay meaningful on
1-CPU boxes). Inline execution cannot preempt itself, so it does not
enforce ``task_timeout``.

The pool changes who executes a task and what happens on failure,
never the per-task computation or the caller's deterministic merge
order, so clean runs are bit-identical at any worker count. Tasks run
in daemonic processes and therefore must not start processes of their
own; a one-shard bootstrap inside a task runs its own pool inline.
"""

from __future__ import annotations

import collections
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue as queue_module
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultPlan

#: Seconds between worker heartbeat messages.
HEARTBEAT_INTERVAL = 0.25

#: Seconds of heartbeat silence after which a live-looking worker is
#: declared wedged and SIGKILLed. Generous: a beat is sent from a
#: daemon thread, so only a worker stuck in GIL-holding native code —
#: or truly dead in a way the exitcode check will catch first — goes
#: silent this long.
DEFAULT_HEARTBEAT_TIMEOUT = 60.0

#: Default extra attempts a shard gets after its first failure.
DEFAULT_MAX_SHARD_RETRIES = 2

#: Consecutive deaths-before-ready one slot may suffer before the pool
#: declares the environment unable to sustain workers at all.
_MAX_CTX_DEATHS = 5


def check_task_timeout(seconds: float | None) -> None:
    """Reject a per-task wall-clock limit that is not a finite number of
    seconds above zero; ``None`` (no limit) passes."""
    if seconds is not None and not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(
            f"a task timeout must be a finite number of seconds > 0 "
            f"(or None), got {seconds!r}"
        )


@dataclass(frozen=True)
class ShardFailure:
    """One shard's terminal failure after exhausting its retries.

    Attributes:
        index: the poisoned shard.
        attempts: attempts consumed (``1 + max_shard_retries``, or
            the one attempt a ``"timeout"`` gets).
        reason: ``"worker_death"``, ``"heartbeat_timeout"`` or
            ``"timeout"``.
        detail: human-readable last-failure detail.
        seconds: how long the last attempt had run when the supervisor
            wrote it off (0.0 for a simulated inline kill).
    """

    index: int
    attempts: int
    reason: str
    detail: str
    seconds: float = 0.0


@dataclass
class PoolReport:
    """Supervision tallies for one :meth:`ShardWorkerPool.run` wave."""

    deaths: int = 0
    respawns: int = 0
    requeues: int = 0
    poisoned: int = 0
    injected_kills: int = 0
    timeouts: int = 0

    def as_counts(self) -> dict[str, int]:
        return {
            name: value
            for name, value in self.__dict__.items()
            if value
        }

    def merge(self, other: "PoolReport") -> None:
        for name, value in other.__dict__.items():
            setattr(self, name, getattr(self, name) + value)


def _worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    heartbeat_interval: float,
) -> None:
    """Worker process loop: beat, receive context, execute shard tasks.

    Messages in: ``("ctx", gen, fn, context, stage, faults)``,
    ``("task", gen, index, attempt)``, ``("stop",)``. Messages out:
    ``("hb", gen, -1, None)``, ``("ready", gen, -1, None)``,
    ``("ok", gen, index, result)``, ``("err", gen, index, info)``.
    """
    stop_beating = threading.Event()
    generation = 0

    def _beat() -> None:
        while not stop_beating.wait(heartbeat_interval):
            try:
                result_queue.put(("hb", generation, -1, None))
            except Exception:  # pragma: no cover - shutdown race
                return

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    fn = context = stage = faults = None
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            stop_beating.set()
            return
        if kind == "ctx":
            _, generation, fn, context, stage, faults = message
            result_queue.put(("ready", generation, -1, None))
            continue
        _, gen, index, attempt = message
        if gen != generation:  # stale task from a superseded wave
            continue
        if faults is not None and faults.should_kill_worker(
            stage, index, attempt
        ):
            # Die the way the OOM killer kills: no teardown, no
            # goodbye message, not even atexit. The parent must
            # notice via the exitcode sentinel alone.
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            result = fn(context, index)
        except BaseException as error:  # noqa: BLE001 - forwarded
            # The queue feeder pickles in a background thread and drops
            # unpicklable items silently — probe the pickle here so an
            # exotic exception still surfaces as *something*.
            try:
                pickle.dumps(error)
                payload: object = error
            except Exception:
                payload = (
                    type(error).__name__,
                    str(error),
                    traceback.format_exc(),
                )
            result_queue.put(("err", gen, index, payload))
        else:
            result_queue.put(("ok", gen, index, result))


@dataclass
class _WorkerHandle:
    """Parent-side state for one pool slot."""

    worker_id: int
    process: multiprocessing.Process
    task_queue: object
    result_queue: object
    ready: bool = False
    busy_index: int | None = None
    busy_since: float = 0.0
    last_beat: float = field(default_factory=time.monotonic)


class ShardWorkerPool:
    """Supervised pool of persistent shard workers.

    Args:
        workers: pool size. ``1`` (or less) runs tasks inline in the
            parent with identical retry/poison accounting.
        max_shard_retries: extra attempts per shard after its first
            failure; a shard failing all ``1 + max_shard_retries``
            attempts comes back as a :class:`ShardFailure`.
        heartbeat_timeout: seconds of worker silence before the
            supervisor declares it wedged and SIGKILLs it.
        heartbeat_interval: worker beat period.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
    ):
        self.workers = max(1, int(workers))
        self.max_shard_retries = max(0, int(max_shard_retries))
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = heartbeat_interval
        self.report = PoolReport()
        self._generation = 0
        self._next_worker_id = 0
        self._handles: list[_WorkerHandle] = []
        self._closed = False
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_shard_retries

    # -- lifecycle -------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        task_queue = self._mp.Queue()
        result_queue = self._mp.Queue()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._mp.Process(
            target=_worker_main,
            args=(
                worker_id,
                task_queue,
                result_queue,
                self.heartbeat_interval,
            ),
            daemon=True,
            name=f"repro-shard-worker-{worker_id}",
        )
        process.start()
        return _WorkerHandle(
            worker_id=worker_id,
            process=process,
            task_queue=task_queue,
            result_queue=result_queue,
        )

    def _discard(self, handle: _WorkerHandle) -> None:
        """Drop a dead handle's queues without joining their feeders."""
        for q in (handle.task_queue, handle.result_queue):
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover - race
                pass

    def close(self) -> None:
        """Stop every worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if handle.process.exitcode is None:
                try:
                    handle.task_queue.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + 2.0
        for handle in self._handles:
            remaining = max(0.0, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
            if handle.process.exitcode is None:
                handle.process.kill()
                handle.process.join(timeout=1.0)
            self._discard(handle)
        self._handles = []

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the supervised wave --------------------------------------------

    def run(
        self,
        fn: Callable,
        context: object,
        indices: Sequence[int],
        *,
        stage: str,
        faults: "FaultPlan | None" = None,
        max_workers: int | None = None,
        task_timeout: float | None = None,
    ) -> tuple[dict[int, object], dict[int, ShardFailure], PoolReport]:
        """Execute ``fn(context, index)`` for every index, supervised.

        Returns ``(results, failures, report)``: per-index results for
        shards that completed, :class:`ShardFailure` records for
        poisoned shards, and this wave's supervision tallies (also
        merged into :attr:`report`).

        Args:
            fn: picklable top-level worker function.
            context: per-wave context broadcast once per worker.
            indices: shard indices to run (executed in order given,
                modulo retries).
            stage: stage name for ``worker_kill`` fault matching
                (``"shard_prep"`` / ``"shard_tag"``; ``"sweep"`` and
                ``"table1"`` for the category fan-outs).
            faults: optional plan; workers consult
                :meth:`~repro.runtime.faults.FaultPlan.
                should_kill_worker` before each attempt.
            max_workers: cap the slots used this wave (memory-governor
                backpressure) without shrinking the pool.
            task_timeout: optional wall-clock limit in seconds on one
                attempt of one index (pooled path only); a worker past
                it is SIGKILLed and the index comes back as a
                ``"timeout"`` :class:`ShardFailure`, not requeued.
                Must be finite and positive.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        check_task_timeout(task_timeout)
        indices = list(indices)
        if not indices:
            return {}, {}, PoolReport()
        active = min(self.workers, len(indices))
        if max_workers is not None:
            active = max(1, min(active, max_workers))
        if self.workers <= 1 or active <= 1:
            return self._run_inline(fn, context, indices, stage, faults)
        return self._run_pooled(
            fn, context, indices, stage, faults, active, task_timeout
        )

    # -- inline degradation ---------------------------------------------

    def _run_inline(
        self,
        fn: Callable,
        context: object,
        indices: list[int],
        stage: str,
        faults: "FaultPlan | None",
    ) -> tuple[dict[int, object], dict[int, ShardFailure], PoolReport]:
        report = PoolReport()
        results: dict[int, object] = {}
        failures: dict[int, ShardFailure] = {}
        try:
            for index in indices:
                for attempt in range(1, self.max_attempts + 1):
                    if faults is not None and faults.should_kill_worker(
                        stage, index, attempt
                    ):
                        # Inline mode cannot SIGKILL the parent; model
                        # the death as a failed attempt with the same
                        # accounting the pooled path would produce.
                        faults.record_worker_kill(stage)
                        report.deaths += 1
                        report.injected_kills += 1
                        if attempt < self.max_attempts:
                            report.requeues += 1
                            continue
                        report.poisoned += 1
                        failures[index] = ShardFailure(
                            index, attempt, "worker_death",
                            "injected kill",
                        )
                        break
                    # Task exceptions propagate, as the old fan-out's
                    # did — only deaths get retry/poison accounting.
                    results[index] = fn(context, index)
                    break
        finally:
            self.report.merge(report)
        return results, failures, report

    # -- pooled execution ------------------------------------------------

    def _ensure_workers(self, active: int) -> None:
        while len(self._handles) < active:
            self._handles.append(self._spawn())

    def _respawn(self, slot: int) -> _WorkerHandle:
        dead = self._handles[slot]
        self._discard(dead)
        handle = self._spawn()
        self._handles[slot] = handle
        return handle

    def _broadcast_context(
        self, handles: list[_WorkerHandle], message: tuple
    ) -> None:
        for handle in handles:
            handle.ready = False
            handle.busy_index = None
            handle.last_beat = time.monotonic()
            handle.task_queue.put(message)

    def _run_pooled(
        self,
        fn: Callable,
        context: object,
        indices: list[int],
        stage: str,
        faults: "FaultPlan | None",
        active: int,
        task_timeout: float | None,
    ) -> tuple[dict[int, object], dict[int, ShardFailure], PoolReport]:
        report = PoolReport()
        self._generation += 1
        self._ensure_workers(active)
        handles = self._handles[:active]
        ctx_message = (
            "ctx", self._generation, fn, context, stage, faults
        )
        self._broadcast_context(handles, ctx_message)

        pending: collections.deque[int] = collections.deque(indices)
        attempts: dict[int, int] = {index: 0 for index in indices}
        results: dict[int, object] = {}
        failures: dict[int, ShardFailure] = {}
        ctx_deaths: dict[int, int] = collections.defaultdict(int)
        outstanding = len(indices)

        def fail_attempt(
            index: int, reason: str, detail: str, seconds: float
        ) -> None:
            nonlocal outstanding
            if reason == "timeout":
                report.timeouts += 1
            elif attempts[index] < self.max_attempts:
                pending.appendleft(index)
                report.requeues += 1
                return
            else:
                report.poisoned += 1
            failures[index] = ShardFailure(
                index, attempts[index], reason, detail, seconds
            )
            outstanding -= 1

        def process_message(handle: _WorkerHandle, message) -> bool:
            """Fold one worker message into wave state; True if it was
            a work-bearing (non-heartbeat) message of this wave."""
            nonlocal outstanding
            kind, gen, index, payload = message
            handle.last_beat = time.monotonic()
            if kind == "hb":
                return False
            if gen != self._generation:
                return False  # leftovers from a superseded wave
            if kind == "ready":
                handle.ready = True
                return True
            if handle.busy_index == index:
                handle.busy_index = None
            if index in results or index in failures:
                return True  # duplicate after a false-positive kill
            if kind == "ok":
                results[index] = payload
                outstanding -= 1
                return True
            # "err": the worker is alive but the task raised. Surface
            # it in the parent exactly as the old fan-out did — stage
            # retry/escalation semantics belong to the caller, not the
            # pool. The next wave's generation bump discards whatever
            # the other workers were still doing.
            if isinstance(payload, BaseException):
                raise payload
            name, detail, tb = payload
            raise RuntimeError(
                f"shard {index} raised unpicklable "
                f"{name}: {detail}\n{tb}"
            )

        def drain(handle: _WorkerHandle) -> bool:
            progressed = False
            while True:
                try:
                    message = handle.result_queue.get_nowait()
                except (queue_module.Empty, EOFError, OSError):
                    return progressed
                progressed = process_message(handle, message) or progressed

        def handle_death(slot: int, reason: str, detail: str) -> None:
            handle = handles[slot]
            if reason != "timeout":
                report.deaths += 1
            if not handle.ready and handle.busy_index is None:
                # Died before ever becoming ready: no shard to charge
                # the death to, so retry accounting can't bound it.
                # Cap the respawn loop or a machine that can't sustain
                # workers would spin forever.
                ctx_deaths[slot] += 1
                if ctx_deaths[slot] > _MAX_CTX_DEATHS:
                    raise RuntimeError(
                        f"pool worker slot {slot} died "
                        f"{ctx_deaths[slot]} times before becoming "
                        f"ready ({detail}); giving up on the pool"
                    )
            else:
                ctx_deaths[slot] = 0
            # A worker can die *after* flushing its result: salvage
            # whatever reached the pipe before declaring the shard
            # attempt failed.
            drain(handle)
            index = handle.busy_index
            if index is not None:
                if faults is not None and faults.kill_decision(
                    stage, index, attempts[index]
                ):
                    faults.record_worker_kill(stage)
                    report.injected_kills += 1
                fail_attempt(
                    index,
                    reason,
                    detail,
                    time.monotonic() - handle.busy_since,
                )
            handles[slot] = self._respawn(slot)
            report.respawns += 1
            handles[slot].task_queue.put(ctx_message)

        try:
            while outstanding > 0:
                # Dispatch to every ready idle worker.
                for handle in handles:
                    if not pending:
                        break
                    if not handle.ready or handle.busy_index is not None:
                        continue
                    index = pending.popleft()
                    attempts[index] += 1
                    handle.busy_index = index
                    handle.busy_since = time.monotonic()
                    handle.task_queue.put(
                        ("task", self._generation, index, attempts[index])
                    )
                progressed = False
                for handle in handles:
                    progressed = drain(handle) or progressed
                if outstanding <= 0:
                    break
                # Liveness sweep: exitcode is the authoritative death
                # sentinel; heartbeat silence marks a wedged worker,
                # which is escalated to SIGKILL and then handled as a
                # death.
                now = time.monotonic()
                for slot, handle in enumerate(handles):
                    if handle.process.exitcode is not None:
                        handle_death(
                            slot,
                            "worker_death",
                            f"worker exited with code "
                            f"{handle.process.exitcode}",
                        )
                    elif (
                        handle.busy_index is not None
                        and now - handle.last_beat > self.heartbeat_timeout
                    ):
                        handle.process.kill()
                        handle.process.join(timeout=5.0)
                        handle_death(
                            slot,
                            "heartbeat_timeout",
                            f"no heartbeat for "
                            f"{self.heartbeat_timeout:g}s",
                        )
                    elif (
                        task_timeout is not None
                        and handle.busy_index is not None
                        and now - handle.busy_since > task_timeout
                    ):
                        handle.process.kill()
                        handle.process.join(timeout=5.0)
                        handle_death(
                            slot,
                            "timeout",
                            f"busy past its {task_timeout:g}s limit",
                        )
                if not progressed:
                    # Block until a worker replies or exits, waking at
                    # least once per beat period so heartbeat silence
                    # is still noticed — and no later than the first
                    # busy worker's task limit.
                    wait_for = self.heartbeat_interval
                    if task_timeout is not None:
                        now = time.monotonic()
                        for handle in handles:
                            if handle.busy_index is not None:
                                wait_for = min(
                                    wait_for,
                                    handle.busy_since + task_timeout - now,
                                )
                    multiprocessing.connection.wait(
                        [handle.result_queue._reader for handle in handles]
                        + [handle.process.sentinel for handle in handles],
                        timeout=max(0.0, wait_for),
                    )
        finally:
            self.report.merge(report)
        return results, failures, report
