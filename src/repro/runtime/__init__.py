"""Runtime subsystem: parallel category sweeps and per-stage tracing.

Public surface:

* :class:`PipelineTrace` / :class:`StageEvent` — per-stage wall-clock
  and counter events of one pipeline run (``trace.py``).
* :class:`RunnerJob` / :class:`JobOutcome` / :class:`JobFailure` /
  :class:`CategoryRunner` / :func:`default_workers` — job specs,
  structured results and the multi-category sweep, one wave of the
  shard-worker pool (``runner.py``).
* :class:`Deadline` / :func:`retry_backoff` — wall-clock budgets and
  the deterministic backoff schedule (``jobs.py``).
* :class:`CheckpointStore` / :class:`ResumeState` — crash-safe
  per-iteration bootstrap snapshots and resume (``checkpoint.py``).
* :class:`FaultPlan` / :class:`FaultSpec` — deterministic fault
  injection at named pipeline stages (``faults.py``).
* :class:`ShardWorkerPool` / :class:`ShardFailure` — persistent
  supervised workers with death detection, respawn, poisoned-shard
  accounting and per-task time limits: the one process fan-out
  (``pool.py``).
* :class:`MemoryGovernor` — RSS-budget backpressure (``memory.py``).
* :class:`DirectoryLock` / :func:`atomic_write_bytes` /
  :func:`atomic_write_text` / :func:`atomic_writer` — durable-write
  and advisory-locking primitives (``storage.py``).

Only the trace types are imported eagerly: ``repro.core.bootstrap``
instruments itself with :class:`PipelineTrace`, while the runner
imports ``repro.core.pipeline`` — loading everything at package import
time would be a cycle. The runner/job names resolve lazily via PEP 562
module ``__getattr__``.
"""

from __future__ import annotations

from .trace import PipelineTrace, StageEvent

_LAZY = {
    "RunnerJob": "runner",
    "JobOutcome": "runner",
    "JobFailure": "runner",
    "execute_job": "runner",
    "retry_backoff": "jobs",
    "CategoryRunner": "runner",
    "default_workers": "runner",
    "summarize_outcomes": "runner",
    "CheckpointStore": "checkpoint",
    "ResumeState": "checkpoint",
    "seed_digest": "checkpoint",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "Deadline": "jobs",
    "source_run_fingerprint": "checkpoint",
    "current_rss_bytes": "memory",
    "peak_rss_bytes": "memory",
    "children_peak_rss_bytes": "memory",
    "run_peak_rss_bytes": "memory",
    "MemoryGovernor": "memory",
    "ShardWorkerPool": "pool",
    "ShardFailure": "pool",
    "PoolReport": "pool",
    "DirectoryLock": "storage",
    "atomic_writer": "storage",
    "atomic_write_bytes": "storage",
    "atomic_write_text": "storage",
}

__all__ = [
    "PipelineTrace",
    "StageEvent",
    "RunnerJob",
    "JobOutcome",
    "JobFailure",
    "execute_job",
    "retry_backoff",
    "CategoryRunner",
    "default_workers",
    "summarize_outcomes",
    "CheckpointStore",
    "ResumeState",
    "seed_digest",
    "FaultPlan",
    "FaultSpec",
    "Deadline",
    "source_run_fingerprint",
    "current_rss_bytes",
    "peak_rss_bytes",
    "children_peak_rss_bytes",
    "run_peak_rss_bytes",
    "MemoryGovernor",
    "ShardWorkerPool",
    "ShardFailure",
    "PoolReport",
    "DirectoryLock",
    "atomic_writer",
    "atomic_write_bytes",
    "atomic_write_text",
]


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
