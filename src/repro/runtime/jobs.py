"""Wall-clock budgets and retry backoff shared by sweeps, bootstrap and serve.

:class:`Deadline` is the serve path's per-request budget;
:func:`retry_backoff` is the one backoff schedule — the sweep's
in-worker job retries, the bootstrap's checkpoint-write retries and
serve's shed ``Retry-After`` hints all draw from it.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

from ..errors import JobTimeoutError


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
