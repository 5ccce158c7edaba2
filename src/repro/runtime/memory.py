"""Process-memory observability: current and peak RSS.

The streamed/sharded bootstrap exists to keep peak resident memory
bounded while the corpus grows unbounded; a claim like that is only
worth anything if the run *reports* its peak. This module reads the
numbers the kernel already keeps:

* ``/proc/self/status`` — ``VmRSS`` (current resident set) and
  ``VmHWM`` (the lifetime high-water mark of the process);
* ``resource.getrusage`` — ``ru_maxrss`` for this process (fallback
  where procfs is unavailable) and, separately, for reaped *child*
  processes, which is how shard workers show up in the accounting.

All functions return bytes and never raise: on a platform with neither
source they return 0, so callers can record the counter unconditionally.

``VmHWM``/``ru_maxrss`` are lifetime maxima — they never decrease. A
benchmark comparing peaks across runs must therefore measure each run
in a fresh process (as ``python3 -m bench`` does).

On top of the samplers sits the :class:`MemoryGovernor`: the
backpressure half of the memory story. Given a budget
(``PipelineConfig.memory_budget_mb`` / ``--memory-budget``) it samples
RSS at fan-out boundaries and, when the budget is crossed, shrinks the
levers that trade speed for memory — shard-worker fan-out, effective
tag batch size, the tokenizer sentence memo — all of which are
output-invisible, so a governed run stays bit-identical to an
ungoverned one. Pressure events surface as ``memory_pressure`` trace
counters, and serve admission control consults the same governor to
shed earlier while the process is swollen.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultPlan

_STATUS_PATH = pathlib.Path("/proc/self/status")


def _status_kb(field: str) -> int | None:
    """Read one kB-denominated field from ``/proc/self/status``."""
    try:
        text = _STATUS_PATH.read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(field + ":"):
            parts = line.split()
            if len(parts) >= 2 and parts[1].isdigit():
                return int(parts[1])
    return None


def _rusage_kb(who_children: bool = False) -> int | None:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    who = (
        resource.RUSAGE_CHILDREN if who_children else resource.RUSAGE_SELF
    )
    return _maxrss_kb(resource.getrusage(who).ru_maxrss, sys.platform)


def _maxrss_kb(maxrss: int, platform: str) -> int:
    """Normalize a raw ``ru_maxrss`` reading to kilobytes.

    Linux denominates ``ru_maxrss`` in kilobytes; macOS reports bytes.
    """
    if platform == "darwin":
        return maxrss // 1024
    return maxrss


def current_rss_bytes() -> int:
    """This process's current resident set size, in bytes (0 unknown)."""
    kb = _status_kb("VmRSS")
    return (kb or 0) * 1024


def peak_rss_bytes() -> int:
    """This process's lifetime peak RSS, in bytes (0 if unknown)."""
    kb = _status_kb("VmHWM")
    if kb is None:
        kb = _rusage_kb(who_children=False)
    return (kb or 0) * 1024


def children_peak_rss_bytes() -> int:
    """Peak RSS among reaped child processes, in bytes (0 if none).

    This is the maximum over *individual* children (shard workers),
    not their sum — exactly the number that answers "did any worker
    blow the budget".
    """
    kb = _rusage_kb(who_children=True)
    return (kb or 0) * 1024


def run_peak_rss_bytes() -> int:
    """Peak RSS across this process and any of its reaped children."""
    return max(peak_rss_bytes(), children_peak_rss_bytes())


class MemoryGovernor:
    """Backpressure controller: RSS samples against a byte budget.

    The governor is consulted at fan-out boundaries (before each shard
    prep/tag wave, at serve admission) rather than on a timer — the
    decisions it informs only exist at those boundaries, and sampling
    is a procfs read, cheap enough to do inline. Every lever it pulls
    is output-invisible:

    * :meth:`throttle_workers` — halve the next wave's worker fan-out
      (fewer concurrent shard copies resident), floor 1.
    * :meth:`relieve` — drop the tokenizer sentence memo (a pure
      cache).

    With no budget the governor is inert unless the fault plan injects
    synthetic pressure (``mem_pressure`` specs), which makes the
    backpressure paths testable without ballooning the test process.

    Args:
        budget_mb: RSS budget in MiB; None disables real sampling
            pressure.
        faults: optional plan whose ``mem_pressure`` specs add
            synthetic bytes to each sample.
        min_sample_interval: seconds a sample stays fresh — serve
            admission consults per request, and re-reading procfs a
            thousand times a second buys nothing.
    """

    def __init__(
        self,
        budget_mb: float | None = None,
        *,
        faults: "FaultPlan | None" = None,
        min_sample_interval: float = 0.0,
    ):
        self.budget_bytes = (
            int(budget_mb * 1024 * 1024) if budget_mb else None
        )
        self.faults = faults
        self.min_sample_interval = min_sample_interval
        self.samples = 0
        self.pressure_events = 0
        self.last_rss_bytes = 0
        self.max_rss_bytes = 0
        self.memo_entries_released = 0
        self._last_sample_at: float | None = None
        self._last_pressed = False

    def sample(self) -> int:
        """Current RSS plus any injected synthetic pressure, in bytes."""
        now = time.monotonic()
        if (
            self._last_sample_at is not None
            and self.min_sample_interval > 0
            and now - self._last_sample_at < self.min_sample_interval
        ):
            return self.last_rss_bytes
        rss = current_rss_bytes()
        synthetic = (
            self.faults.synthetic_rss_bytes()
            if self.faults is not None
            else 0
        )
        rss += synthetic
        self.samples += 1
        self.last_rss_bytes = rss
        self.max_rss_bytes = max(self.max_rss_bytes, rss)
        self._last_sample_at = now
        # A synthetic press with no budget still signals pressure —
        # that is what the fault is for.
        self._last_pressed = bool(
            (self.budget_bytes is not None and rss > self.budget_bytes)
            or (synthetic > 0 and self.budget_bytes is None)
        )
        if self._last_pressed:
            self.pressure_events += 1
        return rss

    def under_pressure(self) -> bool:
        """Sample now; True when the budget is crossed (or injected)."""
        self.sample()
        return self._last_pressed

    def throttle_workers(self, workers: int) -> int:
        """Halved fan-out under the last sample's pressure, floor 1."""
        if not self._last_pressed:
            return workers
        return max(1, workers // 2)

    def relieve(self) -> int:
        """Drop pure caches (tokenizer sentence memo); entries freed."""
        from ..nlp.tokenizer import clear_sentence_memos

        released = clear_sentence_memos()
        self.memo_entries_released += released
        return released

    def counters(self) -> dict[str, int]:
        """Trace-counter payload (only meaningful after sampling)."""
        return {
            "samples": self.samples,
            "events": self.pressure_events,
            "rss_bytes": self.last_rss_bytes,
            "max_rss_bytes": self.max_rss_bytes,
        }
