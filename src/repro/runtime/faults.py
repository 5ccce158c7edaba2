"""Deterministic fault injection for the bootstrap pipeline.

Production sweeps die from worker crashes, hung stages and hostile
merchant HTML. Rather than hoping the recovery paths work, this module
makes failure reproducible: a :class:`FaultPlan` is a seedable schedule
of faults — exceptions, delays, corrupted pages — attached to *named
pipeline stages* (the same names :class:`~repro.runtime.trace.
PipelineTrace` records: ``"shard_prep"``, ``"seed_build"``,
``"training_material"``, ``"tagger_train"``, ``"tagger_tag"``,
``"veto"``, ``"semantic_clean"``, ``"fold_dataset"``,
``"checkpoint_write"``; plus the per-shard ``"shard_tag"`` and
``"shard_tag:NNNN"`` hooks inside tag workers). The bootstrap loop
calls :meth:`FaultPlan.fire` at the top of every stage body, so a plan
can kill any stage of any iteration on demand::

    plan = FaultPlan(
        [FaultSpec(stage="tagger_tag", iteration=2, times=1)], seed=3
    )
    result = PAEPipeline(config).run(pages, query_log, faults=plan)

Determinism is the point: every stochastic choice (probabilistic
injection, which pages to corrupt) flows from ``random.Random(seed)``,
so a chaos test that fails replays bit-identically. Plans also count
what they injected (:attr:`FaultPlan.injected`), letting tests assert
"exactly one fault fired and the retry path absorbed it".

Fault kinds:

* ``"error"`` — raise :class:`~repro.errors.FaultInjectionError` at the
  stage. With ``times=1`` the stage-level retry in the bootstrap loop
  recovers and output is bit-identical to a fault-free run; unlimited
  ``times`` exercises the degradation paths (skip for optional cleaning
  stages, structured :class:`JobFailure` for mandatory ones).
* ``"delay"`` — sleep ``delay_seconds`` inside the stage; combined with
  job deadlines this turns a hung worker into a ``Timeout`` failure.
* ``"corrupt_pages"`` — mangle a deterministic fraction of each prep
  shard's page HTML before gating and tokenization (truncated markup
  plus tag soup), exercising the hostile-input tolerance of the HTML
  substrate. Page faults are drawn per ``(seed, shard)`` — see
  :meth:`FaultPlan.corrupt_shard_pages`.
* ``"dirt"`` — run a deterministic fraction of pages through the
  :mod:`repro.corpus.dirt` corruption generator (truncation, unclosed
  tags, entity garbage, mojibake, duplicate ids, megapages). Unlike
  ``corrupt_pages`` the damage is calibrated to trip the ingest gate,
  and the plan keeps each :class:`~repro.corpus.dirt.DirtReport` in
  :attr:`FaultPlan.dirt_reports` so tests can assert the quarantine
  ledger matches the injection ledger exactly.
* ``"worker_death"`` — raise :class:`~repro.errors.WorkerDeathError`
  at the stage, simulating a worker process/thread dying mid-request.
  The serve path converts it into a structured per-request error and
  a circuit-breaker failure.
* ``"corrupt_payload"`` — consumed by :meth:`FaultPlan.mangle_payload`
  (the serve path's pre-parse hook): deterministically truncates a
  request body and splices in binary garbage, exercising the
  protocol-level containment (structured 400, never a crash).

Environment fault kinds (the machine, not the pipeline):

* ``"worker_kill"`` — consumed by :meth:`FaultPlan.should_kill_worker`
  inside pool workers: a matching shard task SIGKILLs its own process
  (no Python teardown, exactly like the OOM killer), exercising true
  death detection, respawn and shard requeue in
  :mod:`repro.runtime.pool`. ``times`` bounds the number of *attempts*
  killed per shard (decisions derive from ``(seed, stage, shard)`` so
  they replay identically in any worker).
* ``"disk_full"`` — consumed by :meth:`FaultPlan.fire_storage` inside
  :mod:`repro.runtime.storage`: raises a real ``OSError(ENOSPC)``
  before the write, which the atomic-write helper classifies into
  :class:`~repro.errors.StorageError` exactly like a genuinely full
  disk. The spec's stage names the logical write op
  (``"prep_cache_write"``, ``"checkpoint_write"``, or ``"storage"``
  for all of them).
* ``"slow_disk"`` — sleeps ``delay_seconds`` inside
  :meth:`fire_storage`, modelling a contended or dying device.
* ``"mem_pressure"`` — consumed by the
  :class:`~repro.runtime.memory.MemoryGovernor`: adds
  ``pressure_bytes`` of synthetic RSS to every sample while due, so
  backpressure paths are testable without actually ballooning the
  process.

The serve chaos harness drives plans from many worker threads at once,
so all mutable plan state (fire counters, the seeded RNG, injection
tallies) is guarded by an internal lock; injection *counts* stay
deterministic even though thread scheduling decides which concurrent
request absorbs which fault.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigError, FaultInjectionError, WorkerDeathError
from ..types import ProductPage

_KINDS = (
    "error",
    "delay",
    "corrupt_pages",
    "dirt",
    "worker_death",
    "corrupt_payload",
    "worker_kill",
    "disk_full",
    "slow_disk",
    "mem_pressure",
)

#: Pool stages whose workers honor ``worker_kill`` specs (optionally
#: suffixed ``:NNNN`` to target one shard).
_KILLABLE_STAGES = ("shard_prep", "shard_tag")

#: Logical storage ops ``disk_full``/``slow_disk`` specs may target;
#: ``"storage"`` matches every durable write.
_STORAGE_STAGES = ("storage", "prep_cache_write", "checkpoint_write")

#: Spliced into request bodies by ``corrupt_payload`` faults: an
#: unterminated JSON prefix plus bytes that are not valid UTF-8.
_PAYLOAD_GARBAGE = b'{"truncated": \xff\xfe\x00'

#: Appended to a corrupted page's truncated HTML — the same tag soup
#: the failure-injection tests use for hostile-input coverage.
_GARBAGE = "<<<<>>>>&&&&<table><tr><td>x</script>"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        stage: pipeline stage name the fault targets (``"corpus"`` for
            ``corrupt_pages`` and ``dirt``, which fire inside shard
            prep before gating).
        kind: ``"error"``, ``"delay"``, ``"corrupt_pages"`` or
            ``"dirt"``.
        iteration: restrict to one bootstrap cycle (None matches every
            occurrence of the stage, including the seed phase).
        times: maximum number of injections; None means unlimited.
        probability: per-opportunity injection chance, drawn from the
            plan's seeded RNG (1.0 fires every time).
        delay_seconds: sleep length for ``"delay"`` faults.
        corrupt_fraction: share of pages mangled by ``"corrupt_pages"``
            or ``"dirt"``.
        dirt_kinds: corruption kinds a ``"dirt"`` fault draws from;
            empty means all of :data:`repro.corpus.dirt.DIRT_KINDS`.
        message: carried into the raised :class:`FaultInjectionError`.
        pressure_bytes: synthetic RSS a ``"mem_pressure"`` fault adds
            to every governor sample while due.
    """

    stage: str
    kind: str = "error"
    iteration: int | None = None
    times: int | None = 1
    probability: float = 1.0
    delay_seconds: float = 0.0
    corrupt_fraction: float = 0.25
    dirt_kinds: tuple[str, ...] = ()
    message: str = "injected fault"
    pressure_bytes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"fault kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("probability must be in [0, 1]")
        if self.times is not None and self.times < 1:
            raise ConfigError("times must be >= 1 (or None for unlimited)")
        if self.delay_seconds < 0:
            raise ConfigError("delay_seconds must be >= 0")
        if not 0.0 <= self.corrupt_fraction <= 1.0:
            raise ConfigError("corrupt_fraction must be in [0, 1]")
        if self.pressure_bytes < 0:
            raise ConfigError("pressure_bytes must be >= 0")
        if self.kind == "worker_kill":
            base = self.stage.split(":", 1)[0]
            if base not in _KILLABLE_STAGES:
                raise ConfigError(
                    "worker_kill faults target pool stages "
                    f"{_KILLABLE_STAGES} (optionally ':NNNN'-suffixed), "
                    f"got stage {self.stage!r}"
                )
        if self.kind in ("disk_full", "slow_disk"):
            if self.stage not in _STORAGE_STAGES:
                raise ConfigError(
                    f"{self.kind} faults target storage ops "
                    f"{_STORAGE_STAGES}, got stage {self.stage!r}"
                )
            if self.kind == "slow_disk" and self.delay_seconds <= 0:
                raise ConfigError(
                    "slow_disk faults require delay_seconds > 0"
                )
        if self.kind == "mem_pressure" and self.pressure_bytes <= 0:
            raise ConfigError(
                "mem_pressure faults require pressure_bytes > 0"
            )


class FaultPlan:
    """A seeded, counting schedule of pipeline faults.

    Args:
        specs: the faults to inject.
        seed: RNG seed; two plans with equal specs and seed make
            identical injection decisions given the same stage
            sequence.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._fired: list[int] = [0] * len(self.specs)
        # The serve path fires plans from concurrent worker threads;
        # every read-modify-write of plan state happens under this.
        self._lock = threading.Lock()
        #: ``{(stage, kind): count}`` of faults actually injected.
        self.injected: dict[tuple[str, str], int] = {}
        #: One :class:`~repro.corpus.dirt.DirtReport` per fired
        #: ``"dirt"`` spec and prep shard, in shard order — the test
        #: oracle for quarantine assertions.
        self.dirt_reports: list = []

    def _matches(
        self, spec: FaultSpec, index: int, stage: str, iteration: int | None
    ) -> bool:
        if spec.stage != stage:
            return False
        if spec.iteration is not None and spec.iteration != iteration:
            return False
        if spec.times is not None and self._fired[index] >= spec.times:
            return False
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return False
        return True

    def _record(self, spec: FaultSpec, index: int) -> None:
        self._fired[index] += 1
        key = (spec.stage, spec.kind)
        self.injected[key] = self.injected.get(key, 0) + 1

    def fire(self, stage: str, iteration: int | None = None) -> None:
        """Inject any due error/delay/worker-death fault at a stage.

        Called by the bootstrap loop at the top of every stage body
        and by the serve path inside its tag engine. Delays sleep
        inline (outside the plan lock); errors raise
        :class:`~repro.errors.FaultInjectionError` and worker deaths
        :class:`~repro.errors.WorkerDeathError` (retry/breaker
        machinery then treats the fault like a real failure).
        """
        due: list[FaultSpec] = []
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.kind not in ("error", "delay", "worker_death"):
                    continue
                if not self._matches(spec, index, stage, iteration):
                    continue
                self._record(spec, index)
                due.append(spec)
        for spec in due:
            if spec.kind == "delay":
                time.sleep(spec.delay_seconds)
            elif spec.kind == "worker_death":
                raise WorkerDeathError(stage, spec.message)
            else:
                raise FaultInjectionError(stage, iteration, spec.message)

    def fire_storage(self, op: str) -> None:
        """Inject any due ``disk_full``/``slow_disk`` fault at a write.

        Called by :func:`repro.runtime.storage.atomic_writer` with the
        logical operation name before touching the disk. ``slow_disk``
        sleeps inline (outside the plan lock); ``disk_full`` raises a
        real ``OSError(ENOSPC)`` so the helper's classification path —
        the same one a genuinely full disk takes — turns it into a
        :class:`~repro.errors.StorageError`.
        """
        import errno as _errno

        due: list[FaultSpec] = []
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.kind not in ("disk_full", "slow_disk"):
                    continue
                if spec.stage != "storage" and spec.stage != op:
                    continue
                if spec.times is not None and self._fired[index] >= spec.times:
                    continue
                if (
                    spec.probability < 1.0
                    and self._rng.random() >= spec.probability
                ):
                    continue
                self._record(spec, index)
                due.append(spec)
        for spec in due:
            if spec.kind == "slow_disk":
                time.sleep(spec.delay_seconds)
            else:
                raise OSError(
                    _errno.ENOSPC,
                    f"injected disk full [{op}]",
                    op,
                )

    def kill_decision(
        self, stage: str, shard_index: int, attempt: int
    ) -> bool:
        """Whether a ``worker_kill`` spec condemns this shard attempt.

        Pure function of ``(plan seed, stage, shard, attempt)`` —
        workers hold pickled plan *copies* and may die before any
        bookkeeping escapes the process, so the decision cannot depend
        on shared mutable state. ``times`` is interpreted per shard:
        attempts ``1..times`` are killed, later retries survive, so a
        default ``times=1`` spec kills exactly the first attempt and
        the requeued retry completes — keeping final output
        bit-identical to a fault-free run. The parent re-evaluates the
        same function after detecting a death to classify it as
        injected (see :meth:`record_worker_kill`).
        """
        base = stage.split(":", 1)[0]
        for spec in self.specs:
            if spec.kind != "worker_kill":
                continue
            if spec.stage not in (base, f"{base}:{shard_index:04d}"):
                continue
            if spec.times is not None and attempt > spec.times:
                continue
            if spec.probability < 1.0:
                rng = random.Random(
                    repr((self.seed, "worker_kill", base, shard_index))
                )
                if rng.random() >= spec.probability:
                    continue
            return True
        return False

    def should_kill_worker(
        self, stage: str, shard_index: int, attempt: int
    ) -> bool:
        """Worker-side hook: True means SIGKILL yourself now."""
        return self.kill_decision(stage, shard_index, attempt)

    def record_worker_kill(self, stage: str) -> None:
        """Parent-side tally of a detected injected kill.

        The condemned worker's plan copy dies with it, so the parent —
        which re-derived the same :meth:`kill_decision` — books the
        injection on the plan tests actually hold.
        """
        base = stage.split(":", 1)[0]
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.kind != "worker_kill":
                    continue
                if spec.stage.split(":", 1)[0] != base:
                    continue
                self._record(spec, index)
                return

    def synthetic_rss_bytes(self) -> int:
        """Total synthetic RSS due ``mem_pressure`` specs add right now.

        Each sample that observes a spec consumes one of its ``times``
        (unlimited specs press forever), so a default ``times=1`` spec
        pressures exactly one governor sample.
        """
        total = 0
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.kind != "mem_pressure":
                    continue
                if spec.times is not None and self._fired[index] >= spec.times:
                    continue
                if (
                    spec.probability < 1.0
                    and self._rng.random() >= spec.probability
                ):
                    continue
                self._record(spec, index)
                total += spec.pressure_bytes
        return total

    def has_memory_faults(self) -> bool:
        """Whether any spec injects synthetic memory pressure."""
        return any(spec.kind == "mem_pressure" for spec in self.specs)

    def mangle_payload(self, stage: str, payload: bytes) -> bytes:
        """Corrupt a request body per any due ``corrupt_payload`` spec.

        The serve path calls this on every request body before JSON
        parsing. Damage is deterministic in shape: the body is cut to
        two thirds and an unterminated-JSON/non-UTF-8 garbage tail is
        spliced on, so the protocol layer must produce a structured
        ``bad_request`` — never an unhandled decode crash.
        """
        mangle = False
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.kind != "corrupt_payload":
                    continue
                if not self._matches(spec, index, stage, None):
                    continue
                self._record(spec, index)
                mangle = True
        if not mangle:
            return payload
        return payload[: (2 * len(payload)) // 3] + _PAYLOAD_GARBAGE

    def has_page_faults(self) -> bool:
        """Whether any spec corrupts corpus pages before tokenization.

        The bootstrap uses this to decide two things: whether shard
        prep workers must run the corruption hook, and whether the
        prep cache must be bypassed (corrupted prep must never be
        recorded as clean, nor be masked by a clean cached artifact).
        """
        return any(
            spec.stage == "corpus"
            and spec.kind in ("corrupt_pages", "dirt")
            for spec in self.specs
        )

    def corrupt_shard_pages(
        self, pages: Sequence[ProductPage], shard_index: int
    ) -> tuple[list[ProductPage], dict[tuple[str, str], int], int, list]:
        """Corrupt one shard's pages per the ``"corpus"`` page specs.

        Fires every ``"corrupt_pages"`` or ``"dirt"`` spec whose stage
        is ``"corpus"``. ``corrupt_pages`` truncates the HTML and
        appends unbalanced tag soup; ``dirt`` delegates to the
        calibrated :func:`repro.corpus.dirt.dirty_pages` generator
        (which may grow the shard via duplicate-id injection). Product
        ids survive so downstream assertions can still attribute
        output.

        Prep workers hold pickled plan *copies*, and one worker may
        process many shards, so a shared RNG and ``times`` bookkeeping
        could not coordinate decisions across processes. Instead every
        decision flows from an RNG seeded by ``(plan seed, shard
        index)``: deterministic for any worker count and chunking, and
        evaluated once per shard — ``times`` is interpreted per shard,
        not globally.

        Returns ``(pages, injected, corrupted, dirt_reports)``: the
        (possibly grown) page list, the per-spec injection counts in
        :attr:`injected`-key form, the number of pages whose html
        changed or were added, and one
        :class:`~repro.corpus.dirt.DirtReport` per fired ``dirt`` spec.
        The caller (the parent process) folds them back via
        :meth:`absorb_injected`, the ``pages_corrupted`` trace counter
        and :attr:`dirt_reports`.
        """
        pages = list(pages)
        originals = list(pages)
        injected: dict[tuple[str, str], int] = {}
        reports: list = []
        victims: set[int] = set()
        rng = random.Random(repr((self.seed, "shard_prep", shard_index)))
        for spec in self.specs:
            if spec.stage != "corpus":
                continue
            if spec.kind == "dirt":
                if (
                    spec.probability < 1.0
                    and rng.random() >= spec.probability
                ):
                    continue
                from ..corpus.dirt import DIRT_KINDS, dirty_pages

                pages, report = dirty_pages(
                    pages,
                    rate=spec.corrupt_fraction,
                    seed=rng.randrange(2**32),
                    kinds=spec.dirt_kinds or DIRT_KINDS,
                )
                reports.append(report)
                if report.total:
                    key = ("corpus", "dirt_pages")
                    injected[key] = injected.get(key, 0) + report.total
                continue
            if spec.kind != "corrupt_pages":
                continue
            if spec.probability < 1.0 and rng.random() >= spec.probability:
                continue
            count = round(len(pages) * spec.corrupt_fraction)
            if count <= 0:
                continue
            victims.update(
                rng.sample(range(len(pages)), min(count, len(pages)))
            )
        for index in sorted(victims):
            page = pages[index]
            pages[index] = ProductPage(
                product_id=page.product_id,
                category=page.category,
                html=page.html[: len(page.html) // 3] + _GARBAGE,
                locale=page.locale,
            )
        if victims:
            key = ("corpus", "pages")
            injected[key] = injected.get(key, 0) + len(victims)
        corrupted = sum(
            1
            for before, after in zip(originals, pages)
            if before.html != after.html
        )
        corrupted += max(len(pages) - len(originals), 0)
        return pages, injected, corrupted, reports

    def absorb_injected(
        self, counts: dict[tuple[str, str], int]
    ) -> None:
        """Fold injection counts from a worker's plan copy into this one.

        Worker processes mutate pickled copies; their tallies die with
        the process unless the parent absorbs them, so chaos tests can
        keep asserting against the one plan they constructed.
        """
        if not counts:
            return
        with self._lock:
            for key, value in counts.items():
                key = tuple(key)
                self.injected[key] = self.injected.get(key, 0) + value

    @property
    def total_injected(self) -> int:
        """Total faults injected so far, across all specs."""
        return sum(self.injected.values())

    # Plans ride RunnerJobs across process boundaries; the lock is
    # per-process state and is rebuilt on unpickle.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(specs={len(self.specs)}, seed={self.seed}, "
            f"injected={self.total_injected})"
        )
