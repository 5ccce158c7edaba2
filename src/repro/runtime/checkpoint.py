"""Crash-safe bootstrap checkpoints: per-iteration snapshots + resume.

A field deployment runs the bootstrap loop over millions of pages per
category; a sweep killed at iteration 4 of 5 must not redo days of
tagger training. :class:`CheckpointStore` persists everything the loop
needs to continue — the per-iteration records and the folded training
dataset — as one JSON snapshot per completed iteration, in the same
pickle-free spirit as :mod:`repro.ml.persistence` (``meta.json`` for
run identity, plain JSON for state; no arbitrary code execution on
load).

Layout of a checkpoint directory::

    meta.json               # format version, run fingerprint, seed digest
    iteration_0001.json.gz  # IterationResult + folded dataset, checksummed
    iteration_0002.json.gz
    ...
    shard_tag_IIII_SSSS.json.gz  # one tagged shard of an unfinished
                                 # iteration (removed once it completes)
    prep_cache/             # shard-prep artifacts (repro.perf.prep_cache)

Snapshots are compact JSON (no indentation, ``(",", ":")``
separators, which keeps :func:`json.dumps` on its C encoder),
gzip-compressed at level 1. On a 300-page vacuum_cleaner run an
iteration snapshot is ~248 KB of JSON and ~25 KB on disk, a ratio of
~10×. Snapshots written by older versions (indented, gzip level 9, or
plain ``.json``) are still read transparently: the checksum covers the
parsed payload, not its encoding.

Guarantees:

* **Atomicity** — snapshots are written to a temp file and
  ``os.replace``d into place, so a crash mid-write never leaves a
  half-snapshot under the final name.
* **Integrity** — every snapshot embeds a SHA-256 checksum of its
  payload; truncated or hand-edited files raise
  :class:`~repro.errors.CheckpointError` instead of silently resuming
  from garbage.
* **Identity** — ``meta.json`` records a fingerprint of the page
  source, configuration and attribute subset, plus a digest of the
  recomputed seed state; resuming against different inputs raises
  :class:`CheckpointError` rather than splicing two unrelated runs.

The seed phase itself is *not* snapshotted: it is deterministic and
cheap relative to tagger training, so resume recomputes it and verifies
the digest matches — which also catches a changed query log that the
source fingerprint alone cannot see.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import pathlib
import re
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from ..config import PipelineConfig
from ..errors import CheckpointError
from ..types import Sentence, TaggedSentence, Token, Triple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.bootstrap import IterationResult
    from .faults import FaultPlan
    from .storage import DirectoryLock

_FORMAT_VERSION = 1

#: gzip level for snapshots. A snapshot is written once per iteration
#: (or shard) on the bootstrap's critical path and read back only on
#: resume; level 1 compresses several times faster than level 9 for a
#: somewhat larger file. Readers never depend on the level.
_GZIP_LEVEL = 1

_SNAPSHOT_PATTERN = re.compile(r"^iteration_(\d{4})\.json(\.gz)?$")
_SHARD_TAG_PATTERN = re.compile(
    r"^shard_tag_(\d{4})_(\d{4})\.json\.gz$"
)


# -- fingerprints -------------------------------------------------------


def source_run_fingerprint(
    source_fingerprint: str,
    config: PipelineConfig,
    attribute_subset: Sequence[str] | None = None,
) -> str:
    """A stable digest of everything that determines a run's output.

    The corpus is never fully resident, so instead of hashing every
    page this folds in the :class:`~repro.corpus.stream.PageSource`'s
    own stable fingerprint — which covers the pages and shard size of
    a materialized source, the generator seed and shape, or the backing
    file's identity — alongside the full configuration (including
    iteration count and every nested sub-config) and the attribute
    subset. Two calls with equal inputs always agree; any drift in
    source or config changes the digest.
    """
    digest = hashlib.sha256()
    digest.update(
        json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    )
    subset = (
        sorted(attribute_subset) if attribute_subset is not None else None
    )
    digest.update(json.dumps(subset).encode("utf-8"))
    digest.update(source_fingerprint.encode("utf-8"))
    return digest.hexdigest()


def seed_digest(
    seed_triples: frozenset[Triple], attributes: Sequence[str]
) -> str:
    """Digest of the recomputed seed-phase output (triples + schema)."""
    digest = hashlib.sha256()
    digest.update(json.dumps(sorted(attributes)).encode("utf-8"))
    rows = sorted(
        (t.product_id, t.attribute, t.value) for t in seed_triples
    )
    digest.update(json.dumps(rows, ensure_ascii=False).encode("utf-8"))
    return digest.hexdigest()


# -- serialization helpers ----------------------------------------------


def _triples_to_json(triples) -> list[list[str]]:
    return sorted(
        [t.product_id, t.attribute, t.value] for t in triples
    )


def _triples_from_json(rows) -> frozenset[Triple]:
    return frozenset(Triple(*row) for row in rows)


def _tagged_to_json(tagged: TaggedSentence) -> dict:
    return {
        "product_id": tagged.sentence.product_id,
        "index": tagged.sentence.index,
        "tokens": [
            [token.text, token.pos] for token in tagged.sentence.tokens
        ],
        "labels": list(tagged.labels),
    }


def _tagged_from_json(record: dict) -> TaggedSentence:
    sentence = Sentence(
        product_id=record["product_id"],
        index=record["index"],
        tokens=tuple(Token(text, pos) for text, pos in record["tokens"]),
    )
    return TaggedSentence(sentence, tuple(record["labels"]))


def _result_to_json(result: "IterationResult") -> dict:
    return {
        "iteration": result.iteration,
        "triples": _triples_to_json(result.triples),
        "new_triples": _triples_to_json(result.new_triples),
        "candidate_extractions": result.candidate_extractions,
        "veto_stats": (
            None if result.veto_stats is None else asdict(result.veto_stats)
        ),
        "semantic_stats": (
            None
            if result.semantic_stats is None
            else {
                "attributes_cleaned": result.semantic_stats.attributes_cleaned,
                "values_scored": result.semantic_stats.values_scored,
                "values_removed": result.semantic_stats.values_removed,
                "removed_by_attribute": {
                    attribute: list(values)
                    for attribute, values in (
                        result.semantic_stats.removed_by_attribute.items()
                    )
                },
            }
        ),
        "dataset_sentences": result.dataset_sentences,
    }


def _result_from_json(record: dict) -> "IterationResult":
    from ..core.bootstrap import IterationResult
    from ..core.cleaning import SemanticStats, VetoStats

    veto = record["veto_stats"]
    semantic = record["semantic_stats"]
    return IterationResult(
        iteration=record["iteration"],
        triples=_triples_from_json(record["triples"]),
        new_triples=_triples_from_json(record["new_triples"]),
        candidate_extractions=record["candidate_extractions"],
        veto_stats=None if veto is None else VetoStats(**veto),
        semantic_stats=(
            None
            if semantic is None
            else SemanticStats(
                attributes_cleaned=semantic["attributes_cleaned"],
                values_scored=semantic["values_scored"],
                values_removed=semantic["values_removed"],
                removed_by_attribute={
                    attribute: tuple(values)
                    for attribute, values in (
                        semantic["removed_by_attribute"].items()
                    )
                },
            )
        ),
        dataset_sentences=record["dataset_sentences"],
    )


def _checksum(body: dict) -> str:
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


# -- the store ----------------------------------------------------------


@dataclass(frozen=True)
class ResumeState:
    """What the bootstrap loop needs to continue a checkpointed run.

    Attributes:
        results: per-iteration records of every completed cycle, in
            order (``results[-1].iteration`` is the resume point).
        dataset: the folded training dataset feeding the next cycle.
    """

    results: tuple["IterationResult", ...]
    dataset: list[TaggedSentence]

    @property
    def completed_iterations(self) -> int:
        return len(self.results)


class CheckpointStore:
    """Reads and writes one run's checkpoint directory.

    Args:
        directory: checkpoint root for exactly one (pages, config) run;
            created on first write.
        faults: optional :class:`~repro.runtime.faults.FaultPlan` whose
            ``disk_full``/``slow_disk`` specs fire inside every
            snapshot write (op ``"checkpoint_write"``).

    Environment failures (``ENOSPC``, ``EIO``, …) during a write
    surface as :class:`~repro.errors.StorageError` — the bootstrap
    loop catches those, retries with deterministic backoff and then
    degrades to checkpoint-less rather than crashing the run.

    Concurrency: :meth:`hold_lock` takes an ``fcntl.flock`` advisory
    lock on the directory for the duration of a run, so a second run
    pointed at the same checkpoint queues behind the first instead of
    interleaving snapshot writes. Shard tag workers write through
    their own (lock-free) stores — the run owner holds the lock on
    their behalf.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        faults: "FaultPlan | None" = None,
    ):
        self.directory = pathlib.Path(directory)
        self.faults = faults

    # -- locking --------------------------------------------------------

    def hold_lock(self, timeout: float | None = None) -> "DirectoryLock":
        """Advisory lock on the directory, as a context manager.

        Args:
            timeout: seconds to wait for a concurrent holder before
                raising :class:`~repro.errors.CheckpointError`; None
                waits indefinitely (a second run queues, never
                corrupts).
        """
        from .storage import DirectoryLock

        self.directory.mkdir(parents=True, exist_ok=True)
        lock = DirectoryLock(self.directory, ".run.lock")
        try:
            lock.acquire(timeout=timeout)
        except TimeoutError as error:
            raise CheckpointError(str(error)) from error
        return lock

    # -- writing --------------------------------------------------------

    def _write_json(self, name: str, payload: dict) -> None:
        """Atomically write one JSON document into the directory.

        Compact JSON; names ending ``.gz`` are gzip-compressed
        (``mtime=0`` keeps the compressed bytes deterministic for
        identical payloads). Classified environment failures raise
        :class:`~repro.errors.StorageError`.
        """
        from .storage import atomic_writer

        final = self.directory / name
        text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
        with atomic_writer(
            final, "wb", faults=self.faults, op="checkpoint_write"
        ) as handle:
            if name.endswith(".gz"):
                with gzip.GzipFile(
                    fileobj=handle,
                    mode="wb",
                    compresslevel=_GZIP_LEVEL,
                    mtime=0,
                ) as compressed:
                    compressed.write(text.encode("utf-8"))
            else:
                handle.write(text.encode("utf-8"))

    def _write_sealed(self, name: str, body: dict) -> None:
        """Write ``body`` with its format version and SHA-256 checksum.

        The one snapshot codec: :meth:`_open_sealed` reads it back.
        """
        self._write_json(
            name,
            dict(
                body,
                format_version=_FORMAT_VERSION,
                checksum=_checksum(body),
            ),
        )

    def begin(
        self, fingerprint: str, digest: str, iterations: int
    ) -> None:
        """Start (or restart) a checkpointed run: wipe stale snapshots.

        Any snapshot from a previous run in this directory is deleted —
        a fresh run must never splice in old iterations — and a new
        ``meta.json`` records the run identity. Only snapshot files are
        wiped: the ``prep_cache/`` subdirectory (shard-prep
        artifacts, :mod:`repro.perf.prep_cache`) is deliberately
        retained, so a restarted run skips ``shard_prep`` — its
        artifacts are keyed by source fingerprint and config digest and
        self-invalidate when either changes.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        for path in self._snapshot_paths():
            path.unlink()
        for path in self._shard_tag_paths():
            path.unlink()
        stale_quarantine = self.directory / "quarantine.json"
        if stale_quarantine.exists():
            stale_quarantine.unlink()
        self._write_json(
            "meta.json",
            {
                "format_version": _FORMAT_VERSION,
                "fingerprint": fingerprint,
                "seed_digest": digest,
                "iterations_target": iterations,
            },
        )

    def write_iteration(
        self, result: "IterationResult", dataset: Sequence[TaggedSentence]
    ) -> None:
        """Snapshot one completed iteration and its folded dataset."""
        self._write_sealed(
            f"iteration_{result.iteration:04d}.json.gz",
            {
                "iteration": result.iteration,
                "result": _result_to_json(result),
                "dataset": [_tagged_to_json(tagged) for tagged in dataset],
            },
        )

    def record_quarantine(self, entries: list[dict]) -> None:
        """Persist — or, on resume, verify — the run's quarantine ledger.

        The ingest gate is deterministic, so a resumed run regates the
        same pages and must reproduce the ledger bit-for-bit. First
        call writes ``quarantine.json``; later calls verify the stored
        digest and raise :class:`CheckpointError` on divergence (which
        means the pages or gate config changed under the checkpoint).
        An empty ledger writes nothing — a clean run's checkpoint
        directory stays byte-identical to one from before the gate
        existed — but still verifies against any existing file.
        """
        path = self.directory / "quarantine.json"
        if not entries and not path.exists():
            return
        digest = hashlib.sha256(
            json.dumps(
                entries, sort_keys=True, ensure_ascii=False
            ).encode("utf-8")
        ).hexdigest()
        if path.exists():
            stored = self._load_json(path)
            if stored.get("digest") != digest:
                raise CheckpointError(
                    f"checkpoint at {self.directory} holds a different "
                    "quarantine ledger; the pages or ingest config "
                    "changed under the checkpoint — pass resume=False "
                    "to restart"
                )
            return
        self._write_json(
            "quarantine.json",
            {
                "format_version": _FORMAT_VERSION,
                "digest": digest,
                "entries": entries,
            },
        )

    def load_quarantine(self) -> list[dict] | None:
        """The stored quarantine ledger entries, or None if absent."""
        path = self.directory / "quarantine.json"
        if not path.exists():
            return None
        payload = self._load_json(path)
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise CheckpointError(
                f"corrupt checkpoint file {path}: missing entries"
            )
        return entries

    # -- per-shard tag snapshots (sharded bootstrap) --------------------

    def write_shard_tags(
        self,
        iteration: int,
        shard: int,
        tagged: Sequence[TaggedSentence],
        sentence_count: int,
    ) -> None:
        """Snapshot one shard's tagging output for one iteration.

        Written by shard *worker processes* — each shard owns a
        distinct file name, so concurrent writers never collide, and
        the atomic replace in :meth:`_write_json` means a worker killed
        mid-write leaves no partial snapshot. ``tagged`` holds only the
        span-bearing sentences (everything downstream of tagging is a
        pure function of those), ``sentence_count`` the full number of
        unlabeled sentences the shard tagged.
        """
        self._write_sealed(
            f"shard_tag_{iteration:04d}_{shard:04d}.json.gz",
            {
                "iteration": iteration,
                "shard": shard,
                "sentence_count": sentence_count,
                "tagged": [_tagged_to_json(item) for item in tagged],
            },
        )

    def load_shard_tags(
        self, iteration: int, shard: int
    ) -> tuple[list[TaggedSentence], int] | None:
        """One shard's snapshotted tagging output, or None if absent.

        A resumed sharded run calls this per (iteration, shard) and
        fans out only the shards with no snapshot — completed shards
        are never re-tagged. Corruption raises
        :class:`~repro.errors.CheckpointError` (a snapshot is either
        whole or absent; a damaged one means tampering, not a crash).
        """
        path = (
            self.directory
            / f"shard_tag_{iteration:04d}_{shard:04d}.json.gz"
        )
        if not path.exists():
            return None
        body = self._open_sealed(
            path, ("iteration", "shard", "sentence_count", "tagged")
        )
        if (body["iteration"], body["shard"]) != (iteration, shard):
            raise CheckpointError(
                f"checkpoint file {path.name} holds iteration "
                f"{body['iteration']} shard {body['shard']}, not "
                f"iteration {iteration} shard {shard}"
            )
        tagged = [
            _tagged_from_json(record) for record in body["tagged"]
        ]
        return tagged, body["sentence_count"]

    def clear_shard_tags(self, iteration: int | None = None) -> int:
        """Delete shard tag snapshots (one iteration's, or all).

        Called once an iteration's own ``iteration_NNNN.json.gz``
        snapshot has landed — the shard files are scaffolding for the
        in-flight iteration only. Returns the number removed.
        """
        removed = 0
        for path in self._shard_tag_paths():
            match = _SHARD_TAG_PATTERN.match(path.name)
            assert match is not None
            if iteration is None or int(match.group(1)) == iteration:
                path.unlink()
                removed += 1
        return removed

    def _shard_tag_paths(self) -> list[pathlib.Path]:
        if not self.directory.exists():
            return []
        return sorted(
            path
            for path in self.directory.iterdir()
            if _SHARD_TAG_PATTERN.match(path.name)
        )

    # -- reading --------------------------------------------------------

    def has_run(self) -> bool:
        """True when this directory holds a started checkpointed run."""
        return (self.directory / "meta.json").exists()

    def _snapshot_paths(self) -> list[pathlib.Path]:
        if not self.directory.exists():
            return []
        return sorted(
            path
            for path in self.directory.iterdir()
            if _SNAPSHOT_PATTERN.match(path.name)
        )

    def _load_json(self, path: pathlib.Path) -> dict:
        # gzip.BadGzipFile is an OSError subclass; a *truncated* gzip
        # stream surfaces as EOFError instead. Both mean corruption.
        try:
            if path.name.endswith(".gz"):
                with gzip.open(path, "rt", encoding="utf-8") as handle:
                    payload = json.load(handle)
            else:
                payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, EOFError) as error:
            raise CheckpointError(
                f"corrupt checkpoint file {path}: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"corrupt checkpoint file {path}: not a JSON object"
            )
        return payload

    def load_meta(self) -> dict:
        """Read and validate ``meta.json``."""
        path = self.directory / "meta.json"
        if not path.exists():
            raise CheckpointError(f"no checkpoint run at {self.directory}")
        meta = self._load_json(path)
        if meta.get("format_version") != _FORMAT_VERSION:
            raise CheckpointError(
                "unsupported checkpoint format "
                f"{meta.get('format_version')!r} at {path}"
            )
        return meta

    def validate(
        self, fingerprint: str, digest: str
    ) -> None:
        """Check the stored run identity against a resume attempt."""
        meta = self.load_meta()
        if meta.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint at {self.directory} belongs to a different "
                "run (pages/config fingerprint mismatch); pass "
                "resume=False to restart"
            )
        if meta.get("seed_digest") != digest:
            raise CheckpointError(
                f"checkpoint at {self.directory} was built from a "
                "different seed state (query log or seed inputs "
                "changed); pass resume=False to restart"
            )

    def _open_sealed(
        self, path: pathlib.Path, keys: tuple[str, ...]
    ) -> dict:
        """The checksum-verified body of a :meth:`_write_sealed` file.

        A missing key or a checksum that does not match the body's
        raises :class:`CheckpointError`.
        """
        payload = self._load_json(path)
        try:
            body = {key: payload[key] for key in keys}
            stored = payload["checksum"]
        except KeyError as error:
            raise CheckpointError(
                f"corrupt checkpoint file {path}: missing {error}"
            ) from error
        if _checksum(body) != stored:
            raise CheckpointError(
                f"corrupt checkpoint file {path}: checksum mismatch"
            )
        return body

    def load_resume_state(self) -> ResumeState | None:
        """Rebuild the loop state from the last completed iteration.

        Returns None when the run has no completed iterations yet.
        Snapshots must be contiguous from iteration 1; a gap means the
        directory was tampered with and raises
        :class:`CheckpointError`.
        """
        paths = self._snapshot_paths()
        if not paths:
            return None
        results = []
        last_body: dict | None = None
        for expected, path in enumerate(paths, start=1):
            body = self._open_sealed(
                path, ("iteration", "result", "dataset")
            )
            if body["iteration"] != expected:
                raise CheckpointError(
                    f"checkpoint at {self.directory} is missing "
                    f"iteration {expected} (found {body['iteration']} "
                    f"in {path.name})"
                )
            results.append(_result_from_json(body["result"]))
            last_body = body
        assert last_body is not None
        dataset = [
            _tagged_from_json(record) for record in last_body["dataset"]
        ]
        return ResumeState(results=tuple(results), dataset=dataset)
