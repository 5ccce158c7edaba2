"""Cross-run shard-prep artifact cache.

One level above :mod:`repro.perf.cache`'s ``FeatureCache``: where the
feature cache memoizes per-sentence CRF features *within* a run, this
module caches the entire output of shard prep — the gate/tokenize/mine
pass of :mod:`repro.core.sharded` — *across* runs. Prep output is
iteration-invariant (only seeds and tagging change between bootstrap
iterations) and fully determined by the page bytes and the gate +
tokenizer configuration, so it is keyed by::

    (source fingerprint, shard index, prep digest)

where the prep digest (:func:`prep_digest`) covers the
:class:`~repro.config.IngestConfig`, the registered locale codes and a
format version. There is one tier, :class:`DiskPrepCache`: checksummed
artifacts under ``<root>/<key>/`` — the shard's gzip-JSONL cache file
(used directly as the run's shard-cache directory) plus a
``.meta.json`` sidecar carrying the replay outcomes, warnings and the
SHA-256 of the gzip bytes. It serves runs with a checkpoint (root
``<checkpoint>/prep_cache``, deliberately *not* wiped by
``CheckpointStore.begin``) or an explicit ``cache_dir``; a resumed —
or simply repeated — run reloads instead of re-prepping. A checksum
or format mismatch silently degrades to re-prepping that shard. A run
with neither root preps into a self-cleaning temporary directory and
caches nothing.

Bit-identity contract: a cache hit replays the exact per-page outcomes
the worker returned when the shard was first prepped, and the parent's
sequential merge (global dedup, ledger order, strict escalation) runs
unchanged on top — so results are bit-identical to an uncached run for
any shard size, worker count and cache state (cold or warm). The cache
has no off switch: the only runs it does not serve are those with
page-corruption fault specs, which bypass it entirely in both
directions (corrupted prep must never be recorded as clean, nor masked
by a clean hit).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
from dataclasses import asdict, dataclass, field

from ..config import IngestConfig

#: Bumped whenever the shard cache record layout or outcome shapes
#: change; part of the prep digest, so stale artifacts simply miss.
PREP_FORMAT_VERSION = 1


def prep_digest(ingest: IngestConfig) -> str:
    """Digest of everything (besides the pages) that shapes prep output.

    Args:
        ingest: the gate configuration in effect.
    """
    from ..nlp.tokenizer import available_locales

    payload = {
        "format": PREP_FORMAT_VERSION,
        "ingest": asdict(ingest),
        "locales": list(available_locales()),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def prep_cache_key(source_fingerprint: str, digest: str) -> str:
    """Directory-name-safe key for one (source, prep config) pair."""
    return f"{digest[:16]}_{source_fingerprint[:16]}"


def shard_cache_path(cache_dir: str | os.PathLike, index: int) -> pathlib.Path:
    """Path of one shard's gzip-JSONL cache file (shared convention
    with :mod:`repro.core.sharded`)."""
    return pathlib.Path(cache_dir) / f"shard_{index:04d}.jsonl.gz"


def _sha256_file(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class ShardPrep:
    """One shard's cached prep output.

    Attributes:
        outcomes: the per-page outcome tuples ``prep_shard`` returned
            (``("row", …)`` / ``("q", …)`` / ``("k", …)``), in shard
            page order — everything the parent's deterministic replay
            needs.
        warnings: the worker's counted degradations
            (``parse_budget_soft``).
    """

    outcomes: list
    warnings: dict[str, int]


class DiskPrepCache:
    """Checksummed on-disk prep artifacts under ``<root>/<key>/``.

    The keyed directory doubles as the run's live shard-cache
    directory: workers write ``shard_NNNN.jsonl.gz`` there as always,
    and :meth:`store` seals each file with a ``shard_NNNN.meta.json``
    sidecar (format version, outcomes, warnings, SHA-256 of the gzip
    bytes). :meth:`load` returns the replay outcomes only when the
    sidecar validates against the file on disk. Sibling keys under the
    same root belong to older configs or other sources and are pruned
    on construction, bounding disk growth at one prep set per root;
    a sibling another live run holds locked is left alone.

    Concurrency: construction takes a non-blocking ``fcntl.flock``
    advisory lock on the keyed directory. When another live run
    already holds it, :attr:`contended` is True and the caller must
    not use this cache (the sharded bootstrap falls back to a private
    scratch directory instead of interleaving writes with the other
    run). Call :meth:`close` when the run is done to release the lock.

    Args:
        root: persistent artifact root (``<checkpoint>/prep_cache`` or
            an explicit ``cache_dir``).
        key: the run's ``prep_cache_key``.
        faults: optional plan whose ``disk_full``/``slow_disk`` specs
            fire inside sidecar writes (op ``"prep_cache_write"``).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        key: str,
        *,
        faults=None,
    ):
        from ..runtime.storage import DirectoryLock

        self.root = pathlib.Path(root)
        self.key = key
        self.faults = faults
        self.directory = self.root / key
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = DirectoryLock(self.directory, ".cache.lock")
        self.contended = not self._lock.try_acquire()
        if not self.contended:
            self._prune()

    def close(self) -> None:
        """Release the advisory cache lock (idempotent)."""
        self._lock.release()

    def _prune(self) -> None:
        """Delete sibling keys (older configs/sources) under the root.

        A sibling whose ``.cache.lock`` another live run holds is
        skipped: it is that run's shard-cache directory. An unlocked
        sibling is removed while holding its lock, so no run can open
        it mid-removal. Tolerates a concurrent deleter: every entry
        that vanishes between listing and removal is simply skipped —
        another process beat us to the same cleanup.
        """
        from ..runtime.storage import DirectoryLock

        try:
            children = list(self.root.iterdir())
        except FileNotFoundError:  # root itself raced away
            return
        for child in children:
            try:
                if (
                    not child.is_dir()
                    or child.name == self.key
                    or child.name.startswith(".")
                ):
                    continue
                lock = DirectoryLock(child, ".cache.lock")
                if not lock.try_acquire():
                    continue  # a live run's directory
                try:
                    shutil.rmtree(child, ignore_errors=True)
                finally:
                    lock.release()
            except FileNotFoundError:
                continue

    def shard_path(self, index: int) -> pathlib.Path:
        return shard_cache_path(self.directory, index)

    def meta_path(self, index: int) -> pathlib.Path:
        return self.directory / f"shard_{index:04d}.meta.json"

    def load(self, index: int) -> ShardPrep | None:
        """Validated prep artifact for one shard, or None to re-prep."""
        meta_path = self.meta_path(index)
        cache_file = self.shard_path(index)
        if not meta_path.exists() or not cache_file.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            return None
        if (
            meta.get("format") != PREP_FORMAT_VERSION
            or meta.get("shard") != index
        ):
            return None
        if _sha256_file(cache_file) != meta.get("cache_sha256"):
            return None
        outcomes = [tuple(outcome) for outcome in meta["outcomes"]]
        return ShardPrep(
            outcomes=outcomes, warnings=dict(meta.get("warnings", {}))
        )

    def store(
        self, index: int, outcomes: list, warnings: dict[str, int]
    ) -> None:
        """Seal the already-written shard cache file with its sidecar.

        Raises:
            StorageError: the sidecar write hit a classified
                environment failure (disk full, I/O error) — the
                caller degrades to cache-off for the rest of the run.
        """
        from ..runtime.storage import atomic_write_text

        cache_file = self.shard_path(index)
        if not cache_file.exists():  # pragma: no cover - defensive
            return
        meta = {
            "format": PREP_FORMAT_VERSION,
            "shard": index,
            "cache_sha256": _sha256_file(cache_file),
            "outcomes": outcomes,
            "warnings": warnings,
        }
        atomic_write_text(
            self.meta_path(index),
            json.dumps(meta, ensure_ascii=False),
            faults=self.faults,
            op="prep_cache_write",
        )


@dataclass
class PrepStore:
    """One run's handle on its :class:`DiskPrepCache`: hit/miss
    counters plus the run's write-degradation state.

    The disk cache's keyed directory is the run's live shard-cache
    directory, so a hit needs no file copy: the shard's gzip file is
    already where every later stage reads it.
    """

    disk: DiskPrepCache
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    #: Set when a store hit a classified environment failure
    #: (:class:`~repro.errors.StorageError`): writes stop for the rest
    #: of the run (reads of already-sealed artifacts stay valid).
    disabled: bool = field(default=False, init=False)
    write_failures: int = field(default=0, init=False)

    def load(self, index: int) -> tuple[list, dict[str, int]] | None:
        """Cached (outcomes, warnings) for a shard, with the cache file
        guaranteed present in the keyed directory; None on a miss."""
        prep = self.disk.load(index)
        if prep is None:
            self.misses += 1
            return None
        self.hits += 1
        return prep.outcomes, prep.warnings

    def store(
        self, index: int, outcomes: list, warnings: dict[str, int]
    ) -> None:
        """Record a freshly-prepped shard (cache file already written).

        A classified environment failure (:class:`~repro.errors.
        StorageError`) disables further stores for the run instead of
        propagating — losing cache artifacts costs re-prep time on the
        next run, never this run's output.
        """
        if self.disabled:
            return
        from ..errors import StorageError

        try:
            self.disk.store(index, outcomes, warnings)
        except StorageError:
            self.write_failures += 1
            self.disabled = True
