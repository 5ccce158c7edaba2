"""The shard plane of the bootstrap: per-shard prep and tagging.

:class:`~repro.core.bootstrap.Bootstrapper` runs the Figure-1 loop over
a :class:`~repro.corpus.stream.PageSource`; a page list is a source
with one shard. The full page set is never resident. Everything that
touches pages or unlabeled sentences happens here, shard by shard,
organized around three facts:

1. **Page preparation is per-page.** Gating (minus cross-page dedup),
   tokenization and candidate discovery are pure functions of one
   page. :func:`prep_shard` runs them for one shard in a pool worker,
   writes the shard's tokenized sentences and table candidates to a
   compact gzip cache file, and returns lightweight per-page
   *outcomes*. :func:`merge_prep` replays the outcomes **in shard
   order** against a global seen-id set, which reproduces exactly the
   ledger, repair counts and page drops of one sequential
   :class:`~repro.ingest.IngestGate` pass over the whole corpus (a
   worker only keeps a page its own prefix hasn't claimed; the replay
   re-checks against the global prefix).
2. **Tagging is per-sentence.** :func:`tag_shard` tags one shard's
   unlabeled sentences in a worker; only span-bearing tagged sentences
   come back (every downstream consumer — candidate extraction,
   cleaning, folding — is a pure function of those), and concatenation
   in shard-index order reproduces corpus sentence order. Output is
   therefore **bit-identical** for any shard size and worker count.
3. **Reduction is cheap.** Seed building, cleaning and folding run in
   the parent on merged, already-small structures;
   :func:`stream_material` and :func:`collect_corpus` stream the shard
   cache files one shard at a time.

Every shard is gated with the counted wall-clock parse budget and, under
a fault plan, corrupted with decisions drawn per ``(plan seed, shard
index)`` (:meth:`~repro.runtime.faults.FaultPlan.corrupt_shard_pages`),
so a run's output depends on its shard layout only through those
fault draws.

Resumability: with a checkpoint attached, each tag worker snapshots
its own shard (``shard_tag_IIII_SSSS.json.gz``, atomic, checksummed)
before returning; a killed run re-fans only the shards with no
snapshot.

Prep caching: prep output is iteration-invariant and pure in the page
bytes and gate/tokenizer config, so each shard's artifacts are kept
across runs in :mod:`repro.perf.prep_cache` — checksummed gzip
artifacts under an explicit ``cache_dir`` or ``<checkpoint>/prep_cache``.
A run with neither root, a fault plan that corrupts pages, or a cache
locked by another live run preps into a self-cleaning temporary
directory instead (:func:`shard_cache`). A cache hit replays the exact
recorded per-page outcomes through the same sequential merge, so
cached runs stay bit-identical to uncached ones.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from ..config import IngestConfig, PipelineConfig
from ..errors import PageQuarantinedError, StorageError
from ..ingest import IngestGate, Quarantine, QuarantineEntry
from ..perf.prep_cache import (
    DiskPrepCache,
    PrepStore,
    prep_cache_key,
    prep_digest,
    shard_cache_path,
)
from ..runtime.trace import PipelineTrace
from ..types import (
    Extraction,
    ProductPage,
    Sentence,
    TaggedSentence,
    Token,
    Triple,
)
from .cleaning import extractions_from_tagged, rebuild_tagged
from .preprocess import Seed
from .preprocess.candidate_discovery import RawCandidate
from .preprocess.training_set import (
    label_page,
    page_table_preferences,
    seed_matcher,
)
from .text import PageText, tokenize_page

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..corpus.stream import PageSource
    from ..runtime.checkpoint import CheckpointStore
    from ..runtime.faults import FaultPlan
    from ..runtime.pool import ShardFailure


# -- shard cache files ---------------------------------------------------
#
# One gzip-JSONL file per shard, one line per *kept* (possibly
# repaired) page:
#
#   {"pid": ..., "locale": ...,
#    "sents": [[index, [[text, pos], ...]], ...],
#    "cands": [[attribute, value_key], ...]}
#
# The cache holds everything every later stage needs — tokenized
# sentences for tagging/labeling/embeddings, candidates for the
# table-page split — so raw HTML is parsed exactly once per page.

#: gzip level for shard cache files. They are scratch written once and
#: re-read several times per run (material, corpus, every iteration's
#: tag pass); level 1 compresses several times faster than the default
#: (9) for a few percent more disk — the right trade for the prep hot
#: path.
_CACHE_GZIP_LEVEL = 1


def _sentences_from_record(record: dict) -> list[Sentence]:
    return [
        Sentence(
            product_id=record["pid"],
            index=index,
            tokens=tuple(Token(text, pos) for text, pos in tokens),
        )
        for index, tokens in record["sents"]
    ]


def _page_text_from_record(record: dict) -> PageText:
    return PageText(
        record["pid"],
        record["locale"],
        tuple(_sentences_from_record(record)),
    )


def _iter_cache(
    cache_dir: str, index: int, dropped: frozenset[str]
) -> Iterator[dict]:
    """One shard's cached page records, minus globally-dropped pages."""
    path = shard_cache_path(cache_dir, index)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["pid"] not in dropped:
                yield record


# -- prep workers --------------------------------------------------------


@dataclass(frozen=True)
class PrepContext:
    """Everything a prep worker needs (pickled once per chunk)."""

    source: "PageSource"
    ingest: IngestConfig
    cache_dir: str
    faults: "FaultPlan | None" = None


def _discover_page_candidates(page: ProductPage, root=None) -> list[list[str]]:
    """One page's dictionary-table rows as ``[attribute, value]``."""
    from .preprocess.candidate_discovery import discover_page_candidates

    return [
        [candidate.attribute, candidate.value_key]
        for candidate in discover_page_candidates(page, root)
    ]


def _corrupt_shard_records(
    records: list, faults: "FaultPlan", index: int
) -> tuple[list, tuple]:
    """Run the page-corruption hook over one shard's records.

    Only :class:`~repro.types.ProductPage` records are corruptible;
    malformed-row :class:`QuarantineEntry` markers keep their relative
    positions. Pages a ``dirt`` fault *adds* land after the shard's
    original records. Returns the records and the hook's
    ``(injected, corrupted, dirt_reports)`` tallies.
    """
    page_slots = [
        slot
        for slot, record in enumerate(records)
        if not isinstance(record, QuarantineEntry)
    ]
    pages = [records[slot] for slot in page_slots]
    pages, injected, corrupted, reports = faults.corrupt_shard_pages(
        pages, index
    )
    tallies = (injected, corrupted, reports)
    if len(page_slots) == len(records):
        return pages, tallies
    for slot, page in zip(page_slots, pages):
        records[slot] = page
    records.extend(pages[len(page_slots):])
    return records, tallies


def prep_shard(context: PrepContext, index: int):
    """Gate + tokenize + mine one shard (worker process).

    Writes the shard cache file atomically and returns
    ``(index, outcomes, warnings, fault_counts)`` where each outcome
    is, in shard page order, one of::

        ("row", entry_dict)                     # malformed JSONL row
        ("q",   entry_dict)                     # quarantined page
        ("k",   pid, locale, repairs, cands)    # kept page

    and ``fault_counts`` is ``None`` or the ``(injected, corrupted,
    dirt_reports)`` tallies of the page-corruption hook for the parent
    to absorb.

    The gate runs with a shard-local seen-id set; :func:`merge_prep`
    replays the outcomes against the *global* seen-id set. The html
    of each kept page is lexed and parsed exactly once: the
    gate's tree is reused for tokenization and candidate mining.
    """
    gate = IngestGate(context.ingest)
    seen_ids: set[str] = set()
    warnings: dict[str, int] = {}
    outcomes: list[tuple] = []
    records = context.source.shard(index)
    fault_counts = None
    if context.faults is not None:
        records, fault_counts = _corrupt_shard_records(
            list(records), context.faults, index
        )
    final = shard_cache_path(context.cache_dir, index)
    temp = final.parent / f".{final.name}.tmp"
    final.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(
        temp, "wt", encoding="utf-8", compresslevel=_CACHE_GZIP_LEVEL
    ) as cache:
        for record in records:
            if isinstance(record, QuarantineEntry):
                outcomes.append(("row", record.to_dict()))
                continue
            entry, page, repairs, root = gate.gate_page_prepared(
                record, seen_ids, warnings
            )
            if entry is not None:
                outcomes.append(("q", entry.to_dict()))
                continue
            assert page is not None
            seen_ids.add(page.product_id)
            page_text = tokenize_page(page, root)
            candidates = _discover_page_candidates(page, root)
            outcomes.append(
                ("k", page.product_id, page.locale, repairs, candidates)
            )
            cache.write(
                json.dumps(
                    {
                        "pid": page.product_id,
                        "locale": page.locale,
                        "sents": [
                            [
                                sentence.index,
                                [[t.text, t.pos] for t in sentence.tokens],
                            ]
                            for sentence in page_text.sentences
                        ],
                        "cands": candidates,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    os.replace(temp, final)
    return index, outcomes, warnings, fault_counts


# -- tag workers ---------------------------------------------------------


def confidence_filtered_tag(
    model,
    unlabeled_sentences: Sequence[Sentence],
    threshold: float,
) -> tuple[list[TaggedSentence], list[Extraction]]:
    """Tag with posterior confidences, dropping low-scoring spans.

    The confidence-filter extension: spans whose posterior span
    confidence is below ``threshold`` never become candidates (so they
    also never reach the training set). Per-sentence independent (the
    model's confidence is a pure function of one sentence), so tag
    workers run it per shard.
    """
    tagged_out: list[TaggedSentence] = []
    extractions: list[Extraction] = []
    for tagged, confidences in model.tag_with_confidence(
        unlabeled_sentences
    ):
        sentence_extractions = extractions_from_tagged([tagged])
        kept = [
            extraction
            for extraction, confidence in zip(
                sentence_extractions, confidences
            )
            if confidence >= threshold
        ]
        if len(kept) != len(sentence_extractions):
            (tagged,) = rebuild_tagged(
                [tagged], kept, drop_unlabelled=False
            )
        tagged_out.append(tagged)
        extractions.extend(kept)
    return tagged_out, extractions


@dataclass(frozen=True)
class TagContext:
    """Everything a tag worker needs (pickled once per chunk)."""

    cache_dir: str
    checkpoint_dir: str | None
    iteration: int
    model: object
    min_confidence: float
    dropped: dict[int, frozenset[str]]
    faults: "FaultPlan | None"


def _span_bearing(tagged: Sequence[TaggedSentence]) -> list[TaggedSentence]:
    return [
        sentence
        for sentence in tagged
        if any(label != "O" for label in sentence.labels)
    ]


def tag_shard(context: TagContext, index: int):
    """Tag one shard's unlabeled sentences (worker process).

    Returns ``(index, span_bearing_tagged, sentence_count)``. With a
    checkpoint attached, a shard snapshot is loaded if present (so a
    retried chunk never re-tags a shard that completed before a pool
    fault) and written before returning otherwise.
    """
    if context.faults is not None:
        context.faults.fire("shard_tag", context.iteration)
        context.faults.fire(f"shard_tag:{index:04d}", context.iteration)
    store: "CheckpointStore | None" = None
    if context.checkpoint_dir is not None:
        from ..runtime.checkpoint import CheckpointStore

        store = CheckpointStore(context.checkpoint_dir)
        cached = store.load_shard_tags(context.iteration, index)
        if cached is not None:
            return index, cached[0], cached[1]
    dropped = context.dropped.get(index, frozenset())
    sentences: list[Sentence] = []
    for record in _iter_cache(context.cache_dir, index, dropped):
        if record["cands"]:
            continue  # table-bearing page: labelled, not tagged
        sentences.extend(_sentences_from_record(record))
    model = context.model
    if context.min_confidence > 0.0 and hasattr(
        model, "tag_with_confidence"
    ):
        tagged, _ = confidence_filtered_tag(
            model, sentences, context.min_confidence
        )
    else:
        tagged = model.tag(sentences)
    spans = _span_bearing(tagged)
    if store is not None:
        try:
            store.write_shard_tags(
                context.iteration, index, spans, len(sentences)
            )
        except (StorageError, OSError):
            # The shard snapshot is a resume optimization; on a full
            # or dying disk the tagged spans still flow back to the
            # parent — never fail the shard over it.
            pass
    return index, spans, len(sentences)


# -- the run's shard cache -----------------------------------------------


@contextlib.contextmanager
def shard_cache(
    config: PipelineConfig,
    source: "PageSource",
    trace: PipelineTrace,
    checkpoint: "CheckpointStore | None" = None,
    faults: "FaultPlan | None" = None,
    cache_dir: str | os.PathLike | None = None,
) -> Iterator[tuple[str, PrepStore | None]]:
    """Open the run's shard-cache directory and prep-cache handle.

    Yields ``(directory, prep_store)``, one of two ways:

    * the prep root is ``cache_dir``, else ``<checkpoint>/prep_cache``
      (both retained across runs). When there is one and its cache is
      usable, the directory is the root's keyed
      :class:`~repro.perf.prep_cache.DiskPrepCache` directory and
      ``prep_store`` its handle;
    * otherwise — no root, a page-corrupting fault plan, or a cache
      locked by another live run — the directory is a self-cleaning
      temporary directory and ``prep_store`` is None.
    """
    root: pathlib.Path | None = None
    if cache_dir is not None:
        root = pathlib.Path(cache_dir)
    elif checkpoint is not None:
        root = checkpoint.directory / "prep_cache"
    # Page-corrupting fault plans poison prep output: never record it
    # as clean, never mask it with a clean artifact.
    if faults is not None and faults.has_page_faults():
        root = None
    disk: DiskPrepCache | None = None
    if root is not None:
        key = prep_cache_key(source.fingerprint(), prep_digest(config.ingest))
        disk = DiskPrepCache(root, key, faults=faults)
        if disk.contended:
            # Another live run holds this cache directory's advisory
            # lock. Sharing the keyed subdirectory would race its
            # prune/seal cycle, so degrade to a private scratch
            # directory: correct output, no cross-run artifact reuse.
            disk.close()
            disk = None
            trace.count("prep_cache_contended", runs=1)
    if disk is not None:
        try:
            yield str(disk.directory), PrepStore(disk)
        finally:
            disk.close()
        return
    with tempfile.TemporaryDirectory(prefix="repro_shard_cache_") as cache:
        yield cache, None


# -- the deterministic prep merge ----------------------------------------


@dataclass
class PrepSummary:
    """The parent-side reduction of every shard's prep outcomes."""

    candidates: list[RawCandidate]
    quarantine: Quarantine
    repaired: dict[str, int]
    dropped: dict[int, frozenset[str]]
    pages_kept: int
    locale: str | None
    soft_budget_trips: int
    #: Shards that exhausted their pool retry budget during prep and
    #: were quarantined as ``check="poisoned_shard"``; every later
    #: stage (material, corpus, tagging) skips them.
    poisoned: frozenset[int] = field(default_factory=frozenset)


def _duplicate_entry(product_id: str) -> QuarantineEntry:
    """The exact entry the sequential gate writes for a duplicate."""
    return QuarantineEntry(
        page_id=product_id,
        check="duplicate_id",
        error="duplicate_id",
        detail=(
            f"product id {product_id!r} already seen in this collection"
        ),
    )


def poisoned_entry(
    index: int, failure: "ShardFailure", work: str
) -> QuarantineEntry:
    """Ledger entry for a shard whose ``work`` exhausted its retries."""
    return QuarantineEntry(
        page_id=f"shard-{index:04d}",
        check="poisoned_shard",
        error=failure.reason,
        detail=f"{work} failed {failure.attempts} attempts: {failure.detail}",
        source="pool",
    )


def merge_prep(
    shard_results: dict[int, tuple[list, dict]],
    failures: dict[int, "ShardFailure"],
    shard_count: int,
    ingest: IngestConfig,
) -> PrepSummary:
    """Replay every shard's prep outcomes in shard order.

    The replay is the determinism keystone: outcomes are walked in
    shard order (= corpus order) against a global seen-id set, so
    cross-shard duplicates are quarantined exactly where one sequential
    gate pass would have quarantined them, and the merged ledger,
    repair counts and page drops match it bit-for-bit. Cached shards
    feed their recorded outcomes into the same replay, so a cached run
    and an uncached run are indistinguishable past this point. Raises
    :class:`~repro.errors.PageQuarantinedError` on the first rejected
    page under the ``strict`` policy.
    """
    strict = ingest.policy == "strict"
    seen: set[str] = set()
    ledger = Quarantine()
    repaired: dict[str, int] = {}
    dropped: dict[int, frozenset[str]] = {}
    candidates: list[RawCandidate] = []
    kept = 0
    locale: str | None = None
    soft_trips = 0
    for index in range(shard_count):
        if index in failures:
            ledger.add(
                poisoned_entry(index, failures[index], f"prep shard {index}")
            )
            continue
        outcomes, warnings = shard_results[index]
        soft_trips += warnings.get("parse_budget_soft", 0)
        shard_drops: set[str] = set()
        for outcome in outcomes:
            kind = outcome[0]
            if kind == "row":
                ledger.add(QuarantineEntry.from_dict(outcome[1]))
                continue
            if kind == "q":
                entry = QuarantineEntry.from_dict(outcome[1])
                if entry.check != "page_bytes" and entry.page_id in seen:
                    # The sequential gate checks duplicate_id before
                    # every check but page_bytes; a worker can't see
                    # ids kept by earlier shards.
                    entry = _duplicate_entry(entry.page_id)
                if strict:
                    raise PageQuarantinedError(
                        entry.page_id, entry.check, entry.detail
                    )
                ledger.add(entry)
                continue
            _, pid, page_locale, repairs, page_cands = outcome
            if pid in seen:
                entry = _duplicate_entry(pid)
                if strict:
                    raise PageQuarantinedError(
                        entry.page_id, entry.check, entry.detail
                    )
                ledger.add(entry)
                shard_drops.add(pid)
                continue
            seen.add(pid)
            kept += 1
            if locale is None:
                locale = page_locale
            for check in repairs:
                repaired[check] = repaired.get(check, 0) + 1
            candidates.extend(
                RawCandidate(pid, attribute, value)
                for attribute, value in page_cands
            )
        if shard_drops:
            dropped[index] = frozenset(shard_drops)
    return PrepSummary(
        candidates=candidates,
        quarantine=ledger,
        repaired=repaired,
        dropped=dropped,
        pages_kept=kept,
        locale=locale,
        soft_budget_trips=soft_trips,
        poisoned=frozenset(failures),
    )


# -- streamed material + corpus ------------------------------------------


@dataclass(frozen=True)
class StreamedMaterial:
    """The seed-labelled training slice and its census."""

    seed_labeled: list[TaggedSentence]
    labeled_total: int
    text_triples: frozenset[Triple]
    unlabeled_pages: int


def stream_material(
    cache: str,
    shard_count: int,
    prep: PrepSummary,
    seed: Seed,
    cap: int | None,
) -> StreamedMaterial:
    """Seed-label table pages shard-by-shard; count the rest.

    Reproduces :func:`~repro.core.preprocess.training_set.
    build_training_material` over the cached corpus without holding
    it: pages stream through one shard at a time, and labelled
    sentences accumulate only up to ``cap`` (``max_labeled_sentences``:
    the first N in corpus order). Text triples — the seed's
    "iteration 0" output — are always collected in full.
    """
    matcher = seed_matcher(seed)
    preferences = page_table_preferences(prep.candidates, seed)
    labeled: list[TaggedSentence] = []
    labeled_total = 0
    unlabeled_pages = 0
    text_triples: set[Triple] = set()
    for index in range(shard_count):
        if index in prep.poisoned:
            continue
        for record in _iter_cache(
            cache, index, prep.dropped.get(index, frozenset())
        ):
            if not record["cands"]:
                unlabeled_pages += 1
                continue
            page_text = _page_text_from_record(record)
            page_labeled, page_triples = label_page(
                page_text,
                matcher,
                preferences.get(page_text.product_id, {}),
            )
            text_triples.update(page_triples)
            labeled_total += len(page_labeled)
            if cap is None:
                labeled.extend(page_labeled)
            elif len(labeled) < cap:
                labeled.extend(page_labeled[: cap - len(labeled)])
    return StreamedMaterial(
        seed_labeled=labeled,
        labeled_total=labeled_total,
        text_triples=frozenset(text_triples),
        unlabeled_pages=unlabeled_pages,
    )


def collect_corpus(
    cache: str, shard_count: int, prep: PrepSummary
) -> list[list[str]]:
    """All pages' token sentences (word2vec input), corpus order.

    Only built when semantic cleaning is enabled — it is the one
    remaining corpus-sized in-memory structure, so paper-scale runs
    should disable semantic cleaning or budget for it (see
    ``docs/architecture.md`` §12).
    """
    corpus: list[list[str]] = []
    for index in range(shard_count):
        if index in prep.poisoned:
            continue
        for record in _iter_cache(
            cache, index, prep.dropped.get(index, frozenset())
        ):
            for _, tokens in record["sents"]:
                corpus.append([text for text, _ in tokens])
    return corpus
