"""The bootstrap loop — Figure 1 of the paper.

Per iteration: train the tagger on the current labelled dataset, tag
the unlabeled pool, veto syntactically malformed extractions, filter
semantic drift, fold the surviving evidence back into the dataset, and
accumulate the surviving triples. The stopping criterion is a fixed
iteration count (the paper uses 5).

One engine runs the loop. :meth:`Bootstrapper.run_source` reads the
corpus from a :class:`~repro.corpus.stream.PageSource` shard by shard:
page prep and tagging fan out per shard over a supervised worker pool
(:mod:`repro.core.sharded`), while seed building, cleaning and folding
run here on merged, already-small structures. :meth:`Bootstrapper.run`
over a page list is a run over a one-shard source, which the pool
executes inline. Output is bit-identical for any shard size, worker
count and prep-cache state.

Resilience: every stage body runs through :meth:`Bootstrapper._stage`,
which retries a failed stage up to ``config.stage_retries`` times
(stage bodies are pure functions of their inputs, so a retry of a
transient fault reproduces the uninterrupted output bit-identically)
and records ``stage_retry`` / ``fault_injected`` counter events on the
trace. The optional cleaning stages degrade further: when their retries
are exhausted the stage is skipped with a ``stage_skip`` counter rather
than failing the run — cleaning refines output, it is not required for
one. With a ``checkpoint`` store attached, each completed iteration is
snapshotted (and each tagged shard, mid-iteration), and a re-run
resumes from the last snapshot instead of recomputing finished work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..config import PipelineConfig
from ..errors import (
    FaultInjectionError,
    PoisonedShardError,
    StorageError,
    TrainingError,
)
from ..ingest import Quarantine
from ..perf.cache import FeatureCache
from ..perf.prep_cache import PrepStore, shard_cache_path
from ..runtime.memory import MemoryGovernor
from ..runtime.trace import PipelineTrace
from ..types import (
    Extraction,
    ProductPage,
    TaggedSentence,
    Triple,
)
from . import sharded
from .cleaning import (
    SemanticCleaner,
    SemanticStats,
    VetoStats,
    apply_veto,
    extractions_from_tagged,
    rebuild_tagged,
)
from .preprocess import Seed, build_seed
from .preprocess.aggregation import AttributeClusters
from .preprocess.value_cleaning import QueryLogLike
from .tagger import make_tagger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..corpus.stream import PageSource
    from ..runtime.checkpoint import CheckpointStore
    from ..runtime.faults import FaultPlan
    from ..runtime.pool import ShardWorkerPool


@dataclass(frozen=True)
class IterationResult:
    """Observables of one Tagger–Cleaner cycle.

    Attributes:
        iteration: 1-based cycle number.
        triples: cumulative system output after this cycle (seed triples
            plus every surviving bootstrap extraction so far).
        new_triples: triples first contributed by this cycle.
        candidate_extractions: raw span count the tagger produced.
        veto_stats: per-rule discard counts (None with syntactic
            cleaning disabled).
        semantic_stats: drift-filter counts (None with semantic
            cleaning disabled).
        dataset_sentences: labelled sentences feeding the next cycle.
    """

    iteration: int
    triples: frozenset[Triple]
    new_triples: frozenset[Triple]
    candidate_extractions: int
    veto_stats: VetoStats | None
    semantic_stats: SemanticStats | None
    dataset_sentences: int


@dataclass(frozen=True)
class _IterationArtifacts:
    """Intermediate products one cycle hands to the next.

    Threaded through return values (never stashed on the bootstrapper)
    so two interleaved or concurrent runs of the same instance cannot
    observe each other's extractions.
    """

    kept_extractions: list[Extraction]
    tagged: list[TaggedSentence]


@dataclass(frozen=True)
class BootstrapResult:
    """Everything a bootstrap run produced.

    Attributes:
        seed: the assembled seed (pre-iteration state).
        seed_triples: triples known before any bootstrap cycle (table
            statements plus seed-tagged text), i.e. "iteration 0".
        iterations: one record per cycle, in order.
        attributes: canonical attribute names the run tagged.
        quarantine: the ingest gate's containment ledger (None when
            the gate was disabled and nothing was quarantined).
        halted_reason: why the iteration-health circuit breaker
            stopped the run early (``"rejection_rate"`` or
            ``"yield_collapse"``), or None for a run that completed.
        halted_at_iteration: 1-based cycle the breaker tripped on; the
            run's output is the *previous* (last healthy) cycle's.
    """

    seed: Seed
    seed_triples: frozenset[Triple]
    iterations: tuple[IterationResult, ...]
    attributes: tuple[str, ...]
    quarantine: Quarantine | None = None
    halted_reason: str | None = None
    halted_at_iteration: int | None = None

    @property
    def final_triples(self) -> frozenset[Triple]:
        """System output after the last cycle."""
        if not self.iterations:
            return self.seed_triples
        return self.iterations[-1].triples

    def triples_after(self, iteration: int) -> frozenset[Triple]:
        """Cumulative triples after ``iteration`` cycles (0 = seed)."""
        if iteration <= 0:
            return self.seed_triples
        if iteration > len(self.iterations):
            raise IndexError(
                f"run has {len(self.iterations)} iterations, "
                f"asked for {iteration}"
            )
        return self.iterations[iteration - 1].triples

    def covered_products(self, iteration: int | None = None) -> set[str]:
        """Products with at least one triple at the given point."""
        triples = (
            self.final_triples
            if iteration is None
            else self.triples_after(iteration)
        )
        return {triple.product_id for triple in triples}


def restrict_to_attributes(
    tagged: Sequence[TaggedSentence], allowed: frozenset[str]
) -> list[TaggedSentence]:
    """Blank labels of attributes outside ``allowed`` (specialized models)."""
    restricted: list[TaggedSentence] = []
    for sentence in tagged:
        labels = tuple(
            label
            if label == "O" or label.partition("-")[2] in allowed
            else "O"
            for label in sentence.labels
        )
        restricted.append(sentence.with_labels(labels))
    return restricted


class Bootstrapper:
    """Runs the full algorithm of Figure 1 over one category.

    Args:
        config: pipeline configuration (tagger backend, cleaning
            switches, iteration count, shard-pool size and memory
            budget).
        attribute_subset: restrict the run to these canonical attribute
            names — the "specialized models" of Section VIII-D. None
            trains the single global model.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        attribute_subset: Sequence[str] | None = None,
    ):
        self.config = config or PipelineConfig()
        self.attribute_subset = (
            frozenset(attribute_subset)
            if attribute_subset is not None
            else None
        )
        # Flipped when checkpoint writes hit a classified environment
        # failure (disk full, I/O error) past the retry budget: the
        # run completes checkpoint-less instead of crashing.
        self._checkpoint_disabled = False

    def run(
        self,
        pages: Sequence[ProductPage],
        query_log: QueryLogLike,
        trace: PipelineTrace | None = None,
        *,
        checkpoint: "CheckpointStore | None" = None,
        resume: bool = True,
        faults: "FaultPlan | None" = None,
    ) -> BootstrapResult:
        """Execute seed construction plus N bootstrap cycles over pages.

        A run over a one-shard
        :class:`~repro.corpus.stream.MaterializedPageSource`; see
        :meth:`run_source` for the arguments.
        """
        from ..corpus.stream import MaterializedPageSource

        pages = list(pages)
        source = MaterializedPageSource(pages, shard_size=max(1, len(pages)))
        return self.run_source(
            source,
            query_log,
            trace,
            checkpoint=checkpoint,
            resume=resume,
            faults=faults,
        )

    def run_source(
        self,
        source: "PageSource",
        query_log: QueryLogLike,
        trace: PipelineTrace | None = None,
        *,
        checkpoint: "CheckpointStore | None" = None,
        resume: bool = True,
        faults: "FaultPlan | None" = None,
        cache_dir: str | os.PathLike | None = None,
    ) -> BootstrapResult:
        """Execute seed construction plus N bootstrap cycles.

        Every intermediate artifact lives in locals or flows through
        return values, so one ``Bootstrapper`` can serve sequential
        runs without leakage.

        Args:
            source: the category's page shards.
            query_log: search-log membership filter.
            trace: optional per-stage timing sink; a throwaway trace is
                used when None so the instrumented path is the only
                path.
            checkpoint: optional snapshot store; every completed
                iteration (and, mid-iteration, every tagged shard) is
                written to it, and (with ``resume=True``) a run whose
                directory already holds snapshots continues from them
                instead of redoing the work. The seed phase is
                recomputed — it is deterministic — and verified against
                the stored digest.
            resume: with ``checkpoint``, False discards any existing
                snapshots and starts over.
            faults: optional fault-injection plan; its hooks fire at
                the top of every stage body, in pool workers and
                inside shard prep.
            cache_dir: directory for the shard cache files — with the
                prep cache enabled this becomes a persistent prep
                artifact root (a keyed subdirectory holds the files).
                Defaults to ``<checkpoint>/prep_cache`` with a
                checkpoint, or a self-cleaning temporary directory
                (backed by the process-global memory tier) without one.
        """
        from ..runtime.pool import ShardWorkerPool

        trace = trace if trace is not None else PipelineTrace()
        self._checkpoint_disabled = False
        if checkpoint is not None and checkpoint.faults is None:
            checkpoint.faults = faults
        governor: MemoryGovernor | None = None
        if self.config.memory_budget_mb is not None or (
            faults is not None and faults.has_memory_faults()
        ):
            governor = MemoryGovernor(
                self.config.memory_budget_mb, faults=faults
            )
        with sharded.shard_cache(
            self.config, source, trace, checkpoint, faults, cache_dir
        ) as (cache, prep_store):
            pool = ShardWorkerPool(self._workers(source.shard_count))
            try:
                return self._run(
                    source,
                    query_log,
                    trace,
                    cache,
                    checkpoint,
                    resume,
                    faults,
                    prep_store,
                    pool=pool,
                    governor=governor,
                )
            finally:
                pool.close()

    def _run(
        self,
        source: "PageSource",
        query_log: QueryLogLike,
        trace: PipelineTrace,
        cache: str,
        checkpoint: "CheckpointStore | None",
        resume: bool,
        faults: "FaultPlan | None",
        prep_store: PrepStore | None,
        *,
        pool: "ShardWorkerPool",
        governor: MemoryGovernor | None,
    ) -> BootstrapResult:
        prep = self._stage(
            trace, faults, "shard_prep", None,
            lambda stage: self._prep(
                stage, source, cache, trace, faults, prep_store,
                pool=pool, governor=governor,
            ),
        )
        stub_pages = (
            [ProductPage("", source.category, "", prep.locale)]
            if prep.locale is not None
            else []
        )
        seed = self._stage(
            trace, faults, "seed_build", None,
            lambda stage: self._build_seed(
                stage, stub_pages, query_log, prep.candidates
            ),
        )
        material = self._stage(
            trace, faults, "training_material", None,
            lambda stage: self._build_material(
                stage, cache, source.shard_count, prep, seed
            ),
        )

        attributes = seed.attributes
        seed_triples = frozenset(seed.table_triples | material.text_triples)
        corpus = (
            sharded.collect_corpus(cache, source.shard_count, prep)
            if self.config.enable_semantic_cleaning
            else []
        )

        seed_labeled = material.seed_labeled
        dataset: list[TaggedSentence] = list(seed_labeled)
        cumulative: set[Triple] = set(seed_triples)
        iterations: list[IterationResult] = []
        # Per-run performance state, kept in locals for re-entrancy:
        # the feature cache makes iterations 2+ reuse iteration 1's
        # extraction work.
        feature_cache: FeatureCache | bool | None = None
        if self.config.tagger in ("crf", "ensemble"):
            # False (not None) when disabled: the tagger then runs the
            # reference string-feature path with no private cache
            # either, so enable_feature_cache=False really is an
            # uncached run (the reference tests/test_perf_cache.py
            # holds the cached path to).
            feature_cache = (
                FeatureCache(window=self.config.crf.window)
                if self.config.enable_feature_cache
                else False
            )
        start_iteration = 1
        if checkpoint is not None:
            restored = None
            try:
                restored = self._open_checkpoint(
                    checkpoint, resume, source, seed_triples, attributes
                )
            except StorageError as error:
                self._disable_checkpoint(trace, error)
            if restored is not None:
                iterations = list(restored.results)
                dataset = restored.dataset
                cumulative = set(iterations[-1].triples)
                start_iteration = len(iterations) + 1
                trace.count(
                    "checkpoint_resume",
                    iterations=restored.completed_iterations,
                )
            if self.config.ingest.enabled and not self._checkpoint_disabled:
                # The gate is deterministic, so a resumed run must
                # reproduce the stored ledger bit-for-bit; divergence
                # raises instead of splicing two different corpora.
                try:
                    checkpoint.record_quarantine(
                        prep.quarantine.to_payload()
                    )
                except StorageError as error:
                    self._disable_checkpoint(trace, error)
        halted_reason: str | None = None
        halted_at: int | None = None
        for iteration in range(start_iteration, self.config.iterations + 1):
            result, artifacts = self._iterate(
                iteration,
                dataset,
                cache,
                source.shard_count,
                prep,
                corpus,
                cumulative,
                trace,
                faults,
                feature_cache=feature_cache,
                checkpoint=checkpoint,
                pool=pool,
                governor=governor,
            )
            # Iteration-health circuit breaker: a collapsed yield or an
            # exploding cleaning-rejection rate means the model is
            # drifting into garbage; halt *before* folding this cycle
            # in, so the run's output is the last healthy iteration's.
            halted_reason = self._health_trip(result, artifacts, iterations)
            if halted_reason is not None:
                halted_at = iteration
                trace.count(
                    "circuit_breaker", iteration, **{halted_reason: 1}
                )
                break
            iterations.append(result)
            dataset = self._stage(
                trace, faults, "fold_dataset", iteration,
                lambda stage: self._fold(stage, seed_labeled, artifacts),
            )
            if checkpoint is not None:
                self._stage(
                    trace, faults, "checkpoint_write", iteration,
                    lambda stage: self._snapshot(
                        stage, trace, checkpoint, result, dataset
                    ),
                )
                if not self._checkpoint_disabled:
                    # The iteration snapshot supersedes its shard files.
                    checkpoint.clear_shard_tags(iteration)
        if isinstance(feature_cache, FeatureCache):
            trace.count(
                "feature_cache",
                hits=feature_cache.hits,
                misses=feature_cache.misses,
            )
        if governor is not None and governor.samples:
            trace.count("memory_pressure", **governor.counters())
        self._record_peak_rss(trace)
        return BootstrapResult(
            seed=seed,
            seed_triples=seed_triples,
            iterations=tuple(iterations),
            attributes=attributes,
            quarantine=(
                prep.quarantine
                if self.config.ingest.enabled or len(prep.quarantine)
                else None
            ),
            halted_reason=halted_reason,
            halted_at_iteration=halted_at,
        )

    # -- resilience machinery ------------------------------------------------

    def _stage(
        self,
        trace: PipelineTrace,
        faults: "FaultPlan | None",
        name: str,
        iteration: int | None,
        body: Callable,
    ):
        """Run one traced stage body with fault hooks and retries.

        The fault hook fires inside the stage timing context, so
        injected failures show up in the trace like real ones. Stage
        bodies are pure functions of their inputs; a retry therefore
        reproduces exactly what an untroubled first attempt would have
        produced. Failures beyond ``config.stage_retries`` propagate.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                with trace.stage(name, iteration) as stage:
                    if faults is not None:
                        faults.fire(name, iteration)
                    return body(stage)
            except Exception as error:  # noqa: BLE001 - retried or re-raised
                if isinstance(error, FaultInjectionError):
                    trace.count("fault_injected", iteration, **{name: 1})
                if attempt > self.config.stage_retries:
                    raise
                trace.count("stage_retry", iteration, **{name: 1})

    def _optional_stage(
        self,
        trace: PipelineTrace,
        faults: "FaultPlan | None",
        name: str,
        iteration: int | None,
        body: Callable,
    ):
        """A stage whose exhausted failure degrades to a counted skip.

        Used for the cleaning stages: they refine output but a run
        without them is still a valid (if noisier) run — "degrade,
        don't crash". Returns None when the stage was skipped.
        """
        try:
            return self._stage(trace, faults, name, iteration, body)
        except Exception:  # noqa: BLE001 - deliberate degradation
            trace.count("stage_skip", iteration, **{name: 1})
            return None

    def _health_trip(
        self,
        result: IterationResult,
        artifacts: _IterationArtifacts,
        previous: list[IterationResult],
    ) -> str | None:
        """Decide whether this cycle trips the health circuit breaker.

        A pure function of the cycle's observables and the previous
        records, so a checkpoint-resumed run re-derives the identical
        verdict. Two trip conditions (:class:`~repro.config.
        HealthConfig`):

        * ``"rejection_rate"`` — the cleaning stages rejected more than
          ``max_rejection_rate`` of a meaningful candidate sample: the
          tagger is emitting garbage faster than cleaning can absorb.
        * ``"yield_collapse"`` — candidate yield fell below
          ``yield_collapse_ratio`` of the previous cycle's meaningful
          sample: the model has collapsed.
        """
        health = self.config.health
        if not health.enable_circuit_breaker:
            return None
        candidates = result.candidate_extractions
        kept = len(artifacts.kept_extractions)
        if candidates >= health.min_rejection_sample:
            rejection = 1.0 - kept / candidates
            if rejection > health.max_rejection_rate:
                return "rejection_rate"
        if previous:
            prior = previous[-1].candidate_extractions
            if (
                prior >= health.min_yield_sample
                and candidates < prior * health.yield_collapse_ratio
            ):
                return "yield_collapse"
        return None

    def _open_checkpoint(
        self,
        checkpoint: "CheckpointStore",
        resume: bool,
        source: "PageSource",
        seed_triples: frozenset[Triple],
        attributes: tuple[str, ...],
    ):
        """Validate/create the store; return restore state or None."""
        from ..runtime.checkpoint import seed_digest, source_run_fingerprint

        fingerprint = source_run_fingerprint(
            source.fingerprint(), self.config, self.attribute_subset
        )
        digest = seed_digest(seed_triples, attributes)
        if resume and checkpoint.has_run():
            checkpoint.validate(fingerprint, digest)
            return checkpoint.load_resume_state()
        checkpoint.begin(fingerprint, digest, self.config.iterations)
        return None

    #: Attempts a snapshot write gets before checkpointing is disabled
    #: for the rest of the run.
    _SNAPSHOT_ATTEMPTS = 3

    def _snapshot(self, stage, trace, checkpoint, result, dataset) -> None:
        """Write one iteration snapshot; degrade on storage failure.

        Classified environment failures (:class:`~repro.errors.
        StorageError`: disk full, I/O error) are retried with the
        deterministic job backoff; past the budget the run drops to
        checkpoint-less with a counted ``checkpoint_disabled`` warning
        — losing resumability must never lose the run itself.
        """
        if self._checkpoint_disabled:
            stage.add(skipped=1)
            return
        import time as _time

        from ..runtime.jobs import retry_backoff

        attempt = 0
        while True:
            attempt += 1
            try:
                checkpoint.write_iteration(result, dataset)
                stage.add(iterations=1)
                return
            except StorageError as error:
                if attempt < self._SNAPSHOT_ATTEMPTS:
                    _time.sleep(retry_backoff("checkpoint_write", attempt))
                    continue
                stage.add(write_failures=attempt)
                self._disable_checkpoint(trace, error)
                return

    def _disable_checkpoint(self, trace: PipelineTrace, error) -> None:
        """Degrade to checkpoint-less after a storage failure."""
        self._checkpoint_disabled = True
        trace.count("checkpoint_disabled", failures=1)

    def _workers(self, count: int) -> int:
        """Pool size for ``count`` shards: ``config.pool_workers`` or
        the visible CPUs (``REPRO_WORKERS``-aware), capped at
        ``count``."""
        from ..runtime.runner import default_workers

        if self.config.pool_workers is not None:
            return max(1, self.config.pool_workers)
        return default_workers(count)

    def _wave_workers(
        self, governor: MemoryGovernor | None, pending: int
    ) -> int | None:
        """Slot cap for one pool wave: throttled under memory pressure."""
        if governor is None or not governor.under_pressure():
            return None
        workers = governor.throttle_workers(self._workers(pending))
        governor.relieve()
        return workers

    # -- stage bodies --------------------------------------------------------

    def _prep(
        self,
        stage,
        source: "PageSource",
        cache: str,
        trace: PipelineTrace,
        faults: "FaultPlan | None",
        prep_store: PrepStore | None,
        *,
        pool: "ShardWorkerPool",
        governor: MemoryGovernor | None,
    ) -> sharded.PrepSummary:
        """Prep every shard (cache hits replay), then merge in order."""
        page_faults = faults is not None and faults.has_page_faults()
        context = sharded.PrepContext(
            source=source,
            ingest=(
                self.config.ingest if self.config.ingest.enabled else None
            ),
            cache_dir=cache,
            faults=faults if page_faults else None,
        )
        shard_results: dict[int, tuple[list, dict]] = {}
        pending: list[int] = []
        for index in range(source.shard_count):
            loaded = (
                prep_store.load(index) if prep_store is not None else None
            )
            if loaded is not None:
                shard_results[index] = loaded
            else:
                pending.append(index)
        failures: dict = {}
        if pending:
            results, failures, report = pool.run(
                sharded.prep_shard,
                context,
                pending,
                stage="shard_prep",
                faults=faults,
                max_workers=self._wave_workers(governor, len(pending)),
            )
            corrupted_pages = 0
            for index in sorted(results):
                _, outcomes, warnings, fault_counts = results[index]
                shard_results[index] = (outcomes, warnings)
                if prep_store is not None:
                    prep_store.store(index, outcomes, warnings)
                if fault_counts is not None:
                    injected, corrupted, reports = fault_counts
                    faults.absorb_injected(injected)
                    faults.dirt_reports.extend(reports)
                    corrupted_pages += corrupted
            if corrupted_pages:
                trace.count("pages_corrupted", pages=corrupted_pages)
            if failures and self.config.ingest.enabled and (
                self.config.ingest.policy == "strict"
            ):
                index, failure = min(failures.items())
                raise PoisonedShardError(
                    "shard_prep", index, failure.attempts, failure.detail
                )
            for index in failures:
                # A killed attempt may have sealed the atomic cache
                # write before dying; remove the artifact so material,
                # corpus streaming and tagging all see the same hole.
                cache_file = shard_cache_path(cache, index)
                cache_file.unlink(missing_ok=True)
                cache_file.with_name(
                    f"shard_{index:04d}.meta.json"
                ).unlink(missing_ok=True)
            counts = report.as_counts()
            if any(counts.values()):
                trace.count("pool_supervision", **counts)
        prep = sharded.merge_prep(
            shard_results, failures, source.shard_count, self.config.ingest
        )
        counts = prep.quarantine.counts_by_check()
        if counts:
            trace.count("quarantine", **counts)
        if prep.repaired:
            trace.count("ingest_repair", **prep.repaired)
        if prep.soft_budget_trips:
            trace.count("parse_budget_soft", trips=prep.soft_budget_trips)
        if prep_store is not None:
            trace.count(
                "prep_cache",
                hits=prep_store.hits,
                misses=prep_store.misses,
            )
            if prep_store.disabled:
                trace.count(
                    "prep_cache_disabled",
                    failures=prep_store.write_failures,
                )
        stage.add(
            pages_in=source.page_count,
            pages_kept=prep.pages_kept,
            quarantined=len(prep.quarantine),
            repaired=sum(prep.repaired.values()),
            shards=source.shard_count,
            candidates=len(prep.candidates),
            cached_shards=(
                prep_store.hits if prep_store is not None else 0
            ),
        )
        return prep

    def _build_seed(
        self, stage, pages: list[ProductPage], query_log, candidates
    ) -> Seed:
        seed = build_seed(
            pages,
            query_log,
            self.config.seed_config,
            enable_diversification=self.config.enable_diversification,
            candidates=candidates,
        )
        seed = self._restrict_seed(seed)
        stage.add(
            attributes=len(seed.attributes),
            seed_pairs=len(seed.pairs()),
        )
        return seed

    def _build_material(
        self,
        stage,
        cache: str,
        shard_count: int,
        prep: sharded.PrepSummary,
        seed: Seed,
    ) -> sharded.StreamedMaterial:
        material = sharded.stream_material(
            cache,
            shard_count,
            prep,
            seed,
            self.config.max_labeled_sentences,
        )
        stage.add(
            labeled_sentences=material.labeled_total,
            unlabeled_pages=material.unlabeled_pages,
        )
        return material

    def _fold(
        self, stage, seed_labeled: Sequence[TaggedSentence],
        artifacts: _IterationArtifacts,
    ) -> list[TaggedSentence]:
        dataset = self._next_dataset(seed_labeled, artifacts)
        stage.add(dataset_sentences=len(dataset))
        return dataset

    # -- internals -----------------------------------------------------------

    def _restrict_seed(self, seed: Seed) -> Seed:
        if self.attribute_subset is None:
            return seed
        values = {
            attribute: counter
            for attribute, counter in seed.values.items()
            if attribute in self.attribute_subset
        }
        table_triples = frozenset(
            triple
            for triple in seed.table_triples
            if triple.attribute in self.attribute_subset
        )
        # Clusters must shrink with the subset too: a specialized model
        # (Section VIII-D) told to exclude an attribute must not keep
        # that attribute's value clusters or surface-name aliases.
        canonical = {
            surface: name
            for surface, name in seed.clusters.canonical.items()
            if name in self.attribute_subset
        }
        clusters = AttributeClusters(
            canonical=canonical,
            page_support={
                surface: count
                for surface, count in seed.clusters.page_support.items()
                if surface in canonical
            },
        )
        return Seed(
            values=values,
            clusters=clusters,
            table_triples=table_triples,
            raw_candidate_count=seed.raw_candidate_count,
            cleaned_value_count=seed.cleaned_value_count,
        )

    def _iterate(
        self,
        iteration: int,
        dataset: list[TaggedSentence],
        cache: str,
        shard_count: int,
        prep: sharded.PrepSummary,
        corpus: list[list[str]],
        cumulative: set[Triple],
        trace: PipelineTrace,
        faults: "FaultPlan | None",
        feature_cache: FeatureCache | bool | None = None,
        checkpoint: "CheckpointStore | None" = None,
        *,
        pool: "ShardWorkerPool",
        governor: MemoryGovernor | None = None,
    ) -> tuple[IterationResult, _IterationArtifacts]:
        if self._checkpoint_disabled:
            checkpoint = None
        if not dataset:
            raise TrainingError(
                "seed produced no labelled sentences; the category has "
                "no usable dictionary tables"
            )
        model = self._stage(
            trace, faults, "tagger_train", iteration,
            lambda stage: self._train(
                stage, iteration, dataset, feature_cache
            ),
        )
        # Non-fatal trainer warnings (e.g. an L-BFGS line-search abort
        # degraded to best-so-far weights) become counters so a run
        # that limped through training is auditable via
        # resilience_counters().
        warnings = getattr(model, "training_diagnostics", None)
        if warnings:
            trace.count("trainer_warning", iteration, **warnings)
        tagged, extractions = self._stage(
            trace, faults, "tagger_tag", iteration,
            lambda stage: self._tag(
                stage, model, iteration, cache, shard_count, prep,
                checkpoint, faults, trace, pool=pool, governor=governor,
            ),
        )
        candidate_count = len(extractions)

        veto_stats: VetoStats | None = None
        if self.config.enable_syntactic_cleaning:
            vetoed = self._optional_stage(
                trace, faults, "veto", iteration,
                lambda stage: self._veto(
                    stage, extractions, candidate_count
                ),
            )
            if vetoed is not None:
                extractions, veto_stats = vetoed

        semantic_stats: SemanticStats | None = None
        if self.config.enable_semantic_cleaning and extractions:
            cleaned = self._optional_stage(
                trace, faults, "semantic_clean", iteration,
                lambda stage: self._semantic_clean(
                    stage, iteration, extractions, corpus
                ),
            )
            if cleaned is not None:
                extractions, semantic_stats = cleaned

        new_triples = frozenset(
            extraction.triple for extraction in extractions
        ) - frozenset(cumulative)
        cumulative.update(extraction.triple for extraction in extractions)
        result = IterationResult(
            iteration=iteration,
            triples=frozenset(cumulative),
            new_triples=new_triples,
            candidate_extractions=candidate_count,
            veto_stats=veto_stats,
            semantic_stats=semantic_stats,
            dataset_sentences=len(dataset),
        )
        artifacts = _IterationArtifacts(
            kept_extractions=extractions, tagged=tagged
        )
        return result, artifacts

    def _train(
        self,
        stage,
        iteration: int,
        dataset: list[TaggedSentence],
        feature_cache: FeatureCache | bool | None = None,
    ):
        # The model is built inside the stage body so a retried stage
        # trains a fresh, identically-seeded tagger. The shared feature
        # cache holds only extracted feature strings (pure functions of
        # the sentences), so reuse across retries and iterations cannot
        # alter what a fresh model learns.
        model = make_tagger(self.config, iteration, feature_cache)
        model.train(dataset)
        stage.add(sentences=len(dataset))
        return model

    def _tag(
        self,
        stage,
        model,
        iteration: int,
        cache: str,
        shard_count: int,
        prep: sharded.PrepSummary,
        checkpoint: "CheckpointStore | None",
        faults: "FaultPlan | None",
        trace: PipelineTrace,
        *,
        pool: "ShardWorkerPool",
        governor: MemoryGovernor | None = None,
    ) -> tuple[list[TaggedSentence], list[Extraction]]:
        """Fan tagging out per shard; merge in shard-index order."""
        shard_results: list[tuple[list[TaggedSentence], int] | None] = [
            None
        ] * shard_count
        pending: list[int] = []
        resumed = 0
        for index in range(shard_count):
            if index in prep.poisoned:
                # Poisoned during prep: the shard has no cache file and
                # is already quarantined — tag nothing for it.
                shard_results[index] = ([], 0)
                continue
            if checkpoint is not None:
                cached = checkpoint.load_shard_tags(iteration, index)
                if cached is not None:
                    shard_results[index] = cached
                    resumed += 1
                    continue
            pending.append(index)
        if pending:
            context = sharded.TagContext(
                cache_dir=cache,
                checkpoint_dir=(
                    str(checkpoint.directory)
                    if checkpoint is not None
                    else None
                ),
                iteration=iteration,
                model=model,
                min_confidence=self.config.min_confidence,
                dropped=prep.dropped,
                faults=faults,
            )
            results, failures, report = pool.run(
                sharded.tag_shard,
                context,
                pending,
                stage="shard_tag",
                faults=faults,
                max_workers=self._wave_workers(governor, len(pending)),
            )
            for index, spans, count in results.values():
                shard_results[index] = (spans, count)
            for index, failure in sorted(failures.items()):
                if (
                    self.config.ingest.enabled
                    and self.config.ingest.policy == "strict"
                ):
                    raise PoisonedShardError(
                        "shard_tag", index, failure.attempts, failure.detail
                    )
                prep.quarantine.add(
                    sharded.poisoned_entry(
                        index,
                        failure,
                        f"tag shard {index} (iteration {iteration})",
                    )
                )
                shard_results[index] = ([], 0)
            if failures:
                trace.count(
                    "quarantine", iteration, poisoned_shard=len(failures)
                )
            counts = report.as_counts()
            if any(counts.values()):
                trace.count("pool_supervision", iteration, **counts)
        if resumed:
            trace.count("shard_resume", iteration, shards=resumed)
        merged: list[TaggedSentence] = []
        total_sentences = 0
        for entry in shard_results:
            assert entry is not None
            spans, count = entry
            merged.extend(spans)
            total_sentences += count
        extractions = extractions_from_tagged(merged)
        stage.add(
            sentences=total_sentences,
            extractions=len(extractions),
            shards=shard_count,
        )
        return merged, extractions

    def _veto(
        self, stage, extractions: list[Extraction], candidate_count: int
    ) -> tuple[list[Extraction], VetoStats]:
        kept, veto_stats = apply_veto(extractions, self.config.veto)
        stage.add(kept=len(kept), removed=candidate_count - len(kept))
        return kept, veto_stats

    def _semantic_clean(
        self,
        stage,
        iteration: int,
        extractions: list[Extraction],
        corpus: list[list[str]],
    ) -> tuple[list[Extraction], SemanticStats]:
        cleaner = SemanticCleaner(
            self.config.semantic,
            seed=self.config.seed + iteration,
        )
        kept, semantic_stats = cleaner.clean(extractions, corpus)
        stage.add(kept=len(kept), removed=semantic_stats.values_removed)
        return kept, semantic_stats

    def _next_dataset(
        self,
        seed_labeled: Sequence[TaggedSentence],
        artifacts: _IterationArtifacts,
    ) -> list[TaggedSentence]:
        """Seed-labelled sentences plus this cycle's cleaned evidence."""
        cleaned = rebuild_tagged(
            artifacts.tagged, artifacts.kept_extractions
        )
        return list(seed_labeled) + cleaned

    def _record_peak_rss(self, trace: PipelineTrace) -> None:
        """Record the run-wide peak RSS (self + reaped workers)."""
        from ..runtime.memory import run_peak_rss_bytes

        peak = run_peak_rss_bytes()
        if peak:
            trace.count("peak_rss", bytes=peak)
