"""The public facade: :class:`PAEPipeline`.

One call runs the whole paper system over a page collection:

>>> from repro import PAEPipeline, PipelineConfig
>>> from repro.corpus import Marketplace
>>> dataset = Marketplace(seed=1).generate("vacuum_cleaner", 200)
>>> result = PAEPipeline(PipelineConfig(iterations=2)).run(
...     dataset.product_pages, dataset.query_log
... )
>>> len(result.triples) > 0
True
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..config import PipelineConfig
from ..runtime.trace import PipelineTrace
from ..types import ProductPage, Triple
from .bootstrap import BootstrapResult, Bootstrapper
from .preprocess.value_cleaning import QueryLogLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.faults import FaultPlan


@dataclass(frozen=True)
class PipelineResult:
    """User-facing view of one pipeline run.

    Attributes:
        bootstrap: the full per-iteration record.
        product_count: pages the run consumed (coverage denominator).
        trace: per-stage wall-clock and counter events of the run.
    """

    bootstrap: BootstrapResult
    product_count: int
    trace: PipelineTrace

    @property
    def triples(self) -> frozenset[Triple]:
        """Final extracted ``<product, attribute, value>`` triples."""
        return self.bootstrap.final_triples

    @property
    def attributes(self) -> tuple[str, ...]:
        """Canonical attribute names the run discovered and tagged."""
        return self.bootstrap.attributes

    @property
    def seed_triples(self) -> frozenset[Triple]:
        """Triples known before any bootstrap cycle."""
        return self.bootstrap.seed_triples

    def coverage(self, iteration: int | None = None) -> float:
        """Fraction of products with at least one triple (Section VI-C)."""
        if self.product_count == 0:
            return 0.0
        covered = self.bootstrap.covered_products(iteration)
        return len(covered) / self.product_count

    def triples_per_product(self) -> float:
        """Average number of distinct triples per covered product."""
        covered = self.bootstrap.covered_products()
        if not covered:
            return 0.0
        return len(self.triples) / len(covered)

    @property
    def quarantine(self):
        """The ingest gate's containment ledger (empty on a clean corpus)."""
        return self.bootstrap.quarantine

    def resilience_counters(self) -> dict:
        """Per-stage fault/retry/skip counters observed during the run.

        Returns a dict with fourteen keys: ``"faults"`` (injected faults
        per stage), ``"retries"`` (stage retries per stage),
        ``"skips"`` (optional stages degraded to a skip, per stage),
        ``"pages_corrupted"`` (pages mangled by a fault plan),
        ``"quarantined"`` (ingest-gate rejections per check),
        ``"repaired"`` (ingest-gate normalizations per check),
        ``"circuit_breaker"`` (iteration-health trips per reason),
        ``"trainer_warnings"`` (non-fatal tagger-training degradations
        per kind, e.g. an L-BFGS line-search abort that kept
        best-so-far weights), ``"peak_rss_bytes"`` (the run-wide peak
        RSS), plus the environment-fault tallies:
        ``"pool"`` (worker deaths/respawns/requeues/poisoned shards
        from the supervised shard pool), ``"memory_pressure"``
        (governor samples/events), ``"checkpoint_disabled"`` and
        ``"prep_cache_disabled"`` (storage-degradation trip counts)
        and ``"prep_cache_contended"`` (runs that fell back to a
        private scratch cache). All empty/zero for an untroubled run.
        """
        return {
            "faults": self.trace.counter_totals("fault_injected"),
            "retries": self.trace.counter_totals("stage_retry"),
            "skips": self.trace.counter_totals("stage_skip"),
            "pages_corrupted": self.trace.counter_totals(
                "pages_corrupted"
            ).get("pages", 0),
            "quarantined": self.trace.counter_totals("quarantine"),
            "repaired": self.trace.counter_totals("ingest_repair"),
            "circuit_breaker": self.trace.counter_totals(
                "circuit_breaker"
            ),
            "trainer_warnings": self.trace.counter_totals(
                "trainer_warning"
            ),
            "peak_rss_bytes": self.trace.counter_totals(
                "peak_rss"
            ).get("bytes", 0),
            "pool": self.trace.counter_totals("pool_supervision"),
            "memory_pressure": self.trace.counter_totals(
                "memory_pressure"
            ),
            "checkpoint_disabled": self.trace.counter_totals(
                "checkpoint_disabled"
            ).get("failures", 0),
            "prep_cache_disabled": self.trace.counter_totals(
                "prep_cache_disabled"
            ).get("failures", 0),
            "prep_cache_contended": self.trace.counter_totals(
                "prep_cache_contended"
            ).get("runs", 0),
        }

    def perf_counters(self) -> dict:
        """Performance observables of the run.

        Returns a dict with three keys: ``"feature_cache"`` — the
        cross-iteration feature cache's ``hits``/``misses`` (both zero
        when the backend has none) — ``"prep_cache"`` — shard-prep
        artifact cache ``hits``/``misses`` (both zero when the run had
        no prep root or a page-corrupting fault plan bypassed the
        cache) — and ``"stage_seconds"`` — cumulative wall-clock per
        pipeline stage from the trace.
        """
        cache = self.trace.counter_totals("feature_cache")
        prep = self.trace.counter_totals("prep_cache")
        return {
            "feature_cache": {
                "hits": cache.get("hits", 0),
                "misses": cache.get("misses", 0),
            },
            "prep_cache": {
                "hits": prep.get("hits", 0),
                "misses": prep.get("misses", 0),
            },
            "stage_seconds": self.trace.stage_totals(),
        }


@contextlib.contextmanager
def _checkpoint_lock(checkpoint):
    """Hold the checkpoint run lock for the duration of a run.

    Two runs pointed at one checkpoint directory would interleave
    snapshot writes; the advisory lock makes the second run queue
    behind the first instead (see ``CheckpointStore.hold_lock``).
    """
    if checkpoint is None:
        yield
        return
    lock = checkpoint.hold_lock()
    try:
        yield
    finally:
        lock.release()


class PAEPipeline:
    """End-to-end Product Attribute Extraction, as published.

    Args:
        config: pipeline configuration; the default reproduces the
            paper's reference setup (CRF, both cleaning stages,
            diversification, 5 iterations).
        attribute_subset: optional canonical-attribute restriction for
            specialized models (Section VIII-D).
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        attribute_subset: Sequence[str] | None = None,
    ):
        self.config = config or PipelineConfig()
        self.attribute_subset = (
            tuple(attribute_subset)
            if attribute_subset is not None
            else None
        )

    def run(
        self,
        pages: Sequence[ProductPage],
        query_log: QueryLogLike,
        *,
        trace: PipelineTrace | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = True,
        faults: "FaultPlan | None" = None,
    ) -> PipelineResult:
        """Extract attribute-value triples from product pages.

        A :meth:`run_streamed` over the pages as one shard
        (:class:`~repro.corpus.stream.MaterializedPageSource` with
        ``shard_size=len(pages)``), which the shard pool runs inline —
        the same engine, and the same output, as any other shard
        layout of the same pages.

        Args:
            pages: the category's product pages (HTML).
            query_log: search-log membership filter used during seed
                value cleaning.
            trace: optional stage-timing sink; a fresh
                :class:`PipelineTrace` is created when omitted and
                surfaced on the result either way.
            checkpoint_dir: optional directory for crash-safe
                snapshots; see :meth:`run_streamed`.
            resume: with ``checkpoint_dir``, False discards existing
                snapshots and starts over instead of resuming.
            faults: optional
                :class:`~repro.runtime.faults.FaultPlan` injecting
                deterministic faults at named pipeline stages (chaos
                testing).

        Returns:
            A :class:`PipelineResult`.
        """
        from ..corpus.stream import MaterializedPageSource

        pages = list(pages)
        return self.run_streamed(
            MaterializedPageSource(pages, shard_size=max(1, len(pages))),
            query_log,
            trace=trace,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            faults=faults,
        )

    def run_streamed(
        self,
        source,
        query_log: QueryLogLike,
        *,
        trace: PipelineTrace | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = True,
        faults: "FaultPlan | None" = None,
        cache_dir: str | None = None,
    ) -> PipelineResult:
        """Extract triples from a streamed, sharded page source.

        Re-entrant: every run constructs a fresh
        :class:`~repro.core.bootstrap.Bootstrapper`, so one pipeline
        instance can be reused across datasets — or driven
        concurrently — without any state bleeding between runs. Pages
        come from a :class:`~repro.corpus.stream.PageSource` shard by
        shard, page prep and per-iteration tagging fan out across
        ``config.pool_workers`` worker processes, and the result is
        bit-identical for any shard size and worker count. Peak RSS is
        recorded on the trace and surfaced via
        ``resilience_counters()["peak_rss_bytes"]``.

        Args:
            source: the category's page shards
                (:class:`~repro.corpus.stream.GeneratedPageSource`,
                :class:`~repro.corpus.stream.JsonlPageSource`, or
                :class:`~repro.corpus.stream.MaterializedPageSource`).
            query_log: search-log membership filter.
            trace: optional stage-timing sink.
            checkpoint_dir: optional crash-safe snapshot directory:
                per-iteration snapshots plus per-shard tag snapshots,
                so a run killed at any point can be re-invoked with the
                same arguments and resumes — mid-iteration, without
                re-tagging completed shards — producing bit-identical
                ``final_triples`` to an uninterrupted run.
            resume: with ``checkpoint_dir``, False restarts.
            faults: optional fault plan; page-corruption hooks fire
                inside shard prep with per-shard decisions (and bypass
                the prep cache for the run).
            cache_dir: persistent prep-artifact root reused by later
                runs (default ``<checkpoint_dir>/prep_cache``; without
                either, shards are prepped into a self-cleaning
                temporary directory).

        Returns:
            A :class:`PipelineResult` whose ``product_count`` is the
            source's page count.
        """
        trace = trace if trace is not None else PipelineTrace()
        checkpoint = None
        if checkpoint_dir is not None:
            from ..runtime.checkpoint import CheckpointStore

            checkpoint = CheckpointStore(checkpoint_dir, faults=faults)
        bootstrapper = Bootstrapper(self.config, self.attribute_subset)
        with _checkpoint_lock(checkpoint):
            bootstrap = bootstrapper.run_source(
                source,
                query_log,
                trace=trace,
                checkpoint=checkpoint,
                resume=resume,
                faults=faults,
                cache_dir=cache_dir,
            )
        return PipelineResult(
            bootstrap=bootstrap,
            product_count=source.page_count,
            trace=trace,
        )
