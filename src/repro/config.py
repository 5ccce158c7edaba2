"""Configuration dataclasses for the PAE pipeline.

Defaults follow the paper's experimental setting (Section VI): five
bootstrap iterations, CRF window features, four veto rules with a top-80%
unpopularity cut and a 30-character length cap, and per-iteration word2vec
retraining for semantic cleaning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError


@dataclass(frozen=True, slots=True)
class SeedConfig:
    """Pre-processor settings (Section V-A).

    Attributes:
        aggregation_threshold: minimum Charron-style similarity score for
            two attribute names to be merged as redundant aliases.
        aggregation_damping: weight of the comparable-range-size penalty
            in the aggregation score (see ``aggregation.py``).
        min_attribute_pages: attribute names seen in fewer dictionary
            tables than this are discarded as noise before aggregation.
        min_value_page_frequency: a seed value not found in the query log
            is kept only if it occurs in at least this many pages.
        diversification_k: number of most-frequent PoS-tag sequences kept
            per attribute by the value-diversification module.
        diversification_n: number of most-frequent values adopted per kept
            PoS-tag sequence.
    """

    aggregation_threshold: float = 0.35
    aggregation_damping: float = 0.6
    min_attribute_pages: int = 3
    min_value_page_frequency: int = 3
    diversification_k: int = 4
    diversification_n: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.aggregation_threshold <= 1.0:
            raise ConfigError("aggregation_threshold must be in [0, 1]")
        if not 0.0 <= self.aggregation_damping <= 1.0:
            raise ConfigError("aggregation_damping must be in [0, 1]")
        if self.min_attribute_pages < 1:
            raise ConfigError("min_attribute_pages must be >= 1")
        if self.min_value_page_frequency < 1:
            raise ConfigError("min_value_page_frequency must be >= 1")
        if self.diversification_k < 0 or self.diversification_n < 0:
            raise ConfigError("diversification parameters must be >= 0")


@dataclass(frozen=True, slots=True)
class VetoConfig:
    """Non-semantic (syntactic) cleaning settings (Section V-C).

    The four veto rules of the paper: single-token symbols, markup tags,
    unpopular entities (keep the top share of entities per attribute,
    ranked by tagged-item count) and overlong values.
    """

    keep_top_share: float = 0.8
    max_value_chars: int = 30

    def __post_init__(self) -> None:
        if not 0.0 < self.keep_top_share <= 1.0:
            raise ConfigError("keep_top_share must be in (0, 1]")
        if self.max_value_chars < 1:
            raise ConfigError("max_value_chars must be >= 1")


@dataclass(frozen=True, slots=True)
class SemanticConfig:
    """Semantic-drift cleaning settings (Section V-C).

    Attributes:
        core_size: ``n`` — values kept when iteratively pruning the least
            similar value to form an attribute's semantic core. ``0``
            disables pruning (paper §VIII-B explores unrestricted ``n``).
        accept_threshold: relative acceptance cut-off — a value is
            removed when its multiplicative similarity against the
            core falls below ``accept_threshold`` times the *median*
            core-member score (scale-robust; see semantic.py).
        embedding_dim: word2vec vector dimensionality.
        embedding_epochs: skip-gram training epochs per iteration.
        embedding_window: skip-gram context window.
        embedding_negatives: negative samples per positive pair.
        min_core_attribute_values: attributes with fewer distinct values
            than this skip semantic cleaning (too little geometry).
    """

    core_size: int = 10
    accept_threshold: float = 0.62
    embedding_dim: int = 16
    embedding_epochs: int = 12
    embedding_window: int = 3
    embedding_negatives: int = 4
    min_core_attribute_values: int = 3

    def __post_init__(self) -> None:
        if self.core_size < 0:
            raise ConfigError("core_size must be >= 0 (0 disables pruning)")
        if not 0.0 <= self.accept_threshold <= 1.0:
            raise ConfigError("accept_threshold must be in [0, 1]")
        if self.embedding_dim < 2:
            raise ConfigError("embedding_dim must be >= 2")
        if self.embedding_epochs < 1:
            raise ConfigError("embedding_epochs must be >= 1")
        if self.embedding_window < 1:
            raise ConfigError("embedding_window must be >= 1")
        if self.embedding_negatives < 1:
            raise ConfigError("embedding_negatives must be >= 1")


#: Ingest policies: fail fast, fix what is fixable, or contain and go on.
INGEST_POLICIES = ("strict", "repair", "drop")


@dataclass(frozen=True, slots=True)
class IngestConfig:
    """Dirty-input gate settings (:mod:`repro.ingest`).

    Merchant pages arrive truncated, mojibake-ridden and occasionally
    hostile (megabyte blobs, pathological nesting). The gate validates
    every page before the pipeline sees it, under one of three policies:

    * ``"strict"`` — the first failing page raises
      :class:`~repro.errors.PageQuarantinedError` (CI / trusted data).
    * ``"repair"`` — fixable damage (truncation, unclosed tags, entity
      garbage, mojibake) is normalized in place; unfixable pages are
      quarantined and the run continues. The default.
    * ``"drop"`` — any failing page is quarantined, no repairs.

    Attributes:
        policy: one of :data:`INGEST_POLICIES`.
        max_page_bytes: UTF-8 size above which a page is a "megapage"
            and unconditionally quarantined.
        max_dom_depth: maximum open-element nesting the parser accepts.
        max_table_rows: maximum ``<tr>`` rows in any one table.
        parse_budget_seconds: wall-clock budget for parsing one page,
            checked after the parse on every thread and process; an
            overrun quarantines the page and counts as
            ``parse_budget_soft``. 0 disables the budget.
        max_unclosed_tags: unclosed non-void elements tolerated at end
            of input before the page counts as structurally damaged.
        max_bad_entities: malformed entity references tolerated before
            the page counts as entity garbage.
    """

    policy: str = "repair"
    max_page_bytes: int = 1_000_000
    max_dom_depth: int = 100
    max_table_rows: int = 500
    parse_budget_seconds: float = 5.0
    max_unclosed_tags: int = 12
    max_bad_entities: int = 16

    def __post_init__(self) -> None:
        if self.policy not in INGEST_POLICIES:
            raise ConfigError(
                f"ingest policy must be one of {INGEST_POLICIES}, "
                f"got {self.policy!r}"
            )
        if self.max_page_bytes < 1:
            raise ConfigError("max_page_bytes must be >= 1")
        if self.max_dom_depth < 1:
            raise ConfigError("max_dom_depth must be >= 1")
        if self.max_table_rows < 1:
            raise ConfigError("max_table_rows must be >= 1")
        if self.parse_budget_seconds < 0:
            raise ConfigError("parse_budget_seconds must be >= 0")
        if self.max_unclosed_tags < 0:
            raise ConfigError("max_unclosed_tags must be >= 0")
        if self.max_bad_entities < 0:
            raise ConfigError("max_bad_entities must be >= 0")


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Online extraction service settings (:mod:`repro.serve`).

    The serve daemon routes every request through a robustness
    pipeline: admission control with load shedding, a strict ingest
    gate, per-request deadlines, micro-batched tagging, and a
    per-model circuit breaker with a graceful degradation ladder
    (active model → previous registry version → dictionary-only →
    fast-fail).

    Attributes:
        host: bind address.
        port: bind port (0 picks an ephemeral port).
        queue_capacity: maximum requests admitted concurrently
            (queued + in flight); excess is shed with a structured
            429 and a deterministic ``Retry-After``.
        deadline_seconds: default per-request wall-clock budget; a
            blown deadline returns a structured timeout, never a hung
            socket.
        max_deadline_seconds: cap on client-requested deadlines.
        batch_max_size: requests merged into one micro-batched tag
            call.
        batch_max_wait_seconds: how long the batcher waits for
            co-travellers after the first request arrives.
        breaker_threshold: consecutive model failures that trip the
            breaker one rung down the degradation ladder.
        breaker_cooldown_seconds: wait before a half-open probe tries
            the rung above again.
        drain_timeout_seconds: how long a hot-swap waits for the old
            version's in-flight requests to finish.
        default_locale: locale assumed for requests that omit one.
        ingest: gate settings for request payloads (strict policy —
            rejects are quarantined with a structured 4xx).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    queue_capacity: int = 32
    deadline_seconds: float = 5.0
    max_deadline_seconds: float = 30.0
    batch_max_size: int = 16
    batch_max_wait_seconds: float = 0.005
    breaker_threshold: int = 3
    breaker_cooldown_seconds: float = 2.0
    drain_timeout_seconds: float = 10.0
    #: Soft RSS ceiling in MiB for the serve process (None = off).
    #: Under pressure admission control halves its effective capacity
    #: (sheds with the same structured 429) until RSS recovers.
    memory_budget_mb: int | None = None
    default_locale: str = "ja"
    ingest: IngestConfig = field(
        default_factory=lambda: IngestConfig(
            policy="strict", parse_budget_seconds=2.0
        )
    )

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigError("port must be in [0, 65535]")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if self.deadline_seconds <= 0:
            raise ConfigError("deadline_seconds must be > 0")
        if self.max_deadline_seconds < self.deadline_seconds:
            raise ConfigError(
                "max_deadline_seconds must be >= deadline_seconds"
            )
        if self.batch_max_size < 1:
            raise ConfigError("batch_max_size must be >= 1")
        if self.batch_max_wait_seconds < 0:
            raise ConfigError("batch_max_wait_seconds must be >= 0")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_seconds < 0:
            raise ConfigError("breaker_cooldown_seconds must be >= 0")
        if self.drain_timeout_seconds < 0:
            raise ConfigError("drain_timeout_seconds must be >= 0")
        if self.memory_budget_mb is not None and self.memory_budget_mb < 1:
            raise ConfigError("memory_budget_mb must be >= 1 (or None)")


@dataclass(frozen=True, slots=True)
class HealthConfig:
    """Bootstrap iteration-health guardrails (circuit breaker).

    A poisoned corpus can make an iteration produce garbage that the
    next iteration trains on — drift compounding instead of converging.
    The breaker inspects every completed iteration and, when it looks
    pathological, halts the loop with the *last healthy* iteration's
    results instead of folding the bad cycle into the dataset.

    The thresholds are also the off switch: ``max_rejection_rate=1.0``
    can never be exceeded and ``yield_collapse_ratio=0.0`` can never
    trip.

    Attributes:
        max_rejection_rate: trip when the cleaning stages reject more
            than this share of an iteration's candidate extractions
            (semantic-drift explosion). Lax by default — healthy runs
            reject well under half.
        min_rejection_sample: rejection-rate checks need at least this
            many candidates (tiny iterations are noise, not signal).
        yield_collapse_ratio: trip when an iteration's candidate count
            falls below this fraction of the previous iteration's
            (yield collapse).
        min_yield_sample: collapse checks require the previous
            iteration to have produced at least this many candidates.
    """

    max_rejection_rate: float = 0.95
    min_rejection_sample: int = 20
    yield_collapse_ratio: float = 0.02
    min_yield_sample: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.max_rejection_rate <= 1.0:
            raise ConfigError("max_rejection_rate must be in (0, 1]")
        if self.min_rejection_sample < 1:
            raise ConfigError("min_rejection_sample must be >= 1")
        if not 0.0 <= self.yield_collapse_ratio < 1.0:
            raise ConfigError("yield_collapse_ratio must be in [0, 1)")
        if self.min_yield_sample < 1:
            raise ConfigError("min_yield_sample must be >= 1")


@dataclass(frozen=True, slots=True)
class CrfConfig:
    """CRF tagger settings (Section VI-D).

    The paper uses crfsuite defaults: L-BFGS with L1+L2 regularisation,
    and window features around each token.
    """

    window: int = 2
    l1: float = 0.05
    l2: float = 0.05
    max_iterations: int = 60
    min_feature_count: int = 1

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ConfigError("window must be >= 0")
        if self.l1 < 0 or self.l2 < 0:
            raise ConfigError("regularisation strengths must be >= 0")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass(frozen=True, slots=True)
class LstmConfig:
    """BiLSTM tagger settings (NeuroNER-style, Section VI-D)."""

    epochs: int = 2
    char_dim: int = 12
    char_hidden: int = 12
    word_dim: int = 24
    word_hidden: int = 24
    # Tuned for corpora two orders of magnitude smaller than the
    # paper's: the same 2-vs-10-epoch contrast needs a larger step.
    dropout: float = 0.2
    learning_rate: float = 0.45
    seed: int = 13

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        for name in ("char_dim", "char_hidden", "word_dim", "word_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Top-level pipeline configuration (Figure 1 parameters).

    Attributes:
        iterations: ``N`` — bootstrap cycles (paper: 5).
        tagger: ``"crf"``, ``"lstm"``, or ``"ensemble"`` (the §IX
            future-work CRF+LSTM combination from
            :mod:`repro.extensions.ensemble`).
        ensemble_policy: span-combination policy for the ensemble
            backend — ``"agreement"`` (precision-first) or ``"union"``
            (coverage-first).
        enable_syntactic_cleaning: apply the four veto rules.
        enable_semantic_cleaning: apply the word2vec drift filter.
        enable_diversification: apply seed value diversification.
        min_confidence: extension knob — drop extractions whose CRF
            posterior span confidence falls below this (0 disables; only
            meaningful with ``tagger="crf"``). A principled version of
            the candidate-scoring idea the paper cites against drift.
        seed: RNG seed for every stochastic component.
    """

    iterations: int = 5
    tagger: str = "crf"
    ensemble_policy: str = "agreement"
    enable_syntactic_cleaning: bool = True
    enable_semantic_cleaning: bool = True
    enable_diversification: bool = True
    min_confidence: float = 0.0
    seed: int = 7
    #: Cap on seed-labelled sentences kept in the training dataset
    #: (first N in corpus order; None = unbounded). At paper scale the
    #: folded dataset is the last unbounded per-iteration structure —
    #: this knob bounds it deterministically, for any shard layout.
    max_labeled_sentences: int | None = None
    #: Soft RSS ceiling in MiB for every bootstrap run (None = no
    #: governor). Crossing it throttles shard fan-out and tag batches
    #: and releases tokenizer memos — counted backpressure, never an
    #: abort. Output-invisible: throttles change scheduling, not
    #: results.
    memory_budget_mb: int | None = None
    #: Worker processes for the supervised shard pool (None = derive
    #: from visible CPUs, capped at the shard count). A run over a
    #: page list is one shard, so it always runs inline.
    pool_workers: int | None = None
    seed_config: SeedConfig = field(default_factory=SeedConfig)
    veto: VetoConfig = field(default_factory=VetoConfig)
    semantic: SemanticConfig = field(default_factory=SemanticConfig)
    crf: CrfConfig = field(default_factory=CrfConfig)
    lstm: LstmConfig = field(default_factory=LstmConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    health: HealthConfig = field(default_factory=HealthConfig)

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.tagger not in ("crf", "lstm", "ensemble"):
            raise ConfigError(
                "tagger must be 'crf', 'lstm' or 'ensemble'"
            )
        if self.ensemble_policy not in ("agreement", "union"):
            raise ConfigError(
                "ensemble_policy must be 'agreement' or 'union'"
            )
        if not 0.0 <= self.min_confidence < 1.0:
            raise ConfigError("min_confidence must be in [0, 1)")
        if (
            self.max_labeled_sentences is not None
            and self.max_labeled_sentences < 1
        ):
            raise ConfigError(
                "max_labeled_sentences must be >= 1 (or None)"
            )
        if self.memory_budget_mb is not None and self.memory_budget_mb < 1:
            raise ConfigError("memory_budget_mb must be >= 1 (or None)")
        if self.pool_workers is not None and self.pool_workers < 1:
            raise ConfigError("pool_workers must be >= 1 (or None)")

    def without_cleaning(self) -> "PipelineConfig":
        """A copy with both cleaning stages disabled."""
        return replace(
            self,
            enable_syntactic_cleaning=False,
            enable_semantic_cleaning=False,
        )

    def with_tagger(self, tagger: str) -> "PipelineConfig":
        """A copy using a different tagger backend."""
        return replace(self, tagger=tagger)
