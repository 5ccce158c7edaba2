"""The :class:`CrfTagger` facade.

Ties together feature extraction, indexing, training and Viterbi
decoding behind the two-method :class:`~repro.ml.base.SequenceTagger`
protocol the bootstrap loop consumes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...config import CrfConfig
from ...errors import ModelError, NotFittedError, TrainingError
from ...nlp.bio import OUTSIDE, repair_bio
from ...perf.bucketing import length_buckets
from ...perf.cache import FeatureCache
from ...types import Sentence, TaggedSentence
from ..features import FeatureExtractor, FeatureIndexer
from .inference import InferenceScratch, viterbi
from .train import CrfProblem, train_crf

#: Sentences per padded Viterbi batch at tag time. Sentences are
#: length-bucketed first, so each batch is nearly rectangular; decoding
#: is per-sentence independent, making any batch size output-identical
#: to one monolithic batch.
TAG_BATCH_SIZE = 64


class CrfTagger:
    """Linear-chain CRF sequence tagger (crfsuite-equivalent).

    Args:
        config: hyperparameters; defaults mirror the paper's
            out-of-the-box crfsuite configuration.
        feature_cache: optional shared :class:`FeatureCache` (the
            bootstrap loop passes one per run so iterations 2+ reuse
            iteration 1's extraction work). A private cache is created
            when omitted; ``False`` disables caching entirely and runs
            the reference string-feature path (re-extracting on every
            call — the benchmark's "uncached" mode). A supplied cache
            must match the configured feature window. Every choice is
            output-identical; only wall-clock differs.
    """

    def __init__(
        self,
        config: CrfConfig | None = None,
        feature_cache: FeatureCache | bool | None = None,
    ):
        self.config = config or CrfConfig()
        if feature_cache is False:
            self._cache: FeatureCache | None = None
            self._extractor = FeatureExtractor(window=self.config.window)
        else:
            if (
                feature_cache is not None
                and feature_cache.extractor.window != self.config.window
            ):
                raise ValueError(
                    "feature_cache window "
                    f"{feature_cache.extractor.window} does not match "
                    f"CrfConfig.window {self.config.window}"
                )
            self._cache = feature_cache or FeatureCache(
                window=self.config.window
            )
            self._extractor = self._cache.extractor
        self._scratch = InferenceScratch()
        self._indexer: FeatureIndexer | None = None
        self._labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self._unary: np.ndarray | None = None
        self._transitions: np.ndarray | None = None
        #: Counted, non-fatal training warnings from the last
        #: ``train()`` call (e.g. a degraded L-BFGS line-search abort);
        #: surfaced through ``PipelineResult.resilience_counters()``.
        self.training_diagnostics: dict[str, int] = {}

    # -- protocol ---------------------------------------------------------

    def train(self, dataset: Sequence[TaggedSentence]) -> "CrfTagger":
        """Fit on BIO-labelled sentences.

        Raises:
            TrainingError: on an empty dataset.
        """
        if not dataset:
            raise TrainingError("cannot train a CRF on an empty dataset")
        label_set = {OUTSIDE}
        for tagged in dataset:
            label_set.update(tagged.labels)
        self._labels = sorted(label_set)
        self._label_index = {
            label: index for index, label in enumerate(self._labels)
        }

        if self._cache is None:
            string_rows = [
                self._extractor.extract(tagged.sentence)
                for tagged in dataset
            ]
            self._indexer = FeatureIndexer(
                min_count=self.config.min_feature_count
            ).fit(string_rows)
            design = self._indexer.design_matrix(string_rows)
        else:
            feature_rows = self._cache.rows_for(
                tagged.sentence for tagged in dataset
            )
            self._indexer = FeatureIndexer(
                min_count=self.config.min_feature_count
            ).fit_interned(feature_rows, self._cache.interner)
            design = self._indexer.design_matrix_interned(feature_rows)
        labels = np.asarray(
            [
                self._label_index[label]
                for tagged in dataset
                for label in tagged.labels
            ],
            dtype=np.int64,
        )
        lengths = np.asarray(
            [len(tagged) for tagged in dataset], dtype=np.int64
        )
        problem = CrfProblem(design, labels, lengths, len(self._labels))
        self.training_diagnostics = {}
        self._unary, self._transitions = train_crf(
            problem, self.config.l1, self.config.l2,
            self.config.max_iterations,
            diagnostics=self.training_diagnostics,
        )
        return self

    def tag(self, sentences: Sequence[Sentence]) -> list[TaggedSentence]:
        """Viterbi-decode BIO labels (scheme-repaired) for new sentences."""
        if self._unary is None or self._indexer is None:
            raise NotFittedError("CrfTagger")
        if not sentences:
            return []
        nonempty = [
            sentence for sentence in sentences if len(sentence) > 0
        ]
        decoded: dict[int, list[str]] = {}
        for chunk in self._tag_batches(nonempty):
            decoded_paths = self._decode(chunk)
            for sentence, path in zip(chunk, decoded_paths):
                decoded[id(sentence)] = path
        results: list[TaggedSentence] = []
        for sentence in sentences:
            if len(sentence) == 0:
                results.append(TaggedSentence(sentence, ()))
                continue
            # Strict lookup: a batching/decoding bug that dropped a
            # sentence must surface as an error here, not as silently
            # vanished extractions downstream.
            try:
                labels = decoded[id(sentence)]
            except KeyError:
                raise ModelError(
                    "CrfTagger.tag decoded no labels for non-empty "
                    f"sentence {sentence.product_id!r}"
                ) from None
            results.append(
                TaggedSentence(sentence, tuple(repair_bio(labels)))
            )
        return results

    def tag_with_confidence(
        self, sentences: Sequence[Sentence]
    ) -> list[tuple[TaggedSentence, list[float]]]:
        """Tag sentences and score every decoded span.

        Returns:
            For each sentence, ``(tagged, confidences)`` where
            ``confidences[i]`` belongs to the i-th span of
            ``decode_bio(tagged.labels)`` — the geometric mean of the
            span labels' posterior marginals (see
            :mod:`repro.ml.crf.confidence`).
        """
        if self._unary is None or self._indexer is None:
            raise NotFittedError("CrfTagger")
        from ...nlp.bio import decode_bio
        from .confidence import span_confidences
        from .inference import forward_backward

        results: list[tuple[TaggedSentence, list[float]]] = []
        nonempty = [s for s in sentences if len(s) > 0]
        scored: dict[int, tuple[list[str], list[float]]] = {}
        for chunk in self._tag_batches(nonempty):
            emissions, mask = self._emissions(chunk)
            paths = viterbi(
                emissions, mask, self._transitions,
                scratch=self._scratch,
            )
            fb = forward_backward(
                emissions, mask, self._transitions,
                scratch=self._scratch,
            )
            marginals = fb.unary_marginals()
            for index, sentence in enumerate(chunk):
                labels = repair_bio(
                    [self._labels[label] for label in paths[index]]
                )
                spans = decode_bio(labels)
                confidences = span_confidences(
                    marginals[index, : len(sentence)],
                    spans,
                    self._label_index,
                )
                scored[id(sentence)] = (labels, confidences)
        for sentence in sentences:
            if len(sentence) == 0:
                results.append((TaggedSentence(sentence, ()), []))
                continue
            try:
                labels, confidences = scored[id(sentence)]
            except KeyError:
                raise ModelError(
                    "CrfTagger.tag_with_confidence decoded no labels "
                    f"for non-empty sentence {sentence.product_id!r}"
                ) from None
            results.append(
                (TaggedSentence(sentence, tuple(labels)), confidences)
            )
        return results

    # -- internals ---------------------------------------------------------

    def _tag_batches(self, nonempty: list[Sentence]):
        """Length-bucketed sentence batches for decoding.

        Each bucket pads only to its own longest member; per-sentence
        decoding is independent of batch composition, so the bucketed
        traversal is output-identical to one monolithic batch.
        """
        if not nonempty:
            return
        buckets = length_buckets(
            [len(sentence) for sentence in nonempty], TAG_BATCH_SIZE
        )
        for bucket in buckets:
            yield [nonempty[index] for index in bucket]

    def _emissions(
        self, sentences: Sequence[Sentence]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Padded emission scores and mask for non-empty sentences."""
        assert self._indexer is not None and self._unary is not None
        if self._cache is None:
            design = self._indexer.design_matrix(
                [self._extractor.extract(s) for s in sentences]
            )
        else:
            feature_rows = self._cache.rows_for(sentences)
            design = self._indexer.design_matrix_interned(feature_rows)
        scores_flat = design @ self._unary
        lengths = [len(sentence) for sentence in sentences]
        batch = len(sentences)
        max_len = max(lengths)
        n_labels = len(self._labels)
        emissions = np.zeros((batch, max_len, n_labels), dtype=np.float64)
        mask = np.zeros((batch, max_len), dtype=bool)
        offset = 0
        for index, length in enumerate(lengths):
            emissions[index, :length] = scores_flat[offset:offset + length]
            mask[index, :length] = True
            offset += length
        return emissions, mask

    def _decode(self, sentences: Sequence[Sentence]) -> list[list[str]]:
        assert self._transitions is not None
        emissions, mask = self._emissions(sentences)
        paths = viterbi(
            emissions, mask, self._transitions, scratch=self._scratch
        )
        return [
            [self._labels[label] for label in path] for path in paths
        ]

    # -- introspection ------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """The learned label inventory (empty before training)."""
        return tuple(self._labels)

    @property
    def feature_count(self) -> int:
        """Number of indexed features (0 before training)."""
        return len(self._indexer) if self._indexer is not None else 0
