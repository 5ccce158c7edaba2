"""Semantic cleaning: the word2vec drift filter (Section V-C).

"A new value with tag *a* should be semantically similar to other
values that are tagged as *a*." The three steps of the paper:

1. group multiword tagged values into single words (``100 % men`` →
   ``100_%_men``) across the whole corpus;
2. train word2vec on that corpus — from scratch *each iteration*,
   because newly discovered entities need vectors and general-domain
   embeddings cannot represent merchant jargon;
3. for each attribute, form a semantic core by iteratively discarding
   the value least similar to the rest until ``n`` values remain, then
   drop any value whose multiplicative similarity against the core
   (footnote 4) falls below the acceptance cut-off.

Two implementation choices adapt the method to corpora far smaller
than the paper's 200k pages (documented in DESIGN.md §4): vectors are
mean-centered over the vocabulary before scoring (the "all-but-the-
top" fix for the anisotropy small SGNS models develop), and the
acceptance cut-off is *relative* — a fraction of the core members'
median score — so it needs no retuning when the corpus grows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ...config import SemanticConfig
from ...embeddings import Word2Vec, multiplicative_similarity
from ...embeddings.similarity import average_pairwise_similarity
from ...types import Extraction
from ..preprocess.matcher import ValueMatcher

_JOINER = "_"


def merged_token(value_key: str) -> str:
    """The single-word form of a (possibly multiword) value key."""
    return value_key.replace(" ", _JOINER)


def merge_values_in_corpus(
    corpus: Sequence[Sequence[str]],
    value_keys: Sequence[str],
) -> list[list[str]]:
    """Replace occurrences of known values with their merged token."""
    matcher = ValueMatcher({"*": list(value_keys)})
    merged_corpus: list[list[str]] = []
    for sentence in corpus:
        spans = matcher.find_spans(sentence)
        if not spans:
            merged_corpus.append(list(sentence))
            continue
        merged: list[str] = []
        position = 0
        for start, end, _ in spans:
            merged.extend(sentence[position:start])
            merged.append(_JOINER.join(sentence[start:end]))
            position = end
        merged.extend(sentence[position:])
        merged_corpus.append(merged)
    return merged_corpus


def _median(sorted_scores: Sequence[float]) -> float:
    """True median of an already-sorted score list.

    Even-length lists average the two middle elements; taking the
    upper one (the old behaviour) biased the acceptance cutoff high
    and over-removed borderline values.
    """
    count = len(sorted_scores)
    middle = count // 2
    if count % 2:
        return sorted_scores[middle]
    return 0.5 * (sorted_scores[middle - 1] + sorted_scores[middle])


@dataclass(frozen=True)
class SemanticStats:
    """Outcome of one semantic-cleaning pass."""

    attributes_cleaned: int
    values_scored: int
    values_removed: int
    removed_by_attribute: dict[str, tuple[str, ...]] = field(
        default_factory=dict
    )


class SemanticCleaner:
    """Per-iteration semantic-drift filter.

    Args:
        config: semantic-cleaning hyperparameters.
        seed: RNG seed for the freshly trained word2vec model.
    """

    def __init__(self, config: SemanticConfig | None = None, seed: int = 0):
        self.config = config or SemanticConfig()
        self.seed = seed

    def clean(
        self,
        extractions: Sequence[Extraction],
        corpus: Sequence[Sequence[str]],
    ) -> tuple[list[Extraction], SemanticStats]:
        """Filter extractions whose values drift from their attribute.

        Args:
            extractions: veto-surviving extractions of this iteration.
            corpus: all tokenized sentences of the product corpus (the
                word2vec training text).

        Returns:
            ``(kept_extractions, stats)``. Attributes with too few
            distinct values, and values without a trained vector, are
            passed through untouched (nothing to judge them against).
        """
        values_by_attribute: dict[str, set[str]] = defaultdict(set)
        for extraction in extractions:
            values_by_attribute[extraction.attribute].add(extraction.value)

        all_values = sorted(
            {value for values in values_by_attribute.values() for value in values}
        )
        if not all_values:
            return list(extractions), SemanticStats(0, 0, 0)

        merged_corpus = merge_values_in_corpus(corpus, all_values)
        model = Word2Vec(
            dim=self.config.embedding_dim,
            window=self.config.embedding_window,
            negatives=self.config.embedding_negatives,
            epochs=self.config.embedding_epochs,
            seed=self.seed,
        ).train(merged_corpus)
        # "All-but-the-top": remove the common direction small SGNS
        # models collapse into, else every cosine saturates near 1.
        assert model._input_vectors is not None
        mean_vector = model._input_vectors.mean(axis=0)

        removed: dict[str, set[str]] = defaultdict(set)
        scored = 0
        cleaned_attributes = 0
        for attribute, values in values_by_attribute.items():
            vectors: dict[str, np.ndarray] = {}
            for value in values:
                vector = model.vector(merged_token(value))
                if vector is not None:
                    vectors[value] = vector - mean_vector
            if len(vectors) < self.config.min_core_attribute_values:
                continue
            cleaned_attributes += 1
            core_values = self._semantic_core(vectors)
            core_vectors = [vectors[value] for value in core_values]
            scores = {
                value: multiplicative_similarity(vector, core_vectors)
                for value, vector in vectors.items()
            }
            core_scores = sorted(scores[value] for value in core_values)
            median_core = _median(core_scores)
            cutoff = self.config.accept_threshold * median_core
            for value, score in scores.items():
                scored += 1
                if score < cutoff:
                    removed[attribute].add(value)

        kept = [
            extraction
            for extraction in extractions
            if extraction.value not in removed.get(extraction.attribute, ())
        ]
        stats = SemanticStats(
            attributes_cleaned=cleaned_attributes,
            values_scored=scored,
            values_removed=sum(len(values) for values in removed.values()),
            removed_by_attribute={
                attribute: tuple(sorted(values))
                for attribute, values in removed.items()
            },
        )
        return kept, stats

    def _semantic_core(
        self, vectors: dict[str, np.ndarray]
    ) -> list[str]:
        """Iteratively prune the least-similar value down to core size.

        ``core_size == 0`` disables pruning (the unrestricted-``n``
        setting the paper explores in §VIII-B), returning every value.
        """
        values = sorted(vectors)
        if self.config.core_size == 0:
            return values
        while len(values) > self.config.core_size:
            vector_list = [vectors[value] for value in values]
            worst_index = min(
                range(len(values)),
                key=lambda index: average_pairwise_similarity(
                    index, vector_list
                ),
            )
            values.pop(worst_index)
        return values
