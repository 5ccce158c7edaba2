"""Cross-iteration feature caching for the bootstrap loop.

:meth:`~repro.ml.features.FeatureExtractor.extract` is a pure function
of a sentence's tokens and (bucketed) sentence number, yet the loop
re-runs it over the unchanged unlabeled corpus every iteration. A
:class:`FeatureCache` memoizes the extracted rows keyed by a content
digest of the sentence, with the feature strings *interned* to stable
integer ids so the design matrix can be assembled by array lookups
instead of per-call string hashing (see
:meth:`~repro.ml.features.FeatureIndexer.design_matrix_interned`).

One cache serves one bootstrap run: the interner only ever
grows, so ids handed out in iteration 1 stay valid in iteration 5.
Caching is invisible in the output — a hit returns exactly the rows a
miss would recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..types import Sentence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # repro.ml's __init__ pulls in the CRF model, which imports this
    # module; the runtime import happens lazily in FeatureCache.
    from ..ml.features import FeatureExtractor


class FeatureInterner:
    """A stable feature-string → integer-id mapping that only grows."""

    __slots__ = ("_ids", "_tokens")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []

    def intern(self, feature: str) -> int:
        """The id of ``feature``, assigning the next free one if new."""
        feature_id = self._ids.get(feature)
        if feature_id is None:
            feature_id = len(self._tokens)
            self._ids[feature] = feature_id
            self._tokens.append(feature)
        return feature_id

    def token_of(self, feature_id: int) -> str:
        return self._tokens[feature_id]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, feature: str) -> bool:
        return feature in self._ids


@dataclass(frozen=True)
class InternedRows:
    """One sentence's extracted features as interned ids.

    Attributes:
        ids: flat int64 array of feature ids, position-major.
        row_sizes: int64 array — features per position; ``ids`` split
            at its cumulative sums recovers the per-position rows.
    """

    ids: np.ndarray
    row_sizes: np.ndarray

    def __len__(self) -> int:
        """Number of token positions."""
        return len(self.row_sizes)


class FeatureCache:
    """Memoized, interned feature extraction for one bootstrap run.

    The cache key is a content digest — the sentence-number bucket the
    extractor actually uses plus every ``(text, pos)`` token pair — so
    two pages sharing boilerplate sentences hit the same entry even
    within a single iteration.

    Args:
        window: feature window of the owned extractor (must match the
            CRF config of every tagger sharing this cache).
        extractor: optionally, an existing extractor to wrap instead.
    """

    def __init__(
        self,
        window: int = 2,
        extractor: "FeatureExtractor | None" = None,
    ):
        from ..ml.features import FeatureExtractor

        self.extractor = extractor or FeatureExtractor(window=window)
        self.interner = FeatureInterner()
        self.hits = 0
        self.misses = 0
        self._rows: dict[tuple, InternedRows] = {}

    @staticmethod
    def content_key(sentence: Sentence) -> tuple:
        """The digest of everything ``extract`` reads from a sentence."""
        from ..ml.features import _MAX_SENTENCE_BUCKET

        return (
            min(sentence.index, _MAX_SENTENCE_BUCKET),
            tuple((token.text, token.pos) for token in sentence.tokens),
        )

    def rows(self, sentence: Sentence) -> InternedRows:
        """Extracted, interned feature rows for ``sentence``."""
        key = self.content_key(sentence)
        cached = self._rows.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        intern = self.interner.intern
        string_rows = self.extractor.extract(sentence)
        flat = [
            intern(feature) for row in string_rows for feature in row
        ]
        interned = InternedRows(
            ids=np.asarray(flat, dtype=np.int64),
            row_sizes=np.asarray(
                [len(row) for row in string_rows], dtype=np.int64
            ),
        )
        self._rows[key] = interned
        return interned

    def rows_for(self, sentences) -> list[InternedRows]:
        """Rows for a sentence collection, in order."""
        return [self.rows(sentence) for sentence in sentences]

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (for the trace and the bench)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._rows),
            "features": len(self.interner),
        }
