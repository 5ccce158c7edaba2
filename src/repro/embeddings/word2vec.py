"""Skip-gram word2vec with negative sampling, in numpy.

Mikolov-style SGNS: for each (center, context) pair drawn from a sliding
window, maximize ``log σ(u_ctx · v_center)`` plus ``k`` negative terms
``log σ(-u_neg · v_center)`` with negatives drawn from the unigram
distribution raised to 3/4. Training is mini-batched and fully
vectorized; determinism comes from a caller-supplied seed.

Each minibatch ends in three scatter-adds into the embedding tables.
They go through :func:`~repro.perf.scatter.scatter_add_rows`, which
flattens the 2-D update so numpy's fast 1-D ``ufunc.at`` loop runs,
yet adds every cell's contributions in the same order as the 2-D
scatter — so the vectors are bit-identical to the unflattened update,
which a sorted or sparse reduction would not be.

The semantic-cleaning module treats multiword values as single words by
pre-joining their tokens with ``_`` before calling :meth:`Word2Vec.train`
(the paper's step (i), "group multiword attribute values ... as a single
word").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import EmbeddingError
from ..nlp.vocab import Vocabulary
from ..perf.scatter import scatter_add_rows


class Word2Vec:
    """Skip-gram negative-sampling embeddings.

    Args:
        dim: vector dimensionality.
        window: max distance between center and context token.
        negatives: negative samples per positive pair.
        epochs: passes over the pair list.
        learning_rate: initial SGD step size (linearly decayed).
        min_count: minimum token frequency to enter the vocabulary.
        seed: RNG seed.
        batch_size: pairs per vectorized SGD step.
        subsample: Mikolov frequent-word subsampling threshold ``t``
            (tokens with relative frequency ``f`` are dropped with
            probability ``1 - sqrt(t/f)``). Without it, product copy's
            ubiquitous particles ("wa", "desu") dominate every window
            and all content vectors collapse into one direction,
            breaking the semantic filter. 0 disables.
    """

    def __init__(
        self,
        dim: int = 32,
        window: int = 3,
        negatives: int = 4,
        epochs: int = 3,
        learning_rate: float = 0.05,
        min_count: int = 1,
        seed: int = 0,
        batch_size: int = 512,
        subsample: float = 1e-3,
    ):
        if dim < 1:
            raise EmbeddingError("dim must be >= 1")
        if window < 1:
            raise EmbeddingError("window must be >= 1")
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.min_count = min_count
        self.seed = seed
        self.batch_size = batch_size
        self.subsample = subsample
        self.vocab: Vocabulary | None = None
        self._input_vectors: np.ndarray | None = None
        self._output_vectors: np.ndarray | None = None

    # -- training --------------------------------------------------------

    def train(self, sentences: Sequence[Sequence[str]]) -> "Word2Vec":
        """Fit embeddings on tokenized sentences, from a cold start.

        Returns self for chaining.

        Raises:
            EmbeddingError: when the corpus yields no training pairs.
        """
        vocab = Vocabulary(min_count=self.min_count)
        for sentence in sentences:
            vocab.add_all(sentence)
        vocab.freeze()
        if len(vocab) <= 1:
            raise EmbeddingError("empty corpus: nothing to embed")
        self.vocab = vocab

        rng = np.random.default_rng(self.seed)
        centers, contexts = self._collect_pairs(sentences, vocab, rng)
        if centers.size == 0 and self.subsample:
            # A corpus of a few uniform sentences can be subsampled to
            # nothing; fall back to the full pair set.
            centers, contexts = self._collect_pairs(
                sentences, vocab, rng, subsample=False
            )
        if centers.size == 0:
            raise EmbeddingError("corpus produced no (center, context) pairs")
        size = len(vocab)
        self._input_vectors = (
            rng.random((size, self.dim), dtype=np.float64) - 0.5
        ) / self.dim
        self._output_vectors = np.zeros((size, self.dim), dtype=np.float64)
        negative_cdf = self._negative_cdf(vocab)

        total_steps = max(1, self.epochs * (len(centers) // self.batch_size + 1))
        step = 0
        for _ in range(self.epochs):
            order = rng.permutation(len(centers))
            for start in range(0, len(centers), self.batch_size):
                batch = order[start:start + self.batch_size]
                lr = self.learning_rate * max(
                    0.1, 1.0 - step / total_steps
                )
                self._sgd_step(
                    centers[batch], contexts[batch], negative_cdf, rng, lr
                )
                step += 1
        return self

    def _collect_pairs(
        self,
        sentences: Sequence[Sequence[str]],
        vocab: Vocabulary,
        rng: np.random.Generator,
        subsample: bool | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if subsample is False:
            keep_probability = np.ones(len(vocab))
        else:
            keep_probability = self._keep_probabilities(vocab)
        centers: list[int] = []
        contexts: list[int] = []
        for sentence in sentences:
            ids = [vocab.id_of(token) for token in sentence]
            ids = [
                token_id
                for token_id in ids
                if token_id != 0
                and rng.random() < keep_probability[token_id]
            ]
            for index, center in enumerate(ids):
                low = max(0, index - self.window)
                high = min(len(ids), index + self.window + 1)
                for other in range(low, high):
                    if other != index:
                        centers.append(center)
                        contexts.append(ids[other])
        return (
            np.asarray(centers, dtype=np.int64),
            np.asarray(contexts, dtype=np.int64),
        )

    @staticmethod
    def _token_counts(vocab: Vocabulary) -> np.ndarray:
        """Per-id corpus counts, floored at 1 (``<unk>`` included)."""
        return np.array(
            [
                max(vocab.count_of(vocab.token_of(i)), 1)
                for i in range(len(vocab))
            ],
            dtype=np.float64,
        )

    def _keep_probabilities(self, vocab: Vocabulary) -> np.ndarray:
        """Per-token keep probability under frequent-word subsampling."""
        counts = self._token_counts(vocab)
        if not self.subsample:
            return np.ones_like(counts)
        frequency = counts / counts.sum()
        keep = np.sqrt(self.subsample / np.maximum(frequency, 1e-12))
        return np.minimum(keep, 1.0)

    def _negative_cdf(self, vocab: Vocabulary) -> np.ndarray:
        """The CDF of the unigram^0.75 negative-sampling distribution.

        Built once per :meth:`train`, exactly as ``Generator.choice``
        rebuilds (and re-validates) it from ``p`` on every call, so
        ``cdf.searchsorted(rng.random(shape), side="right")`` draws
        what ``rng.choice(len(cdf), size=shape, p=p)`` would.
        """
        weights = self._token_counts(vocab)
        weights[0] = 0.0  # never sample <unk>
        weights **= 0.75
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf

    def _sgd_step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negative_cdf: np.ndarray,
        rng: np.random.Generator,
        lr: float,
    ) -> None:
        assert self._input_vectors is not None
        assert self._output_vectors is not None
        batch = centers.shape[0]
        negatives = negative_cdf.searchsorted(
            rng.random((batch, self.negatives)), side="right"
        )
        v_center = self._input_vectors[centers]            # (B, D)
        u_context = self._output_vectors[contexts]         # (B, D)
        u_negative = self._output_vectors[negatives]       # (B, K, D)

        pos_score = _sigmoid((v_center * u_context).sum(axis=1))   # (B,)
        neg_score = _sigmoid(
            np.einsum("bd,bkd->bk", v_center, u_negative)
        )                                                   # (B, K)

        grad_pos = (pos_score - 1.0)[:, None]               # (B, 1)
        grad_neg = neg_score[:, :, None]                    # (B, K, 1)

        grad_center = (
            grad_pos * u_context
            + np.einsum("bk,bkd->bd", neg_score, u_negative)
        )

        # When the vocabulary is tiny (per-iteration product corpora can
        # be), one batch contains the same word many times; summing all
        # those contributions at the *stale* vector overshoots and the
        # embedding oscillates. Scaling each contribution by its index
        # multiplicity turns the accumulated step into a mean — for
        # large vocabularies the multiplicity is ~1 and nothing changes.
        size = self._input_vectors.shape[0]
        context_mult = np.bincount(contexts, minlength=size)[contexts]
        center_mult = np.bincount(centers, minlength=size)[centers]
        negative_flat = negatives.ravel()
        negative_mult = np.bincount(negative_flat, minlength=size)[
            negative_flat
        ].reshape(negatives.shape)

        scatter_add_rows(
            self._output_vectors,
            contexts,
            -lr * grad_pos * v_center / context_mult[:, None],
        )
        scatter_add_rows(
            self._output_vectors,
            negatives,
            -lr * grad_neg * v_center[:, None, :]
            / negative_mult[:, :, None],
        )
        scatter_add_rows(
            self._input_vectors,
            centers,
            -lr * grad_center / center_mult[:, None],
        )

    # -- lookup ----------------------------------------------------------

    @property
    def fitted(self) -> bool:
        return self._input_vectors is not None

    def __contains__(self, word: str) -> bool:
        return (
            self.vocab is not None
            and self.vocab.frozen
            and word in self.vocab
        )

    def vector(self, word: str) -> np.ndarray | None:
        """The input vector of ``word``, or None if unknown/unfitted."""
        if self.vocab is None or self._input_vectors is None:
            return None
        if word not in self.vocab:
            return None
        return self._input_vectors[self.vocab.id_of(word)]

    def similarity(self, first: str, second: str) -> float:
        """Cosine similarity, 0.0 when either word is unknown."""
        a = self.vector(first)
        b = self.vector(second)
        if a is None or b is None:
            return 0.0
        denominator = float(np.linalg.norm(a) * np.linalg.norm(b))
        if denominator == 0.0:
            return 0.0
        return float(a @ b / denominator)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))
