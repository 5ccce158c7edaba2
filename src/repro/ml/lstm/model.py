"""The NeuroNER-style char+word BiLSTM tagger.

Architecture per token (Section VI-D of the paper):

1. a character-level BiLSTM reads the token's characters; the final
   forward and backward states form the char representation;
2. the token's word embedding is appended ("word level representation
   is appended to the BiLSTM output to enhance the embedding layer");
3. a word-level BiLSTM over the sentence computes "both previous and
   forward context";
4. a feed-forward layer + softmax yields label probabilities.

Training is per-sentence SGD with dropout; characters of one sentence
are processed as one padded batch for speed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...config import LstmConfig
from ...errors import NotFittedError, TrainingError
from ...nlp.bio import OUTSIDE, repair_bio
from ...nlp.vocab import Vocabulary
from ...perf.bucketing import length_buckets
from ...perf.scatter import scatter_add_rows
from ...types import Sentence, TaggedSentence
from . import layers


class LstmTagger:
    """Char+word BiLSTM tagger implementing the SequenceTagger protocol.

    Args:
        config: hyperparameters; the paper contrasts ``epochs=2``
            (stable) against ``epochs=10`` (overfits).
    """

    def __init__(self, config: LstmConfig | None = None):
        self.config = config or LstmConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._words: Vocabulary | None = None
        self._chars: Vocabulary | None = None
        self._labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self._params: dict[str, dict[str, np.ndarray]] = {}
        self._word_embedding: np.ndarray | None = None
        self._char_embedding: np.ndarray | None = None

    # -- protocol ----------------------------------------------------------

    def train(self, dataset: Sequence[TaggedSentence]) -> "LstmTagger":
        """Fit on BIO-labelled sentences."""
        usable = [tagged for tagged in dataset if len(tagged) > 0]
        if not usable:
            raise TrainingError("cannot train the LSTM on an empty dataset")
        self._build_vocabularies(usable)
        self._init_params()
        order = np.arange(len(usable))
        for epoch in range(self.config.epochs):
            self._rng.shuffle(order)
            learning_rate = self.config.learning_rate / (1.0 + 0.5 * epoch)
            for index in order:
                self._train_sentence(usable[int(index)], learning_rate)
        return self

    #: Sentences per length bucket at tag time (see ``_tag_one``).
    TAG_BUCKET_SIZE = 64

    def tag(self, sentences: Sequence[Sentence]) -> list[TaggedSentence]:
        """Predict BIO labels (argmax per token, scheme-repaired).

        Sentences are visited in length-bucketed order so the padded
        char batches of neighbouring sentences share shapes (fewer
        allocator misses); evaluation consumes no RNG (dropout is
        inactive), so the traversal order cannot affect the output,
        which is restored to input order.
        """
        if self._word_embedding is None:
            raise NotFittedError("LstmTagger")
        results: list[TaggedSentence | None] = [None] * len(sentences)
        nonempty: list[int] = []
        for index, sentence in enumerate(sentences):
            if len(sentence) == 0:
                results[index] = TaggedSentence(sentence, ())
            else:
                nonempty.append(index)
        buckets = length_buckets(
            [len(sentences[index]) for index in nonempty],
            self.TAG_BUCKET_SIZE,
        )
        for bucket in buckets:
            for position in bucket:
                index = nonempty[position]
                results[index] = self._tag_one(sentences[index])
        return [result for result in results if result is not None]

    def _tag_one(self, sentence: Sentence) -> TaggedSentence:
        logits = self._forward(sentence, train=False)[0]
        indices = logits.argmax(axis=1)
        labels = repair_bio(
            [self._labels[int(i)] for i in indices]
        )
        return TaggedSentence(sentence, tuple(labels))

    # -- setup --------------------------------------------------------------

    def _build_vocabularies(self, dataset: Sequence[TaggedSentence]) -> None:
        words = Vocabulary()
        chars = Vocabulary()
        label_set = {OUTSIDE}
        for tagged in dataset:
            for token in tagged.sentence:
                words.add(token.text)
                chars.add_all(token.text)
            label_set.update(tagged.labels)
        self._words = words.freeze()
        self._chars = chars.freeze()
        self._labels = sorted(label_set)
        self._label_index = {
            label: index for index, label in enumerate(self._labels)
        }

    def _init_params(self) -> None:
        assert self._words is not None and self._chars is not None
        config = self.config
        rng = self._rng
        self._word_embedding = (
            rng.standard_normal((len(self._words), config.word_dim)) * 0.1
        )
        self._char_embedding = (
            rng.standard_normal((len(self._chars), config.char_dim)) * 0.1
        )
        token_dim = 2 * config.char_hidden + config.word_dim
        self._params = {
            "char_fwd": layers.init_lstm(rng, config.char_dim, config.char_hidden),
            "char_bwd": layers.init_lstm(rng, config.char_dim, config.char_hidden),
            "word_fwd": layers.init_lstm(rng, token_dim, config.word_hidden),
            "word_bwd": layers.init_lstm(rng, token_dim, config.word_hidden),
            "output": layers.init_dense(
                rng, 2 * config.word_hidden, len(self._labels)
            ),
        }

    # -- forward / backward ----------------------------------------------------

    def _char_batch(
        self, sentence: Sentence
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Char-id tensors for one sentence.

        Returns ``(forward_ids, backward_ids, last_index)`` where both
        id arrays are (max_chars, n_tokens) with left-aligned padding
        (pad id 0 = <unk>), the backward array holds reversed
        characters, and ``last_index[j]`` is the final valid step of
        token j.
        """
        assert self._chars is not None
        token_chars = [
            [self._chars.id_of(char) for char in token.text]
            for token in sentence
        ]
        n_tokens = len(token_chars)
        max_chars = max(len(ids) for ids in token_chars)
        forward = np.zeros((max_chars, n_tokens), dtype=np.int64)
        backward = np.zeros((max_chars, n_tokens), dtype=np.int64)
        last = np.empty(n_tokens, dtype=np.int64)
        for j, ids in enumerate(token_chars):
            forward[: len(ids), j] = ids
            backward[: len(ids), j] = ids[::-1]
            last[j] = len(ids) - 1
        return forward, backward, last

    def _forward(self, sentence: Sentence, train: bool) -> tuple[np.ndarray, dict]:
        """Compute logits (n_tokens, n_labels); cache when training."""
        assert self._word_embedding is not None
        assert self._char_embedding is not None
        config = self.config
        n_tokens = len(sentence)
        word_ids = np.asarray(
            [self._words.id_of(token.text) for token in sentence],  # type: ignore[union-attr]
            dtype=np.int64,
        )

        fwd_ids, bwd_ids, last = self._char_batch(sentence)
        char_in_fwd = self._char_embedding[fwd_ids]   # (C, N, char_dim)
        char_in_bwd = self._char_embedding[bwd_ids]
        out_fwd, cache_fwd = layers.lstm_forward(
            self._params["char_fwd"], char_in_fwd
        )
        out_bwd, cache_bwd = layers.lstm_forward(
            self._params["char_bwd"], char_in_bwd
        )
        token_range = np.arange(n_tokens)
        char_repr = np.concatenate(
            [out_fwd[last, token_range], out_bwd[last, token_range]], axis=1
        )  # (N, 2*char_hidden)

        token_repr = np.concatenate(
            [char_repr, self._word_embedding[word_ids]], axis=1
        )
        rate = config.dropout if train else 0.0
        token_repr, drop_mask_in = layers.dropout_forward(
            self._rng, token_repr, rate
        )

        word_input = token_repr[:, None, :]  # (T, 1, D)
        word_out_fwd, word_cache_fwd = layers.lstm_forward(
            self._params["word_fwd"], word_input
        )
        word_out_bwd, word_cache_bwd = layers.lstm_forward(
            self._params["word_bwd"], word_input[::-1]
        )
        context = np.concatenate(
            [word_out_fwd[:, 0, :], word_out_bwd[::-1][:, 0, :]], axis=1
        )  # (T, 2*word_hidden)
        context, drop_mask_out = layers.dropout_forward(
            self._rng, context, rate
        )
        logits = layers.dense_forward(self._params["output"], context)

        cache = {
            "word_ids": word_ids,
            "fwd_ids": fwd_ids,
            "bwd_ids": bwd_ids,
            "last": last,
            "cache_fwd": cache_fwd,
            "cache_bwd": cache_bwd,
            "out_shape": out_fwd.shape,
            "word_cache_fwd": word_cache_fwd,
            "word_cache_bwd": word_cache_bwd,
            "context": context,
            "drop_mask_in": drop_mask_in,
            "drop_mask_out": drop_mask_out,
        }
        return logits, cache

    def _train_sentence(
        self, tagged: TaggedSentence, learning_rate: float
    ) -> float:
        assert self._word_embedding is not None
        assert self._char_embedding is not None
        config = self.config
        logits, cache = self._forward(tagged.sentence, train=True)
        targets = np.asarray(
            [self._label_index[label] for label in tagged.labels],
            dtype=np.int64,
        )
        loss, _, d_logits = layers.softmax_cross_entropy(logits, targets)

        d_context, grads_out = layers.dense_backward(
            self._params["output"], cache["context"], d_logits
        )
        d_context = layers.dropout_backward(
            d_context, cache["drop_mask_out"]
        )
        half = config.word_hidden
        d_word_fwd = d_context[:, :half][:, None, :]
        d_word_bwd = d_context[:, half:][::-1][:, None, :]
        d_in_fwd, grads_wf = layers.lstm_backward(
            self._params["word_fwd"], cache["word_cache_fwd"], d_word_fwd
        )
        d_in_bwd, grads_wb = layers.lstm_backward(
            self._params["word_bwd"], cache["word_cache_bwd"], d_word_bwd
        )
        d_token = d_in_fwd[:, 0, :] + d_in_bwd[::-1][:, 0, :]
        d_token = layers.dropout_backward(d_token, cache["drop_mask_in"])

        char_width = 2 * config.char_hidden
        d_char_repr = d_token[:, :char_width]
        d_word_embed = d_token[:, char_width:]

        n_tokens = d_token.shape[0]
        token_range = np.arange(n_tokens)
        d_out_fwd = np.zeros(cache["out_shape"])
        d_out_bwd = np.zeros(cache["out_shape"])
        d_out_fwd[cache["last"], token_range] = (
            d_char_repr[:, : config.char_hidden]
        )
        d_out_bwd[cache["last"], token_range] = (
            d_char_repr[:, config.char_hidden:]
        )
        d_char_in_fwd, grads_cf = layers.lstm_backward(
            self._params["char_fwd"], cache["cache_fwd"], d_out_fwd
        )
        d_char_in_bwd, grads_cb = layers.lstm_backward(
            self._params["char_bwd"], cache["cache_bwd"], d_out_bwd
        )

        layers.sgd_update(self._params["output"], grads_out, learning_rate)
        layers.sgd_update(self._params["word_fwd"], grads_wf, learning_rate)
        layers.sgd_update(self._params["word_bwd"], grads_wb, learning_rate)
        layers.sgd_update(self._params["char_fwd"], grads_cf, learning_rate)
        layers.sgd_update(self._params["char_bwd"], grads_cb, learning_rate)

        scatter_add_rows(
            self._word_embedding,
            cache["word_ids"],
            -learning_rate * d_word_embed,
        )
        scatter_add_rows(
            self._char_embedding,
            cache["fwd_ids"],
            -learning_rate * d_char_in_fwd,
        )
        scatter_add_rows(
            self._char_embedding,
            cache["bwd_ids"],
            -learning_rate * d_char_in_bwd,
        )
        return loss

    # -- introspection --------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """The learned label inventory (empty before training)."""
        return tuple(self._labels)
