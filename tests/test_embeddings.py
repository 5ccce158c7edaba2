"""Tests for word2vec and the similarity utilities."""

import hashlib

import numpy as np
import pytest

from repro.embeddings import (
    Word2Vec,
    cosine_similarity,
    multiplicative_similarity,
)
from repro.embeddings.similarity import (
    average_pairwise_similarity,
    shifted_cosine,
)
from repro.errors import EmbeddingError
from repro.nlp.vocab import Vocabulary


def _cluster_corpus(repeats=150):
    """Two word families with disjoint contexts."""
    corpus = []
    for _ in range(repeats):
        corpus.append(["iro", "wa", "aka", "desu"])
        corpus.append(["iro", "wa", "ao", "desu"])
        corpus.append(["juryo", "ga", "omoi", "kg"])
        corpus.append(["juryo", "ga", "karui", "kg"])
    return corpus


def test_train_on_empty_corpus_raises():
    with pytest.raises(EmbeddingError):
        Word2Vec().train([])


def test_rejects_bad_hyperparameters():
    with pytest.raises(EmbeddingError):
        Word2Vec(dim=0)
    with pytest.raises(EmbeddingError):
        Word2Vec(window=0)


def test_vector_lookup():
    model = Word2Vec(dim=8, epochs=1, seed=0).train(
        [["a", "b", "c"]] * 5
    )
    assert model.vector("a") is not None
    assert model.vector("a").shape == (8,)
    assert model.vector("unseen-word") is None
    assert "a" in model
    assert "unseen-word" not in model


def test_similarity_of_unknown_word_is_zero():
    model = Word2Vec(dim=8, epochs=1, seed=0).train([["a", "b"]] * 5)
    assert model.similarity("a", "never") == 0.0


def test_cooccurring_words_become_similar():
    model = Word2Vec(dim=16, epochs=5, seed=1, window=2).train(
        _cluster_corpus()
    )
    same_cluster = model.similarity("aka", "ao")
    cross_cluster = model.similarity("aka", "omoi")
    assert same_cluster > cross_cluster


def test_training_is_deterministic():
    corpus = _cluster_corpus(30)
    first = Word2Vec(dim=8, epochs=2, seed=3).train(corpus)
    second = Word2Vec(dim=8, epochs=2, seed=3).train(corpus)
    assert np.allclose(first.vector("aka"), second.vector("aka"))


def _golden_corpus():
    """1,500 sentences over 63 words: 24 SGD steps whose minibatches
    repeat every word many times."""
    rng = np.random.default_rng(0)
    common = ["wa", "desu", "no"]
    return [
        [f"w{j}" for j in rng.integers(0, 60, size=6)] + [common[i % 3]]
        for i in range(1500)
    ]


#: SHA-256 of the trained input and output vectors, recorded when the
#: update was a 2-D ``np.add.at`` and negatives came from
#: ``Generator.choice``. Any change in draws or summation order moves
#: them.
GOLDEN_INPUT_SHA256 = (
    "952e7da46c6bcbb0405cef83154c91c93aa1282447559dda0b41305b71f6ecac"
)
GOLDEN_OUTPUT_SHA256 = (
    "4ab70bbec6497fd416b046408d4fb873d4b84ef84ab3ed52fb8a654d3f754ed2"
)


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def test_trained_vectors_are_pinned_bit_for_bit():
    model = Word2Vec(seed=7).train(_golden_corpus())
    assert _sha256(model._input_vectors) == GOLDEN_INPUT_SHA256
    assert _sha256(model._output_vectors) == GOLDEN_OUTPUT_SHA256


def test_negative_draws_match_generator_choice():
    """Inverting the once-built CDF draws what ``choice(p=...)`` draws,
    step after step, and leaves the stream at the same position."""
    vocabulary = Vocabulary(min_count=1)
    for sentence in _golden_corpus():
        vocabulary.add_all(sentence)
    vocabulary.freeze()
    counts = np.array(
        [
            max(vocabulary.count_of(vocabulary.token_of(i)), 1)
            for i in range(len(vocabulary))
        ],
        dtype=np.float64,
    )
    counts[0] = 0.0
    weights = counts**0.75
    probabilities = weights / weights.sum()
    cdf = Word2Vec()._negative_cdf(vocabulary)

    by_cdf = np.random.default_rng(11)
    by_choice = np.random.default_rng(11)
    for step in range(200):
        shape = (512 if step % 7 else 37, 4)
        drawn = cdf.searchsorted(by_cdf.random(shape), side="right")
        expected = by_choice.choice(
            len(probabilities), size=shape, p=probabilities
        )
        assert np.array_equal(drawn, expected)
    assert by_cdf.random() == by_choice.random()


def test_cosine_similarity_bounds():
    a = np.array([1.0, 0.0])
    assert cosine_similarity(a, a) == pytest.approx(1.0)
    assert cosine_similarity(a, -a) == pytest.approx(-1.0)
    assert cosine_similarity(a, np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cosine_of_zero_vector_is_zero():
    assert cosine_similarity(np.zeros(2), np.ones(2)) == 0.0


def test_shifted_cosine_range():
    a = np.array([1.0, 0.0])
    assert shifted_cosine(a, a) == pytest.approx(1.0)
    assert shifted_cosine(a, -a) == pytest.approx(0.0)


def test_multiplicative_similarity_geometric_mean():
    candidate = np.array([1.0, 0.0])
    core = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    # shifted cosines: 1.0 and 0.5 -> geometric mean sqrt(0.5)
    assert multiplicative_similarity(candidate, core) == pytest.approx(
        np.sqrt(0.5)
    )


def test_multiplicative_similarity_empty_core():
    assert multiplicative_similarity(np.ones(2), []) == 0.0


def test_average_pairwise_similarity_identifies_outlier():
    vectors = [
        np.array([1.0, 0.0]),
        np.array([0.9, 0.1]),
        np.array([-1.0, 0.0]),  # the outlier
    ]
    scores = [
        average_pairwise_similarity(i, vectors) for i in range(3)
    ]
    assert scores.index(min(scores)) == 2


def test_average_pairwise_similarity_single_vector():
    assert average_pairwise_similarity(0, [np.ones(2)]) == 0.0
