"""Tests for model save/load round-trips."""

import random

import numpy as np
import pytest

from repro.config import CrfConfig, LstmConfig
from repro.errors import ModelError, NotFittedError
from repro.ml import CrfTagger, LstmTagger
from repro.ml.persistence import load_crf, load_lstm, save_crf, save_lstm
from repro.nlp import get_locale
from repro.types import Sentence, TaggedSentence


@pytest.fixture(scope="module")
def training_data():
    ja = get_locale("ja")
    rng = random.Random(0)
    colors = ["aka", "ao", "shiro", "kuro"]
    data = []
    for index in range(120):
        color = rng.choice(colors)
        tokens = ja.tokens(f"iro wa {color} desu")
        data.append(
            TaggedSentence(
                Sentence(f"p{index}", 0, tokens),
                ("O", "O", "B-iro", "O"),
            )
        )
    return data


@pytest.fixture(scope="module")
def sentences(training_data):
    return [tagged.sentence for tagged in training_data[:20]]


class TestCrfPersistence:
    def test_round_trip_predictions_identical(
        self, training_data, sentences, tmp_path
    ):
        original = CrfTagger(CrfConfig(max_iterations=30)).train(
            training_data
        )
        save_crf(original, tmp_path / "crf")
        loaded = load_crf(tmp_path / "crf")
        assert [p.labels for p in original.tag(sentences)] == [
            p.labels for p in loaded.tag(sentences)
        ]

    def test_config_restored(self, training_data, tmp_path):
        original = CrfTagger(
            CrfConfig(window=1, max_iterations=20)
        ).train(training_data)
        save_crf(original, tmp_path / "crf")
        loaded = load_crf(tmp_path / "crf")
        assert loaded.config == original.config
        assert loaded.labels == original.labels
        assert loaded.feature_count == original.feature_count

    def test_loaded_tagger_cache_stays_bounded(
        self, training_data, tmp_path, monkeypatch
    ):
        """A serving tagger's own feature cache starts over past the
        bound instead of memoizing every sentence it ever tags, and the
        labels stay those of an unbounded tagger."""
        from repro.ml.crf import model as crf_model
        from repro.perf.cache import FeatureCache

        # The reference is handed its cache, so it is never reset.
        unbounded = CrfTagger(
            CrfConfig(max_iterations=30),
            feature_cache=FeatureCache(window=CrfConfig().window),
        ).train(training_data)
        save_crf(unbounded, tmp_path / "crf")
        monkeypatch.setattr(
            crf_model, "OWNED_CACHE_SENTENCES", 50, raising=False
        )
        bounded = load_crf(tmp_path / "crf")
        ja = get_locale("ja")
        rng = random.Random(3)
        words = ["iro", "wa", "aka", "ao", "shiro", "kuro", "desu", "kg"]
        batch = 10
        for call in range(60):
            requests = [
                Sentence(
                    f"q{call}-{item}",
                    0,
                    ja.tokens(
                        " ".join(rng.choice(words) for _ in range(6))
                        + f" {call * batch + item}"
                    ),
                )
                for item in range(batch)
            ]
            assert bounded.tag(requests) == unbounded.tag(requests)
            assert bounded._cache.stats()["entries"] <= 50 + batch
        grown = unbounded._cache.stats()
        kept = bounded._cache.stats()
        assert grown["entries"] > 60 * batch
        assert kept["features"] < grown["features"] / 3

    def test_passed_in_cache_is_never_reset(
        self, training_data, sentences, monkeypatch
    ):
        from repro.ml.crf import model as crf_model
        from repro.perf.cache import FeatureCache

        monkeypatch.setattr(crf_model, "OWNED_CACHE_SENTENCES", 1)
        cache = FeatureCache(window=CrfConfig().window)
        tagger = CrfTagger(
            CrfConfig(max_iterations=30), feature_cache=cache
        ).train(training_data)
        tagger.tag(sentences)
        tagger.tag(sentences)
        assert tagger._cache is cache
        assert cache.hits >= len(sentences)

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_crf(CrfTagger(), tmp_path / "crf")

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ModelError):
            load_crf(tmp_path / "nothing-here")

    def test_load_wrong_kind_raises(
        self, training_data, tmp_path
    ):
        lstm = LstmTagger(LstmConfig(epochs=1)).train(training_data)
        save_lstm(lstm, tmp_path / "model")
        with pytest.raises(ModelError):
            load_crf(tmp_path / "model")


class TestLstmPersistence:
    def test_round_trip_predictions_identical(
        self, training_data, sentences, tmp_path
    ):
        original = LstmTagger(LstmConfig(epochs=2)).train(training_data)
        save_lstm(original, tmp_path / "lstm")
        loaded = load_lstm(tmp_path / "lstm")
        assert [p.labels for p in original.tag(sentences)] == [
            p.labels for p in loaded.tag(sentences)
        ]

    def test_weights_identical(self, training_data, tmp_path):
        original = LstmTagger(LstmConfig(epochs=1)).train(training_data)
        save_lstm(original, tmp_path / "lstm")
        loaded = load_lstm(tmp_path / "lstm")
        assert np.array_equal(
            original._word_embedding, loaded._word_embedding
        )
        for layer in original._params:
            for name in original._params[layer]:
                assert np.array_equal(
                    original._params[layer][name],
                    loaded._params[layer][name],
                ), (layer, name)

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_lstm(LstmTagger(), tmp_path / "lstm")

    def test_unseen_words_after_load(
        self, training_data, tmp_path
    ):
        ja = get_locale("ja")
        original = LstmTagger(LstmConfig(epochs=1)).train(training_data)
        save_lstm(original, tmp_path / "lstm")
        loaded = load_lstm(tmp_path / "lstm")
        sentence = Sentence("x", 0, ja.tokens("mimizuku ga naku"))
        assert len(loaded.tag([sentence])[0].labels) == 3
