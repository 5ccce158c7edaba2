"""Tests for the hot-path perf layer: caching, interning, bucketing.

Every optimisation here must be *invisible* in the output — the core
assertions are equalities between the fast paths and the plain ones,
capped by a pipeline-level bit-identity check on two seeds.
"""

import pytest

from repro import PAEPipeline, PipelineConfig
from repro.config import CrfConfig
from repro.core import bootstrap as core_bootstrap
from repro.corpus import Marketplace
from repro.ml import CrfTagger, FeatureExtractor, FeatureIndexer
from repro.ml.crf import model as crf_model
from repro.ml.crf import train as crf_train
from repro.perf.bucketing import length_buckets
from repro.perf.cache import FeatureCache, FeatureInterner


# -- length bucketing ---------------------------------------------------------


def test_length_buckets_partition_every_index_once():
    lengths = [5, 1, 3, 3, 9, 2, 7, 1]
    buckets = length_buckets(lengths, batch_size=3)
    flat = [index for bucket in buckets for index in bucket]
    assert sorted(flat) == list(range(len(lengths)))
    assert all(len(bucket) <= 3 for bucket in buckets)


def test_length_buckets_sorted_and_stable():
    lengths = [4, 2, 4, 2, 4]
    flat = [
        index
        for bucket in length_buckets(lengths, batch_size=2)
        for index in bucket
    ]
    # Ordered by length; ties keep original order (stable sort).
    assert flat == [1, 3, 0, 2, 4]


def test_length_buckets_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        length_buckets([1, 2], batch_size=0)


def test_length_buckets_empty():
    assert length_buckets([], batch_size=4) == []


# -- interner and cache -------------------------------------------------------


def test_interner_ids_are_stable_and_reversible():
    interner = FeatureInterner()
    a = interner.intern("w0=kg")
    b = interner.intern("p0=NUM")
    assert interner.intern("w0=kg") == a  # idempotent
    assert interner.token_of(a) == "w0=kg"
    assert interner.token_of(b) == "p0=NUM"
    assert len(interner) == 2
    assert "w0=kg" in interner
    assert "w0=g" not in interner


def test_cache_hits_on_repeated_content(make_sentence):
    cache = FeatureCache(window=2)
    first = cache.rows(make_sentence("juryo wa 2 kg desu"))
    again = cache.rows(make_sentence("juryo wa 2 kg desu"))
    other = cache.rows(make_sentence("aka desu"))
    assert again is first
    assert cache.hits == 1 and cache.misses == 2
    assert cache.stats()["entries"] == 2
    assert len(other) == 2  # positions


def test_cache_key_distinguishes_sentence_buckets(make_sentence):
    cache = FeatureCache(window=0)
    early = cache.rows(make_sentence("aka desu", index=0))
    late = cache.rows(make_sentence("aka desu", index=4))
    assert cache.misses == 2  # sent=N feature differs -> distinct keys
    assert early is not late
    # Past the bucket cap the key collapses -> a hit.
    cache.rows(make_sentence("aka desu", index=42))
    cache.rows(make_sentence("aka desu", index=99))
    assert cache.hits == 1


def test_cached_rows_match_string_extraction(make_sentence):
    cache = FeatureCache(window=2)
    sentence = make_sentence("juryo wa 2 kg desu")
    interned = cache.rows(sentence)
    string_rows = FeatureExtractor(window=2).extract(sentence)
    rebuilt = []
    cursor = 0
    for size in interned.row_sizes:
        rebuilt.append(
            [
                cache.interner.token_of(feature_id)
                for feature_id in interned.ids[cursor:cursor + size]
            ]
        )
        cursor += size
    assert rebuilt == string_rows


# -- interned indexer paths ---------------------------------------------------


def test_interned_design_matrix_equals_string_path(make_sentence):
    sentences = [
        make_sentence("juryo wa 2 kg desu"),
        make_sentence("aka desu"),
        make_sentence("juryo wa 2 kg desu", index=1),
    ]
    extractor = FeatureExtractor(window=2)
    string_rows = [extractor.extract(s) for s in sentences]
    string_indexer = FeatureIndexer().fit(string_rows)
    string_matrix = string_indexer.design_matrix(string_rows)

    cache = FeatureCache(window=2)
    interned_rows = cache.rows_for(sentences)
    interned_indexer = FeatureIndexer().fit_interned(
        interned_rows, cache.interner
    )
    interned_matrix = interned_indexer.design_matrix_interned(
        interned_rows
    )

    assert len(interned_indexer) == len(string_indexer)
    assert interned_matrix.shape == string_matrix.shape
    assert (interned_matrix != string_matrix).nnz == 0


# -- bucketed tagging ---------------------------------------------------------


def _training_set(make_tagged):
    return [
        make_tagged("juryo wa 2 kg desu", "2 kg", "weight"),
        make_tagged("omosa wa 3 kg", "3 kg", "weight"),
        make_tagged("iro wa aka desu", "aka", "color"),
        make_tagged("iro wa ao", "ao", "color"),
    ]


def test_tag_batch_size_is_output_identical(
    make_tagged, make_sentence, monkeypatch
):
    dataset = _training_set(make_tagged)
    to_tag = [
        make_sentence("juryo wa 5 kg desu"),
        make_sentence("iro wa aka"),
        make_sentence("kore wa 7 kg no aka desu"),
        make_sentence(""),
        make_sentence("ao"),
    ]
    tagger = CrfTagger(CrfConfig()).train(dataset)
    monkeypatch.setattr(crf_model, "TAG_BATCH_SIZE", 10**9)
    monolithic = tagger.tag(to_tag)
    scored = tagger.tag_with_confidence(to_tag)
    assert any(confidences for _, confidences in scored)
    monkeypatch.setattr(crf_model, "TAG_BATCH_SIZE", 1)
    assert tagger.tag(to_tag) == monolithic
    # Span confidences too, to the last bit: each sentence's marginals
    # depend only on its own packed rows.
    assert tagger.tag_with_confidence(to_tag) == scored


def test_string_path_tagger_is_output_identical(
    make_tagged, make_sentence
):
    """feature_cache=False (no caching at all) changes nothing."""
    dataset = _training_set(make_tagged)
    to_tag = [
        make_sentence("juryo wa 5 kg desu"),
        make_sentence("iro wa aka"),
    ]
    cached = CrfTagger(CrfConfig()).train(dataset).tag(to_tag)
    uncached = CrfTagger(
        CrfConfig(), feature_cache=False
    ).train(dataset).tag(to_tag)
    assert uncached == cached


def test_shared_cache_across_taggers_hits(make_tagged, make_sentence):
    dataset = _training_set(make_tagged)
    to_tag = [make_sentence("juryo wa 5 kg desu")]
    cache = FeatureCache(window=2)
    CrfTagger(CrfConfig(), feature_cache=cache).train(dataset).tag(to_tag)
    assert cache.misses > 0
    misses_after_first = cache.misses
    # A second tagger sharing the cache re-extracts nothing.
    CrfTagger(CrfConfig(), feature_cache=cache).train(dataset).tag(to_tag)
    assert cache.misses == misses_after_first
    assert cache.hits >= misses_after_first


# -- pipeline bit-identity ----------------------------------------------------


def _triples(result):
    return sorted(
        (t.product_id, t.attribute, t.value) for t in result.triples
    )


@pytest.mark.parametrize("seed", [1, 7])
def test_pipeline_bit_identical_with_and_without_fast_paths(
    seed, monkeypatch
):
    """Cache + bucketing change wall-clock, never the output."""
    dataset = Marketplace(seed=seed).generate("vacuum_cleaner", 30)
    config = PipelineConfig(iterations=2, seed=seed)
    fast = PAEPipeline(config).run(
        dataset.product_pages, dataset.query_log
    )
    # The plain run tags and trains in one monolithic batch each, on
    # the reference string-feature path: every tagger the bootstrap
    # builds ignores the run's feature cache.
    monkeypatch.setattr(crf_model, "TAG_BATCH_SIZE", 10**9)
    monkeypatch.setattr(crf_train, "DEFAULT_TRAIN_BATCH", 10**9)
    monkeypatch.setattr(
        core_bootstrap,
        "make_tagger",
        lambda config, iteration, feature_cache: CrfTagger(
            config.crf, feature_cache=False
        ),
    )
    plain = PAEPipeline(config).run(
        dataset.product_pages, dataset.query_log
    )
    assert _triples(fast) == _triples(plain)
    counters = fast.perf_counters()["feature_cache"]
    assert counters["hits"] > 0
    assert plain.perf_counters()["feature_cache"] == {
        "hits": 0,
        "misses": 0,
    }

