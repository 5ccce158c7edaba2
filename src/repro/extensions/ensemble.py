"""Ensemble tagger: CRF and BiLSTM combined.

The paper's conclusion: the two models "often make similar mistakes,
but they can complement each other" — and RNN+CRF combination "has
much potential especially to improve the property level coverage".

Two combination policies over the models' decoded spans:

* ``"agreement"`` — keep a span only when both models propose the same
  (start, end, attribute). Precision-first; fits the business case.
* ``"union"`` — keep every span either model proposes; on overlap the
  CRF (the paper's more stable model) wins. Coverage-first.

The ensemble implements the standard
:class:`~repro.ml.base.SequenceTagger` protocol, so it can drive the
bootstrap loop like any other backend (``make_tagger`` recognises
``tagger="ensemble"`` when constructed through
:func:`ensemble_pipeline_config`).
"""

from __future__ import annotations

from typing import Sequence

from ..config import CrfConfig, LstmConfig
from ..errors import ConfigError
from ..ml import CrfTagger, LstmTagger
from ..nlp.bio import decode_bio, encode_bio
from ..perf.cache import FeatureCache
from ..types import Sentence, TaggedSentence


class EnsembleTagger:
    """CRF + BiLSTM span combination.

    Args:
        policy: ``"agreement"`` (intersection) or ``"union"``.
        crf_config: CRF hyperparameters.
        lstm_config: BiLSTM hyperparameters.
        feature_cache: optional shared :class:`FeatureCache` forwarded
            to the CRF member.
    """

    POLICIES = ("agreement", "union")

    def __init__(
        self,
        policy: str = "agreement",
        crf_config: CrfConfig | None = None,
        lstm_config: LstmConfig | None = None,
        feature_cache: FeatureCache | None = None,
    ):
        if policy not in self.POLICIES:
            raise ConfigError(
                f"unknown ensemble policy {policy!r}; "
                f"choose from {self.POLICIES}"
            )
        self.policy = policy
        self._crf = CrfTagger(crf_config, feature_cache=feature_cache)
        self._lstm = LstmTagger(lstm_config)

    def train(self, dataset: Sequence[TaggedSentence]) -> "EnsembleTagger":
        """Train both member models on the same data."""
        self._crf.train(dataset)
        self._lstm.train(dataset)
        return self

    def tag(self, sentences: Sequence[Sentence]) -> list[TaggedSentence]:
        """Tag with both models and combine their spans."""
        crf_tagged = self._crf.tag(sentences)
        lstm_tagged = self._lstm.tag(sentences)
        combined: list[TaggedSentence] = []
        for sentence, from_crf, from_lstm in zip(
            sentences, crf_tagged, lstm_tagged
        ):
            crf_spans = decode_bio(from_crf.labels)
            lstm_spans = decode_bio(from_lstm.labels)
            if self.policy == "agreement":
                spans = sorted(set(crf_spans) & set(lstm_spans))
            else:
                spans = self._union_spans(crf_spans, lstm_spans)
            labels = encode_bio(len(sentence), spans)
            combined.append(TaggedSentence(sentence, tuple(labels)))
        return combined

    @staticmethod
    def _union_spans(
        crf_spans: list[tuple[int, int, str]],
        lstm_spans: list[tuple[int, int, str]],
    ) -> list[tuple[int, int, str]]:
        """Union with CRF priority on overlap."""
        occupied: set[int] = set()
        result: list[tuple[int, int, str]] = []
        for start, end, attribute in crf_spans:
            result.append((start, end, attribute))
            occupied.update(range(start, end))
        for start, end, attribute in lstm_spans:
            if not occupied & set(range(start, end)):
                result.append((start, end, attribute))
                occupied.update(range(start, end))
        return sorted(result)

    @property
    def members(self) -> tuple[CrfTagger, LstmTagger]:
        """The underlying models (for inspection)."""
        return self._crf, self._lstm
