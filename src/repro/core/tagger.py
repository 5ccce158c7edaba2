"""Tagger backend selection (the Tagger box of Figure 2).

The bootstrap loop only sees the
:class:`~repro.ml.base.SequenceTagger` protocol; this module maps the
pipeline configuration to a fresh backend instance. A fresh model is
built for every iteration — the paper retrains from scratch on the
grown dataset rather than fine-tuning.
"""

from __future__ import annotations

from ..config import PipelineConfig
from ..errors import ConfigError
from ..ml import CrfTagger, LstmTagger
from ..ml.base import SequenceTagger
from ..perf.cache import FeatureCache


def make_tagger(
    config: PipelineConfig,
    iteration: int = 0,
    feature_cache: FeatureCache | None = None,
) -> SequenceTagger:
    """Build a fresh tagger for one bootstrap iteration.

    Args:
        config: pipeline configuration (``config.tagger`` selects the
            backend).
        iteration: iteration number, folded into stochastic backends'
            seeds so runs stay deterministic yet iterations differ.
        feature_cache: optional shared :class:`FeatureCache` so CRF
            feature extraction is memoized across iterations (each
            iteration still gets a *fresh model*; only the extracted
            feature strings — pure functions of the sentences — are
            reused).
    """
    if config.tagger == "crf":
        return CrfTagger(config.crf, feature_cache=feature_cache)
    lstm_config = config.lstm
    seeded = type(lstm_config)(
        epochs=lstm_config.epochs,
        char_dim=lstm_config.char_dim,
        char_hidden=lstm_config.char_hidden,
        word_dim=lstm_config.word_dim,
        word_hidden=lstm_config.word_hidden,
        dropout=lstm_config.dropout,
        learning_rate=lstm_config.learning_rate,
        seed=lstm_config.seed + iteration,
    )
    if config.tagger == "lstm":
        return LstmTagger(seeded)
    if config.tagger == "ensemble":
        # Imported here to keep core free of a hard extensions import.
        from ..extensions.ensemble import EnsembleTagger

        return EnsembleTagger(
            policy=config.ensemble_policy,
            crf_config=config.crf,
            lstm_config=seeded,
            feature_cache=feature_cache,
        )
    raise ConfigError(f"unknown tagger backend: {config.tagger!r}")
