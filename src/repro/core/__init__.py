"""The paper's core contribution: the bootstrapped PAE pipeline.

Layout mirrors Figure 2 of the paper:

* :mod:`text` — page tokenization shared by every stage;
* :mod:`preprocess` — seed construction (candidate discovery from
  dictionary tables, attribute aggregation, value cleaning, value
  diversification, training-set generation);
* :mod:`tagger` — CRF/LSTM backend selection;
* :mod:`cleaning` — the four syntactic veto rules and the word2vec
  semantic-drift filter;
* :mod:`bootstrap` — the Tagger–Cleaner cycle of Figure 1;
* :mod:`sharded` — per-shard page prep and tagging for that cycle;
* :mod:`pipeline` — the :class:`PAEPipeline` facade.
"""

from .bootstrap import BootstrapResult, Bootstrapper, IterationResult
from .catalog import Catalog, CatalogRecord, build_catalog
from .pipeline import PAEPipeline, PipelineResult
from .preprocess import Seed, build_seed
from .text import PageText, tokenize_page, tokenize_pages

__all__ = [
    "BootstrapResult",
    "Bootstrapper",
    "Catalog",
    "CatalogRecord",
    "IterationResult",
    "PAEPipeline",
    "PageText",
    "PipelineResult",
    "Seed",
    "build_catalog",
    "build_seed",
    "tokenize_page",
    "tokenize_pages",
]
