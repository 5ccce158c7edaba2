"""Hot-path performance layer: caching and batching.

Everything in this package is determinism-preserving: the feature
cache memoizes a pure function and length-bucketed tagging decodes
each sentence independently of its batch. Pipeline output with these
optimisations enabled is bit-identical to the unoptimised path
(asserted in ``tests/test_perf_cache.py``).
"""

from .bucketing import length_buckets
from .cache import FeatureCache, FeatureInterner, InternedRows

__all__ = [
    "FeatureCache",
    "FeatureInterner",
    "InternedRows",
    "length_buckets",
]
