"""Shared infrastructure for the experiment runners.

Datasets and bootstrap runs are memoized process-wide: Tables II and
III analyse the same five configurations, Figures 3 and 5 the same
ten runs — running them twice would double bench time for no insight.
Cache keys are the full configuration reprs, so any knob change misses.

Experiments declare the runs they need up front as
:class:`RunRequest` lists and call :func:`prefetch_runs`, which fans
cache misses out over a :class:`~repro.runtime.CategoryRunner` (one
shard-worker pool wave) and warms the memo — the per-category loops
stay serial and readable, but the expensive bootstraps run in parallel
when CPUs allow.

Scale: the paper uses 2k–12k products per category; the default bench
scale (:data:`DEFAULT_PRODUCTS`, overridable with the
``REPRO_BENCH_PRODUCTS`` environment variable) keeps the full suite
laptop-sized while preserving every qualitative shape.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from ..config import PipelineConfig
from ..core.bootstrap import BootstrapResult, Bootstrapper
from ..corpus import CategoryDataset, Marketplace
from ..evaluation import TruthSample, build_truth_sample
from ..runtime import CategoryRunner, RunnerJob, default_workers

#: The eight categories of Tables I-IV.
CORE_CATEGORIES: tuple[str, ...] = (
    "tennis",
    "kitchen",
    "cosmetics",
    "garden",
    "shoes",
    "ladies_bags",
    "digital_cameras",
    "vacuum_cleaner",
)

DEFAULT_PRODUCTS = int(os.environ.get("REPRO_BENCH_PRODUCTS", "220"))


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs common to every experiment runner.

    Attributes:
        products: pages per Japanese category (German categories use
            ~40% of it, mirroring the paper's much smaller German sets).
        data_seed: marketplace RNG seed.
        iterations: bootstrap cycles for multi-iteration experiments.
    """

    products: int = DEFAULT_PRODUCTS
    data_seed: int = 7
    iterations: int = 5

    @property
    def german_products(self) -> int:
        return max(40, int(0.4 * self.products))


_dataset_cache: dict[tuple, CategoryDataset] = {}
_run_cache: dict[tuple, BootstrapResult] = {}


def clear_cache() -> None:
    """Drop all memoized datasets and runs (tests use this)."""
    _dataset_cache.clear()
    _run_cache.clear()


def cached_dataset(
    category: str, products: int, data_seed: int
) -> CategoryDataset:
    """Generate (or reuse) a category dataset."""
    key = (category, products, data_seed)
    if key not in _dataset_cache:
        _dataset_cache[key] = Marketplace(seed=data_seed).generate(
            category, products
        )
    return _dataset_cache[key]


def cached_truth(
    category: str, products: int, data_seed: int
) -> TruthSample:
    """Truth sample for a cached dataset."""
    return build_truth_sample(cached_dataset(category, products, data_seed))


def cached_run(
    category: str,
    products: int,
    data_seed: int,
    config: PipelineConfig,
    attribute_subset: Sequence[str] | None = None,
) -> BootstrapResult:
    """Run (or reuse) a bootstrap for one configuration."""
    key = _run_key(
        RunRequest(category, products, data_seed, config, attribute_subset)
    )
    if key not in _run_cache:
        dataset = cached_dataset(category, products, data_seed)
        bootstrapper = Bootstrapper(config, attribute_subset)
        _run_cache[key] = bootstrapper.run(
            list(dataset.product_pages), dataset.query_log
        )
    return _run_cache[key]


@dataclass(frozen=True)
class RunRequest:
    """One bootstrap run an experiment is about to need.

    The fields mirror :func:`cached_run`'s signature so a runner can
    warm exactly the cache entries the serial code will read.
    """

    category: str
    products: int
    data_seed: int
    config: PipelineConfig
    attribute_subset: Sequence[str] | None = None


def _run_key(request: RunRequest) -> tuple:
    subset_key = (
        tuple(sorted(request.attribute_subset))
        if request.attribute_subset
        else None
    )
    return (
        request.category,
        request.products,
        request.data_seed,
        repr(request.config),
        subset_key,
    )


def prefetch_runs(
    requests: Sequence[RunRequest],
    workers: int | None = None,
) -> None:
    """Warm the run cache for ``requests``, in parallel when possible.

    Deduplicates against the memo, fans the cache misses out over a
    :class:`~repro.runtime.CategoryRunner` wave (generator-spec jobs,
    so only a few strings and ints cross the process boundary), and
    stores the returned :class:`BootstrapResult` objects under the
    exact keys :func:`cached_run` will look up. Experiments keep their
    readable serial loops; every ``cached_run`` call after a prefetch
    is a cache hit.

    A failed parallel job falls back to an inline :func:`cached_run`
    (which raises normally), so failure behaviour is identical to the
    pre-runner serial path. With one miss — or one worker — everything
    runs inline and the pool is never built.
    """
    missing: list[RunRequest] = []
    seen: set[tuple] = set()
    for request in requests:
        key = _run_key(request)
        if key in _run_cache or key in seen:
            continue
        seen.add(key)
        missing.append(request)
    if not missing:
        return
    workers = default_workers(len(missing)) if workers is None else workers
    if len(missing) == 1 or workers <= 1:
        for request in missing:
            cached_run(
                request.category,
                request.products,
                request.data_seed,
                request.config,
                request.attribute_subset,
            )
        return
    jobs = [
        RunnerJob.generate(
            request.category,
            request.products,
            request.config,
            data_seed=request.data_seed,
            attribute_subset=request.attribute_subset,
            name=f"{request.category}#{index}",
        )
        for index, request in enumerate(missing)
    ]
    runner = CategoryRunner(workers=workers)
    for request, outcome in zip(missing, runner.run(jobs)):
        if outcome.ok:
            _run_cache[_run_key(request)] = outcome.result.bootstrap
        else:
            cached_run(
                request.category,
                request.products,
                request.data_seed,
                request.config,
                request.attribute_subset,
            )


def crf_config(
    iterations: int,
    *,
    cleaning: bool = True,
    semantic: bool | None = None,
    syntactic: bool | None = None,
    diversification: bool = True,
) -> PipelineConfig:
    """A CRF pipeline config with explicit cleaning knobs."""
    return PipelineConfig(
        iterations=iterations,
        tagger="crf",
        enable_syntactic_cleaning=(
            cleaning if syntactic is None else syntactic
        ),
        enable_semantic_cleaning=(
            cleaning if semantic is None else semantic
        ),
        enable_diversification=diversification,
    )


def lstm_config(
    iterations: int, epochs: int, *, cleaning: bool
) -> PipelineConfig:
    """An RNN/BiLSTM pipeline config (paper: 2 vs 10 epochs)."""
    from ..config import LstmConfig

    return PipelineConfig(
        iterations=iterations,
        tagger="lstm",
        enable_syntactic_cleaning=cleaning,
        enable_semantic_cleaning=cleaning,
        lstm=LstmConfig(epochs=epochs),
    )
