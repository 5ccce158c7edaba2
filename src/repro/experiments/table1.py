"""Table I — precision and coverage of the automatically obtained seed.

Columns per category: #Pairs, #Triples, Precision Pairs (structural
pair validity, the annotators' "valid association" judgement),
Precision Triples (against the truth sample) and Coverage Triples (the
share of the truth sample's correct triples the seed already finds).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.preprocess import (
    build_seed,
    build_training_material,
    discover_candidates,
)
from ..core.text import tokenize_pages
from ..evaluation import build_truth_sample, pair_precision, precision
from ..evaluation.metrics import triple_coverage
from ..evaluation.report import format_table
from ..runtime import ShardWorkerPool, default_workers
from .common import CORE_CATEGORIES, ExperimentSettings, cached_dataset


@dataclass(frozen=True)
class SeedRow:
    """One category's seed statistics."""

    category: str
    n_pairs: int
    n_triples: int
    precision_pairs: float
    precision_triples: float
    coverage_triples: float


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[SeedRow, ...]

    def format(self) -> str:
        return format_table(
            [
                "category", "#pairs", "#triples", "prec.pairs%",
                "prec.triples%", "cov.triples%",
            ],
            [
                [
                    row.category,
                    row.n_pairs,
                    row.n_triples,
                    100.0 * row.precision_pairs,
                    100.0 * row.precision_triples,
                    100.0 * row.coverage_triples,
                ]
                for row in self.rows
            ],
            title="Table I — seed precision and coverage",
        )


def seed_row(category: str, settings: ExperimentSettings) -> SeedRow:
    """Compute the seed statistics of one category."""
    dataset = cached_dataset(category, settings.products, settings.data_seed)
    pages = list(dataset.product_pages)
    candidates = discover_candidates(pages)
    seed = build_seed(
        pages, dataset.query_log, candidates=candidates
    )
    material = build_training_material(
        tokenize_pages(pages), seed, candidates
    )
    triples = seed.table_triples | material.text_triples
    truth = build_truth_sample(dataset)
    return SeedRow(
        category=category,
        n_pairs=len(seed.pairs()),
        n_triples=len(triples),
        precision_pairs=pair_precision(
            seed.pairs(), dataset.pair_validator, dataset.alias_map
        ),
        precision_triples=precision(triples, truth).precision,
        coverage_triples=triple_coverage(triples, truth),
    )


def _seed_row_task(settings: ExperimentSettings, index: int) -> SeedRow:
    """Pool task: the seed row of core category ``index``."""
    return seed_row(CORE_CATEGORIES[index], settings)


def run(settings: ExperimentSettings | None = None) -> Table1Result:
    """Reproduce Table I over the eight core categories.

    Seed construction is embarrassingly parallel across categories;
    the rows run as one :class:`~repro.runtime.ShardWorkerPool` wave
    (inline on a single CPU) and come back in category order. A row
    that raises re-raises here with its own type.
    """
    settings = settings or ExperimentSettings()
    indices = range(len(CORE_CATEGORIES))
    with ShardWorkerPool(default_workers(len(indices))) as pool:
        rows, failures, _ = pool.run(
            _seed_row_task, settings, indices, stage="table1"
        )
    if failures:
        failure = failures[min(failures)]
        raise RuntimeError(
            f"Table I row {CORE_CATEGORIES[failure.index]}: worker died "
            f"on every attempt ({failure.reason}: {failure.detail})"
        )
    return Table1Result(tuple(rows[index] for index in indices))
