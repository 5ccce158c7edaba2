"""End-to-end tests for the PAEPipeline facade."""

import pytest

from repro import PAEPipeline, PipelineConfig
from repro.evaluation import build_truth_sample, precision


@pytest.fixture(scope="module")
def pipeline_result(small_vacuum_dataset):
    pipeline = PAEPipeline(PipelineConfig(iterations=2))
    return pipeline.run(
        list(small_vacuum_dataset.product_pages),
        small_vacuum_dataset.query_log,
    )


def test_produces_triples(pipeline_result):
    assert len(pipeline_result.triples) > 0


def test_attributes_discovered(pipeline_result):
    # Core attributes of the category appear among the discovered ones.
    assert "juryo" in pipeline_result.attributes or (
        "omosa" in pipeline_result.attributes
    )


def test_coverage_bounds(pipeline_result):
    assert 0.0 < pipeline_result.coverage() <= 1.0
    assert pipeline_result.coverage(0) <= pipeline_result.coverage()


def test_triples_per_product_positive(pipeline_result):
    assert pipeline_result.triples_per_product() > 0


def test_seed_triples_subset_of_final(pipeline_result):
    assert pipeline_result.seed_triples <= pipeline_result.triples


def test_reused_pipeline_instance_is_re_entrant(
    small_vacuum_dataset, small_garden_dataset
):
    """Regression: one instance run on two datasets must match two
    fresh pipelines — no `_kept_extractions`/`_last_tagged` leakage."""
    config = PipelineConfig(iterations=1)
    shared = PAEPipeline(config)
    reused_vacuum = shared.run(
        list(small_vacuum_dataset.product_pages),
        small_vacuum_dataset.query_log,
    )
    reused_garden = shared.run(
        list(small_garden_dataset.product_pages),
        small_garden_dataset.query_log,
    )
    fresh_vacuum = PAEPipeline(config).run(
        list(small_vacuum_dataset.product_pages),
        small_vacuum_dataset.query_log,
    )
    fresh_garden = PAEPipeline(config).run(
        list(small_garden_dataset.product_pages),
        small_garden_dataset.query_log,
    )
    assert reused_vacuum.bootstrap == fresh_vacuum.bootstrap
    assert reused_garden.bootstrap == fresh_garden.bootstrap


def test_deterministic_end_to_end(small_vacuum_dataset):
    config = PipelineConfig(iterations=1)
    pages = list(small_vacuum_dataset.product_pages)
    first = PAEPipeline(config).run(pages, small_vacuum_dataset.query_log)
    second = PAEPipeline(config).run(pages, small_vacuum_dataset.query_log)
    assert first.triples == second.triples


def test_lstm_backend_runs(small_vacuum_dataset):
    config = PipelineConfig(iterations=1, tagger="lstm")
    result = PAEPipeline(config).run(
        list(small_vacuum_dataset.product_pages),
        small_vacuum_dataset.query_log,
    )
    assert result.triples >= result.seed_triples


def test_ensemble_backend_runs(small_vacuum_dataset):
    config = PipelineConfig(
        iterations=1, tagger="ensemble", ensemble_policy="agreement"
    )
    result = PAEPipeline(config).run(
        list(small_vacuum_dataset.product_pages),
        small_vacuum_dataset.query_log,
    )
    assert result.triples >= result.seed_triples


def test_quality_against_truth(pipeline_result, small_vacuum_dataset):
    truth = build_truth_sample(small_vacuum_dataset)
    breakdown = precision(pipeline_result.triples, truth)
    assert breakdown.correct > 0
    assert breakdown.precision > 0.6


def test_resilience_counters_include_trainer_warnings(pipeline_result):
    counters = pipeline_result.resilience_counters()
    # Clean run: the key exists and is empty.
    assert counters["trainer_warnings"] == {}


def test_trainer_warnings_flow_through_trace():
    from repro.core.pipeline import PipelineResult
    from repro.runtime.trace import PipelineTrace

    trace = PipelineTrace()
    trace.count("trainer_warning", 2, lbfgs_abnormal=1)
    trace.count("trainer_warning", 3, lbfgs_abnormal=2)
    result = PipelineResult(
        bootstrap=None, product_count=0, trace=trace
    )
    counters = result.resilience_counters()
    assert counters["trainer_warnings"] == {"lbfgs_abnormal": 3}

