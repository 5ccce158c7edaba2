"""Tests for the PipelineTrace stage-timing API."""

import json
import pickle
import time

import pytest

from repro import PAEPipeline, PipelineConfig
from repro.runtime import PipelineTrace, StageEvent


def test_stage_records_duration_and_counters():
    trace = PipelineTrace(label="unit")
    with trace.stage("work") as stage:
        time.sleep(0.01)
        stage.add(items=3)
        stage.add(items=2, other=1)
    assert len(trace.events) == 1
    event = trace.events[0]
    assert event.stage == "work"
    assert event.seconds >= 0.01
    assert event.iteration is None
    assert event.counters == {"items": 5, "other": 1}


def test_stage_recorded_even_when_body_raises():
    trace = PipelineTrace()
    with pytest.raises(ValueError):
        with trace.stage("boom", iteration=1):
            raise ValueError("nope")
    assert [event.stage for event in trace.events] == ["boom"]
    assert trace.events[0].iteration == 1


def test_count_event_is_zero_duration():
    trace = PipelineTrace()
    trace.count("seen", iteration=2, pages=7)
    assert trace.events[0].seconds == 0.0
    assert trace.events[0].counters == {"pages": 7}


def test_aggregations():
    trace = PipelineTrace()
    with trace.stage("train", iteration=1):
        pass
    with trace.stage("train", iteration=2):
        pass
    with trace.stage("tag", iteration=1):
        pass
    with trace.stage("seed"):
        pass
    assert set(trace.stage_totals()) == {"train", "tag", "seed"}
    assert trace.iterations() == [1, 2]
    assert [e.stage for e in trace.iteration_events(1)] == ["train", "tag"]
    assert [e.stage for e in trace.iteration_events(None)] == ["seed"]
    assert trace.total_seconds == pytest.approx(
        sum(event.seconds for event in trace.events)
    )


def test_json_roundtrip():
    trace = PipelineTrace(label="roundtrip")
    with trace.stage("a", iteration=1) as stage:
        stage.add(n=4)
    payload = json.loads(trace.to_json())
    rebuilt = PipelineTrace.from_dict(payload)
    assert rebuilt.label == "roundtrip"
    assert rebuilt.events == trace.events
    assert isinstance(rebuilt.events[0], StageEvent)


def test_trace_is_picklable():
    trace = PipelineTrace(label="pickle")
    with trace.stage("a") as stage:
        stage.add(n=1)
    clone = pickle.loads(pickle.dumps(trace))
    assert clone.events == trace.events
    assert clone.label == "pickle"


def test_pipeline_populates_trace(small_vacuum_dataset):
    trace = PipelineTrace(label="vacuum_cleaner")
    result = PAEPipeline(PipelineConfig(iterations=2)).run(
        list(small_vacuum_dataset.product_pages),
        small_vacuum_dataset.query_log,
        trace=trace,
    )
    assert result.trace is trace
    stages = set(trace.stage_totals())
    # Seed-phase stages plus every per-iteration stage.
    assert {
        "shard_prep",
        "seed_build",
        "training_material",
        "tagger_train",
        "tagger_tag",
        "veto",
        "semantic_clean",
        "fold_dataset",
    } <= stages
    assert trace.iterations() == [1, 2]
    # Each cycle trained and tagged exactly once.
    for iteration in (1, 2):
        names = [e.stage for e in trace.iteration_events(iteration)]
        assert names.count("tagger_train") == 1
        assert names.count("tagger_tag") == 1


def test_pipeline_creates_trace_when_omitted(small_vacuum_dataset):
    result = PAEPipeline(PipelineConfig(iterations=1)).run(
        list(small_vacuum_dataset.product_pages),
        small_vacuum_dataset.query_log,
    )
    assert result.trace is not None
    assert result.trace.total_seconds > 0
