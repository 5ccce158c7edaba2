"""Self-time arithmetic and span recording."""

from __future__ import annotations

import types

import pytest

from bench import trace


def _span(id_, parent, start, end, pid=1, thread=1, name="x"):
    return {
        "id": id_,
        "parent": parent,
        "name": name,
        "pid": pid,
        "thread": thread,
        "shard": None,
        "start": start,
        "end": end,
    }


def test_self_time_subtracts_union_of_same_thread_children():
    spans = [
        _span("root", None, 0.0, 10.0, name="core.sharded"),
        _span("a", "root", 1.0, 4.0, name="ml.crf.train"),
        _span("b", "root", 3.0, 6.0, name="ml.crf.tag"),  # overlaps a
        _span("a1", "a", 2.0, 3.0, name="html.parse"),
        # Parallel work elsewhere never counts against the parent.
        _span("w", "root", 0.0, 10.0, pid=2, name="runtime.pool.task"),
        _span("t", "root", 5.0, 9.0, thread=2, name="serve.service"),
        # A child running past its parent's end is clipped.
        _span("c", "root", 9.5, 11.0, name="cleaning.veto"),
    ]
    selfs = trace.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - (5.0 + 0.5))
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["a1"] == pytest.approx(1.0)
    assert selfs["w"] == pytest.approx(10.0)

    layers = trace.summarize(spans)
    assert layers["core.sharded"]["total_s"] == pytest.approx(10.0)
    assert layers["core.sharded"]["self_s"] == pytest.approx(4.5)
    assert layers["ml.crf.train"]["calls"] == 1


def test_wrapped_functions_nest_and_restore(tmp_path):
    owner = types.SimpleNamespace()

    def inner(value):
        return value + 1

    def outer(value):
        return owner.inner(value) * 2

    owner.inner, owner.outer = inner, outer
    tracer = trace.Tracer(tmp_path, "run-1")
    tracer.wrap(owner, "inner", "layer.inner", lambda args, result, error: {"in": args[0]})
    tracer.wrap(owner, "outer", "layer.outer")
    try:
        assert owner.outer(3) == 8
        task = trace._TracedTask(lambda context, index: context + index, parent=None)
        trace._ACTIVE = tracer
        assert task(10, 2) == 12
    finally:
        tracer.uninstall()
        trace._ACTIVE = None
    assert owner.inner is inner and owner.outer is outer
    by_name = {span["name"]: span for span in tracer.spans}
    assert by_name["layer.inner"]["parent"] == by_name["layer.outer"]["id"]
    assert by_name["layer.inner"]["attrs"] == {"in": 3}
    assert by_name["runtime.pool.task"]["shard"] == 2
    assert all(span["run"] == "run-1" for span in tracer.spans)

    tracer.flush()
    loaded = trace.load_spans(tmp_path)
    assert sorted(span["name"] for span in loaded) == [
        "layer.inner",
        "layer.outer",
        "runtime.pool.task",
    ]
