"""Layer spans recorded by the benchmark around the program's functions.

Nothing in ``src/`` is instrumented. A traced child process installs a
:class:`Tracer`, which replaces each function in :data:`LAYERS` with a
wrapper that records a span — name, start, end, parent span, run id,
pid, shard — around the call. Each wrapper is installed where the name
is looked up (``repro.core.sharded.tokenize_page`` and
``repro.core.text.tokenize_page`` are patched separately, because the
sharded module imported the name).

Shard workers are forked by :class:`repro.runtime.pool.ShardWorkerPool`
after the wrappers are installed, so they run them too. The pool's
``run`` is wrapped so the task callable it ships to workers is a
picklable :class:`_TracedTask`, which records the task span, tags every
span inside it with its shard, and appends the worker's spans to
``<out>/spans-<pid>.jsonl`` after each task. The owning process writes
its own spans with :meth:`Tracer.flush` when it ends.

A span's self time is its duration minus the part of it covered by
its children in the same process and thread; worker spans run in
parallel with the parent's wait and are never subtracted from it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pathlib
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

#: The tracer installed in this process (inherited by forked workers).
_ACTIVE: "Tracer | None" = None


def _sentences(args, result, error):
    return {"sentences": len(args[1])}


def _gate_page(args, result, error):
    entry, _, repairs, _ = result
    return {"quarantined": int(entry is not None), "repaired": len(repairs)}


def _gate_process(args, result, error):
    if error is not None:
        # The strict serve gate raises on the first failing page.
        return {"quarantined": len(args[1]), "repaired": 0}
    return {
        "quarantined": len(result.quarantine),
        "repaired": result.repaired_total,
    }


def _prep_load(args, result, error):
    return {"hit": int(result is not None)}


def _semantic(args, result, error):
    stats = result[1]
    return {"scored": stats.values_scored, "removed": stats.values_removed}


def _request_key(args, result, error):
    try:
        return {"key": json.loads(args[1]).get("product_id")}
    except (ValueError, AttributeError):
        return {"key": None}


#: ``(module, attribute path, span name, attribute extractor)`` for every
#: wrapped function. One table serves batch and serve children alike;
#: a function a workload never calls records nothing.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.core.pipeline", "PAEPipeline.run_streamed", "core.sharded", None),
    ("repro.corpus.stream", "JsonlPageSource.shard", "corpus.read", None),
    ("repro.ingest.gate", "IngestGate.gate_page_prepared", "ingest.gate", _gate_page),
    ("repro.ingest.gate", "IngestGate.process", "ingest.gate", _gate_process),
    ("repro.ingest.gate", "parse_token_stream", "html.parse", None),
    ("repro.core.text", "parse_html", "html.parse", None),
    ("repro.core.sharded", "tokenize_page", "nlp.tokenize", None),
    ("repro.core.text", "tokenize_page", "nlp.tokenize", None),
    ("repro.serve.server", "split_sentences", "nlp.tokenize", None),
    (
        "repro.core.preprocess.candidate_discovery",
        "discover_page_candidates",
        "preprocess.candidates",
        None,
    ),
    ("repro.core.bootstrap", "build_seed", "preprocess.seed", None),
    ("repro.core.sharded", "label_page", "preprocess.material", None),
    ("repro.perf.prep_cache", "PrepStore.load", "perf.prep_cache.load", _prep_load),
    ("repro.perf.prep_cache", "PrepStore.store", "perf.prep_cache.store", None),
    ("repro.ml.crf.model", "CrfTagger.train", "ml.crf.train", _sentences),
    ("repro.ml.crf.model", "CrfTagger.tag", "ml.crf.tag", _sentences),
    ("repro.embeddings.word2vec", "Word2Vec.train", "embeddings.word2vec", None),
    (
        "repro.core.cleaning.semantic",
        "SemanticCleaner.clean",
        "cleaning.semantic",
        _semantic,
    ),
    ("repro.core.bootstrap", "apply_veto", "cleaning.veto", None),
    (
        "repro.runtime.checkpoint",
        "CheckpointStore.write_iteration",
        "runtime.checkpoint.write",
        None,
    ),
    (
        "repro.runtime.checkpoint",
        "CheckpointStore.write_shard_tags",
        "runtime.checkpoint.write",
        None,
    ),
    (
        "repro.serve.server",
        "ExtractionService.handle_extract",
        "serve.service",
        _request_key,
    ),
    ("repro.serve.batcher", "BatchJob.wait", "serve.batcher.job", None),
    (
        "repro.ingest.quarantine",
        "QuarantineLog.append",
        "serve.quarantine.write",
        None,
    ),
)


class Tracer:
    """In-memory span recorder for one process (and its forked workers).

    Args:
        out_dir: directory receiving ``spans-<pid>.jsonl`` files.
        run_id: identifier stamped on every span.
    """

    def __init__(self, out_dir: str | os.PathLike, run_id: str):
        self.out_dir = pathlib.Path(out_dir)
        self.run_id = run_id
        self.home_pid = os.getpid()
        self._reset()
        self._patches: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.shard: int | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _adopt_fork(self) -> None:
        """Drop the parent's spans and open stack inside a forked worker."""
        if os.getpid() != self.pid:
            self._reset()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: str | None = None) -> dict:
        """Start a span; its parent defaults to this thread's open span."""
        self._adopt_fork()
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]["id"]
        span = {
            "id": f"{self.pid}.{next(self._ids)}",
            "parent": parent,
            "name": name,
            "run": self.run_id,
            "pid": self.pid,
            "thread": threading.get_ident(),
            "shard": self.shard,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] is span:
                del stack[position]
                break
        self.spans.append(span)

    def flush(self) -> None:
        """Append this process's finished spans to its JSONL file."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    # -- installation -----------------------------------------------------

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        describe: Callable | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                tracer.close(span)
                if describe is not None:
                    span["attrs"] = describe(args, None, error)
                raise
            tracer.close(span)
            if describe is not None:
                span["attrs"] = describe(args, result, None)
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def install(self) -> "Tracer":
        """Wrap every :data:`LAYERS` entry and the shard pool's ``run``."""
        global _ACTIVE
        for module_name, path, name, describe in LAYERS:
            owner: object = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            self.wrap(owner, attribute, name, describe)
        from repro.runtime.pool import ShardWorkerPool

        original_run = ShardWorkerPool.run
        tracer = self

        @functools.wraps(original_run)
        def run(pool, fn, context, indices, **kwargs):
            span = tracer.open("runtime.pool.run")
            try:
                results, failures, report = original_run(
                    pool, _TracedTask(fn, span["id"]), context, indices, **kwargs
                )
            finally:
                tracer.close(span)
            workers = max(1, min(pool.workers, len(indices)))
            span["attrs"] = {
                # Worker-seconds the wave held: the pool efficiency base.
                "slot_s": workers * (span["end"] - span["start"]),
                "requeues": report.requeues,
            }
            return results, failures, report

        self._patches.append((ShardWorkerPool, "run", original_run))
        ShardWorkerPool.run = run
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function (tests)."""
        global _ACTIVE
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []
        _ACTIVE = None


class _TracedTask:
    """Picklable stand-in for a pool task callable: spans per shard task.

    Runs ``fn(context, index)`` inside a ``runtime.pool.task`` span whose
    parent is the parent process's ``runtime.pool.run`` span, and, in a
    worker process, flushes the worker's spans after the task.
    """

    def __init__(self, fn: Callable, parent: str):
        self.fn = fn
        self.parent = parent

    def __call__(self, context, index):
        tracer = _ACTIVE
        tracer._adopt_fork()
        tracer.shard = index
        span = tracer.open("runtime.pool.task", parent=self.parent)
        try:
            return self.fn(context, index)
        finally:
            tracer.close(span)
            tracer.shard = None
            if os.getpid() != tracer.home_pid:
                tracer.flush()


# -- reading and arithmetic -------------------------------------------------


def load_spans(directory: str | os.PathLike) -> list[dict]:
    """Every span written under ``directory``."""
    spans: list[dict] = []
    for path in sorted(pathlib.Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its same-thread children."""
    children: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result: dict[str, float] = {}
    for span in spans:
        covered = _union_length(
            (max(child["start"], span["start"]), min(child["end"], span["end"]))
            for child in children[span["id"]]
            if child["pid"] == span["pid"] and child["thread"] == span["thread"]
        )
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, durations, attrs sums."""
    selfs = self_times(spans)
    layers: dict[str, dict] = {}
    for span in spans:
        layer = layers.setdefault(
            span["name"],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "attrs": {}},
        )
        duration = span["end"] - span["start"]
        layer["calls"] += 1
        layer["total_s"] += duration
        layer["self_s"] += selfs[span["id"]]
        layer["durations"].append(duration)
        for key, value in (span.get("attrs") or {}).items():
            if isinstance(value, (int, float)):
                layer["attrs"][key] = layer["attrs"].get(key, 0) + value
    return layers


def by_process(spans: list[dict]) -> dict[str, dict]:
    """Self seconds per pid and layer, plus the shards each pid ran."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        entry = table.setdefault(str(span["pid"]), {"self_s": {}, "shards": set()})
        entry["self_s"][span["name"]] = (
            entry["self_s"].get(span["name"], 0.0) + selfs[span["id"]]
        )
        if span["shard"] is not None:
            entry["shards"].add(span["shard"])
    return {
        pid: {"self_s": entry["self_s"], "shards": sorted(entry["shards"])}
        for pid, entry in table.items()
    }
