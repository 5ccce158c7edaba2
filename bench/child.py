"""Child-process entry points: one batch run, or one serve daemon.

Every measured phase runs in a fresh interpreter started by the
benchmark, so each record's peak RSS (``VmHWM``) is that phase's own
and inherits nothing from set-up or from another phase::

    python -m bench.child batch ARGS.json   # one run_streamed, record out
    python -m bench.child serve ARGS.json   # daemon until stdin says stop

``ARGS.json`` is written by :mod:`bench.workloads`; with ``"trace_dir"``
set the child installs :class:`bench.trace.Tracer` before doing
anything else, so forked shard workers inherit the wrappers.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


def triples_digest(triples) -> str:
    """SHA-256 over the sorted ``(product, attribute, value)`` rows."""
    rows = sorted([t.product_id, t.attribute, t.value] for t in triples)
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def _tracer(args: dict):
    if not args.get("trace_dir"):
        return None
    from .trace import Tracer

    return Tracer(args["trace_dir"], args["run_id"]).install()


def run_batch(args: dict) -> dict:
    """One ``PAEPipeline.run_streamed`` over the workload's JSONL dump."""
    tracer = _tracer(args)
    from repro import PAEPipeline, PipelineConfig
    from repro.corpus.stream import JsonlPageSource
    from repro.runtime.memory import children_peak_rss_bytes, peak_rss_bytes

    config = PipelineConfig(**args["config"])
    started = time.perf_counter()
    source = JsonlPageSource(
        args["pages"],
        shard_size=args["shard_size"],
        policy=args["policy"],
        category=args["category"],
    )
    result = PAEPipeline(config).run_streamed(
        source,
        source.query_log(),
        checkpoint_dir=args.get("checkpoint_dir"),
        resume=False,
        cache_dir=args.get("cache_dir"),
    )
    wall = time.perf_counter() - started
    cpu = sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )
    if tracer is not None:
        tracer.flush()
    perf = result.perf_counters()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "pages": source.page_count,
        "digest": triples_digest(result.triples),
        "triples": sorted(
            [t.product_id, t.attribute, t.value] for t in result.triples
        ),
        "coverage": result.coverage(),
        "peak_rss_bytes": peak_rss_bytes(),
        "worker_peak_rss_bytes": children_peak_rss_bytes(),
        "feature_cache": perf["feature_cache"],
        "prep_cache": perf["prep_cache"],
        "stage_seconds": perf["stage_seconds"],
    }


def run_serve(args: dict) -> dict:
    """Serve until a line (or EOF) arrives on stdin; then report."""
    tracer = _tracer(args)
    from repro.config import ServeConfig
    from repro.runtime.memory import peak_rss_bytes
    from repro.serve import ExtractionService, ModelRegistry, start_server

    registry = ModelRegistry(args["registry"])
    registry.activate_latest()
    service = ExtractionService(
        registry,
        ServeConfig(port=0),
        quarantine_path=args.get("quarantine_path"),
    )
    server, thread = start_server(service)
    print(f"READY {server.server_address[1]}", flush=True)
    sys.stdin.readline()
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    stats = service.stats()
    service.close()
    if tracer is not None:
        tracer.flush()
    return {
        "peak_rss_bytes": peak_rss_bytes(),
        "batcher": stats["batcher"],
        "admission": stats["admission"],
        "counters": stats["counters"],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("batch", "serve"):
        print("usage: python -m bench.child batch|serve ARGS.json", file=sys.stderr)
        return 2
    mode, args_path = argv
    with open(args_path, encoding="utf-8") as handle:
        args = json.load(handle)
    record = run_batch(args) if mode == "batch" else run_serve(args)
    with open(args["record"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
