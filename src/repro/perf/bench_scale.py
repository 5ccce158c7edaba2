"""Streamed-bootstrap scale benchmark (``make bench-scale``).

Measures the sharded, bounded-memory pipeline
(:meth:`~repro.core.pipeline.PAEPipeline.run_streamed`) at increasing
corpus sizes — 1k / 10k / 100k pages by default — and writes a JSON
artifact recording pages/sec, peak RSS, shard counts and per-stage
wall-clock shares at every scale. Each scale runs in a **fresh child
process**: Linux's ``VmHWM`` is a lifetime high-water mark, so sharing
one process across scales would report the largest scale's peak for
all of them.

Every scale is measured twice against one prep-cache directory:

* **cold** — empty cache; pays full ``shard_prep`` and seeds the
  cache (:mod:`repro.perf.prep_cache`);
* **warm** — same source, same cache; ``shard_prep`` degenerates to
  artifact replay. This is the steady state of iterative/resumed runs,
  so the headline ``pages_per_second`` and the ``next_target`` stage
  accounting are read off the warm run. Corpus/query-log generation is
  accounted as a ``querylog`` pseudo-stage so it can surface as the
  next target instead of hiding outside the stage ledger.

The two phases run in **separate child processes** sharing the cache
directory: ``VmHWM`` is a process-lifetime high-water mark, so a
shared process would report the cold run's (larger) peak as the warm
run's too. Each phase record carries its own honest peak; the scale's
headline ``peak_rss_mb`` is the warm phase's. The parent cross-checks
a digest of each phase's final triples, so the cached replay is still
proven bit-identical to the cold run despite the process split.

Two auxiliary modes:

* ``--one N --phase cold|warm --cache-dir DIR`` — the child entry
  point: run a single scale's single phase in this process and write
  its JSON record to ``--out``.
* ``--smoke`` — the pre-merge gate (wired into ``make verify``): run
  the 120-product bench corpus as one shard (``PAEPipeline.run``) and
  under multi-shard layouts — prep cache cold, prep cache warm, and
  prep cache disabled — and exit non-zero unless every multi-shard
  run produced bit-identical triples and per-iteration records.

Usage::

    PYTHONPATH=src python -m repro.perf.bench_scale --out BENCH_scale.json
    PYTHONPATH=src python -m repro.perf.bench_scale --smoke

With ``--profile``, each child folds its cProfile top functions (by
cumulative time) into the record. The profile covers the whole warm
run **in the parent process only** — shard prep and tagging execute in
worker processes, which cProfile cannot see; treat it as a map of the
parent-side merge/train/reduce cost, not of worker CPU.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time

#: Scales above this run without the word2vec semantic-drift filter:
#: its training corpus is O(pages) token sentences held at once, which
#: is exactly the unbounded-memory pattern this bench exists to avoid.
SEMANTIC_CUTOFF = 10_000

#: Labeled-sentence cap for scale runs: keeps CRF training cost flat
#: as the corpus grows, so the measured scaling is the per-page work
#: (ingest, tokenize, tag) rather than a quadratically fattening
#: training set. Recorded in the artifact.
SCALE_LABEL_CAP = 2_000

#: Functions kept from a ``--profile`` run, by cumulative time.
PROFILE_TOP_N = 15


def _profile_rows(profiler, top_n: int = PROFILE_TOP_N) -> list[dict]:
    """Top ``top_n`` profiled functions by cumulative time, as dicts."""
    import pstats

    stats = pstats.Stats(profiler)
    ranked = sorted(
        stats.stats.items(),
        key=lambda item: item[1][3],
        reverse=True,
    )
    rows = []
    for (filename, line, name), entry in ranked[:top_n]:
        _, ncalls, tottime, cumtime, _ = entry
        rows.append(
            {
                "function": f"{filename}:{line}:{name}",
                "calls": ncalls,
                "cumulative_seconds": round(cumtime, 4),
                "internal_seconds": round(tottime, 4),
            }
        )
    return rows


def _measured_run(
    config,
    source,
    query_log,
    cache_dir: str,
    label: str,
    profile: bool = False,
):
    """One streamed run; returns ``(result, record, profile_rows)``."""
    from ..core.pipeline import PAEPipeline
    from ..runtime.trace import PipelineTrace

    trace = PipelineTrace(label=label)
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    result = PAEPipeline(config).run_streamed(
        source, query_log, trace=trace, cache_dir=cache_dir
    )
    wall = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    stage_totals = trace.stage_totals()
    stage_sum = sum(stage_totals.values()) or 1e-9
    prep_cache = result.perf_counters()["prep_cache"]
    record = {
        "wall_seconds": wall,
        "pages_per_second": source.page_count / max(wall, 1e-9),
        "prep_cache": prep_cache,
        "stage_seconds": {
            stage: seconds
            for stage, seconds in sorted(stage_totals.items())
        },
        "stage_share": {
            stage: seconds / stage_sum
            for stage, seconds in sorted(stage_totals.items())
        },
    }
    rows = _profile_rows(profiler) if profiler is not None else None
    return result, record, rows


def _triples_digest(triples) -> str:
    """Order-insensitive digest of a run's final triples."""
    import hashlib

    canonical = "\n".join(sorted(map(repr, triples)))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_phase(
    pages: int,
    shard_size: int,
    iterations: int,
    seed: int,
    category: str,
    semantic: bool,
    label_cap: int | None,
    phase: str,
    cache_dir: str,
    profile: bool = False,
) -> dict:
    """Run one scale's cold *or* warm phase in this process.

    The parent runs each phase in its own child against a shared
    ``cache_dir`` (cold seeds it, warm replays it) precisely so this
    process's ``peak_rss_bytes`` covers exactly one phase — the
    high-water mark cannot be confounded by the other phase's
    footprint. ``triples_digest`` lets the parent assert cold/warm
    bit-identity across the process boundary.
    """
    from ..config import PipelineConfig
    from ..corpus.stream import GeneratedPageSource

    config = PipelineConfig(
        iterations=iterations,
        seed=seed,
        enable_semantic_cleaning=semantic,
        max_labeled_sentences=label_cap,
    )
    source = GeneratedPageSource(
        category, pages, shard_size=shard_size, seed=seed
    )
    build_start = time.perf_counter()
    query_log = source.build_query_log()
    querylog_seconds = time.perf_counter() - build_start
    result, record, profile_top = _measured_run(
        config, source, query_log, cache_dir,
        label=f"scale-{pages}-{phase}",
        profile=profile and phase == "warm",
    )
    peak = result.resilience_counters()["peak_rss_bytes"]
    record.update(
        {
            "phase": phase,
            "pages": pages,
            "shard_size": shard_size,
            "shard_count": source.shard_count,
            "iterations": iterations,
            "semantic_cleaning": semantic,
            "max_labeled_sentences": label_cap,
            "querylog_seconds": querylog_seconds,
            "peak_rss_bytes": peak,
            "peak_rss_mb": peak / (1024 * 1024),
            "triples": len(result.triples),
            "coverage": result.coverage(),
            "triples_digest": _triples_digest(result.triples),
        }
    )
    if profile_top is not None:
        record["profile"] = {
            "scope": "warm run, parent process only",
            "top_cumulative": profile_top,
        }
    return record


def _next_target(record: dict) -> dict:
    """The next optimisation target for one scale record.

    Candidates are the warm run's traced stages **plus** corpus/query-
    log generation (``querylog``), which runs before the pipeline and
    is invisible to the stage trace.
    """
    candidates = dict(record["warm"]["stage_seconds"])
    candidates["querylog"] = record["querylog_seconds"]
    total = sum(candidates.values()) or 1e-9
    stage, seconds = max(candidates.items(), key=lambda item: item[1])
    return {"stage": stage, "share": seconds / total}


def run_scales(
    scales: list[int],
    shard_size: int,
    iterations: int,
    seed: int,
    category: str,
    profile: bool = False,
) -> dict:
    """Run every scale in a fresh child process; return the payload."""
    import os

    def child_record(
        pages: int, semantic: bool, phase: str, cache_dir: str
    ) -> dict:
        with tempfile.NamedTemporaryFile(
            mode="r", suffix=".json", delete=False
        ) as handle:
            child_out = handle.name
        command = [
            sys.executable, "-m", "repro.perf.bench_scale",
            "--one", str(pages),
            "--phase", phase,
            "--cache-dir", cache_dir,
            "--out", child_out,
            "--shard-size", str(shard_size),
            "--iterations", str(iterations),
            "--seed", str(seed),
            "--category", category,
        ]
        if not semantic:
            command.append("--no-semantic")
        if profile and phase == "warm":
            command.append("--profile")
        subprocess.run(command, check=True)
        with open(child_out, encoding="utf-8") as handle:
            record = json.load(handle)
        os.unlink(child_out)
        return record

    records: dict[str, dict] = {}
    for pages in scales:
        semantic = pages <= SEMANTIC_CUTOFF
        print(
            f"running scale {pages} "
            f"(semantic={'on' if semantic else 'off'}) ...",
            flush=True,
        )
        # One child process per phase, sharing the prep-cache
        # directory: each child's VmHWM then measures exactly its own
        # phase instead of inheriting the cold run's high-water mark.
        with tempfile.TemporaryDirectory(
            prefix="bench-prep-"
        ) as cache_dir:
            cold = child_record(pages, semantic, "cold", cache_dir)
            warm = child_record(pages, semantic, "warm", cache_dir)
        if warm["triples_digest"] != cold["triples_digest"]:
            raise AssertionError(
                f"scale {pages}: warm (cached) run diverged from "
                "cold run"
            )
        record = {
            "pages": pages,
            "shard_size": shard_size,
            "shard_count": warm["shard_count"],
            "iterations": iterations,
            "semantic_cleaning": semantic,
            "max_labeled_sentences": warm["max_labeled_sentences"],
            "querylog_seconds": warm["querylog_seconds"],
            # Headline throughput and peak: the warm (steady-state)
            # run, measured in its own process.
            "wall_seconds": warm["wall_seconds"],
            "pages_per_second": warm["pages_per_second"],
            "cold": cold,
            "warm": warm,
            "warm_speedup": (
                cold["wall_seconds"] / max(warm["wall_seconds"], 1e-9)
            ),
            "peak_rss_bytes": warm["peak_rss_bytes"],
            "peak_rss_mb": warm["peak_rss_mb"],
            "triples": warm["triples"],
            "coverage": warm["coverage"],
        }
        if "profile" in warm:
            record["profile"] = warm["profile"]
        records[str(pages)] = record
        print(
            f"  {pages} pages: cold {record['cold']['wall_seconds']:.1f}s"
            f" / warm {record['warm']['wall_seconds']:.1f}s"
            f" ({record['warm_speedup']:.2f}x), "
            f"{record['pages_per_second']:.1f} pages/s warm, "
            f"peak warm {record['peak_rss_mb']:.0f} MB / "
            f"cold {record['cold']['peak_rss_mb']:.0f} MB, "
            f"{record['shard_count']} shards",
            flush=True,
        )
    largest = records[str(max(scales))]
    return {
        "schema": 3,
        "config": {
            "scales": scales,
            "shard_size": shard_size,
            "iterations": iterations,
            "seed": seed,
            "category": category,
            "semantic_cutoff": SEMANTIC_CUTOFF,
            "max_labeled_sentences": SCALE_LABEL_CAP,
        },
        "cpu_count": os.cpu_count(),
        "scales": records,
        # The next perf target, read off the largest scale's warm
        # (cached steady-state) run: the stage — including querylog
        # generation — holding the biggest share of wall clock.
        "next_target": _next_target(largest),
    }


def run_smoke(products: int = 120, iterations: int = 2) -> int:
    """Assert multi-shard runs == the one-shard run; 0 on success.

    The reference is :meth:`~repro.core.pipeline.PAEPipeline.run`,
    which runs the pages as one shard. Multi-shard runs cover three
    prep-cache regimes — cold (seeding the cache), warm (replaying it;
    must record hits for every shard) and disabled
    (``enable_prep_cache=False``) — so the bit-identity gate holds for
    any shard layout with the cache on and off.
    """
    from dataclasses import replace

    from ..config import PipelineConfig
    from ..core.pipeline import PAEPipeline
    from ..corpus import Marketplace
    from ..corpus.stream import MaterializedPageSource

    category, seed = "vacuum_cleaner", 7
    dataset = Marketplace(seed=seed).generate(category, products)
    config = PipelineConfig(iterations=iterations, seed=seed)
    reference = PAEPipeline(config).run(
        dataset.product_pages, dataset.query_log
    )

    def check(streamed, label: str) -> bool:
        if streamed.triples != reference.triples:
            print(f"SMOKE FAIL ({label}): final triples differ")
            return False
        if streamed.seed_triples != reference.seed_triples:
            print(f"SMOKE FAIL ({label}): seed triples differ")
            return False
        if streamed.bootstrap.iterations != reference.bootstrap.iterations:
            print(f"SMOKE FAIL ({label}): iteration records differ")
            return False
        print(
            f"smoke ok ({label}): {len(streamed.triples)} triples "
            f"bit-identical to the one-shard run"
        )
        return True

    def source(shard_size: int) -> MaterializedPageSource:
        return MaterializedPageSource(
            dataset.product_pages, shard_size=shard_size, category=category
        )

    checks = 0
    # Cached path: a cold run seeding the prep cache, then a warm run
    # replaying it — both must match the one-shard run, and the warm
    # one must actually have hit the cache for every shard.
    shard_size, workers = 60, 1
    cached = PAEPipeline(replace(config, pool_workers=workers))
    with tempfile.TemporaryDirectory(prefix="smoke-prep-") as cache_dir:
        for phase in ("cache-cold", "cache-warm"):
            streamed = cached.run_streamed(
                source(shard_size), dataset.query_log, cache_dir=cache_dir
            )
            label = f"shard_size={shard_size} workers={workers} {phase}"
            if not check(streamed, label):
                return 1
            checks += 1
        hits = streamed.perf_counters()["prep_cache"]["hits"]
        if hits != source(shard_size).shard_count:
            print(
                f"SMOKE FAIL (cache-warm): expected "
                f"{source(shard_size).shard_count} prep-cache hits, "
                f"got {hits}"
            )
            return 1
    # Uncached path: the cache disabled outright.
    shard_size, workers = 25, 2
    uncached = PAEPipeline(
        replace(config, enable_prep_cache=False, pool_workers=workers)
    )
    streamed = uncached.run_streamed(source(shard_size), dataset.query_log)
    if not check(
        streamed, f"shard_size={shard_size} workers={workers} no-cache"
    ):
        return 1
    checks += 1
    print(f"SMOKE OK: {checks} multi-shard runs bit-identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the streamed bootstrap at paper scale."
    )
    parser.add_argument("--out", default="BENCH_scale.json", metavar="PATH")
    parser.add_argument(
        "--scales", default="1000,10000,100000",
        help="comma-separated page counts (default 1000,10000,100000)",
    )
    parser.add_argument("--shard-size", type=int, default=1000)
    # Two iterations: one is all-prep, two shows the cross-iteration
    # shape (tagging repeats, prep does not) the cache targets.
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--category", default="vacuum_cleaner")
    parser.add_argument(
        "--one", type=int, default=None, metavar="PAGES",
        help="child mode: run a single scale's single phase in this "
        "process (requires --phase and --cache-dir)",
    )
    parser.add_argument(
        "--phase", choices=("cold", "warm"), default=None,
        help="child mode: which prep-cache phase this process measures",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="child mode: shared prep-cache directory (cold seeds it, "
        "warm replays it)",
    )
    parser.add_argument(
        "--no-semantic", action="store_true",
        help="child mode: disable the semantic-drift filter",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "fold each scale's cProfile top functions (cumulative, "
            "parent process, warm run) into the record"
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the multi-shard-vs-one-shard bit-identity gate and "
        "exit",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    if args.one is not None:
        if args.phase is None or args.cache_dir is None:
            parser.error("--one requires --phase and --cache-dir")
        record = run_phase(
            args.one,
            args.shard_size,
            args.iterations,
            args.seed,
            args.category,
            semantic=not args.no_semantic,
            label_cap=SCALE_LABEL_CAP,
            phase=args.phase,
            cache_dir=args.cache_dir,
            profile=args.profile,
        )
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        return 0
    scales = [
        int(value.strip())
        for value in args.scales.split(",")
        if value.strip()
    ]
    payload = run_scales(
        scales,
        args.shard_size,
        args.iterations,
        args.seed,
        args.category,
        profile=args.profile,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    largest = payload["scales"][str(max(scales))]
    print(
        f"largest scale: {largest['pages']} pages at "
        f"{largest['pages_per_second']:.1f} pages/s warm "
        f"({largest['warm_speedup']:.2f}x over cold), "
        f"peak {largest['peak_rss_mb']:.0f} MB; next target: "
        f"{payload['next_target']['stage']} "
        f"({payload['next_target']['share']:.0%})"
    )
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
