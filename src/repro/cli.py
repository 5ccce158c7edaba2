"""Command-line interface.

Subcommands::

    repro-pae categories
        List the shipped category schemas.

    repro-pae run --category vacuum_cleaner --products 220
        Generate a synthetic catalog, run the full pipeline and print
        the per-iteration precision/coverage report. A comma-separated
        ``--category`` list sweeps many categories in parallel
        (``--workers``); ``--trace trace.json`` dumps per-stage,
        per-iteration wall-clock timings. ``--checkpoint-dir`` makes
        the run crash-safe (per-iteration snapshots; re-invoke with
        ``--resume`` to continue a killed run bit-identically), and
        ``--job-timeout`` bounds each sweep job's wall-clock so a hung
        category degrades to a structured Timeout failure.

    repro-pae run --category tennis --products 100000 --stream
        Bounded-memory scale mode: the category is generated and
        processed shard by shard (``--shard-size``; ``--pool-workers``
        sets the shard pool) instead of materializing every page; the
        report adds throughput and peak RSS.

    repro-pae experiment --name table1
        Regenerate one of the paper's tables/figures (same runners the
        benchmarks use).

Installed as ``repro-pae`` via the package's console-script entry, or
runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import PAEPipeline, PipelineConfig
from .corpus import Marketplace, category_names
from .corpus.categories import HETEROGENEOUS_UNIONS
from .evaluation import build_truth_sample, precision
from .evaluation.report import iteration_report

_EXPERIMENTS = {
    "table1": ("table1", "run"),
    "table2": ("table2_3", "run"),
    "table3": ("table2_3", "run"),
    "table4": ("table4", "run"),
    "figure3": ("figure3", "run"),
    "figure4": ("figure4_6", "run_figure4"),
    "figure5": ("figure5", "run"),
    "figure6": ("figure4_6", "run_figure6"),
    "figure7": ("figure7_8", "run_figure7"),
    "figure8": ("figure7_8", "run_figure8"),
    "german": ("german", "run"),
    "diversification": ("diversification", "run"),
    "cleaning": ("cleaning_impact", "run"),
    "per_attribute": ("per_attribute", "run"),
    "heterogeneous": ("heterogeneous", "run"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pae",
        description=(
            "Bootstrapped product attribute extraction "
            "(ICDE 2019 reproduction)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "categories", help="list the shipped category schemas"
    )

    run = commands.add_parser(
        "run", help="run the pipeline on one or more synthetic categories"
    )
    run.add_argument(
        "--category", required=True,
        help="a category name, or a comma-separated list for a "
        "parallel multi-category sweep (see `categories`)",
    )
    run.add_argument("--products", type=int, default=220)
    run.add_argument("--iterations", type=int, default=5)
    run.add_argument(
        "--tagger", choices=("crf", "lstm", "ensemble"), default="crf"
    )
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--no-cleaning", action="store_true",
        help="disable veto rules and the semantic filter",
    )
    run.add_argument(
        "--no-diversification", action="store_true",
        help="disable seed value diversification",
    )
    run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for multi-category sweeps "
        "(default: CPUs visible to the process)",
    )
    run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write per-stage, per-iteration wall-clock timings "
        "to this JSON file",
    )
    run.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write crash-safe per-iteration snapshots here (one "
        "subdirectory per category in a sweep); a killed run "
        "re-invoked with --resume continues from the last completed "
        "iteration",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="resume from snapshots in --checkpoint-dir instead of "
        "starting over (bit-identical output to an uninterrupted run)",
    )
    run.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget in sweeps; a hung category "
        "becomes a structured Timeout failure instead of a stuck sweep",
    )
    run.add_argument(
        "--bench-out", metavar="PATH", default=None,
        help="write per-stage wall-clock timings and feature-cache "
        "hit/miss counters to this JSON file",
    )
    run.add_argument(
        "--ingest-policy", choices=("strict", "repair", "drop"),
        default=None,
        help="how the ingest gate treats pages that fail validation: "
        "strict raises, repair fixes fixable damage in place, drop "
        "quarantines them (default: repair)",
    )
    run.add_argument(
        "--max-page-bytes", type=int, default=None, metavar="N",
        help="ingest-gate page size bound; larger pages are "
        "quarantined (default: 1000000)",
    )
    run.add_argument(
        "--stream", action="store_true",
        help="bounded-memory scale mode: generate and process the "
        "category shard by shard instead of materializing every page "
        "(single category only; "
        "pages come from per-page RNG substreams, so the corpus "
        "differs from the materialized one and the report skips the "
        "ground-truth precision sample)",
    )
    run.add_argument(
        "--shard-size", type=int, default=1000, metavar="N",
        help="pages per shard in --stream mode (default: 1000)",
    )
    run.add_argument(
        "--memory-budget", type=int, default=None, metavar="MB",
        help="soft RSS ceiling in MiB; crossing it throttles shard "
        "fan-out and releases tokenizer memos (output-identical; "
        "default: no governor)",
    )
    run.add_argument(
        "--pool-workers", type=int, default=None, metavar="N",
        help="worker processes for the supervised shard pool "
        "(output-identical for any N >= 1; default: CPUs visible to "
        "the process, capped at the shard count)",
    )
    run.add_argument(
        "--no-prep-cache", action="store_true",
        help="disable the cross-run shard-prep artifact cache "
        "(output-identical either way; prep is recomputed from "
        "scratch)",
    )
    run.add_argument(
        "--dirt-rate", type=float, default=0.0, metavar="FRACTION",
        help="corrupt this fraction of generated pages (truncation, "
        "unclosed tags, entity garbage, mojibake, duplicate ids, "
        "megapages) before the run — a seeded end-to-end exercise of "
        "the ingest gate; the containment summary is printed after "
        "the report",
    )

    serve = commands.add_parser(
        "serve",
        help="run the online extraction daemon against a model registry",
    )
    serve.add_argument(
        "--registry", required=True, metavar="DIR",
        help="registry directory of published model bundles "
        "(one subdirectory per version)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--bootstrap", metavar="CATEGORY[:PRODUCTS]", default=None,
        help="when the registry is empty, train a CRF on this "
        "synthetic category and publish it as v1 before serving",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="concurrent requests admitted before load shedding "
        "(default: 32)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline (default: 5.0)",
    )
    serve.add_argument(
        "--memory-budget", type=int, default=None, metavar="MB",
        help="soft RSS ceiling in MiB; under pressure admission "
        "control halves its effective capacity until RSS recovers "
        "(default: off)",
    )
    serve.add_argument(
        "--quarantine-log", metavar="PATH", default=None,
        help="JSONL ledger for ingest-gate rejections "
        "(default: <registry>/quarantine.jsonl)",
    )

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "--name", required=True, choices=sorted(_EXPERIMENTS),
    )
    experiment.add_argument("--products", type=int, default=None)
    experiment.add_argument("--iterations", type=int, default=5)
    experiment.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the experiment's bootstrap sweep "
        "(default: CPUs visible to the process)",
    )

    profile = commands.add_parser(
        "profile",
        help="profile a page collection (synthetic category or a "
        "pages.jsonl of real data) for seed viability",
    )
    source = profile.add_mutually_exclusive_group(required=True)
    source.add_argument("--category", help="a shipped category name")
    source.add_argument(
        "--pages", help="path to pages.jsonl (or its directory)"
    )
    profile.add_argument("--products", type=int, default=220)
    profile.add_argument("--seed", type=int, default=7)
    return parser


def _command_categories() -> int:
    for name in category_names():
        print(name)
    for union in sorted(HETEROGENEOUS_UNIONS):
        members = ", ".join(HETEROGENEOUS_UNIONS[union])
        print(f"{union} (heterogeneous union of: {members})")
    return 0


def _check_output_paths(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject ``--trace``/``--bench-out`` paths whose directory cannot
    take the file, before any work is done (exit 2)."""
    import os

    outputs = (("--trace", args.trace), ("--bench-out", args.bench_out))
    for option, path in outputs:
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            parser.error(f"{option} {path}: no directory {parent}")
        if not os.access(parent, os.W_OK | os.X_OK):
            parser.error(f"{option} {path}: cannot write to {parent}")


def _write_json(path: str, payload: dict, what: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"{what} written to {path}")


def _print_category_report(
    category: str, dataset, result
) -> None:
    truth = build_truth_sample(dataset)
    breakdown = precision(result.triples, truth)
    print(f"category:   {category} ({dataset.locale})")
    print(f"attributes: {', '.join(result.attributes)}")
    print(f"triples:    {len(result.triples)}")
    print(f"precision:  {100 * breakdown.precision:.2f}%")
    print(f"coverage:   {100 * result.coverage():.2f}%")
    print()
    print(iteration_report(result.bootstrap, truth, len(dataset)))


def _dirt_plan(args: argparse.Namespace):
    """A fresh per-run FaultPlan for --dirt-rate, or None."""
    if not args.dirt_rate:
        return None
    from .runtime.faults import FaultPlan, FaultSpec

    return FaultPlan(
        [
            FaultSpec(
                stage="corpus",
                kind="dirt",
                corrupt_fraction=args.dirt_rate,
            )
        ],
        seed=args.seed,
    )


def _print_containment(result) -> None:
    """Print the gate/breaker summary when a run contained anything."""
    counters = result.resilience_counters()
    quarantined = counters.get("quarantined", {})
    repaired = counters.get("repaired", {})
    breaker = counters.get("circuit_breaker", {})
    if not (quarantined or repaired or breaker):
        return
    print("containment:")
    if quarantined:
        total = sum(quarantined.values())
        checks = ", ".join(
            f"{check}={count}"
            for check, count in sorted(quarantined.items())
        )
        print(f"  quarantined: {total} page(s) ({checks})")
    if repaired:
        total = sum(repaired.values())
        checks = ", ".join(
            f"{check}={count}"
            for check, count in sorted(repaired.items())
        )
        print(f"  repaired:    {total} page(s) ({checks})")
    if breaker:
        reasons = ", ".join(sorted(breaker))
        print(f"  circuit breaker tripped: {reasons}")
    print()


def _command_run(args: argparse.Namespace) -> int:
    from .config import IngestConfig

    categories = [
        name.strip() for name in args.category.split(",") if name.strip()
    ]
    ingest_kwargs = {}
    if args.ingest_policy is not None:
        ingest_kwargs["policy"] = args.ingest_policy
    if args.max_page_bytes is not None:
        ingest_kwargs["max_page_bytes"] = args.max_page_bytes
    config = PipelineConfig(
        iterations=args.iterations,
        tagger=args.tagger,
        enable_syntactic_cleaning=not args.no_cleaning,
        enable_semantic_cleaning=not args.no_cleaning,
        enable_diversification=not args.no_diversification,
        enable_prep_cache=not args.no_prep_cache,
        memory_budget_mb=args.memory_budget,
        pool_workers=args.pool_workers,
        ingest=IngestConfig(**ingest_kwargs),
    )
    if args.stream:
        return _run_streamed(categories, config, args)
    if len(categories) == 1:
        from .runtime import PipelineTrace

        category = categories[0]
        dataset = Marketplace(seed=args.seed).generate(
            category, args.products
        )
        trace = PipelineTrace(label=category)
        result = PAEPipeline(config).run(
            dataset.product_pages,
            dataset.query_log,
            trace=trace,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            faults=_dirt_plan(args),
        )
        _print_category_report(category, dataset, result)
        _print_containment(result)
        if args.trace:
            _write_json(args.trace, trace.to_dict(), "trace")
        if args.bench_out:
            _write_json(
                args.bench_out,
                {category: result.perf_counters()},
                "bench counters",
            )
        return 0
    return _run_sweep(categories, config, args)


def _run_streamed(
    categories: list[str],
    config: PipelineConfig,
    args: argparse.Namespace,
) -> int:
    """The bounded-memory single-category path (``run --stream``)."""
    import time

    from .corpus import GeneratedPageSource
    from .runtime import PipelineTrace

    if len(categories) != 1:
        print(
            "--stream runs one category at a time; use a plain sweep "
            "for multi-category runs",
            file=sys.stderr,
        )
        return 1
    category = categories[0]
    source = GeneratedPageSource(
        category,
        args.products,
        shard_size=args.shard_size,
        seed=args.seed,
    )
    query_log = source.build_query_log()
    trace = PipelineTrace(label=category)
    start = time.perf_counter()
    result = PAEPipeline(config).run_streamed(
        source,
        query_log,
        trace=trace,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        faults=_dirt_plan(args),
    )
    wall = time.perf_counter() - start
    peak = result.resilience_counters()["peak_rss_bytes"]
    print(f"category:   {category} ({source.locale}, streamed)")
    print(f"attributes: {', '.join(result.attributes)}")
    print(f"triples:    {len(result.triples)}")
    print(f"coverage:   {100 * result.coverage():.2f}%")
    print(
        f"throughput: {args.products / max(wall, 1e-9):.1f} pages/s "
        f"({args.products} pages, {source.shard_count} shard(s), "
        f"{wall:.1f}s)"
    )
    if peak:
        print(f"peak rss:   {peak / (1024 * 1024):.0f} MB")
    print()
    _print_containment(result)
    if args.trace:
        _write_json(args.trace, trace.to_dict(), "trace")
    if args.bench_out:
        _write_json(
            args.bench_out,
            {category: result.perf_counters()},
            "bench counters",
        )
    return 0


def _run_sweep(
    categories: list[str],
    config: PipelineConfig,
    args: argparse.Namespace,
) -> int:
    """Fan a multi-category sweep out over a CategoryRunner."""
    import os
    from dataclasses import replace

    from .runtime import CategoryRunner, RunnerJob, summarize_outcomes

    jobs = [
        RunnerJob.generate(
            category,
            args.products,
            config,
            data_seed=args.seed,
            checkpoint_dir=(
                os.path.join(args.checkpoint_dir, category)
                if args.checkpoint_dir
                else None
            ),
            resume=args.resume,
        )
        for category in categories
    ]
    if args.dirt_rate:
        # Each job gets its own plan: FaultPlan state mutates as it
        # fires, and every worker must make independent, seeded
        # corruption decisions.
        jobs = [replace(job, faults=_dirt_plan(args)) for job in jobs]
    runner = CategoryRunner(
        workers=args.workers, job_timeout=args.job_timeout
    )
    outcomes = runner.run(jobs)
    traces: dict[str, dict] = {}
    bench: dict[str, dict] = {}
    failures = 0
    for outcome in outcomes:
        if not outcome.ok:
            failures += 1
            print(f"category:   {outcome.job_name}  FAILED")
            print(f"  {outcome.failure}")
            print()
            continue
        dataset = Marketplace(seed=args.seed).generate(
            outcome.job_name, args.products
        )
        _print_category_report(
            outcome.job_name, dataset, outcome.result
        )
        _print_containment(outcome.result)
        print(f"wall-clock: {outcome.seconds:.2f}s")
        print()
        if outcome.trace is not None:
            traces[outcome.job_name] = outcome.trace.to_dict()
        bench[outcome.job_name] = outcome.result.perf_counters()
    summary = summarize_outcomes(outcomes)
    print(
        f"sweep:      {summary['succeeded']}/{summary['jobs']} jobs "
        "succeeded"
    )
    if summary["quarantined"]:
        total = sum(summary["quarantined"].values())
        print(f"  quarantined across jobs: {total} page(s)")
    if summary["halted_jobs"]:
        for halted in summary["halted_jobs"]:
            print(
                f"  {halted['job']}: circuit breaker halted at "
                f"iteration {halted['iteration']} "
                f"({halted['reason']})"
            )
    for line in summary["failures"]:
        print(f"  FAILED {line}")
    if args.trace:
        _write_json(args.trace, {"categories": traces}, "trace")
    if args.bench_out:
        _write_json(args.bench_out, bench, "bench counters")
    return 1 if failures else 0


def _command_serve(args: argparse.Namespace) -> int:
    import os

    from .config import ServeConfig
    from .serve import (
        ExtractionService,
        ModelRegistry,
        start_server,
        train_and_publish,
    )

    serve_kwargs = {"host": args.host, "port": args.port}
    if args.queue_capacity is not None:
        serve_kwargs["queue_capacity"] = args.queue_capacity
    if args.deadline is not None:
        serve_kwargs["deadline_seconds"] = args.deadline
    if args.memory_budget is not None:
        serve_kwargs["memory_budget_mb"] = args.memory_budget
    config = ServeConfig(**serve_kwargs)

    registry = ModelRegistry(
        args.registry,
        drain_timeout_seconds=config.drain_timeout_seconds,
    )
    if not registry.versions():
        if args.bootstrap is None:
            print(
                f"registry {args.registry} has no published versions; "
                "use --bootstrap CATEGORY to train one",
                file=sys.stderr,
            )
            return 1
        category, _, products = args.bootstrap.partition(":")
        print(f"bootstrapping registry from category {category!r} ...")
        train_and_publish(
            args.registry,
            category,
            int(products) if products else 120,
        )
    version = registry.activate_latest().version
    quarantine_path = args.quarantine_log or os.path.join(
        args.registry, "quarantine.jsonl"
    )
    service = ExtractionService(
        registry, config, quarantine_path=quarantine_path
    )
    server, thread = start_server(service, config.host, config.port)
    host, port = server.server_address[:2]
    print(f"serving version {version} on http://{host}:{port}")
    print(f"  POST /extract     {{'product_id', 'text'|'html', ...}}")
    print(f"  GET  /healthz     liveness + degradation level")
    print(f"  GET  /stats       full pipeline counters")
    print(f"  POST /admin/swap  hot-swap to a new version")
    try:
        thread.join()
    except KeyboardInterrupt:
        print("\nshutting down ...")
        server.shutdown()
        service.close()
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    import importlib
    import os

    from .experiments import ExperimentSettings

    if args.workers is not None:
        # prefetch_runs / parallel_map resolve their pool size from
        # REPRO_WORKERS via repro.runtime.default_workers.
        os.environ["REPRO_WORKERS"] = str(args.workers)
    module_name, function_name = _EXPERIMENTS[args.name]
    module = importlib.import_module(
        f"repro.experiments.{module_name}"
    )
    settings_kwargs = {"iterations": args.iterations}
    if args.products is not None:
        settings_kwargs["products"] = args.products
    settings = ExperimentSettings(**settings_kwargs)
    result = getattr(module, function_name)(settings)
    if args.name == "table2":
        print(result.format_precision())
    elif args.name == "table3":
        print(result.format_coverage())
    elif args.name in ("figure7", "figure8"):
        print(result.format(args.name.capitalize()))
    else:
        print(result.format())
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    from .corpus.statistics import profile_pages

    if args.category:
        dataset = Marketplace(seed=args.seed).generate(
            args.category, args.products
        )
        pages = list(dataset.product_pages)
    else:
        from .corpus.io import load_pages

        pages, _ = load_pages(args.pages)
    profile = profile_pages(pages)
    print(profile.format())
    warnings = profile.seed_viability_warnings()
    if warnings:
        print("\nWARNINGS:")
        for warning in warnings:
            print(f"  ! {warning}")
    else:
        print("\nseed viability: OK")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "categories":
        return _command_categories()
    if args.command == "run":
        _check_output_paths(parser, args)
        return _command_run(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "profile":
        return _command_profile(args)
    return _command_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
