"""Command line: ``python -m bench run`` and ``python -m bench compare``.

::

    python -m bench run [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1 | --traced] [--out DIR]
    python -m bench compare BASE_DIR CHANGE_DIR

``run`` prints every metric of each workload by name with its unit,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; it writes the full record
to ``DIR/records/``. Untraced runs report the end-to-end metrics of
``BENCHMARK.json``, traced runs its per-layer metrics. The process
re-executes itself with :data:`bench.spec.PINNED_ENV` (hash seed 0,
one BLAS thread) when started without it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import time

from .spec import PINNED_ENV, SRC_DIR, environment, load_benchmark, load_reference


def _run(args: argparse.Namespace) -> int:
    from .workloads import WORKLOADS, run_workload

    benchmark = load_benchmark()
    reference = load_reference()
    seed = reference["default_seed"] if args.seed is None else args.seed
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    traced = args.traced or args.trace == 1
    declared = {
        metric["name"]: metric
        for metric in benchmark["per_layer" if traced else "end_to_end"]
    }
    out = pathlib.Path(args.out)
    names = [args.workload] if args.workload else list(WORKLOADS)
    all_correct = True
    for name in names:
        work_dir = out / "work" / f"{name}-{time.time_ns()}"
        expected = None
        if seed == reference["default_seed"] and args.scale == 1.0:
            expected = reference["expected_digest"].get(name)
        try:
            record = run_workload(
                name, seed, seconds, traced, work_dir, args.scale, expected
            )
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        produced = record["metrics"]
        if not traced:
            missing = sorted(set(declared) - set(produced))
            record["checks"]["all_metrics"] = not missing
            record["correct"] = record["correct"] and not missing
        # A per-layer metric a workload's layers never produce reads 0:
        # that layer did no work there.
        metrics = {
            metric: {"value": float(produced.get(metric, 0.0)), "unit": spec["unit"]}
            for metric, spec in declared.items()
        }
        record.update(environment=environment(), finished_ns=time.time_ns())
        records = out / "records"
        records.mkdir(parents=True, exist_ok=True)
        path = records / f"{name}-s{seed}-t{int(traced)}-{record['finished_ns']}.json"
        path.write_text(json.dumps(record, indent=1, default=str))
        if "digest" in record:
            checked = "checked" if record["digest_checked"] else "not checked"
            print(f"{name} triples digest {record['digest']} ({checked})")
        if "max_rate_rps" in record:
            print(
                f"{name} max_rate_rps {record['max_rate_rps']} req/s (diagnostic: "
                "highest ladder rate with tail latency <= 25 ms, no failure, no backlog)"
            )
        for metric, entry in metrics.items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        print(
            f"{name} attempted {record['attempted']} failed {record['failed']} "
            f"correct {record['correct']} record {path}"
        )
        print(
            json.dumps(
                {
                    "correct": record["correct"],
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": metrics,
                }
            ),
            flush=True,
        )
        all_correct = all_correct and record["correct"]
    return 0 if all_correct else 1


def _compare(args: argparse.Namespace) -> int:
    from .compare import compare

    lines, regressed = compare(args.base, args.change, load_benchmark())
    print("\n".join(lines))
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print metrics")
    run.add_argument("--workload")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--traced", action="store_true", help="same as --trace 1")
    run.add_argument("--out", default=".bench_out")
    run.add_argument(
        "--scale", type=float, default=1.0, help="input-size multiplier (smoke tests)"
    )
    diff = commands.add_parser("compare", help="compare two sets of records")
    diff.add_argument("base")
    diff.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return _compare(args)
    if not (SRC_DIR / "repro" / "__init__.py").exists():
        print(f"bench: the program's source is missing ({SRC_DIR})", file=sys.stderr)
        return 2
    if any(os.environ.get(name) != value for name, value in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, "-m", "bench", *argv], env)
    sys.path[:0] = [str(SRC_DIR)]
    from .workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
