"""Serial vs. parallel sweep benchmark for the CategoryRunner.

Runs the same 4-category sweep twice — once serially inline, once over
a process pool — verifies the results are identical, and records both
wall-clocks (plus the visible CPU count, so single-core CI numbers are
interpretable) to ``BENCH_runner.json`` at the repo root. Re-run with
``make bench-runner``; the committed artifact tracks the perf
trajectory PR over PR.

The parallel sweep exercises the cheap-to-ship job path: generator-spec
jobs (category + scale + seed, materialised in the worker), so page
corpora never cross the process boundary (results carry no training
material). The runner itself caps the pool at
the visible CPUs — the artifact records both the requested and the
effective worker count, because on a single-core box the honest
"parallel" configuration is a one-worker pool, not four thrashing
workers.

Scale knobs: ``REPRO_BENCH_PRODUCTS`` (default 120 pages/category),
``REPRO_BENCH_ITERATIONS`` (default 2 bootstrap cycles) and
``REPRO_BENCH_REPEATS`` (default 2; each mode is timed best-of-N).
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.config import PipelineConfig  # noqa: E402
from repro.runtime import CategoryRunner, RunnerJob  # noqa: E402
from repro.runtime.runner import visible_cpus  # noqa: E402

CATEGORIES = ("tennis", "kitchen", "garden", "vacuum_cleaner")
ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_runner.json"


def _jobs(products: int, iterations: int) -> list[RunnerJob]:
    config = PipelineConfig(iterations=iterations)
    return [
        RunnerJob.generate(category, products, config, data_seed=7)
        for category in CATEGORIES
    ]


def _best_of(repeats: int, run):
    """Run ``run()`` ``repeats`` times; (best seconds, last outcomes)."""
    best = float("inf")
    outcomes = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        outcomes = run()
        best = min(best, time.perf_counter() - start)
    return best, outcomes


def main() -> int:
    products = int(os.environ.get("REPRO_BENCH_PRODUCTS", "120"))
    iterations = int(os.environ.get("REPRO_BENCH_ITERATIONS", "2"))
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "2"))
    workers = 4
    cpus = visible_cpus()
    effective_workers = min(workers, cpus, len(CATEGORIES))

    print(
        f"sweep: {len(CATEGORIES)} categories x {products} products, "
        f"{iterations} iterations, best of {repeats} "
        f"({cpus} CPU(s) visible; {workers} workers requested, "
        f"{effective_workers} effective)"
    )

    serial_seconds, serial = _best_of(
        repeats,
        lambda: CategoryRunner(mode="serial").run(
            _jobs(products, iterations)
        ),
    )
    print(f"serial:   {serial_seconds:.2f}s")

    parallel_seconds, parallel = _best_of(
        repeats,
        lambda: CategoryRunner(workers=workers, mode="process").run(
            _jobs(products, iterations)
        ),
    )
    print(f"parallel: {parallel_seconds:.2f}s")

    failures = [o.job_name for o in serial + parallel if not o.ok]
    identical = not failures and all(
        s.result.bootstrap == p.result.bootstrap
        for s, p in zip(serial, parallel)
    )
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    print(f"speedup:  {speedup:.2f}x   identical results: {identical}")

    record = {
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "cpu_count": cpus,
        "workers": workers,
        "effective_workers": effective_workers,
        "categories": list(CATEGORIES),
        "products": products,
        "iterations": iterations,
        "repeats": repeats,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 3),
        "identical_results": identical,
        "per_category_seconds": {
            outcome.job_name: round(outcome.seconds, 3)
            for outcome in parallel
        },
        "failures": failures,
    }
    ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"recorded to {ARTIFACT}")
    if failures or not identical:
        print("ERROR: sweep failed or results diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
