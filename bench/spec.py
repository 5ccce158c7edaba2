"""The benchmark's declarations and the environment stamp.

``BENCHMARK.json`` at the repository root is the single source of the
metric names, units, directions and regression bounds; the runner
prints exactly the metrics it declares. ``bench/reference.json`` holds
what the fixed schema of ``BENCHMARK.json`` has no room for: the
pinned environment, the default seed, the expected triples digest of
each batch workload at that seed, the per-layer -> end-to-end map and
the measured baseline.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

#: Environment every benchmark process runs with. Pipeline output
#: depends on str hashing (set iteration order), so the hash seed is
#: fixed. BLAS runs one thread: with its default of one thread per CPU,
#: OpenBLAS spin-waits, and on the two-CPU reference box a cold batch
#: run took 1.6x the wall time and 2.4x the CPU time, and doubled in
#: wall time when another process competed for the CPUs.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def load_reference() -> dict:
    """The parsed ``bench/reference.json``."""
    return json.loads((BENCH_DIR / "reference.json").read_text())


def child_env() -> dict[str, str]:
    """Environment for every child process: :data:`PINNED_ENV`, ``src``
    importable."""
    env = dict(os.environ, **PINNED_ENV)
    paths = [str(SRC_DIR), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _git_rev() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def environment() -> dict:
    """Stamp for every result record: code revision, cores, versions."""
    import numpy
    import scipy

    return {
        "git_rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_env": {name: os.environ.get(name) for name in PINNED_ENV},
    }
