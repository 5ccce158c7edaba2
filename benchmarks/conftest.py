"""Shared fixtures for the reproduction benchmarks.

Each ``bench_*.py`` regenerates one table or figure of the paper. The
formatted output is printed and also written to
``benchmarks/results/<name>.txt`` so a full ``pytest benchmarks/
--benchmark-only`` run leaves the whole evaluation on disk.

Scale is controlled by ``REPRO_BENCH_PRODUCTS`` (default 220 pages per
Japanese category, ``DEFAULT_PRODUCTS`` in
:mod:`repro.experiments.common`; the paper used 4k-12k). Absolute
numbers shift with scale; the asserted *shapes* (who wins, what grows,
what drops) do not.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import ExperimentSettings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Bench-wide experiment settings (env-overridable scale)."""
    return ExperimentSettings()


@pytest.fixture(scope="session")
def report():
    """Persist and echo a formatted experiment table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _report
