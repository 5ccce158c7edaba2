"""Peak-RSS observability helpers (``repro.runtime.memory``)."""

import subprocess
import sys

from repro.runtime import (
    children_peak_rss_bytes,
    current_rss_bytes,
    peak_rss_bytes,
    run_peak_rss_bytes,
)


def test_current_rss_is_positive_and_plausible():
    current = current_rss_bytes()
    # A running CPython interpreter needs at least a few MB and (on
    # any test box) fits in a TB.
    assert 1024 * 1024 < current < 1024**4


def test_peak_is_at_least_current():
    assert peak_rss_bytes() >= current_rss_bytes()


def test_children_counter_is_nonnegative_int():
    value = children_peak_rss_bytes()
    assert isinstance(value, int)
    assert value >= 0


def test_run_peak_covers_self_and_children():
    assert run_peak_rss_bytes() >= peak_rss_bytes()
    assert run_peak_rss_bytes() >= children_peak_rss_bytes()


def test_children_peak_observes_a_subprocess():
    # Spawn a child that allocates ~64 MB, then check the parent's
    # children counter reflects a child at least that large.
    subprocess.run(
        [sys.executable, "-c", "x = bytearray(64 * 1024 * 1024)"],
        check=True,
    )
    assert children_peak_rss_bytes() >= 64 * 1024 * 1024


# -- sampler fallbacks (hostile/foreign platforms) -----------------------


def test_status_reader_tolerates_missing_field(tmp_path, monkeypatch):
    """A /proc/self/status without VmHWM (containers, exotic kernels)
    falls back to ru_maxrss instead of crashing or returning garbage."""
    from repro.runtime import memory as memory_module

    status = tmp_path / "status"
    status.write_text("Name:\tpython\nVmRSS:\t  2048 kB\n")
    monkeypatch.setattr(memory_module, "_STATUS_PATH", status)
    assert memory_module._status_kb("VmRSS") == 2048
    assert memory_module._status_kb("VmHWM") is None
    assert memory_module.current_rss_bytes() == 2048 * 1024
    # peak falls through to the rusage path — still positive on POSIX.
    assert memory_module.peak_rss_bytes() > 0


def test_missing_status_file_degrades_to_zero(tmp_path, monkeypatch):
    from repro.runtime import memory as memory_module

    monkeypatch.setattr(
        memory_module, "_STATUS_PATH", tmp_path / "no_such_status"
    )
    assert memory_module.current_rss_bytes() == 0
    # peak still answers via rusage; never raises either way.
    assert memory_module.peak_rss_bytes() >= 0


def test_maxrss_units_normalized_per_platform():
    """Linux denominates ru_maxrss in kB, macOS in bytes."""
    from repro.runtime.memory import _maxrss_kb

    assert _maxrss_kb(4096, "linux") == 4096
    assert _maxrss_kb(4096 * 1024, "darwin") == 4096


# -- MemoryGovernor ------------------------------------------------------


def _governor(**kwargs):
    from repro.runtime import MemoryGovernor

    return MemoryGovernor(**kwargs)


def test_governor_inert_without_budget_or_faults():
    governor = _governor()
    assert governor.budget_bytes is None
    assert not governor.under_pressure()
    # No pressure: the throttles are identity functions.
    assert governor.throttle_workers(8) == 8
    assert governor.pressure_events == 0
    assert governor.samples == 1


def test_governor_presses_when_budget_crossed():
    # Any live interpreter dwarfs a 1 MiB budget.
    governor = _governor(budget_mb=1)
    assert governor.under_pressure()
    assert governor.throttle_workers(8) == 4
    # Floors: never throttled to zero.
    assert governor.throttle_workers(1) == 1
    assert governor.pressure_events >= 1
    assert governor.max_rss_bytes >= governor.last_rss_bytes > 0


def test_governor_relaxed_under_huge_budget():
    governor = _governor(budget_mb=1 << 20)  # 1 TiB
    assert not governor.under_pressure()
    assert governor.throttle_workers(8) == 8


def test_governor_synthetic_pressure_without_budget():
    """mem_pressure faults press a budget-less governor — the chaos
    path that makes backpressure testable without real ballooning."""
    from repro.runtime import FaultPlan, FaultSpec

    plan = FaultPlan(
        [
            FaultSpec(
                stage="governor",
                kind="mem_pressure",
                pressure_bytes=1 << 30,
            )
        ]
    )
    governor = _governor(faults=plan)
    assert governor.under_pressure()
    assert governor.throttle_workers(4) == 2
    # times=1: the next sample is pressure-free again.
    assert not governor.under_pressure()


def test_governor_relieve_reports_released_entries():
    from repro.nlp.tokenizer import get_locale

    get_locale("ja").tokens("重さ は 500 g です")  # populate the memo
    governor = _governor(budget_mb=1)
    released = governor.relieve()
    assert released >= 0
    assert governor.memo_entries_released == released


def test_governor_sample_interval_caches():
    governor = _governor(budget_mb=1, min_sample_interval=60.0)
    first = governor.sample()
    assert governor.sample() == first
    assert governor.samples == 1  # second call served from cache


def test_governor_counters_payload_shape():
    governor = _governor(budget_mb=1)
    governor.sample()
    counters = governor.counters()
    assert set(counters) == {
        "samples",
        "events",
        "rss_bytes",
        "max_rss_bytes",
    }
    assert all(isinstance(v, int) for v in counters.values())
