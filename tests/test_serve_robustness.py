"""Satellite robustness tests around the serve daemon's shared layers.

Covers the pieces the daemon leans on from other subsystems:

* the ingest gate's wall-clock parse budget on serve worker threads;
* the on-disk quarantine ledger staying line-atomic under concurrent
  writers and stamping ``source="serve"``;
* ``retry_backoff`` jitter determinism under concurrent callers (the
  shed Retry-After contract).
"""

import json
import threading
import time

import pytest

from repro.config import IngestConfig
from repro.ingest import IngestGate, QuarantineEntry, QuarantineLog
from repro.runtime.jobs import retry_backoff
from repro.types import ProductPage

pytestmark = pytest.mark.usefixtures("watchdog")


# -- soft parse budget off the main thread -----------------------------


def _slow_parse(monkeypatch, seconds):
    import repro.ingest.gate as gate_module

    real_parse = gate_module.parse_token_stream

    def slow(tokens, **kwargs):
        time.sleep(seconds)
        return real_parse(tokens, **kwargs)

    monkeypatch.setattr(gate_module, "parse_token_stream", slow)


def test_parse_budget_degrades_to_soft_check_off_main_thread(
    monkeypatch,
):
    """On a serve worker thread the gate times the parse and rejects
    an overrun post hoc, counted — never a crash."""
    _slow_parse(monkeypatch, 0.15)
    gate = IngestGate(
        IngestConfig(policy="drop", parse_budget_seconds=0.05)
    )
    page = ProductPage("slow1", "cat", "<p>ok</p>", "ja")
    outcome = {}

    def run():
        outcome["result"] = gate.process([page])

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    result = outcome["result"]
    # The page was rejected (after the fact) and the degradation was
    # counted, not silently swallowed and not a crash.
    assert result.pages == []
    assert result.quarantine.counts_by_check() == {"parse_seconds": 1}
    assert result.warnings == {"parse_budget_soft": 1}


def test_fast_parse_off_main_thread_passes_clean():
    gate = IngestGate(
        IngestConfig(policy="drop", parse_budget_seconds=2.0)
    )
    page = ProductPage("fast1", "cat", "<p>iro wa aka desu</p>", "ja")
    outcome = {}

    def run():
        outcome["result"] = gate.process([page])

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=10)
    result = outcome["result"]
    assert len(result.pages) == 1
    assert result.warnings == {}


# -- concurrent quarantine ledger --------------------------------------


def test_quarantine_log_interleaves_whole_lines(tmp_path):
    """Satellite: many threads appending concurrently must never tear
    a line — every row parses and every entry survives."""
    path = tmp_path / "ledger.jsonl"
    log = QuarantineLog(path, source="serve")
    writers, per_writer = 8, 50

    def write(worker_id):
        for index in range(per_writer):
            log.append(
                QuarantineEntry(
                    page_id=f"w{worker_id}-p{index}",
                    check="mojibake",
                    error="PageQuarantinedError",
                    detail="x" * 120,  # long enough to tear if unsafe
                )
            )

    threads = [
        threading.Thread(target=write, args=(i,)) for i in range(writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    log.close()

    lines = path.read_text().strip().splitlines()
    assert len(lines) == writers * per_writer
    ids = set()
    for line in lines:
        record = json.loads(line)  # would raise on a torn line
        assert record["source"] == "serve"
        ids.add(record["page_id"])
    assert len(ids) == writers * per_writer
    assert log.appended == writers * per_writer


def test_quarantine_log_roundtrips_through_load(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with QuarantineLog(path, source="serve") as log:
        entry = log.append(
            QuarantineEntry(
                page_id="p1",
                check="page_bytes",
                error="page_bytes",
                detail="too big",
            )
        )
    assert entry.source == "serve"
    ledger = QuarantineLog.load(path)
    assert len(ledger) == 1
    assert ledger.entries[0] == entry


def test_quarantine_log_load_missing_file_is_empty(tmp_path):
    ledger = QuarantineLog.load(tmp_path / "absent.jsonl")
    assert len(ledger) == 0


# -- deterministic backoff under concurrency ---------------------------


def test_retry_backoff_identical_across_concurrent_callers():
    """Satellite: the shed Retry-After hint must be a pure function of
    (job_name, attempt) — concurrent callers observe identical values."""
    attempts = [1, 2, 3, 4, 5, 6]
    expected = {a: retry_backoff("serve-shed", a) for a in attempts}
    observed: list[tuple[int, float]] = []
    lock = threading.Lock()
    start = threading.Barrier(8)

    def hammer():
        start.wait()
        for _ in range(200):
            for attempt in attempts:
                value = retry_backoff("serve-shed", attempt)
                with lock:
                    observed.append((attempt, value))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(observed) == 8 * 200 * len(attempts)
    for attempt, value in observed:
        assert value == expected[attempt]
    # And the schedule escalates: later attempts never back off less.
    values = [expected[a] for a in attempts]
    assert values == sorted(values)
