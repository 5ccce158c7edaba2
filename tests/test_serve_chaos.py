"""Chaos acceptance for the serve daemon.

The contract under test: with slow models, corrupt payloads and
workers dying mid-request injected by a seeded
:class:`~repro.runtime.faults.FaultPlan`, **every** request receives a
structured response — served, degraded, shed, quarantined or timed
out — with no hung connections and no crashes; and the circuit
breaker demonstrably steps down the degradation ladder and recovers
once the faults stop.

Run directly via ``make serve-chaos``.
"""

import http.client
import json
import threading
import time

import pytest

from repro.config import ServeConfig
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.serve import (
    ERROR_STATUS,
    ExtractionService,
    ModelRegistry,
    publish_bundle,
    start_server,
)

pytestmark = pytest.mark.usefixtures("watchdog")

#: Statuses a chaos request may legitimately receive.
STRUCTURED_STATUSES = frozenset({200}) | frozenset(ERROR_STATUS.values())


@pytest.fixture
def registry(tmp_path, serve_model):
    tagger, dictionary = serve_model
    root = tmp_path / "registry"
    publish_bundle(root, "v1", tagger, dictionary, "ja")
    publish_bundle(root, "v2", tagger, dictionary, "ja")
    registry = ModelRegistry(root)
    registry.activate("v1")
    registry.activate("v2")  # v1 stays resident as the previous rung
    return registry


def _post(server, body: bytes, timeout: float = 20.0):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST", "/extract", body,
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


#: Requests the stdlib's own parser rejects before any route runs.
RAW_PROTOCOL_ERRORS = (
    b"GARBAGE\r\n\r\n",  # malformed request line
    b"PUT /extract HTTP/1.1\r\nHost: x\r\n\r\n",  # unsupported method
    b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000
    + b"\r\n\r\n",  # oversized header
)


def test_concurrent_chaos_yields_only_structured_responses(
    tmp_path, registry, raw_http
):
    """Mixed faults under concurrency: every request gets a structured
    answer, nothing hangs, the ledgers account for the damage."""
    plan = FaultPlan(
        [
            FaultSpec(stage="serve_tag", kind="worker_death", times=4),
            FaultSpec(
                stage="serve_payload", kind="corrupt_payload", times=3
            ),
            FaultSpec(
                stage="serve_tag", kind="delay",
                delay_seconds=0.05, times=5,
            ),
        ],
        seed=13,
    )
    service = ExtractionService(
        registry,
        ServeConfig(
            queue_capacity=32,  # shedding is covered deterministically
            deadline_seconds=5.0,  # in test_serve_server
            breaker_threshold=3,
            breaker_cooldown_seconds=0.5,
        ),
        faults=plan,
        quarantine_path=tmp_path / "chaos_quarantine.jsonl",
    )
    server, thread = start_server(service, "127.0.0.1", 0)
    try:
        bodies = []
        for index in range(40):
            if index % 10 == 7:  # sprinkle gate-tripping HTML inputs
                bodies.append(
                    json.dumps(
                        {
                            "product_id": f"dirty{index}",
                            "html": "<p>iro wa ao desu�</p>",
                        }
                    ).encode()
                )
            else:
                bodies.append(
                    json.dumps(
                        {
                            "product_id": f"p{index}",
                            "text": "iro wa aka desu soshite "
                            "juryo wa 3 kg desu",
                        }
                    ).encode()
                )

        results: list[tuple[int, dict]] = []
        errors: list[Exception] = []
        lock = threading.Lock()

        def client(chunk):
            for body in chunk:
                try:
                    result = _post(server, body)
                except Exception as error:  # a hang/crash fails the test
                    with lock:
                        errors.append(error)
                else:
                    with lock:
                        results.append(result)

        workers = [
            threading.Thread(target=client, args=(bodies[i::8],))
            for i in range(8)
        ]
        for worker in workers:
            worker.start()
        # Protocol garbage mid-chaos: the stdlib's own error path must
        # answer in structured JSON too.
        raw_results = [
            raw_http(server, raw)[:2] for raw in RAW_PROTOCOL_ERRORS
        ]
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive(), "client thread hung"

        for status, payload in raw_results:
            assert payload["status"] == "error"
            assert payload["code"] in ERROR_STATUS
            assert ERROR_STATUS[payload["code"]] == status
        assert [status for status, _ in raw_results] == [400, 501, 431]

        assert not errors, f"non-structured outcomes: {errors}"
        assert len(results) == len(bodies)
        for status, payload in results:
            assert status in STRUCTURED_STATUSES, (status, payload)
            assert payload.get("status") in ("ok", "error")
            if payload["status"] == "error":
                assert payload["code"] in ERROR_STATUS

        stats = service.stats()
        by_code = {}
        for status, payload in results:
            key = (
                "ok"
                if payload["status"] == "ok"
                else payload["code"]
            )
            by_code[key] = by_code.get(key, 0) + 1
        # The injected damage is visible and accounted for. All 3
        # corrupt_payload faults became structured 400s; each dirty
        # HTML input was either quarantined or (if a payload fault
        # mangled it first) rejected at the protocol layer.
        assert plan.injected.get(("serve_payload", "corrupt_payload")) == 3
        assert by_code.get("bad_request", 0) == 3
        quarantined = by_code.get("quarantined", 0)
        assert 1 <= quarantined <= 4
        assert (
            by_code["ok"] + by_code["bad_request"] + quarantined
            == len(bodies)
        )
        assert stats["counters"]["served"] == by_code["ok"]
        assert stats["quarantine_appended"] == quarantined
        ledger = (
            (tmp_path / "chaos_quarantine.jsonl")
            .read_text().strip().splitlines()
        )
        assert len(ledger) == quarantined
        assert all(
            json.loads(line)["source"] == "serve" for line in ledger
        )
    finally:
        server.shutdown()
        thread.join(timeout=5)
        service.close()


def test_breaker_steps_down_ladder_and_recovers(tmp_path, registry):
    """Sustained worker death walks the ladder down rung by rung
    (full → previous → dictionary), then probes climb it back."""
    plan = FaultPlan(
        [FaultSpec(stage="serve_tag", kind="worker_death", times=24)],
        seed=3,
    )
    service = ExtractionService(
        registry,
        ServeConfig(
            breaker_threshold=2,
            breaker_cooldown_seconds=0.3,
        ),
        faults=plan,
    )
    body = json.dumps(
        {"product_id": "c", "text": "iro wa aka desu"}
    ).encode()
    try:
        degradations = []
        for _ in range(6):
            status, payload, _ = service.handle_extract(body)
            assert status == 200  # degraded, never failed
            degradations.append(payload["degradation"])
        # Early requests fell through both model rungs in-request
        # (worker death at full AND previous), landing on dictionary.
        assert degradations[0] == "dictionary"
        ladder = service.ladder.stats()
        assert ladder["breakers"]["full"]["state"] == "open"
        assert ladder["breakers"]["previous"]["state"] == "open"
        assert ladder["served_at_level"]["dictionary"] == 6
        # Dictionary answers still carry real content.
        assert {"attribute": "iro", "value": "aka"} in payload["triples"]

        # Faults exhausted + cooldown elapsed: probes recover to full.
        while plan.injected.get(("serve_tag", "worker_death"), 0) < 24:
            service.handle_extract(body)
        time.sleep(0.4)
        status, payload, _ = service.handle_extract(body)
        assert status == 200
        assert payload["degradation"] == "full"
        assert payload["served_by"] == "v2"
        assert service.ladder.current_level() == 0
        assert service.ladder.recoveries >= 1
    finally:
        service.close()


def test_previous_rung_actually_serves_when_only_full_trips(
    tmp_path, registry
):
    """A fault plan that only kills the *active* version's requests:
    the ladder steps exactly one rung down, to the previous version."""
    # Exactly 2 worker deaths: the first request consumes both at the
    # full rung (combined attempt + isolated retry), tripping its
    # 1-strike breaker, and falls through to the previous rung with
    # the plan exhausted — so the previous rung never sees a fault.
    plan = FaultPlan(
        [FaultSpec(stage="serve_tag", kind="worker_death", times=2)],
        seed=9,
    )
    service = ExtractionService(
        registry,
        ServeConfig(
            breaker_threshold=1,
            breaker_cooldown_seconds=30.0,  # full stays open
        ),
        faults=plan,
    )
    body = json.dumps(
        {"product_id": "c", "text": "iro wa kuro desu"}
    ).encode()
    try:
        status, payload, _ = service.handle_extract(body)
        assert status == 200
        assert payload["degradation"] == "previous"
        assert payload["fallbacks"][0]["error"] == "WorkerDeathError"
        status, payload, _ = service.handle_extract(body)
        assert status == 200
        assert payload["degradation"] == "previous"
        assert payload["served_by"] == "v1"
        ladder = service.ladder.stats()
        assert ladder["breakers"]["full"]["state"] == "open"
        assert ladder["breakers"]["previous"]["state"] == "closed"
    finally:
        service.close()
