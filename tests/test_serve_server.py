"""Tests for the extraction service core and its HTTP transport."""

import http.client
import json
import threading

import pytest

from repro.config import ServeConfig
from repro.ml.persistence import write_manifest
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.serve import (
    ExtractionService,
    ModelRegistry,
    publish_bundle,
    start_server,
)

pytestmark = pytest.mark.usefixtures("watchdog")


def _body(**fields) -> bytes:
    return json.dumps(fields).encode("utf-8")


@pytest.fixture
def registry(tmp_path, serve_model):
    tagger, dictionary = serve_model
    publish_bundle(tmp_path / "registry", "v1", tagger, dictionary, "ja")
    registry = ModelRegistry(tmp_path / "registry")
    registry.activate("v1")
    return registry


@pytest.fixture
def service(tmp_path, registry):
    service = ExtractionService(
        registry,
        ServeConfig(queue_capacity=8, deadline_seconds=5.0),
        quarantine_path=tmp_path / "quarantine.jsonl",
    )
    yield service
    service.close()


# -- service core ------------------------------------------------------


def test_text_request_serves_triples(service):
    status, payload, _ = service.handle_extract(
        _body(
            product_id="x1",
            text="iro wa aka desu soshite juryo wa 3 kg desu",
        )
    )
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["degradation"] == "full"
    assert payload["served_by"] == "v1"
    triples = {
        (triple["attribute"], triple["value"])
        for triple in payload["triples"]
    }
    assert ("iro", "aka") in triples
    assert ("juryo", "3 kg") in triples


def test_html_request_is_gated_then_served(service):
    status, payload, _ = service.handle_extract(
        _body(
            product_id="x2",
            html="<html><title>t</title>"
            "<p>juryo wa 5 kg desu。</p></html>",
        )
    )
    assert status == 200
    assert {"attribute": "juryo", "value": "5 kg"} in payload["triples"]


@pytest.mark.parametrize(
    "body",
    [
        b"",
        b"not json",
        b'"just a string"',
        _body(product_id="x"),  # neither text nor html
        _body(product_id="x", text="a", html="<p>b</p>"),  # both
        _body(product_id="", text="a"),
        _body(product_id="x", text=123),
        _body(product_id="x", text="a", deadline_seconds=-1),
        _body(product_id="x", text="a", deadline_seconds=True),
        _body(product_id="x", text="a", locale=7),
    ],
)
def test_malformed_bodies_get_structured_400(service, body):
    status, payload, _ = service.handle_extract(body)
    assert status == 400
    assert payload == {
        "status": "error",
        "code": "bad_request",
        "detail": payload["detail"],
    }


def test_unknown_locale_is_a_structured_400(service):
    status, payload, _ = service.handle_extract(
        _body(product_id="x", text="hello", locale="xx")
    )
    assert status == 400
    assert "xx" in payload["detail"]


def test_dirty_html_is_quarantined_with_serve_source(
    service, tmp_path
):
    status, payload, _ = service.handle_extract(
        _body(product_id="bad1", html="<p>iro wa ao desu�</p>")
    )
    assert status == 422
    assert payload["code"] == "quarantined"
    assert payload["check"] == "mojibake"
    lines = (
        (tmp_path / "quarantine.jsonl").read_text().strip().splitlines()
    )
    entry = json.loads(lines[-1])
    assert entry["page_id"] == "bad1"
    assert entry["source"] == "serve"


def test_shed_when_admission_is_saturated(registry, tmp_path):
    service = ExtractionService(
        registry, ServeConfig(queue_capacity=1)
    )
    try:
        assert service.admission.try_admit()  # occupy the only slot
        status, payload, headers = service.handle_extract(
            _body(product_id="x", text="iro wa aka desu")
        )
        assert status == 429
        assert payload["code"] == "shed"
        assert payload["retry_after_seconds"] > 0
        assert int(headers["Retry-After"]) >= 1
    finally:
        service.admission.release()
        service.close()


def test_retry_after_is_deterministic_per_streak(registry):
    first = ExtractionService(registry, ServeConfig(queue_capacity=1))
    second = ExtractionService(registry, ServeConfig(queue_capacity=1))
    try:
        for service in (first, second):
            assert service.admission.try_admit()
        hints = []
        for service in (first, second):
            _, payload, _ = service.handle_extract(
                _body(product_id="x", text="a")
            )
            hints.append(payload["retry_after_seconds"])
        assert hints[0] == hints[1]
    finally:
        for service in (first, second):
            service.admission.release()
            service.close()


def test_slow_model_times_out_with_structured_504(registry):
    plan = FaultPlan(
        [FaultSpec(stage="serve_tag", kind="delay", delay_seconds=1.0,
                   times=None)],
        seed=5,
    )
    service = ExtractionService(
        registry,
        ServeConfig(deadline_seconds=0.2, breaker_threshold=3),
        faults=plan,
    )
    try:
        status, payload, _ = service.handle_extract(
            _body(product_id="slow", text="iro wa aka desu")
        )
        assert status == 504
        assert payload["code"] == "timeout"
        # The timeout counted as breaker evidence.
        ladder = service.ladder.stats()
        assert ladder["breakers"]["full"]["consecutive_failures"] == 1
    finally:
        service.close()


def test_client_deadline_tightens_but_never_loosens(registry):
    service = ExtractionService(
        registry,
        ServeConfig(deadline_seconds=5.0, max_deadline_seconds=10.0),
    )
    try:
        status, payload, _ = service.handle_extract(
            _body(
                product_id="x",
                text="iro wa aka desu",
                deadline_seconds=60.0,  # capped at max, still serves
            )
        )
        assert status == 200
    finally:
        service.close()


def test_empty_registry_fails_fast_with_structured_503(tmp_path):
    registry = ModelRegistry(tmp_path / "empty")
    service = ExtractionService(registry, ServeConfig())
    try:
        status, payload, _ = service.handle_extract(
            _body(product_id="x", text="iro wa aka desu")
        )
        assert status == 503
        assert payload["code"] == "unavailable"
        assert payload["degradation"] == "fail_fast"
    finally:
        service.close()


def test_swap_to_bundle_with_bad_config_is_a_counted_failure(
    service, registry, serve_model
):
    tagger, dictionary = serve_model
    bundle_dir = publish_bundle(
        registry.root, "v2", tagger, dictionary, "ja"
    )
    meta_path = bundle_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["future_knob"] = 1
    meta_path.write_text(json.dumps(meta))
    write_manifest(bundle_dir, extra_files=("dictionary.json",))
    status, payload = service.swap("v2")
    assert status == 500
    assert payload["code"] == "model_error"
    assert service.stats()["counters"]["swap_failures"] == 1
    assert registry.active.version == "v1"


def test_stats_counters_track_outcomes(service):
    service.handle_extract(_body(product_id="a", text="iro wa aka desu"))
    service.handle_extract(b"garbage")
    stats = service.stats()
    assert stats["counters"]["requests"] == 2
    assert stats["counters"]["served"] == 1
    assert stats["counters"]["bad_request"] == 1
    assert stats["registry"]["active_version"] == "v1"


# -- HTTP transport ----------------------------------------------------


@pytest.fixture
def live_server(service):
    server, thread = start_server(service, "127.0.0.1", 0)
    yield service, server
    server.shutdown()
    thread.join(timeout=5)


def _request(server, method, path, body=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=15)
    try:
        conn.request(
            method,
            path,
            body,
            {"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read()), dict(
            response.getheaders()
        )
    finally:
        conn.close()


def test_http_extract_roundtrip(live_server):
    _, server = live_server
    status, payload, _ = _request(
        server, "POST", "/extract",
        _body(product_id="h1", text="iro wa kuro desu"),
    )
    assert status == 200
    assert {"attribute": "iro", "value": "kuro"} in payload["triples"]


def test_http_health_and_stats(live_server):
    _, server = live_server
    status, payload, _ = _request(server, "GET", "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["degradation"] == "full"
    status, payload, _ = _request(server, "GET", "/stats")
    assert status == 200
    assert "admission" in payload and "ladder" in payload


def test_http_unknown_endpoints_are_structured_404(live_server):
    _, server = live_server
    for method, path in (("GET", "/nope"), ("POST", "/nope")):
        status, payload, _ = _request(server, method, path, b"{}")
        assert status == 404
        assert payload["code"] == "not_found"


def test_http_hot_swap_while_requests_are_in_flight(
    live_server, tmp_path, serve_model
):
    """Satellite: hot-swap during live traffic — in-flight requests
    drain on the old version, new requests see the new one, and no
    request gets anything but a structured response."""
    service, server = live_server
    tagger, dictionary = serve_model
    publish_bundle(
        service.registry.root, "v2", tagger, dictionary, "ja"
    )

    results = []
    lock = threading.Lock()

    def client(index):
        status, payload, _ = _request(
            server, "POST", "/extract",
            _body(product_id=f"c{index}", text="iro wa aka desu"),
        )
        with lock:
            results.append((status, payload.get("served_by")))

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(8)
    ]
    for thread in threads[:4]:
        thread.start()
    status, payload, _ = _request(
        server, "POST", "/admin/swap", _body(version="v2")
    )
    assert status == 200
    assert payload["active_version"] == "v2"
    for thread in threads[4:]:
        thread.start()
    for thread in threads:
        thread.join(timeout=15)

    assert len(results) == 8
    for status, served_by in results:
        assert status == 200
        # Every request was served by exactly one whole version.
        assert served_by in ("v1", "v2")
    # Post-swap requests land on v2.
    status, payload, _ = _request(
        server, "POST", "/extract",
        _body(product_id="after", text="iro wa aka desu"),
    )
    assert payload["served_by"] == "v2"
    # The drained v1 stayed resident as the ladder's previous rung.
    assert service.registry.previous.version == "v1"


def test_http_swap_to_missing_version_is_structured(live_server):
    _, server = live_server
    status, payload, _ = _request(
        server, "POST", "/admin/swap", _body(version="v99")
    )
    assert status == 500
    assert payload["code"] == "model_error"
