"""The extraction daemon: robustness pipeline + stdlib HTTP transport.

:class:`ExtractionService` is the transport-independent core — bytes
in, ``(status, payload, headers)`` out — so the whole robustness
pipeline is testable without sockets. Every request runs the same
gauntlet, in order:

1. **fault hook** — ``corrupt_payload`` chaos faults mangle the raw
   body before anything parses it;
2. **admission control** — past ``queue_capacity`` concurrent
   requests, shed with a structured 429 + deterministic Retry-After;
3. **protocol parse** — structured 400 on any malformed body;
4. **deadline** — a :class:`~repro.runtime.jobs.Deadline` bounds the
   whole request; overruns become structured 504s, never hung sockets;
5. **ingest gate** — HTML inputs pass the strict
   :class:`~repro.ingest.IngestGate`; rejects land in the on-disk
   quarantine ledger (``source="serve"``) with a structured 422;
6. **degradation ladder** — the breaker routes to the best live rung
   (active model → previous model → dictionary → fail-fast), falling
   further down *within* the request on model failure;
7. **micro-batching** — model rungs tag through the shared
   :class:`~repro.serve.batcher.MicroBatcher` with per-request fault
   isolation.

The HTTP layer (:class:`ExtractionServer`) is a stdlib
``ThreadingHTTPServer``; one thread per connection, all shared state
behind the service's locks. Every answer is structured JSON, including
the stdlib's own error path (malformed request line, unsupported
method, oversized header), and leaves in one send: head and body share
one buffered stream flushed once per request, and ``TCP_NODELAY`` is
set, so no answer waits on the client's delayed ACK.
"""

from __future__ import annotations

import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..config import ServeConfig
from ..errors import ModelError, PageQuarantinedError
from ..ingest import IngestGate, QuarantineEntry, QuarantineLog
from ..nlp import get_locale, split_sentences
from ..runtime.jobs import Deadline, JobTimeoutError
from ..types import ProductPage, Sentence, Triple
from .admission import AdmissionController
from .batcher import ISOLATABLE, BatchJob, MicroBatcher
from .breaker import (
    DICTIONARY_LEVEL,
    FAIL_FAST_LEVEL,
    MODEL_LEVELS,
    DegradationLadder,
)
from .dictionary import dictionary_extract
from .protocol import (
    LEVEL_NAMES,
    MAX_BODY_BYTES,
    ExtractRequest,
    ProtocolError,
    encode_json,
    error_payload,
    ok_payload,
    parse_extract_request,
)
from .registry import ModelRegistry

#: HTTP status → error code for every status the stdlib's request
#: parsing answers with (:meth:`_Handler.send_error`).
_STDLIB_ERROR_CODES = {
    400: "bad_request",
    414: "uri_too_long",
    431: "headers_too_large",
    501: "unsupported_method",
    505: "unsupported_version",
}


class ExtractionService:
    """The robustness pipeline around the model registry.

    Args:
        registry: the versioned warm registry (a version should be
            activated before traffic arrives; until then requests
            degrade to fail-fast 503s, still structured).
        config: serve tuning knobs.
        faults: optional :class:`~repro.runtime.faults.FaultPlan`
            driving the chaos hooks (``serve_payload`` pre-parse,
            ``serve_tag`` inside the model call).
        quarantine_path: JSONL ledger for gate rejections; entries are
            stamped ``source="serve"``. None disables persistence
            (rejections still get their structured 422).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServeConfig | None = None,
        faults=None,
        quarantine_path=None,
    ):
        self.config = config or ServeConfig()
        self.registry = registry
        self.faults = faults
        governor = None
        if self.config.memory_budget_mb is not None or (
            faults is not None and faults.has_memory_faults()
        ):
            from ..runtime.memory import MemoryGovernor

            governor = MemoryGovernor(
                self.config.memory_budget_mb,
                faults=faults,
                min_sample_interval=0.2,
            )
        self.governor = governor
        self.admission = AdmissionController(
            self.config.queue_capacity, governor=governor
        )
        self.ladder = DegradationLadder(
            threshold=self.config.breaker_threshold,
            cooldown_seconds=self.config.breaker_cooldown_seconds,
        )
        self.batcher = MicroBatcher(max_size=self.config.batch_max_size)
        self.gate = IngestGate(self.config.ingest)
        self.quarantine_log = (
            QuarantineLog(quarantine_path, source="serve")
            if quarantine_path is not None
            else None
        )
        self.started_at = time.monotonic()
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._warnings: dict[str, int] = {}
        self._quarantined_by_check: dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------

    def _count(self, key: str, by: int = 1) -> None:
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + by

    def _merge_warnings(self, warnings: dict[str, int]) -> None:
        if not warnings:
            return
        with self._lock:
            for key, count in warnings.items():
                self._warnings[key] = self._warnings.get(key, 0) + count

    # -- request handling ----------------------------------------------

    def handle_extract(
        self, body: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        """Run one request through the full robustness pipeline."""
        self._count("requests")
        if self.faults is not None:
            body = self.faults.mangle_payload("serve_payload", body)
        with self.admission.admit() as admitted:
            if not admitted:
                retry_after = self.admission.retry_after()
                self._count("shed")
                status, payload = error_payload(
                    "shed",
                    "server at capacity "
                    f"({self.config.queue_capacity} admitted); retry",
                    retry_after_seconds=retry_after,
                )
                return status, payload, {
                    "Retry-After": str(max(1, math.ceil(retry_after)))
                }
            return self._handle_admitted(body)

    def _handle_admitted(
        self, body: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        started = time.perf_counter()
        try:
            request = parse_extract_request(body)
        except ProtocolError as error:
            self._count("bad_request")
            status, payload = error_payload(error.code, error.detail)
            return status, payload, {}

        budget = min(
            request.deadline_seconds or self.config.deadline_seconds,
            self.config.max_deadline_seconds,
        )
        deadline = Deadline.after(budget)

        try:
            sentences = self._sentences(request)
        except ProtocolError as error:
            self._count("bad_request")
            status, payload = error_payload(error.code, error.detail)
            return status, payload, {}
        except PageQuarantinedError as error:
            return self._quarantined(request, error)

        if not sentences:
            self._count("served")
            payload = ok_payload(
                request,
                [],
                served_by="none",
                level=0,
                latency_ms=1000 * (time.perf_counter() - started),
            )
            payload["detail"] = "input produced no sentences"
            return 200, payload, {}

        return self._extract(request, sentences, deadline, budget, started)

    def _sentences(self, request: ExtractRequest) -> list[Sentence]:
        """Tokenize the request input (gating HTML through strict ingest)."""
        locale = request.locale or self.config.default_locale
        try:
            nlp = get_locale(locale)
        except Exception as error:
            raise ProtocolError(str(error)) from error
        if request.html is not None:
            page = ProductPage(
                product_id=request.product_id,
                category=request.category or "serve",
                html=request.html,
                locale=locale,
            )
            # Strict policy: the first failing check raises
            # PageQuarantinedError, which _quarantined() converts to
            # the structured 422 + ledger append.
            result = self.gate.process([page])
            self._merge_warnings(result.warnings)
            from ..core.text import tokenize_page

            return list(tokenize_page(result.pages[0]).sentences)
        return list(
            split_sentences(request.product_id, [request.text or ""], nlp)
        )

    def _quarantined(
        self, request: ExtractRequest, error: PageQuarantinedError
    ) -> tuple[int, dict, dict[str, str]]:
        self._count("quarantined")
        with self._lock:
            self._quarantined_by_check[error.check] = (
                self._quarantined_by_check.get(error.check, 0) + 1
            )
        entry = QuarantineEntry(
            page_id=request.product_id,
            check=error.check,
            error=type(error).__name__,
            detail=error.detail,
            source="serve",
        )
        if self.quarantine_log is not None:
            self.quarantine_log.append(entry)
        status, payload = error_payload(
            "quarantined", error.detail, check=error.check
        )
        return status, payload, {}

    def _extract(
        self,
        request: ExtractRequest,
        sentences: list[Sentence],
        deadline: Deadline,
        budget: float,
        started: float,
    ) -> tuple[int, dict, dict[str, str]]:
        """Serve at the best available ladder rung, falling down in-request."""
        route = self.ladder.acquire()
        level = route.level
        fallbacks: list[dict] = []
        while True:
            if level in MODEL_LEVELS:
                outcome = self._try_model_level(
                    request, sentences, deadline, budget, started,
                    route, level, fallbacks,
                )
                if outcome is not None:
                    return outcome
                level += 1
            elif level == DICTIONARY_LEVEL:
                if deadline.expired:
                    return self._timeout(route, level, budget)
                outcome = self._try_dictionary(
                    request, sentences, started, route, fallbacks
                )
                if outcome is not None:
                    return outcome
                level = FAIL_FAST_LEVEL
            else:
                self.ladder.abandon(route)
                self._count("fail_fast")
                status, payload = error_payload(
                    "unavailable",
                    "no model version is live and the dictionary rung "
                    "is unavailable; failing fast",
                    degradation=LEVEL_NAMES[FAIL_FAST_LEVEL],
                    degradation_level=FAIL_FAST_LEVEL,
                )
                return status, payload, {}

    def _try_model_level(
        self,
        request: ExtractRequest,
        sentences: list[Sentence],
        deadline: Deadline,
        budget: float,
        started: float,
        route,
        level: int,
        fallbacks: list[dict],
    ) -> tuple[int, dict, dict[str, str]] | None:
        """One model-rung attempt; None means 'fall to the next rung'."""
        with self.registry.lease(level) as bundle:
            if bundle is None:
                # Rung unoccupied (e.g. no previous version yet):
                # absence is not a fault, skip without a breaker mark.
                return None
            if deadline.expired:
                self.ladder.abandon(route)
                return self._timeout(route, level, budget, record=False)
            job = self.batcher.submit(
                BatchJob(bundle, sentences, deadline, faults=self.faults)
            )
            finished = job.wait(deadline.remaining() + 0.1)
            if not finished or isinstance(job.error, JobTimeoutError):
                # Slow/hung model: structured 504 and a breaker mark.
                # The deadline is spent — no rung below can help.
                return self._timeout(route, level, budget)
            if job.error is not None:
                if isinstance(job.error, ISOLATABLE):
                    self.ladder.failure(route, level)
                    self._count("model_errors")
                    fallbacks.append(
                        {
                            "level": LEVEL_NAMES[level],
                            "error": type(job.error).__name__,
                            "detail": str(job.error),
                        }
                    )
                    return None
                self.ladder.abandon(route)
                self._count("internal_errors")
                status, payload = error_payload(
                    "internal",
                    f"{type(job.error).__name__}: {job.error}",
                )
                return status, payload, {}
            triples = self._tagged_triples(job.result or [])
            self.ladder.success(route, level)
            self._count("served")
            payload = ok_payload(
                request,
                triples,
                served_by=bundle.version,
                level=level,
                latency_ms=1000 * (time.perf_counter() - started),
            )
            if fallbacks:
                payload["fallbacks"] = fallbacks
            return 200, payload, {}

    def _try_dictionary(
        self,
        request: ExtractRequest,
        sentences: list[Sentence],
        started: float,
        route,
        fallbacks: list[dict],
    ) -> tuple[int, dict, dict[str, str]] | None:
        """Dictionary rung: any resident bundle's seed values will do."""
        for rung in MODEL_LEVELS:
            with self.registry.lease(rung) as bundle:
                if bundle is None:
                    continue
                triples = [
                    {"attribute": t.attribute, "value": t.value}
                    for t in dictionary_extract(bundle.matcher, sentences)
                ]
                self.ladder.success(route, DICTIONARY_LEVEL)
                self._count("served")
                self._count("served_dictionary")
                payload = ok_payload(
                    request,
                    triples,
                    served_by=f"dictionary:{bundle.version}",
                    level=DICTIONARY_LEVEL,
                    latency_ms=1000 * (time.perf_counter() - started),
                )
                if fallbacks:
                    payload["fallbacks"] = fallbacks
                return 200, payload, {}
        return None

    def _timeout(
        self, route, level: int, budget: float, record: bool = True
    ) -> tuple[int, dict, dict[str, str]]:
        if record:
            self.ladder.failure(route, level)
        self._count("timeouts")
        status, payload = error_payload(
            "timeout",
            f"request deadline of {budget:g}s exceeded "
            f"(level {LEVEL_NAMES[level]})",
        )
        return status, payload, {}

    @staticmethod
    def _tagged_triples(tagged) -> list[dict]:
        from ..core.cleaning.extract import extractions_from_tagged

        triples: list[dict] = []
        seen: set[Triple] = set()
        for extraction in extractions_from_tagged(tagged):
            triple = extraction.triple
            if triple not in seen:
                seen.add(triple)
                triples.append(
                    {"attribute": triple.attribute, "value": triple.value}
                )
        return triples

    # -- control surface -----------------------------------------------

    def swap(self, version: str | None = None) -> tuple[int, dict]:
        """Hot-swap to a version (or the newest published one)."""
        try:
            if version is None:
                bundle = self.registry.activate_latest()
            else:
                bundle = self.registry.activate(version)
        except ModelError as error:
            self._count("swap_failures")
            return error_payload("model_error", str(error))
        self._count("swaps")
        return 200, {
            "status": "ok",
            "active_version": bundle.version,
            "registry": self.registry.health(),
        }

    def health(self) -> dict:
        """The /healthz payload: current ladder level + registry view."""
        level = self.ladder.current_level()
        active = self.registry.active
        return {
            "status": "ok" if level == 0 and active else "degraded",
            "degradation_level": level,
            "degradation": LEVEL_NAMES[level],
            "active_version": active.version if active else None,
            "uptime_seconds": round(
                time.monotonic() - self.started_at, 3
            ),
        }

    def stats(self) -> dict:
        """The /stats payload: every counter the pipeline keeps."""
        with self._lock:
            counters = dict(self._counters)
            warnings = dict(self._warnings)
            quarantined = dict(self._quarantined_by_check)
        payload = self.health()
        payload.update(
            {
                "counters": counters,
                "warnings": warnings,
                "quarantined_by_check": quarantined,
                "quarantine_appended": (
                    self.quarantine_log.appended
                    if self.quarantine_log is not None
                    else 0
                ),
                "admission": self.admission.stats(),
                "batcher": self.batcher.stats(),
                "ladder": self.ladder.stats(),
                "registry": self.registry.health(),
            }
        )
        return payload

    def close(self) -> None:
        self.batcher.close()
        if self.quarantine_log is not None:
            self.quarantine_log.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP to the service; every response is structured JSON.

    Transport: ``wbufsize = -1`` gives the handler one buffered
    ``wfile``, so an answer's head and body go out together when
    ``handle_one_request`` flushes it; ``disable_nagle_algorithm``
    sets ``TCP_NODELAY``, so a body larger than the buffer (``/stats``)
    is not held back either. Written as two unbuffered sends, the body
    waited for the client's delayed ACK (about 40 ms) whenever a
    keep-alive connection ran back to back.
    """

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # the service keeps its own counters; stderr stays quiet

    @property
    def service(self) -> ExtractionService:
        return self.server.service  # type: ignore[attr-defined]

    def _send(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = encode_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's own error path, answered as structured JSON.

        ``BaseHTTPRequestHandler`` calls this before any route runs: a
        malformed request line (400), an oversized request line (414)
        or header (431), an unsupported method (501) or HTTP version
        (505). The status stays the one the stdlib chose, and the
        connection closes, as the stdlib's own answer does. A request
        line the stdlib could not read as HTTP/1.x counts as HTTP/0.9,
        whose answers carry no head; the answer gets an HTTP/1.0 head
        instead, so the client still sees the status.
        """
        if self.request_version == "HTTP/0.9":
            self.request_version = "HTTP/1.0"
        status = int(code)
        detail = message or self.responses[status][0]
        if explain:
            detail = f"{detail} ({explain})"
        _, payload = error_payload(_STDLIB_ERROR_CODES[status], detail)
        self._send(status, payload, {"Connection": "close"})

    def _read_body(self) -> bytes | None:
        """Read the request body; None (and a structured 400) if oversized."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            status, payload = error_payload(
                "bad_request",
                f"request body is {length} bytes (max {MAX_BODY_BYTES})",
            )
            self._send(status, payload, {"Connection": "close"})
            self.close_connection = True
            return None
        return self.rfile.read(length) if length > 0 else b""

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/extract":
            body = self._read_body()
            if body is None:
                return
            try:
                status, payload, headers = self.service.handle_extract(body)
            except Exception as error:  # last ditch: never a hung socket
                status, payload = error_payload(
                    "internal", f"{type(error).__name__}: {error}"
                )
                headers = {}
            self._send(status, payload, headers)
        elif self.path == "/admin/swap":
            body = self._read_body()
            if body is None:
                return
            version = None
            if body:
                import json as _json

                try:
                    parsed = _json.loads(body.decode("utf-8"))
                    version = (
                        parsed.get("version")
                        if isinstance(parsed, dict)
                        else None
                    )
                except (UnicodeDecodeError, ValueError):
                    status, payload = error_payload(
                        "bad_request", "swap body must be JSON"
                    )
                    self._send(status, payload)
                    return
            status, payload = self.service.swap(version)
            self._send(status, payload)
        else:
            status, payload = error_payload(
                "not_found", f"no such endpoint: POST {self.path}"
            )
            self._send(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/healthz":
            self._send(200, self.service.health())
        elif self.path == "/stats":
            self._send(200, self.service.stats())
        else:
            status, payload = error_payload(
                "not_found", f"no such endpoint: GET {self.path}"
            )
            self._send(status, payload)


class ExtractionServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: ExtractionService):
        super().__init__(address, _Handler)
        self.service = service


def start_server(
    service: ExtractionService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[ExtractionServer, threading.Thread]:
    """Start the daemon on a background thread (port 0 = ephemeral).

    Returns the server (its bound port in ``server_address[1]``) and
    the serving thread. Call ``server.shutdown()`` then
    ``service.close()`` to stop.
    """
    server = ExtractionServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever,
        name="serve-http",
        daemon=True,
    )
    thread.start()
    return server, thread
