"""The serve wire protocol: request parsing and structured responses.

Every response the daemon emits — success or failure — is a JSON
object with a ``status`` field (``"ok"`` / ``"error"``); errors carry
a machine-readable ``code`` from :data:`ERROR_STATUS` plus a human
``detail``. The invariant the chaos suite asserts is exactly this:
*every* request, however hostile or unlucky, receives one structured
response — shed, quarantined, timed out, degraded, or served — and
never a hung socket or an opaque stack trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ..errors import ReproError

#: Error code → HTTP status. The serve handlers only ever emit these.
ERROR_STATUS = {
    "bad_request": 400,
    "not_found": 404,
    "uri_too_long": 414,
    "quarantined": 422,
    "shed": 429,
    "headers_too_large": 431,
    "model_error": 500,
    "internal": 500,
    "unsupported_method": 501,
    "unavailable": 503,
    "timeout": 504,
    "unsupported_version": 505,
}

#: Degradation-ladder levels, best to worst.
LEVEL_NAMES = ("full", "previous", "dictionary", "fail_fast")

#: Upper bound on accepted request bodies (pre-gate containment).
MAX_BODY_BYTES = 8_000_000


class ProtocolError(ReproError):
    """A request violated the wire protocol (structured 400).

    Attributes:
        code: error code (always a key of :data:`ERROR_STATUS`).
        detail: human-readable description.
    """

    def __init__(self, detail: str, code: str = "bad_request"):
        self.code = code
        self.detail = detail
        super().__init__(detail)


@dataclass(frozen=True, slots=True)
class ExtractRequest:
    """One extraction request.

    Exactly one of ``text`` / ``html`` is set. ``deadline_seconds``
    optionally tightens (never loosens past the server cap) the
    per-request wall-clock budget.
    """

    product_id: str
    text: str | None = None
    html: str | None = None
    locale: str | None = None
    category: str | None = None
    deadline_seconds: float | None = None


def parse_extract_request(body: bytes) -> ExtractRequest:
    """Decode and validate a request body.

    Raises:
        ProtocolError: on oversized, non-UTF-8, non-JSON, or
            schema-violating bodies — the structured-400 path that
            contains ``corrupt_payload`` chaos faults.
    """
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(
            f"request body is {len(body)} bytes "
            f"(max {MAX_BODY_BYTES})"
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(
            f"request body is not valid UTF-8 JSON: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    text = payload.get("text")
    html = payload.get("html")
    if (text is None) == (html is None):
        raise ProtocolError(
            "request needs exactly one of 'text' or 'html'"
        )
    content = text if text is not None else html
    if not isinstance(content, str):
        raise ProtocolError("'text'/'html' must be a string")
    product_id = payload.get("product_id", "request")
    if not isinstance(product_id, str) or not product_id:
        raise ProtocolError("'product_id' must be a non-empty string")
    for field_name in ("locale", "category"):
        value = payload.get(field_name)
        if value is not None and not isinstance(value, str):
            raise ProtocolError(f"'{field_name}' must be a string")
    deadline = payload.get("deadline_seconds")
    if deadline is not None:
        if (
            not isinstance(deadline, (int, float))
            or isinstance(deadline, bool)
            or not math.isfinite(deadline)
            or deadline <= 0
        ):
            raise ProtocolError(
                "'deadline_seconds' must be a positive finite number"
            )
        deadline = float(deadline)
    return ExtractRequest(
        product_id=product_id,
        text=text,
        html=html,
        locale=payload.get("locale"),
        category=payload.get("category"),
        deadline_seconds=deadline,
    )


def ok_payload(
    request: ExtractRequest,
    triples: list[dict],
    *,
    served_by: str,
    level: int,
    latency_ms: float,
) -> dict:
    """The success response body."""
    return {
        "status": "ok",
        "product_id": request.product_id,
        "triples": triples,
        "served_by": served_by,
        "degradation_level": level,
        "degradation": LEVEL_NAMES[level],
        "latency_ms": round(latency_ms, 3),
    }


def error_payload(
    code: str,
    detail: str,
    *,
    retry_after_seconds: float | None = None,
    **extra,
) -> tuple[int, dict]:
    """``(http_status, body)`` for a structured error response."""
    if code not in ERROR_STATUS:
        raise ValueError(f"unknown serve error code {code!r}")
    body = {"status": "error", "code": code, "detail": detail}
    if retry_after_seconds is not None:
        body["retry_after_seconds"] = round(retry_after_seconds, 3)
    body.update(extra)
    return ERROR_STATUS[code], body


def encode_json(payload: dict) -> bytes:
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")
