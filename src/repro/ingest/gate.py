"""The ingest gate: validate and normalize pages before the pipeline.

The pipeline downstream of this gate may assume every page is sane:
bounded in size, parseable within a wall-clock budget, nested within
reason, free of mojibake and entity garbage, and unique by product id.
The gate enforces those invariants under one of three policies
(:class:`~repro.config.IngestConfig`):

* ``strict`` — the first failing page raises
  :class:`~repro.errors.PageQuarantinedError`;
* ``repair`` — fixable damage is normalized in place (truncated tag
  tails cut, unclosed elements closed, entity garbage and replacement
  characters stripped) and only unfixable pages are quarantined;
* ``drop`` — any failing page is quarantined untouched.

Checks, in evaluation order:

``page_bytes``        UTF-8 size over ``max_page_bytes`` (unfixable)
``duplicate_id``      product id already seen in this collection
                      (unfixable — the duplicate occurrence goes)
``mojibake``          U+FFFD replacement characters (fixable)
``entity_garbage``    malformed entity references over
                      ``max_bad_entities`` (fixable)
``truncated_markup``  document ends inside an unterminated tag
                      (fixable)
``unclosed_tags``     open elements at end of input over
                      ``max_unclosed_tags`` (fixable)
``parse_seconds``     parse exceeded ``parse_budget_seconds``
                      (unfixable; a post-hoc wall-clock check,
                      counted under ``parse_budget_soft``)
``open_depth``        DOM nesting over ``max_dom_depth`` (unfixable)
``table_rows``        a table over ``max_table_rows`` rows (unfixable)

Every rejection lands in a :class:`~repro.ingest.quarantine.Quarantine`
ledger with structured diagnostics; the gate itself never raises except
under ``strict``.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..config import IngestConfig
from ..errors import HtmlLimitError, PageQuarantinedError
from ..html.dom import Element
from ..html.lexer import HtmlToken, tokenize_html
from ..html.parser import (
    _IMPLIED_CLOSERS,
    _SELF_NESTING,
    parse_token_stream,
)
from ..types import ProductPage
from .quarantine import Quarantine, QuarantineEntry

#: Checks whose damage the ``repair`` policy can normalize away.
FIXABLE_CHECKS = (
    "mojibake",
    "entity_garbage",
    "truncated_markup",
    "unclosed_tags",
)

#: Malformed entity references: ``&;``, ``&&``, ``&#`` or ``&#x``
#: followed by nothing numeric. Valid references (``&nbsp;``,
#: ``&#1234;``) and prose ampersands ("A & B") never match.
_BAD_ENTITY_RE = re.compile(
    r"&(?:#[xX](?![0-9a-fA-F])|#(?![0-9xX])|;|(?=&))"
)

#: A trailing ``<`` that opens a tag but never closes: truncation scar.
_TAG_START_RE = re.compile(r"</?[a-zA-Z]")

#: Fused damage scan: one compiled pass finds both U+FFFD replacement
#: characters and malformed entity references, replacing the separate
#: ``str.find`` + entity ``finditer`` passes on the prep hot path. The
#: two alternatives can never match at the same offset, so the fused
#: scan reports exactly what the sequential scans would.
_DAMAGE_RE = re.compile(
    r"(�)|&(?:#[xX](?![0-9a-fA-F])|#(?![0-9xX])|;|(?=&))"
)


@dataclass(frozen=True)
class IngestResult:
    """What the gate produced from one page collection.

    Attributes:
        pages: pages that passed (possibly repaired), input order kept.
        quarantine: ledger of rejected pages with diagnostics.
        repaired: ``{check: page count}`` of normalizations applied
            (empty under ``strict``/``drop``).
        pages_in: size of the input collection.
        warnings: counted degradations (currently
            ``parse_budget_soft``: parses that overran the wall-clock
            parse budget).
    """

    pages: list[ProductPage]
    quarantine: Quarantine
    repaired: dict[str, int] = field(default_factory=dict)
    pages_in: int = 0
    warnings: dict[str, int] = field(default_factory=dict)

    @property
    def repaired_total(self) -> int:
        return sum(self.repaired.values())


@contextmanager
def _parse_budget(
    seconds: float, warnings: dict[str, int] | None = None
) -> Iterator[None]:
    """Post-hoc wall-clock budget for one parse.

    The parse is timed, and an overrun raises the same
    :class:`HtmlLimitError` a preemptive budget would — after the fact
    — so the page is quarantined instead of admitted. The budget never
    interrupts a parse mid-flight: it runs the same way on the main
    thread, on serve worker threads and in shard worker processes, and
    the gate's byte and depth limits are what bound a runaway parse.
    Each trip is counted under ``parse_budget_soft`` (the serve daemon
    surfaces the counter through its health endpoint).
    """
    if seconds <= 0:
        yield
        return
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    if elapsed > seconds:
        if warnings is not None:
            warnings["parse_budget_soft"] = (
                warnings.get("parse_budget_soft", 0) + 1
            )
        raise HtmlLimitError("parse_seconds", elapsed, seconds)


def _mojibake_offset(html: str) -> int | None:
    """Offset of the first U+FFFD replacement character, if any."""
    offset = html.find("�")
    return None if offset == -1 else offset


def _scan_damage(html: str) -> tuple[int | None, list[int]]:
    """One pass over ``html`` for mojibake and malformed entities.

    Returns ``(mojibake_offset, entity_offsets)``. When mojibake is
    present the scan stops at its first occurrence and the entity list
    is meaningless (the repair path strips the replacement characters
    and must re-scan the mutated document anyway — entity offsets
    computed before the strip would be wrong).
    """
    entity_offsets: list[int] = []
    for match in _DAMAGE_RE.finditer(html):
        if match.group(1) is not None:
            return match.start(), entity_offsets
        entity_offsets.append(match.start())
    return None, entity_offsets


def _bad_entities(html: str) -> list[int]:
    """Offsets of malformed entity references."""
    return [match.start() for match in _BAD_ENTITY_RE.finditer(html)]


def _truncation_offset(html: str) -> int | None:
    """Offset of a trailing unterminated tag, if the document has one."""
    lt = html.rfind("<")
    if lt == -1 or ">" in html[lt:]:
        return None
    if _TAG_START_RE.match(html, lt) is None:
        return None
    return lt


def _unclosed_elements(html: str) -> list[str]:
    """Open (non-void, non-self-closing) elements left at end of input.

    Mirrors the parser's stack discipline — implied closers and
    auto-closing end tags included — so the count matches exactly what
    :func:`parse_html` would force-close at EOF.
    """
    return _unclosed_from_tokens(tokenize_html(html))


def _unclosed_from_tokens(tokens: Iterable[HtmlToken]) -> list[str]:
    """Token-stream form of :func:`_unclosed_elements`.

    The gate lexes each document exactly once and runs both this check
    and tree construction over the same materialized token list.
    """
    stack: list[str] = []
    for token in tokens:
        if token.kind == "start":
            closers = _IMPLIED_CLOSERS.get(token.value, frozenset())
            while stack and stack[-1] in closers:
                stack.pop()
            if (
                token.value in _SELF_NESTING
                and stack
                and stack[-1] == token.value
            ):
                stack.pop()
            if not token.self_closing:
                stack.append(token.value)
        elif token.kind == "end":
            for depth in range(len(stack) - 1, -1, -1):
                if stack[depth] == token.value:
                    del stack[depth:]
                    break
    return stack


class IngestGate:
    """Validates and normalizes a page collection under a policy.

    Args:
        config: gate configuration; defaults reproduce the shipped
            ``repair`` policy with generous resource bounds.
    """

    def __init__(self, config: IngestConfig | None = None):
        self.config = config or IngestConfig()

    def process(self, pages: Sequence[ProductPage]) -> IngestResult:
        """Gate every page; never raises except under ``strict``.

        Args:
            pages: the collection to gate.

        Returns:
            An :class:`IngestResult` whose ``pages`` preserve input
            order (minus quarantined pages) and whose ``quarantine``
            records every rejection with diagnostics.
        """
        kept: list[ProductPage] = []
        quarantine = Quarantine()
        repaired: dict[str, int] = {}
        warnings: dict[str, int] = {}
        seen_ids: set[str] = set()
        for page in pages:
            entry, result_page, page_repairs, _ = self._gate_page(
                page, seen_ids, warnings
            )
            if entry is not None:
                if self.config.policy == "strict":
                    raise PageQuarantinedError(
                        entry.page_id, entry.check, entry.detail
                    )
                quarantine.add(entry)
                continue
            assert result_page is not None
            seen_ids.add(result_page.product_id)
            kept.append(result_page)
            for check in page_repairs:
                repaired[check] = repaired.get(check, 0) + 1
        return IngestResult(
            pages=kept,
            quarantine=quarantine,
            repaired=repaired,
            pages_in=len(pages),
            warnings=warnings,
        )

    # -- per-page machinery --------------------------------------------

    def gate_page_prepared(
        self,
        page: ProductPage,
        seen_ids: set[str],
        warnings: dict[str, int] | None = None,
    ) -> tuple[
        QuarantineEntry | None,
        ProductPage | None,
        list[str],
        Element | None,
    ]:
        """Gate one page against an externally-owned seen-id set.

        The per-page unit of :meth:`process`, exposed for callers that
        stream pages instead of holding a collection (shard prep in
        :mod:`repro.core.sharded`). Never raises — policy escalation
        (``strict``) is the caller's job, since only the caller knows
        the global page order. The caller must add kept pages'
        product ids to ``seen_ids`` itself.

        Returns ``(quarantine_entry, kept_page, repairs, root)``. The
        gate must parse every admitted page to run its structural
        guards; ``root`` is that tree, parsed from exactly the html of
        the returned page, so callers that tokenize or mine the page
        next reuse it instead of paying a second ``parse_html`` pass.
        """
        return self._gate_page(page, seen_ids, warnings)

    def _gate_page(
        self,
        page: ProductPage,
        seen_ids: set[str],
        warnings: dict[str, int] | None = None,
    ) -> tuple[
        QuarantineEntry | None,
        ProductPage | None,
        list[str],
        Element | None,
    ]:
        """Gate one page.

        Returns ``(quarantine_entry, kept_page, repairs, root)`` where
        exactly one of the first two is non-None; ``root`` is the
        parsed DOM of ``kept_page`` when the page is admitted.

        Hot-path shape: one fused regex scan covers the mojibake and
        entity-garbage checks, and the document is lexed exactly once —
        the same token list feeds the unclosed-element check and tree
        construction. Only the rare repair paths (which mutate the html
        between checks) re-scan or re-lex.
        """
        config = self.config
        html = page.html
        repairs: list[str] = []

        # Unfixable pre-checks on the untouched page.
        size = len(html.encode("utf-8", errors="surrogatepass"))
        if size > config.max_page_bytes:
            return self._reject(
                page, "page_bytes",
                f"page is {size} bytes (max {config.max_page_bytes})",
            ), None, repairs, None
        if page.product_id in seen_ids:
            return self._reject(
                page, "duplicate_id",
                f"product id {page.product_id!r} already seen "
                "in this collection",
            ), None, repairs, None

        # Fixable structural damage: one scan finds both mojibake and
        # entity garbage on the (overwhelmingly common) clean path.
        allow_repair = config.policy == "repair"
        offset, bad_entities = _scan_damage(html)
        if offset is not None:
            if not allow_repair:
                return self._reject(
                    page, "mojibake",
                    "page contains U+FFFD replacement characters "
                    "(byte-level encoding damage)",
                    byte_offset=offset,
                ), None, repairs, None
            html = html.replace("�", "")
            repairs.append("mojibake")
            # The strip shifted every offset after it: re-scan the
            # mutated document, exactly as the sequential path would.
            bad_entities = _bad_entities(html)
        if len(bad_entities) > config.max_bad_entities:
            if not allow_repair:
                return self._reject(
                    page, "entity_garbage",
                    f"{len(bad_entities)} malformed entity references "
                    f"(max {config.max_bad_entities})",
                    byte_offset=bad_entities[0],
                ), None, repairs, None
            html = _BAD_ENTITY_RE.sub("", html)
            repairs.append("entity_garbage")
        offset = _truncation_offset(html)
        if offset is not None:
            if not allow_repair:
                return self._reject(
                    page, "truncated_markup",
                    "document ends inside an unterminated tag",
                    byte_offset=offset,
                ), None, repairs, None
            html = html[:offset]
            repairs.append("truncated_markup")

        # Lex once: the unclosed-element check and the parse consume
        # the same token list. (The lexer never raises; pathological
        # input surfaces as limit errors during tree construction,
        # inside the budget, as before.)
        tokens: list[HtmlToken] | None = list(tokenize_html(html))
        unclosed = _unclosed_from_tokens(tokens)
        if len(unclosed) > config.max_unclosed_tags:
            if not allow_repair:
                return self._reject(
                    page, "unclosed_tags",
                    f"{len(unclosed)} unclosed elements at end of "
                    f"input (max {config.max_unclosed_tags})",
                ), None, repairs, None
            html = html + "".join(
                f"</{tag}>" for tag in reversed(unclosed)
            )
            repairs.append("unclosed_tags")
            tokens = None  # html changed: re-lex inside the budget

        # Unfixable parse-level guards, on the (possibly repaired) html.
        try:
            with _parse_budget(config.parse_budget_seconds, warnings):
                root = parse_token_stream(
                    tokens if tokens is not None else tokenize_html(html),
                    max_depth=config.max_dom_depth,
                )
        except HtmlLimitError as error:
            return self._reject(
                page, error.limit, str(error), error=error
            ), None, repairs, None
        except Exception as error:  # noqa: BLE001 - contain, never crash
            # The parser promises not to raise on malformed markup; if
            # it ever does, that page is exactly what quarantine is for.
            return self._reject(
                page, "parse_error", str(error), error=error
            ), None, repairs, None
        for table in root.find_all("table"):
            rows = len(table.find_all("tr"))
            if rows > config.max_table_rows:
                return self._reject(
                    page, "table_rows",
                    f"table has {rows} rows "
                    f"(max {config.max_table_rows})",
                ), None, repairs, None

        if html is not page.html:
            page = ProductPage(
                product_id=page.product_id,
                category=page.category,
                html=html,
                locale=page.locale,
            )
        return None, page, repairs, root

    def _reject(
        self,
        page: ProductPage,
        check: str,
        detail: str,
        byte_offset: int | None = None,
        error: Exception | None = None,
    ) -> QuarantineEntry:
        return QuarantineEntry(
            page_id=page.product_id,
            check=check,
            error=type(error).__name__ if error is not None else check,
            detail=detail,
            byte_offset=byte_offset,
        )
