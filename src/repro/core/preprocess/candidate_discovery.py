"""Candidate discovery: mine raw seed pairs from dictionary tables.

Implements line 2 of Figure 1 following the HTML-table mining lineage
the paper cites ([13], [24], [2], [5], [11], [4]): every dictionary-form
table (2×n or n×2) contributes its ``(name, value)`` cells as candidate
attribute-value pairs. Both sides are tokenized with the page locale so
downstream identity is format-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ...html import extract_dictionary_tables, parse_html
from ...html.dom import Element
from ...nlp import get_locale
from ...types import ProductPage


@dataclass(frozen=True, slots=True)
class RawCandidate:
    """One table row, normalized.

    Attributes:
        product_id: page the row came from.
        attribute: surface attribute name, whitespace-normalized.
        value_key: canonical (token-joined) value string.
    """

    product_id: str
    attribute: str
    value_key: str

    @property
    def value_tokens(self) -> tuple[str, ...]:
        return tuple(self.value_key.split(" "))


def discover_page_candidates(
    page: ProductPage, root: Element | None = None
) -> list[RawCandidate]:
    """Extract raw candidates from one page's dictionary tables.

    Args:
        page: the page to mine.
        root: an already-parsed DOM of ``page.html`` to reuse (the
            ingest gate and tokenizer parse the same document); parsed
            fresh when omitted. Output is identical either way.
    """
    nlp = get_locale(page.locale)
    if root is None:
        root = parse_html(page.html)
    candidates: list[RawCandidate] = []
    seen: set[tuple[str, str]] = set()
    for table in extract_dictionary_tables(root):
        for name, value in table.pairs:
            name_key = " ".join(nlp.tokenizer.tokenize(name))
            value_tokens = nlp.tokenizer.tokenize(value)
            if not name_key or not value_tokens:
                continue
            value_joined = " ".join(value_tokens)
            if (name_key, value_joined) in seen:
                continue
            seen.add((name_key, value_joined))
            candidates.append(
                RawCandidate(page.product_id, name_key, value_joined)
            )
    return candidates


def discover_candidates(
    pages: Iterable[ProductPage],
) -> list[RawCandidate]:
    """Extract raw candidates from every page's dictionary tables.

    Rows with an empty tokenized name or value are skipped; duplicate
    rows within one page are kept once.
    """
    return [
        candidate
        for page in pages
        for candidate in discover_page_candidates(page)
    ]


def pages_with_tables(candidates: Sequence[RawCandidate]) -> set[str]:
    """Product ids that contributed at least one candidate row."""
    return {candidate.product_id for candidate in candidates}
