"""Page tokenization: from raw HTML to sentence/token structures.

Every pipeline stage consumes the same tokenized view of a page, built
once here: the page title plus all free-text blocks, sentence-split and
PoS-tagged by the page's locale bundle. Table contents are *excluded*
from the text view (they are semi-structured data owned by the seed
extractor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..html import extract_text_blocks, parse_html
from ..html.dom import Element
from ..nlp import get_locale, split_sentences
from ..types import ProductPage, Sentence


@dataclass(frozen=True, slots=True)
class PageText:
    """The tokenized free text of one product page."""

    product_id: str
    locale: str
    sentences: tuple[Sentence, ...]

    def token_count(self) -> int:
        return sum(len(sentence) for sentence in self.sentences)


def tokenize_page(
    page: ProductPage, root: Element | None = None
) -> PageText:
    """Tokenize one page's title and description text.

    Args:
        page: the page to tokenize.
        root: an already-parsed DOM of ``page.html`` (e.g. the tree the
            ingest gate built while validating the page); parsed fresh
            when omitted. The output is identical either way.
    """
    if root is None:
        root = parse_html(page.html)
    blocks = extract_text_blocks(root, skip_tables=True)
    nlp = get_locale(page.locale)
    sentences = split_sentences(page.product_id, blocks, nlp)
    return PageText(page.product_id, page.locale, tuple(sentences))


def tokenize_pages(pages: Iterable[ProductPage]) -> list[PageText]:
    """Tokenize a page collection, preserving order."""
    return [tokenize_page(page) for page in pages]


def corpus_token_sentences(
    page_texts: Sequence[PageText],
) -> list[list[str]]:
    """All sentences as plain token-text lists (word2vec input)."""
    return [
        [token.text for token in sentence]
        for page_text in page_texts
        for sentence in page_text.sentences
    ]
