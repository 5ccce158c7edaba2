"""Core value types shared across the PAE pipeline.

The pipeline's unit of discourse follows the paper's Definition 3.1:

* an *attribute* is a binary relation between products and values;
* an :class:`AttributeValuePair` states that some attribute admits some
  value (``<color, pink>``);
* a :class:`Triple` attaches a pair to a concrete product
  (``<handbag_287, color, pink>``).

Sentences flow through the system as :class:`Token` sequences produced by
the NLP substrate, and taggers exchange :class:`TaggedSentence` objects
whose label sequences use the BIO scheme from :mod:`repro.nlp.bio`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, slots=True)
class Token:
    """A single token with its part-of-speech tag.

    Attributes:
        text: surface form, exactly as found in the source text.
        pos: part-of-speech tag from the locale tagger (e.g. ``"NN"``,
            ``"NUM"``, ``"SYM"``).
    """

    text: str
    pos: str

    def is_numeric(self) -> bool:
        """Return True when the token is a bare number."""
        return self.pos == "NUM"

    def is_symbol(self) -> bool:
        """Return True when the token is punctuation or another symbol."""
        return self.pos == "SYM"


@dataclass(frozen=True, slots=True)
class AttributeValuePair:
    """A ``<attribute, value>`` association, product-independent."""

    attribute: str
    value: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.attribute}, {self.value}>"


@dataclass(frozen=True, slots=True)
class Triple:
    """A ``<product, attribute, value>`` extraction result."""

    product_id: str
    attribute: str
    value: str

    @property
    def pair(self) -> AttributeValuePair:
        """The product-independent pair carried by this triple."""
        return AttributeValuePair(self.attribute, self.value)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.product_id}, {self.attribute}, {self.value}>"


@dataclass(frozen=True, slots=True)
class Sentence:
    """A tokenized sentence tied back to its source product page.

    Attributes:
        product_id: page the sentence came from.
        index: 0-based sentence number within the page, used as a CRF
            feature (the paper's "sentence number" feature).
        tokens: the token sequence.
    """

    product_id: str
    index: int
    tokens: tuple[Token, ...]

    def texts(self) -> tuple[str, ...]:
        """Surface forms of all tokens."""
        return tuple(token.text for token in self.tokens)

    def pos_tags(self) -> tuple[str, ...]:
        """PoS tags of all tokens."""
        return tuple(token.pos for token in self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)


@dataclass(frozen=True, slots=True)
class TaggedSentence:
    """A sentence plus one BIO label per token."""

    sentence: Sentence
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.sentence):
            raise ValueError(
                f"label count {len(self.labels)} does not match "
                f"token count {len(self.sentence)}"
            )

    @property
    def product_id(self) -> str:
        return self.sentence.product_id

    def with_labels(self, labels: Sequence[str]) -> "TaggedSentence":
        """Return a copy carrying ``labels`` instead of the current ones."""
        return replace(self, labels=tuple(labels))

    def __len__(self) -> int:
        return len(self.sentence)


@dataclass(frozen=True, slots=True)
class Extraction:
    """A value occurrence located in a concrete sentence.

    Unlike :class:`Triple`, an extraction keeps its provenance (sentence
    and token span), which the cleaning modules need for veto rules such
    as the markup check.
    """

    product_id: str
    attribute: str
    value: str
    sentence_index: int
    start: int
    end: int  # exclusive token index

    @property
    def triple(self) -> Triple:
        """Drop provenance and return the bare triple."""
        return Triple(self.product_id, self.attribute, self.value)

    @property
    def token_count(self) -> int:
        return self.end - self.start


def unique_triples(extractions: Iterable[Extraction]) -> set[Triple]:
    """Collapse extractions to their distinct triples."""
    return {extraction.triple for extraction in extractions}


@dataclass(frozen=True, slots=True)
class ProductPage:
    """A product page as consumed by the pipeline.

    Attributes:
        product_id: unique page/product identifier.
        category: category name the page belongs to.
        html: raw HTML of the page (title, description, optional tables).
        locale: locale code of the page text (e.g. ``"ja"``, ``"de"``).
    """

    product_id: str
    category: str
    html: str
    locale: str


@dataclass(slots=True)
class Dataset:
    """A labelled dataset exchanged between bootstrap iterations.

    Attributes:
        tagged: sentences with BIO labels (training material).
        attributes: attribute names the labels may mention.
    """

    tagged: list[TaggedSentence] = field(default_factory=list)
    attributes: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.tagged)

    def labelled_token_count(self) -> int:
        """Number of tokens carrying a non-O label, across all sentences."""
        return sum(
            1
            for tagged in self.tagged
            for label in tagged.labels
            if label != "O"
        )
