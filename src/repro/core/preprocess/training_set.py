"""Training-set generation (line 5 of Figure 1).

The seed tags "an initial set of products (the few ones with dictionary
tables)": every sentence of a table-bearing page is scanned for seed
values; hits become BIO spans. Pages without tables form the unlabeled
pool the bootstrap tagger will expand into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ...nlp.bio import encode_bio
from ...types import TaggedSentence, Triple
from ..text import PageText
from .candidate_discovery import RawCandidate
from .matcher import ValueMatcher
from .seed import Seed


@dataclass(frozen=True)
class TrainingMaterial:
    """The initial labelled dataset plus the unlabeled pool.

    Attributes:
        labeled_pages: tokenized table-bearing pages.
        labeled: their sentences with seed-derived BIO labels (all-O
            sentences included — negative evidence matters).
        unlabeled_pages: tokenized pages without dictionary tables.
        text_triples: triples implied by the labelled spans.
    """

    labeled_pages: tuple[PageText, ...]
    labeled: tuple[TaggedSentence, ...]
    unlabeled_pages: tuple[PageText, ...]
    text_triples: frozenset[Triple]


def page_table_preferences(
    candidates: Sequence[RawCandidate],
    seed: Seed,
) -> dict[str, dict[str, str]]:
    """Per-page value→attribute evidence from the page's own table."""
    preferences: dict[str, dict[str, str]] = {}
    for candidate in candidates:
        canonical = seed.clusters.resolve(candidate.attribute)
        if canonical is None:
            continue
        if candidate.value_key in seed.values.get(canonical, ()):
            preferences.setdefault(candidate.product_id, {})[
                candidate.value_key
            ] = canonical
    return preferences


def seed_matcher(seed: Seed) -> ValueMatcher:
    """The deterministic seed-value matcher used for initial tagging."""
    return ValueMatcher(
        {
            attribute: sorted(counter)
            for attribute, counter in seed.values.items()
        }
    )


def label_page(
    page_text: PageText,
    matcher: ValueMatcher,
    prefer: dict[str, str],
) -> tuple[list[TaggedSentence], set[Triple]]:
    """Seed-tag one table-bearing page's sentences.

    The per-page unit of :func:`build_training_material`, factored out
    so the bootstrap can label shard-resident pages without
    holding the whole corpus (:mod:`repro.core.sharded`). Deterministic
    per page, so page order alone fixes the global labelled dataset.
    """
    labeled: list[TaggedSentence] = []
    text_triples: set[Triple] = set()
    for sentence in page_text.sentences:
        spans = matcher.find_spans(sentence.texts(), prefer)
        labels = encode_bio(len(sentence), spans)
        labeled.append(TaggedSentence(sentence, tuple(labels)))
        for start, end, attribute in spans:
            value_key = " ".join(sentence.texts()[start:end])
            text_triples.add(
                Triple(page_text.product_id, attribute, value_key)
            )
    return labeled, text_triples


def build_training_material(
    page_texts: Sequence[PageText],
    seed: Seed,
    candidates: Sequence[RawCandidate],
) -> TrainingMaterial:
    """Tag table-bearing pages with the seed.

    Args:
        page_texts: tokenized pages (all of them).
        seed: the assembled seed.
        candidates: raw table rows (identify table pages and provide
            page-local disambiguation evidence).
    """
    matcher = seed_matcher(seed)
    preferences = page_table_preferences(candidates, seed)
    table_page_ids = {candidate.product_id for candidate in candidates}

    labeled_pages: list[PageText] = []
    unlabeled_pages: list[PageText] = []
    labeled: list[TaggedSentence] = []
    text_triples: set[Triple] = set()
    for page_text in page_texts:
        if page_text.product_id not in table_page_ids:
            unlabeled_pages.append(page_text)
            continue
        labeled_pages.append(page_text)
        page_labeled, page_triples = label_page(
            page_text,
            matcher,
            preferences.get(page_text.product_id, {}),
        )
        labeled.extend(page_labeled)
        text_triples.update(page_triples)
    return TrainingMaterial(
        labeled_pages=tuple(labeled_pages),
        labeled=tuple(labeled),
        unlabeled_pages=tuple(unlabeled_pages),
        text_triples=frozenset(text_triples),
    )
