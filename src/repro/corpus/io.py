"""Dataset serialization: JSONL on disk, real-data entry point.

A :class:`~repro.corpus.marketplace.CategoryDataset` round-trips through
a directory of JSON files:

* ``pages.jsonl`` — one page per line: product_id, category, locale,
  html, and (when known) the annotated correct/incorrect triples;
* ``querylog.json`` — query → count;
* ``meta.json`` — dataset name, locale, schema names.

This is also the adoption path for *real* data: write your product
pages into ``pages.jsonl`` (ground-truth fields optional), and
:func:`load_pages` returns what :class:`~repro.PAEPipeline.run` needs.
Schemas are resolved by name from the registry, so loaded synthetic
datasets keep their validators; real-data directories simply omit them.

Real crawl dumps contain garbage rows — truncated JSON, non-object
lines, missing keys. Both loaders route them through the same policy
vocabulary as the ingest gate: ``strict`` (default) raises a
:class:`~repro.errors.DatasetError` naming the file and 1-based line
number; ``repair``/``drop`` skip the row and, when a
:class:`~repro.ingest.Quarantine` ledger is passed, record it there
with ``check="jsonl"`` diagnostics.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator

from ..config import INGEST_POLICIES
from ..errors import ConfigError, DatasetError, ReproError
from ..types import ProductPage, Triple
from .categories import get_schema
from .marketplace import CategoryDataset, GeneratedPage
from .querylog import QueryLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ingest import Quarantine, QuarantineEntry

_FORMAT_VERSION = 1


def _triples_to_json(triples: Iterable[Triple]) -> list[list[str]]:
    return sorted(
        [t.product_id, t.attribute, t.value] for t in triples
    )


def _triples_from_json(rows: list[list[str]]) -> frozenset[Triple]:
    return frozenset(Triple(*row) for row in rows)


def save_dataset(
    dataset: CategoryDataset, directory: str | pathlib.Path
) -> None:
    """Write a dataset to ``directory`` (created if needed)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "pages.jsonl", "w", encoding="utf-8") as out:
        for generated in dataset.pages:
            record = {
                "product_id": generated.page.product_id,
                "category": generated.page.category,
                "locale": generated.page.locale,
                "html": generated.page.html,
                "correct_triples": _triples_to_json(
                    generated.correct_triples
                ),
                "incorrect_triples": _triples_to_json(
                    generated.incorrect_triples
                ),
                "assignment": dict(sorted(generated.assignment.items())),
            }
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    (directory / "querylog.json").write_text(
        json.dumps(dict(dataset.query_log.counts), ensure_ascii=False)
    )
    (directory / "meta.json").write_text(
        json.dumps(
            {
                "format_version": _FORMAT_VERSION,
                "name": dataset.name,
                "locale": dataset.locale,
                "schemas": [schema.name for schema in dataset.schemas],
            }
        )
    )


def _parse_row(
    line: str,
    number: int,
    path: pathlib.Path,
    required: tuple[str, ...],
) -> dict:
    """Decode one JSONL row, raising a located :class:`DatasetError`."""
    try:
        record = json.loads(line)
    except ValueError as error:
        raise DatasetError(
            f"malformed JSONL row: {error}", str(path), number
        ) from error
    if not isinstance(record, dict):
        raise DatasetError(
            f"JSONL row is not an object "
            f"(got {type(record).__name__})",
            str(path),
            number,
        )
    missing = [key for key in required if key not in record]
    if missing:
        raise DatasetError(
            f"JSONL row is missing required keys {missing}",
            str(path),
            number,
        )
    for key in required:
        if not isinstance(record[key], str):
            raise DatasetError(
                f"JSONL field {key!r} must be a string "
                f"(got {type(record[key]).__name__})",
                str(path),
                number,
            )
    return record


def _row_policy_skip(
    error: DatasetError, policy: str
) -> "QuarantineEntry":
    """Handle one bad row under the ingest policy vocabulary.

    ``strict`` re-raises; ``repair``/``drop`` (a serialized row has
    nothing to repair, so they behave identically here) skip the row
    and return the ``check="jsonl"`` ledger entry that stands for it.
    """
    if policy == "strict":
        raise error
    from ..ingest import QuarantineEntry

    return QuarantineEntry(
        page_id=f"line-{error.line}",
        check="jsonl",
        error=type(error).__name__,
        detail=str(error),
        source=error.path,
        line=error.line,
    )


def _read_query_log(directory: pathlib.Path) -> QueryLog:
    """The directory's ``querylog.json``, or an empty log."""
    query_path = directory / "querylog.json"
    return QueryLog(
        Counter(
            json.loads(query_path.read_text())
            if query_path.exists()
            else {}
        )
    )


def _check_policy(policy: str) -> None:
    if policy not in INGEST_POLICIES:
        raise ConfigError(
            f"policy must be one of {INGEST_POLICIES}, got {policy!r}"
        )


def iter_page_rows(
    pages_path: str | pathlib.Path,
    required: tuple[str, ...],
    policy: str = "strict",
    quarantine: "Quarantine | None" = None,
) -> Iterator[dict]:
    """Stream validated JSONL records one line at a time.

    The file is consumed lazily — one line resident at a time — so
    callers (the loaders below, :class:`~repro.corpus.stream.\
JsonlPageSource`) never re-materialize the file behind the streaming
    layer's back. Bad rows follow the ingest policy vocabulary via
    :func:`_row_policy_skip`.
    """
    _check_policy(policy)
    pages_path = pathlib.Path(pages_path)
    with open(pages_path, encoding="utf-8") as lines:
        for number, line in enumerate(lines, start=1):
            try:
                yield _parse_row(line, number, pages_path, required)
            except DatasetError as error:
                entry = _row_policy_skip(error, policy)
                if quarantine is not None:
                    quarantine.add(entry)


def load_dataset(
    directory: str | pathlib.Path,
    policy: str = "strict",
    quarantine: "Quarantine | None" = None,
) -> CategoryDataset:
    """Load a dataset saved by :func:`save_dataset`.

    Args:
        directory: the saved dataset directory.
        policy: bad-row handling — ``strict`` raises, ``repair``/
            ``drop`` skip the row (see the module docstring).
        quarantine: optional ledger skipped rows are recorded in.

    Raises:
        ReproError: when the directory is missing files or carries an
            unsupported format version.
        DatasetError: under ``strict``, for a row that is not valid
            JSON, not an object, or missing required keys — the error
            names the file and 1-based line number.
    """
    _check_policy(policy)
    directory = pathlib.Path(directory)
    meta_path = directory / "meta.json"
    pages_path = directory / "pages.jsonl"
    if not meta_path.exists() or not pages_path.exists():
        raise ReproError(f"no saved dataset at {directory}")
    meta = json.loads(meta_path.read_text())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported dataset format {meta.get('format_version')!r}"
        )
    pages = []
    required = ("product_id", "category", "html", "locale")
    for record in iter_page_rows(
        pages_path, required, policy, quarantine
    ):
        page = ProductPage(
            record["product_id"],
            record["category"],
            record["html"],
            record["locale"],
        )
        pages.append(
            GeneratedPage(
                page=page,
                correct_triples=_triples_from_json(
                    record.get("correct_triples", [])
                ),
                incorrect_triples=_triples_from_json(
                    record.get("incorrect_triples", [])
                ),
                assignment=dict(record.get("assignment", {})),
            )
        )
    schemas = tuple(
        get_schema(name) for name in meta.get("schemas", ())
    )
    if not schemas:
        raise ReproError(
            "dataset meta lists no schemas; use load_pages() for "
            "schema-free (real) page collections"
        )
    return CategoryDataset(
        name=meta["name"],
        locale=meta["locale"],
        pages=tuple(pages),
        query_log=_read_query_log(directory),
        schemas=schemas,
    )


def load_pages(
    path: str | pathlib.Path,
    policy: str = "strict",
    quarantine: "Quarantine | None" = None,
) -> tuple[list[ProductPage], QueryLog]:
    """Schema-free loader for real page collections.

    Args:
        path: a ``pages.jsonl`` file, or a directory containing one
            (plus an optional ``querylog.json``).
        policy: bad-row handling — ``strict`` raises, ``repair``/
            ``drop`` skip the row (see the module docstring).
        quarantine: optional ledger skipped rows are recorded in.

    Returns:
        ``(pages, query_log)`` ready for
        :meth:`~repro.PAEPipeline.run`. Ground-truth fields in the
        records, if any, are ignored.

    Raises:
        DatasetError: under ``strict``, for a malformed row — the
            error names the file and 1-based line number.
    """
    _check_policy(policy)
    path = pathlib.Path(path)
    directory = path if path.is_dir() else path.parent
    pages_path = path / "pages.jsonl" if path.is_dir() else path
    if not pages_path.exists():
        raise ReproError(f"no pages.jsonl at {path}")
    pages: list[ProductPage] = []
    for record in iter_page_rows(
        pages_path, ("product_id", "html"), policy, quarantine
    ):
        pages.append(
            ProductPage(
                record["product_id"],
                record.get("category", "unknown"),
                record["html"],
                record.get("locale", "ja"),
            )
        )
    return pages, _read_query_log(directory)
