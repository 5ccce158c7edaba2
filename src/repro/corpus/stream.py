"""Streaming page sources: shard-by-shard corpus iteration.

Materializing every page of a category before the pipeline starts is
fine at 120 products and fatal at the paper's 200k. A
:class:`PageSource` turns the corpus into an indexed sequence of
*shards*: bounded page batches that can be generated, loaded and
processed independently, so no stage ever holds the full page set.

Three sources cover the three ways a corpus exists:

* :class:`GeneratedPageSource` — synthetic pages generated on demand,
  one independent RNG substream per page. Accessing shards in any
  order (or twice, or under a different ``shard_size``) yields
  byte-identical pages. Note the substreams make this a *different*
  (equally deterministic) corpus than ``Marketplace.generate``, whose
  single sequential RNG cannot be entered mid-stream.
* :class:`JsonlPageSource` — a ``pages.jsonl`` file read in line
  ranges via byte offsets recorded in one initial scan; shard loads
  seek, they never re-read the whole file. Malformed rows follow the
  ingest policy vocabulary: ``strict`` raises a located
  :class:`~repro.errors.DatasetError`, ``repair``/``drop`` yield a
  ``check="jsonl"`` :class:`~repro.ingest.quarantine.QuarantineEntry`
  in the row's place so the run's ledger keeps its position.
* :class:`MaterializedPageSource` — an in-memory page list presented
  through the shard interface. No memory is saved; it is how a page
  list enters the bootstrap (``PAEPipeline.run`` wraps its pages as
  one shard), and how the same pages are re-run under other shard
  layouts for the bit-identity checks (the ``make verify`` smoke).

Every source carries a :meth:`~PageSource.fingerprint` — a stable
digest of the source identity — that the checkpoint layer folds into
its run fingerprint in place of hashing every page's HTML.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from typing import Iterator

from ..errors import ConfigError, DatasetError, ReproError, SchemaError
from ..ingest.quarantine import QuarantineEntry
from ..types import ProductPage
from .categories import HETEROGENEOUS_UNIONS, get_schema
from .io import _check_policy, _parse_row, _read_query_log, _row_policy_skip
from .pages import GeneratedPage, PageGenerator
from .querylog import QueryLog, build_query_log

#: A shard is a list of records: kept :class:`ProductPage` objects
#: interleaved (for file-backed sources) with
#: :class:`QuarantineEntry` placeholders for rows that failed to parse.
ShardRecord = ProductPage | QuarantineEntry


class PageSource:
    """Indexed shard access over one category's page corpus.

    Subclasses set :attr:`category`, :attr:`locale`, :attr:`shard_size`
    and :attr:`page_count`, and implement :meth:`shard` and
    :meth:`fingerprint`.
    """

    category: str
    locale: str
    shard_size: int
    page_count: int

    @property
    def shard_count(self) -> int:
        """Number of shards (last one may be short)."""
        if self.page_count == 0:
            return 0
        return -(-self.page_count // self.shard_size)

    def shard(self, index: int) -> list[ShardRecord]:
        """Records of one shard, in corpus order."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable digest of the source identity (checkpoint validity)."""
        raise NotImplementedError

    def iter_pages(self) -> Iterator[ProductPage]:
        """Every page, shard by shard (at most one shard resident)."""
        for index in range(self.shard_count):
            for record in self.shard(index):
                if isinstance(record, ProductPage):
                    yield record

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.shard_count:
            raise ConfigError(
                f"shard index {index} out of range "
                f"[0, {self.shard_count})"
            )

    def _shard_bounds(self, index: int) -> tuple[int, int]:
        start = index * self.shard_size
        return start, min(start + self.shard_size, self.page_count)


def _check_shard_size(shard_size: int) -> None:
    if shard_size < 1:
        raise ConfigError("shard_size must be >= 1")


class GeneratedPageSource(PageSource):
    """Generate one category's pages shard-by-shard, on demand.

    Each *page* owns an independent RNG substream seeded from
    ``(seed, category, n_products, "page", number)``, so shards can be
    produced in any order — or in parallel worker processes, or under
    a different ``shard_size`` — and every page always comes out
    byte-identical. Page ids stay globally numbered
    (``{category}_{00042}``) regardless of sharding. ``shard_size``
    still participates in :meth:`fingerprint`: per-shard tag
    snapshots are keyed by shard index, so a checkpoint must not
    resume under a different shard layout.

    Union categories interleave several generators through one shared
    RNG and shuffle at the end; that cannot be entered mid-stream, so
    they are rejected here.

    Args:
        category: a registered (non-union) schema name.
        n_products: total pages across all shards.
        shard_size: pages per shard.
        seed: master seed, same role as ``Marketplace(seed=...)``.
    """

    def __init__(
        self,
        category: str,
        n_products: int,
        shard_size: int = 1000,
        seed: int = 0,
    ):
        if n_products < 1:
            raise SchemaError("n_products must be >= 1")
        if category in HETEROGENEOUS_UNIONS:
            raise SchemaError(
                f"union category {category!r} cannot be streamed: its "
                "page mix is a single shuffled RNG stream; generate it "
                "materialized or stream its member categories"
            )
        _check_shard_size(shard_size)
        self._schema = get_schema(category)
        self.category = category
        self.locale = self._schema.locale
        self.n_products = n_products
        self.page_count = n_products
        self.shard_size = shard_size
        self.seed = seed

    def _shard_rng(self, token: object) -> random.Random:
        return random.Random(
            (self.seed, self.category, self.n_products, token).__repr__()
        )

    def shard_generated(self, index: int) -> list[GeneratedPage]:
        """One shard's pages with generator ground truth attached."""
        self._check_index(index)
        start, end = self._shard_bounds(index)
        return [
            PageGenerator(
                self._schema, self._shard_rng(("page", number))
            ).generate(f"{self.category}_{number:05d}")
            for number in range(start, end)
        ]

    def shard(self, index: int) -> list[ShardRecord]:
        return [
            generated.page for generated in self.shard_generated(index)
        ]

    def iter_generated(self) -> Iterator[GeneratedPage]:
        """Every generated page with ground truth, shard by shard."""
        for index in range(self.shard_count):
            yield from self.shard_generated(index)

    def build_query_log(self) -> QueryLog:
        """The category's query log, from a dedicated RNG substream.

        Scans every shard once for the stated truthful value keys
        (popularity weights), holding one shard of pages at a time.
        """
        stated_keys: list[str] = []
        for index in range(self.shard_count):
            for generated in self.shard_generated(index):
                stated_keys.extend(
                    triple.value for triple in generated.correct_triples
                )
        rng = self._shard_rng("querylog")
        return build_query_log(rng, stated_keys, self.locale)

    def fingerprint(self) -> str:
        body = json.dumps(
            [
                "generated",
                self.seed,
                self.category,
                self.n_products,
                self.shard_size,
            ]
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()


class MaterializedPageSource(PageSource):
    """Shard-interface view over pages already held in memory.

    Saves nothing; lets a page list run through the shard interface
    (one shard for ``PAEPipeline.run``, any shard size for the
    bit-identity checks).
    """

    def __init__(
        self,
        pages,
        shard_size: int = 1000,
        category: str = "",
        locale: str | None = None,
    ):
        _check_shard_size(shard_size)
        self._pages: tuple[ProductPage, ...] = tuple(pages)
        self.shard_size = shard_size
        self.page_count = len(self._pages)
        self.category = category or (
            self._pages[0].category if self._pages else ""
        )
        self.locale = locale or (
            self._pages[0].locale if self._pages else "ja"
        )

    def shard(self, index: int) -> list[ShardRecord]:
        self._check_index(index)
        start, end = self._shard_bounds(index)
        return list(self._pages[start:end])

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(f"materialized:{self.shard_size}".encode("utf-8"))
        for page in self._pages:
            for part in (
                page.product_id, page.category, page.locale, page.html
            ):
                digest.update(part.encode("utf-8"))
                digest.update(b"\x00")
        return digest.hexdigest()


class JsonlPageSource(PageSource):
    """Line-range shards over a ``pages.jsonl`` file.

    One initial scan counts rows and records the byte offset of every
    shard's first line; :meth:`shard` then seeks straight to its range
    and decodes ``shard_size`` rows. Row schema and defaults match
    :func:`repro.corpus.io.load_pages` (``product_id`` + ``html``
    required; ``category``/``locale`` defaulted), so a clean file
    streams to exactly the pages :func:`~repro.corpus.io.load_pages`
    returns.

    Args:
        path: a ``pages.jsonl`` file, or a directory containing one.
        shard_size: rows per shard.
        policy: bad-row handling — ``strict`` raises a located
            :class:`DatasetError`; ``repair``/``drop`` substitute a
            ``check="jsonl"`` :class:`QuarantineEntry` for the row.
        category: label for reporting (defaults to the file stem).
        locale: locale assumed for rows that omit one.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        shard_size: int = 1000,
        policy: str = "strict",
        category: str = "",
        locale: str = "ja",
    ):
        _check_shard_size(shard_size)
        _check_policy(policy)
        path = pathlib.Path(path)
        self.path = path / "pages.jsonl" if path.is_dir() else path
        if not self.path.exists():
            raise ReproError(f"no pages.jsonl at {path}")
        self.shard_size = shard_size
        self.policy = policy
        self.locale = locale
        self.category = category or self.path.stem
        self._offsets: list[int] = []
        count = 0
        with open(self.path, "rb") as handle:
            offset = handle.tell()
            for line in handle:
                if count % shard_size == 0:
                    self._offsets.append(offset)
                count += 1
                offset += len(line)
        self.page_count = count
        self._size = self.path.stat().st_size

    def shard(self, index: int) -> list[ShardRecord]:
        self._check_index(index)
        start, end = self._shard_bounds(index)
        records: list[ShardRecord] = []
        with open(self.path, "rb") as handle:
            handle.seek(self._offsets[index])
            for number in range(start + 1, end + 1):
                line = handle.readline().decode("utf-8")
                try:
                    record = _parse_row(
                        line, number, self.path, ("product_id", "html")
                    )
                except DatasetError as error:
                    records.append(_row_policy_skip(error, self.policy))
                    continue
                records.append(
                    ProductPage(
                        record["product_id"],
                        record.get("category", "unknown"),
                        record["html"],
                        record.get("locale", self.locale),
                    )
                )
        return records

    def query_log(self) -> QueryLog:
        """The sibling ``querylog.json``, or an empty log."""
        return _read_query_log(self.path.parent)

    def fingerprint(self) -> str:
        body = json.dumps(
            [
                "jsonl",
                str(self.path.resolve()),
                self._size,
                self.page_count,
                self.shard_size,
                self.policy,
            ]
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()
