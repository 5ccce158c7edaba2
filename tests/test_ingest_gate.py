"""Unit tests for the ingest gate: checks, policies, repairs, ledger."""

import time

import pytest

from repro.config import HealthConfig, IngestConfig
from repro.errors import ConfigError, HtmlLimitError, PageQuarantinedError
from repro.ingest import (
    FIXABLE_CHECKS,
    IngestGate,
    Quarantine,
    QuarantineEntry,
)
from repro.ingest.gate import _parse_budget
from repro.types import ProductPage


def page(pid: str, html: str) -> ProductPage:
    return ProductPage(
        product_id=pid, category="cam", html=html, locale="ja"
    )


CLEAN = page(
    "clean",
    "<html><body><table><tr><td>Brand</td><td>Canon&nbsp;X</td></tr>"
    "</table><br>A &amp; B</body></html>",
)
TRUNCATED = page("trunc", "<html><body><table><tr><td cla")
MOJIBAKE = page("moji", "<html><body>caf�� latte</body></html>")
ENTITY = page(
    "entity", "<html><body>" + "&#zz;&;&&" * 10 + "</body></html>"
)
UNCLOSED = page("unclosed", "<html><body>x</body></html>" + "<div>" * 24)
DUPLICATE = page("clean", "<html><body>duplicate</body></html>")
MEGA = page("mega", "<div>" + "x" * 1_100_000 + "</div>")
DEEP = page("deep", "<i>" * 120 + "x")

ALL = [CLEAN, TRUNCATED, MOJIBAKE, ENTITY, UNCLOSED, DUPLICATE, MEGA, DEEP]


# -- per-check detection -------------------------------------------------


@pytest.mark.parametrize(
    "bad, check",
    [
        (TRUNCATED, "truncated_markup"),
        (MOJIBAKE, "mojibake"),
        (ENTITY, "entity_garbage"),
        (UNCLOSED, "unclosed_tags"),
        (MEGA, "page_bytes"),
        (DEEP, "unclosed_tags"),  # flagged before parse under drop
    ],
)
def test_drop_quarantines_each_pathology(bad, check):
    result = IngestGate(IngestConfig(policy="drop")).process([CLEAN, bad])
    assert [p.product_id for p in result.pages] == ["clean"]
    assert result.quarantine.counts_by_check() == {check: 1}
    assert not result.repaired


def test_duplicate_id_quarantines_second_occurrence_only():
    result = IngestGate(IngestConfig(policy="drop")).process(
        [CLEAN, DUPLICATE]
    )
    assert len(result.pages) == 1
    assert result.pages[0].html == CLEAN.html
    (entry,) = result.quarantine.entries
    assert entry.check == "duplicate_id"
    assert entry.page_id == "clean"


def test_clean_pages_pass_untouched_under_every_policy():
    for policy in ("strict", "repair", "drop"):
        result = IngestGate(IngestConfig(policy=policy)).process([CLEAN])
        assert result.pages == [CLEAN]
        assert result.pages[0] is CLEAN  # not even rebuilt
        assert not result.quarantine
        assert not result.repaired


# -- policies ------------------------------------------------------------


def test_strict_raises_with_diagnostics():
    with pytest.raises(PageQuarantinedError) as excinfo:
        IngestGate(IngestConfig(policy="strict")).process(
            [CLEAN, TRUNCATED]
        )
    assert excinfo.value.page_id == "trunc"
    assert excinfo.value.check == "truncated_markup"


def test_repair_fixes_fixable_and_quarantines_the_rest():
    result = IngestGate(IngestConfig(policy="repair")).process(ALL)
    kept = [p.product_id for p in result.pages]
    assert kept == ["clean", "trunc", "moji", "entity", "unclosed"]
    assert result.repaired == {
        "truncated_markup": 1,
        "mojibake": 1,
        "entity_garbage": 1,
        "unclosed_tags": 1,
    }
    assert set(result.repaired) <= set(FIXABLE_CHECKS)
    # mega/deep/duplicate cannot be repaired
    assert result.quarantine.counts_by_check() == {
        "duplicate_id": 1,
        "page_bytes": 1,
        "open_depth": 1,
    }
    assert result.pages_in == len(ALL)
    assert result.repaired_total == 4


def test_repaired_pages_are_normalized():
    result = IngestGate(IngestConfig(policy="repair")).process(
        [TRUNCATED, MOJIBAKE, ENTITY, UNCLOSED]
    )
    by_id = {p.product_id: p for p in result.pages}
    assert not by_id["trunc"].html.endswith("cla")
    assert "�" not in by_id["moji"].html
    assert "&;" not in by_id["entity"].html
    assert by_id["unclosed"].html.endswith("</div>" * 24)
    # A second pass over repaired pages is a no-op: repair converges.
    again = IngestGate(IngestConfig(policy="repair")).process(
        result.pages
    )
    assert again.pages == result.pages
    assert not again.repaired


def test_deep_page_hits_open_depth_under_repair():
    # Repair closes the tags, but the parse-depth guard still rejects.
    result = IngestGate(IngestConfig(policy="repair")).process([DEEP])
    assert not result.pages
    assert result.quarantine.counts_by_check() == {"open_depth": 1}


def test_table_rows_bound():
    rows = "".join(
        f"<tr><td>a{i}</td><td>b{i}</td></tr>" for i in range(30)
    )
    big = page("rows", f"<table>{rows}</table>")
    config = IngestConfig(policy="drop", max_table_rows=20)
    result = IngestGate(config).process([big])
    assert result.quarantine.counts_by_check() == {"table_rows": 1}
    relaxed = IngestConfig(policy="drop", max_table_rows=50)
    assert IngestGate(relaxed).process([big]).pages == [big]


def test_byte_offset_diagnostics():
    result = IngestGate(IngestConfig(policy="drop")).process(
        [TRUNCATED, MOJIBAKE]
    )
    offsets = {
        entry.check: entry.byte_offset for entry in result.quarantine
    }
    assert offsets["truncated_markup"] == TRUNCATED.html.rfind("<")
    assert offsets["mojibake"] == MOJIBAKE.html.find("�")


# -- ledger --------------------------------------------------------------


def test_quarantine_round_trips_and_digests():
    result = IngestGate(IngestConfig(policy="drop")).process(ALL)
    ledger = result.quarantine
    clone = Quarantine.from_payload(ledger.to_payload())
    assert clone == ledger
    assert clone.digest() == ledger.digest()
    assert clone.page_ids() == ledger.page_ids()
    other = Quarantine(
        [QuarantineEntry("x", "jsonl", "DatasetError", "boom")]
    )
    assert other != ledger
    assert other.digest() != ledger.digest()


# -- config validation ---------------------------------------------------


def test_ingest_config_validates():
    with pytest.raises(ConfigError):
        IngestConfig(policy="lenient")
    with pytest.raises(ConfigError):
        IngestConfig(max_page_bytes=0)
    with pytest.raises(ConfigError):
        IngestConfig(max_dom_depth=0)
    with pytest.raises(ConfigError):
        IngestConfig(parse_budget_seconds=-1.0)


def test_health_config_validates():
    with pytest.raises(ConfigError):
        HealthConfig(max_rejection_rate=1.5)
    with pytest.raises(ConfigError):
        HealthConfig(yield_collapse_ratio=-0.1)
    with pytest.raises(ConfigError):
        HealthConfig(min_rejection_sample=0)


# -- parse budget machinery ----------------------------------------------


def test_parse_budget_zero_is_noop():
    with _parse_budget(0.0):
        pass


def test_parse_budget_overrun_is_counted_on_main_thread():
    """One budget everywhere: the post-hoc check rejects and counts an
    overrun on the main thread exactly as on worker threads."""
    warnings: dict[str, int] = {}
    with pytest.raises(HtmlLimitError) as error:
        with _parse_budget(0.01, warnings):
            time.sleep(0.05)
    assert error.value.limit == "parse_seconds"
    assert warnings == {"parse_budget_soft": 1}
