"""Render the published benchmark table from committed ``bench`` records.

::

    python3 tools/bench_table.py           # print the table
    python3 tools/bench_table.py --write   # rewrite it into EXPERIMENTS.md

The records are untraced ``python3 -m bench run`` records at the
default seed, one per workload of ``BENCHMARK.json``, committed
verbatim as ``docs/bench/<workload>.json``. The table has one row per
workload: the seven end-to-end metrics (units from ``BENCHMARK.json``),
whether the triples digest was checked against the pin, the record's
core count and code revision. ``--write`` replaces the text between
``<!-- bench:begin -->`` and ``<!-- bench:end -->`` in EXPERIMENTS.md;
``tests/test_doc_numbers.py`` fails when that text drifts from the
records. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS_DIR = REPO_ROOT / "docs" / "bench"
EXPERIMENTS = REPO_ROOT / "EXPERIMENTS.md"
BEGIN, END = "<!-- bench:begin -->", "<!-- bench:end -->"


def load_records() -> tuple[dict, list[dict]]:
    """``BENCHMARK.json`` and the committed records, in workload order."""
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    records = [
        json.loads((RECORDS_DIR / f"{workload['name']}.json").read_text())
        for workload in benchmark["workloads"]
    ]
    return benchmark, records


def render(benchmark: dict, records: list[dict]) -> str:
    """The markdown table: workload x end-to-end metrics + provenance."""
    metrics = benchmark["end_to_end"]
    header = [
        "workload",
        *(f"`{metric['name']}` ({metric['unit']})" for metric in metrics),
        "digest checked",
        "`cpu_count`",
        "`git_rev`",
    ]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for record in records:
        environment = record["environment"]
        # Serve workloads check every answer against an in-process
        # reference instead of a triples digest.
        checked = {True: "yes", False: "no", None: "n/a"}[
            record.get("digest_checked")
        ]
        values = record["metrics"]
        cells = [
            f"`{record['workload']}`",
            *(f"{values[metric['name']]:.4g}" for metric in metrics),
            checked,
            str(environment["cpu_count"]),
            f"`{environment['git_rev'][:7]}`",
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def splice(text: str, table: str) -> str:
    """``text`` with the block between the markers replaced by ``table``."""
    if text.count(BEGIN) != 1 or text.count(END) != 1:
        raise ValueError(f"expected one {BEGIN} ... {END} block")
    head, _, rest = text.partition(BEGIN)
    _, _, tail = rest.partition(END)
    return f"{head}{BEGIN}\n{table}\n{END}{tail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/bench_table.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--write", action="store_true",
        help="rewrite the bench block of EXPERIMENTS.md instead of "
        "printing the table",
    )
    args = parser.parse_args(argv)
    table = render(*load_records())
    if args.write:
        EXPERIMENTS.write_text(splice(EXPERIMENTS.read_text(), table))
        print(f"bench table written to {EXPERIMENTS}")
    else:
        print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
