"""``python -m bench compare BASE_DIR CHANGE_DIR``: the claim rule.

Both directories hold result records written by ``python -m bench run
--out DIR`` (``DIR/records/*.json``). Only untraced records count. For
each workload and end-to-end metric the report gives each side's
median and quartiles and the pairs the change won out of the pairs run
(records paired in the order they were made, ties counting for
neither), then a verdict:

``better``      at least ten pairs ran, the change won at least nine
                tenths of them, and the medians differ by more than
                the base's quartile spread;
``worse>bound`` the change's median is worse than the base's by more
                than the metric's bound in ``BENCHMARK.json``;
``unresolved``  the base's quartile spread is wider than the bound and
                not every change run beats every base run;
``same``        otherwise.

The exit status is 1 when any metric is ``worse>bound``.
"""

from __future__ import annotations

import json
import pathlib
import statistics

#: Fewest alternating pairs on which a gain may be claimed.
MIN_PAIRS = 10


def load_records(directory: str | pathlib.Path) -> dict[str, list[dict]]:
    """Untraced records per workload, in the order they were made."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(pathlib.Path(directory, "records").glob("*.json")):
        record = json.loads(path.read_text())
        if not record.get("traced"):
            by_workload.setdefault(record["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=lambda record: record["finished_ns"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's runs on both sides (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if sign * (c - b) > 0)
    worsening = sign * (bm - cm) / abs(bm) if bm else 0.0
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    flags = []
    if worsening > bound:
        flags.append("worse>bound")
    if spread > bound and not all_better:
        flags.append("unresolved")
    if not flags:
        gained = (
            len(pairs) >= MIN_PAIRS
            and won >= 0.9 * len(pairs)
            and sign * (cm - bm) > (b3 - b1)
        )
        flags.append("better" if gained else "same")
    return {
        "base": (b1, bm, b3),
        "change": (c1, cm, c3),
        "won": won,
        "pairs": len(pairs),
        "flags": flags,
    }


def compare(base_dir, change_dir, benchmark: dict) -> tuple[list[str], bool]:
    """Report lines and whether any metric worsened beyond its bound."""
    base = load_records(base_dir)
    change = load_records(change_dir)
    lines = []
    regressed = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in base or workload not in change:
            lines.append(f"{workload:<11} (no records on both sides)")
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            result = verdict(
                [record["metrics"][name] for record in base[workload]],
                [record["metrics"][name] for record in change[workload]],
                metric["better"],
                metric["bound"],
            )
            regressed |= "worse>bound" in result["flags"]
            b1, bm, b3 = result["base"]
            c1, cm, c3 = result["change"]
            lines.append(
                f"{workload:<11} {name:<12} base {bm:.5g} [{b1:.5g}, {b3:.5g}]  "
                f"change {cm:.5g} [{c1:.5g}, {c3:.5g}]  "
                f"won {result['won']}/{result['pairs']}  {' '.join(result['flags'])}"
            )
    return lines, regressed
