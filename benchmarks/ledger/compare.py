"""``python -m benchmarks.ledger compare BASE.json CAND.json [more pairs]``.

Each file is a ledger written with ``--out``.  Pairs are (base,
candidate); give several pairs, from alternating runs, to compare
medians.  For every end-to-end metric × workload the bound stored in
``BENCHMARK.json`` decides:

* ``ok`` — the candidate's median is not worse than the base's by more
  than the bound;
* ``REGRESSION`` — it is;
* ``unresolved`` — the base runs themselves spread (first to third
  quartile, as a share of their median) wider than the bound, and the
  candidate did not beat every base run, so the data cannot tell.

A rise in ``failed_share`` is always a regression.  Exit status is
non-zero when any row regressed.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence


def _spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(
    base: Sequence[float], cand: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    higher = better == "higher"
    base_median = statistics.median(base)
    cand_median = statistics.median(cand)
    change = (cand_median - base_median) / base_median
    worse = -change if higher else change
    beats_all = (
        min(cand) > max(base) if higher else max(cand) < min(base)
    )
    spread = _spread(base)
    if spread > bound:
        word = "ok" if beats_all else "unresolved"
    else:
        word = "REGRESSION" if worse > bound else "ok"
    return {
        "verdict": word, "base": base_median, "cand": cand_median,
        "change": change, "base_spread": spread,
    }


def compare(spec: dict, pairs: List[Sequence[dict]]) -> int:
    """Print one row per workload; return the process exit status."""
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [
            (base["workloads"].get(workload), cand["workloads"].get(workload))
            for base, cand in pairs
        ]
        runs = [(b, c) for b, c in runs if b is not None and c is not None]
        if not runs:
            print(f"{workload:14s} (not in both ledgers)")
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result = verdict(
                [b["end_to_end"][name]["value"] for b, _c in runs],
                [c["end_to_end"][name]["value"] for _b, c in runs],
                metric["better"], metric["bound"],
            )
            regressed = regressed or result["verdict"] == "REGRESSION"
            cells.append(
                f"{name} {result['base']:.4g}->{result['cand']:.4g} "
                f"({100 * result['change']:+.1f}%, bound "
                f"{100 * metric['bound']:.0f}%, base spread "
                f"{100 * result['base_spread']:.1f}%) {result['verdict']}"
            )
        base_failed = statistics.median(b["failed_share"] for b, _c in runs)
        cand_failed = statistics.median(c["failed_share"] for _b, c in runs)
        rose = cand_failed > base_failed
        regressed = regressed or rose
        cells.append(
            f"failed_share {base_failed:.4g}->{cand_failed:.4g} "
            f"{'REGRESSION' if rose else 'ok'}"
        )
        print(f"{workload:14s} " + "\n               ".join(cells))
    print("compare: " + ("REGRESSION" if regressed else "no regression"))
    return 1 if regressed else 0


def main(spec: dict, files: Sequence[str]) -> int:
    if len(files) < 2 or len(files) % 2:
        raise SystemExit("compare needs (base, candidate) pairs of ledger files")
    ledgers = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            ledgers.append(json.load(fh))
    return compare(spec, list(zip(ledgers[0::2], ledgers[1::2])))
