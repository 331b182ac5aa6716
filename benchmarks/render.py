"""The documents that restate a table, rendered from it.

    python -m benchmarks.render

writes EXPERIMENTS.md from the rows of ``benchmarks/experiments.py``
and, in docs/PERFORMANCE.md, the block between the trajectory markers
from ``benchmarks/trajectory.json``.  A section is its row: the paper's
sentence and the note are the row's ``paper`` and ``note``, and every
measured value is printed from ``expect``.  A trajectory line is its
row's ``what``, ``claim`` and ``verdict``, and its last column is
computed from the medians, quartiles and cost blocks of the row and of
what it is compared with: the parent measured beside it (``parent``)
or the row above.  ``tests/integration/test_docs_consistency.py``
fails while a file differs from its render.
"""

from __future__ import annotations

import json
import math
import sys

from benchmarks.trajectory import REPO, TRAJECTORY

EXPERIMENTS_MD = REPO / "EXPERIMENTS.md"
PERFORMANCE_MD = REPO / "docs" / "PERFORMANCE.md"
BEGIN = "<!-- trajectory: rendered by `python -m benchmarks.render` from trajectory.json -->\n"
END = "<!-- trajectory: end -->\n"

HEAD = """\
# EXPERIMENTS — paper vs. measured

Rendered from the rows of `benchmarks/experiments.py` by
`python -m benchmarks.render`: edit a row, then render.  A section is
one row — what the paper says, every quantity the row observes with the
value it must equal (or, in words, what it must satisfy), and how the
row tests it.  `PYTHONPATH=src:. python -m pytest benchmarks/ -q -s`
checks every value below (`-k F5`, one row).  The values are counts,
bytes, digests, verdicts and simulated time, the same on every machine
for one seed; what the code costs in wall time is the realm ledger's
(`benchmarks/ledger/`, docs/PERFORMANCE.md).
"""
COLUMNS = ("PR", "commit", "what changed", "claimed",
           "against the parent measured beside it, or else the row above: the claimed "
           "metric's median [quartiles] → this row's, or each workload's `ops_per_s`; "
           "calls per op, Python / C")


# -- EXPERIMENTS.md ----------------------------------------------------------


def cell(value) -> str:
    """A value as the table shows it: a string as code, a ``Holds`` as
    its text, anything else as its repr."""
    return f"`{value}`" if isinstance(value, str) else repr(value)


def table(head, lines) -> list:
    return ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)] + [
        "| " + " | ".join(line) + " |" for line in lines]


def nested(name: str, values: dict) -> list:
    """A dict of quantities as one table: a row per key, with a column
    per inner key when every value is itself a dict."""
    if all(isinstance(v, dict) for v in values.values()):
        columns = list(dict.fromkeys(c for inner in values.values() for c in inner))
        return table((name, *map(cell, columns)), [
            (cell(key), *(cell(inner[c]) if c in inner else "" for c in columns))
            for key, inner in values.items()])
    return table((name, "expected"), [(cell(k), cell(v)) for k, v in values.items()])


def section(row) -> list:
    expect = row.expect
    if len(expect) > 1 and all(isinstance(v, dict) for v in expect.values()):
        expect = {"case": expect}  # cases side by side, one table
    flat = [(cell(name), cell(v)) for name, v in expect.items() if not isinstance(v, dict)]
    out = [f"## {row.id} — {row.anchor}", "", f"**Paper:** {row.paper}", ""]
    if flat:
        out += table(("quantity", "expected"), flat) + [""]
    for name, values in expect.items():
        if isinstance(values, dict):
            out += nested(cell(name), values) + [""]
    return out + ([row.note, ""] if row.note else [])


def render_experiments(rows=None) -> str:
    if rows is None:
        from benchmarks.experiments import EXPERIMENTS as rows
    body = [line for row in rows for line in ["---", "", *section(row)]]
    return HEAD + "\n" + "\n".join(body).rstrip("\n") + "\n"


# -- docs/PERFORMANCE.md's trajectory block ------------------------------------


def num(x: float) -> str:
    """Four significant digits, thousands separated."""
    places = max(0, 3 - math.floor(math.log10(abs(x)))) if x else 0
    return f"{x:,.{places}f}"


def spread(block: dict) -> str:
    q = f" [{num(block['q1'])}–{num(block['q3'])}]" if "q1" in block else ""
    return num(block["median"]) + q


def calls(block: dict) -> str:
    cost = block["cost"]
    return f"{num(cost['python_calls_per_op'])} / {num(cost['c_calls_per_op'])}"


def moved(row: dict, above: dict) -> str:
    """The workloads whose calls per op moved since the row above."""
    changed = [f"{name} {calls(above['workloads'][name])} → {calls(block)}"
               for name, block in row["workloads"].items()
               if calls(block) != calls(above["workloads"][name])]
    if not changed:
        return "calls unchanged"
    rest = "" if len(changed) == len(row["workloads"]) else ", the rest unchanged"
    return "calls " + ", ".join(changed) + rest


def trajectory_cell(row: dict, above) -> str:
    base = row.get("parent") or above
    where = f"`{base['commit'][:7]}`, same session: " if "parent" in row else (
        f"row {above['pr']}: " if above else "")
    if row["claim"]:
        metric, name = row["claim"]["metric"], row["claim"]["workload"]
        this, that = row["workloads"][name][metric], base["workloads"][name][metric]
        body = (f"{where}{spread(that)} → {spread(this)}, "
                f"×{this['median'] / that['median']:.3f}; calls "
                f"{calls(above['workloads'][name])} → {calls(row['workloads'][name])}")
    else:
        parent = row.get("parent")
        rates = ", ".join(
            f"{name} " + (f"{num(parent['workloads'][name]['ops_per_s']['median'])} → "
                          if parent else "") + num(block["ops_per_s"]["median"])
            for name, block in row["workloads"].items())
        body = (where if parent else "") + f"`ops_per_s` {rates}" + (
            f"; {moved(row, above)}" if above else "")
    return " — ".join(filter(None, (row["verdict"], body)))


def render_trajectory(rows=None) -> str:
    if rows is None:
        rows = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    lines = table(COLUMNS, [
        (str(row["pr"]), f"`{row['commit'][:7]}{'+' * row['commit'].endswith('+')}`",
         row["what"],
         "`{workload}` `{metric}` {text}".format(**row["claim"]) if row["claim"] else "none",
         trajectory_cell(row, rows[k - 1] if k else None))
        for k, row in enumerate(rows)])
    return BEGIN + "\n".join(lines) + "\n" + END


def splice(text: str, block: str) -> str:
    """``text`` with its trajectory block replaced by ``block``."""
    head, rest = text.split(BEGIN, 1)
    return head + block + rest.split(END, 1)[1]


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))  # the rows import ``repro``
    EXPERIMENTS_MD.write_text(render_experiments(), encoding="utf-8")
    text = PERFORMANCE_MD.read_text(encoding="utf-8")
    PERFORMANCE_MD.write_text(splice(text, render_trajectory()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
