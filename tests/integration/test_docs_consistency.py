"""Documentation self-consistency: references in the docs must be real.

CLAIMS.md points at tests, DESIGN.md and EXPERIMENTS.md at the rows of
``benchmarks/experiments.py``, README at example scripts — a rename
anywhere must fail here rather than rot silently.  EXPERIMENTS.md and
PERFORMANCE.md's trajectory block are renders (``benchmarks/render.py``)
and must equal them.
"""

import dataclasses
import json
import re
from pathlib import Path

from benchmarks import render, trajectory
from tests.lint.harness import rule_test

ROOT = Path(__file__).resolve().parents[2]


class TestClaimsReferences:
    def test_every_test_reference_exists(self):
        text = (ROOT / "docs" / "CLAIMS.md").read_text()
        refs = set(
            re.findall(r"`((?:\w+/)+test_\w+\.py)(?:::(\w+(?:::\w+)?))?`", text)
        )
        assert len(refs) > 50  # the matrix is substantial
        problems = []
        for path, selector in sorted(refs):
            full = ROOT / "tests" / path
            if not full.exists():
                problems.append(f"missing test file: {path}")
                continue
            if selector:
                name = selector.split("::")[-1]
                if name not in full.read_text():
                    problems.append(f"{path}: no symbol {name}")
        assert not problems, problems


def row_ids():
    from benchmarks.experiments import EXPERIMENTS

    return [row.id for row in EXPERIMENTS]


def design_index(text):
    """The experiment ids of DESIGN.md's per-experiment index, in order."""
    section = text.split("\n## 4. Per-experiment index", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| (\w+) \|", section, re.MULTILINE)


def experiment_sections(text):
    """The ids of EXPERIMENTS.md's ``## <id> — `` sections, in order."""
    return re.findall(r"^## (\w+) — ", text, re.MULTILINE)


def stray_ids(where, documented, rows):
    """Ids a document names twice, or that are no row."""
    return [f"{where} names {i} twice" for i in sorted({i for i in documented
                                                          if documented.count(i) > 1})] \
        + [f"{where} names {i}, which is no row" for i in sorted(set(documented) - set(rows))]


def id_mismatches(where, documented, rows):
    """What keeps a document's ids and the table's rows from matching
    one to one."""
    return stray_ids(where, documented, rows) \
        + [f"row {i} is missing from {where}" for i in sorted(set(rows) - set(documented))]


def planted(ids):
    """Each way a document's ids can drift from the rows."""
    return {"an id left out": ids[1:], "an id twice": ids + ids[-1:],
            "an id that is no row": ids[:-1] + ["F99"]}


class TestDesignReferences:
    """DESIGN.md's per-experiment index names each row of
    ``benchmarks/experiments.py`` once."""

    def test_every_bench_target_exists(self):
        index = design_index((ROOT / "DESIGN.md").read_text())
        assert len(index) >= 30
        assert not stray_ids("DESIGN.md", index, row_ids())

    def test_every_bench_file_is_in_design(self):
        index = design_index((ROOT / "DESIGN.md").read_text())
        assert not id_mismatches("DESIGN.md", index, row_ids())

    def test_a_planted_mismatch_is_caught(self):
        index = design_index((ROOT / "DESIGN.md").read_text())
        for what, bad in planted(index).items():
            assert id_mismatches("DESIGN.md", bad, row_ids()), what

    def test_every_module_in_inventory_imports(self):
        text = (ROOT / "DESIGN.md").read_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        import importlib

        failures = []
        for name in sorted(modules):
            try:
                importlib.import_module(name)
                continue
            except ImportError:
                pass
            # Dotted references to a function/class: import the parent
            # and look the attribute up.
            parent, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(parent)
            except ImportError:
                failures.append(name)
                continue
            if not hasattr(module, attr):
                failures.append(name)
        assert not failures, failures


class TestReadmeReferences:
    def test_example_table_matches_disk(self):
        text = (ROOT / "README.md").read_text()
        documented = set(re.findall(r"`(\w+\.py)`", text))
        on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
        # Every example on disk beyond the quickstart table must at least
        # run (covered elsewhere); here: nothing documented is missing.
        missing = {d for d in documented if d.endswith(".py")} - on_disk
        assert not missing, missing


class TestExperimentsCoverage:
    """EXPERIMENTS.md has one ``## <id> — `` section per row."""

    def test_every_figure_has_a_section(self):
        sections = experiment_sections((ROOT / "EXPERIMENTS.md").read_text())
        for exp in ["F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
                    "F10", "F11", "F12", "F13", "NFS", "S9", "X1",
                    "C1", "T1", "L1", "P1"]:
            assert exp in sections, exp
        assert not id_mismatches("EXPERIMENTS.md", sections, row_ids())

    def test_a_planted_mismatch_is_caught(self):
        sections = experiment_sections((ROOT / "EXPERIMENTS.md").read_text())
        for what, bad in planted(sections).items():
            assert id_mismatches("EXPERIMENTS.md", bad, row_ids()), what

    def test_the_file_is_its_render(self):
        assert render.EXPERIMENTS_MD.read_text(encoding="utf-8") == render.render_experiments()

    def test_a_changed_expected_value_is_caught(self):
        """F13's staleness as the hand-kept file once quoted it."""
        from benchmarks.experiments import EXPERIMENTS

        rows = [dataclasses.replace(row, expect={**row.expect, "worst_staleness_s": 3600.0})
                if row.id == "F13" else row for row in EXPERIMENTS]
        assert render.EXPERIMENTS_MD.read_text(encoding="utf-8") != render.render_experiments(rows)


class TestScenarioCatalogue:
    def test_operations_names_every_campaign(self):
        import repro.scenarios as scenarios

        text = (ROOT / "docs" / "OPERATIONS.md").read_text()
        section = text.split("\n## 7. ", 1)[1].split("\n## ", 1)[0]
        missing = [n for n in scenarios.names() if f"`{n}`" not in section]
        assert not missing, missing


class TestRemovedNames:
    """Removed names are ``tests/lint``'s ``REMOVED`` table; removed
    artifacts are checked here."""

    test_docs_mention_no_removed_identifier = rule_test("removed-names-leave-the-docs")

    def test_no_benchmark_names_a_result_file_in_the_checkout(self):
        """The experiments write nothing: no row names a ``BENCH_*.json``
        git cannot see."""
        table = ROOT / "benchmarks" / "experiments.py"
        stale = [
            f"{table.name}:{lineno}: {line.strip()}"
            for lineno, line in enumerate(table.read_text().splitlines(), 1)
            if "BENCH_" in line
        ]
        assert not stale, stale
        assert "BENCH_" not in (ROOT / ".gitignore").read_text()


def trajectory_table(text):
    """``(pr, commit)`` of each line of PERFORMANCE.md's trajectory table."""
    section = text.split("\n### The trajectory", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| (\d+) \| `([0-9a-f]{7}\+?)` \|", section, re.MULTILINE)


def table_mismatches(table, rows):
    """What keeps the table and ``trajectory.json`` from naming the same
    PRs and commits, each exactly once."""
    recorded = [
        (str(row["pr"]), row["commit"][:7] + "+" * row["commit"].endswith("+"))
        for row in rows
    ]
    found = [
        f"{where} names {what} {value} twice"
        for where, lines in (("the table", table), ("trajectory.json", recorded))
        for what, values in (("PR", [p for p, _c in lines]), ("commit", [c for _p, c in lines]))
        for value in sorted({v for v in values if values.count(v) > 1})
    ]
    found += [f"only the table has {line}" for line in sorted(set(table) - set(recorded))]
    found += [f"only trajectory.json has {line}" for line in sorted(set(recorded) - set(table))]
    return found


class TestTrajectoryTable:
    """docs/PERFORMANCE.md's trajectory table is ``trajectory.json``'s
    index: one line per recorded commit."""

    @staticmethod
    def _both():
        text = (ROOT / "docs" / "PERFORMANCE.md").read_text()
        rows = json.loads((ROOT / "benchmarks" / "trajectory.json").read_text())
        return trajectory_table(text), rows

    def test_table_and_rows_name_the_same_prs_and_commits(self):
        table, rows = self._both()
        assert len(table) == len(rows) >= 13
        assert not table_mismatches(table, rows)

    def test_a_planted_mismatch_is_caught(self):
        table, rows = self._both()
        (pr, commit), (other_pr, other) = table[0], table[1]
        planted = {
            "a row left out": table[1:],
            "a row twice": table + table[-1:],
            "two commits swapped": [(pr, other), (other_pr, commit), *table[2:]],
            "a PR renumbered": [(str(int(pr) + 100), commit), *table[1:]],
        }
        for what, bad in planted.items():
            assert table_mismatches(bad, rows), what

    def test_the_block_is_its_render(self):
        text = render.PERFORMANCE_MD.read_text(encoding="utf-8")
        assert render.splice(text, render.render_trajectory()) == text

    def test_a_changed_median_is_caught(self):
        text, (_table, rows) = render.PERFORMANCE_MD.read_text(encoding="utf-8"), self._both()
        for block in rows[-1]["workloads"].values():
            for metric in trajectory.END_TO_END:
                block[metric]["median"] *= 1.1
        assert render.splice(text, render.render_trajectory(rows)) != text
