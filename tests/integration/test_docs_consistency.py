"""Documentation self-consistency: references in the docs must be real.

CLAIMS.md points at tests, DESIGN.md at bench targets, README at example
scripts — a rename anywhere must fail here rather than rot silently.
"""

import json
import re
from pathlib import Path

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


class TestDesignReferences:
    def test_every_bench_target_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"`benchmarks/(test_bench_\w+\.py)`", text))
        assert len(targets) >= 18
        missing = [t for t in targets if not (ROOT / "benchmarks" / t).exists()]
        assert not missing, missing

    def test_every_bench_file_is_in_design(self):
        text = (ROOT / "DESIGN.md").read_text()
        on_disk = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
        documented = set(re.findall(r"`benchmarks/(test_bench_\w+\.py)`", text))
        undocumented = on_disk - documented
        assert not undocumented, undocumented

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
    def test_every_figure_has_a_section(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for exp in ["F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
                    "F10", "F11", "F12", "F13", "NFS", "S9", "X1",
                    "C1", "T1", "L1", "P1"]:
            assert f"## {exp} " in text or f"## {exp} —" in text, exp


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
        """Benchmarks snapshot under pytest's ``tmp_path``; nothing
        writes a ``BENCH_*.json`` git cannot see."""
        files = sorted((ROOT / "benchmarks").glob("test_bench_*.py"))
        assert len(files) >= 20
        stale = [
            f"{path.name}:{lineno}: {line.strip()}"
            for path in files
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
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
