"""Documentation self-consistency: references in the docs must be real.

CLAIMS.md points at tests, DESIGN.md at bench targets, README at example
scripts — a rename anywhere must fail here rather than rot silently.
"""

import re
from pathlib import Path

import pytest

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
    #: Second spellings deleted with the PR 9/10 compatibility layer.
    #: A doc that still shows one teaches an API that raises.
    REMOVED = (
        "kdc_addresses=", "kdc_directory", "set_kdcs", "set_kdc_list",
        "publish_kdcs", "count_deprecated", "deprecated_calls_total",
        "NetworkStats", "net.stats", ".as_requests", ".tgs_requests",
        "kdc_workers", "retries=", "n_slaves",
        # PR 17: the oracle left ``src/``, Exp HP and the gitignored
        # ``history`` artifacts left the repository.
        "reference_kernels", "crypt_int_ref", "repro.crypto.reference",
        "write_bench_artifact", "test_bench_perf_hotpath",
        "BENCH_PERF_HOTPATH",
        # PR 24: one way in for the database; four Hesiod queries → one.
        "schedule_hourly", "ShardReferral", "sharded_locator",
        "_send_entries", "realm.sharding.RangeReceiver", "hesiod_kdcs",
        "hesiod_ring", "hesiod_shard_kdcs",
        # One realm shape, discovered one way.
        "ShardedRealm", "HesiodLocator", "ShardDirectory",
        "KDC_RECORD_PREFIX", "store_kdc_list", "ring=True",
        # A campaign is a row the one engine runs.
        "busy_hour", "login_job",
        # One lifecycle, two hooks; the replay cache is durable.
        "refuse_through", "on_crash", "on_restart",
        # One skeleton per (key, length), content-addressed: no flush.
        "mutation_listeners", "_notify_mutation", "_on_db_mutation",
        "invalidate_skeletons", "_TICKET_SUFFIX_LEN",
        # One load driver: the population and the three load shapes
        # are the campaign engine's.
        "AthenaWorkload", "repro.workload", "WorkloadStats", "BurstResult",
        "session_traffic", "workload.events_total", "workload.login",
    )

    def test_docs_mention_no_removed_identifier(self):
        docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
        docs += sorted((ROOT / "docs").glob("*.md"))
        stale = [
            f"{doc.relative_to(ROOT)}:{lineno}: {name}"
            for doc in docs
            for lineno, line in enumerate(doc.read_text().splitlines(), 1)
            for name in self.REMOVED
            if name in line
        ]
        assert not stale, stale

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
