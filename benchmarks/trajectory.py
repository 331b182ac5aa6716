"""The performance trajectory: one row per measured commit.

    python -m benchmarks.trajectory record <rev>...

Each ``<rev>`` (a git revision, or ``.`` for the working tree) is
exported to a temporary directory and measured with *that tree's own*
frozen ledger, ``benchmarks/ledger/run.py``, so an old commit is priced
by the same code that priced it when it landed.  The revs are
interleaved round-robin, run by run, so drift in the machine's speed
spreads over all of them.  Every rev's row is printed; the last rev's
row is appended to ``trajectory.json`` (beside this file) unless its
commit is already there, with the rev measured before it, if any, as
its ``parent`` (commit, and medians with quartiles) — so ``record
<parent> .`` adds one row, the change's, compared in the same session.
Rows are never rewritten.  A new row then gets its hand-written
``what``, ``claim`` and ``verdict``; ``python -m benchmarks.render``
draws docs/PERFORMANCE.md's table from the rows.

A row holds, per workload:

* the four end-to-end metrics as median and quartiles over
  ``UNTRACED_RUNS`` untraced ``--seconds 10`` runs, the failed share and
  the outcome digest;
* the thirteen ``*.self_share``s and every count metric of one
  ``--trace 1`` run;
* a ``cost`` block: Python calls, C calls and interpreted opcodes per
  op, the digest and ``tracing.count_metrics`` of one step of the
  workload at the selftest's scale (``COST_SCALE``), counted in a fresh
  process with ``PYTHONHASHSEED=0``, the workloads in ``WORKLOADS``
  order.  The counter is the ``profiler`` ``measure.execute`` takes, so
  only ``workload.step`` (and the two clock reads either side of it) is
  counted.

The seed, the run counts and the cost scale are constants: there are no
flags.  ``tests/integration/test_trajectory.py`` is the count gate that
holds the checkout to the last row's cost block.

``python benchmarks/trajectory.py cost`` and ``... opcodes`` are the
counting subprocess: they measure the tree in the current directory and
print one JSON object.
"""

from __future__ import annotations

import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve()
REPO = HERE.parents[1]
TRAJECTORY = HERE.with_name("trajectory.json")

SEED = 1988
SECONDS = 10
UNTRACED_RUNS = 3
#: ``Scale(**COST_SCALE)`` is the selftest's small realm.
COST_SCALE = {"users": 200, "services": 65, "setup_builds": 1}
END_TO_END = ("ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb")


# -- counting (runs inside the measured tree) --------------------------------


class CallCounter:
    """Counts Python calls, C calls and, when asked, opcodes while
    enabled; ``measure.execute`` enables it around each step."""

    def __init__(self, opcodes: bool) -> None:
        self.calls = self.c_calls = self.opcodes = 0
        self._trace_opcodes = opcodes

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.calls += 1
        elif event == "c_call":
            self.c_calls += 1

    def _trace(self, frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            self.opcodes += 1
        return self._trace

    def enable(self) -> None:
        if self._trace_opcodes:
            sys.settrace(self._trace)
        sys.setprofile(self._profile)

    def disable(self) -> None:
        sys.setprofile(None)
        sys.settrace(None)


def count(opcodes: bool) -> Dict[str, dict]:
    """One step of every workload at ``COST_SCALE``, counted."""
    from benchmarks.ledger import measure, tracing
    from benchmarks.ledger.workloads import WORKLOADS
    from benchmarks.ledger.world import Scale

    out = {}
    for name, cls in WORKLOADS.items():
        workload, _ = measure.build(cls, SEED, Scale(**COST_SCALE))
        counter = CallCounter(opcodes)
        before = tracing.read_counters(workload)
        run = measure.execute(workload, 1, 1, profiler=counter)
        after = tracing.read_counters(workload)
        counts = tracing.count_metrics(before, after, run.ops, 1, workload)
        block = {"digest": run.digest, "failed": run.failed}
        if opcodes:
            block["opcodes_per_op"] = counter.opcodes / run.ops
        else:
            block["python_calls_per_op"] = counter.calls / run.ops
            block["c_calls_per_op"] = counter.c_calls / run.ops
            block["count_metrics"] = {k: v for k, (v, _unit) in counts.items()}
        out[name] = block
    return out


def measure_cost(tree: Path, opcodes: bool = False) -> Dict[str, dict]:
    """:func:`count` for ``tree`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE), "opcodes" if opcodes else "cost"],
        cwd=tree, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        raise RuntimeError(f"cost count in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def versions() -> Dict[str, str]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version}


# -- recording ---------------------------------------------------------------


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, check=True, **kwargs
    )


def export(rev: str, into: Path) -> str:
    """Write ``rev``'s tree under ``into``; return the commit it names
    (for ``.``, HEAD, with a ``+`` when the working tree differs)."""
    head = _git("rev-parse", "HEAD", text=True).stdout.strip()
    if rev != ".":
        archive = _git("archive", "--format=tar", rev).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(into)
        return _git("rev-parse", f"{rev}^{{commit}}", text=True).stdout.strip()
    listed = _git(
        "ls-files", "-z", "--cached", "--others", "--exclude-standard"
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = REPO / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)
    dirty = _git("status", "--porcelain", text=True).stdout.strip()
    return head + ("+" if dirty else "")


def pr_number(tree: Path) -> int:
    """The last PR named by a ``- PR N`` line of the tree's CHANGES.md."""
    text = (tree / "CHANGES.md").read_text(encoding="utf-8")
    return int(re.findall(r"^- PR (\d+)", text, re.MULTILINE)[-1])


def ledger_run(tree: Path, workload: str, trace: int) -> dict:
    """One ``run.py`` of the tree's own ledger: the result object with
    the ``NOTES`` line folded in."""
    done = subprocess.run(
        [
            sys.executable, str(tree / "benchmarks" / "ledger" / "run.py"),
            "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace),
        ],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("NOTES "):
        raise RuntimeError(f"{tree}: {workload} trace={trace} failed:\n"
                           f"{done.stderr}")
    return {**json.loads(lines[-1]), "notes": json.loads(lines[-2][6:])}


def _spread(values: List[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def make_row(commit: str, pr: int, workloads: List[str], plain: dict,
             traced: dict, cost: dict, opcodes: dict) -> dict:
    rates = []
    blocks = {}
    for name in workloads:
        runs = plain[name]
        digests = {r["notes"]["digest"] for r in runs}
        if len(digests) != 1:
            raise RuntimeError(f"{commit}: {name} digests differ: {digests}")
        layers = traced[name]["metrics"]
        rates += [r["notes"]["yardstick_rate"] for r in runs]
        rates.append(layers["machine.calib_ops_per_s"]["value"])
        counted = cost[name]["count_metrics"]
        blocks[name] = {
            **{m: _spread([r["metrics"][m]["value"] for r in runs])
               for m in END_TO_END},
            "failed_share": sum(r["failed"] for r in runs)
            / sum(r["attempted"] for r in runs),
            "digest": digests.pop(),
            "self_share": {m: v["value"] for m, v in layers.items()
                           if m.endswith(".self_share")},
            "counts": {m: layers[m]["value"] for m in counted},
            "cost": {
                "python_calls_per_op": cost[name]["python_calls_per_op"],
                "c_calls_per_op": cost[name]["c_calls_per_op"],
                "opcodes_per_op": opcodes[name]["opcodes_per_op"],
                "digest": cost[name]["digest"],
                "count_metrics": counted,
            },
        }
    return {
        "commit": commit,
        "pr": pr,
        "seed": SEED,
        **versions(),
        "calib_ops_per_s": statistics.median(rates),
        "workloads": blocks,
    }


def _log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def merge(rows: List[dict], measured: List[dict]) -> List[dict]:
    """``rows`` and, unless its commit is in them, the last measured
    rev's row, with the rev before it as its ``parent``."""
    row = measured[-1]
    if any(known["commit"] == row["commit"] for known in rows):
        return rows
    new = {"commit": row["commit"], "pr": row["pr"], "what": "", "claim": None, "verdict": ""}
    if len(measured) > 1:
        new["parent"] = {"commit": measured[-2]["commit"], "workloads": {
            name: {metric: block[metric] for metric in END_TO_END}
            for name, block in measured[-2]["workloads"].items()
        }}
    return rows + [{**new, **row}]


def record(revs: List[str]) -> List[dict]:
    """Measure every rev, interleaved, and append the last one's row
    (see :func:`merge`); return every rev's row."""
    with tempfile.TemporaryDirectory(prefix="trajectory-") as scratch:
        trees, commits = [], []
        for k, rev in enumerate(revs):
            tree = Path(scratch) / f"r{k}"
            tree.mkdir()
            commits.append(export(rev, tree))
            trees.append(tree)
        workloads = [w["name"] for w in json.loads(
            (trees[0] / "BENCHMARK.json").read_text(encoding="utf-8")
        )["workloads"]]
        costs, opcodes = [], []
        for tree, commit in zip(trees, commits):
            costs.append(measure_cost(tree))
            opcodes.append(measure_cost(tree, opcodes=True))
            _log(f"cost {commit[:9]}: " + ", ".join(
                f"{n} {c['python_calls_per_op']:.0f}/{c['c_calls_per_op']:.0f}"
                for n, c in costs[-1].items()))
        plain = [{name: [] for name in workloads} for _ in trees]
        traced: List[dict] = [{} for _ in trees]
        for trace, repeats in ((0, UNTRACED_RUNS), (1, 1)):
            for _ in range(repeats):
                for name in workloads:
                    for k, tree in enumerate(trees):
                        got = ledger_run(tree, name, trace)
                        if trace:
                            traced[k][name] = got
                        else:
                            plain[k][name].append(got)
                        _log(f"{commits[k][:9]} {name} trace={trace}: "
                             f"{got['attempted']} ops, {got['failed']} failed")
        measured = [
            make_row(commit, pr_number(tree), workloads, plain[k], traced[k],
                     costs[k], opcodes[k])
            for k, (tree, commit) in enumerate(zip(trees, commits))
        ]
    rows = []
    if TRAJECTORY.exists():
        rows = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    rows = merge(rows, measured)
    TRAJECTORY.write_text(json.dumps(rows, indent=1, ensure_ascii=False) + "\n",
                          encoding="utf-8")
    return measured


def main(argv: List[str]) -> int:
    if argv[:1] == ["record"] and len(argv) > 1:
        for row in record(argv[1:]):
            commit = row["commit"][:7] + "+" * row["commit"].endswith("+")
            print(f"PR {row['pr']} {commit} ops_per_s: " + ", ".join(
                f"{name} {w['ops_per_s']['median']:.6g}"
                for name, w in row["workloads"].items()))
        return 0
    if argv in (["cost"], ["opcodes"]):
        tree = Path.cwd()
        sys.path[:] = [str(tree), str(tree / "src")] + [
            p for p in sys.path if Path(p or ".").resolve() != HERE.parent
        ]
        print(json.dumps(count(opcodes=argv == ["opcodes"])))
        return 0
    print(__doc__.strip().splitlines()[2], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
