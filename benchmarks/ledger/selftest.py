"""``python -m benchmarks.ledger selftest`` — the package's smoke test.

Every workload at one fiftieth of its op count (and a 200-user realm, so
it takes ten to fifteen seconds), through the same code the contract
entry runs.  Asserts that every metric name in ``BENCHMARK.json`` is emitted
and well-formed, that nothing fails, that two same-seed runs reproduce
the outcome digest and every count, and that another seed does not.

Kept out of ``tests/`` and named so pytest does not collect it: the
benchmark's files live under its own directory only.
"""

from __future__ import annotations

import re
import time

from benchmarks.ledger import cli
from benchmarks.ledger.workloads import WORKLOADS
from benchmarks.ledger.world import Scale

def require(condition, message: str) -> None:
    """An assertion that survives ``python -O``."""
    if not condition:
        raise AssertionError(message)


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SEED = 1988
SMALL = Scale(users=200, services=65, setup_builds=1)


def main(spec: dict) -> int:
    started = time.perf_counter()
    seconds = spec["run_seconds"] / 50.0
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    declared += [w["name"] for w in spec["workloads"]]
    require(len(set(declared)) == len(declared), "a name is used twice")
    for name in declared:
        require(NAME.match(name), f"malformed name {name!r}")
    require(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json and the package disagree on the workloads",
    )
    for name, cls in WORKLOADS.items():
        first, metrics, _notes, ok = cli.run_end_to_end(cls, SEED, seconds, SMALL)
        cli.conform(metrics, spec["end_to_end"], "end-to-end")
        require(ok and first.failed == 0, f"{name}: {first.failed} ops failed")
        other, _metrics, _notes, _ok = cli.run_end_to_end(
            cls, SEED + 1, seconds, SMALL
        )
        require(other.digest != first.digest, f"{name}: the seed changes nothing")
        # The traced mode runs two same-seed legs and is only ``ok`` when
        # their digests and every count agree exactly.
        traced, layers, notes, ok = cli.run_traced(cls, SEED, seconds, SMALL, 0.0)
        cli.conform(layers, spec["per_layer"], "per-layer")
        require(ok and traced.failed == 0, f"{name}: traced run incorrect: {notes}")
        require(notes["counts_repeat"], f"{name}: same seed, different outcome")
        print(f"selftest {name}: {first.ops} ops, digest {first.digest[:16]} ok")
    print(f"selftest ok in {time.perf_counter() - started:.1f}s")
    return 0
