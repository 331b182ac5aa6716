#!/usr/bin/env python3
"""The benchmark contract's entry point (see ``BENCHMARK.json``).

    python3 benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

Runs one workload in this (fresh) process against the program under
``src/`` and prints the contract's result object as the last line.  The
program is imported from the checkout this file sits in; without it
there is nothing to measure, and the script exits non-zero.
"""

import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
ROOT = _HERE.parents[1]


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.ledger`` importable from this
    checkout, and keep this directory's module names from shadowing."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to benchmark: {ROOT / 'src' / 'repro'} "
                 "is missing")
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


if __name__ == "__main__":
    bootstrap()
    started = time.perf_counter()
    from benchmarks.ledger import cli

    sys.exit(cli.main(import_s=time.perf_counter() - started))
