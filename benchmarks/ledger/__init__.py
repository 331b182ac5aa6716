"""The realm ledger: the repository's benchmark.

Four seeded wall-clock workloads over a 5,000-user realm, measured from
outside ``src/`` through public entry points only.  ``run.py`` is the
one-workload entry the benchmark contract (``BENCHMARK.json``) names;
``python -m benchmarks.ledger`` runs all four and prints the ledger.
See ``README.md`` in this directory.
"""
