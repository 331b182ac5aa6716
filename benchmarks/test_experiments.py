"""Every row of ``experiments.EXPERIMENTS``: build, act, and compare what
was observed with what the row expects.  ``pytest benchmarks/ -k F5``
runs one row; ``-s`` prints its observations."""

import pytest

from benchmarks.experiments import EXPERIMENTS


@pytest.mark.parametrize("row", EXPERIMENTS, ids=lambda row: row.id)
def test_experiment(row):
    observed = row.act(row.build())
    print(f"\nExp {row.id} — {row.anchor}")
    for name, value in observed.items():
        print(f"  {name}: {value}")
    wrong = row.mismatches(observed)
    assert not wrong, "\n".join(f"{name}: observed {got!r}, expected {want!r}"
                                for name, (got, want) in wrong.items())
