"""The count gate: the checkout does the work of the trajectory's last row.

``benchmarks/trajectory.py`` counts one step of each ledger workload at
the selftest's scale in a fresh interpreter (``PYTHONHASHSEED=0``, the
workloads in ledger order: what ran before in a process moves its
counts).  The outcome digests and the ledger's exact count metrics must
equal the last row's; so must the Python and C calls per op when this
interpreter's and numpy's ``major.minor`` are the row's (a call count is
a property of the interpreter too).  A change that moves any of them
records a new row: ``python -m benchmarks.trajectory record .``.
Opcodes are in the rows only: tracing them is too slow for this gate.
"""

import json

import pytest

from benchmarks import trajectory


def _major_minor(version):
    return version and version.split(".")[:2]


@pytest.fixture(scope="module")
def last_row():
    return json.loads(trajectory.TRAJECTORY.read_text(encoding="utf-8"))[-1]


@pytest.fixture(scope="module")
def head_cost():
    return trajectory.measure_cost(trajectory.REPO)


def test_every_workload_is_counted(last_row, head_cost):
    assert list(head_cost) == list(last_row["workloads"])
    assert not any(cost["failed"] for cost in head_cost.values())


@pytest.mark.parametrize("field", ["digest", "count_metrics"])
def test_outcomes_and_exact_counts_hold(last_row, head_cost, field):
    for name, row in last_row["workloads"].items():
        assert head_cost[name][field] == row["cost"][field], name


@pytest.mark.parametrize("field", ["python_calls_per_op", "c_calls_per_op"])
def test_calls_per_op_hold(last_row, head_cost, field):
    here = trajectory.versions()
    if any(_major_minor(here[v]) != _major_minor(last_row[v]) for v in ("python", "numpy")):
        pytest.skip(f"calls are counted under Python {last_row['python']}, "
                    f"numpy {last_row['numpy']}")
    for name, row in last_row["workloads"].items():
        assert head_cost[name][field] == row["cost"][field], name


def test_recording_a_change_beside_its_parent_appends_one_row():
    """``record <parent> .`` appends the change's row alone, the parent's
    commit and medians in its ``parent``; a recorded commit is not added."""
    old, parent, change = ({"commit": c, "pr": 7, "workloads": {"w": {"digest": c, **dict.fromkeys(
        trajectory.END_TO_END, {"median": len(c), "q1": 0, "q3": 9})}}} for c in ("a", "bb", "c+"))
    rows = trajectory.merge([old], [parent, change])
    assert rows[0] is old and len(rows) == 2 and rows[1].items() >= change.items()
    assert rows[1]["parent"] == {"commit": "bb", "workloads": {"w": dict.fromkeys(
        trajectory.END_TO_END, {"median": 2, "q1": 0, "q3": 9})}}
    assert trajectory.merge(rows, [parent, change]) == rows
