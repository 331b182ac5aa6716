"""Shared builders for the benchmark harness.

Each experiment benchmark (one file per figure/claim in DESIGN.md's
per-experiment index) builds its world through these helpers so the
configurations stay comparable across experiments.

:func:`write_bench_artifact` is the standard way to emit a
``BENCH_*.json`` file: the current metrics snapshot plus an append-only
``history`` list (commit, seed, summary numbers per run), so artifacts
record a trajectory across commits instead of a single overwritten
snapshot.
"""

import json
import subprocess
from pathlib import Path

from repro.core import KerberosClient, Principal
from repro.netsim import Network
from repro.realm import Realm, RealmTopology

REALM = "ATHENA.MIT.EDU"

#: Runs kept in a BENCH artifact's history list.
HISTORY_LIMIT = 200

_REPO_ROOT = Path(__file__).resolve().parents[1]


def git_commit() -> str:
    """Short hash of the checked-out commit, or "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_history(path) -> list:
    """The ``history`` list of an existing artifact ([] if absent/corrupt)."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    history = data.get("history", [])
    return history if isinstance(history, list) else []


def write_bench_artifact(
    registry, path, now, extra=None, seed=None
) -> dict:
    """Write a ``BENCH_*.json`` artifact with run history appended.

    Same format as :func:`repro.obs.write_json_snapshot` (metrics
    snapshot + ``bench`` summary), plus a ``history`` list carrying one
    entry per recorded run: the commit, the seed, and the run's summary
    numbers.  History from the existing file is preserved (bounded at
    ``HISTORY_LIMIT`` entries), making the artifact a trajectory.
    """
    history = load_history(path)
    history.append({
        "commit": git_commit(),
        "seed": repr(seed) if isinstance(seed, bytes) else seed,
        "clock": now,
        "summary": dict(extra or {}),
    })
    history = history[-HISTORY_LIMIT:]
    snap = registry.snapshot(now=now)
    if extra:
        snap["bench"] = dict(extra)
    snap["history"] = history
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snap


def small_realm(slaves: int = 0, seed: bytes = b"bench") -> Realm:
    """A realm with one user (jis) and one service (rlogin.priam)."""
    net = Network()
    realm = Realm(
        net, REALM, seed=seed, topology=RealmTopology(slaves_per_shard=slaves)
    )
    realm.add_user("jis", "jis-pw")
    realm.add_service("rlogin", "priam")
    if slaves:
        realm.propagate()
    return realm


def logged_in_workstation(realm: Realm):
    ws = realm.workstation()
    ws.client.kinit("jis", "jis-pw")
    return ws


def rlogin_principal() -> Principal:
    return Principal("rlogin", "priam", REALM)
