"""``python -m benchmarks.ledger`` — the whole ledger in one command.

    python -m benchmarks.ledger [--seed N] [--workload NAME] [--out FILE]
    python -m benchmarks.ledger compare BASE.json CAND.json [more pairs]
    python -m benchmarks.ledger selftest

The parent only orchestrates: every measurement is a fresh ``run.py``
subprocess (process-wide caches and peak RSS start clean), run one at a
time.  For each workload it prints the end-to-end metrics from the
untraced run, then the per-layer table from the traced run and probes.
Times are calibrated seconds (see ``measure.py``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.ledger.run import bootstrap

PACKAGE_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1988


def _measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` subprocess: its result object, with the ``NOTES``
    line printed just before it folded in."""
    done = subprocess.run(
        [
            sys.executable, str(PACKAGE_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace={trace}) exited {done.returncode}")
    lines = done.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("NOTES "):
        raise SystemExit(f"{workload} (trace={trace}) printed no result")
    return {**json.loads(lines[-1]), "notes": json.loads(lines[-2][6:])}


def run_ledger(spec: dict, seed: int, only, out) -> int:
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"] if only in (None, w["name"])]
    ledger = {"seed": seed, "run_seconds": seconds, "workloads": {}}
    for name in names:
        plain = _measure(name, seed, seconds, trace=0)
        traced = _measure(name, seed, seconds, trace=1)
        row = ledger["workloads"][name] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_share": plain["failed"] / plain["attempted"],
            "digest": plain["notes"]["digest"],
            "traced_digest": traced["notes"]["digest"],
            "correct": plain["correct"] and traced["correct"],
            "latency_samples": plain["notes"]["latency_samples"],
            "slices": plain["notes"]["slices"],
        }
        print(f"== {name}: {row['attempted']} ops, seed {seed}, "
              f"digest {row['digest'][:16]}, "
              f"{'correct' if row['correct'] else 'INCORRECT'}")
        samples = {
            "ops_per_s": f"upper quartile of {row['slices']} slices",
            "op_p50_ms": f"{row['latency_samples']} samples",
            "setup_s": f"median of {len(plain['notes']['setup_builds'])} builds",
            "peak_rss_mb": "after the run",
        }
        for metric, entry in row["end_to_end"].items():
            print(f"  {metric:14s} {entry['value']:12.4f} {entry['unit']:5s} "
                  f"({samples.get(metric, '')})")
        print(f"  {'failed_share':14s} {row['failed_share']:12.4f} share "
              f"({row['failed']} of {row['attempted']} ops)")
    if names:
        print("== per layer (quarter-length traced runs and probes; times are "
              "calibrated wall clock unless the name says _sim; *_per_op, "
              "*_share but self_share, *_mean and replication.full_dumps are "
              "exact counts)")
        print(f"  {'metric':38s} {'unit':6s}"
              + "".join(f"{n:>15s}" for n in names))
        for metric in spec["per_layer"]:
            cells = "".join(
                f"{ledger['workloads'][n]['per_layer'][metric['name']]['value']:15.5g}"
                for n in names
            )
            print(f"  {metric['name']:38s} {metric['unit']:6s}{cells}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(row["correct"] for row in ledger["workloads"].values())
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    bootstrap()
    from benchmarks.ledger import apicheck, cli, compare, selftest

    apicheck.check()
    spec = cli.load_spec()
    if argv[:1] == ["compare"]:
        return compare.main(spec, argv[1:])
    if argv[:1] == ["selftest"]:
        return selftest.main(spec)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args(argv)
    return run_ledger(spec, args.seed, args.workload, args.out)


if __name__ == "__main__":
    sys.exit(main())
