"""One workload, one mode, in this process: the contract entry's body.

``run.py`` calls :func:`main` after putting the checkout on the import
path.  ``--trace 0`` measures the end-to-end metrics with nothing
observing the program; ``--trace 1`` produces every per-layer metric
from a quarter-length run with handler spans, the same quarter under
the profiler, and the layer probes.  The last line printed is the
contract's result object; the line before it (``NOTES {...}``) carries
the digest and sample counts for ``python -m benchmarks.ledger``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Tuple

from benchmarks.ledger import apicheck, measure, probes, tracing
from benchmarks.ledger.workloads import WORKLOADS
from benchmarks.ledger.world import FULL, Scale

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]
OUT_DIR = PACKAGE_DIR / "out"

#: Share of the run the traced legs replay.
TRACE_FRACTION = 0.25
#: Each probe repeat loops for this share of ``--seconds``.
PROBE_FRACTION = 0.004
#: Rows of the per-function table kept in the trace file.
TABLE_ROWS = 80

Metrics = Dict[str, Tuple[float, str]]


def load_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def conform(metrics: Metrics, declared: list, what: str) -> dict:
    """The metrics as the contract wants them — exactly the declared
    names, each with its declared unit — or an error naming the drift."""
    wanted = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(wanted) - set(metrics))
    extra = sorted(set(metrics) - set(wanted))
    units = sorted(
        name for name in set(wanted) & set(metrics)
        if metrics[name][1] != wanted[name]
    )
    if missing or extra or units:
        raise RuntimeError(
            f"{what} metrics drifted from BENCHMARK.json: "
            f"missing={missing} undeclared={extra} unit-mismatch={units}"
        )
    return {
        name: {"value": metrics[name][0], "unit": wanted[name]}
        for name in wanted
    }


def run_end_to_end(cls, seed: int, seconds: float, scale: Scale):
    workload, builds = measure.build(cls, seed, scale)
    steps, slices = measure.steps_for(cls, seconds)
    run = measure.execute(workload, steps, slices)
    metrics: Metrics = {
        "ops_per_s": (run.ops_per_s, "op/s"),
        "op_p50_ms": (run.percentile_ms(0.5), "ms"),
        "setup_s": (statistics.median(builds), "s"),
        "peak_rss_mb": (measure.peak_rss_mib(), "MiB"),
    }
    notes = {
        "digest": run.digest,
        "slices": slices,
        "latency_samples": len(run.latencies_ms),
        "setup_builds": builds,
        "timed_wall_s": run.wall_s,
        "timed_calibrated_s": run.seconds,
        "yardstick_rate": statistics.median(run.yardstick_rates),
    }
    return run, metrics, notes, True


def run_traced(cls, seed: int, seconds: float, scale: Scale, import_s: float):
    one_build = dataclasses.replace(scale, setup_builds=1)
    steps, slices = measure.steps_for(cls, seconds, TRACE_FRACTION)

    def leg(profiler=None, spans=None):
        workload, _ = measure.build(cls, seed, one_build)
        if spans is not None:
            spans.install(workload)
        before = tracing.read_counters(workload)
        run = measure.execute(workload, steps, slices, profiler, spans)
        after = tracing.read_counters(workload)
        counts = tracing.count_metrics(before, after, run.ops, steps, workload)
        rounds = after["kprop_rounds"] - before["kprop_rounds"]
        return run, counts, rounds

    # Spans ride on the unprofiled leg (two clock reads per handler call),
    # so their microseconds are not inflated by the profiler.
    spans, profiler = tracing.HandlerSpans(), cProfile.Profile()
    plain, plain_counts, kprop_rounds = leg(spans=spans)
    traced, counts, _ = leg(profiler=profiler)
    layer_seconds, table = tracing.roll_up(profiler)
    shares = tracing.share_metrics(layer_seconds)

    metrics: Metrics = {}
    metrics.update(counts)
    metrics.update(shares)
    metrics.update(spans.metrics(plain.ops, kprop_rounds, plain.step_factors))
    metrics.update(probes.run_probes(seed, scale, seconds * PROBE_FRACTION))
    metrics.update({
        "machine.calib_ops_per_s": (
            statistics.median(plain.yardstick_rates), "op/s"),
        "machine.norm_ops": (plain.norm_ops, "ratio"),
        "driver.import_s": (import_s, "s"),
        "driver.cpu_ms_per_op": (1e3 * plain.cpu_s / plain.ops, "ms"),
        "driver.op_p90_ms": (plain.percentile_ms(0.90), "ms"),
        "driver.op_p99_ms": (plain.percentile_ms(0.99), "ms"),
        "driver.trace_overhead_x": (traced.us_per_op / plain.us_per_op, "x"),
        "driver.failed_share": (traced.failed / traced.ops, "share"),
    })

    share_sum = sum(value for value, _unit in shares.values())
    repeatable = plain_counts == counts and plain.digest == traced.digest
    correct = repeatable and abs(share_sum - 1.0) <= 0.01
    notes = {
        "digest": traced.digest,
        "latency_samples": len(plain.latencies_ms),
        "counts_repeat": repeatable,
        "share_sum": share_sum,
        "spans_us_per_op": plain.us_per_op,
        "profiled_us_per_op": traced.us_per_op,
    }
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace_{cls.name}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": cls.name,
            "seed": seed,
            "ops": traced.ops,
            "layer_self_seconds": layer_seconds,
            "functions": table[:TABLE_ROWS],
            **spans.to_json(),
        }, fh)
    return traced, metrics, notes, correct


def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in notes.items():
        print(f"  # {key}: {value}")


def main(argv=None, import_s: float = 0.0, scale: Scale = FULL) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    apicheck.check()
    spec = load_spec()
    cls = WORKLOADS[args.workload]
    if args.trace:
        run, metrics, notes, correct = run_traced(
            cls, args.seed, args.seconds, scale, import_s
        )
        declared = spec["per_layer"]
    else:
        run, metrics, notes, correct = run_end_to_end(
            cls, args.seed, args.seconds, scale
        )
        declared = spec["end_to_end"]
    conformed = conform(
        metrics, declared, "per-layer" if args.trace else "end-to-end"
    )
    result = {
        "correct": bool(correct and run.failed == 0),
        "attempted": run.ops,
        "failed": run.failed,
        "metrics": conformed,
    }
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {run.ops} ops, {run.failed} failed")
    _print_metrics(conformed, notes)
    print("NOTES " + json.dumps(notes))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0
