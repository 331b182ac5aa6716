"""``python -m repro.scenarios`` — run chaos campaigns from the shell.

Examples::

    python -m repro.scenarios --list
    python -m repro.scenarios master_assassination
    python -m repro.scenarios --seed 42 --json out.json
    python -m repro.scenarios lossy_wan_degradation -p loss_rate=0.3

Exit status is 0 when every SLO of every selected campaign passed,
1 otherwise — so a campaign sweep slots straight into CI.
"""

from __future__ import annotations

import argparse
import json
import sys

import repro.scenarios as scenarios
from repro.netsim.faults import FaultError
from repro.runtime import SchedulerError
from repro.scenarios.engine import run


def _parse_override(text: str):
    """``key=value`` with the value coerced like JSON where possible."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"override {text!r} is not of the form key=value"
        )
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return key, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run named chaos campaigns against a simulated realm.",
    )
    parser.add_argument(
        "campaigns", nargs="*", metavar="CAMPAIGN",
        help="campaign names (default: all registered campaigns)",
    )
    parser.add_argument("--list", action="store_true", help="list campaigns")
    parser.add_argument("--seed", type=int, default=1988, help="run seed")
    parser.add_argument(
        "--json", metavar="PATH",
        help="write all campaign summaries to PATH as JSON",
    )
    parser.add_argument(
        "-p", "--param", action="append", default=[], type=_parse_override,
        metavar="KEY=VALUE",
        help="override a campaign parameter (repeatable; applies to "
        "every selected campaign that has that parameter)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in scenarios.names():
            spec = scenarios.get(name)
            print(f"{name:24} {spec.description}")
            defaults = ", ".join(f"{k}={v}" for k, v in spec.defaults)
            print(f"{'':24} params: {defaults}")
        return 0

    selected = [scenarios.get(name) for name in args.campaigns or scenarios.names()]
    known = {key for spec in selected for key, _value in spec.defaults}
    unknown = sorted({key for key, _value in args.param} - known)
    if unknown:
        parser.error(
            f"no selected campaign has parameter(s) {unknown}; "
            f"known: {', '.join(sorted(known))}"
        )
    summaries = {}
    all_passed = True
    for spec in selected:
        name, params = spec.name, dict(spec.defaults)
        try:
            row = spec.override(**{k: v for k, v in args.param if k in params})
            result = run(row, args.seed)
        except (ValueError, FaultError, SchedulerError) as exc:
            # A parameter the realm refuses (a NaN skew, a jitter bound
            # past infinity): one line and exit status 2, as for a bad flag.
            parser.error(f"{name}: {exc}")
        summaries[name] = result.summary()
        all_passed = all_passed and result.passed
        verdict = "PASS" if result.passed else "FAIL"
        print(
            f"[{verdict}] {name}  makespan={result.makespan:.1f}s  "
            f"p95={result.latency_p95:.3f}s  outcomes={result.outcomes}"
        )
        for change in spec.diff(row):
            print(f"    -p {change}")
        for check in result.checks:
            mark = "ok " if check.passed else "MISS"
            bound = "≥" if check.kind == "min" else "≤"
            print(
                f"    {mark} {check.name}: {check.observed:.3f} "
                f"{bound} {check.threshold}"
            )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"seed": args.seed, "campaigns": summaries},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
