"""Fleet benchmark command line.

    python3 perfbench/run.py --workload trace_ingest --seed 7 --seconds 30 --trace 0

Runs one workload from the repository root, prints the host
fingerprint and every metric by name with its unit, writes the full
result (plus the span dump of a traced run) under
``perfbench/results/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import fleetbench

RESULTS = Path(__file__).resolve().parent / "results"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=fleetbench.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        result = fleetbench.run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        fleetbench.stop_helpers()
    details = result["details"]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, default=float))

    print("host " + json.dumps(details["host"]))
    print(f"workload {args.workload} seed {args.seed} trials {details['trials']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"  {'window_fail_frac':28s} {details['window_fail_frac']:14.6g} frac "
        f"({result['failed']} of {result['attempted']} windows)"
    )
    print("checks " + json.dumps(details["checks"]))
    for error in details["errors"]:
        print(error, file=sys.stderr)
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
