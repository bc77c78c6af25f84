"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload random-batch --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports lsilab from ``src``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Bad arguments and a checkout without sources end in a one-line message
on standard error, a nonzero exit code and no result.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class OneLineParser(argparse.ArgumentParser):
    def error(self, message):
        sys.exit(f"run.py: error: {message}")


def parse_args(argv):
    parser = OneLineParser(description="lsilab benchmark: one workload, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    try:
        args.seed = int(args.seed)
    except ValueError:
        parser.error(f"seed must be a nonnegative integer, got {args.seed!r}")
    if args.seed < 0:
        parser.error(f"seed must be a nonnegative integer, got {args.seed}")
    if not args.seconds >= 0:
        parser.error(f"seconds must be nonnegative, got {args.seconds}")
    args.trace = args.trace == "1"
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # One BLAS/OpenMP thread, set before numpy loads, so that a run does
    # not depend on the host's default thread count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import harness

    try:
        result = harness.run(args.workload, args.seed, args.seconds, args.trace)
    except harness.SetupError as exc:
        sys.exit(f"run.py: error: {exc}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
