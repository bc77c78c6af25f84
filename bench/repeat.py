"""Run the benchmark several times per workload and print each metric's median and spread.

    python3 bench/repeat.py --runs 10 --out .bench_work/base.jsonl
    python3 bench/repeat.py --runs 5 --workload fine-grid --first-seed 100 --out f.jsonl
    python3 bench/repeat.py --runs 10 --root ../parent --out base.jsonl --root . --out new.jsonl

Each run is ``bench/run.py --trace 0`` of a checkout, in its own process,
one after another, with seeds ``first-seed``, ``first-seed + 1``, ...
and the run length ``run_seconds`` of ``BENCHMARK.json``. With several
``--root``/``--out`` pairs the checkouts take turns on every seed, and
which goes first alternates from seed to seed, so that a host that
drifts over minutes slows both alike. A result set is a JSON Lines file,
one ``{"workload", "seed", "result"}`` per run. For each set, every
end-to-end metric's median and spread (quartile distance over median,
quartiles from ``statistics.quantiles(values, n=4)``) are printed
against the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(records: list, spec: dict) -> None:
    """Print median and spread of each end-to-end metric against its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = defaultdict(list)
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    print(f"{'workload':14s} {'metric':18s} {'runs':>4s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for (workload, name), vs in values.items():
        s, bound = spread(vs), bounds[name]
        flag = "  over bound" if s > bound else ("  over bound/3" if s > bound / 3 else "")
        print(f"{workload:14s} {name:18s} {len(vs):4d} {statistics.median(vs):12.6g} "
              f"{s:8.4f} {bound:6.3f}{flag}")
    failed = sum(r["result"]["failed"] for r in records)
    incorrect = sum(not r["result"]["correct"] for r in records)
    print(f"{len(records)} runs, {incorrect} not correct, {failed} failed ops")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--root", action="append", type=Path,
                        help="checkout to run (repeatable; default: this one)")
    parser.add_argument("--out", action="append", type=Path, required=True,
                        help="result set to append to, one per --root")
    args = parser.parse_args(argv)
    roots = args.root or [ROOT]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")

    records = {out: [] for out in args.out}
    for workload in args.workload or names:
        for i, seed in enumerate(range(args.first_seed, args.first_seed + args.runs)):
            turn = list(zip(roots, args.out))
            for root, out in turn[i % len(turn):] + turn[: i % len(turn)]:
                record = run_once(root, workload, seed, spec["run_seconds"])
                with open(out, "a") as sink:
                    sink.write(json.dumps(record) + "\n")
                records[out].append(record)
                result = record["result"]
                print(f"{out}: {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    for out, recs in records.items():
        print(f"== {out}")
        summarize(recs, spec)


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"repeat.py: {root}: {workload} seed {seed} exited {done.returncode}: "
                 f"{done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "result": result}


if __name__ == "__main__":
    main()
