"""Set-up, timed passes, statistics and the result line of one benchmark run.

Op times are taken on the CPU clock of the thread that runs the op
(``time.thread_time``), not on the wall clock. lsilab runs on one thread
(the BLAS pool is pinned to one) and waits on nothing but local files,
so the two agree on a quiet machine. On a shared virtual machine the
wall clock also counts the time the hypervisor gives the CPU to others:
on a 2-vCPU Xeon guest, one numpy loop read 36-212 ms on the wall clock
(quartile distance 0.52 of the median) and 26-59 ms on the thread's CPU
clock (0.09) while that happened.

An end-to-end run sets up once, then times the workload in rounds, each
pinned to one CPU in turn. Round 0 times whole passes until the next
pass would end after ``ROUND_SECONDS``; later rounds time the same
number of passes with fresh draws, until the run has used ``seconds``.
Each round gives its own throughput and latency percentiles, and the run
reports the mean of the middle half of each over the rounds. Between rounds, ``SETUP_PROBES``
fresh processes each set up the workload, and ``setup_s`` is the median
of the CPU time each spent from its start to where the first timed op
would begin.

A traced run sets up once, times passes for ``seconds / 2``, then
replays exactly those ops under the tracer and compares the two runs'
op outputs.

Run as a script, ``python3 bench/harness.py WORKLOAD SEED`` is one
set-up probe: it sets the workload up, and prints its process's CPU
time so far and a digest of its warm-up outputs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time, thread_time

import numpy as np

import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: An end-to-end run is split into rounds of about ROUND_SECONDS, at least
#: MIN_ROUNDS, each pinned to the next CPU the process may use. Every
#: round runs the same number of passes (one pass at least). On a shared
#: host the same code ran up to 2x slower for a second at a time, and one
#: core ran slower than the other for minutes; many short rounds spread
#: over both cores give an average that stays steady from run to run.
ROUND_SECONDS = 1.0
MIN_ROUNDS = 4

#: Set-up probes per end-to-end run, spread over its rounds.
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The program could not be set up; the run reports no result."""


def fresh_lsilab():
    """Import lsilab from this checkout's ``src``, discarding any earlier import."""
    if not (SRC / "lsilab" / "__init__.py").is_file():
        raise SetupError(f"no lsilab sources under {SRC}; run from a full checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "lsilab" or n.startswith("lsilab.")]:
        del sys.modules[name]
    package = importlib.import_module("lsilab")
    for name in ("cli", "experiments", "function_space", "functionals", "transforms"):
        importlib.import_module(f"lsilab.{name}")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported lsilab from {package.__file__}, not from {SRC}")
    return package


@dataclass
class Measured:
    """Ops of the timed passes, in order."""

    latencies: list = field(default_factory=list)
    digests: list = field(default_factory=list)  # None for a failed op
    failures: list = field(default_factory=list)  # (op index, role, message)
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def completed(self) -> list:
        """Latencies of the ops that did not fail."""
        return [t for t, d in zip(self.latencies, self.digests) if d is not None]


def run_ops(workload, state, ops, measured: Measured, tracer: Tracer | None = None) -> None:
    """Run ops in order; an op that raises or fails its check counts as failed."""
    for op in ops:
        index = measured.attempted
        role = workload.roles[op.role]
        if tracer is not None:
            tracer.begin_op(index, op.role)
        start = thread_time()
        try:
            result = role.call(state, op.params)
        except Exception as exc:  # an op's failure is data, not the end of the run
            result, error = None, exc
        else:
            error = None
        finally:
            end = thread_time()
            if tracer is not None:
                tracer.end_op(start, end)
        measured.latencies.append(end - start)
        if error is None:
            try:
                measured.digests.append(role.check(state, op.params, result))
                continue
            except Exception as exc:
                error = exc
        measured.digests.append(None)
        measured.failures.append((index, op.role, f"{type(error).__name__}: {error}"))


def measure(workload, state, passes, seconds: float, tracer: Tracer | None = None,
            replay: int | None = None) -> Measured:
    """Time whole passes until the next one would end after ``seconds`` of wall clock.

    ``passes(i)`` returns pass i. With ``replay`` run exactly that many
    passes instead.
    """
    measured = Measured()
    started = perf_counter()
    while True:
        pass_start = perf_counter()
        run_ops(workload, state, passes(measured.passes), measured, tracer)
        measured.passes += 1
        now = perf_counter()
        if replay is not None:
            if measured.passes >= replay:
                break
        elif now - started + (now - pass_start) > seconds:
            break
    return measured


class PassSource:
    """Passes drawn from the seed, kept so a replay sees the same ops."""

    def __init__(self, workload, state, seed_key: list):
        self.workload, self.state = workload, state
        self.rng = np.random.default_rng(seed_key)
        self.cache: list = []

    def __call__(self, i: int):
        while len(self.cache) <= i:
            self.cache.append(self.workload.next_pass(self.state, self.rng))
        return self.cache[i]


def set_up(workload, seed: int, workdir: Path):
    """One set-up: import, inputs, input files, a warm-up pass. Returns (state, warm-up digests)."""
    lsilab = fresh_lsilab()
    state = workloads.State(lsilab, workdir)
    workload.setup(state, np.random.default_rng([seed, 0]))
    ops = workload.next_pass(state, np.random.default_rng([seed, 2]))
    warm = Measured()
    run_ops(workload, state, ops, warm)
    if warm.failures:
        raise SetupError(f"warm-up op failed: {warm.failures[0]}")
    return state, warm.digests


def digest(values) -> str:
    return hashlib.blake2b(repr(values).encode()).hexdigest()


def probe_setup(workload_name: str, seed: int) -> tuple[float, str]:
    """Set up in a fresh process; its CPU time from process start and its warm-up digest."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "harness.py"), workload_name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no message"])[-1]
        raise SetupError(f"set-up probe exited {done.returncode}: {last}")
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["setup_s"], probe["warmup"]


def middle_mean(values) -> float:
    """Mean of the values between the lower and the upper quartile.

    The host switched between a fast and a slow state for seconds at a
    time, so a round's p50 sat near one of two levels. A median over the
    rounds jumped between them when about half the rounds were slow; this
    mean moves smoothly with the share of slow rounds and still drops the
    outlying quarter on each side.
    """
    values = sorted(values)
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k])


def quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def round_metrics(measured: Measured) -> tuple[float, float, float]:
    """Throughput, p50 and p90 of one round, over its completed ops.

    Throughput is completed ops over the round's timed CPU time, the sum
    of its op times; the checks between ops are not timed.
    """
    done = measured.completed or measured.latencies
    return (
        len(measured.completed) / sum(measured.latencies),
        statistics.median(done) * 1e3,
        quantile(done, 0.9) * 1e3,
    )


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": cache_sizes(),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except Exception:
        return "unknown"


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    """One benchmark run. Prints a report and returns the result object."""
    workload = workloads.WORKLOADS[workload_name]
    workdir = WORK / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            outcome = _traced(workload, seed, seconds, workdir)
        else:
            outcome = _timed(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failures, metrics, known, notes = outcome
    result = {
        "correct": correct and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("provenance: " + json.dumps(provenance(workload.name, seed, seconds, trace)), file=out)
    report(workload.name, result, failures, known, notes, out)
    return result


def _timed(workload, seed, seconds, workdir):
    """End-to-end metrics: middle means over pinned rounds, set-up from fresh processes."""
    cpus = sorted(os.sched_getaffinity(0))
    state, warm = set_up(workload, seed, workdir)
    state.known_defects.clear()
    reference = digest(warm)
    measured, setup_times, notes = [], [], []

    def probe() -> bool:
        probe_time, probe_digest = probe_setup(workload.name, seed)
        setup_times.append(probe_time)
        if probe_digest != reference:
            notes.append(f"set-up probe {len(setup_times)}: warm-up outputs differ "
                         "from this process's warm-up")
        return probe_digest == reference

    correct, rounds, began = True, MIN_ROUNDS, perf_counter()
    try:
        r = 0
        while r < rounds:
            # Probes run unpinned, spread so that all are done by the last round.
            os.sched_setaffinity(0, cpus)
            while len(setup_times) < math.ceil(SETUP_PROBES * (r + 1) / rounds):
                correct &= probe()
            os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            source = PassSource(workload, state, [seed, 1, r])
            replay = measured[0].passes if measured else None
            start = perf_counter()
            measured.append(measure(workload, state, source, ROUND_SECONDS, replay=replay))
            if r == 0:
                rounds = max(MIN_ROUNDS, int(seconds / (perf_counter() - start)))
            r += 1
            # The wall clock bounds the run even when the host slows after round 0.
            if r >= MIN_ROUNDS and perf_counter() - began > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    while len(setup_times) < SETUP_PROBES:
        correct &= probe()

    per_round = [round_metrics(m) for m in measured]
    throughput, p50, p90 = (middle_mean(column) for column in zip(*per_round))
    ops = measured[0].attempted
    notes.append(f"{len(measured)} rounds of {ops} ops ({measured[0].passes} passes) on CPUs {cpus}; "
                 f"each round's p90 has {ops - math.ceil(0.9 * ops)} ops beyond it; "
                 "metrics are means of the middle half of rounds")
    for name, column in zip(("throughput_ops_s", "latency_p50_ms", "latency_p90_ms"), zip(*per_round)):
        notes.append(f"{name} by round: " + ", ".join(f"{v:.4g}" for v in column))
    notes.append(f"setup_s is the median of {len(setup_times)} fresh processes: "
                 + ", ".join(f"{t:.4f}" for t in setup_times))
    values = {
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    failures = [f for m in measured for f in m.failures]
    return (correct, sum(m.attempted for m in measured), failures, metrics,
            state.known_defects, notes)


def _traced(workload, seed, seconds, workdir):
    """Per-layer metrics from a traced replay of an untraced half-run."""
    notes = []
    state, _ = set_up(workload, seed, workdir)
    state.known_defects.clear()
    source = PassSource(workload, state, [seed, 1, 0])
    measured = measure(workload, state, source, seconds / 2.0)
    untraced = measured.attempted / sum(measured.latencies)
    tracer = Tracer()
    tracer.install()
    try:
        replayed = measure(workload, state, source, math.inf, tracer=tracer, replay=measured.passes)
    finally:
        correct = tracer.uninstall()
    if not correct:
        notes.append("tracer did not restore every original")
    if replayed.digests != measured.digests:
        correct = False
        same = sum(a == b for a, b in zip(replayed.digests, measured.digests))
        notes.append(f"traced outputs differ: {same} of {measured.attempted} ops identical")
    else:
        notes.append(f"traced replay of {measured.attempted} ops gave identical outputs")
    spans_path = WORK / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    notes.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return (correct, measured.attempted + replayed.attempted,
            measured.failures + replayed.failures, tracer.metrics(untraced),
            state.known_defects, notes)


def report(name, result: dict, failures: list, known: dict, notes: list, out) -> None:
    n, failed = result["attempted"], result["failed"]
    print(f"workload {name}: {n} ops attempted", file=out)
    print(f"  failed_ratio = {failed / n!r} 1 ({failed} of {n})", file=out)
    for index, role, message in failures[:5]:
        print(f"  failed op {index} ({role}): {message}", file=out)
    for key, count in known.items():
        print(f"  known defect, not counted as failed: {key} on {count} ops", file=out)
    for note in notes:
        print(f"  {note}", file=out)
    metrics = result["metrics"]
    for key, metric in metrics.items():
        function = key.rsplit(".", 1)[0]
        if metrics.get(f"{function}.calls", {}).get("value", 1) == 0:
            continue  # a function this workload never calls
        print(f"  {key} = {metric['value']!r} {metric['unit']}", file=out)


def _probe_main(argv) -> None:
    """One set-up in this process; CPU time from process start to the first timed op."""
    name, seed = argv[0], int(argv[1])
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, warm = set_up(workloads.WORKLOADS[name], seed, workdir)
        elapsed = process_time()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed, "warmup": digest(warm)}))


if __name__ == "__main__":
    _probe_main(sys.argv[1:])
