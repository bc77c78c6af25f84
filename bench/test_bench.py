"""Tests of the benchmark itself: declared metrics, failure counting,
argument errors, a checkout without sources, failed ops left out
of the latencies, and the tracer."""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import thread_time

import numpy as np
import pytest

import harness
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _lsilab_modules():
    return {n: m for n, m in sys.modules.items() if n == "lsilab" or n.startswith("lsilab.")}


@pytest.fixture
def keep_lsilab():
    """The harness re-imports lsilab; give the rest of the test run its modules back."""
    saved, path = _lsilab_modules(), list(sys.path)
    yield
    for name in _lsilab_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    sys.path[:] = path


def test_declared_workloads_are_the_harness_workloads():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.fixture
def short_runs(monkeypatch):
    """One round of one pass and one set-up probe."""
    monkeypatch.setattr(harness, "MIN_ROUNDS", 1)
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)


@pytest.mark.parametrize("trace", [False, True], ids=["end-to-end", "traced"])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_reports_every_declared_metric(workload, trace, keep_lsilab, short_runs):
    out = io.StringIO()
    result = harness.run(workload, 3, 0.0, trace, out=out)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_ratio = 0.0" in out.getvalue()


def test_bad_input_counts_as_failed_op_and_the_run_goes_on(keep_lsilab, tmp_path):
    state = workloads.State(harness.fresh_lsilab(), tmp_path)
    fine = workloads.WORKLOADS["fine-grid"]
    ops = [
        workloads.Op("sharp-circle", (0.2, 1, 0.5)),
        workloads.Op("deficits", (0.0, -1.0, 1.0, 0.5)),  # b < a: the library raises
        workloads.Op("sharp-circle", (0.3, 2, 0.5)),
    ]
    measured = harness.Measured()
    harness.run_ops(fine, state, ops, measured)
    assert measured.attempted == 3
    assert [(i, role) for i, role, _ in measured.failures] == [(1, "deficits")]

    # A result that fails its check counts the same way: a CLI output
    # that differs from the first run of its command breaks the
    # determinism contract.
    cli = workloads.WORKLOADS["cli-io"]
    (tmp_path / "cli").mkdir()
    cli_state = workloads.State(state.L, tmp_path / "cli")
    cli.setup(cli_state, np.random.default_rng(0))
    cli_state.reference["functional"] = "a digest no output has"
    harness.run_ops(cli, cli_state, [workloads.Op("functional+verify", ("functional+verify",))], measured)
    assert measured.attempted == 4
    assert measured.failures[-1][:2] == (3, "functional+verify")
    assert "CheckFailed" in measured.failures[-1][2]


@pytest.mark.parametrize("args", [
    ["--workload", "no-such-workload", "--seed", "1"],
    ["--workload", "fine-grid", "--seed", "-3"],
    ["--workload", "fine-grid", "--seed", "one"],
])
def test_bad_arguments_end_in_one_line_and_no_result(args):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args, "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert len(done.stderr.strip().splitlines()) == 1


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fine-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no lsilab sources" in done.stderr


def test_tracer_sees_names_imported_across_modules_and_restores_them(keep_lsilab):
    lsilab = harness.fresh_lsilab()
    before = {(m.__name__, a): v for m in _lsilab_modules().values() for a, v in vars(m).items()}
    init = lsilab.GridFunction.__init__
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0, "probe")
        start = thread_time()
        f = lsilab.sample_family("sharpness", [0.2], lsilab.UNIT_INTERVAL, 65)
        lsilab.lsi_deficit_interval(f)
        tracer.end_op(start, thread_time())
    finally:
        assert tracer.uninstall()

    names = [tracer.names[s[0]] for s in tracer.spans]
    parents = {names[i]: names[s[3]] for i, s in enumerate(tracer.spans) if s[3] >= 0}
    # functionals looks these up under its own imported names
    assert parents["function_space.differentiate"] == "functionals.dirichlet_energy"
    assert parents["function_space.quadrature_weights"] in (
        "functionals.squared_mass", "functionals.entropy", "functionals.dirichlet_energy")
    assert parents["functionals.lsi_deficit_interval"] == "op.probe"
    assert names.count("function_space.GridFunction") == 2  # sample and derivative
    assert all(s[4] == 0 for s in tracer.spans)
    self_times = tracer.self_times()
    assert all(t >= 0 for t in self_times)

    after = {(m.__name__, a): v for m in _lsilab_modules().values() for a, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert lsilab.GridFunction.__init__ is init


def test_round_metrics_leave_failed_ops_out_of_the_latencies():
    # Nine ops of 1 ms complete; a slow one fails. The failure still
    # takes timed wall clock but is no latency sample.
    measured = harness.Measured(latencies=[0.001] * 9 + [0.5], digests=[("ok",)] * 9 + [None])
    throughput, p50, p90 = harness.round_metrics(measured)
    assert throughput == pytest.approx(9 / 0.509)
    assert p50 == pytest.approx(1.0) and p90 == pytest.approx(1.0)


def test_middle_mean_averages_the_rounds_between_the_quartiles():
    assert harness.middle_mean([7.0, 11.0, 7.0, 11.0, 100.0, 0.0, 7.0, 11.0]) == 9.0
    assert harness.middle_mean([1.0, 2.0, 3.0, 50.0]) == 2.5  # four rounds: the median
