"""Self-tests of the benchmark, at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import run  # puts the checkout's src first on sys.path

jobs, spans, fuzzy = run.jobs, run.spans, run.jobs.fuzzy
ROOT = run.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_basis(monkeypatch):
    """The basis workload at levels 2 and 3, with one timed job."""
    monkeypatch.setattr(jobs, "BASIS_LEVELS", (2, 3))
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    workload = jobs.WORKLOADS["basis"]
    return workload, workload.make_inputs(7)


def canonical(x):
    """A comparable form of nested inputs: arrays by their bytes."""
    if isinstance(x, dict):
        return tuple((repr(k), canonical(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(canonical(v) for v in x)
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if hasattr(x, "mat"):
        return x.mat.tobytes()
    return repr(x)


def test_benchmark_json_has_the_contract_keys():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(jobs.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert max(BENCH["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(monkeypatch, trace, section):
    workload, inputs = tiny_basis(monkeypatch)
    result, lines = run.measure(workload, inputs, 0.0, trace, setup_samples=[(0.5, 0.5)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert any(line.startswith(name + " ") for line in lines), name
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_spans_see_calls_across_modules_and_fit_in_the_wall_time():
    tracer = spans.Tracer()
    original = fuzzy.FuzzySuperSphere.decompose
    patches = spans.instrument(tracer, spans.layer_targets())
    try:
        rng = np.random.default_rng(3)
        t0 = time.perf_counter()
        sphere = fuzzy.FuzzySuperSphere(3)
        f = jobs.graded.GradedMatrix(sphere.dims, rng.standard_normal((7, 7)))
        sphere.reconstruct(sphere.decompose(f))
        wall = time.perf_counter() - t0
    finally:
        spans.restore(patches)
    assert fuzzy.FuzzySuperSphere.decompose is original
    assert tracer.calls["fuzzy.decompose"] == 1
    assert tracer.calls["graded.indefinite_inner"] == 49
    assert tracer.calls["graded.graded_commutator"] > 0  # nested under harmonic
    assert sum(tracer.self_s.values()) <= wall
    share = run.profile(tracer, run.span_names(), wall)["trace.uncovered_share"]
    assert 0.0 <= share <= 1.0


def test_instrument_patches_every_module_that_imported_a_name():
    originals = {
        "calculus": jobs.calculus.rank_decision,
        "graded": jobs.graded.rank_decision,
        "cli": jobs.cli.cohomology_dims,
    }
    patches = spans.instrument(spans.Tracer(), spans.layer_targets())
    try:
        assert jobs.calculus.rank_decision is not originals["calculus"]
        assert jobs.graded.rank_decision is not originals["graded"]
        assert jobs.cli.cohomology_dims is not originals["cli"]
        assert jobs.calculus.graded_commutator is jobs.fuzzy.graded_commutator
    finally:
        spans.restore(patches)
    assert jobs.calculus.rank_decision is originals["calculus"]
    assert jobs.cli.cohomology_dims is originals["cli"]


def test_a_wrong_result_is_counted_as_failed(monkeypatch):
    workload, inputs = tiny_basis(monkeypatch)
    reconstruct = fuzzy.FuzzySuperSphere.reconstruct
    monkeypatch.setattr(
        fuzzy.FuzzySuperSphere, "reconstruct", lambda self, e: reconstruct(self, e) * 1.001
    )
    result, lines = run.measure(workload, inputs, 0.0, False, setup_samples=[(0.5, 0.5)])
    # 2 levels x 2 matrices, in the warm-up and the one timed job
    assert result["failed"] == 8
    assert result["correct"] is False
    assert any(line.startswith("FAILED basis q=2 round trip #0: relative error") for line in lines)


def test_a_cliff_level_is_reported_but_not_counted(monkeypatch):
    workload, inputs = tiny_basis(monkeypatch)
    monkeypatch.setattr(jobs, "CLIFF_LEVELS", (3,))
    reconstruct = fuzzy.FuzzySuperSphere.reconstruct
    monkeypatch.setattr(
        fuzzy.FuzzySuperSphere, "reconstruct", lambda self, e: reconstruct(self, e) * 1.001
    )
    result, lines = run.measure(workload, inputs, 0.0, False, setup_samples=[(0.5, 0.5)])
    assert result["failed"] == 4  # only q=2 is checked
    assert result["metrics"]["accuracy_digits"]["value"] < 4  # the error still shows
    assert any(line.startswith("KNOWN DEFECT basis q=3 round trip #0: relative error") for line in lines)
    assert not any(line.startswith("FAILED basis q=3") for line in lines)


@pytest.mark.parametrize("name", jobs.WORKLOADS)
def test_the_seed_alone_fixes_the_inputs(name):
    make = jobs.WORKLOADS[name].make_inputs
    assert canonical(make(5)) == canonical(make(5))
    if name != "cohomology":  # the cohomology command takes no random input
        assert canonical(make(5)) != canonical(make(6))


def test_the_seed_alone_fixes_the_accuracy(monkeypatch):
    workload, _ = tiny_basis(monkeypatch)
    digits = []
    for _ in range(2):
        tally = jobs.Tally()
        workload.job(workload.make_inputs(11), tally)
        digits.append(tally.accuracy_digits)
    assert digits[0] == digits[1]
    monkeypatch.setattr(jobs, "CARTAN_LEVELS", (1,))
    cartan = []
    for _ in range(2):
        tally = jobs.Tally()
        jobs.cartan_job(jobs.cartan_inputs(11), tally)
        cartan.append(tally.accuracy_digits)
    assert cartan[0] == cartan[1]


def test_step_clock_leaves_the_reference_samples_out(monkeypatch):
    monkeypatch.setattr(run, "reference_kernel", lambda: (time.sleep(0.05), 0.1)[1])
    clock = run.StepClock()
    tally = jobs.Tally()
    tally.lap = clock.lap
    for _ in range(2):
        time.sleep(0.05)
        tally.lap()
    clock.close()  # the moment since the last lap joins the last step
    assert len(clock.steps) == 2
    assert 0.1 <= clock.wall < 0.2  # a reference sample takes 0.15 s here
    assert clock.scaled == pytest.approx(clock.wall * run.REFERENCE_S / 0.1)


def test_setup_probe_times_a_fresh_process():
    samples = run.measure_setup("converge", 1, count=1)
    assert len(samples) == 1 and all(0.0 < s < 60.0 for s in samples[0])


def test_refuses_to_run_without_the_package():
    with tempfile.TemporaryDirectory(prefix=".perfbench-test-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(
            ROOT / "perfbench", Path(tmp) / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        args = ["--workload", "cartan", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(
            [sys.executable] + BENCH["command"][1:] + args,
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
