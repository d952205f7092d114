"""Benchmark of the fuzzsuper package: one workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload basis --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

With ``--trace 0`` the jobs run untraced and the end-to-end metrics are
printed.  With ``--trace 1`` untraced and traced jobs alternate and the
per-layer metrics are printed, including the tracing overhead.  One warm-up
job is run first and its time discarded.  Every job's outputs are checked;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS and OpenMP threads are pinned before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import jobs, spans  # noqa: E402  (imports fuzzsuper from SRC)

MIN_JOBS = 2  # timed untraced jobs per run, however long they take
SETUP_PROBES = 7  # set-ups timed per untraced run; the median is reported
REFERENCE_S = 0.05  # reference-kernel seconds of the machine that times are scaled to
KERNEL_REPEATS = 3  # kernel runs per reference sample; the sample is their median

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}
COMPUTED_UNITS = {
    "graded.rank_decision.flops": "flop",
    "graded.rank_decision.min_gap": "ratio",
    "calculus.d_matrix.bytes": "bytes",
    "calculus.d_matrix.density": "ratio",
    "fuzzy.basis_bytes": "bytes",
    "fuzzy.cost_exponent": "exponent",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
}


def check_checkout() -> None:
    """Refuse a fuzzsuper imported from anywhere but this checkout's ``src``."""
    package = (SRC / "fuzzsuper").resolve()
    found = Path(jobs.fuzzy.__file__).resolve().parent
    if found != package:
        raise SystemExit(f"perfbench: imported fuzzsuper from {found}, not {package}")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
    }


def reference_kernel() -> float:
    """Seconds for a fixed mix of work like the workloads', without fuzzsuper.

    Exact rational arithmetic in Python, small complex matrix products and a
    values-only complex SVD.  The machine's speed drifts by tens of percent
    over seconds to minutes under contention from other tenants; the same
    drift shows in this kernel, so times divided by its time next to them
    cancel it.
    """
    rng = np.random.default_rng(0)
    small = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    tall = rng.standard_normal((360, 240)) + 1j * rng.standard_normal((360, 240))
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(5000):
        total += Fraction(k % 7 - 3, k % 11 + 1)
    for _ in range(180):
        small @ small - small.T @ small
    np.linalg.svd(tall, compute_uv=False)
    return time.perf_counter() - t0


def reference_sample() -> float:
    return statistics.median(reference_kernel() for _ in range(KERNEL_REPEATS))


def scale_factor(before: float, after: float) -> float:
    """To seconds on the reference machine, from the reference samples around them."""
    return REFERENCE_S / (0.5 * (before + after))


class StepClock:
    """Times one job step by step, taking a reference sample between steps.

    The job calls ``lap`` (as ``tally.lap``) at the end of each step.  Each
    step is scaled by the samples just before and just after it, so drift of
    the machine's speed during a job cancels as well as drift between jobs.
    The samples are not part of any step's time.
    """

    def __init__(self) -> None:
        self.steps = []  # (seconds, scale factor)
        self.before = reference_sample()
        self.t0 = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self.t0
        after = reference_sample()
        self.steps.append((elapsed, scale_factor(self.before, after)))
        self.before = after
        self.t0 = time.perf_counter()

    def close(self) -> None:
        """End the job: the time since the last lap joins the last step."""
        if not self.steps:
            self.lap()
            return
        seconds, factor = self.steps[-1]
        self.steps[-1] = (seconds + time.perf_counter() - self.t0, factor)

    @property
    def wall(self) -> float:
        return sum(s for s, _ in self.steps)

    @property
    def scaled(self) -> float:
        return sum(s * f for s, f in self.steps)


def measure_setup(workload: str, seed: int, count: int = SETUP_PROBES) -> list:
    """(seconds, scaled seconds) from process start to first job ready, per fresh process.

    A reference sample is taken between probes, none while a probe runs.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-probe",
    ]
    samples = []
    before = reference_sample()
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        after = reference_sample()
        samples.append((elapsed, elapsed * scale_factor(before, after)))
        before = after
    return samples


def timed_job(workload, inputs, outcome: jobs.Tally, clock=None):
    """Run one job; its checks are added to ``outcome``.

    With a ``StepClock`` the job is timed step by step on it.
    """
    tally = jobs.Tally()
    if clock is not None:
        tally.lap = clock.lap
    t0 = time.perf_counter()
    try:
        workload.job(inputs, tally)
    except Exception as exc:  # a crashing operation is a failed one; keep measuring
        traceback.print_exc()
        tally.check("job raised", False, f"{type(exc).__name__}: {exc}")
    if clock is not None:
        clock.close()
    elapsed = time.perf_counter() - t0
    outcome.merge(tally)
    return elapsed, tally


def span_names() -> list:
    return sorted({name for name, *_ in spans.layer_targets()})


def per_layer_units() -> dict:
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COMPUTED_UNITS)
    return units


def profile(tracer, names: list, wall: float) -> dict:
    """Per-layer figures of one traced job."""
    out = {}
    for name in names:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    counts = tracer.counts
    entries = counts.get("calculus.d_matrix.entries", 0)
    out["graded.rank_decision.flops"] = counts.get("graded.rank_decision.flops", 0.0)
    out["graded.rank_decision.min_gap"] = counts.get("graded.rank_decision.min_gap", 0.0)
    out["calculus.d_matrix.bytes"] = counts.get("calculus.d_matrix.bytes", 0)
    nonzero = counts.get("calculus.d_matrix.nonzero", 0)
    out["calculus.d_matrix.density"] = nonzero / entries if entries else 0.0
    out["fuzzy.basis_bytes"] = sum(tracer.seen.values())
    out["trace.uncovered_share"] = 1.0 - sum(tracer.self_s.values()) / wall
    return out


def cost_exponent(tallies: list) -> float:
    """log2 of the q=32 over the q=16 time of the basis job; 0 elsewhere."""
    if not tallies or not all(16 in t.level_s and 32 in t.level_s for t in tallies):
        return 0.0
    t16 = statistics.median(t.level_s[16] for t in tallies)
    t32 = statistics.median(t.level_s[32] for t in tallies)
    return math.log2(t32 / t16)


def measure(workload, inputs, seconds: float, trace: bool, setup_samples=()):
    """Run the warm-up and the timed jobs; return (result, summary lines).

    Untraced runs time at least ``MIN_JOBS`` jobs; traced runs alternate
    untraced and traced jobs, at least one of each.  Untraced jobs of a
    workload that scales are timed on a ``StepClock``.  ``setup_s``, and
    ``job_s`` there, are scaled by the reference samples around each set-up
    and each step: they are seconds on a machine where the reference kernel
    takes ``REFERENCE_S``.  ``setup_samples`` are (seconds, scaled seconds)
    pairs from ``measure_setup``.
    """
    outcome = jobs.Tally()  # every job of the run, warm-up included
    timed_job(workload, inputs, outcome)  # warm-up, time discarded
    plain, plain_scaled, plain_tallies, traced, profiles = [], [], [], [], []
    names = span_names()
    targets = spans.layer_targets()
    start = time.perf_counter()
    min_jobs = 1 if trace else MIN_JOBS
    while len(plain) < min_jobs or time.perf_counter() - start < seconds:
        clock = StepClock() if workload.scale else None
        elapsed, tally = timed_job(workload, inputs, outcome, clock)
        plain.append(clock.wall if clock else elapsed)
        plain_scaled.append(clock.scaled if clock else elapsed)
        plain_tallies.append(tally)
        if not trace:
            continue
        tracer = spans.Tracer()
        patches = spans.instrument(tracer, targets)
        try:
            elapsed, _ = timed_job(workload, inputs, outcome)
        finally:
            spans.restore(patches)
        traced.append(elapsed)
        profiles.append(profile(tracer, names, elapsed))

    jobs_run = len(plain) + len(traced) + 1
    lines = [
        f"jobs: {len(plain)} untraced" + (f", {len(traced)} traced" if trace else "")
        + ", after 1 warm-up job",
        f"times scaled to a machine where the reference kernel takes {REFERENCE_S} s",
    ]
    if trace:
        units = per_layer_units()
        values = {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}
        values["fuzzy.cost_exponent"] = cost_exponent(plain_tallies)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        notes = {key: f"median of {len(traced)} traced jobs" for key in units if key.endswith("_s")}
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(s for _, s in setup_samples),
            "job_s": statistics.median(plain_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": outcome.accuracy_digits,
        }
        notes = {
            "setup_s": f"scaled median of {len(setup_samples)} set-ups, unscaled times: "
            + ", ".join(f"{s:.4f}" for s, _ in setup_samples),
            "job_s": f"scaled median of {len(plain)} jobs, scaled times: "
            + ", ".join(f"{s:.4f}" for s in plain_scaled)
            + "; unscaled times: "
            + ", ".join(f"{s:.4f}" for s in plain)
            if workload.scale
            else f"median of {len(plain)} jobs, unscaled times: "
            + ", ".join(f"{s:.4f}" for s in plain),
            "peak_rss_mb": f"peak of this process over {jobs_run} jobs",
            "accuracy_digits": f"worst of {jobs_run} jobs",
        }
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    for key, m in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"{key:<44} {m['value']:>16.6g} {m['unit']}{note}")
    for name, detail in outcome.failures.items():
        lines.append(f"FAILED {name}: {detail}")
    for name, detail in outcome.known.items():
        lines.append(f"KNOWN DEFECT {name}: {detail}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=list(jobs.WORKLOADS) + ["all"],
        help="one workload, or all of them, each in its own process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="minimum timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in a fresh process of its own, one after another."""
    code = 0
    for name in jobs.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    if args.workload == "all":
        return run_all(args)
    workload = jobs.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.make_inputs(args.seed)
        print("ready", flush=True)
        return 0
    env = environment()
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs = workload.make_inputs(args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        inputs["out_dir"] = out_dir
        result, lines = measure(workload, inputs, args.seconds, bool(args.trace), setup_samples)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
