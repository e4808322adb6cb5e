"""Benchmark of the groupoid-homology CLI on three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload z-nerve --seed 1 --seconds 40 --trace 0

Load comes from one process and one thread: a closed loop with one client
that calls `groupoid_homology.cli.main(argv)` in-process, with stdout
captured, and starts each job when the previous one has returned.  A run is a
whole number of passes over the workload's job list (`workloads.WORKLOADS`);
it starts no pass that would end after --seconds, but makes at least enough
passes for MIN_SAMPLES timed jobs.  Every job's stdout is checked against the
closed-form answer and must be byte-identical to the same job's stdout in the
first pass; a job that fails either check, exits nonzero or raises counts as
failed.

The host is shared, and other tenants slow it by 10-80% for spells of
seconds to minutes.  A fixed reference kernel (`hostspeed`) is timed
before the first job of each pass and after every job, and every time the
benchmark reports, set-up included, is scaled by the kernel's time around
it to a nominal host on which the kernel takes `hostspeed.NOMINAL_S`.
Per-layer self times are scaled by their pass's overall factor.  The report
also prints the unscaled figures.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, prints the per-layer metrics of the traced ones and writes
their spans to .perfbench_out/.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs, check  # noqa: E402

PACKAGE = "groupoid_homology"
SETUPS = 7  # set-ups per run; setup_s is their median
MIN_SAMPLES = 100  # untraced jobs per run, so job_p90_s has >= 10 samples above it

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
              "job_p90_s": "s", "peak_rss_mb": "MB"}
SELF_TIMES = [
    "chains.validate", "matrix.matmul", "groupoids.moore_complex",
    "matrix.invariant_factors", "matrix.smith_normal_form", "matrix.solve_columns",
    "matrix.kernel_basis", "chains.homology_group", "chains.homology_int",
    "chains.homology_mod", "uct.uct_verify", "uct.homology_with_coefficients",
    "mv.decompose", "mv.chain_ses", "mv.long_exact_sequence", "mv.connecting",
    "abelian.middle_homology", "abelian.group_of", "cli.main", "groupoids.validate",
]
CALLS = [
    "matrix.matmul", "groupoids.moore_complex", "matrix.invariant_factors",
    "matrix.smith_normal_form", "matrix.solve_columns", "chains.homology_group",
    "chains.homology_int", "chains.homology_mod", "mv.connecting", "abelian.middle_homology",
]
COUNTS = [
    "matrix.matmul.madds", "groupoids.basis_size", "groupoids.boundary_cells",
    "groupoids.boundary_nnz", "matrix.invariant_factors.nnz", "matrix.smith_normal_form.cells",
]


def import_package():
    """Import the package from this checkout's src/, never from anywhere else."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not from src/")
    return cli


def set_up(workload: str, seed: int, directory: Path):
    """Import the package, write the seeded inputs and compute their answers."""
    start = time.perf_counter()
    cli = import_package()
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    jobs = make_jobs(workload, seed, directory)
    return time.perf_counter() - start, cli, jobs


def run_job(cli, argv: list[str]) -> tuple[float, object, str]:
    """Wall time, exit code (or the exception's text) and stdout of one call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as e:  # the job fails; the run goes on
        code = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []  # (measured, scaled to the nominal host) per set-up
        for _ in range(SETUPS):
            before = hostspeed.sample()
            seconds, cli, jobs = set_up(args.workload, args.seed, work)
            setups.append((seconds, *hostspeed.scaled([seconds], [before, hostspeed.sample()])))
    except ImportError as e:
        shutil.rmtree(work, ignore_errors=True)
        print(f"error: cannot import {PACKAGE} from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    try:
        return measure(args, cli, jobs, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, jobs, setups: list[tuple[float, float]]) -> int:
    tracer = Tracer(PACKAGE) if args.trace else None
    min_passes = max(2, math.ceil(MIN_SAMPLES / len(jobs)))
    if tracer:
        min_passes = 4  # two untraced, two traced
    first_stdout: dict[int, str] = {}
    samples: list[float] = []  # untraced job times, scaled
    pass_s = {False: [], True: []}  # per pass: (measured, scaled) summed job time, by traced
    scales: list[float] = []  # per pass, scaled over measured job time
    layer = []  # per traced pass: (scaled self times, calls, counts, errors)
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    longest = 0.0
    passes = 0
    while passes < min_passes or time.perf_counter() - start + longest <= args.seconds:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            counts, errors = tracer.counts.copy(), tracer.errors.copy()
            tracer.install()
        pass_start = time.perf_counter()
        times, kernel_s = [], [hostspeed.sample()]
        try:
            for i, job in enumerate(jobs):
                if traced:
                    tracer.job = attempted
                elapsed, code, stdout = run_job(cli, job.argv)
                kernel_s.append(hostspeed.sample())
                attempted += 1
                times.append(elapsed)
                problem = check(job, code, stdout) if isinstance(code, int) else code
                if problem is None and first_stdout.setdefault(i, stdout) != stdout:
                    problem = "stdout differs from the first pass"
                if problem is not None:
                    failures.append(f"pass {passes + 1} job {i} ({job.spec.label}): {problem}")
        finally:
            if traced:
                tracer.uninstall()
        scaled = hostspeed.scaled(times, kernel_s)
        scale = sum(scaled) / sum(times)
        scales.append(scale)
        if traced:
            self_s, calls = tracer.self_times(first_span)
            self_s = {name: seconds * scale for name, seconds in self_s.items()}
            layer.append((self_s, calls, tracer.counts - counts, tracer.errors - errors))
        else:
            samples += scaled
        pass_s[traced].append((sum(times), sum(scaled)))
        longest = max(longest, time.perf_counter() - pass_start)
        passes += 1

    failed = len(failures)
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes x {len(jobs)} jobs,"
          f" one process, one thread, closed loop with one client")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} jobs failed)")
    print(f"  host speed: times are scaled to a host where the reference kernel takes"
          f" {hostspeed.NOMINAL_S * 1000:g} ms; scale per pass {min(scales):.3f}-{max(scales):.3f}")
    if tracer:
        metrics = layer_metrics(tracer, layer, pass_s, len(jobs))
        write_spans(tracer, args)
    else:
        measured = statistics.median(m for m, _ in pass_s[False])
        metrics = {
            "setup_s": statistics.median(s for _, s in setups),
            "jobs_per_s": len(jobs) / statistics.median(s for _, s in pass_s[False]),
            "job_p50_s": statistics.median(samples),
            "job_p90_s": statistics.quantiles(samples, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
        above = sum(1 for s in samples if s > metrics["job_p90_s"][0])
        print(f"  setup_s is the median of {SETUPS} set-ups; job_p90_s has {len(samples)}"
              f" samples, {above} above it")
        print(f"  as measured, unscaled: setup_s {statistics.median(m for m, _ in setups):.6g},"
              f" jobs_per_s {len(jobs) / measured:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer: Tracer, layer, pass_s, jobs_per_pass: int) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass totals."""

    def median_of(index: int, key: str, middle=statistics.median):
        return middle(entry[index].get(key, 0) for entry in layer)

    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (median_of(0, name), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (median_of(1, name, statistics.median_low), "count")
    for name in COUNTS:
        out[name] = (median_of(2, name, statistics.median_low), "count")
    for name in LAYERS:
        out[f"{name}.errors"] = (median_of(3, name, statistics.median_low), "count")
    untraced = statistics.median(s for _, s in pass_s[False])
    traced = statistics.median(s for _, s in pass_s[True])
    out["trace.overhead_frac"] = (1 - untraced / traced, "ratio")

    totals: dict[str, float] = {}
    for self_s, _, _, _ in layer:
        for name, seconds in self_s.items():
            totals[name] = totals.get(name, 0.0) + seconds / len(layer)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    print(f"  per traced pass of {jobs_per_pass} jobs ({len(layer)} traced passes):"
          f" untraced {untraced:.3f} s, traced {traced:.3f} s")
    print("  top self time: " + ", ".join(
        f"{name} {seconds:.3f} s ({seconds / traced:.0%})" for name, seconds in ranked[:5]))
    callers = tracer.callers("matrix.matmul")
    total = sum(callers.values()) or 1.0
    print("  matrix.matmul self time by caller: " + ", ".join(
        f"{name} {share / total:.0%}" for name, share in sorted(callers.items(), key=lambda kv: -kv[1])))
    return out


def write_spans(tracer: Tracer, args) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
