"""The workload process: set up, run jobs in a closed loop, check them.

Started by run.py.  It prints "ready" once setint is imported (the end of
set-up), and its result as a JSON object on the last line of stdout.  Each job
is one in-process call to `setint.cli.run(["integrate", ...])`; one job runs
at a time, for the whole number of cycles of the workload's shape table that
best fills the time limit.  Between jobs the calibration runs.  References are
looked up or computed after the timed loop.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(BENCH_DIR, "_work")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
#: Beyond this many seconds of computing missing references the worker gives
#: up and exits nonzero, so a run still ends inside run.py's DEADLINE_S.  A
#: reference costs about 0.03 s for a raw_sets job and less for hull_const.
REFERENCE_BUDGET_S = 110.0
#: An untimed run measures at least this many cycles of the shape table; a
#: traced run, which runs every job twice, at least one.
MIN_CYCLES = 5
TAIL_PERCENTILE = 80
#: The calibration's median time on the reference machine: 2 vCPUs of an
#: Intel Xeon at 2.1 GHz under KVM.  Times are reported at that machine's speed.
CALIBRATION_REF_S = 0.035


class Calibration:
    """A fixed computation that does not use setint, timed between jobs.

    On a shared host the speed of the CPU drifts, by up to 2x within seconds,
    with what other tenants run.  The calibration slows with it.  Its time
    divided by CALIBRATION_REF_S is the machine's speed factor (above 1:
    slower than the reference).  A job's time divided by the mean factor of
    the calibrations just before and just after it is its time at the
    reference machine's speed: the drift cancels, and a change to setint moves
    it in full.  The work is a mix like setint's: sorting rows of a large
    array (canonicalising a sum), and many small array operations driven
    from Python (a simplex's pivots)."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.rows = np.floor(rng.random((20000, 3)) * 1024)
        self.matrix = rng.random((40, 60))

    def __call__(self) -> float:
        import numpy as np

        start = time.perf_counter()
        np.unique(self.rows, axis=0)
        v = np.ones(60)
        for _ in range(1500):
            v = self.matrix[int(np.argmax(self.matrix @ v))] + 0.5 * v
            v /= v.max()
        return (time.perf_counter() - start) / CALIBRATION_REF_S


@dataclass
class Outcome:
    exit_code: int | None
    error: str | None  # escaped exception, or the first stderr line
    digest: str
    output: dict | None
    wall: float
    cpu: float


def run_job(cli, config_path: str, out_dir: str) -> Outcome:
    out_json = os.path.join(out_dir, "out.json")
    out_csv = os.path.join(out_dir, "out.csv")
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(["integrate", "--config", config_path, "--json", out_json, "--csv", out_csv])
    except Exception as exc:  # a job that raises is a recorded failure, not the end of the run
        code, error = None, f"{type(exc).__name__}: {exc}".splitlines()[0]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    digest = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())
    output = None
    for path in (out_json, out_csv):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
            digest.update(data)
            if path == out_json:
                output = json.loads(data)
    if error is None and stderr.getvalue():
        error = stderr.getvalue().splitlines()[0]
    return Outcome(code, error, digest.hexdigest(), output, wall, cpu)


def tail(times: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile of job time, interpolated.  A run has
    at least MIN_CYCLES cycles of 12 or more jobs, so at least ten jobs lie
    beyond it, and every run reports the same percentile."""
    if len(times) < 2:
        return max(times)
    return statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in
                ("SETINT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import setint.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported setint from {cli.__file__}, not from {src}")
    print("ready", flush=True)
    if args.setup_only:
        return 0
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        result = measure(cli, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def write_config(job, work: str) -> str:
    path = os.path.join(work, f"job{job.index}.json")
    with open(path, "w") as fh:
        fh.write(job.config_text())
    return path


def measure(cli, args, work) -> dict:
    from jobs import cycle_length, make_job
    from spans import Tracer, layer_metrics

    # Warm-up: the first calls into numpy and scipy load code lazily.
    run_job(cli, write_config(make_job(args.workload, args.seed, -1), work), work)
    calibrate = Calibration()
    calibrate()
    factor = calibrate()
    factors: list[float] = []  # each plain job's speed factor
    tracer = Tracer() if args.trace else None
    period = cycle_length(args.workload)
    ran: list = []
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    start = time.perf_counter()
    cycle_ends: list[float] = []
    min_cycles = 1 if tracer else MIN_CYCLES
    # Whole cycles of the shape table: as many as fit best in args.seconds.
    while True:
        if len(ran) % period == 0 and ran:
            cycle_ends.append(time.perf_counter() - start)
            done = len(cycle_ends)
            if done >= min_cycles and cycle_ends[-1] * (1 + 0.5 / done) >= args.seconds:
                break
        job = make_job(args.workload, args.seed, len(ran))
        path = write_config(job, work)
        ran.append(job)
        if tracer is None:
            plain.append(run_job(cli, path, work))
            after = calibrate()
            factors.append((factor + after) / 2)
            factor = after
            continue
        # Alternate which run goes first so neither side is always warmer.
        for side in ((plain, traced) if job.index % 2 == 0 else (traced, plain)):
            if side is traced:
                tracer.job = job.index
                with tracer.installed():
                    traced.append(run_job(cli, path, work))
            else:
                plain.append(run_job(cli, path, work))
    timed_wall = cycle_ends[-1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = time.perf_counter()
    failures, wrong, zeros, computed = check(args.workload, ran, plain)
    checked = time.perf_counter() - checked
    if tracer is not None:
        for job, a, b in zip(ran, plain, traced):
            if a.digest != b.digest:
                wrong += 1
                failures.append({"job": job.index, "shape": job.shape, "exit": b.exit_code,
                                 "error": "traced output differs from untraced output"})

    n, n_failed = len(plain), len({f["job"] for f in failures})
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "cycles": n // period, "timed_wall_s": timed_wall,
            "failures": failures, "wrong_outputs": wrong, "exact_zero_rows": zeros,
            "check_s": checked, "references_computed": computed,
            "machine": machine(),
            "jobs": [[j.index, j.shape, o.exit_code, o.wall] for j, o in zip(ran, plain)]}
    if tracer is None:
        # Job times at the reference machine's speed.
        scaled = [o.wall / f for o, f in zip(plain, factors)]
        info["speed_factors"] = factors
        # A failed job has no time to solution; it counts in ok_frac instead.
        failed = {f["job"] for f in failures}
        cycles = [[t for j, t in zip(ran[c:c + period], scaled[c:c + period]) if j.index not in failed]
                  for c in range(0, n, period)]
        times = [t for cycle in cycles for t in cycle] or [timed_wall]
        tail_s = tail(times)
        info["tail_percentile"] = TAIL_PERCENTILE
        info["jobs_beyond_tail"] = sum(t > tail_s for t in times)
        metrics = {
            # The median over cycles of each cycle's median job time: a cycle
            # slowed by a neighbour on the machine does not set it.
            "job_p50_s": (statistics.median(statistics.median(c) for c in cycles if c), "s"),
            "job_tail_s": (tail_s, "s"),
            "jobs_per_s": ((n - n_failed) / sum(scaled), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": ((n - n_failed) / n, "ratio"),
        }
    else:
        metrics = layer_metrics(tracer.spans, n)
        metrics["process.cpu_s_per_job"] = (sum(o.cpu for o in plain) / n, "s")
        metrics["process.trace_overhead"] = (sum(o.wall for o in traced) / sum(o.wall for o in plain), "ratio")
        info["absent_layers"] = tracer.absent
        info["span_coverage_min"] = span_coverage(tracer.spans, ran, traced)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        info["spans_file"] = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl")
        tracer.write(info["spans_file"])
    return {"correct": wrong == 0, "attempted": n, "failed": n_failed, "info": info,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


#: The wrappers every job passes through; their own time is not split by layer.
ENTRY_SPANS = ("cli.run", "integrate.integrate")


def span_coverage(spans, ran, traced) -> float:
    """Smallest share of a traced job's wall time spent in the layers below
    the entry wrappers: the spans whose parent is `cli.run` or
    `integrate.integrate` (validation, the sum phase, the distances).  Time
    that no such span covers is time the per-layer metrics cannot place."""
    covered: dict[int, float] = {}
    for name, start, end, parent, job, _, _ in spans:
        if name not in ENTRY_SPANS and parent >= 0 and spans[parent][0] in ENTRY_SPANS:
            covered[job] = covered.get(job, 0.0) + end - start
    return min(covered.get(j.index, 0.0) / o.wall for j, o in zip(ran, traced))


def check(workload: str, ran, outcomes) -> tuple[list[dict], int, list[int], int]:
    """Compare every job with its reference.  Returns the failures, the
    number of wrong outputs (jobs that exited 0, 2 or 3 but disagree with the
    reference; a solver failure exits 1 and is a failure, not a wrong output),
    [rows exactly 0.0, rows whose exact distance is 0], and how many
    references were computed rather than found stored."""
    from reference import References, check as check_rows

    refs = References(workload)
    failures, wrong, zeros = [], 0, [0, 0]
    deadline = time.perf_counter() + REFERENCE_BUDGET_S
    for job, outcome in zip(ran, outcomes):
        if outcome.exit_code is None:
            failures.append({"job": job.index, "shape": job.shape, "exit": None, "error": outcome.error})
            continue
        if time.perf_counter() > deadline:
            raise SystemExit(f"references for {workload} took over {REFERENCE_BUDGET_S} s")
        ref = refs.get(job.config_text())
        problem = check_rows(ref, outcome.exit_code, outcome.output)
        if outcome.output is not None:
            for row, (_, lo, hi) in zip(outcome.output["rows"], ref["rows"]):
                if lo == hi == 0.0:
                    zeros[0] += row["distance"] == 0.0
                    zeros[1] += 1
        if problem is None:
            continue
        if outcome.exit_code in (0, 2, 3):
            wrong += 1
        else:
            problem = outcome.error or problem
        failures.append({"job": job.index, "shape": job.shape, "exit": outcome.exit_code, "error": problem})
    return failures, wrong, zeros, refs.computed


if __name__ == "__main__":
    sys.exit(main())
