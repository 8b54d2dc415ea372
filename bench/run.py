"""Benchmark of `setint integrate`, run from the root of a setint checkout.

    python3 bench/run.py --workload hull_const --seed 1 --seconds 45 --trace 0

Starts the workload process (bench/worker.py) with SETINT_THREADS=1 and the
BLAS/OpenMP thread counts capped at the number of CPUs, and prints every
metric by name and unit, then one JSON result object as the last line.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones.  Set-up time is the median over SETUP_LAUNCHES process launches, half
before the measured one and half after it, each timed from launch until the
workload process reports that its imports are done.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
#: jobs.WORKLOADS, repeated because this process does not import numpy.
WORKLOADS = ("hull_const", "hull_moving", "raw_sets")
SETUP_LAUNCHES = 9
#: A run that has not finished by then is stopped and reported as failed.
DEADLINE_S = 160.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ, SETINT_THREADS="1", PYTHONHASHSEED="0")
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def launch(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start the worker and wait for its "ready" line; returns the process and
    the seconds from launch to ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload process did not get ready (exit {proc.returncode})")
    return proc, setup


def probe_setup(common: list[str], env: dict) -> float:
    proc, setup = launch([*common, "--setup-only"], env)
    if proc.wait(timeout=60) != 0:
        raise SystemExit(f"set-up probe failed with exit {proc.returncode}")
    return setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "setint", "__init__.py")):
        print("error: run from the root of a setint checkout (no src/setint here)", file=sys.stderr)
        return 2
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    probes = 0 if args.trace else (SETUP_LAUNCHES - 1) // 2
    setups = [probe_setup(common, env) for _ in range(probes)]
    proc, setup = launch([*common, "--trace", str(args.trace)], env)
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: workload process still running after {DEADLINE_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    info = result.pop("info")
    setups += [probe_setup(common, env) for _ in range(probes)]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        info["setup_s_samples"] = setups
    report(result, info)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**result, "info": info}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def report(result: dict, info: dict) -> None:
    m = info["machine"]
    print(f"machine: {m['nproc']} x {m['cpu']}; python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, {m['blas']}; env {json.dumps(m['env'], sort_keys=True)}")
    print(f"{info['workload']} seed {info['seed']}: {result['attempted']} jobs in "
          f"{info['timed_wall_s']:.2f} s, {result['failed']} failed, "
          f"{info['wrong_outputs']} wrong outputs; checked in {info['check_s']:.1f} s "
          f"({info['references_computed']} references computed, the rest stored)")
    exact, expected = info["exact_zero_rows"]
    if expected:
        print(f"  {exact} of {expected} rows whose exact distance is 0 read exactly 0.0")
    for f in info["failures"]:
        print(f"  failed job {f['job']} ({f['shape']}): exit {f['exit']}: {f['error']}")
    if "tail_percentile" in info:
        print(f"  job_tail_s is p{info['tail_percentile']} of {result['attempted']} jobs "
              f"({info['jobs_beyond_tail']} beyond it)")
    if "span_coverage_min" in info:
        print(f"  spans cover >= {info['span_coverage_min']:.3f} of each traced job; "
              f"absent layers: {info['absent_layers'] or 'none'}; spans in {info['spans_file']}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name} = {m['value']!r} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
