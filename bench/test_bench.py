"""Self-tests of the benchmark: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import copy
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import setint.cli as cli  # noqa: E402

import jobs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

#: One quick job per workload and body kind: (workload, shape prefix).
QUICK = [
    ("hull_const", "constant/l2/2/3"),
    ("hull_const", "piecewise/linf/2/3"),
    ("hull_moving", "l2/6/4"),
    ("hull_moving", "l1/6/3"),
    ("raw_sets", "moving/l1/2/3"),
    ("raw_sets", "constant/linf/3/4"),
]


def _quick_job(workload, prefix, seed=3):
    return next(j for j in jobs.generate(workload, seed, 30) if j.shape.startswith(prefix))


def _run(job, tmp_path):
    path = tmp_path / f"job{job.index}.json"
    path.write_text(job.config_text())
    return worker.run_job(cli, str(path), str(tmp_path))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generation_is_deterministic_and_seeded(workload):
    first = [j.config_text() for j in jobs.generate(workload, 7, 24)]
    assert first == [j.config_text() for j in jobs.generate(workload, 7, 24)]
    assert len(set(first)) == len(first)
    other = [j.config_text() for j in jobs.generate(workload, 8, 24)]
    assert all(a != b for a, b in zip(first, other))
    # Job i depends on (workload, seed, i) alone.
    assert first[5:] == [jobs.make_job(workload, 7, i).config_text() for i in range(5, 24)]


@pytest.mark.parametrize("workload,prefix", QUICK)
def test_checker_accepts_the_program_and_flags_perturbations(workload, prefix, tmp_path):
    job = _quick_job(workload, prefix)
    outcome = _run(job, tmp_path)
    ref = reference.compute(job.config)
    assert reference.check(ref, outcome.exit_code, outcome.output) is None
    assert reference.check(ref, outcome.exit_code + 1, outcome.output) is not None
    for i, row in enumerate(outcome.output["rows"]):
        if row["distance"] == row["distance"]:  # not the NaN first Cauchy row
            bad = copy.deepcopy(outcome.output)
            bad["rows"][i]["distance"] += 1e-6
            assert reference.check(ref, outcome.exit_code, bad) is not None


def test_hull_reference_brackets_are_tight():
    import numpy as np

    rng = np.random.default_rng(0)
    for norm in ("l1", "l2", "linf"):
        for _ in range(20):
            pts, x = rng.standard_normal((12, 6)), 2 * rng.standard_normal(6)
            lo, hi = (reference.l2_hull_bracket(x, pts) if norm == "l2"
                      else reference.lp_hull_bracket(norm, x, pts))
            assert 0 <= lo <= hi + 1e-12 and hi - lo <= 1e-9


def test_traced_runs_match_untraced_and_cover_each_job(tmp_path):
    tracer = spans.Tracer()
    ran, plain, traced = [], [], []
    originals = {name: getattr(cli, name) for name in ("run", "run_integrate", "validate_bounds")}
    for workload, prefix in QUICK:
        job = _quick_job(workload, prefix, seed=4)
        plain.append(_run(job, tmp_path))
        tracer.job = job.index
        with tracer.installed():
            traced.append(_run(job, tmp_path))
        ran.append(job)
    assert {name: getattr(cli, name) for name in originals} == originals
    assert [o.digest for o in plain] == [o.digest for o in traced]
    assert worker.span_coverage(tracer.spans, ran, traced) >= 0.9
    names = {s[0] for s in tracer.spans}
    assert {"cli.run", "partition.validate_bounds", "integrate.integrate", "integrate.riemann_sum",
            "setops.minkowski", "setops.prune", "setops.hausdorff", "setops.hausdorff_hulls",
            "setops.hull_query.l1", "setops.hull_query.l2", "simplex.solve_lp"} <= names


@pytest.mark.parametrize("untraced", [
    ("integrate.riemann_sum", "setops.minkowski", "setops.scale", "setops.prune"),  # the sum phase
    ("setops.hausdorff",),  # the finite distance phase
])
def test_span_coverage_flags_an_untraced_phase(untraced, monkeypatch, tmp_path):
    monkeypatch.setattr(spans, "TARGETS", tuple(t for t in spans.TARGETS if t[2] not in untraced))
    tracer = spans.Tracer()
    job = _quick_job("raw_sets", "constant/linf/3/4", seed=4)
    tracer.job = job.index
    with tracer.installed():
        outcome = _run(job, tmp_path)
    assert worker.span_coverage(tracer.spans, [job], [outcome]) < 0.9


def test_self_time_subtracts_direct_children():
    # cli.run [0, 10] > integrate [1, 9] > riemann_sum [2, 5]
    recorded = [
        ["cli.run", 0.0, 10.0, -1, 0, None, None],
        ["integrate.integrate", 1.0, 9.0, 0, 0, None, None],
        ["integrate.riemann_sum", 2.0, 5.0, 1, 0, None, None],
        ["setops.hull_query.l1", 6.0, 7.0, 1, 0, None, "SolverFailureError"],
    ]
    m = {k: v for k, (v, _) in spans.layer_metrics(recorded, 1).items()}
    assert m["cli.run.self_s"] == 2.0
    assert m["integrate.integrate.self_s"] == 4.0
    assert m["integrate.distance_phase.s"] == 5.0
    assert m["setops.hull_query.failed"] == 1


def test_layer_metrics_are_per_job():
    # The same job traced twice reads as one job, not as twice the work.
    one = [
        ["cli.run", 0.0, 4.0, -1, 0, None, None],
        ["setops.minkowski", 1.0, 3.0, 0, 0, {"pairs": 8, "points_out": 2}, None],
    ]
    two = one + [[name, a + 10, b + 10, p + 2 if p >= 0 else p, 1, c, e] for name, a, b, p, _, c, e in one]
    assert spans.layer_metrics(one, 1) == spans.layer_metrics(two, 2)


def test_tail_percentile_leaves_ten_jobs_beyond():
    fewest = worker.MIN_CYCLES * min(jobs.cycle_length(w) for w in jobs.WORKLOADS)
    times = [float(i) for i in range(1, fewest + 1)]
    assert sum(t > worker.tail(times) for t in times) >= 10


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "hull_const",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_stored_references_match_recomputed(workload):
    refs = reference.References(workload)
    for job in jobs.generate(workload, 0, 3):
        stored = refs.stored[reference.config_digest(job.config_text())]
        fresh = reference.compute(job.config)
        assert (stored["exit"], stored["slack"]) == (fresh["exit"], fresh["slack"])
        for a, b in zip(stored["rows"], fresh["rows"]):
            assert a == pytest.approx(b, abs=1e-12)
