import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from setint.errors import InvalidArgumentError, ResourceLimitError
from setint.integrate import (
    ConvergenceReport,
    convexity_check,
    convexity_defect,
    finite_rank_splitting,
    integrate,
    operator_norm,
    pushforward_check,
    riemann_sum,
    sample_hull_sum,
)
from setint.partition import (
    Constant,
    ConvexHullOf,
    CounterexampleL1,
    MovingFinite,
    Multifunction,
    PiecewiseConstant,
    eval_mf,
    halve_with_tags,
    random_partition,
    uniform_partition,
)
from setint.setops import PointSet, hausdorff, hausdorff_hulls, minkowski, scale
from setint.spaces import l1, l2, linf


def segment_mf(space=None):
    space = space or l1(2)
    pts = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0]]))
    return Multifunction(space, Constant(pts), bound_m=1.0, diam_bound=1.0)


def hull_segment_mf(space=None):
    f = segment_mf(space)
    return Multifunction(f.space, ConvexHullOf(f), bound_m=1.0, diam_bound=1.0)


def test_riemann_sum_matches_direct_minkowski():
    f = segment_mf()
    t = uniform_partition(3, tag_rule="left")
    piece = scale(1.0 / 3.0, eval_mf(f, 0.0))
    direct = minkowski(minkowski(piece, piece), piece)
    s = riemann_sum(f, t)
    assert s.err_bound == 0.0
    assert s.base.same_set(direct)


def test_riemann_sum_constant_cardinality():
    # sum of a g-point constant set over n intervals has C(n+g-1, g-1) points
    f = segment_mf()
    for n in (2, 5, 16):
        s = riemann_sum(f, uniform_partition(n))
        assert len(s.base) == n + 1


def test_riemann_sum_prune_ledger():
    f = segment_mf()
    t = uniform_partition(8)
    s = riemann_sum(f, t, delta_step=1e-3)
    assert s.err_bound == pytest.approx(8e-3)
    exact = riemann_sum(f, t).base
    assert hausdorff(exact, s.base) <= s.err_bound + 1e-12


@pytest.mark.parametrize("space", [l1(2), l2(2), linf(2)])
@pytest.mark.parametrize("t", [uniform_partition(8), random_partition(8, seed=3)],
                         ids=["uniform", "random"])
def test_raw_grouped_sum_equals_ungrouped_sum(space, t):
    # the first and last pieces share their value, so on the uniform grid its
    # group spans intervals that are not adjacent; random widths differ, so
    # equal values must not group there
    rng = np.random.default_rng(5)
    a, b = (PointSet(space, rng.uniform(-1.0, 1.0, (4, 2))) for _ in range(2))
    f = Multifunction(space, PiecewiseConstant((0.0, 0.3, 0.7, 1.0), (a, b, a)), 3.0, 3.0)
    terms = [scale(w, eval_mf(f, float(tag))) for w, tag in zip(t.widths, t.tags)]
    s = riemann_sum(f, t)
    assert s.err_bound == 0.0
    assert hausdorff(s.base, functools.reduce(minkowski, terms)) <= 1e-12


def test_raw_sum_of_a_large_group_fails_before_allocating():
    # C(1029, 5), about 1e13 multisets, and three affinely independent
    # points give at least C(1026, 2) > cap sums: refused before enumerating
    space = l2(2)
    pts = PointSet(space, np.random.default_rng(0).uniform(-1.0, 1.0, (6, 2)))
    f = Multifunction(space, Constant(pts), 2.0, 3.0)
    t = uniform_partition(2 ** 10)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="at least"):
            riemann_sum(f, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_raw_sum_of_a_degenerate_group_matches_the_folded_chain():
    # {0, 1}^3 at n = 34: C(41, 7) ~ 2.2e7 multisets, far above the cap, but
    # only 35^3 = 42,875 distinct sums, which the folded chain also keeps
    space = l2(3)
    cube = PointSet(space, np.array(list(itertools.product([0.0, 1.0], repeat=3))))
    f = Multifunction(space, Constant(cube), 2.0, 2.0)
    t = uniform_partition(34)
    s = riemann_sum(f, t)
    term = scale(t.widths[0], cube)
    assert s.base.same_set(functools.reduce(minkowski, [term] * 34))
    assert len(s.base) == 35 ** 3


def _hull_bodies():
    space = l1(2)
    tri = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    seg = PointSet(space, np.array([[0.0, 0.0], [1.0, 1.0]]))
    curves = (np.array([[0.0, 0.0], [1.0, -1.0]]), np.array([[1.0, 0.0], [0.0, 2.0]]))
    bodies = {
        "constant": Constant(tri),
        "piecewise": PiecewiseConstant((0.0, 0.3, 0.7, 1.0), (tri, seg, tri)),
        "moving": MovingFinite(curves),
    }
    return {name: Multifunction(space, ConvexHullOf(Multifunction(space, body, 3.0, 3.0)),
                                3.0, 3.0)
            for name, body in bodies.items()}


@pytest.mark.parametrize("name", ["constant", "piecewise", "moving"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grouped_hull_sum_has_the_same_hull(name, seed):
    # sum w_i conv A = (sum w_i) conv A; random partitions give unequal weights
    f = _hull_bodies()[name]
    t = random_partition(5, seed=seed)
    grouped = riemann_sum(f, t, hull=True).base
    raw = riemann_sum(f, t, hull=False).base
    assert hausdorff_hulls(grouped, raw) <= 1e-8
    assert len(grouped) <= len(raw)


def test_constant_hull_rows_keep_the_value_generators():
    f = _hull_bodies()["constant"]
    tri = eval_mf(f, 0.0)
    report = integrate(f, [uniform_partition(n) for n in (2, 3, 8, 64)], candidate=tri)
    assert [r.cardinality for r in report.rows] == [len(tri)] * 4
    assert [r.distance for r in report.rows] == [0.0] * 4


def test_grouped_prune_ledger_counts_groups():
    # the first and last pieces share their value: two terms at every n
    f = _hull_bodies()["piecewise"]
    report = integrate(f, [uniform_partition(n) for n in (4, 16)],
                       candidate=eval_mf(f, 0.0), delta_step=1e-3)
    assert [r.prune_error for r in report.rows] == [2e-3, 2e-3]


def test_moving_l1_hull_rows_certify_in_dim_24():
    # hull LPs in l1(24): every row certifies, and a hull distance never
    # exceeds the finite distance of the same sums
    rng = np.random.default_rng([1, 10])
    curves = tuple(rng.uniform(-1, 1, size=(2, 24)) for _ in range(3))
    inner = Multifunction(l1(24), MovingFinite(curves), 48.0, 96.0)
    f = Multifunction(l1(24), ConvexHullOf(inner), 48.0, 96.0)
    schedule = [uniform_partition(n) for n in (1, 2, 3)]
    report = integrate(f, schedule)
    sums = [riemann_sum(f, t).base for t in schedule]
    for row, prev, cur in zip(report.rows[1:], sums, sums[1:]):
        assert row.distance <= hausdorff(cur, prev)


def test_integrate_candidate_converged():
    f = segment_mf()
    candidate = PointSet(f.space, np.array([[0.0, 0.0], [1.0, 0.0]]))
    schedule = [uniform_partition(n) for n in (2, 4, 8)]
    report = integrate(hull_segment_mf(), schedule, candidate=candidate)
    assert report.verdict.status == "converged"
    assert report.exit_code == 0
    assert all(r.distance == 0.0 for r in report.rows)


def test_integrate_cauchy_mode():
    f = hull_segment_mf()
    schedule = [uniform_partition(n) for n in (2, 4, 8, 16)]
    report = integrate(f, schedule)
    assert report.verdict.status == "converged"


def test_integrate_rejects_bad_schedule():
    f = segment_mf()
    with pytest.raises(InvalidArgumentError):
        integrate(f, [])
    with pytest.raises(InvalidArgumentError):
        integrate(f, [uniform_partition(4), uniform_partition(2)])


def test_report_csv_shape():
    f = hull_segment_mf()
    report = integrate(f, [uniform_partition(n) for n in (2, 4, 8, 16)])
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "mesh,distance,prune_error,cardinality,ms"
    assert len(lines) == 5
    assert all(line.endswith(",0") for line in lines[1:])  # no timings by default
    obj = report.to_json()
    json.dumps(obj)  # serializable
    assert obj["verdict"] == "converged"
    assert "ms" not in obj["rows"][0]


def test_rows_time_sum_and_distance_phases():
    f = hull_segment_mf()
    report = integrate(f, [uniform_partition(n) for n in (2, 4, 8)],
                       candidate=eval_mf(f, 0.0))
    for r in report.rows:
        assert r.sum_ms > 0 and r.distance_ms > 0
        assert r.ms == r.sum_ms + r.distance_ms
    row = report.to_json(timings=True)["rows"][0]
    assert (row["ms"], row["sumMs"], row["distanceMs"]) == (
        report.rows[0].ms, report.rows[0].sum_ms, report.rows[0].distance_ms)
    lines = report.to_csv(timings=True).splitlines()
    assert lines[0] == "mesh,distance,prune_error,cardinality,ms"
    assert lines[1].endswith("," + repr(report.rows[0].ms))


def test_halved_partition_identity_exact():
    # S(F, fine) equals the half-sum of the two coarse-tagged sums, exactly
    space = l2(2)
    pts = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    f = Multifunction(space, Constant(pts), bound_m=2.0, diam_bound=2.0)
    base = uniform_partition(4, tag_rule="random", seed=21)
    fine, t_a, t_b = halve_with_tags(base.breakpoints, seed=21)
    lhs = riemann_sum(f, fine).base
    half = minkowski(
        scale(0.5, riemann_sum(f, t_a).base), scale(0.5, riemann_sum(f, t_b).base)
    )
    assert hausdorff(lhs, half) == 0.0


def test_convexity_defect_and_check():
    space = l1(2)
    seg = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0]]))
    s = riemann_sum(segment_mf(), uniform_partition(8))
    finite, hull = convexity_defect(s)
    assert hull <= 1e-8
    assert finite > 0.01  # the 9-point set is not its own half-sum
    assert convexity_check(s) == finite


def test_operator_norm_families():
    p = np.array([[1.0, -2.0], [0.0, 3.0]])
    assert operator_norm("l1", p) == 5.0  # max column abs sum
    assert operator_norm("linf", p) == 3.0  # max row abs sum
    assert operator_norm("l2", p) == pytest.approx(np.linalg.svd(p, compute_uv=False)[0])


def test_pushforward_exact_without_pruning():
    f = segment_mf(l2(2))
    p = np.array([[1.0, 1.0]])
    report = pushforward_check(f, p, [uniform_partition(n) for n in (2, 4, 8)])
    assert report.verdict.status == "converged"
    assert all(r.distance == 0.0 for r in report.rows)


def test_pushforward_with_pruning_within_budget():
    space = l2(2)
    rng = np.random.default_rng(2)
    pts = PointSet(space, rng.standard_normal((5, 2)))
    f = Multifunction(space, Constant(pts), bound_m=10.0, diam_bound=10.0)
    p = np.array([[2.0, 0.0], [0.0, 0.5]])
    report = pushforward_check(f, p, [uniform_partition(n) for n in (2, 4)], delta_step=1e-3)
    assert report.verdict.status == "converged"
    for row in report.rows:
        assert row.distance <= row.prune_error + 1e-6


def test_pushforward_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        pushforward_check(segment_mf(), np.ones((2, 3)), [uniform_partition(2)])


def test_sample_hull_sum_inside_box():
    f = hull_segment_mf(l2(2))
    t = uniform_partition(4)
    pts = sample_hull_sum(f, t, 50, seed=0)
    assert pts.shape == (50, 2)
    assert np.all(pts[:, 0] >= -1e-12) and np.all(pts[:, 0] <= 1 + 1e-12)
    assert np.allclose(pts[:, 1], 0.0)


def test_sample_hull_sum_deterministic():
    f = hull_segment_mf(l2(2))
    t = uniform_partition(4)
    a = sample_hull_sum(f, t, 20, seed=5)
    b = sample_hull_sum(f, t, 20, seed=5)
    assert np.array_equal(a, b)


def test_finite_rank_splitting_genuine_integral():
    # nearly flat triangle: the rank-1 projection captures the candidate up
    # to qNorm = 0.05 and the claimed 4x bound holds at a nontrivial level
    space = l2(2)
    pts = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.05]]))
    inner = Multifunction(space, Constant(pts), bound_m=2.0, diam_bound=2.0)
    f = Multifunction(space, ConvexHullOf(inner), bound_m=2.0, diam_bound=2.0)
    out = finite_rank_splitting(f, 1, uniform_partition(16), pts, n_samples=48)
    assert out["eps"] == max(out["epsFull"], out["epsP"], out["epsQ"], out["qNorm"])
    assert out["qNorm"] == 0.05
    assert out["distance"] <= out["bound"]
    assert out["distance"] > 0.0  # the raw sum is a proper subset of the hull


def test_integrate_witness_mode_diverges():
    f = Multifunction(l1(7), CounterexampleL1(3, 7), bound_m=1.0, diam_bound=2.0)
    schedule = [uniform_partition(n) for n in (3, 6, 12)]
    report = integrate(f, schedule)
    assert report.verdict.status == "diverged"
    assert report.exit_code == 2
    assert all(r.distance >= 1.0 / 24.0 for r in report.rows)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_witness_cardinality_counts_distinct_points(m):
    # the witness row reports what a materialised sum would hold
    f = Multifunction(l1(3), CounterexampleL1(2, 3), bound_m=1.0, diam_bound=2.0)
    row = integrate(f, [uniform_partition(m)]).rows[0]
    assert row.cardinality == len(riemann_sum(f, uniform_partition(m)).base)
    assert row.cardinality == math.comb(3 + m - 1, m)
