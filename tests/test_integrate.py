import functools
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from setint.counterexamples import DIVERGENCE_BOUND
from setint.errors import InvalidArgumentError, ResourceLimitError
from setint.integrate import (
    integrate,
    riemann_sum,
    riemann_terms,
    sum_terms,
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
    inner_of,
    mf_from_json,
    random_partition,
    uniform_partition,
)
from setint.setops import (
    PointSet,
    hausdorff,
    hausdorff_hulls,
    minkowski,
    minkowski_power,
    prune,
    scale,
)
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
    grouped = riemann_sum(f, t).base
    raw = riemann_sum(inner_of(f), t).base
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


def _term_by_term_sum(f, t, delta_step=0.0, transform=None):
    """Reference: the Riemann sum built one term at a time, each value
    evaluated at its own tag (a moving body's curves by one vector-matrix
    product each) and scaled on its own, with the groups of riemann_sum:
    one term per value for a hull body."""
    hull = isinstance(f.body, ConvexHullOf)
    g = inner_of(f)
    terms = {}
    for w, tag in zip(t.widths.tolist(), t.tags.tolist()):
        if isinstance(g.body, MovingFinite):
            val = PointSet(g.space, np.array(
                [np.power.outer(tag, np.arange(c.shape[0])) @ c for c in g.body.curves]))
        else:
            val = eval_mf(g, tag)
        if transform is not None:
            val = PointSet(transform[1], val.points @ transform[0].T)
        key = (val.points.tobytes() if hull
               else (val.points.tobytes(), w) if delta_step == 0 else len(terms))
        weight, k, _ = terms.get(key, (0.0, 0, val))
        terms[key] = (weight + w if hull else w, k + 1, val)
    acc = None
    for weight, k, val in terms.values():
        term = PointSet(val.space, weight * val.points)
        term = term if hull else minkowski_power(term, k)
        acc = term if acc is None else minkowski(acc, term)
        if delta_step > 0:
            acc = prune(acc, delta_step).base
    return acc


def _mixed_degree_mf(space):
    rng = np.random.default_rng(31)
    curves = tuple(rng.uniform(-1.0, 1.0, (deg + 1, space.dim)) for deg in (1, 2, 1, 0))
    return Multifunction(space, MovingFinite(curves), 3.0, 6.0)


@pytest.mark.parametrize("space", [l1(2), l2(2), linf(3)])
@pytest.mark.parametrize("t", [uniform_partition(8, tag_rule="random", seed=2),
                               random_partition(7, seed=4)], ids=["uniform", "random"])
@pytest.mark.parametrize("body, delta", [("moving", 0.0), ("moving", 0.05), ("hull-moving", 0.0),
                                         ("hull-piecewise", 0.0), ("constant", 0.0)])
def test_riemann_sum_equals_term_by_term_sum(space, t, body, delta):
    rng = np.random.default_rng(6)
    a, b = (PointSet(space, rng.uniform(-1.0, 1.0, (3, space.dim))) for _ in range(2))
    f = {"moving": _mixed_degree_mf(space),
         "constant": Multifunction(space, Constant(a), 3.0, 6.0),
         "hull-piecewise": Multifunction(space, PiecewiseConstant((0.0, 0.4, 0.6, 1.0), (a, b, a)),
                                         3.0, 6.0)}
    f["hull-moving"] = f["moving"]
    if body.startswith("hull"):
        f[body] = Multifunction(space, ConvexHullOf(f[body]), 3.0, 6.0)
    got = riemann_sum(f[body], t, delta).base.points
    want = _term_by_term_sum(f[body], t, delta).points
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("space, target, order", [(l1(2), l1(3), 1), (l2(2), l2(3), 2),
                                                   (linf(2), linf(3), np.inf)],
                         ids=["l1", "l2", "linf"])
@pytest.mark.parametrize("body", ["moving", "piecewise", "hull-piecewise"])
@pytest.mark.parametrize("delta", [0.0, 1e-3, 0.02])
def test_linear_image_of_a_sum_is_the_sum_of_linear_images(space, target, order, body, delta):
    # P S(F, T) = S(P o F, T) for a linear P, within the two ledgers:
    # ||P|| times that of S(F, T) and that of S(P o F, T)
    rng = np.random.default_rng(6)
    a, b = (PointSet(space, rng.uniform(-1.0, 1.0, (3, space.dim))) for _ in range(2))
    f = (_mixed_degree_mf(space) if body == "moving" else
         Multifunction(space, PiecewiseConstant((0.0, 0.4, 0.6, 1.0), (a, b, a)), 3.0, 6.0))
    if body.startswith("hull"):
        f = Multifunction(space, ConvexHullOf(f), 3.0, 6.0)
    p = np.array([[1.0, -0.5], [0.25, 2.0], [1e-13, 0.0]])
    t = uniform_partition(6, tag_rule="random", seed=9)
    weights, counts, values = riemann_terms(f, t, delta)
    mapped = tuple(PointSet(target, val.points @ p.T) for val in values)
    s_pf = sum_terms((weights, counts, mapped), delta)
    want = _term_by_term_sum(f, t, delta, transform=(p, target)).points
    assert np.array_equal(s_pf.base.points, want)
    assert np.array_equal(np.signbit(s_pf.base.points), np.signbit(want))
    s = sum_terms((weights, counts, values), delta)
    image = PointSet(target, s.base.points @ p.T)
    bound = s_pf.err_bound + np.linalg.norm(p, order) * s.err_bound
    assert hausdorff(image, s_pf.base) <= bound + 1e-12


def test_integrate_candidate_converged():
    f = segment_mf()
    candidate = PointSet(f.space, np.array([[0.0, 0.0], [1.0, 0.0]]))
    schedule = [uniform_partition(n) for n in (2, 4, 8)]
    report = integrate(hull_segment_mf(), schedule, candidate=candidate)
    assert report.verdict.status == "converged"
    assert report.exit_code == 0
    assert all(r.distance == 0.0 for r in report.rows)


def test_integrate_a_map_read_from_json_against_a_candidate_in_l2():
    inner = {"space": {"dim": 2, "norm": "l2"}, "boundM": 1.0, "diamBound": 1.0,
             "body": {"kind": "constant", "points": [[0.0, 0.0], [1.0, 0.0]]}}
    f = mf_from_json({**inner, "body": {"kind": "convex_hull_of", "inner": inner}})
    candidate = PointSet(l2(2), np.array([[0.0, 0.0], [1.0, 0.0]]))
    report = integrate(f, [uniform_partition(n) for n in (2, 4)], candidate=candidate)
    assert report.verdict.status == "converged"


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


@pytest.mark.parametrize("n", [2, 8, 32])
@pytest.mark.parametrize("space", [l1(2), l2(2), linf(2)], ids=["l1", "l2", "linf"])
def test_finite_convexity_defect_of_a_riemann_sum(space, n):
    # the n-interval sum of a segment is n + 1 equally spaced points; their
    # half-sum fills in the midpoints, so the finite defect is 1/(2n) -> 0
    s = riemann_sum(segment_mf(space), uniform_partition(n)).base
    half = scale(0.5, s)
    assert len(s) == n + 1
    assert hausdorff(s, minkowski(half, half)) == pytest.approx(1.0 / (2 * n), abs=1e-15)


def test_integrate_witness_mode_diverges():
    f = Multifunction(l1(7), CounterexampleL1(3, 7), bound_m=1.0, diam_bound=2.0)
    schedule = [uniform_partition(n) for n in (3, 6, 12)]
    report = integrate(f, schedule)
    assert report.verdict.status == "diverged"
    assert report.exit_code == 2
    assert all(r.distance >= DIVERGENCE_BOUND for r in report.rows)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_witness_cardinality_counts_distinct_points(m):
    # the witness row reports what a materialised sum would hold
    f = Multifunction(l1(3), CounterexampleL1(2, 3), bound_m=1.0, diam_bound=2.0)
    row = integrate(f, [uniform_partition(m)]).rows[0]
    assert row.cardinality == len(riemann_sum(f, uniform_partition(m)).base)
    assert row.cardinality == math.comb(3 + m - 1, m)


# ---------------------------------------------------------------------------
# Row reuse: a row whose grouped terms repeat the previous row's reuses its
# sum and distance.

INTEGRATE = sys.modules["setint.integrate"]  # the package attribute is the function


def _reuse_bodies():
    space = l1(2)
    tri = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    seg = PointSet(space, np.array([[0.0, 0.0], [1.0, 1.0]]))
    # two points a constant step apart: a sum of n values has n + 1 points
    curves = (np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]]))

    def mf(body, hull=True):
        inner = Multifunction(space, body, 3.0, 3.0)
        return Multifunction(space, ConvexHullOf(inner), 3.0, 3.0) if hull else inner

    return {
        "hull-constant": mf(Constant(tri)),
        "hull-piecewise-on-grid": mf(PiecewiseConstant((0.0, 0.5, 1.0), (tri, seg))),
        "hull-piecewise-off-grid": mf(PiecewiseConstant((0.0, 1 / 3, 1.0), (tri, seg))),
        "hull-moving": mf(MovingFinite(curves)),
        "raw-constant": mf(Constant(tri), hull=False),
        "raw-pruned": mf(Constant(tri), hull=False),
    }


#: The reuse cases: the body, and whether the rows after the first repeat its
#: terms on the uniform grids of 2, 4, ..., 64 midpoints.  Off the grid, a
#: break at 1/3 gives every row other weights; one at 0.3 would not (2 of 8
#: midpoints lie below it, as 1 of 4 does: both weigh 1/4).
REUSE_CASES = [
    ("hull-constant", True),
    ("hull-piecewise-on-grid", True),
    ("hull-piecewise-off-grid", False),
    ("hull-moving", False),
    ("raw-constant", False),
    ("raw-pruned", False),
]


def _integrate_counted(monkeypatch, name, with_candidate):
    """integrate over 2, 4, ..., 64 intervals, with the accumulations and the
    distances it computes counted."""
    f = _reuse_bodies()[name]
    calls = {"sums": 0, "distances": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(INTEGRATE, "sum_terms", counted(INTEGRATE.sum_terms, "sums"))
    for dist in ("hausdorff", "hausdorff_hulls"):
        monkeypatch.setattr(INTEGRATE, dist, counted(getattr(INTEGRATE, dist), "distances"))
    candidate = eval_mf(f, 0.0) if with_candidate else None
    report = integrate(f, [uniform_partition(2 ** k) for k in range(1, 7)], candidate=candidate,
                       delta_step=0.05 if name == "raw-pruned" else 0.0)
    return report, calls


@pytest.mark.parametrize("with_candidate", [True, False], ids=["candidate", "cauchy"])
@pytest.mark.parametrize("name, repeats", REUSE_CASES)
def test_rows_with_repeated_terms_reuse_sum_and_distance(monkeypatch, name, repeats,
                                                         with_candidate):
    report, calls = _integrate_counted(monkeypatch, name, with_candidate)
    rows = len(report.rows)
    if repeats:
        # one sum, and one distance to the candidate (none between equal sums)
        assert calls == {"sums": 1, "distances": int(with_candidate)}
        assert len({r.distance for r in report.rows[1:]}) == 1
        if not with_candidate:
            assert [r.distance for r in report.rows[1:]] == [0.0] * (rows - 1)
    else:
        assert calls == {"sums": rows, "distances": rows - (not with_candidate)}


@pytest.mark.parametrize("with_candidate", [True, False], ids=["candidate", "cauchy"])
@pytest.mark.parametrize("name", [name for name, _ in REUSE_CASES])
def test_reused_rows_report_what_computed_rows_report(monkeypatch, name, with_candidate):
    reused, _ = _integrate_counted(monkeypatch, name, with_candidate)
    monkeypatch.setattr(INTEGRATE, "_same_terms", lambda *args: False)
    computed, calls = _integrate_counted(monkeypatch, name, with_candidate)
    assert calls["sums"] == len(computed.rows)
    assert json.dumps(reused.to_json()) == json.dumps(computed.to_json())
    assert reused.to_csv() == computed.to_csv()
    assert reused.verdict.status == computed.verdict.status
    assert reused.verdict.limit.err_bound == computed.verdict.limit.err_bound
    assert np.array_equal(reused.verdict.limit.base.points, computed.verdict.limit.base.points)


def test_riemann_sum_is_sum_terms_of_riemann_terms():
    f = _reuse_bodies()["hull-piecewise-off-grid"]
    t = uniform_partition(8)
    weights, counts, values = riemann_terms(f, t)
    # a hull group is one term: 3 and 5 intervals, weighed together
    assert counts == (1, 1) and weights == (0.375, 0.625)
    assert values[0] is eval_mf(f, 0.0) and values[1] is eval_mf(f, 1.0)
    s = sum_terms((weights, counts, values))
    assert np.array_equal(s.base.points, riemann_sum(f, t).base.points)


def test_same_terms_compares_weights_counts_and_value_bits():
    space = l2(2)
    a = PointSet(space, np.array([[0.0, 1.0], [2.0, 3.0]]))
    copy = PointSet(space, a.points.copy())
    signed = PointSet(space, np.array([[-0.0, 1.0], [2.0, 3.0]]))
    same = INTEGRATE._same_terms
    assert same(((0.5,), (2,), (a,)), ((0.5,), (2,), (copy,)))
    assert not same(((0.5,), (2,), (a,)), ((0.5,), (3,), (a,)))
    assert not same(((0.5,), (2,), (a,)), ((0.5 + 2 ** -53,), (2,), (a,)))
    assert not same(((0.5,), (2,), (a,)), ((0.5, 0.5), (1, 1), (a, a)))
    # equal as numbers, but a sum of -0.0 keeps its sign: not reused
    assert a.same_set(signed) and not same(((0.5,), (2,), (a,)), ((0.5,), (2,), (signed,)))


@pytest.mark.parametrize("with_candidate", [True, False], ids=["candidate", "cauchy"])
@pytest.mark.parametrize("hull_tol", [0.0, -1e-8, float("nan")])
def test_hull_rows_need_a_positive_hull_tol(hull_tol, with_candidate):
    # also where no row measures a hull distance (one Cauchy row) or every
    # later row reuses the first one's
    f = hull_segment_mf()
    candidate = eval_mf(f, 0.0) if with_candidate else None
    for counts in ((2,), (2, 4, 8)):
        with pytest.raises(InvalidArgumentError, match="hull_tol"):
            integrate(f, [uniform_partition(n) for n in counts], candidate=candidate,
                      hull_tol=hull_tol)
