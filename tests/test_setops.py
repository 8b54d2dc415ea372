import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from setint.errors import InvalidArgumentError, ResourceLimitError, SolverFailureError
from setint.integrate import riemann_sum
from setint.partition import Constant, Multifunction, MovingFinite, eval_mf, uniform_partition
from setint import setops
from setint.setops import (
    _BALL_CHUNK,
    _BALL_SAMPLE,
    _BALL_STRIDE,
    _CELLS_PER_ROW,
    DEDUP_TOL,
    _KDTREE_P,
    _LOWER_SAMPLE,
    _PAIR_WALK_MAX_BALL,
    _TWO_LEVEL_ROWS,
    PointSet,
    _canonicalize,
    _canonicalize_blocks,
    _hull_dist_l2,
    _net_by_balls,
    _net_by_pairs,
    _settle_by_cells,
    dist_point_to_hull,
    dist_point_to_set,
    hausdorff,
    hausdorff_hulls,
    minkowski,
    minkowski_power,
    one_sided_hausdorff,
    point_sets,
    pointset_from_json,
    pointset_to_json,
    prune,
    scale,
    scale_many,
    translate,
)
from setint.spaces import cdist_metric, l1, l2, linf

SQ2 = math.sqrt(2.0)


def ps(space, rows):
    return PointSet(space, np.asarray(rows, dtype=float))


def random_ps(space, n, rng):
    return PointSet(space, rng.standard_normal((n, space.dim)))


def test_canonical_dedup():
    a = ps(l2(2), [[0, 0], [1, 0], [0, 0], [1, 0 + 1e-15]])
    assert len(a) == 2


def test_same_set_ignores_order():
    a = ps(l2(2), [[1, 2], [3, 4]])
    b = ps(l2(2), [[3, 4], [1, 2]])
    assert a.same_set(b)


def test_scale_translate():
    a = ps(l2(2), [[1, 0], [0, 1]])
    assert scale(2.0, a).same_set(ps(l2(2), [[2, 0], [0, 2]]))
    assert translate(a, [1, 1]).same_set(ps(l2(2), [[2, 1], [1, 2]]))


def test_minkowski_sum_small():
    a = ps(l2(1), [[0], [1]])
    b = ps(l2(1), [[0], [10]])
    assert minkowski(a, b).same_set(ps(l2(1), [[0], [1], [10], [11]]))


def test_minkowski_dedups():
    a = ps(l2(1), [[0], [1]])
    s = minkowski(a, a)
    assert len(s) == 3  # 0, 1, 2


def test_hausdorff_known_value():
    a = ps(l2(2), [[0, 0], [2, 0]])
    b = ps(l2(2), [[1, 1]])
    assert hausdorff(a, b) == pytest.approx(SQ2, rel=1e-15)
    assert one_sided_hausdorff(a, b) == pytest.approx(SQ2, rel=1e-15)
    assert one_sided_hausdorff(b, a) == pytest.approx(SQ2, rel=1e-15)


def test_hausdorff_depends_on_norm():
    a = ps(l1(2), [[0, 0]])
    b = ps(l1(2), [[1, 1]])
    assert hausdorff(a, b) == pytest.approx(2.0)
    a = ps(linf(2), [[0, 0]])
    b = ps(linf(2), [[1, 1]])
    assert hausdorff(a, b) == pytest.approx(1.0)


def test_diameter():
    a = ps(l2(2), [[0, 0], [3, 4], [1, 0]])
    assert a.diameter() == pytest.approx(5.0)


def _chunked_cdist_diameter(a, chunk=2048):
    """Reference: the largest entry of the pairwise cdist matrix, in blocks."""
    metric = cdist_metric(a.space)
    return max(float(cdist(a.points[i:i + chunk], a.points, metric=metric).max())
               for i in range(0, len(a), chunk))


@pytest.mark.parametrize("make", [l1, l2, linf])
@pytest.mark.parametrize("n, dim", [(2, 1), (7, 2), (300, 3), (2500, 2), (40, 24)])
def test_diameter_equals_chunked_cdist_form(make, n, dim):
    rng = np.random.default_rng(n + dim)
    a = PointSet(make(dim), rng.standard_normal((n, dim)) * rng.uniform(1e-3, 1e3, dim))
    assert a.diameter() == _chunked_cdist_diameter(a)
    grid = PointSet(make(dim), rng.integers(-3, 4, (n, dim)) / 3.0)
    assert grid.diameter() == _chunked_cdist_diameter(grid)


@pytest.mark.parametrize("make", [l1, l2, linf])
def test_diameter_of_one_point_is_zero(make):
    assert ps(make(3), [[1.0, -2.0, 3.0]]).diameter() == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_metric_axioms_random_triples(seed):
    rng = np.random.default_rng(seed)
    space = (l1(3), l2(3), linf(3))[seed % 3]
    a, b, c = (random_ps(space, int(rng.integers(1, 6)), rng) for _ in range(3))
    dab, dbc, dac = hausdorff(a, b), hausdorff(b, c), hausdorff(a, c)
    assert dab == hausdorff(b, a)
    assert dac <= dab + dbc + 1e-12
    assert hausdorff(a, a) == 0.0
    if dab <= DEDUP_TOL:
        assert a.same_set(b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_minkowski_commutes_and_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    space = l2(2)
    a = random_ps(space, int(rng.integers(1, 5)), rng)
    b = random_ps(space, int(rng.integers(1, 5)), rng)
    c = random_ps(space, int(rng.integers(1, 5)), rng)
    assert minkowski(a, b).same_set(minkowski(b, a))
    lhs = minkowski(minkowski(a, b), c)
    rhs = minkowski(a, minkowski(b, c))
    assert hausdorff(lhs, rhs) <= 1e-12
    # translation by a common summand never increases the distance
    assert hausdorff(minkowski(a, c), minkowski(b, c)) <= hausdorff(a, b) + 1e-12


def test_dist_point_to_set():
    a = ps(l2(2), [[0, 0], [2, 0]])
    assert dist_point_to_set([1, 1], a) == pytest.approx(SQ2)


def test_hull_dist_generator_fast_path():
    a = ps(l2(2), [[0, 0], [1, 0], [0, 1]])
    value, gap = dist_point_to_hull(l2(2), [1, 0], a)
    assert value == 0.0 and gap == 0.0


def test_hull_dist_l2_interior_and_boundary():
    tri = ps(l2(2), [[0, 0], [1, 0], [0, 1]])
    inside, _ = dist_point_to_hull(l2(2), [0.25, 0.25], tri)
    assert inside <= 1e-8
    edge_mid, _ = dist_point_to_hull(l2(2), [0.5, 0.5], tri)
    assert edge_mid <= 1e-8


def test_hull_dist_l2_exterior_known():
    tri = ps(l2(2), [[0, 0], [1, 0], [0, 1]])
    # (1,1) projects onto the hypotenuse midpoint
    value, gap = dist_point_to_hull(l2(2), [1, 1], tri)
    assert value == pytest.approx(SQ2 / 2.0, abs=1e-9)
    assert gap <= 1e-8


def test_hull_dist_l1_linf_exact():
    tri_l1 = ps(l1(2), [[0, 0], [1, 0], [0, 1]])
    value, gap = dist_point_to_hull(l1(2), [1, 1], tri_l1)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert gap == 0.0
    tri_li = ps(linf(2), [[0, 0], [1, 0], [0, 1]])
    value, gap = dist_point_to_hull(linf(2), [1, 1], tri_li)
    assert value == pytest.approx(0.5, abs=1e-9)
    assert gap == 0.0


@pytest.mark.parametrize("space", [l1(2), linf(2)])
def test_hull_lp_certifies_far_points(space):
    # coordinates beyond what HiGHS accepts as finite data; the nearest
    # generators of the far side bound every other query
    tri = ps(space, [[0, 0], [1, 0], [0, 1]])
    value, gap = dist_point_to_hull(space, [-1e300, 0], tri)
    assert (value, gap) == (1e300, 0.0)
    assert hausdorff_hulls(tri, ps(space, [[-1e300, 0], [1, 0], [0, 1]])) == 1e300


@pytest.mark.parametrize("x, exact", [([-1e160, 0.0], 1e160), ([1e300, -1e300], SQ2 * 1e300)])
def test_hull_l2_far_points_stay_finite(x, exact):
    # squares of the unscaled data overflow here; the distances run on data
    # divided by a power of two
    space = l2(2)
    tri = ps(space, [[0, 0], [1, 0], [0, 1]])
    assert dist_point_to_set(x, tri) == pytest.approx(exact, rel=1e-15)
    value, gap = dist_point_to_hull(space, x, tri)
    assert value == pytest.approx(exact, rel=1e-15)
    assert gap == 0.0
    assert hausdorff_hulls(tri, ps(space, [x, [1, 0], [0, 1]])) == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("make", [l1, l2, linf])
@pytest.mark.parametrize("x", [[-1e160, 0.0], [1e300, -1e300]])
def test_hausdorff_hulls_does_not_depend_on_argument_order(make, x):
    # only x lies off the other hull, and its side, whose nearest distance
    # is the larger, is visited first; the (near zero) distance of [0, 0] to
    # conv(far) cannot be certified to tol at this scale, and is not needed
    tri = ps(make(2), [[0, 0], [1, 0], [0, 1]])
    far = ps(make(2), [x, [1, 0], [0, 1]])
    value = hausdorff_hulls(tri, far)
    assert hausdorff_hulls(far, tri) == value == dist_point_to_hull(make(2), x, tri)[0]
    if x[1] == 0.0:
        assert value == 1e160


@pytest.mark.parametrize("space, x, exact", [(l1(2), [1.7e308, 1.7e308], math.inf),
                                             (linf(2), [1.7e308, -1.7e308], 1.7e308)])
def test_hull_lp_past_the_float_range_certifies_a_finite_gap(space, x, exact):
    # the l1 distance lies past the float range; a RuntimeWarning fails the test
    value, gap = dist_point_to_hull(space, x, ps(space, [[0, 0], [1, 0]]))
    assert value == pytest.approx(exact, rel=1e-15)
    assert gap == 0.0


def test_hull_lp_with_a_nan_certificate_raises(monkeypatch):
    from scipy.optimize import linprog

    def nan_marginals(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.ineqlin.marginals[:] = math.nan
        return res

    monkeypatch.setattr("scipy.optimize.linprog", nan_marginals)
    with pytest.raises(SolverFailureError):
        dist_point_to_hull(l1(2), [2.0, 3.0], ps(l1(2), [[0, 0], [1, 0]]))


def test_hull_l2_stalled_corral_raises():
    # At the optimum the duality gap is rounding noise (about 1e-15), so a
    # tol below it cannot be certified, and the answer must not pass for a
    # certified one.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SolverFailureError, match="certificate exceeds tol") as info:
        _hull_dist_l2(np.array([1.0, 1.0]), tri, tol=1e-300)
    assert info.value.value == pytest.approx(SQ2 / 2, rel=1e-12)
    assert 1e-300 < info.value.gap <= 1e-12


def _nnls_hits_its_cap(*args, **kwargs):
    raise RuntimeError("Maximum number of iterations reached.")


def _nnls_returns_zeros(a, b, **kwargs):
    return np.zeros(a.shape[1]), float(np.linalg.norm(b))


@pytest.mark.parametrize("nnls", [_nnls_hits_its_cap, _nnls_returns_zeros])
def test_hull_l2_nnls_failure_raises_with_a_finite_bracket(monkeypatch, nnls):
    # no convex combination to certify: the error carries the nearest
    # generator's distance, an upper bound, with the trivial lower bound 0
    monkeypatch.setattr("scipy.optimize.nnls", nnls)
    tri = ps(l2(2), [[0, 0], [1, 0], [0, 1]])
    with pytest.raises(SolverFailureError, match="l2 hull NNLS") as info:
        dist_point_to_hull(l2(2), [1, 1], tri)
    assert info.value.value == info.value.gap == 1.0


def _exact_hull_dist_l2_2d(x, pts) -> float:
    """The l2 distance from a point outside conv(pts) in the plane: the least
    distance to a segment between two generators, squared in exact rational
    arithmetic, with one decimal square root at the end."""
    x = [Fraction(c) for c in x]
    pts = [[Fraction(c) for c in p] for p in pts]
    best = None
    for a, b in itertools.combinations_with_replacement(pts, 2):
        d = [b[0] - a[0], b[1] - a[1]]
        dd = d[0] * d[0] + d[1] * d[1]
        t = 0 if dd == 0 else ((x[0] - a[0]) * d[0] + (x[1] - a[1]) * d[1]) / dd
        t = min(max(t, Fraction(0)), Fraction(1))
        r = [x[0] - a[0] - t * d[0], x[1] - a[1] - t * d[1]]
        sq = r[0] * r[0] + r[1] * r[1]
        best = sq if best is None else min(best, sq)
    with localcontext() as ctx:
        ctx.prec = 50
        return float((Decimal(best.numerator) / Decimal(best.denominator)).sqrt())


def test_hull_dist_l2_matches_exact_distances():
    rng = np.random.default_rng(19)
    space = l2(2)
    for _ in range(25):
        pts = rng.standard_normal((int(rng.integers(2, 9)), 2))
        # x lies beyond every generator in the direction u, so outside the hull
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        reach = float((pts @ u).max()) + rng.uniform(0.01, 2.0)
        x = reach * u + rng.uniform(-2.0, 2.0) * np.array([-u[1], u[0]])
        value, gap = dist_point_to_hull(space, x, ps(space, pts))
        assert value == pytest.approx(_exact_hull_dist_l2_2d(x, pts), abs=1e-14, rel=0)
        assert 0.0 <= gap <= 1e-8


def _dense_hull_oracle(space, x, a, grid=40):
    """Brute-force hull distance on <= 3 generators: dense barycentric grid."""
    pts = a.points
    k = pts.shape[0]
    best = math.inf
    if k == 1:
        return float(np.linalg.norm(np.asarray(x) - pts[0], 1 if space.norm == "l1" else (np.inf if space.norm == "linf" else 2)))
    ticks = np.linspace(0.0, 1.0, grid + 1)
    if k == 2:
        combos = [(s, 1 - s) for s in ticks]
    else:
        combos = [(s, u * (1 - s), (1 - u) * (1 - s)) for s in ticks for u in ticks]
    ordv = {"l1": 1, "l2": 2, "linf": np.inf}[space.norm]
    for lam in combos:
        y = np.asarray(lam) @ pts
        best = min(best, float(np.linalg.norm(np.asarray(x) - y, ordv)))
    return best


@pytest.mark.parametrize("norm_name", ["l1", "l2", "linf"])
def test_hull_dist_against_dense_oracle(norm_name):
    rng = np.random.default_rng(7)
    space = {"l1": l1, "l2": l2, "linf": linf}[norm_name](2)
    for _ in range(25):
        a = random_ps(space, int(rng.integers(1, 4)), rng)
        x = 2.0 * rng.standard_normal(2)
        value, gap = dist_point_to_hull(space, x, a, tol=1e-10)
        oracle = _dense_hull_oracle(space, x, a, grid=200)
        # the grid only overestimates the true distance
        assert value <= oracle + 1e-4
        assert value >= oracle - 2e-2
        assert 0.0 <= gap <= 1e-10
        assert value - gap <= oracle


def test_hausdorff_hulls_known_value():
    # segment [0,1]x{0} vs point (0,1): hull distance is max over the segment
    seg = ps(l2(2), [[0, 0], [1, 0]])
    pt = ps(l2(2), [[0, 1]])
    assert hausdorff_hulls(seg, pt) == pytest.approx(SQ2, abs=1e-8)


def test_hausdorff_hulls_dominated_by_finite():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_ps(l2(3), int(rng.integers(1, 6)), rng)
        b = random_ps(l2(3), int(rng.integers(1, 6)), rng)
        assert hausdorff_hulls(a, b) <= hausdorff(a, b) + 2e-8


def test_hausdorff_hulls_zero_for_nested_generators():
    tri = ps(l2(2), [[0, 0], [1, 0], [0, 1]])
    with_mid = ps(l2(2), [[0, 0], [1, 0], [0, 1], [0.5, 0.5]])
    assert hausdorff_hulls(tri, with_mid) <= 1e-8


def test_prune_certificate():
    rng = np.random.default_rng(3)
    a = random_ps(l2(2), 500, rng)
    pr = prune(a, 0.05)
    assert pr.err_bound == 0.05
    assert len(pr.base) < len(a)
    assert hausdorff(a, pr.base) <= 0.05 + 1e-12


def test_prune_zero_delta_is_identity():
    a = ps(l2(2), [[0, 0], [1, 0]])
    pr = prune(a, 0.0)
    assert pr.base.same_set(a)
    assert pr.err_bound == 0.0


def test_pointset_json_roundtrip():
    a = ps(l1(2), [[0.5, -1.25], [3, 4]])
    back = pointset_from_json(pointset_to_json(a))
    assert back.same_set(a)
    assert back.space == a.space


def test_space_mismatch_raises():
    a = ps(l2(2), [[0, 0]])
    b = ps(l1(2), [[0, 0]])
    with pytest.raises(InvalidArgumentError):
        minkowski(a, b)


# ---------------------------------------------------------------------------
# Brute-force references: the chunked cdist loops the k-d tree replaced.

_REF_CHUNK = 2048


def _ref_min_dists_to(a_pts, b_pts, metric):
    out = np.full(b_pts.shape[0], np.inf)
    for j in range(0, b_pts.shape[0], _REF_CHUNK):
        block = b_pts[j:j + _REF_CHUNK]
        best = np.full(block.shape[0], np.inf)
        for i in range(0, a_pts.shape[0], 8 * _REF_CHUNK):
            d = cdist(block, a_pts[i:i + 8 * _REF_CHUNK], metric=metric)
            np.minimum(best, d.min(axis=1), out=best)
        out[j:j + _REF_CHUNK] = best
    return out


def _ref_prune_points(a, delta):
    """Kept points of the greedy delta-net: a point is kept iff it is more
    than delta from every earlier kept point, in canonical order."""
    metric = cdist_metric(a.space)
    kept = [a.points[0]]
    for p in a.points[1:]:
        if cdist(p[None, :], np.asarray(kept), metric=metric).min() > delta:
            kept.append(p)
    return np.asarray(kept)


def _moving_sum_cloud(space, delta, curves=5, n=10):
    """The cloud the last pruning step of a pruned Riemann sum receives:
    linear curves from a circle of radius 0.8 at a third of its speed,
    uniform_partition(n), one term per interval, and every earlier step
    pruned by the reference rule, as riemann_sum builds it."""
    angles = 2 * np.pi * np.arange(curves) / curves + 0.3
    start = 0.8 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    speed = 0.24 * np.roll(start, 1, axis=0)
    f = Multifunction(space, MovingFinite(tuple(np.stack([s, v]) for s, v in zip(start, speed))),
                      2.0, 4.0)
    t = uniform_partition(n)
    acc = None
    for w, tag in zip(t.widths, t.tags):
        term = scale(float(w), eval_mf(f, float(tag)))
        cloud = term if acc is None else minkowski(acc, term)
        acc = PointSet(space, _ref_prune_points(cloud, delta))
    return cloud


def _reference_clouds():
    """(space, cloud, other cloud, delta): random clouds, dyadic grids with
    delta a multiple of 1/16, where distances tie with delta exactly, and the
    edges of prune's two walks: delta below every spacing (no pairs, every
    row kept), delta at or above the diameter (one row kept), uniform clouds
    with small and large delta-balls, and the cloud of a pruned sum."""
    rng = np.random.default_rng(2024)
    for make in (l1, l2, linf):
        for dim, n, delta in ((2, 400, 0.1), (3, 600, 0.3)):
            space = make(dim)
            yield pytest.param(space, random_ps(space, n, rng), random_ps(space, n // 2, rng),
                               delta, id=f"{space.norm}-random-{dim}d")
        for dim, k in ((2, 17), (3, 7)):
            space = make(dim)
            axes = np.meshgrid(*[np.arange(k) / 16.0] * dim)
            grid = PointSet(space, np.stack([ax.ravel() for ax in axes], axis=1))
            shifted = PointSet(space, np.floor(rng.random((80, dim)) * 2 * k) / 32.0)
            for m in (1, 2, 3):
                yield pytest.param(space, grid, shifted, m / 16.0,
                                   id=f"{space.norm}-grid-{dim}d-delta{m}/16")
            # the grid spans 1 per axis: its diameter is 1 in linf, sqrt(dim) in
            # l2 and dim in l1
            diameter = {"l1": float(dim), "l2": math.sqrt(dim), "linf": 1.0}[space.norm]
            for delta, tag in ((diameter, "diameter"), (2 * diameter, "above-diameter")):
                yield pytest.param(space, grid, shifted, delta, id=f"{space.norm}-grid-{dim}d-{tag}")
        space = make(2)
        yield pytest.param(space, random_ps(space, 300, rng), random_ps(space, 50, rng), 1e-9,
                           id=f"{space.norm}-below-spacing")
        for tag, delta in SPARSE_AND_DENSE:
            cloud = PointSet(space, rng.random((2000, 2)))
            yield pytest.param(space, cloud, random_ps(space, 50, rng), delta,
                               id=f"{space.norm}-uniform-{tag}")
        yield pytest.param(space, _moving_sum_cloud(space, 0.05), random_ps(space, 50, rng), 0.05,
                           id=f"{space.norm}-moving-sum")


#: (cloud, delta) on 2,000 uniform points in [0, 1]^2: mean delta-balls of
#: 2.6-4.1 points (the pair walk) and 39-74 (the ball walk) in l1, l2, linf.
SPARSE_AND_DENSE = (("sparse", 0.02), ("dense", 0.1))


REFERENCE_CASES = list(_reference_clouds())


@pytest.mark.parametrize("space, a, _, delta", REFERENCE_CASES)
def test_prune_keeps_reference_points(space, a, _, delta):
    assert np.array_equal(prune(a, delta).base.points, _ref_prune_points(a, delta))


@pytest.mark.parametrize("space, a, _, delta", REFERENCE_CASES)
@pytest.mark.parametrize("walk", [_net_by_pairs, _net_by_balls])
def test_both_walks_keep_reference_points(walk, space, a, _, delta):
    kept = walk(cKDTree(a.points), delta, _KDTREE_P[space.norm])
    assert np.array_equal(a.points[kept], _ref_prune_points(a, delta))


@pytest.mark.parametrize("space, a, _, delta", REFERENCE_CASES)
def test_pair_walk_keeps_reference_points_with_int64_keys(monkeypatch, space, a, _, delta):
    # clouds of more than _RADIX_ROWS rows group their pairs by int64 keys
    monkeypatch.setattr("setint.setops._RADIX_ROWS", 0)
    kept = _net_by_pairs(cKDTree(a.points), delta, _KDTREE_P[space.norm])
    assert np.array_equal(a.points[kept], _ref_prune_points(a, delta))


@pytest.mark.parametrize("make", [l1, l2, linf])
@pytest.mark.parametrize("tag, delta", SPARSE_AND_DENSE)
def test_prune_walks_pairs_on_sparse_and_balls_on_dense_clouds(monkeypatch, make, tag, delta):
    taken = []
    for walk in (_net_by_pairs, _net_by_balls):
        monkeypatch.setattr(f"setint.setops.{walk.__name__}",
                            lambda *args, walk=walk: taken.append(walk) or walk(*args))
    prune(PointSet(make(2), np.random.default_rng(5).random((2000, 2))), delta)
    assert taken == [_net_by_pairs if tag == "sparse" else _net_by_balls]


def test_prune_of_a_dense_cloud_does_not_enumerate_its_pairs():
    # 17.6 million pairs lie within delta: 268 MiB as an index array
    a = PointSet(l2(2), np.random.default_rng(6).random((6000, 2)))
    tracemalloc.start()
    try:
        kept = prune(a, 1.0).base.points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.array_equal(kept, _ref_prune_points(a, 1.0))


@pytest.mark.parametrize("delta", [-1.0, math.inf, math.nan])
def test_prune_rejects_negative_or_non_finite_delta(delta):
    with pytest.raises(InvalidArgumentError):
        prune(ps(l2(2), [[0, 0], [1, 0]]), delta)


@pytest.mark.parametrize("space, a, b, _", REFERENCE_CASES)
def test_distances_equal_reference(space, a, b, _):
    metric = cdist_metric(space)
    d_ab = _ref_min_dists_to(a.points, b.points, metric)
    d_ba = _ref_min_dists_to(b.points, a.points, metric)
    assert one_sided_hausdorff(a, b) == d_ab.max()
    assert one_sided_hausdorff(b, a) == d_ba.max()
    assert hausdorff(a, b) == max(d_ab.max(), d_ba.max())
    for x, want in zip(b.points[:20], d_ab[:20]):
        assert dist_point_to_set(x, a) == want


@pytest.mark.parametrize("x", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
def test_dist_point_to_set_rejects_wrong_shape(x):
    with pytest.raises(InvalidArgumentError):
        dist_point_to_set(x, ps(l2(2), [[0, 0], [2, 0]]))


# ---------------------------------------------------------------------------
# Brute-force reference: the np.unique sort plus the near-duplicate pass that
# the single lexsort pass replaced.


def _ref_canonicalize(points):
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] > 1:
        close = np.abs(np.diff(pts, axis=0)).max(axis=1) <= DEDUP_TOL
        keep = np.ones(pts.shape[0], dtype=bool)
        keep[1:] = ~close
        pts = pts[keep]
    return pts


def _duplicate_heavy_cloud(rng, n, dim):
    """Rows on a coarse grid (equal leading columns), exact copies, copies
    moved by 5e-13 or 2e-12 steps (chains of them too) and signed zeros."""
    base = rng.integers(-2, 3, (n, dim)) / 4.0
    copies = base[rng.integers(0, n, n)]
    steps = rng.choice([0.0, 5e-13, -5e-13, 2e-12, -2e-12], size=(n, dim))
    chain = copies[: n // 4] + np.cumsum(np.full((n // 4, dim), 5e-13), axis=0)
    pts = np.concatenate([base, copies, copies + steps, chain])
    zeros = pts == 0.0
    pts[zeros & (rng.random(pts.shape) < 0.5)] = -0.0
    return pts[rng.permutation(pts.shape[0])]


@pytest.mark.parametrize("seed", range(40))
def test_canonicalize_equals_reference(seed):
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 4
    pts = _duplicate_heavy_cloud(rng, int(rng.integers(1, 80)), dim)
    got, want = _canonicalize(pts), _ref_canonicalize(pts)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_canonicalize_keeps_first_of_equal_rows_in_input_order():
    rows = np.array([[0.0, 1.0], [-0.0, 1.0]])
    assert not np.signbit(_canonicalize(rows)[0, 0])
    assert np.signbit(_canonicalize(rows[::-1])[0, 0])


# Second reference: the canonical form as one stable lexsort over every
# column followed by a row-by-row near-duplicate pass.  It fixes which of the
# rows equal as numbers is kept, so the sign bits of zeros are compared too.


def _lexsort_canonicalize(points):
    pts = np.asarray(points, dtype=float)
    pts = pts[np.lexsort(pts.T[::-1])]
    keep = np.ones(pts.shape[0], dtype=bool)
    keep[1:] = np.abs(np.diff(pts, axis=0)).max(axis=1) > DEDUP_TOL
    return pts[keep]


def _tie_runs(rng, n, dim):
    """Runs of equal first coordinates whose later columns descend, in input
    order and shuffled."""
    first = np.arange(n) // 4 / 8.0
    later = -np.arange(n * (dim - 1), dtype=float).reshape(n, dim - 1) / 16.0
    pts = np.column_stack([first, later])
    return np.concatenate([pts, pts[rng.permutation(n)]])


def _signed_zeros(rng, n, dim):
    """Zeros of both signs in every column, and rows equal as numbers."""
    pts = rng.choice([0.0, -0.0, 0.5, -0.25], size=(n, dim))
    pts[0], pts[-1] = 0.0, -0.0
    return pts


def _nudged_copies(rng, n, dim):
    """Exact copies and copies moved by +-5e-13 per coordinate."""
    base = rng.integers(-3, 4, (n, dim)) / 4.0
    moved = base + rng.choice([-5e-13, 0.0, 5e-13], size=(n, dim))
    return np.concatenate([base, base[rng.permutation(n)], moved])[rng.permutation(3 * n)]


def _uniform(rng, n, dim):
    return rng.random((n, dim))


CANONICAL_CASES = [
    pytest.param(make, n, dim, id=f"{make.__name__.strip('_')}-{n}x{dim}")
    for make in (_tie_runs, _signed_zeros, _nudged_copies, _uniform)
    for n, dim in ((1, 1), (1, 3), (2, 2), (3, 2), (9, 2), (9, 3), (200, 1), (200, 2),
                   (200, 4), (20_000, 2), (20_000, 3), (5, 512), (40, 512))
]


@pytest.fixture(params=["timsort", "default-sort"])
def sort_path(request, monkeypatch):
    """Send every first-column sort of the canonical form down one path: the
    stable timsort, or numpy's default sort, which orders ties arbitrarily."""
    timsort = request.param == "timsort"
    monkeypatch.setattr("setint.setops._timsorted", lambda first: timsort)
    return request.param


@pytest.mark.parametrize("make, n, dim", CANONICAL_CASES)
def test_canonicalize_equals_lexsort_form_in_values_and_sign_bits(make, n, dim, sort_path):
    pts = make(np.random.default_rng(n * dim), n, dim)
    got, want = _canonicalize(pts), _lexsort_canonicalize(pts)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# The batched canonical form: blocks of consecutive rows, each put in the
# canonical form of _canonicalize, all at once.


def _block_sizes(rng, n):
    """Random positive block sizes, mostly small, that add up to n."""
    sizes = []
    while n:
        sizes.append(min(n, int(rng.integers(1, 7))))
        n -= sizes[-1]
    return sizes


BLOCK_CASES = [
    pytest.param(make, n, dim, id=f"{make.__name__.strip('_')}-{n}x{dim}")
    for make in (_tie_runs, _signed_zeros, _nudged_copies, _uniform)
    for n, dim in ((1, 1), (2, 2), (9, 3), (60, 1), (60, 2), (200, 3), (400, 2), (40, 64))
]


@pytest.mark.parametrize("make, n, dim", BLOCK_CASES)
def test_point_sets_equal_per_block_canonical_form_in_values_and_sign_bits(make, n, dim,
                                                                           sort_path):
    rng = np.random.default_rng(n + dim)
    pts = make(rng, n, dim)
    sizes = _block_sizes(rng, len(pts))
    got = point_sets(l2(dim), pts, sizes)
    assert len(got) == len(sizes)
    for out, end, size in zip(got, np.cumsum(sizes), sizes):
        block = pts[end - size:end]
        for want in (_canonicalize(block), _lexsort_canonicalize(block)):
            assert out.points.shape == want.shape
            assert np.array_equal(out.points, want)
            assert np.array_equal(np.signbit(out.points), np.signbit(want))
        assert not out.points.flags.writeable


def test_canonicalize_blocks_ends_each_block_after_its_kept_rows():
    # copies within DEDUP_TOL shrink the blocks unequally: 3 -> 1, 2 -> 2, 4 -> 2
    rows = np.array([[0.0, 1.0], [5e-13, 1.0], [0.0, 1.0 - 5e-13],
                     [0.0, 1.0], [0.0, 0.0],
                     [2.0, 0.0], [-0.0, 3.0], [2.0, 4e-13], [0.0, 3.0]])
    pts, ends = _canonicalize_blocks(rows, [3, 2, 4])
    assert ends == [1, 3, 5]
    assert pts.tolist() == [[0.0, 1.0 - 5e-13], [0.0, 0.0], [0.0, 1.0], [-0.0, 3.0], [2.0, 0.0]]
    assert np.signbit(pts[3, 0]) and not np.signbit(pts[0, 0])


def test_canonicalize_blocks_lexsorts_only_for_ties_within_a_block(monkeypatch, sort_path):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))
    # the last row of each block ties with the first row of the next one
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 2.0], [2.0, 0.0], [2.0, 5.0], [3.0, 1.0]])
    _canonicalize_blocks(rows, [2, 2, 2])
    assert calls == []
    pts, ends = _canonicalize_blocks(rows, [3, 3])  # [1, 0] and [1, 2] tie in one block
    # two columns and the block number, and after the default sort the input index
    assert calls == [3 if sort_path == "timsort" else 4]
    assert ends == [3, 6] and np.array_equal(pts, rows)
    calls.clear()
    # one column: the timsort keeps equal rows in input order by itself
    pts = _canonicalize(np.array([[0.0], [-0.0], [1.0]]))
    assert calls == ([] if sort_path == "timsort" else [2])
    assert pts.tolist() == [[0.0], [1.0]] and not np.signbit(pts[0, 0])


def test_canonical_form_takes_the_timsort_only_for_sorted_runs(monkeypatch):
    picks = []
    timsorted = setops._timsorted
    monkeypatch.setattr("setint.setops._timsorted",
                        lambda first: picks.append(timsorted(first)) or picks[-1])
    rng = np.random.default_rng(5)
    a, b = PointSet(l2(2), rng.random((400, 2))), PointSet(l2(2), rng.random((3, 2)))
    gens = PointSet(l2(2), rng.random((6, 2)))
    picks.clear()
    total = minkowski(a, b)  # three sorted runs
    assert picks == [True]
    picks.clear()
    power = minkowski_power(gens, 16)  # 20,349 multisets of 6 generators, unordered
    assert picks == [False] and len(power) == math.comb(21, 5)
    assert np.array_equal(total.points, _lexsort_canonicalize(
        (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, 2)))


def test_point_sets_rejects_empty_or_non_finite_blocks():
    with pytest.raises(InvalidArgumentError, match="nonempty"):
        point_sets(l2(1), np.zeros((2, 1)), [2, 0])
    with pytest.raises(InvalidArgumentError, match="finite"):
        point_sets(l2(1), np.array([[0.0], [np.inf]]), [1, 1])
    with pytest.raises(InvalidArgumentError, match="dimension"):
        point_sets(l2(2), np.zeros((2, 3)), [1, 1])


#: Rows whose first coordinates, 2^53 - 2 and 2^53 - 1, round to one number
#: when scaled by 1.25 (the products pass 2^53, where the spacing is 2), so
#: the scaled rows tie there and must be ordered by their second column,
#: which descends in input order.
SCALED_TIES = ps(l2(2), [[2.0 ** 53 - 2, 0.5], [2.0 ** 53 - 1, 0.25]])
#: Rows 1.5e-12 apart, which scaling by 1/2 brings within DEDUP_TOL.
SCALED_NEAR = ps(l2(2), [[0.0, 0.0], [1.5e-12, 0.0], [0.0, 1.5e-12], [1.0, 1.0]])


def test_scaling_can_tie_and_merge_rows():
    tied = scale(1.25, SCALED_TIES).points
    assert tied[0, 0] == tied[1, 0] and tied[0, 1] < tied[1, 1]
    assert len(SCALED_NEAR) == 4 and len(scale(0.5, SCALED_NEAR)) == 2


def _scaling_cases():
    """(id, factors, sets): factors that make rows tie in the first column,
    merge within DEDUP_TOL, collapse to one row (zero) or reverse their order
    (negative), and the widths of a Riemann sum."""
    rng = np.random.default_rng(4)
    cloud = random_ps(l2(2), 5, rng)
    yield "ties", [1.25, 1.0, 1.25], [SCALED_TIES, SCALED_TIES, SCALED_NEAR]
    yield "near-duplicates", [0.5, 0.25, 1.0], [SCALED_NEAR] * 3
    yield "zero-and-negative", [0.0, -1.0, -0.25], [cloud, cloud, SCALED_NEAR]
    yield "widths", [0.125] * 4 + [1 / 3], [random_ps(l2(2), 5, rng) for _ in range(5)]


@pytest.mark.parametrize("lams, sets", [
    pytest.param(lams, sets, id=tag) for tag, lams, sets in _scaling_cases()
])
def test_scale_many_equals_scaling_each_set(lams, sets):
    for lam, a, out in zip(lams, sets, scale_many(lams, sets)):
        want = _lexsort_canonicalize(float(lam) * a.points)
        assert np.array_equal(out.points, want)
        assert np.array_equal(np.signbit(out.points), np.signbit(want))
        assert np.array_equal(scale(lam, a).points, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("na, nb", [(1, 7), (7, 1), (40, 25), (300, 60)])
def test_minkowski_equals_canonical_a_major_sums(dim, na, nb):
    # grid points: many sums tie in the first column or coincide
    rng = np.random.default_rng(na * nb + dim)
    a = PointSet(l2(dim), rng.integers(-4, 5, (na, dim)) / 4.0)
    b = PointSet(l2(dim), rng.integers(-4, 5, (nb, dim)) / 8.0)
    sums = (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, dim)
    assert np.array_equal(minkowski(a, b).points, _lexsort_canonicalize(sums))


@pytest.mark.parametrize("space", [l1(2), l2(2), linf(2)])
def test_minkowski_power_equals_folded_sum(space):
    rng = np.random.default_rng(11)
    for m in range(1, 7):
        a = random_ps(space, m, rng)
        folded = a
        for k in range(1, 17):
            power = minkowski_power(a, k)
            assert len(power) == math.comb(k + m - 1, k)
            assert hausdorff(power, folded) <= 1e-12
            folded = minkowski(folded, a)


def _grown_power(a, k):
    """The rows minkowski_power(a, k) enumerates, k >= 2, built another way:
    partial sums grown one generator at a time, every one spawning a child
    per count its budget allows, (((0 + c_1 g_1) + c_2 g_2) + ...) + c_m g_m
    in floats."""
    sums = np.zeros((1, a.space.dim))
    left = np.array([k])
    for gen in a.points[:-1]:
        reps = left + 1
        counts = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        sums = np.repeat(sums, reps, axis=0) + counts[:, None] * gen
        left = np.repeat(left, reps) - counts
    return sums + left[:, None] * a.points[-1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_minkowski_power_equals_grown_partial_sums_in_values_and_sign_bits(dim):
    rng = np.random.default_rng(dim)
    for m in range(1, 7):
        for k in (2, 3, 7, 16):
            gens = rng.standard_normal((m, dim))
            gens[rng.random((m, dim)) < 0.3] = -0.0  # c * -0.0 is -0.0, and 0.0 + -0.0 is 0.0
            gens[rng.random((m, dim)) < 0.3] = 0.25  # dyadic ties in the sums
            a = PointSet(l2(dim), gens)
            got = minkowski_power(a, k).points
            want = _lexsort_canonicalize(_grown_power(a, k))
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_minkowski_power_peaks_at_most_two_and_a_half_times_its_result():
    # the 7-fold power of the 19 basis vectors of l1(19): 480,700 rows, 73 MB
    a = PointSet(l1(19), np.eye(19))
    tracemalloc.start()
    try:
        power = minkowski_power(a, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(power) == math.comb(25, 7)
    assert peak <= 2.5 * power.points.nbytes


def test_minkowski_power_merges_coincident_sums():
    seg = ps(l1(1), [[0], [1], [2]])
    assert minkowski_power(seg, 4).same_set(ps(l1(1), [[i] for i in range(9)]))


def test_minkowski_power_rejects_large_or_empty_powers():
    # six generic points in 3-D: at least C(1027, 3) > 1.7e8 points
    a = random_ps(l2(3), 6, np.random.default_rng(2))
    with pytest.raises(ResourceLimitError, match="at least"):
        minkowski_power(a, 2 ** 10)
    with pytest.raises(InvalidArgumentError):
        minkowski_power(a, 0)


CUBE = [list(c) for c in itertools.product([0.0, 1.0], repeat=3)]


@pytest.mark.parametrize("gens, k, side", [
    (CUBE, 40, 41),  # C(47, 7) ~ 6.3e7 multisets, 41^3 sums
    ([[0.0], [1.0], [2.0]], 2 ** 13, 2 ** 14 + 1),  # C(8194, 2) ~ 3.4e7 multisets
])
def test_minkowski_power_of_coincident_sums_follows_the_sums(gens, k, side):
    # more multisets than the pair limit, so the power is folded; its sums
    # are the integer grid, which the folded chain builds exactly
    a = ps(l1(len(gens[0])), gens)
    grid = np.array(list(itertools.product(np.arange(float(side)), repeat=a.space.dim)))
    assert minkowski_power(a, k).same_set(ps(a.space, grid))


def test_minkowski_power_stops_once_the_sums_pass_the_limit():
    a = ps(l1(3), CUBE)
    assert len(minkowski_power(a, 9, limit=1000)) == 1000
    with pytest.raises(ResourceLimitError, match="10-fold .* grew to 1331"):
        minkowski_power(a, 10, limit=1000)


# ---------------------------------------------------------------------------
# Finite Hausdorff distance from one k-d tree: the reference is the full query
# of each cloud against a tree of the other.


def _two_tree_hausdorff(a, b):
    p = _KDTREE_P[a.space.norm]
    return max(cKDTree(a.points).query(b.points, p=p)[0].max(),
               cKDTree(b.points).query(a.points, p=p)[0].max())


#: The three ways to a nearest distance or a prune net: a k-d tree, one of
#: scipy's C distance matrices (cdist, or pdist for prune), and numpy's
#: dense kernel (_pair_terms; prune has none, and takes pdist).
TIERS = ("tree", "scipy", "numpy")

EVERYWHERE = 10**18


def force_tier(monkeypatch, tier):
    """Send every nearest-distance query and every prune, in at most
    _DENSE_MAX_DIM coordinates, down one tier, whatever its size."""
    caps = {"tree": (0, 0, 0), "scipy": (0, EVERYWHERE, EVERYWHERE),
            "numpy": (EVERYWHERE, EVERYWHERE, EVERYWHERE)}[tier]
    monkeypatch.setattr("setint.setops._DENSE_CELLS", dict.fromkeys(_KDTREE_P, caps[0]))
    monkeypatch.setattr("setint.setops._DENSE_PAIRS", caps[1])
    monkeypatch.setattr("setint.setops._PDIST_ROWS", caps[2])


def _raw_sum(space, gens, n):
    """The raw Riemann sum S(F, T_n) of the constant body F(t) = gens on
    uniform_partition(n)."""
    f = Multifunction(space, Constant(ps(space, gens)), 10.0, 10.0)
    return riemann_sum(f, uniform_partition(n)).base


def _hausdorff_pairs(space):
    """(id, a, b): nested raw sums, disjoint, far-apart, shared points, grid
    ties, equal sizes and single points."""
    rng = np.random.default_rng(77)
    dim = space.dim
    gens = rng.standard_normal((4, dim))
    yield "nested-sums", _raw_sum(space, gens, 4), _raw_sum(space, gens, 8)
    yield "disjoint", random_ps(space, 120, rng), translate(random_ps(space, 40, rng), [3.0] * dim)
    yield "far-apart", random_ps(space, 90, rng), translate(random_ps(space, 30, rng), [1e6] * dim)
    base = rng.standard_normal((60, dim))
    yield "shared", ps(space, base), ps(space, np.concatenate([base[:20], rng.standard_normal((50, dim))]))
    yield ("grid-ties", ps(space, rng.integers(0, 5, (70, dim)) / 4.0),
           ps(space, rng.integers(0, 5, (25, dim)) / 4.0 + 0.125))
    yield "equal-sizes", random_ps(space, 50, rng), random_ps(space, 50, rng)
    yield "single-point", random_ps(space, 1, rng), random_ps(space, 40, rng)
    yield "two-single-points", random_ps(space, 1, rng), random_ps(space, 1, rng)


HAUSDORFF_CASES = [
    pytest.param(a, b, id=f"{make.__name__}-{tag}")
    for make in (l1, l2, linf)
    for tag, a, b in _hausdorff_pairs(make(3))
]


@pytest.mark.parametrize("a, b", HAUSDORFF_CASES)
def test_hausdorff_equals_two_tree_value_in_both_orders(monkeypatch, a, b):
    p = _KDTREE_P[a.space.norm]
    want = _two_tree_hausdorff(a, b)
    assert hausdorff(a, b) == want
    assert hausdorff(b, a) == want
    # the same bits down every tier
    for tier in TIERS:
        force_tier(monkeypatch, tier)
        assert hausdorff(a, b) == hausdorff(b, a) == want
        assert one_sided_hausdorff(a, b) == cKDTree(a.points).query(b.points, p=p)[0].max()


def _dense_cases(dim):
    """(a, b) pairs of clouds: dyadic ties, signed zeros and shared rows,
    magnitudes of 1e-150 to 1e150, and distances past the float range."""
    rng = np.random.default_rng(dim)
    for _ in range(25):
        na, nb = (int(n) for n in rng.integers(1, 30, 2))
        yield rng.integers(-4, 5, (na, dim)) / 4.0, rng.integers(-4, 5, (nb, dim)) / 8.0
        a = rng.standard_normal((na, dim))
        a[rng.random((na, dim)) < 0.3] = 0.0
        b = np.concatenate([a[rng.integers(0, na, nb)], rng.standard_normal((2, dim))])
        yield a, np.where(b == 0.0, -0.0, b)
        yield (rng.standard_normal((na, dim)) * 10.0 ** rng.choice([-150, 0, 150], (na, dim)),
               rng.standard_normal((nb, dim)) * 10.0 ** rng.choice([-150, 0, 150], (nb, dim)))
        yield rng.standard_normal((na, dim)) * 1e160, rng.standard_normal((nb, dim)) * 1e160
        yield rng.uniform(0.6, 1, (na, dim)) * 1.7e308, rng.uniform(-1, -0.6, (nb, dim)) * 1.7e308


@pytest.mark.parametrize("make", [l1, l2, linf])
@pytest.mark.parametrize("dim", range(1, setops._DENSE_MAX_DIM + 1))
def test_dense_nearest_distances_are_kdtree_bits(monkeypatch, make, dim):
    space = make(dim)
    p = _KDTREE_P[space.norm]
    force_tier(monkeypatch, "numpy")
    overflowed = 0
    for a, b in _dense_cases(dim):
        assert setops._dense(space, len(a) * len(b))
        want = cKDTree(a).query(b, p=p)[0]
        got = setops._min_dists_to(a, b, space)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        overflowed += np.isinf(want).sum()
    assert overflowed
    # from 8 coordinates on cKDTree sums l2 squares in another order
    assert not setops._dense(make(setops._DENSE_MAX_DIM + 1), 1)


@pytest.mark.parametrize("tier", TIERS)
def test_distances_past_the_float_range_are_computed_on_scaled_clouds(monkeypatch, tier):
    force_tier(monkeypatch, tier)
    # l2 squares overflow, the distance does not
    seg, far = ps(l2(2), [[0, 0], [1, 0]]), ps(l2(2), [[1e160, 1e160], [0, 1], [2, 2]])
    assert hausdorff(seg, far) == hausdorff(far, seg) == pytest.approx(SQ2 * 1e160, rel=1e-15)
    assert one_sided_hausdorff(seg, far) == hausdorff(seg, far)
    # past the float range itself, as an l1 sum
    seg, far = ps(l1(2), [[0, 0], [1, 0]]), ps(l1(2), [[1.7e308, 1.7e308], [0, 1], [2, 2]])
    assert hausdorff(seg, far) == hausdorff(far, seg) == one_sided_hausdorff(seg, far) == math.inf
    # a cloud past _TWO_LEVEL_ROWS rows: the cells are not keyed
    rng = np.random.default_rng(4)
    big = random_ps(l2(2), _TWO_LEVEL_ROWS + 10, rng)
    far = translate(random_ps(l2(2), 30, rng), [1e160, 0])
    unit = 2.0**531  # the largest power of two not above 1e160
    want = unit * max(cKDTree(big.points / unit).query(far.points / unit)[0].max(),
                      cKDTree(far.points / unit).query(big.points / unit)[0].max())
    assert hausdorff(big, far) == hausdorff(far, big) == want


@pytest.mark.parametrize("make", [l1, l2, linf])
def test_hull_distances_take_the_same_bits_on_every_tier(monkeypatch, make):
    rng = np.random.default_rng(12)
    pairs = [(random_ps(make(dim), m, rng), random_ps(make(dim), n, rng))
             for dim, m, n in ((2, 3, 5), (2, 9, 9), (3, 4, 12), (3, 12, 20))]
    pairs += [(b, a) for a, b in pairs]
    # far generators, in the order in which the hull queries certify
    tri = ps(make(2), [[0, 0], [1, 0], [0, 1]])
    pairs += [(tri, ps(make(2), [x, [1, 0], [0, 1]])) for x in ([-1e160, 0.0], [1e300, -1e300])]
    got = []
    for tier in TIERS:
        force_tier(monkeypatch, tier)
        got.append([hausdorff_hulls(a, b) for a, b in pairs])
    assert got[0] == got[1] == got[2]


def _count_trees(monkeypatch):
    """The sizes of the k-d trees built from here on, every query taking the
    tree path."""
    force_tier(monkeypatch, "tree")
    built = []

    def counting(data, *args, **kwargs):
        built.append(len(data))
        return cKDTree(data, *args, **kwargs)

    monkeypatch.setattr("setint.setops.cKDTree", counting)
    return built


@pytest.mark.parametrize("make", [l1, l2, linf])
@pytest.mark.parametrize("m", [5, 6])  # 4,845 and 20,349 fine rows
def test_hausdorff_of_nested_sums_builds_one_tree(monkeypatch, make, m):
    space = make(2)
    gens = np.random.default_rng(3).standard_normal((m, 2))
    coarse, fine = _raw_sum(space, gens, 8), _raw_sum(space, gens, 16)
    assert len(coarse) < len(fine)
    assert (len(fine) >= _TWO_LEVEL_ROWS) == (m == 6)
    built = _count_trees(monkeypatch)
    assert hausdorff(fine, coarse) == _two_tree_hausdorff(fine, coarse)
    assert built == [len(coarse)]


def _large_hausdorff_pairs(space):
    """(id, a, b, cells): pairs whose larger cloud has at least
    _TWO_LEVEL_ROWS rows, and whether its cells can be keyed."""
    rng = np.random.default_rng(91)
    dim, n = space.dim, _TWO_LEVEL_ROWS + 1000
    coarse, fine = (_raw_sum(space, rng.uniform(-1, 1, (6, dim)), k) for k in (8, 16))
    yield "nested-sums", fine, coarse, True
    yield "identical", fine, PointSet(space, fine.points.copy()), False  # lower = 0
    yield "far-apart", random_ps(space, n, rng), translate(random_ps(space, 300, rng), [1e6] * dim), True
    side = math.ceil((4 * n) ** (1 / dim))  # n distinct rows of side^dim grid points
    grid = np.stack(np.unravel_index(rng.choice(side**dim, n, replace=False), (side,) * dim), axis=1)
    yield ("grid-ties", ps(space, grid / 4.0),
           ps(space, rng.integers(0, side, (400, dim)) / 4.0 + 0.125), True)
    # clusters of 25 rows within about 1e-9; the smaller cloud misses some.
    # In 6-D, l1 and l2 cells (of side lower / 6 and lower / sqrt(6)) would
    # need more than _CELLS_PER_ROW slots per row
    centres = rng.standard_normal((400, dim))
    yield ("near-duplicates", ps(space, centres.repeat(25, axis=0) + 1e-9 * rng.standard_normal((10_000, dim))),
           ps(space, centres[:360] + 1e-9 * rng.standard_normal((360, dim))), dim < 6 or space.norm == "linf")
    # a line of larger rows 1 apart and smaller rows 50 apart, with holes of
    # radius 28 (30 for the first) in the larger rows: the smaller row at a
    # centre represents some cells, yet lies farther from the larger rows
    # than any larger row from the smaller ones
    t = np.arange(50 * (n // 50 + 40) + 1.0)
    u = np.arange(312.0, len(t) - 300, 437)
    r = np.where(u == u[0], 30.0, 28.0)
    s = t[::50]
    s = np.concatenate([s[(np.abs(s[:, None] - u) >= r + 25).all(axis=1)], u, u - r - 25, u + r + 25])
    t = t[(np.abs(t[:, None] - u) >= r).all(axis=1)]
    yield "holes", *(ps(space, np.pad(v[:, None], ((0, 0), (0, dim - 1)))) for v in (t, s)), True
    # one far row shared by both clouds: about 1e31 cells per axis
    far = np.full((1, dim), 1e30)
    yield ("huge-extent", ps(space, np.concatenate([fine.points, far])),
           ps(space, np.concatenate([coarse.points, far])), False)


LARGE_HAUSDORFF_CASES = [
    pytest.param(a, b, cells, id=f"{make.__name__}-{dim}-{tag}")
    for make in (l1, l2, linf)
    for dim in (1, 2, 3, 6)
    for tag, a, b, cells in _large_hausdorff_pairs(make(dim))
]


@pytest.mark.parametrize("a, b, cells", LARGE_HAUSDORFF_CASES)
def test_hausdorff_of_large_clouds_equals_two_tree_value_in_both_orders(monkeypatch, a, b, cells):
    assert max(len(a), len(b)) >= _TWO_LEVEL_ROWS
    settled = []

    def spy(*args):
        settled.append(_settle_by_cells(*args))
        return settled[-1]

    monkeypatch.setattr("setint.setops._settle_by_cells", spy)
    want = _two_tree_hausdorff(a, b)
    assert hausdorff(a, b) == want
    assert hausdorff(b, a) == want
    assert [s is not None for s in settled] == [cells] * 2


@pytest.mark.parametrize("make", [l1, l2, linf])
def test_cells_of_nested_sums_query_few_larger_rows(monkeypatch, make):
    # 20,349 and 1,287 rows, nested: the generators of the smaller cloud of
    # _large_hausdorff_pairs' 2-D nested-sums pair, at 16 and 8 intervals
    space = make(2)
    gens = np.random.default_rng(91).uniform(-1, 1, (6, 2))
    fine, coarse = _raw_sum(space, gens, 16), _raw_sum(space, gens, 8)
    want = _two_tree_hausdorff(fine, coarse)
    queried = []

    class Spy:
        def __init__(self, data):
            self.tree = cKDTree(data)

        def query(self, x, p):
            queried.append(len(x))
            return self.tree.query(x, p=p)

    monkeypatch.setattr("setint.setops.cKDTree", Spy)
    assert hausdorff(fine, coarse) == want
    # the sample, the centres of cells without a smaller row, and the rows
    # left unsettled, all against the tree of the smaller cloud
    assert len(queried) == 3
    assert sum(queried) <= 0.05 * len(fine)


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_cells_are_not_used_past_their_slots_per_row(p):
    # two tight clusters far apart: cells of the lower bound's diameter would
    # need far more than _CELLS_PER_ROW slots per larger row to cover the box
    rng = np.random.default_rng(3)
    large = np.concatenate([rng.uniform(0, 1e-3, (5000, 2)), rng.uniform(0, 1e-3, (5000, 2)) + 1e3])
    small = large[::7]
    tree = cKDTree(small)
    lower = tree.query(large[::max(1, len(large) // _LOWER_SAMPLE)], p=p)[0].max()
    assert (2e3 / lower) ** 2 > _CELLS_PER_ROW * len(large)
    assert _settle_by_cells(tree, small, large, p) is None


@pytest.mark.parametrize("make", [l1, l2, linf])
def test_hausdorff_of_far_apart_clouds_is_exact(monkeypatch, make):
    rng = np.random.default_rng(8)
    a = random_ps(make(2), 200, rng)
    b = translate(random_ps(make(2), 30, rng), [1e6, -2e6])
    metric = cdist_metric(a.space)
    want = max(cdist(a.points, b.points, metric=metric).min(axis=1).max(),
               cdist(b.points, a.points, metric=metric).min(axis=1).max())
    built = _count_trees(monkeypatch)
    assert hausdorff(a, b) == hausdorff(b, a) == want
    # the rows of b that no row of a reaches first stay open: a second tree
    assert built == [30, 200] * 2


# ---------------------------------------------------------------------------
# Tiers: a k-d tree, scipy's C distance matrices and numpy's dense kernel
# give the same rows and the same floats.


def _pair_distances(space, a, b):
    return cdist(a, b, metric=cdist_metric(space)).ravel()


def _tier_cases(space):
    """(a, b, delta): random normal clouds and 1/8-grid clouds, with delta
    equal to one of the cloud's own pair distances (a tie), and clouds whose
    l2 squares (and l1 distances) pass the float range, with no delta: there
    cKDTree's pair and ball queries raise ValueError."""
    rng = np.random.default_rng(space.dim)
    dim = space.dim
    for n, m in ((2, 1), (17, 9), (60, 45), (150, 20)):
        a, b = random_ps(space, n, rng), random_ps(space, m, rng)
        yield a, b, float(np.quantile(_pair_distances(space, a.points, a.points), 0.1, method="lower"))
        a = ps(space, rng.integers(0, 9, (n, dim)) / 8.0)
        b = ps(space, rng.integers(0, 9, (m, dim)) / 8.0)
        gaps = np.unique(_pair_distances(space, a.points, a.points))
        yield a, b, float(gaps[min(2, len(gaps) - 1)])
    a = ps(space, rng.standard_normal((40, dim)) * 1e160)
    b = ps(space, rng.standard_normal((25, dim)) * 1e160)
    yield a, b, None
    a = ps(space, rng.uniform(0.6, 1, (40, dim)) * 1.7e308)
    yield a, ps(space, rng.uniform(-1, -0.6, (25, dim)) * 1.7e308), None


@pytest.mark.parametrize("make", [l1, l2, linf])
@pytest.mark.parametrize("dim", range(1, setops._DENSE_MAX_DIM + 1))
def test_every_tier_keeps_the_same_rows_and_distances(monkeypatch, make, dim):
    space = make(dim)
    got, ran = {}, []
    for name in ("_cdist_terms", "_pair_terms", "_net_by_pdist", "cKDTree"):
        kernel = getattr(setops, name)
        monkeypatch.setattr(setops, name, lambda *args, name=name, kernel=kernel: ran.append(name) or kernel(*args))
    for tier in TIERS:
        force_tier(monkeypatch, tier)
        ran.clear()
        got[tier] = [
            (delta and prune(a, delta).base.points.tobytes(), hausdorff(a, b), hausdorff(b, a),
             one_sided_hausdorff(a, b), one_sided_hausdorff(b, a))
            for a, b, delta in _tier_cases(space)
        ]
        assert set(ran) == {"tree": {"cKDTree"}, "scipy": {"_cdist_terms", "_net_by_pdist"},
                            "numpy": {"_pair_terms", "_net_by_pdist"}}[tier]
    assert got["tree"] == got["scipy"] == got["numpy"]
    # some rows were pruned; the l2 squares of the clouds at 1e160 passed
    # the float range, not their distances, and the last clouds' distances did
    cases = list(_tier_cases(space))
    assert any(delta and len(row[0]) < a.points.nbytes for row, (a, _, delta) in zip(got["tree"], cases))
    assert got["tree"][-2][1] < math.inf == got["tree"][-1][1]


@pytest.mark.parametrize("make", [l1, l2, linf])
@pytest.mark.parametrize("n, delta", [(300, 1e150), (300, 1e158), (600, 1e150), (600, 3e159)])
def test_prune_of_a_cloud_past_the_square_range_equals_its_scaled_prune(make, n, delta):
    # at 1e160 the l2 squares of the extent pass the float range, and
    # cKDTree would raise ValueError; 1e158 * 1e158 passes it too
    rng = np.random.default_rng(n)
    unit = 2.0**531
    small = PointSet(make(2), rng.standard_normal((n, 2)))
    far = PointSet(make(2), small.points * unit)
    assert np.array_equal(prune(far, delta).base.points, prune(small, delta / unit).base.points * unit)


@pytest.mark.parametrize("tier", ["scipy", "numpy"])
@pytest.mark.parametrize("make", [l1, l2, linf])
@pytest.mark.parametrize("dim", [8, 9, 12])
def test_eight_or_more_coordinates_take_the_tree(monkeypatch, tier, make, dim):
    # there cKDTree adds l2 squares in four interleaved partial sums, which
    # neither cdist nor numpy's kernel does
    force_tier(monkeypatch, tier)

    def dense(*args):
        raise AssertionError("a distance matrix was computed")

    for name in ("_cdist_terms", "_pair_terms", "_net_by_pdist"):
        monkeypatch.setattr(f"setint.setops.{name}", dense)
    rng = np.random.default_rng(dim)
    a, b = random_ps(make(dim), 40, rng), random_ps(make(dim), 30, rng)
    assert hausdorff(a, b) == _two_tree_hausdorff(a, b)
    assert one_sided_hausdorff(a, b) == cKDTree(a.points).query(b.points, p=_KDTREE_P[a.space.norm])[0].max()
    assert np.array_equal(prune(a, 2.0).base.points, _ref_prune_points(a, 2.0))


# ---------------------------------------------------------------------------
# prune's result and its ball-size sample


@pytest.mark.parametrize("space, a, _, delta", REFERENCE_CASES)
def test_prune_result_is_canonical_without_a_second_sort(monkeypatch, space, a, _, delta):
    monkeypatch.setattr("setint.setops._canonicalize", None)  # prune must not call it
    out = prune(a, delta).base.points
    assert not out.flags.writeable
    monkeypatch.undo()
    assert np.array_equal(out, PointSet(space, out).points)


def test_prune_result_drops_kept_rows_within_dedup_tol():
    # delta / dim < DEDUP_TOL in l1(2): rows 0 and 2 are more than delta apart
    # but within DEDUP_TOL per coordinate, and only row 1, dropped by the net,
    # separated them in canonical order
    a = ps(l1(2), [[0.0, 0.0], [0.2e-12, 1.1e-12], [0.9e-12, -0.9e-12]])
    assert len(a) == 3
    kept = a.points[[0, 2]]
    out = prune(a, 1.5e-12).base.points
    assert np.array_equal(out, PointSet(a.space, kept).points)
    assert len(out) == 1


def test_prune_stops_counting_balls_once_the_walk_is_decided(monkeypatch):
    # 5,000 points in linf(3) at 0.3: each ball holds about 1,000 points, so
    # the first chunk of sampled rows alone passes the bound of 64 * 16
    counted = []

    class CountingTree(cKDTree):
        def query_ball_point(self, x, r, **kwargs):
            if kwargs.get("return_length"):
                counted.append(len(x))
            return super().query_ball_point(x, r, **kwargs)

    monkeypatch.setattr("setint.setops.cKDTree", CountingTree)
    a = PointSet(linf(3), np.random.default_rng(9).random((5000, 3)))
    kept = prune(a, 0.3).base.points
    assert counted == [_BALL_CHUNK]
    assert np.array_equal(kept, a.points[_net_by_balls(cKDTree(a.points), 0.3, np.inf)])


@pytest.mark.parametrize("make", [l1, l2, linf])
@pytest.mark.parametrize("n, delta", [(300, 0.05), (2000, 0.02), (2000, 0.045), (2000, 0.1), (5000, 0.3)])
def test_prune_picks_the_walk_the_full_sample_picks(monkeypatch, make, n, delta):
    force_tier(monkeypatch, "tree")  # 300 rows would take pdist
    a = PointSet(make(2), np.random.default_rng(n).random((n, 2)))
    p = _KDTREE_P[a.space.norm]
    sample = a.points[::max(_BALL_STRIDE, math.ceil(len(a) / _BALL_SAMPLE))]
    sizes = cKDTree(a.points).query_ball_point(sample, delta, p=p, return_length=True)
    want = _net_by_balls if sizes.sum() > _PAIR_WALK_MAX_BALL * len(sample) else _net_by_pairs
    taken = []
    for walk in (_net_by_pairs, _net_by_balls):
        monkeypatch.setattr(f"setint.setops.{walk.__name__}",
                            lambda *args, walk=walk: taken.append(walk) or walk(*args))
    prune(a, delta)
    assert taken == [want]
