import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from setint.errors import InvalidArgumentError, ResourceLimitError, SolverFailureError
from setint.integrate import riemann_sum
from setint.partition import Constant, Multifunction, MovingFinite, eval_mf, uniform_partition
from setint.setops import (
    _BALL_CHUNK,
    _BALL_SAMPLE,
    _BALL_STRIDE,
    DEDUP_TOL,
    _KDTREE_P,
    _PAIR_WALK_MAX_BALL,
    PointSet,
    _canonicalize,
    _hull_dist_l2,
    _net_by_balls,
    _net_by_pairs,
    dist_point_to_hull,
    dist_point_to_set,
    hausdorff,
    hausdorff_hulls,
    minkowski,
    minkowski_power,
    one_sided_hausdorff,
    pointset_from_json,
    pointset_to_json,
    prune,
    scale,
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


def test_hull_l2_stalled_corral_raises():
    # At the optimum the duality gap is rounding noise (about 1e-15), so a
    # tol below it stalls on the optimal corral, which must not pass for a
    # certified answer.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SolverFailureError, match="stalled") as info:
        _hull_dist_l2(np.array([1.0, 1.0]), tri, tol=1e-300)
    assert info.value.value == pytest.approx(SQ2 / 2, rel=1e-12)
    assert 1e-300 < info.value.gap <= 1e-12


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
def test_hausdorff_equals_two_tree_value_in_both_orders(a, b):
    want = _two_tree_hausdorff(a, b)
    assert hausdorff(a, b) == want
    assert hausdorff(b, a) == want


def _count_trees(monkeypatch):
    built = []

    def counting(data, *args, **kwargs):
        built.append(len(data))
        return cKDTree(data, *args, **kwargs)

    monkeypatch.setattr("setint.setops.cKDTree", counting)
    return built


@pytest.mark.parametrize("make", [l1, l2, linf])
def test_hausdorff_of_nested_sums_builds_one_tree(monkeypatch, make):
    space = make(2)
    gens = np.random.default_rng(3).standard_normal((5, 2))
    coarse, fine = _raw_sum(space, gens, 8), _raw_sum(space, gens, 16)
    assert len(coarse) < len(fine)
    built = _count_trees(monkeypatch)
    assert hausdorff(fine, coarse) == _two_tree_hausdorff(fine, coarse)
    assert built == [len(coarse)]


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
