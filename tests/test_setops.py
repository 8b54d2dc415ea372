import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from setint.errors import InvalidArgumentError
from setint.setops import (
    DEDUP_TOL,
    PointSet,
    _canonicalize,
    dist_point_to_hull,
    dist_point_to_set,
    hausdorff,
    hausdorff_hulls,
    minkowski,
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


def _reference_clouds():
    """(space, cloud, other cloud, delta): random clouds, and dyadic grids with
    delta a multiple of 1/16, where distances tie with delta exactly."""
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


REFERENCE_CASES = list(_reference_clouds())


@pytest.mark.parametrize("space, a, _, delta", REFERENCE_CASES)
def test_prune_keeps_reference_points(space, a, _, delta):
    assert np.array_equal(prune(a, delta).base.points, _ref_prune_points(a, delta))


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
