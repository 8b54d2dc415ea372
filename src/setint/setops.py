"""Geometry kernel: Minkowski arithmetic, Hausdorff distances, hull-distance
oracles with certificates, and error-controlled pruning.

Bounded sets are represented as finite point clouds; the convex hull of a set
is represented implicitly by the same generators, and every hull query goes
through a distance oracle (no facet or vertex enumeration anywhere).  The l2
oracle is a min-norm-point iteration; l1 and linf solve a small LP with HiGHS
(``scipy.optimize.linprog``) and certify it by the dual bound of its
marginals.

Nearest-neighbour queries (finite Hausdorff distances, the delta-net of
``prune`` and the generator fast path of hull queries) go through a k-d tree,
``scipy.spatial.cKDTree``, whose Minkowski exponents p = 1, 2 and infinity are
exactly the l1, l2 and linf norms.  A finite Hausdorff distance queries the
larger cloud against a tree of the smaller one.  Each answer also bounds its
nearest smaller point's distance to the larger cloud by the maximum so far,
so only the smaller points that are no larger point's nearest query a tree
of the larger cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import InvalidArgumentError, ResourceLimitError, SolverFailureError
from .spaces import SpaceDescriptor, as_vector, cdist_metric, norms, space_from_json, space_to_json

#: Dedup / point-equality tolerance, absolute per coordinate.
DEDUP_TOL = 1e-12

#: Memory guard for pairwise enumeration inside a single Minkowski sum.
_PAIR_LIMIT = 20_000_000

_CHUNK = 2048

#: Feasibility tolerances of the HiGHS hull LPs.  Its defaults (1e-7) left a
#: gap above the default tol of 1e-8 on a 6-D l1 query; 1e-10 is the tightest
#: setting HiGHS takes.
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}

#: Minkowski exponent of each norm family, as cKDTree takes it.
_KDTREE_P = {"l1": 1.0, "l2": 2.0, "linf": np.inf}


def _canonicalize(points: np.ndarray) -> np.ndarray:
    """Sort rows lexicographically (first column most significant) and drop
    near-duplicates.

    One stable lexsort orders the rows, and a row is kept iff it differs from
    its sorted predecessor by more than DEDUP_TOL in some coordinate; exact
    duplicates fall under the same rule.  Among rows that are equal as numbers
    (0.0 and -0.0, say) the first in input order is kept.
    """
    pts = np.asarray(points, dtype=float)
    return _drop_near_duplicates(pts[np.lexsort(pts.T[::-1])])


def _drop_near_duplicates(pts: np.ndarray) -> np.ndarray:
    """The rows of a lexicographically sorted array that differ from their
    predecessor by more than DEDUP_TOL in some coordinate (a new array)."""
    keep = np.ones(pts.shape[0], dtype=bool)
    keep[1:] = np.abs(np.diff(pts, axis=0)).max(axis=1) > DEDUP_TOL
    return pts[keep]


@dataclass(frozen=True)
class PointSet:
    """Nonempty finite point cloud in a space; stored deduplicated and sorted."""

    space: SpaceDescriptor
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.space.dim:
            raise InvalidArgumentError(
                f"points of shape {pts.shape} do not match space dimension {self.space.dim}"
            )
        if pts.shape[0] == 0:
            raise InvalidArgumentError("a point set must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("point coordinates must be finite")
        pts = _canonicalize(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def _of_canonical(cls, space: SpaceDescriptor, pts: np.ndarray) -> "PointSet":
        """PointSet(space, pts) for an array already in canonical form: finite
        rows of the right shape, sorted, each more than DEDUP_TOL from its
        predecessor in some coordinate.  It is taken as it is, and made
        read-only."""
        out = object.__new__(cls)
        pts.setflags(write=False)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "points", pts)
        return out

    def __len__(self):
        return self.points.shape[0]

    def diameter(self) -> float:
        metric = cdist_metric(self.space)
        best = 0.0
        pts = self.points
        for i in range(0, pts.shape[0], _CHUNK):
            d = cdist(pts[i:i + _CHUNK], pts, metric=metric)
            best = max(best, float(d.max()))
        return best

    def same_set(self, other: "PointSet") -> bool:
        return (
            self.points.shape == other.points.shape
            and bool(np.array_equal(self.points, other.points))
        )


@dataclass(frozen=True)
class PrunedSet:
    """A point cloud plus a certified Hausdorff error bound to the exact set it
    stands for (the pruning ledger of a Riemann sum)."""

    base: PointSet
    err_bound: float = 0.0

    def __post_init__(self):
        if self.err_bound < 0:
            raise InvalidArgumentError("error bound must be nonnegative")


def _check_same_space(a: PointSet, b: PointSet):
    if a.space != b.space:
        raise InvalidArgumentError(f"space mismatch: {a.space} vs {b.space}")


def scale(lam: float, a: PointSet) -> PointSet:
    return PointSet(a.space, float(lam) * a.points)


def translate(a: PointSet, c) -> PointSet:
    return PointSet(a.space, a.points + np.asarray(c, dtype=float))


def minkowski(a: PointSet, b: PointSet) -> PointSet:
    """All pairwise sums, deduplicated."""
    _check_same_space(a, b)
    npairs = len(a) * len(b)
    if npairs > _PAIR_LIMIT:
        raise ResourceLimitError(
            f"Minkowski sum would enumerate {npairs} pairs; prune the operands first"
        )
    sums = (a.points[:, None, :] + b.points[None, :, :]).reshape(npairs, a.space.dim)
    return PointSet(a.space, sums)


def minkowski_power(a: PointSet, k: int, limit: int = _PAIR_LIMIT) -> PointSet:
    """The k-fold Minkowski sum a + ... + a, for k >= 1, of at most ``limit``
    points.

    Its points are sum_j c_j a_j over the count vectors c in N^m with
    c_1 + ... + c_m = k, one per multiset of k generators.  When there are at
    most ``limit`` multisets, C(k + m - 1, k), they are enumerated and
    canonicalised once, where k - 1 pairwise sums would each sort up to m
    times as many rows as they keep: one generator at a time, every partial
    sum spawns one child per count its remaining budget allows, and the last
    generator takes what is left.

    Otherwise sums may still coincide (the generators of {0, 1}^3 have
    C(k + 7, 7) multisets but (k + 1)^3 sums), so the power is folded one
    pairwise sum at a time, and work and memory follow the distinct sums.
    Before folding, r + 1 affinely independent generators (r the rank of
    a - a_0) give a lower bound C(k + r, r) on the points; above ``limit``,
    or once a partial power exceeds it, ResourceLimitError is raised.
    """
    if k < 1:
        raise InvalidArgumentError("k must be a positive integer")
    if k == 1:
        return a
    if math.comb(k + len(a) - 1, k) <= limit:
        sums = np.zeros((1, a.space.dim))
        left = np.array([k])
        for gen in a.points[:-1]:
            reps = left + 1
            counts = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
            sums = np.repeat(sums, reps, axis=0) + counts[:, None] * gen
            left = np.repeat(left, reps) - counts
        return PointSet(a.space, sums + left[:, None] * a.points[-1])
    rank = int(np.linalg.matrix_rank(a.points - a.points[0], tol=DEDUP_TOL))
    if math.comb(k + rank, rank) > limit:
        raise ResourceLimitError(
            f"{k}-fold Minkowski power has at least {math.comb(k + rank, rank)} points "
            f"(limit {limit}); prune the operand first"
        )
    acc = a
    for j in range(2, k + 1):
        acc = minkowski(acc, a)
        if len(acc) > limit:
            raise ResourceLimitError(
                f"{j}-fold Minkowski power grew to {len(acc)} points (limit {limit}); "
                "prune the operand first"
            )
    return acc


def _min_dists_to(a_pts: np.ndarray, b_pts: np.ndarray, space: SpaceDescriptor) -> np.ndarray:
    """For each row of b_pts, the distance to the nearest row of a_pts."""
    return cKDTree(a_pts).query(b_pts, p=_KDTREE_P[space.norm])[0]


def one_sided_hausdorff(a: PointSet, b: PointSet) -> float:
    """sup over b in B of the distance from b to A (how far B sticks out of A)."""
    _check_same_space(a, b)
    return float(_min_dists_to(a.points, b.points, a.space).max())


def hausdorff(a: PointSet, b: PointSet) -> float:
    """max(one_sided_hausdorff(a, b), one_sided_hausdorff(b, a)), bit for bit,
    usually from one k-d tree.

    The tree holds the smaller cloud (a on a tie), and every row of the
    larger cloud queries it; the largest of those distances is the larger
    cloud's side.  A larger row's distance also bounds its nearest smaller
    row's distance to the larger cloud from above (cKDTree's p = 1, 2 and
    infinity distances are symmetric bit for bit), and that bound is at most
    the maximum so far.  So only the smaller rows that are no larger row's
    nearest can raise it: those rows alone query a tree of the larger cloud,
    built only when some exist.  Consecutive Riemann sums nearly nest, and
    few rows stay open.
    """
    _check_same_space(a, b)
    small, large = (b, a) if len(b) < len(a) else (a, b)
    p = _KDTREE_P[a.space.norm]
    dists, nearest = cKDTree(small.points).query(large.points, p=p)
    worst = dists.max()
    open_rows = np.ones(len(small), dtype=bool)
    open_rows[nearest] = False
    if open_rows.any():
        worst = max(worst, cKDTree(large.points).query(small.points[open_rows], p=p)[0].max())
    return float(worst)


def _pow2_unit(p: np.ndarray) -> float:
    """The largest power of two not above max |p_ij|.  Dividing by it is
    exact and brings the entries into (-2, 2), so l2 squares neither overflow
    nor underflow."""
    return float(np.ldexp(1.0, np.frexp(np.abs(p).max())[1] - 1))


def dist_point_to_set(x, a: PointSet) -> float:
    x = as_vector(a.space, x)
    diff = a.points - x
    # scaled by one exact power of two, so in range the value is unchanged
    unit = _pow2_unit(diff)
    return unit * float(norms(a.space, diff / unit).min())


# ---------------------------------------------------------------------------
# Distance from a point to a convex hull of generators.


def dist_point_to_hull(space: SpaceDescriptor, x, a: PointSet, tol: float = 1e-8):
    """Distance from x to conv(a), with a certificate.

    Returns (value, gap) with value - gap <= exact <= value and gap <= tol.
    For the l2 norm a conditional-gradient (Gilbert-style) iteration with away
    steps and a duality-gap stopping certificate is used; for l1/linf the
    problem reduces exactly to a small LP solved by HiGHS, whose dual
    marginals give the lower bound.  Raises SolverFailureError when the
    certificate misses tol.
    """
    if not tol > 0:
        raise InvalidArgumentError("tol must be positive")
    if a.space != space:
        raise InvalidArgumentError("generator set does not live in the given space")
    x = as_vector(space, x)
    # Fast path: x coincides with a generator.
    if dist_point_to_set(x, a) <= DEDUP_TOL:
        return 0.0, 0.0
    if space.norm == "l2":
        return _hull_dist_l2(x, a.points, tol)
    return _hull_dist_lp(space, x, a.points, tol)


def _hull_dist_l2(x: np.ndarray, pts: np.ndarray, tol: float, max_iter: int = 10_000):
    """Min-norm-point iteration on the shifted generators p_i = a_i - x.

    Major cycles add the conditional-gradient vertex to a corral, minor cycles
    re-solve the affine minimum over the corral and drop atoms that would go
    negative; on a quadratic this terminates after finitely many corral
    changes.  The gap g = <y, y - p_s> bounds f(y) - f* for f = 1/2 ||.||^2,
    hence value - exact <= 2 g / value; that quotient is the certificate.

    The iteration runs on p / unit (see _pow2_unit), and the value and the
    certificate are scaled back by the same exact factor.
    """
    p = pts - x
    unit = _pow2_unit(p)
    p = p / unit
    start = int(np.argmin((p * p).sum(axis=1)))
    idx = [start]
    w = np.array([1.0])
    value = cert = None
    for _ in range(max_iter):
        y = w @ p[idx]
        norm = float(np.linalg.norm(y))
        scores = p @ y
        s_idx = int(np.argmin(scores))
        gap = float(y @ y - scores[s_idx])
        value = unit * norm
        cert = unit * min(norm, 2.0 * gap / norm) if norm > 0 else 0.0
        if value <= 1e-14 or cert <= tol:
            return max(value, 0.0), max(cert, 0.0)
        if s_idx in idx:
            raise SolverFailureError(
                "hull-distance iteration stalled on a corral above tol",
                value=value,
                gap=cert,
            )
        idx.append(s_idx)
        w = np.append(w, 0.0)
        while True:
            a = p[idx]
            k = len(idx)
            # affine minimizer over the corral: KKT system of
            # min ||v @ a|| subject to sum v = 1 (signs free)
            lhs = np.zeros((k + 1, k + 1))
            lhs[:k, :k] = a @ a.T
            lhs[:k, k] = 1.0
            lhs[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            v = np.linalg.lstsq(lhs, rhs, rcond=None)[0][:k]
            if np.all(v >= -1e-12):
                w = np.clip(v, 0.0, None)
                w /= w.sum()
                break
            neg = np.where(v < 0)[0]
            theta = float((w[neg] / (w[neg] - v[neg])).min())
            w = (1.0 - theta) * w + theta * v
            keep = w > 1e-14
            keep[neg[np.argmin(w[neg] / (w[neg] - v[neg]))]] = False
            idx = [j for j, k_ in zip(idx, keep) if k_]
            w = w[keep]
            w /= w.sum()
    raise SolverFailureError(
        "hull-distance iteration did not certify within the iteration cap",
        value=value,
        gap=cert,
    )


def _hull_dist_lp(space: SpaceDescriptor, x: np.ndarray, pts: np.ndarray, tol: float):
    """l1/linf hull distance as an LP over hull coefficients lambda and
    deviation bounds: |(D^T lambda)_j| <= u_j for l1, <= u for linf, where
    the rows of D are the generators minus x, divided by their largest entry
    (HiGHS rejects matrix entries above 1e15 and reads bounds of 1e20 as
    infinite, so the LP must not carry the data's scale).

    The value is the distance to the hull point of the clipped, renormalised
    lambda (an upper bound); the dual marginals give a dual-norm unit vector
    w with w.x - max_i w.a_i <= exact, a lower bound.  Their difference is the
    gap.
    """
    # Imported here: loading scipy.optimize costs about 0.1 s, which every
    # run would otherwise pay at import time.
    from scipy.optimize import linprog

    diff = pts - x
    g, d = pts.shape
    nvar = g + (d if space.norm == "l1" else 1)
    c = np.zeros(nvar)
    c[g:] = 1.0
    a_ub = np.zeros((2 * d, nvar))
    a_ub[0::2, :g] = diff.T / np.abs(diff).max()
    a_ub[1::2, :g] = -a_ub[0::2, :g]
    rows = np.arange(2 * d)
    a_ub[rows, g + (rows // 2 if space.norm == "l1" else 0)] = -1.0
    a_eq = np.zeros((1, nvar))
    a_eq[0, :g] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * d), A_eq=a_eq, b_eq=[1.0],
                  bounds=(0, None), method="highs", options=_HIGHS_TOLERANCES)
    if res.status != 0:
        raise SolverFailureError(f"hull LP failed: {res.message}")
    lam = np.clip(res.x[:g], 0.0, None)
    delta = np.abs(diff.T @ (lam / lam.sum()))
    value = float(delta.sum() if space.norm == "l1" else delta.max())
    w = res.ineqlin.marginals[0::2] - res.ineqlin.marginals[1::2]
    w = np.clip(w, -1.0, 1.0) if space.norm == "l1" else w / max(1.0, float(np.abs(w).sum()))
    proj = diff @ w
    gap = max(value - max(-float(proj.max()), float(proj.min()), 0.0), 0.0)
    if gap > tol:
        raise SolverFailureError("hull LP certificate exceeds tol", value=value, gap=gap)
    return value, gap


def hausdorff_hulls(a: PointSet, b: PointSet, tol: float = 1e-8) -> float:
    """Hausdorff distance between conv(a) and conv(b) within tol.

    The supremum of the (convex) distance-to-a-hull function over a hull is
    attained at generators, so it suffices to query each generator against the
    opposite hull.  A generator's distance to a hull is at most its distance
    to the nearest generator of that hull, so each generator counts with the
    smaller of the two.  Generators are visited by decreasing nearest
    distance, and a side stops once that distance cannot raise the maximum
    over both sides so far (or the generator appears in the other cloud).
    """
    if not tol > 0:
        raise InvalidArgumentError("tol must be positive")
    _check_same_space(a, b)

    def side(target: PointSet, queries: PointSet, worst: float) -> float:
        near = _min_dists_to(target.points, queries.points, a.space)
        for i in np.argsort(-near):
            if near[i] <= max(worst, DEDUP_TOL):
                break  # sorted: no later generator is farther than worst
            val, _ = dist_point_to_hull(a.space, queries.points[i], target, tol)
            worst = max(worst, min(val, float(near[i])))
        return worst

    return side(b, a, side(a, b, 0.0))


def _net_by_pairs(tree: cKDTree, delta: float, p: float) -> np.ndarray:
    """Mask of the greedy net's rows, from one enumeration of the pairs
    i < j within delta, grouped into forward neighbour lists."""
    n = tree.n
    pairs = tree.query_pairs(delta, p=p, output_type="ndarray")
    first = pairs[:, 0]
    later = pairs[np.argsort(first, kind="stable"), 1]
    counts = np.bincount(first, minlength=n)
    ends = np.cumsum(counts)
    rows = np.flatnonzero(counts)
    covered = np.zeros(n, dtype=bool)
    # a row is covered only by earlier kept rows, so it is final when reached
    for i, start, end in zip(rows.tolist(), (ends - counts)[rows].tolist(), ends[rows].tolist()):
        if not covered[i]:
            covered[later[start:end]] = True
    return ~covered


def _net_by_balls(tree: cKDTree, delta: float, p: float) -> np.ndarray:
    """Mask of the greedy net's rows, from one delta-ball query per kept row."""
    covered = np.zeros(tree.n, dtype=bool)
    kept = np.zeros(tree.n, dtype=bool)
    for i in range(tree.n):
        if not covered[i]:
            kept[i] = True
            covered[tree.query_ball_point(tree.data[i], delta, p=p)] = True
    return kept


#: prune samples the delta-balls of every k-th row in canonical order, with k
#: such that at most _BALL_SAMPLE rows, and at most one row in _BALL_STRIDE,
#: are sampled: a query costs about a microsecond per row, a large share of
#: the pair walk on a cloud of a few hundred points.
_BALL_SAMPLE = 64
_BALL_STRIDE = 16

#: The sampled balls are counted this many rows at a time, and counting stops
#: once the walk is decided: on a dense cloud a single ball can pass the
#: bound, and counting all of them took nearly as long as the ball walk (20,000
#: points in linf(3) at delta 0.3).
_BALL_CHUNK = 8

#: Mean delta-ball size (the row included) of the sample above which prune
#: walks ball by ball.  On uniform clouds of 5,000 and 40,000 points in 2-D
#: and 3-D, l1/l2/linf, the ball walk took a median 1.35x the pair walk's
#: time at a mean of 13, 1.24x at 16, 1.09x at 19 and 0.83x at 22; past the
#: crossover the pair list grows with the mean, so the bound stays below it.
_PAIR_WALK_MAX_BALL = 16


def prune(a: PointSet, delta: float) -> PrunedSet:
    """Greedy delta-net over the canonical point order.

    Invariant: a point is kept iff it is more than delta away from every
    earlier kept point.  The walk keeps each point not yet covered and marks
    its closed delta-ball as covered, so every dropped point is within delta
    of the result and the Hausdorff error is certified by delta.

    The net is the lexicographically first maximal independent set of the
    graph joining points within delta.  On sparse clouds one k-d tree
    enumeration of those pairs gives each point's later neighbours, and the
    walk marks them.  Where the sampled delta-balls hold more than
    _PAIR_WALK_MAX_BALL points on average, the pair list would outgrow the
    walk, and each kept point queries its own ball instead.  Both walks use
    the same closed ball and the same cKDTree distance, and keep the same
    points.
    """
    if not 0 <= delta < math.inf:
        raise InvalidArgumentError("delta must be finite and nonnegative")
    if delta == 0 or len(a) == 1:
        return PrunedSet(a, float(delta))
    pts = a.points
    tree = cKDTree(pts)
    p = _KDTREE_P[a.space.norm]
    walk = _net_by_pairs
    if len(pts) > _PAIR_WALK_MAX_BALL:  # a smaller cloud's balls cannot hold more
        sample = pts[::max(_BALL_STRIDE, math.ceil(len(pts) / _BALL_SAMPLE))]
        budget = _PAIR_WALK_MAX_BALL * len(sample)
        # counts are nonnegative: once a prefix passes the budget, all do
        for i in range(0, len(sample), _BALL_CHUNK):
            budget -= tree.query_ball_point(sample[i:i + _BALL_CHUNK], delta, p=p,
                                            return_length=True).sum()
            if budget < 0:
                walk = _net_by_balls
                break
    # A subsequence of canonical rows is still sorted.  Kept rows are more
    # than delta apart in the norm, so more than delta / dim in some
    # coordinate; twice the margin covers the rounding of either distance.
    rows = pts[walk(tree, delta, p)]
    if delta <= 2 * a.space.dim * DEDUP_TOL:
        rows = _drop_near_duplicates(rows)
    return PrunedSet(PointSet._of_canonical(a.space, rows), float(delta))


def pointset_to_json(a: PointSet) -> dict:
    return {"space": space_to_json(a.space), "points": a.points.tolist()}


def pointset_from_json(obj) -> PointSet:
    if not isinstance(obj, dict) or "space" not in obj or "points" not in obj:
        raise InvalidArgumentError('point set JSON must have "space" and "points"')
    return PointSet(space_from_json(obj["space"]), np.asarray(obj["points"], dtype=float))
