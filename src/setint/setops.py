"""Geometry kernel: Minkowski arithmetic, Hausdorff distances, hull-distance
oracles with certificates, and error-controlled pruning.

Bounded sets are represented as finite point clouds; the convex hull of a set
is represented implicitly by the same generators, and every hull query goes
through a distance oracle (no facet or vertex enumeration anywhere).  The l2
oracle finds the min-norm point with one Lawson-Hanson NNLS solve
(``scipy.optimize.nnls``) and certifies it by its Frank-Wolfe gap; l1 and
linf solve a small LP with HiGHS (``scipy.optimize.linprog``) and certify it
by the dual bound of its marginals.

Nearest-neighbour queries (finite Hausdorff distances, the delta-net of
``prune`` and the generator fast path of hull queries) give the distances of
a k-d tree, ``scipy.spatial.cKDTree``, whose Minkowski exponents p = 1, 2 and
infinity are exactly the l1, l2 and linf norms.  Below 8 coordinates and the
tree's crossover, one matrix of the pairs' distances gives the same bits
without a tree, in three tiers (see _dense): numpy's kernel (_pair_terms) up
to _DENSE_CELLS pair coordinates, so that small runs never import
scipy.spatial; scipy's C kernel ``cdist`` up to _DENSE_PAIRS pairs; and for
``prune``, a cloud of at most _PDIST_ROWS rows takes its pairs within delta
from one condensed ``pdist`` matrix (see _net_by_pdist).  scipy.spatial, like
scipy.optimize, is imported only on first use.  A finite Hausdorff distance
above the caps queries the larger cloud against a tree of the smaller one,
and each answer bounds its nearest smaller point's distance to the larger
cloud; only the smaller points left unbounded query a tree of the larger
cloud.  Above _TWO_LEVEL_ROWS points a second level of grid cells settles
most points of both clouds by numpy distances to one representative per
cell, and only the rest query a tree.  The cells are sized by the largest
distance of _LOWER_SAMPLE evenly spaced larger points, a lower bound, and
held in one array of slots indexed by cell; a cell's representative is a
smaller point inside it, and only cells with none query the tree, with
their centres, in one call.  The result is the same float either way.  A
distance past the float range is computed again on both clouds scaled by a
power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError, SolverFailureError
from .spaces import (
    SQUARE_SAFE,
    SpaceDescriptor,
    as_vector,
    cdist_metric,
    norms,
    space_from_json,
    space_to_json,
)

#: Dedup / point-equality tolerance, absolute per coordinate.
DEDUP_TOL = 1e-12

#: Memory guard for pairwise enumeration inside a single Minkowski sum.
_PAIR_LIMIT = 20_000_000

#: Feasibility tolerances of the HiGHS hull LPs.  Its defaults (1e-7) left a
#: gap above the default tol of 1e-8 on a 6-D l1 query; 1e-10 is the tightest
#: setting HiGHS takes.
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}

#: Minkowski exponent of each norm family, as cKDTree takes it.
_KDTREE_P = {"l1": 1.0, "l2": 2.0, "linf": np.inf}


def cKDTree(data):  # noqa: N802 (it stands for scipy's class)
    """scipy.spatial.cKDTree(data), with scipy.spatial imported on first use:
    importing it takes about 0.3 s and 36 MB, which a run whose
    nearest-distance queries all take the dense path (see _dense) never
    pays."""
    from scipy.spatial import cKDTree as tree

    return tree(data)


#: Iteration cap of the l2 hull NNLS solve, per generator (scipy's default
#: is 3).
_NNLS_ITER_PER_GENERATOR = 50

#: Most ascending runs of a first column that the canonical form still sorts
#: with a timsort (see _timsorted).
_SORTED_RUNS = 8

#: Beyond the rows and their sorted copy, the canonical form of more rows
#: than this holds transient arrays of about this many rows: _fresh_rows
#: compares chunks of this many rows, and the sorted copy is gathered, and
#: reordered after a lexsort, one column at a time (a take on all of pts.T
#: first copies it).  Up to this many rows one take is faster.
_CHUNK_ROWS = 1 << 14


def _canonicalize(points: np.ndarray) -> np.ndarray:
    """Sort rows lexicographically (first column most significant) and drop
    near-duplicates: the one-block case of _canonicalize_blocks.

    A row is kept iff it differs from its sorted predecessor by more than
    DEDUP_TOL in some coordinate; exact duplicates fall under the same rule.
    Among rows that are equal as numbers (0.0 and -0.0, say) the first in
    input order is kept.
    """
    pts = np.asarray(points, dtype=float)
    return _canonicalize_blocks(pts, [len(pts)])[0]


def _canonicalize_blocks(pts: np.ndarray, sizes) -> tuple[np.ndarray, list[int]]:
    """The canonical form of each block of consecutive rows (``sizes`` rows
    each, all positive), computed for all blocks at once: the kept rows,
    block after block, and the list of the rows where each block ends.

    One sort of the first column orders the rows, chosen by the order they
    arrive in (see _timsorted).  Rows that come as a few ascending runs (a
    Minkowski sum has one per point of its second operand, see minkowski)
    take numpy's stable float sort, a timsort, which merges presorted runs
    in about linear time.  Unordered rows (a k-fold power, a user's point
    list) take numpy's default sort, several times faster on them but not
    stable: 0.71 ms against 1.93 ms for the whole canonical pass on the
    20,349 rows of a 16-fold power of 6 points in 2-D (2-vCPU host).  With
    more than one block, a stable sort of the block numbers then gathers
    each block's rows in that order.

    The two sorts differ only in the order of rows that tie in the first
    column.  Where two sorted rows of one block tie there, a stable lexsort
    of the sorted rows, by block and then by all columns, orders them; rows
    of a block without ties keep their order.  After the timsort, rows equal
    as numbers (0.0 and -0.0) are already in input order, and one column
    needs no lexsort; after the default sort, the lexsort runs for one
    column too and takes the input index as its last key.  So the result
    does not depend on the sort taken, and rows equal as numbers stay in
    input order.  The sorted rows are held as a (d, n) array, one contiguous
    row per column, and neighbours are compared column by column, except
    across a block boundary, where the later row is always kept.
    """
    many = len(sizes) > 1
    block = starts = None
    if many:
        sizes = np.asarray(sizes)
        block = np.arange(len(sizes)).repeat(sizes)
        starts = sizes[:-1].cumsum()  # the first row of each later block
    order, keep = _sorted_fresh_rows(pts, block, starts)
    out = pts.take(order[keep], axis=0)
    if not many:
        return out, [len(out)]
    return out, np.bincount(block[keep], minlength=len(sizes)).cumsum().tolist()


def _sorted_fresh_rows(pts: np.ndarray, block, starts) -> tuple[np.ndarray, np.ndarray]:
    """The canonical order of the rows, and the mask of the sorted rows that
    _canonicalize_blocks keeps (block numbers and the starts of later blocks
    given with more than one block).  The sorted copy of the rows lives only
    here, so that at most it, the rows and transient arrays of _CHUNK_ROWS
    rows are held at once."""
    first = pts[:, 0]
    stable = _timsorted(first)
    order = first.argsort(kind="stable") if stable else first.argsort()
    if block is not None:
        order = order.take(block.take(order).argsort(kind="stable"))
    if len(order) <= _CHUNK_ROWS:
        cols = pts.T.take(order, axis=1)
    else:
        # with out=, take buffers unless it may clip; order is a permutation
        cols = np.empty((pts.shape[1], len(order)))
        for col, column in zip(cols, pts.T):
            column.take(order, out=col, mode="clip")
    first = cols[0]
    ties = first[1:] == first[:-1]
    if block is not None:
        ties[starts - 1] = False  # the neighbours lie in two blocks
    if (len(cols) > 1 or not stable) and np.count_nonzero(ties):
        keys = (*cols[::-1], block) if block is not None else (*cols[::-1],)
        sub = np.lexsort(keys if stable else (order, *keys))
        order = order.take(sub)
        if len(order) <= _CHUNK_ROWS:
            cols = cols.take(sub, axis=1)
        else:
            for col in cols:
                col[:] = col.take(sub)
    keep = _fresh_rows(cols)
    if block is not None:
        keep[starts] = True
    return order, keep


def _timsorted(first: np.ndarray) -> bool:
    """Whether the canonical form sorts this first column with numpy's stable
    sort, a timsort, rather than with its default sort: when the column has
    at most _SORTED_RUNS ascending runs, which the timsort merges faster than
    the default sort sorts them."""
    return np.count_nonzero(first[1:] < first[:-1]) < _SORTED_RUNS


def _fresh_rows(cols: np.ndarray) -> np.ndarray:
    """Mask of the sorted rows, given as (d, n) columns, that differ from
    their predecessor by more than DEDUP_TOL in some coordinate; the first
    row is always kept."""
    n = cols.shape[1]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    for start in range(1, n, _CHUNK_ROWS):
        end = min(n, start + _CHUNK_ROWS)
        steps = cols[:, start:end] - cols[:, start - 1:end - 1]
        keep[start:end] = (np.abs(steps, out=steps) > DEDUP_TOL).any(axis=0)
    return keep


def _drop_near_duplicates(pts: np.ndarray) -> np.ndarray:
    """The rows of a lexicographically sorted array that differ from their
    predecessor by more than DEDUP_TOL in some coordinate (a new array),
    compared column by column as in _canonicalize."""
    return pts[_fresh_rows(pts.T.copy())]


def _checked_rows(space: SpaceDescriptor, points) -> np.ndarray:
    """points as a float (n, space.dim) array, n >= 1, of finite rows."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim and not len(pts):  # before a 1-D list becomes one row
        raise InvalidArgumentError("a point set must be nonempty")
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != space.dim:
        raise InvalidArgumentError(
            f"points of shape {pts.shape} do not match space dimension {space.dim}"
        )
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("point coordinates must be finite")
    return pts


@dataclass(frozen=True, eq=False)
class PointSet:
    """Nonempty finite point cloud in a space; stored deduplicated and sorted.
    Equal only to itself: same_set compares contents."""

    space: SpaceDescriptor
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = _canonicalize(_checked_rows(self.space, self.points))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def _of_canonical(cls, space: SpaceDescriptor, pts: np.ndarray) -> "PointSet":
        """PointSet(space, pts) for an array already in canonical form: finite
        rows of the right shape, sorted, each more than DEDUP_TOL from its
        predecessor in some coordinate.  It is taken as it is, and made
        read-only."""
        out = object.__new__(cls)
        if pts.flags.writeable:  # a view of a read-only array is read-only
            pts.setflags(write=False)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "points", pts)
        return out

    def __len__(self):
        return self.points.shape[0]

    def diameter(self) -> float:
        """The largest distance between two points.  In linf it is the
        largest coordinate range, exactly: rounding is monotone, so no pair
        differs by more in any coordinate."""
        pts = self.points
        if len(pts) == 1:
            return 0.0
        if self.space.norm == "linf":
            return float((pts.max(axis=0) - pts.min(axis=0)).max())
        from scipy.spatial.distance import pdist  # see cKDTree

        return float(pdist(pts, metric=cdist_metric(self.space)).max())

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


def point_sets(space: SpaceDescriptor, points, sizes) -> list[PointSet]:
    """One PointSet per block of consecutive rows of ``points`` (``sizes``
    rows each): [PointSet(space, block) for each block], with the blocks
    checked and put in canonical form together (see _canonicalize_blocks)."""
    if len(sizes) == 0:
        return []
    if min(sizes) < 1:
        raise InvalidArgumentError("a point set must be nonempty")
    pts, ends = _canonicalize_blocks(_checked_rows(space, points), sizes)
    pts.setflags(write=False)
    return [PointSet._of_canonical(space, pts[start:end])
            for start, end in zip([0, *ends[:-1]], ends)]


def scale_many(lams, sets: list[PointSet]) -> list[PointSet]:
    """The sets lam * a, for each factor and set (all of one space), from one
    multiply and one canonical pass for all of them: a factor can make rows
    tie or merge, and a negative one reverses their order."""
    sizes = [len(a) for a in sets]
    pts = np.concatenate([a.points for a in sets])
    pts *= np.array(lams, dtype=float).repeat(sizes)[:, None]
    return point_sets(sets[0].space, pts, sizes)


def scale(lam: float, a: PointSet) -> PointSet:
    return scale_many([lam], [a])[0]


def translate(a: PointSet, c) -> PointSet:
    return PointSet(a.space, a.points + np.asarray(c, dtype=float))


def minkowski(a: PointSet, b: PointSet) -> PointSet:
    """All pairwise sums, deduplicated.

    The sums are laid out b-major: block j holds a + b_j.  Adding a constant
    keeps a's canonical order in the first column (rounding is monotone), so
    the first column arrives as len(b) sorted runs.  The canonical form
    merges up to _SORTED_RUNS of them with a timsort, and sorts more with
    numpy's default sort, as it does unordered rows.  Floating-point addition
    is commutative, so every sum has the bits of a_i + b_j."""
    _check_same_space(a, b)
    npairs = len(a) * len(b)
    if npairs > _PAIR_LIMIT:
        raise ResourceLimitError(
            f"Minkowski sum would enumerate {npairs} pairs; prune the operands first"
        )
    sums = (b.points[:, None, :] + a.points[None, :, :]).reshape(npairs, a.space.dim)
    return PointSet(a.space, sums)


def minkowski_power(a: PointSet, k: int, limit: int = _PAIR_LIMIT) -> PointSet:
    """The k-fold Minkowski sum a + ... + a, for k >= 1, of at most ``limit``
    points.

    Its points are sum_j c_j a_j over the count vectors c in N^m with
    c_1 + ... + c_m = k, one per multiset of k generators.  When there are at
    most ``limit`` multisets, C(k + m - 1, k), they are enumerated (see
    _multiset_sums) and canonicalised once, where k - 1 pairwise sums would
    each sort up to m times as many rows as they keep.

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
        return PointSet(a.space, _multiset_sums(a.points, k))
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


def _multiset_sums(gens: np.ndarray, k: int) -> np.ndarray:
    """The sums sum_j c_j gens_j over the count vectors c in N^m with
    c_1 + ... + c_m = k, as the rows of an (N, d) array, N = C(k + m - 1, k):
    c_1 ascending, then c_2 within each c_1, and so on.

    One generator at a time, every partial count vector spawns one child per
    count its remaining budget allows (the last generator takes what is
    left), and each child stands for a run of the N rows as long as the
    ways to spend its remaining budget on the later generators.  The count
    of each row, small ints repeated over those runs, times the generator is
    added to the preallocated sums, held as (d, N) columns: each coordinate
    of a row is (((0 + c_1 g_1) + c_2 g_2) + ...) + c_m g_m in floats.  Peak
    memory is about twice the result.
    """
    m, dim = gens.shape
    small = np.min_scalar_type(k)
    sums = np.zeros((dim, math.comb(k + m - 1, k)))
    term = np.empty_like(sums)
    left = np.array([k])
    for j, gen in enumerate(gens):
        later = m - 2 - j  # the generators after this one, less one
        if later < 0:
            count = left.astype(small)
        else:
            reps = left + 1
            count = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
            left = np.repeat(left, reps) - count
            ways = np.ones(k + 1, dtype=np.int64)  # C(r + later, later), r = 0..k
            for i in range(1, later + 1):
                ways = ways * np.arange(i, k + 1 + i) // i
            count = np.repeat(count.astype(small), ways[left])
        sums += np.multiply.outer(gen, count, out=term)
    del term
    return sums.T.copy()


#: A nearest-distance query between clouds of n and m rows in d coordinates,
#: d <= _DENSE_MAX_DIM, takes one matrix of the pairs' distances in place of
#: a k-d tree while n * m is at most _DENSE_PAIRS, with cKDTree's bits: numpy
#: (see _pair_terms) while n * m * d is at most the norm's _DENSE_CELLS, so
#: that small runs never load scipy.spatial, and scipy's C kernel (see
#: _cdist_terms) above that.  At the cells caps numpy was at least as fast
#: as building a tree and querying it, for d = 1..7 and n:m from 1:16 to
#: 16:1 (random normal clouds, best of 41, 2-vCPU Xeon): 31 us against 48 us
#: for 64 x 64 rows in l2(2), 54 us against 53 us for 48 x 48 rows in l1(7).
#: Above them cdist was faster than the tree up to about 2^18 pairs: on the
#: raw_sets clouds of seeds 7 and 8, a finite Hausdorff distance took 35 us
#: against 52 us below 20,000 pairs and 145 against 280 us at 20,000-100,000;
#: on their clouds thinned to a 1:4 row ratio, cdist took a median 0.59 of
#: the tree's time at 2^16 pairs, 0.71 at 2^17, 0.97 at 2^18 and 1.13 at
#: 3 * 2^17 (2-vCPU Xeon).  2^18 pairs is a matrix of 2 MB.
#: In 12 and 24 coordinates the tree was faster in every norm at the sizes
#: under the caps, and from 8 coordinates on cKDTree adds l2 squares in
#: another order, so there every query builds a tree.
_DENSE_CELLS = {"l1": 16_384, "l2": 8_192, "linf": 16_384}
_DENSE_PAIRS = 1 << 18
_DENSE_MAX_DIM = 7


def _dense(space: SpaceDescriptor, pairs: int):
    """The kernel of a query over ``pairs`` pairs of rows, _pair_terms or
    _cdist_terms, or None where it builds a k-d tree."""
    if space.dim > _DENSE_MAX_DIM or pairs > _DENSE_PAIRS:
        return None
    return _pair_terms if pairs * space.dim <= _DENSE_CELLS[space.norm] else _cdist_terms


#: scipy.spatial.distance's metric for each cKDTree exponent: for p = 2 the
#: squared distance, as cKDTree compares and _pair_terms returns it.
_PAIR_METRIC = {1.0: "cityblock", 2.0: "sqeuclidean", math.inf: "chebyshev"}


def _cdist_terms(a_pts: np.ndarray, b_pts: np.ndarray, p: float) -> np.ndarray:
    """_pair_terms(a_pts, b_pts, p), bit for bit, from scipy's C kernel
    ``cdist``: below 8 coordinates it, too, adds the terms one coordinate at
    a time in order, and a sum past the float range is inf without a
    warning.  scipy.spatial is imported on first use (see cKDTree)."""
    from scipy.spatial.distance import cdist

    return cdist(b_pts, a_pts, _PAIR_METRIC[p])


def _pair_terms(a_pts: np.ndarray, b_pts: np.ndarray, p: float) -> np.ndarray:
    """The (len(b_pts), len(a_pts)) matrix of cKDTree's p-distances between
    rows, squared for p = 2, bit for bit, in at most 7 coordinates.

    There cKDTree adds |b_k - a_k| (p = 1) or (b_k - a_k)^2 (p = 2) one
    coordinate at a time, in order, takes the largest |b_k - a_k| for
    p = infinity, and takes the square root of the nearest l2 sum only.  So
    does this, one coordinate of all pairs at a time.  From 8 coordinates on
    cKDTree adds l2 squares in four interleaved partial sums.  A sum past the
    float range is inf, as in cKDTree, without a warning.
    """
    acc = np.empty((len(b_pts), len(a_pts)))
    term = np.empty_like(acc)
    fold = np.maximum if p == math.inf else np.add
    with np.errstate(over="ignore"):
        for k in range(b_pts.shape[1]):
            out = term if k else acc
            np.subtract.outer(b_pts[:, k], a_pts[:, k], out=out)
            if p == 2:
                np.multiply(out, out, out=out)
            else:
                np.abs(out, out=out)
            if k:
                fold(acc, term, out=acc)
    return acc


def _min_dists_to(a_pts: np.ndarray, b_pts: np.ndarray, space: SpaceDescriptor) -> np.ndarray:
    """For each row of b_pts, the cKDTree distance to the nearest row of
    a_pts; inf where it passes the float range."""
    p = _KDTREE_P[space.norm]
    kernel = _dense(space, len(a_pts) * len(b_pts))
    if kernel is None:
        return cKDTree(a_pts).query(b_pts, p=p)[0]
    near = kernel(a_pts, b_pts, p).min(axis=1)
    return np.sqrt(near, out=near) if p == 2 else near


def _rescaled(largest, a_pts: np.ndarray, b_pts: np.ndarray) -> float:
    """largest(a_pts, b_pts), the largest of some cKDTree distances between
    rows of the two clouds.  Where one passed the float range (an l2 square
    or an l1 sum, on finite rows), it is computed again on both clouds
    divided by one power of two (see _pow2_unit) and scaled back, as in
    dist_point_to_set, so it is inf only where the distance is.  Other
    inputs keep their bits."""
    worst = float(largest(a_pts, b_pts))
    if worst == math.inf:
        unit = max(_pow2_unit(a_pts), _pow2_unit(b_pts))
        worst = unit * float(largest(a_pts / unit, b_pts / unit))
    return worst


def one_sided_hausdorff(a: PointSet, b: PointSet) -> float:
    """sup over b in B of the distance from b to A (how far B sticks out of A)."""
    _check_same_space(a, b)
    return _rescaled(lambda x, y: _min_dists_to(x, y, a.space).max(), a.points, b.points)


#: hausdorff settles the rows of a larger cloud of at least this many rows by
#: grid cells (see _settle_by_cells).  Per pair of consecutive raw Riemann
#: sums of a constant body (one pinned core of a 2-vCPU Xeon), the cells
#: take 20,349 rows against 1,287 from 8-9 ms to 2.0 ms in 2-D (the nine
#: raw_sets pairs of seeds 7-9) and from 13-28 ms to 5.5-7 ms in 3-D (medians
#: over 4 random bodies), but leave 6,545 rows against 969 in 3-D about
#: even (l2: 4.1 ms, 4.2-5.4 ms with cells).
_TWO_LEVEL_ROWS = 8192

#: About this many evenly spaced larger rows are queried first; the largest
#: of their distances is the lower bound that sizes the cells.  On the nine
#: 2-D pairs it is 0.44-0.96 of the result, and 0.1-2.3% of the larger rows
#: stay unsettled; 64 rows gave 0.35-0.69 and 0.6-6.7%.
_LOWER_SAMPLE = 256

#: Most slots of the cells' array per larger row; a box that would take
#: more gets no cells, and every row queries the tree.
_CELLS_PER_ROW = 4

#: A numpy distance at most _SETTLE times a bound puts the cKDTree distance
#: of the same two rows below that bound.  numpy sums a column's terms in
#: order, as cKDTree does below 8 coordinates, but cKDTree adds l2 squares
#: in four interleaved partial sums from 8 coordinates on (measured up to
#: 24), which moves the sum by a few units in 1e-16.  Below _MIN_LOWER l2
#: squares leave the normal range, where that fails.  Above _MAX_LOWER a
#: distance within the box could pass the float range: along each axis it
#: spans at most _CELLS_PER_ROW cells per larger row, each of side at most
#: the lower bound.  Outside that range the cells are not used.
_SETTLE = 1 - 1e-12
_MIN_LOWER = 1e-140
_MAX_LOWER = 1e100


def hausdorff(a: PointSet, b: PointSet) -> float:
    """max(one_sided_hausdorff(a, b), one_sided_hausdorff(b, a)), bit for bit.

    Below the caps (see _dense) one matrix of the pairs' distances, numpy's
    or cdist's, gives both sides.  Above them, usually one k-d tree does: the tree holds
    the smaller cloud (a on a tie), and the larger cloud's side is the
    largest distance from one of its rows to that tree.  A row whose
    distance is bounded below a distance already found cannot raise it and
    is settled without a query: below _TWO_LEVEL_ROWS larger rows no row is
    settled, and every row queries the tree; above, grid cells settle most
    rows (see _settle_by_cells).  A queried row's nearest smaller row, and
    the smaller row whose distance settled a row, lie within the maximum of
    the larger rows (cKDTree's p = 1, 2 and infinity distances are symmetric
    bit for bit), and so does that smaller row's distance to the larger
    cloud.  So only the other smaller rows can raise the maximum: the cells
    may settle them too, and the rest alone query a tree of the larger
    cloud, built only when some exist.  Consecutive Riemann sums nearly
    nest, and few rows stay open.  A distance past the float range is
    computed again on scaled clouds (see _rescaled).
    """
    _check_same_space(a, b)
    small, large = (b, a) if len(b) < len(a) else (a, b)
    return _rescaled(lambda s, t: _hausdorff_rows(s, t, a.space), small.points, large.points)


def _hausdorff_rows(small: np.ndarray, large: np.ndarray, space: SpaceDescriptor) -> float:
    """hausdorff of two clouds of rows, len(small) <= len(large); inf where
    a distance passes the float range."""
    p = _KDTREE_P[space.norm]
    kernel = _dense(space, len(small) * len(large))
    if kernel is not None:
        terms = kernel(small, large, p)
        worst = max(terms.min(axis=0).max(), terms.min(axis=1).max())
        return math.sqrt(worst) if p == 2 else worst
    tree = cKDTree(small)
    settled = None
    if len(large) >= _TWO_LEVEL_ROWS:
        settled = _settle_by_cells(tree, small, large, p)
    if settled is None:
        dists, nearest = tree.query(large, p=p)
        worst = dists.max()
        if worst == math.inf:
            return worst  # the overflowed rows have no nearest row (index len(small))
        open_rows = np.ones(len(small), dtype=bool)
        open_rows[nearest] = False
    else:
        worst, open_rows = settled
    if open_rows.any():
        worst = max(worst, cKDTree(large).query(small[open_rows], p=p)[0].max())
    return worst


def _settle_by_cells(tree, small: np.ndarray, large: np.ndarray, p: float):
    """The larger cloud's side and the mask of the smaller rows left open, as
    _hausdorff_rows uses them, with exact queries only for the rows the
    cells do not settle; None past _CELLS_PER_ROW slots per larger row.

    The largest distance of _LOWER_SAMPLE evenly spaced larger rows is a
    lower bound, ``lower``, on that side.  The larger rows' bounding box is
    cut into cells of diameter ``lower``, one array slot each.  A cell's
    representative is a smaller row in it, else the smaller row nearest its
    centre.  A larger row whose numpy distance to its representative is
    below ``lower`` by the margin _SETTLE is settled, and only the others
    query the tree.  An open smaller row is settled when a larger row of its
    own cell lies within the maximum by the same margin.  The clouds are
    held as (d, n) columns, whose reductions along a row are contiguous.
    """
    lower = tree.query(large[::max(1, len(large) // _LOWER_SAMPLE)], p=p)[0].max()
    if not _MIN_LOWER < lower < _MAX_LOWER:
        return None
    dim = large.shape[1]
    side = lower / {1.0: dim, 2.0: math.sqrt(dim)}.get(p, 1)
    cols = large.T.copy()
    origin = cols.min(axis=1)[:, None]
    counts = np.floor((cols.max(axis=1) - origin[:, 0]) / side) + 1
    size = counts.prod()
    if not size <= _CELLS_PER_ROW * len(large):  # also where inf
        return None
    strides = np.cumprod([1, *counts[:-1].astype(np.int64)])
    grid = ((cols - origin) / side).astype(np.int64)
    keys = strides @ grid
    with np.errstate(over="ignore"):  # a far smaller row lies outside
        spots = np.floor((small.T - origin) / side)
    inside = np.flatnonzero(((spots >= 0) & (spots < counts[:, None])).all(axis=0))
    inner = strides @ spots[:, inside].astype(np.int64)
    # the slots take the smaller rows inside the box, then the larger rows:
    # a slot still holding a smaller row has no larger row
    slots = np.full(int(size), -1)
    slots[inner] = inside
    reps = slots[keys]
    slots[keys] = np.arange(len(large))
    lonely = np.flatnonzero(reps < 0)
    heads = slots[keys[lonely]]
    first = lonely[heads == lonely]  # one larger row of each such cell
    reps[first] = tree.query((origin + (grid[:, first] + 0.5) * side).T, p=p)[1]
    reps[lonely] = reps[heads]
    near = _column_norms(p, cols - small.T[:, reps]) <= lower * _SETTLE
    dists, nearest = tree.query(large[~near], p=p)
    worst = dists.max(initial=lower)
    open_rows = np.ones(len(small), dtype=bool)
    open_rows[reps[near]] = open_rows[nearest] = False
    # the open smaller rows inside the box, and the larger row of their slot
    still = open_rows[inside]
    rows, cells = inside[still], inner[still]
    mates = slots[cells]
    hit = keys[mates] == cells  # else the slot holds a smaller row
    rows, mates = rows[hit], mates[hit]
    open_rows[rows[_column_norms(p, small.T[:, rows] - cols[:, mates]) <= worst * _SETTLE]] = False
    return worst, open_rows


def _column_norms(p: float, cols: np.ndarray) -> np.ndarray:
    """The p-norm of each column of a (d, n) array, its terms summed in
    order (see _SETTLE)."""
    if p == 2:
        return np.sqrt((cols * cols).sum(axis=0))
    cols = np.abs(cols)
    return cols.sum(axis=0) if p == 1 else cols.max(axis=0)


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
    For the l2 norm one NNLS solve gives the min-norm convex combination,
    certified by its Frank-Wolfe duality gap; for l1/linf the problem reduces
    exactly to a small LP solved by HiGHS, whose dual marginals give the
    lower bound.  Raises SolverFailureError when the solver fails or the
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


def _hull_dist_l2(x: np.ndarray, pts: np.ndarray, tol: float):
    """The distance from x to conv(pts) in l2, from one Lawson-Hanson NNLS
    solve (``scipy.optimize.nnls``), certified by a Frank-Wolfe gap.

    With Q the rows pts - x, divided by unit (see _pow2_unit), the minimum of
    ||Q^T mu||^2 + (1^T mu - 1)^2 over mu >= 0 is attained at s * lam*, where
    lam* is the min-norm convex combination of the rows and s > 0; so
    lam = mu / sum(mu) needs no penalty weight.  From y = lam Q, the gap
    g = y.y - min_i Q_i.y bounds f(y) - f* for f = 1/2 ||.||^2, hence
    value - exact <= 2 g / value; that quotient is the certificate.  Value
    and certificate are scaled back by the same exact factor.
    """
    # Imported here, as linprog is in _hull_dist_lp.
    from scipy.optimize import nnls

    q = pts - x
    unit = _pow2_unit(q)
    q = q / unit
    system = np.vstack([q.T, np.ones(len(q))])
    rhs = np.zeros(len(system))
    rhs[-1] = 1.0
    try:
        mu = nnls(system, rhs, maxiter=_NNLS_ITER_PER_GENERATOR * len(q))[0]
    except RuntimeError as exc:  # nnls's iteration cap
        mu, why = np.zeros(len(q)), f"l2 hull NNLS failed: {exc}"
    else:
        why = "l2 hull NNLS returned no convex combination"
    total = float(mu.sum())
    if not 0 < total < math.inf:
        # no combination to certify: the nearest generator's distance is an
        # upper bound, and 0 the only lower bound
        nearest = unit * math.sqrt(float((q * q).sum(axis=1).min()))
        raise SolverFailureError(why, value=nearest, gap=nearest)
    y = (mu / total) @ q
    norm = float(np.linalg.norm(y))
    gap = float(y @ y - (q @ y).min())
    value = unit * norm
    cert = unit * min(norm, 2.0 * gap / norm) if norm > 0 else 0.0
    if value <= 1e-14 or cert <= tol:
        return max(value, 0.0), max(cert, 0.0)
    raise SolverFailureError("l2 hull certificate exceeds tol", value=value, gap=cert)


def _hull_dist_lp(space: SpaceDescriptor, x: np.ndarray, pts: np.ndarray, tol: float):
    """l1/linf hull distance as an LP over hull coefficients lambda and
    deviation bounds: |(D^T lambda)_j| <= u_j for l1, <= u for linf, where
    the rows of D are the generators minus x, divided by their largest entry
    (HiGHS rejects matrix entries above 1e15 and reads bounds of 1e20 as
    infinite, so the LP must not carry the data's scale).

    The value is the distance to the hull point of the clipped, renormalised
    lambda (an upper bound); the dual marginals give a dual-norm unit vector
    w with w.x - max_i w.a_i <= exact, a lower bound.  Their difference is the
    gap.  Both are computed on the generators minus x divided by one power
    of two (see _pow2_unit), and scaled back by the same exact factor, as in
    _hull_dist_l2: a distance past the float range is inf with a finite
    gap, not a NaN one.  A gap that is not at most tol, NaN included, raises
    SolverFailureError.
    """
    # Imported here: loading scipy.optimize costs about 0.1 s, which every
    # run would otherwise pay at import time.
    from scipy.optimize import linprog

    diff = pts - x
    unit = _pow2_unit(diff)
    diff /= unit
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
    gap = unit * max(value - max(-float(proj.max()), float(proj.min()), 0.0), 0.0)
    value = unit * value
    if not gap <= tol:
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
    The side whose largest nearest distance is larger is visited first (b's
    generators on a tie), so the result, the maximum over all generators, is
    found from the same queries in either argument order.
    """
    if not tol > 0:
        raise InvalidArgumentError("tol must be positive")
    _check_same_space(a, b)

    def side(target: PointSet, queries: PointSet, near: np.ndarray, worst: float) -> float:
        for i in np.argsort(-near):
            if near[i] <= max(worst, DEDUP_TOL):
                break  # sorted: no later generator is farther than worst
            val, _ = dist_point_to_hull(a.space, queries.points[i], target, tol)
            worst = max(worst, min(val, float(near[i])))
        return worst

    sides = [(a, b, _min_dists_to(a.points, b.points, a.space)),
             (b, a, _min_dists_to(b.points, a.points, a.space))]
    if sides[1][2].max() > sides[0][2].max():
        sides.reverse()
    worst = 0.0
    for target, queries, near in sides:
        worst = side(target, queries, near, worst)
    return worst


#: prune takes a cloud of at most this many rows, in at most _DENSE_MAX_DIM
#: coordinates, through one condensed pdist matrix (see _net_by_pdist) in
#: place of a k-d tree.  Per prune call on the raw_sets clouds of seeds 7
#: and 8 (2-vCPU Xeon), tree against pdist: 24 against 28 us at 1-16 rows,
#: 49 against 40 us at 17-64, 78 against 59 at 65-128, 153 against 112 at
#: 129-256 and 261 against 210 at 257-512; pdist tied at 513-768 rows
#: (657 against 668 us) and lost at 769-1,024 (953 against 1,222 us).  The
#: matrix of 512 rows takes 1 MB.
_PDIST_ROWS = 512

#: Clouds of at most this many rows group their pairs by a 16-bit key.
_RADIX_ROWS = 1 << 16


def _net_by_pdist(pts: np.ndarray, delta: float, p: float) -> np.ndarray:
    """Mask of the greedy net's rows, from one condensed matrix of the
    pairs' distances (scipy's ``pdist``, with cKDTree's bits, see
    _cdist_terms) compared with delta, or delta * delta for the squared l2
    distances, as cKDTree compares them.  The matrix lists the pairs i < j
    row by row, so the pairs within delta come grouped by i, and j in
    order, with no tree and no sort: row i's pairs end at entry
    ends_i = (i + 1)(2n - 2 - i) / 2, and entry k of them is the pair
    (i, k - ends_i + n)."""
    from scipy.spatial.distance import pdist  # see cKDTree

    n = len(pts)
    hits = np.flatnonzero(pdist(pts, _PAIR_METRIC[p]) <= (delta * delta if p == 2 else delta))
    rows = np.arange(1, n + 1)
    ends = rows * (2 * n - 1 - rows) // 2
    return _walk_net(n, hits.tolist(), hits.searchsorted(ends).tolist(), (ends - n).tolist())


def _net_by_pairs(tree: cKDTree, delta: float, p: float) -> np.ndarray:
    """Mask of the greedy net's rows, from one enumeration of the pairs
    i < j within delta by the k-d tree, grouped by i into forward neighbour
    lists: the walk of sparse clouds of more than _PDIST_ROWS rows, or in 8
    or more coordinates, where the tree is cheaper than _net_by_pdist's
    matrix of every pair."""
    n = tree.n
    pairs = tree.query_pairs(delta, p=p, output_type="ndarray")
    first = pairs[:, 0]
    # The walk needs only the groups, but numpy's unstable argsort kinds,
    # though about 0.5 ms faster on 16,000 pairs, load about 0.5 MB more of
    # its code into the process.  The stable sort of 16-bit keys is a radix
    # sort, and of int64 keys a timsort; both keep each group's order.
    key = first.astype(np.uint16) if n <= _RADIX_ROWS else first
    later = pairs[key.argsort(kind="stable"), 1].tolist()
    return _walk_net(n, later, np.bincount(first, minlength=n).cumsum().tolist(), [0] * n)


def _walk_net(n: int, keys: list, ends: list, shift: list) -> np.ndarray:
    """Mask of the greedy net's rows, given row i's later neighbours within
    delta as j - shift[i] for j in keys[ends[i - 1]:ends[i]] (from 0 for row
    0).  The walk visits only the rows it keeps: bytearray.find gives the
    next uncovered row, and its later neighbours are marked covered."""
    covered = bytearray(n)
    # a row is covered only by earlier kept rows, so it is final when reached
    i = covered.find(0)
    while i >= 0:
        offset = shift[i]
        for k in keys[ends[i - 1] if i else 0:ends[i]]:
            covered[k - offset] = 1
        i = covered.find(0, i + 1)
    return np.frombuffer(covered, dtype=np.uint8) == 0


def _net_by_balls(tree: cKDTree, delta: float, p: float) -> np.ndarray:
    """Mask of the greedy net's rows, from one delta-ball query per kept row;
    as in _walk_net, bytearray.find gives the next uncovered row."""
    covered = bytearray(tree.n)
    marks = np.frombuffer(covered, dtype=np.uint8)
    kept = np.zeros(tree.n, dtype=bool)
    i = covered.find(0)
    while i >= 0:
        kept[i] = True
        marks[tree.query_ball_point(tree.data[i], delta, p=p)] = 1
        i = covered.find(0, i + 1)
    return kept


#: prune samples the delta-balls of every k-th row in canonical order, with k
#: such that at most _BALL_SAMPLE rows, and at most one row in _BALL_STRIDE,
#: are sampled: a query costs about a microsecond per row, a large share of
#: the pair walk on a cloud of a few hundred points.
_BALL_SAMPLE = 64
_BALL_STRIDE = 16

#: The balls of this many sampled rows are counted first, and the rest only
#: if those do not decide the walk: on a dense cloud a single ball can pass
#: the bound, and counting all of them took nearly as long as the ball walk
#: (20,000 points in linf(3) at delta 0.3).
_BALL_CHUNK = 8

#: Mean delta-ball size (the row included) of the sample above which prune
#: walks ball by ball.  On uniform clouds of 5,000 and 40,000 points in 2-D
#: and 3-D, l1/l2/linf, the ball walk took a median 1.35x the pair walk's
#: time at a mean of 13, 1.24x at 16, 1.09x at 19 and 0.83x at 22; past the
#: crossover the pair list grows with the mean, so the bound stays below it.
_PAIR_WALK_MAX_BALL = 16


def _net_by_tree(pts: np.ndarray, delta: float, p: float) -> np.ndarray:
    """Mask of the greedy net's rows from a k-d tree of the rows: by its
    pairs (_net_by_pairs), or by one ball per kept row (_net_by_balls) where
    the sampled delta-balls hold more than _PAIR_WALK_MAX_BALL rows on
    average."""
    tree = cKDTree(pts)
    walk = _net_by_pairs
    if len(pts) > _PAIR_WALK_MAX_BALL:  # a smaller cloud's balls cannot hold more
        sample = pts[::max(_BALL_STRIDE, math.ceil(len(pts) / _BALL_SAMPLE))]
        budget = _PAIR_WALK_MAX_BALL * len(sample)
        # counts are nonnegative: once a prefix passes the budget, all do;
        # an empty second chunk is not queried (that costs about 12 us)
        for rows in (sample[:_BALL_CHUNK], sample[_BALL_CHUNK:]):
            if not len(rows):
                break
            budget -= tree.query_ball_point(rows, delta, p=p, return_length=True).sum()
            if budget < 0:
                walk = _net_by_balls
                break
    return walk(tree, delta, p)


def prune(a: PointSet, delta: float) -> PrunedSet:
    """Greedy delta-net over the canonical point order.

    Invariant: a point is kept iff it is more than delta away from every
    earlier kept point.  The walk keeps each point not yet covered and marks
    its closed delta-ball as covered, so every dropped point is within delta
    of the result and the Hausdorff error is certified by delta.

    The net is the lexicographically first maximal independent set of the
    graph joining points within delta, found by one of three walks.  A cloud
    of at most _PDIST_ROWS points in at most _DENSE_MAX_DIM coordinates
    takes its pairs within delta from one condensed pdist matrix
    (_net_by_pdist), which lists them grouped by their earlier point.  A
    larger cloud builds a k-d tree: on sparse clouds one enumeration of its
    pairs gives each point's later neighbours (_net_by_pairs); where the
    sampled delta-balls hold more than _PAIR_WALK_MAX_BALL points on
    average, the pair list would outgrow the walk, and each kept point
    queries its own ball instead (_net_by_balls).  All three use the same
    closed ball and cKDTree's distance, and keep the same points.  Each
    visits only the points it keeps: bytearray.find jumps to the next point
    not yet covered, which only earlier kept points could have covered, so
    it is kept.  A delta whose square passes the float range takes the tree.
    cKDTree raises ValueError where the l2 squares of its boxes pass the
    float range, so a cloud that takes the tree with a coordinate past
    SQUARE_SAFE is walked on its rows and delta divided by one power of two,
    which is exact.
    """
    if not 0 <= delta < math.inf:
        raise InvalidArgumentError("delta must be finite and nonnegative")
    if delta == 0 or len(a) == 1:
        return PrunedSet(a, float(delta))
    pts = a.points
    p = _KDTREE_P[a.space.norm]
    if len(pts) <= _PDIST_ROWS and a.space.dim <= _DENSE_MAX_DIM and delta * delta < math.inf:
        # a squared l2 distance past the float range is more than delta * delta
        kept = _net_by_pdist(pts, delta, p)
    else:
        unit = _pow2_unit(pts)
        kept = _net_by_tree(pts / unit, delta / unit, p) if unit > SQUARE_SAFE else _net_by_tree(pts, delta, p)
    # A subsequence of canonical rows is still sorted.  Kept rows are more
    # than delta apart in the norm, so more than delta / dim in some
    # coordinate; twice the margin covers the rounding of either distance.
    rows = pts[kept]
    if delta <= 2 * a.space.dim * DEDUP_TOL:
        rows = _drop_near_duplicates(rows)
    return PrunedSet(PointSet._of_canonical(a.space, rows), float(delta))


def pointset_to_json(a: PointSet) -> dict:
    return {"space": space_to_json(a.space), "points": a.points.tolist()}


def pointset_from_json(obj) -> PointSet:
    if not isinstance(obj, dict) or "space" not in obj or "points" not in obj:
        raise InvalidArgumentError('point set JSON must have "space" and "points"')
    return PointSet(space_from_json(obj["space"]), np.asarray(obj["points"], dtype=float))
