"""Sign balancing, infratype constant estimation, and constructive point
selection from convex hulls.

The exact balancer enumerates sign patterns (first sign fixed to +1); the
greedy balancer and the greedy selector provide cheap upper bounds.  In the
Euclidean case the greedy selector satisfies the dimension-free bound
deviation <= sqrt(sum d_i^2): at every step some admissible point has
nonpositive inner product against the running deviation, because the hull
weights of the target average those inner products to <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .partition import Multifunction, TaggedPartition, eval_mf_many, inner_of
from .setops import PointSet, dist_point_to_hull
from .spaces import SpaceDescriptor, check_infratype_exponent, norm, norms

#: Enumeration caps (sub-minute desk-scale runs).
MAX_EXACT_VECTORS = 24
MAX_SELECTION_COMBOS = 1_000_000

_ENUM_CHUNK = 1 << 16

#: Tolerance of the check that each selection target lies in its set's hull.
SELECTION_HULL_TOL = 1e-9


def _as_matrix(xs, space: SpaceDescriptor) -> np.ndarray:
    m = np.asarray(xs, dtype=float)
    if m.ndim != 2 or m.shape[1] != space.dim:
        raise InvalidArgumentError(
            f"vector family of shape {m.shape} does not match dimension {space.dim}"
        )
    if not np.isfinite(m).all():
        raise InvalidArgumentError("vector entries must be finite")
    return m


def sign_balance_exact(xs, space: SpaceDescriptor):
    """Globally minimal ||sum +-x_i|| over sign patterns.

    Enumerates 2**(n-1) patterns with the first sign fixed (global negation
    leaves the norm unchanged).  Returns (signs, value).
    """
    m = _as_matrix(xs, space)
    n = m.shape[0]
    if n > MAX_EXACT_VECTORS:
        raise ResourceLimitError(
            f"{n} vectors exceed the exact enumeration cap {MAX_EXACT_VECTORS}; "
            "use sign_balance_greedy (--mode greedy)"
        )
    if n == 0:
        raise InvalidArgumentError("need at least one vector")
    total = 1 << (n - 1)
    best_val = np.inf
    best_pattern = 0
    free = np.arange(n - 1, dtype=np.int64)
    for lo in range(0, total, _ENUM_CHUNK):
        codes = np.arange(lo, min(lo + _ENUM_CHUNK, total), dtype=np.int64)
        bits = (codes[:, None] >> free[None, :]) & 1
        signs = np.empty((codes.shape[0], n))
        signs[:, 0] = 1.0
        signs[:, 1:] = 1.0 - 2.0 * bits
        sums = signs @ m
        vals = norms(space, sums)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_pattern = int(codes[i])
    signs = np.ones(n)
    for j in range(n - 1):
        if (best_pattern >> j) & 1:
            signs[j + 1] = -1.0
    return signs, best_val


def sign_balance_greedy(xs, space: SpaceDescriptor):
    """Sort by norm descending, then pick each sign to minimize the running
    partial-sum norm.  The value upper-bounds the exact minimum."""
    m = _as_matrix(xs, space)
    order = np.argsort(-norms(space, m), kind="stable")
    signs = np.zeros(m.shape[0])
    run = np.zeros(space.dim)
    for i in order:
        plus = norm(space, run + m[i])
        minus = norm(space, run - m[i])
        s = 1.0 if plus <= minus else -1.0
        signs[i] = s
        run = run + s * m[i]
    return signs, norm(space, run)


def infratype_ratio(xs, p: float, space: SpaceDescriptor) -> float:
    """exact-min-norm / (sum ||x_i||**p)**(1/p); a lower-bound witness for the
    best constant at exponent p."""
    m = _as_matrix(xs, space)
    ns = norms(space, m)
    if np.any(ns == 0):
        raise InvalidArgumentError("zero vectors are excluded from ratio samples")
    _, value = sign_balance_exact(m, space)
    denom = float((ns ** p).sum() ** (1.0 / p))
    return value / denom


def estimate_infratype_constant(
    space: SpaceDescriptor, p: float, trials: int, n_max: int, seed: int
) -> float:
    """Max infratype ratio over seeded random families: a certified lower
    bound on the best constant for (space, p), 1 < p <= 2.

    Stream order: the standard basis family first (the canonical witness),
    then ``trials`` Gaussian families of size drawn from [2, n_max].  The
    basis family has ``space.dim`` vectors, so a dimension above
    MAX_EXACT_VECTORS raises ResourceLimitError before any trial.
    """
    check_infratype_exponent(p)
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    if not 2 <= n_max <= MAX_EXACT_VECTORS:
        raise InvalidArgumentError(f"n_max must lie in [2, {MAX_EXACT_VECTORS}]")
    if space.dim > MAX_EXACT_VECTORS:
        raise ResourceLimitError(
            f"dimension {space.dim} exceeds the cap {MAX_EXACT_VECTORS}: the standard "
            "basis family is balanced exactly, one vector per dimension"
        )
    rng = np.random.default_rng(seed)
    best = infratype_ratio(np.eye(space.dim), p, space)
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        m = rng.standard_normal((n, space.dim))
        m = m[norms(space, m) > 0]
        if m.shape[0] == 0:
            continue
        best = max(best, infratype_ratio(m, p, space))
    return best


# ---------------------------------------------------------------------------
# Point selection (pick a_i in A_i close in sum to targets b_i in conv A_i)


@dataclass(frozen=True, eq=False)
class SelectionProblem:
    sets: tuple[PointSet, ...]
    targets: np.ndarray = field(repr=False)

    def __post_init__(self):
        targets = np.asarray(self.targets, dtype=float)
        if len(self.sets) == 0 or targets.shape[0] != len(self.sets):
            raise InvalidArgumentError("need one target per set")
        space = self.sets[0].space
        for s in self.sets:
            if s.space != space:
                raise InvalidArgumentError("all sets must share one space")
        for s, b in zip(self.sets, targets):
            val, gap = dist_point_to_hull(space, b, s, SELECTION_HULL_TOL)
            if val - gap > SELECTION_HULL_TOL:
                raise InvalidArgumentError(
                    f"target {b} is not certified inside its hull (distance {val})"
                )
        targets.setflags(write=False)
        object.__setattr__(self, "targets", targets)

    @property
    def space(self) -> SpaceDescriptor:
        return self.sets[0].space

    def diameters(self) -> np.ndarray:
        return np.array([s.diameter() for s in self.sets])


def select_points(prob: SelectionProblem, mode: str = "greedy"):
    """Choose a_i in A_i; returns (points, deviation norm of sum(a_i - b_i)).

    greedy: at step i pick a_i minimizing the running deviation norm.
    exhaustive: certified minimum over all combinations (product of set sizes
    capped at 10**6).
    """
    space = prob.space
    if mode == "greedy":
        run = np.zeros(space.dim)
        chosen = []
        for s, b in zip(prob.sets, prob.targets):
            cand = s.points - b + run
            vals = norms(space, cand)
            i = int(np.argmin(vals))
            chosen.append(s.points[i])
            run = cand[i]
        return np.asarray(chosen), norm(space, run)
    if mode == "exhaustive":
        combos = 1
        for s in prob.sets:
            combos *= len(s)
            if combos > MAX_SELECTION_COMBOS:
                raise ResourceLimitError(
                    f"selection space exceeds {MAX_SELECTION_COMBOS} combinations"
                )
        partial = prob.sets[0].points - prob.targets[0]
        index_shapes = [len(prob.sets[0])]
        for s, b in zip(prob.sets[1:], prob.targets[1:]):
            step = s.points - b
            partial = (partial[:, None, :] + step[None, :, :]).reshape(-1, space.dim)
            index_shapes.append(len(s))
        vals = norms(space, partial)
        best = int(np.argmin(vals))
        idx = np.unravel_index(best, index_shapes)
        points = np.asarray([s.points[i] for s, i in zip(prob.sets, idx)])
        return points, float(vals[best])
    raise InvalidArgumentError(f"mode must be greedy or exhaustive, got {mode!r}")


def power_sum_check(ds, p: float):
    """(sum d_i**p, (max d_i)**(p-1)) for positive d_i summing to 1; the first
    never exceeds the second when p > 1."""
    ds = np.asarray(ds, dtype=float)
    if np.any(ds <= 0):
        raise InvalidArgumentError("weights must be positive")
    if abs(ds.sum() - 1.0) > 1e-12:
        raise InvalidArgumentError(f"weights must sum to 1, got {ds.sum()}")
    if p <= 1:
        raise InvalidArgumentError("p must exceed 1")
    return float((ds ** p).sum()), float(ds.max() ** (p - 1.0))


def hull_sum_onesided_greedy(
    f: Multifunction, t: TaggedPartition, n_samples: int, seed: int
):
    """Sampled one-sided distance from the Riemann sum to its hull sum.

    Draws points b of S(conv F, T) as sums of per-interval random convex
    combinations and runs the greedy selector to find a nearby point of
    S(F, T) without materializing it.  Returns (max distance over samples,
    measured M = max sampled value diameter).  The quantitative convergence
    bound says this never exceeds C1 * M * mesh**((p-1)/p)."""
    rng = np.random.default_rng(seed)
    g = inner_of(f)
    values = [val.points for val in eval_mf_many(g, t.tags)]
    widths = t.widths
    space = f.space
    measured_m = 0.0
    scaled = []
    for w, pts in zip(widths, values):
        if pts.shape[0] > 1:
            diffs = pts[:, None, :] - pts[None, :, :]
            dm = norms(space, diffs.reshape(-1, space.dim)).max()
            measured_m = max(measured_m, float(dm))
        scaled.append(w * pts)
    worst = 0.0
    for _ in range(n_samples):
        run = np.zeros(space.dim)
        for pts in scaled:
            lam = rng.dirichlet(np.ones(pts.shape[0]))
            b = lam @ pts
            cand = pts - b + run
            run = cand[int(np.argmin(norms(space, cand)))]
        worst = max(worst, norm(space, run))
    return worst, measured_m
