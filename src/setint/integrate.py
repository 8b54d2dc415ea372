"""Riemann sums with a pruning ledger, limit detection, and the pushforward /
convexity experiments.

A Riemann sum accumulates scaled values left to right with Minkowski addition,
pruning after every step with a fixed delta.  Pruning error is additive under
Minkowski sums (rho_H(A + C, B + C) <= rho_H(A, B)), so the ledger
(number of terms) * delta certifies the distance to the exact sum.  Terms
with equal values are grouped: under hull semantics into one term, and in
unpruned raw sums into one k-fold Minkowski power (see riemann_sum).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .partition import (
    CounterexampleL1,
    Multifunction,
    TaggedPartition,
    eval_mf,
    inner_of,
    is_hull_semantics,
)
from .setops import (
    PointSet,
    PrunedSet,
    hausdorff,
    hausdorff_hulls,
    minkowski,
    minkowski_power,
    prune,
    scale,
)

#: Default cap on the cardinality of an intermediate sum.
CARDINALITY_CAP = 200_000


def riemann_sum(
    f: Multifunction,
    t: TaggedPartition,
    delta_step: float = 0.0,
    cap: int = CARDINALITY_CAP,
    transform=None,
    hull: bool = False,
) -> PrunedSet:
    """S(F, T) = Minkowski sum of |interval| * F(tag) with per-step pruning.

    ``transform``, if given, maps each value's point array before scaling
    (used by the pushforward experiment).  Terms whose values are equal (same
    canonical bytes) form groups, in order of their first term:

    - With ``hull``, a group is one term (w_1 + ... + w_k) * A, which leaves
      the hull of the sum unchanged (sum w_i conv A = (sum w_i) conv A) but
      not its points; weights add in partition order.
    - Without ``hull`` and without pruning, a group also shares its width w,
      and its k terms add up to the k-fold Minkowski power of w * A (see
      setops.minkowski_power), the same point set, built in one step unless
      the multisets of k generators outnumber ``cap``.
    - With pruning (``delta_step > 0``) raw terms stay one per interval: a
      group would be materialised unpruned.

    The error ledger is (number of terms) * delta_step.
    """
    if not 0 <= delta_step < math.inf:
        raise InvalidArgumentError("delta_step must be finite and nonnegative")
    terms: dict = {}
    for w, tag in zip(t.widths, t.tags):
        val = eval_mf(f, float(tag))
        if transform is not None:
            val = PointSet(transform[1], val.points @ transform[0].T)
        if hull:
            key = val.points.tobytes()
        elif delta_step == 0:
            key = (val.points.tobytes(), float(w))
        else:
            key = len(terms)
        weight, k, _ = terms.get(key, (0.0, 0, val))
        # hull groups add their widths; raw groups share one width
        terms[key] = (weight + float(w) if hull else float(w), k + 1, val)
    acc: PointSet | None = None
    for weight, k, val in terms.values():
        term = scale(weight, val) if hull else minkowski_power(scale(weight, val), k, cap)
        acc = term if acc is None else minkowski(acc, term)
        if delta_step > 0:
            acc = prune(acc, delta_step).base
        if len(acc) > cap:
            raise ResourceLimitError(
                f"intermediate sum grew to {len(acc)} points (cap {cap}); "
                "use a larger delta_step"
            )
    return PrunedSet(acc, len(terms) * delta_step)


@dataclass(frozen=True)
class Row:
    """One schedule row; times are wall-clock milliseconds of the sum phase
    and of the distance phase."""

    mesh: float
    distance: float
    prune_error: float
    cardinality: int
    sum_ms: float = 0.0
    distance_ms: float = 0.0

    @property
    def ms(self) -> float:
        return self.sum_ms + self.distance_ms


@dataclass(frozen=True)
class Verdict:
    status: str  # converged | diverged | inconclusive
    limit: PrunedSet | None = None
    rate: float | None = None
    evidence: float | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[Row, ...]
    verdict: Verdict

    def to_json(self, timings: bool = False) -> dict:
        rows = [
            {
                "mesh": r.mesh,
                "distance": r.distance,
                "pruneError": r.prune_error,
                "cardinality": r.cardinality,
                **({"ms": r.ms, "sumMs": r.sum_ms, "distanceMs": r.distance_ms}
                   if timings else {}),
            }
            for r in self.rows
        ]
        out = {"rows": rows, "verdict": self.verdict.status}
        if self.verdict.rate is not None:
            out["rateEstimate"] = self.verdict.rate
        if self.verdict.evidence is not None:
            out["evidence"] = self.verdict.evidence
        return out

    def to_csv(self, timings: bool = False) -> str:
        lines = ["mesh,distance,prune_error,cardinality,ms"]
        for r in self.rows:
            ms = repr(r.ms) if timings else "0"
            lines.append(f"{r.mesh!r},{r.distance!r},{r.prune_error!r},{r.cardinality},{ms}")
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self) -> int:
        return {"converged": 0, "diverged": 2, "inconclusive": 3}[self.verdict.status]


def _rate_estimate(meshes, distances) -> float | None:
    m = np.asarray(meshes)
    d = np.asarray(distances)
    mask = (d > 0) & (m > 0)
    if mask.sum() < 2:
        return None
    slope = np.polyfit(np.log(m[mask]), np.log(d[mask]), 1)[0]
    return float(slope)


def integrate(
    f: Multifunction,
    schedule: list[TaggedPartition],
    candidate: PointSet | None = None,
    tol: float = 1e-6,
    delta_step: float = 0.0,
    hull_tol: float = 1e-8,
    cap: int = CARDINALITY_CAP,
) -> ConvergenceReport:
    """Run the schedule and report convergence.

    With a candidate, rows report the distance from each sum to it (hull
    distances when F carries hull semantics) and the verdict is converged when
    the final distance plus the pruning ledger drops below tol.  Without a
    candidate, consecutive sums are compared (Cauchy heuristic: last three
    gaps below tol/2).  For the l1 counterexample family divergence is
    certified through the witness integer program instead of materializing
    the sums (see counterexamples.witness_distance).
    """
    if not schedule:
        raise InvalidArgumentError("schedule must be nonempty")
    meshes = [t.mesh for t in schedule]
    if any(b >= a for a, b in zip(meshes, meshes[1:])):
        raise InvalidArgumentError("schedule meshes must be strictly decreasing")

    if isinstance(f.body, CounterexampleL1) and candidate is None:
        return _integrate_witness(f, schedule, tol)

    hull = is_hull_semantics(f)

    def dist(a: PointSet, b: PointSet) -> float:
        return hausdorff_hulls(a, b, hull_tol) if hull else hausdorff(a, b)

    rows = []
    prev = None
    for t in schedule:
        start = time.perf_counter()
        s = riemann_sum(f, t, delta_step, cap, hull=hull)
        mid = time.perf_counter()
        if candidate is not None:
            d, err = dist(s.base, candidate), s.err_bound
        elif prev is None:
            d, err = float("nan"), s.err_bound
        else:
            d, err = dist(s.base, prev.base), s.err_bound + prev.err_bound
        end = time.perf_counter()
        rows.append(Row(t.mesh, d, err, len(s.base), (mid - start) * 1000.0, (end - mid) * 1000.0))
        prev = s
    if candidate is not None:
        fit = rows
        converged = rows[-1].distance + rows[-1].prune_error < tol
    else:
        fit = rows[1:]
        converged = len(fit) >= 3 and all(r.distance < tol / 2 for r in fit[-3:])
    if converged:
        rate = _rate_estimate([r.mesh for r in fit], [r.distance for r in fit])
        verdict = Verdict("converged", prev, rate)
    else:
        verdict = Verdict("inconclusive", prev)
    return ConvergenceReport(tuple(rows), verdict)


def _integrate_witness(f, schedule, tol) -> ConvergenceReport:
    from .counterexamples import witness_distance  # local import to avoid a cycle

    body: CounterexampleL1 = f.body
    rows = []
    for t in schedule:
        if not t.is_uniform():
            raise InvalidArgumentError(
                "the counterexample witness bound is only available for uniform partitions"
            )
        start = time.perf_counter()
        dist = witness_distance(body.n, body.trunc_dim, len(t))
        ms = (time.perf_counter() - start) * 1000.0
        # Distinct points of the unmaterialized sum of len(t) copies of
        # {e_1..e_N} / len(t): the multisets of len(t) basis vectors.
        cardinality = math.comb(body.trunc_dim + len(t) - 1, len(t))
        rows.append(Row(t.mesh, dist, 0.0, cardinality, distance_ms=ms))
    low = min(r.distance for r in rows)
    if low >= max(tol, 1.0 / 24.0):
        verdict = Verdict("diverged", None, None, low)
    else:
        verdict = Verdict("inconclusive", None, None, low)
    return ConvergenceReport(tuple(rows), verdict)


def convexity_defect(limit: PrunedSet, hull_tol: float = 1e-8) -> tuple[float, float]:
    """(finite-set, hull-based) distance between the limit and its halved
    Minkowski self-average."""
    half = scale(0.5, limit.base)
    avg = minkowski(half, half)
    return hausdorff(limit.base, avg), hausdorff_hulls(limit.base, avg, hull_tol)


def convexity_check(limit: PrunedSet, tol: float = 1e-6) -> float:
    """Finite-set distance rho_H(limit, limit/2 + limit/2).

    The hull-based distance must vanish within 2 * tol for any limit under
    hull semantics; a violation raises.  The finite-set distance tends to 0
    along refinements only when the limit really is (a discretization of) an
    integral.
    """
    finite, hull = convexity_defect(limit, tol)
    if hull > 2 * tol:
        raise InvalidArgumentError(
            f"hull-based convexity defect {hull} exceeds 2 * tol = {2 * tol}"
        )
    return finite


def operator_norm(space_norm: str, p: np.ndarray) -> float:
    """Induced norm of matrix p when domain and codomain share a norm family."""
    p = np.asarray(p, dtype=float)
    if space_norm == "l1":
        return float(np.abs(p).sum(axis=0).max()) if p.size else 0.0
    if space_norm == "linf":
        return float(np.abs(p).sum(axis=1).max()) if p.size else 0.0
    return float(np.linalg.svd(p, compute_uv=False)[0]) if p.size else 0.0


def pushforward_check(
    f: Multifunction,
    p: np.ndarray,
    schedule: list[TaggedPartition],
    tol: float = 1e-6,
    delta_step: float = 0.0,
) -> ConvergenceReport:
    """Compare P(S(F,T)) with S(P o F, T) along the schedule.

    Without pruning the two sets coincide; with pruning they agree within
    (1 + ||P||) times the ledger.
    """
    from .spaces import SpaceDescriptor

    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] != f.space.dim:
        raise InvalidArgumentError(
            f"matrix of shape {p.shape} cannot map from dimension {f.space.dim}"
        )
    target = SpaceDescriptor(p.shape[0], f.space.norm)
    rows = []
    for t in schedule:
        start = time.perf_counter()
        s = riemann_sum(f, t, delta_step)
        mapped = PointSet(target, s.base.points @ p.T)
        s_pf = riemann_sum(f, t, delta_step, transform=(p, target))
        mid = time.perf_counter()
        dist = hausdorff(mapped, s_pf.base)
        end = time.perf_counter()
        budget = s_pf.err_bound + operator_norm(f.space.norm, p) * s.err_bound
        rows.append(Row(t.mesh, dist, budget, len(s_pf.base),
                        (mid - start) * 1000.0, (end - mid) * 1000.0))
    ok = all(r.distance <= r.prune_error + tol for r in rows)
    verdict = Verdict("converged" if ok else "inconclusive", None)
    return ConvergenceReport(tuple(rows), verdict)


def sample_hull_sum(
    f: Multifunction, t: TaggedPartition, n_samples: int, seed: int
) -> np.ndarray:
    """Sample points of S(conv F, T) as sums of per-interval random convex
    combinations of the scaled values; rows are the sampled points."""
    rng = np.random.default_rng(seed)
    values = [eval_mf(inner_of(f), float(tag)).points for tag in t.tags]
    widths = t.widths
    out = np.zeros((n_samples, f.space.dim))
    for w, pts in zip(widths, values):
        lam = rng.dirichlet(np.ones(pts.shape[0]), size=n_samples)
        out += w * (lam @ pts)
    return out


def finite_rank_splitting(
    f: Multifunction,
    rank: int,
    t: TaggedPartition,
    candidate: PointSet,
    hull_tol: float = 1e-8,
    n_samples: int = 64,
    seed: int = 0,
) -> dict:
    """Finite-rank projection experiment.

    Splits the space through the coordinate projection P onto the first
    ``rank`` coordinates and its complement Q and measures four quantities
    against the candidate A: the hull distance of the full sum to A, the raw
    distance of the projected sum to P(A) (A-side sampled), the hull distance
    of the complement parts, and how small Q is on A.  For a genuine integral
    the (sampled) raw two-sided distance between the finite sum and the
    candidate hull stays below four times the largest of the four.
    """
    from .setops import dist_point_to_hull, dist_point_to_set
    from .spaces import SpaceDescriptor, norms

    d = f.space.dim
    if not 0 < rank < d:
        raise InvalidArgumentError("rank must split the space nontrivially")
    p = np.zeros((rank, d))
    p[np.arange(rank), np.arange(rank)] = 1.0
    q = np.zeros((d - rank, d))
    q[np.arange(d - rank), rank + np.arange(d - rank)] = 1.0
    sub_p = SpaceDescriptor(rank, f.space.norm)
    sub_q = SpaceDescriptor(d - rank, f.space.norm)

    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(len(candidate)), size=n_samples)
    sampled = lam @ candidate.points

    s = riemann_sum(f, t).base
    s_p = PointSet(sub_p, s.points @ p.T)
    cand_p = PointSet(sub_p, candidate.points @ p.T)
    eps_full = hausdorff_hulls(s, candidate, hull_tol)
    # raw on the sum side: P(S) is a finite set, P(A) a hull
    eps_p = max(
        max(dist_point_to_hull(sub_p, x, cand_p, hull_tol)[0] for x in s_p.points),
        max(dist_point_to_set(y, s_p) for y in sampled @ p.T),
    )
    eps_q = hausdorff_hulls(
        PointSet(sub_q, s.points @ q.T), PointSet(sub_q, candidate.points @ q.T), hull_tol
    )
    # the rank must capture the candidate: sup over A of ||Qx||, attained at
    # the generators by convexity of the norm
    q_norm = float(norms(sub_q, candidate.points @ q.T).max())
    eps = max(eps_full, eps_p, eps_q, q_norm)

    # Two-sided distance between the finite sum and the candidate hull:
    # sum points against the hull exactly, hull side sampled.
    side_s = max(
        dist_point_to_hull(f.space, x, candidate, hull_tol)[0] for x in s.points
    )
    side_a = max(dist_point_to_set(x, s) for x in sampled)
    return {
        "eps": eps,
        "epsFull": eps_full,
        "epsP": eps_p,
        "epsQ": eps_q,
        "qNorm": q_norm,
        "distance": max(side_s, side_a),
        "bound": 4.0 * eps if eps > 0 else 4.0 * hull_tol,
    }
