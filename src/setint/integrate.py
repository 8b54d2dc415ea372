"""Riemann sums with a pruning ledger, and limit detection.

A Riemann sum accumulates scaled values left to right with Minkowski addition,
pruning after every step with a fixed delta.  Pruning error is additive under
Minkowski sums (rho_H(A + C, B + C) <= rho_H(A, B)), so the ledger
(number of terms) * delta certifies the distance to the exact sum.  Terms
with equal values are grouped: into one term when F carries hull semantics
(a convex_hull_of body), and in unpruned raw sums into one k-fold Minkowski
power (see riemann_sum).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .partition import (
    CounterexampleL1,
    Multifunction,
    TaggedPartition,
    eval_mf_many,
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
    scale_many,
)

#: Cap on the cardinality of an intermediate sum.
CARDINALITY_CAP = 200_000


def riemann_terms(
    f: Multifunction, t: TaggedPartition, delta_step: float = 0.0
) -> tuple[tuple[float, ...], tuple[int, ...], tuple[PointSet, ...]]:
    """The grouped terms of S(F, T): (weights, counts, values), one entry per
    group, in order of the group's first term (the first half of
    riemann_sum).

    Terms whose values are equal (same canonical bytes) form groups:

    - When F carries hull semantics (a convex_hull_of body), a group is one
      term (w_1 + ... + w_k) * A of count 1, which leaves the hull of the sum
      unchanged (sum w_i conv A = (sum w_i) conv A) but not its points;
      weights add in partition order.
    - Otherwise, without pruning, a group also shares its width w, and its
      k terms add up to the k-fold Minkowski power of w * A.
    - With pruning (``delta_step > 0``) raw terms stay one per interval: a
      group would be materialised unpruned.

    Every tag is evaluated in one pass (partition.eval_mf_many).
    """
    if not 0 <= delta_step < math.inf:
        raise InvalidArgumentError("delta_step must be finite and nonnegative")
    hull = is_hull_semantics(f)
    terms: dict = {}
    for w, val in zip(t.widths.tolist(), eval_mf_many(f, t.tags)):
        if hull:
            key = val.points.tobytes()
        elif delta_step == 0:
            key = (val.points.tobytes(), w)
        else:
            key = len(terms)
        weight, k, _ = terms.get(key, (0.0, 0, val))
        # hull groups add their widths and stay one term; raw groups share one width
        terms[key] = (weight + w, 1, val) if hull else (w, k + 1, val)
    return tuple(zip(*terms.values()))


def _same_terms(a, b) -> bool:
    """Whether two results of riemann_terms give the same sum: equal weights
    (as floats), equal counts, and values equal bit for bit (or the same
    objects)."""
    (wa, ca, va), (wb, cb, vb) = a, b
    return wa == wb and ca == cb and all(
        x is y or x.points.tobytes() == y.points.tobytes() for x, y in zip(va, vb)
    )


def sum_terms(terms, delta_step: float = 0.0) -> PrunedSet:
    """The Minkowski sum of riemann_terms' groups with per-step pruning (the
    second half of riemann_sum).

    Every group is scaled by its weight in one multiply and put in canonical
    form again in one pass (setops.scale_many): scaling can make rows tie or
    merge.  A group of k terms is the k-fold Minkowski power of its scaled
    value (setops.minkowski_power; a hull group has k = 1, its value itself),
    built in one step unless the multisets of k generators outnumber
    CARDINALITY_CAP.  Only the Minkowski steps and pruning run group by
    group.

    The error ledger is (number of terms) * delta_step.
    """
    weights, counts, values = terms
    acc: PointSet | None = None
    for term, k in zip(scale_many(weights, values), counts):
        term = minkowski_power(term, k, CARDINALITY_CAP)
        acc = term if acc is None else minkowski(acc, term)
        if delta_step > 0:
            acc = prune(acc, delta_step).base
        if len(acc) > CARDINALITY_CAP:
            raise ResourceLimitError(
                f"intermediate sum grew to {len(acc)} points (cap {CARDINALITY_CAP}); "
                "use a larger delta_step"
            )
    return PrunedSet(acc, len(weights) * delta_step)


def riemann_sum(f: Multifunction, t: TaggedPartition, delta_step: float = 0.0) -> PrunedSet:
    """S(F, T) = Minkowski sum of |interval| * F(tag) with per-step pruning,
    in two halves: riemann_terms groups the terms (under F's hull semantics
    equal values merge into one term whose weight is the sum of their
    widths, in unpruned raw sums into one k-fold Minkowski power), and
    sum_terms scales and accumulates the groups, pruning after each step with
    ``delta_step``.  integrate calls the halves itself, so that a row whose
    terms repeat the previous row's skips the second.

    The error ledger is (number of terms) * delta_step.
    """
    return sum_terms(riemann_terms(f, t, delta_step), delta_step)


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
) -> ConvergenceReport:
    """Run the schedule and report convergence.

    With a candidate, rows report the distance from each sum to it (hull
    distances when F carries hull semantics) and the verdict is converged when
    the final distance plus the pruning ledger drops below tol.  Without a
    candidate, consecutive sums are compared (Cauchy heuristic: last three
    gaps below tol/2).  For the l1 counterexample family divergence is
    certified through the witness integer program instead of materializing
    the sums (see counterexamples.witness_distance); a witness row whose
    cardinality has too many digits to print raises ResourceLimitError.

    Each row computes its grouped terms (riemann_terms) and compares them
    with the previous row's (_same_terms).  Where they are the same, as for a
    (piecewise) constant hull body whose breaks lie on the grid, the row
    reuses the previous row's sum, and with it its distance: the previous
    distance to the candidate, or 0.0 between two equal consecutive sums.
    Otherwise the terms are accumulated (sum_terms) and the distance
    measured.  The sum phase of a row's timing covers its terms, the
    comparison and any accumulation.
    """
    if not schedule:
        raise InvalidArgumentError("schedule must be nonempty")
    meshes = [t.mesh for t in schedule]
    if any(b >= a for a, b in zip(meshes, meshes[1:])):
        raise InvalidArgumentError("schedule meshes must be strictly decreasing")

    if isinstance(f.body, CounterexampleL1) and candidate is None:
        return _integrate_witness(f, schedule, tol)

    hull = is_hull_semantics(f)
    # checked here, since a row that reuses a sum measures no hull distance
    if hull and not hull_tol > 0:
        raise InvalidArgumentError("hull_tol must be positive")

    def dist(a: PointSet, b: PointSet) -> float:
        return hausdorff_hulls(a, b, hull_tol) if hull else hausdorff(a, b)

    rows = []
    prev = prev_terms = None
    for t in schedule:
        start = time.perf_counter()
        terms = riemann_terms(f, t, delta_step)
        repeat = prev_terms is not None and _same_terms(terms, prev_terms)
        s = prev if repeat else sum_terms(terms, delta_step)
        mid = time.perf_counter()
        if candidate is not None:
            d, err = rows[-1].distance if repeat else dist(s.base, candidate), s.err_bound
        elif prev is None:
            d, err = float("nan"), s.err_bound
        else:
            d, err = 0.0 if repeat else dist(s.base, prev.base), s.err_bound + prev.err_bound
        end = time.perf_counter()
        rows.append(Row(t.mesh, d, err, len(s.base), (mid - start) * 1000.0, (end - mid) * 1000.0))
        prev, prev_terms = s, terms
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
    # local import to avoid a cycle
    from .counterexamples import DIVERGENCE_BOUND, witness_distance

    body: CounterexampleL1 = f.body
    # the most digits an int may have to print; no limit (0) before Python 3.10.7
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
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
        if digits and cardinality >= 10 ** digits:
            raise ResourceLimitError(
                f"the witness row of {len(t)} intervals has a cardinality of more than "
                f"{digits} digits, past Python's limit for integer-to-string conversion"
            )
        rows.append(Row(t.mesh, dist, 0.0, cardinality, distance_ms=ms))
    low = min(r.distance for r in rows)
    if low >= max(tol, DIVERGENCE_BOUND):
        verdict = Verdict("diverged", None, None, low)
    else:
        verdict = Verdict("inconclusive", None, None, low)
    return ConvergenceReport(tuple(rows), verdict)
