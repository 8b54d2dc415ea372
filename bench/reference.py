"""Reference results for benchmark jobs, computed without setint.

Each reference gives the expected exit code and, per schedule row, the mesh and
a bracket [lo, hi] that contains the exact row distance:

- hull distances for l1 and linf: one LP per query point, solved by HiGHS
  (scipy `linprog`); hi comes from the rescaled primal point, lo from the dual
  marginals, so the bracket holds whatever HiGHS' tolerances are;
- hull distances for l2: the min-norm point of conv(P - x) from a
  nonnegative least-squares problem (Lawson & Hanson), with the separating
  direction through that point as the lower-bound certificate;
- finite Hausdorff distances: nearest-neighbour queries on `cKDTree`, which is
  exact for p = 1, 2 and infinity.

Sums of constant and piecewise-constant bodies use the identity
sum w_i conv A = (sum w_i) conv A under hull semantics, and enumerate the
multisets of a k-fold sum otherwise.  Moving bodies with pruning replay the
documented greedy delta-net over the canonical (lexicographic) point order, so
both sides prune identical point lists.

`python3 bench/reference.py --workload W` stores the references of the first
STORED_CYCLES cycles of jobs of each seed in STORED_SEEDS in
`bench/refs/W.json`; runs look
references up there by a digest of the job config and compute the missing
ones, and the self-tests recompute a sample of the stored ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from itertools import combinations_with_replacement

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import cKDTree

#: Distances agree with the reference bracket to this absolute tolerance.
ATOL = 1e-9
#: Meshes agree to this relative tolerance.
MESH_RTOL = 1e-12
#: setint's near-duplicate tolerance for canonical point sets.
DEDUP_TOL = 1e-12

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
#: The jobs whose references are stored: these cycles of these seeds.
STORED_SEEDS = range(10)
STORED_CYCLES = 2

_P = {"l1": 1, "l2": 2, "linf": np.inf}


# ---------------------------------------------------------------------------
# Config decoding


def schedule_counts(raw) -> list[int]:
    if isinstance(raw, list):
        return [int(x) for x in raw]
    spec = raw[len("uniform:"):] if raw.startswith("uniform:") else raw
    lo, hi = spec.split("..")
    base, a = (int(x) for x in lo.split("^"))
    b = int(hi.split("^")[1])
    return [base ** e for e in range(a, b + 1)]


def uniform_mid(n: int):
    """Breakpoints j/n (last forced to 1) with midpoint tags, as `setint` builds
    them; returns (widths, tags, mesh)."""
    bp = np.arange(n + 1, dtype=float) / n
    bp[-1] = 1.0
    widths = np.diff(bp)
    return widths, (bp[:-1] + bp[1:]) / 2.0, float(widths.max())


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# Geometry


def canonical(points: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically; a row within DEDUP_TOL of its predecessor
    in every coordinate is dropped."""
    pts = np.asarray(points, dtype=float)
    pts = pts[np.lexsort(pts.T[::-1])]
    if pts.shape[0] > 1:
        close = np.abs(np.diff(pts, axis=0)).max(axis=1) <= DEDUP_TOL
        pts = pts[np.concatenate(([True], ~close))]
    return pts


def greedy_net(points: np.ndarray, delta: float, norm: str) -> np.ndarray:
    """Keep a point iff it is more than delta from every point kept before it."""
    if delta == 0 or points.shape[0] == 1:
        return points
    tree = cKDTree(points)
    covered = np.zeros(points.shape[0], dtype=bool)
    kept = []
    for i in range(points.shape[0]):
        if covered[i]:
            continue
        kept.append(i)
        covered[tree.query_ball_point(points[i], delta, p=_P[norm])] = True
    return points[kept]


def finite_hausdorff(norm: str, a: np.ndarray, b: np.ndarray) -> float:
    p = _P[norm]
    d_ab = cKDTree(a).query(b, p=p)[0].max()
    d_ba = cKDTree(b).query(a, p=p)[0].max()
    return float(max(d_ab, d_ba))


def _norm(norm: str, v: np.ndarray) -> float:
    return float(np.linalg.norm(v, ord=_P[norm]))


def lp_hull_bracket(norm: str, x: np.ndarray, pts: np.ndarray) -> tuple[float, float]:
    """[lo, hi] around the l1 or linf distance from x to conv(pts)."""
    g, d = pts.shape
    dev = np.eye(d) if norm == "l1" else np.ones((d, 1))
    k = dev.shape[1]
    a_ub = np.block([[pts.T, -dev], [-pts.T, -dev]])
    b_ub = np.concatenate([x, -x])
    c = np.concatenate([np.zeros(g), np.ones(k)])
    a_eq = np.concatenate([np.ones(g), np.zeros(k)])[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on a hull LP: {res.message}")
    lam = np.clip(res.x[:g], 0.0, None)
    hi = _norm(norm, x - pts.T @ (lam / lam.sum()))
    # Dual: w = beta - alpha over the two constraint blocks lies in the dual
    # unit ball and certifies w.x - max_i w.p_i <= distance.
    marg = res.ineqlin.marginals
    w = marg[:d] - marg[d:]
    w = np.clip(w, -1.0, 1.0) if norm == "l1" else w / max(1.0, float(np.abs(w).sum()))
    lo = max(float(s * w @ x - (s * pts @ w).max()) for s in (1.0, -1.0))
    return max(lo, 0.0), hi


def l2_hull_bracket(x: np.ndarray, pts: np.ndarray) -> tuple[float, float]:
    """[lo, hi] around the l2 distance from x to conv(pts).

    min_{mu >= 0} ||Q^T mu||^2 + (1^T mu - 1)^2 with Q = pts - x is attained
    at mu = s * lambda where lambda is the min-norm convex combination.
    """
    q = pts - x
    e = np.vstack([q.T, np.ones(q.shape[0])])
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    mu = nnls(e, f, maxiter=50 * e.shape[1])[0]
    y = q.T @ (mu / mu.sum())
    hi = float(np.linalg.norm(y))
    if hi == 0.0:
        return 0.0, 0.0
    lo = float((q @ (y / hi)).min())
    return max(lo, 0.0), hi


def hull_hausdorff(norm: str, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """[lo, hi] around the Hausdorff distance between conv(a) and conv(b).

    The distance to a hull is at most the distance to its nearest generator,
    so queries are taken farthest-first and stop once that bound cannot beat
    the best lower bound found."""
    best_lo = best_hi = 0.0
    for target, queries in ((a, b), (b, a)):
        near = cKDTree(target).query(queries, p=_P[norm])[0]
        for i in np.argsort(-near, kind="stable"):
            if near[i] <= best_lo or near[i] <= DEDUP_TOL:
                break
            if norm == "l2":
                lo, hi = l2_hull_bracket(queries[i], target)
            else:
                lo, hi = lp_hull_bracket(norm, queries[i], target)
            best_lo, best_hi = max(best_lo, lo), max(best_hi, min(hi, near[i]))
    return best_lo, max(best_hi, best_lo)


# ---------------------------------------------------------------------------
# Riemann sums


def _curve_points(curves, t: float) -> np.ndarray:
    # The same expression setint evaluates, so pruned sums see identical bits.
    return np.array([(t ** np.arange(c.shape[0])) @ c for c in curves])


def _moving_sum(curves, n: int, delta: float, norm: str) -> np.ndarray:
    widths, tags, _ = uniform_mid(n)
    acc = None
    for w, t in zip(widths, tags):
        term = canonical(float(w) * canonical(_curve_points(curves, float(t))))
        acc = term if acc is None else canonical(_minkowski(acc, term))
        if delta > 0:
            acc = greedy_net(acc, delta, norm)
    return acc


def _piece_weights(breaks, n: int) -> np.ndarray:
    widths, tags, _ = uniform_mid(n)
    piece = np.clip(np.searchsorted(np.asarray(breaks), tags, side="right") - 1, 0, len(breaks) - 2)
    return np.bincount(piece, weights=widths, minlength=len(breaks) - 1)


def _minkowski(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])


def _hull_generators(body: dict, n: int) -> np.ndarray:
    """Generators of conv S(F, T_n) for constant and piecewise-constant F."""
    if body["kind"] == "constant":
        return np.asarray(body["points"], dtype=float)
    out = None
    for wp, pts in zip(_piece_weights(body["breaks"], n), body["sets"]):
        if wp > 0:
            term = wp * np.asarray(pts, dtype=float)
            out = term if out is None else _minkowski(out, term)
    return out


def _constant_sum(points: np.ndarray, n: int) -> np.ndarray:
    """S(A, T_n) = (1/n) (A + ... + A): one point per multiset of n generators."""
    m = points.shape[0]
    combos = np.array(list(combinations_with_replacement(range(m), n)), dtype=np.intp)
    counts = np.stack([(combos == j).sum(axis=1) for j in range(m)], axis=1)
    return counts @ points / n


def _row_sets(cfg: dict):
    """Yields (n, point set of row n, hull semantics)."""
    mf = cfg["multifunction"]
    hull = mf["body"]["kind"] == "convex_hull_of"
    body = mf["body"]["inner"]["body"] if hull else mf["body"]
    norm = mf["space"]["norm"]
    delta = float(cfg.get("deltaStep", 0.0))
    for n in schedule_counts(cfg["schedule"]):
        if body["kind"] == "moving_finite":
            curves = [np.asarray(c, dtype=float) for c in body["curves"]]
            yield n, _moving_sum(curves, n, delta, norm), hull
        elif hull and delta == 0:
            yield n, _hull_generators(body, n), hull
        elif body["kind"] == "constant" and delta == 0:
            yield n, _constant_sum(np.asarray(body["points"], dtype=float), n), hull
        else:
            raise NotImplementedError(f"no reference for body {body['kind']!r} with deltaStep {delta}")


def compute(cfg: dict) -> dict:
    """Reference {"exit", "rows": [[mesh, lo, hi], ...], "slack"} for one job.

    A Cauchy-mode first row has lo = hi = None (setint prints NaN)."""
    mf = cfg["multifunction"]
    norm = mf["space"]["norm"]
    tol = float(cfg.get("tol", 1e-6))
    delta = float(cfg.get("deltaStep", 0.0))
    candidate = cfg.get("candidate")
    cand = None if candidate is None else np.asarray(candidate, dtype=float)
    rows, prev = [], None
    for n, pts, hull in _row_sets(cfg):
        mesh = uniform_mid(n)[2]
        other = cand if cand is not None else prev
        if other is None:
            rows.append([mesh, None, None])
        elif hull:
            rows.append([mesh, *hull_hausdorff(norm, pts, other)])
        else:
            d = finite_hausdorff(norm, pts, other)
            rows.append([mesh, d, d])
        prev = pts
    mid = [None if r[1] is None else (r[1] + r[2]) / 2 for r in rows]
    if cand is not None:
        n_last = schedule_counts(cfg["schedule"])[-1]
        converged = mid[-1] + n_last * delta < tol
    else:
        gaps = mid[1:][-3:]
        converged = len(gaps) >= 3 and all(g < tol / 2 for g in gaps)
    hull = mf["body"]["kind"] == "convex_hull_of"
    # The l2 oracle returns an upper estimate within its certificate hullTol.
    slack = float(cfg.get("hullTol", 1e-8)) if hull and norm == "l2" else 0.0
    return {"exit": 0 if converged else 3, "rows": rows, "slack": slack}


# ---------------------------------------------------------------------------
# Checking


def check(ref: dict, exit_code: int, output: dict | None) -> str | None:
    """None when the job's exit code and rows match the reference, else the
    first mismatch.  `cardinality` is not compared: it may drop legitimately."""
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, expected {ref['exit']}"
    rows = output["rows"]
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} rows, expected {len(ref['rows'])}"
    for i, (row, (mesh, lo, hi)) in enumerate(zip(rows, ref["rows"])):
        if abs(row["mesh"] - mesh) > MESH_RTOL * mesh:
            return f"row {i}: mesh {row['mesh']!r}, expected {mesh!r}"
        d = row["distance"]
        if lo is None:
            if not math.isnan(d):
                return f"row {i}: distance {d!r}, expected NaN"
        elif not (lo - ATOL <= d <= hi + ref["slack"] + ATOL):
            return f"row {i}: distance {d!r} outside [{lo!r}, {hi!r}]"
    return None


# ---------------------------------------------------------------------------
# Stored references


class References:
    """Stored references for one workload, keyed by config digest, with the
    missing ones computed on demand."""

    def __init__(self, workload: str):
        path = os.path.join(REFS_DIR, f"{workload}.json")
        self.stored = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.stored = json.load(fh)
        self.computed = 0

    def get(self, config_text: str) -> dict:
        key = config_digest(config_text)
        ref = self.stored.get(key)
        if ref is None:
            ref = compute(json.loads(config_text))
            self.computed += 1
        return ref


def main(argv=None) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from jobs import WORKLOADS, cycle_length, generate

    ap = argparse.ArgumentParser(description="store reference results for benchmark jobs")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    args = ap.parse_args(argv)
    table = {}
    for seed in STORED_SEEDS:
        for job in generate(args.workload, seed, STORED_CYCLES * cycle_length(args.workload)):
            table[config_digest(job.config_text())] = compute(job.config)
    os.makedirs(REFS_DIR, exist_ok=True)
    path = os.path.join(REFS_DIR, f"{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(table, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(table)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
