"""Job lists for the three `setint integrate` workloads.

A job is one `integrate` config.  Each workload cycles through a fixed table of
shapes (norm, dimension, body size, schedule), so every seed runs the same mix
of work; the seed only draws the coordinates, so no two jobs share inputs.
Job i is a function of (workload, seed, i) alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("hull_const", "hull_moving", "raw_sets")

#: (kind, norm, dim, generators per piece, finest exponent k of 2^1..2^k).
#: Job i has shape i mod len(table), and a run measures whole cycles of its
#: table, so every run executes the same mix.
HULL_CONST = [
    (kind, norm, dim, m, k)
    for kind, dim, m, k in (
        ("constant", 2, 3, 6),
        ("piecewise", 2, 3, 4),
        ("constant", 3, 4, 4),
        ("piecewise", 3, 3, 3),
    )
    for norm in ("l1", "l2", "linf")
]

#: (norm, dim, curves, schedule).  l1 at dim 24 is where the dense simplex
#: reports "LP unbounded" on bounded LPs; 3- and 4-curve shapes run to n = 3
#: because at n = 4 a single pivot-limit failure costs 17-30 s.
HULL_MOVING = [
    ("l1", 6, 3, (1, 2, 3, 4)),
    ("l2", 6, 4, (1, 2, 3, 4)),
    ("linf", 6, 3, (1, 2, 3, 4)),
    ("l1", 16, 2, (1, 2, 3, 4)),
    ("l2", 16, 4, (1, 2, 3, 4)),
    ("linf", 16, 2, (1, 2, 3, 4)),
    ("l1", 24, 2, (1, 2, 3, 4)),
    ("l2", 24, 4, (1, 2, 3, 4)),
    ("linf", 24, 2, (1, 2, 3, 4)),
    ("l1", 24, 3, (1, 2, 3)),
    ("l2", 12, 5, (1, 2, 3, 4)),
    ("linf", 16, 4, (1, 2, 3)),
]

#: ("constant", norm, dim, points, k) runs 2^1..2^k without pruning;
#: ("moving", norm, dim, curves, delta) runs 2,4,8,16 with per-step pruning.
RAW_SETS = [
    (kind, norm, dim, size, extra)
    for kind, dim, size, extra in (
        ("moving", 2, 3, 0.03),
        ("constant", 2, 6, 4),
        ("moving", 3, 3, 0.05),
        ("constant", 3, 4, 5),
        ("moving", 2, 5, 0.05),
    )
    for norm in ("l1", "l2", "linf")
]

MOVING_SCHEDULE = (2, 4, 8, 16)
RAW_RADIUS = 0.8
RAW_SPEED = 0.3
HULL_MOVING_TOL = 1e-3
HULL_TOL = 1e-8
TOL = 1e-6


@dataclass(frozen=True)
class Job:
    index: int
    shape: str
    config: dict

    def config_text(self) -> str:
        return json.dumps(self.config, sort_keys=True)


def _norms(norm: str, pts: np.ndarray) -> np.ndarray:
    if norm == "l1":
        return np.abs(pts).sum(axis=-1)
    if norm == "l2":
        return np.sqrt((pts * pts).sum(axis=-1))
    return np.abs(pts).max(axis=-1)


def _bounds(norm: str, value_sets) -> tuple[float, float]:
    """Declared (boundM, diamBound) covering every given value set.

    The slack keeps the declarations valid when setint computes the same
    norms in another order."""
    bound_m = max(float(_norms(norm, v).max()) for v in value_sets)
    diam = max(float(_norms(norm, v[:, None, :] - v[None, :, :]).max()) for v in value_sets)
    return bound_m * (1 + 1e-9) + 1e-12, diam * (1 + 1e-9) + 1e-12


def _mf(norm: str, dim: int, body: dict, value_sets) -> dict:
    bound_m, diam = _bounds(norm, value_sets)
    return {
        "space": {"dim": dim, "norm": norm},
        "boundM": bound_m,
        "diamBound": diam,
        "body": body,
    }


def _hull(inner: dict) -> dict:
    return {**inner, "body": {"kind": "convex_hull_of", "inner": inner}}


def _dyadic_points(rng, m: int, dim: int) -> np.ndarray:
    """m distinct points on the 1/1024 grid of [-1, 1]^dim: scaling by 2^-j
    and summing stay exact in floating point, and the grid is fine enough that
    sums rarely coincide by accident."""
    while True:
        pts = rng.integers(-1024, 1025, size=(m, dim)) / 1024.0
        if len(np.unique(pts, axis=0)) == m:
            return pts


def _hull_const_job(rng, kind, norm, dim, m, k) -> dict:
    if kind == "constant":
        a = _dyadic_points(rng, m, dim)
        body = {"kind": "constant", "points": a.tolist()}
        values, candidate = [a], a
    else:
        a, b = _dyadic_points(rng, m, dim), _dyadic_points(rng, m, dim)
        body = {"kind": "piecewise_constant", "breaks": [0.0, 0.5, 1.0],
                "sets": [a.tolist(), b.tolist()]}
        # The integral is 1/2 conv A + 1/2 conv B = conv(A/2 + B/2).
        values, candidate = [a, b], (0.5 * a[:, None, :] + 0.5 * b[None, :, :]).reshape(-1, dim)
    return {
        "version": "v1",
        "multifunction": _hull(_mf(norm, dim, body, values)),
        "schedule": f"uniform:2^1..2^{k}",
        "candidate": candidate.tolist(),
        "tol": TOL,
        "hullTol": HULL_TOL,
    }


def _linear_curves(rng, count: int, dim: int) -> list[np.ndarray]:
    """Curves g(t) = c0 + c1 t with coefficient rows (c0, c1)."""
    return [rng.uniform(-1.0, 1.0, size=(2, dim)) for _ in range(count)]


def _polygon_curves(rng, count: int, dim: int) -> list[np.ndarray]:
    """Curves starting at the vertices of a regular polygon of radius
    RAW_RADIUS in a random plane, each moving at RAW_SPEED * RAW_RADIUS in a
    random direction.  Fixing the size keeps the pruned sums, and so the job
    times, about the same from seed to seed."""
    angles = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(count) / count
    plane = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :2]
    start = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ plane.T
    speed = rng.standard_normal((count, dim))
    speed *= RAW_SPEED / np.linalg.norm(speed, axis=1, keepdims=True)
    return [RAW_RADIUS * np.vstack([start[i], speed[i]]) for i in range(count)]


def _curve_values(curves) -> list[np.ndarray]:
    # Linear curves: norms and pairwise distances are convex in t, so their
    # maxima over [0, 1] sit at the endpoints.
    return [np.array([c[0] for c in curves]), np.array([c[0] + c[1] for c in curves])]


def _hull_moving_job(rng, norm, dim, count, schedule) -> dict:
    curves = _linear_curves(rng, count, dim)
    body = {"kind": "moving_finite", "curves": [c.tolist() for c in curves]}
    return {
        "version": "v1",
        "multifunction": _hull(_mf(norm, dim, body, _curve_values(curves))),
        "schedule": list(schedule),
        "tol": HULL_MOVING_TOL,
        "hullTol": HULL_TOL,
    }


def _raw_job(rng, kind, norm, dim, size, extra) -> dict:
    if kind == "constant":
        a = rng.uniform(-1.0, 1.0, size=(size, dim))
        body = {"kind": "constant", "points": a.tolist()}
        return {
            "version": "v1",
            "multifunction": _mf(norm, dim, body, [a]),
            "schedule": f"uniform:2^1..2^{extra}",
            "tol": TOL,
        }
    curves = _polygon_curves(rng, size, dim)
    body = {"kind": "moving_finite", "curves": [c.tolist() for c in curves]}
    return {
        "version": "v1",
        "multifunction": _mf(norm, dim, body, _curve_values(curves)),
        "schedule": list(MOVING_SCHEDULE),
        "deltaStep": extra,
        "tol": TOL,
    }


def _table(workload: str):
    if workload == "hull_const":
        return HULL_CONST, _hull_const_job
    if workload == "hull_moving":
        return HULL_MOVING, _hull_moving_job
    if workload == "raw_sets":
        return RAW_SETS, _raw_job
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def cycle_length(workload: str) -> int:
    return len(_table(workload)[0])


def make_job(workload: str, seed: int, index: int) -> Job:
    """Job `index` of the workload's endless list for this seed: shape
    index mod cycle length, coordinates from the stream (seed, index + 1).
    Index -1 is the untimed warm-up job."""
    table, make = _table(workload)
    shape = table[index % len(table)]
    rng = np.random.default_rng([seed, index + 1])
    name = "/".join("-".join(map(str, x)) if isinstance(x, tuple) else str(x) for x in shape)
    return Job(index, name, make(rng, *shape))


def generate(workload: str, seed: int, count: int) -> list[Job]:
    return [make_job(workload, seed, i) for i in range(count)]
