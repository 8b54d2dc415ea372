"""Tagged partitions of [0,1] and the closed multifunction DSL.

The DSL is a closed enumeration (constant, piecewise constant, moving finite
sets given by polynomial curves, convex hull of an inner map, and the l1
counterexample family) so that experiment configurations are serializable and
reproducible.  Declared norm and diameter bounds are trusted and verified by
sampling, not inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidArgumentError, schema_faults
from .setops import PointSet
from .spaces import SpaceDescriptor, norms, space_from_json, space_to_json

_TEL_TOL = 1e-12

TAG_RULES = ("left", "right", "mid", "random")


@dataclass(frozen=True)
class TaggedPartition:
    breakpoints: np.ndarray = field(repr=False)
    tags: np.ndarray = field(repr=False)
    #: Interval lengths, computed once.  On the uniform grid each is the
    #: correctly rounded 1/n: differences of its rounded breakpoints are off
    #: by an ulp, and unequal widths would split equal points of a Riemann sum.
    widths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        tg = np.asarray(self.tags, dtype=float)
        if bp.ndim != 1 or bp.shape[0] < 2:
            raise InvalidArgumentError("need at least two breakpoints")
        if abs(bp[0]) > _TEL_TOL or abs(bp[-1] - 1.0) > _TEL_TOL:
            raise InvalidArgumentError("breakpoints must start at 0 and end at 1")
        if not np.all(np.diff(bp) > 0):
            raise InvalidArgumentError("breakpoints must be strictly increasing")
        if tg.shape != (bp.shape[0] - 1,):
            raise InvalidArgumentError("need exactly one tag per interval")
        if np.any(tg < bp[:-1] - _TEL_TOL) or np.any(tg > bp[1:] + _TEL_TOL):
            raise InvalidArgumentError("each tag must lie inside its interval")
        n = tg.shape[0]
        widths = np.full(n, 1.0 / n) if np.array_equal(bp, _uniform_breakpoints(n)) else np.diff(bp)
        for name, arr in (("breakpoints", bp), ("tags", tg), ("widths", widths)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def mesh(self) -> float:
        return float(self.widths.max())

    def __len__(self):
        return self.tags.shape[0]

    def is_uniform(self, tol: float = _TEL_TOL) -> bool:
        w = self.widths
        return bool(np.ptp(w) <= tol)


def _pick_tags(lo: np.ndarray, hi: np.ndarray, tag_rule: str, seed=None) -> np.ndarray:
    if tag_rule == "left":
        return lo.copy()
    if tag_rule == "right":
        return hi.copy()
    if tag_rule == "mid":
        return (lo + hi) / 2.0
    if tag_rule == "random":
        rng = np.random.default_rng(seed)
        return lo + rng.random(lo.shape[0]) * (hi - lo)
    raise InvalidArgumentError(f"tag rule must be one of {TAG_RULES}, got {tag_rule!r}")


def _uniform_breakpoints(n: int) -> np.ndarray:
    return np.arange(n + 1, dtype=float) / n


def uniform_partition(n: int, tag_rule: str = "mid", seed=None) -> TaggedPartition:
    if n < 1:
        raise InvalidArgumentError("need at least one interval")
    bp = _uniform_breakpoints(n)
    return TaggedPartition(bp, _pick_tags(bp[:-1], bp[1:], tag_rule, seed))


def random_partition(n: int, seed=None) -> TaggedPartition:
    """Random breakpoints (sorted uniforms) with random tags; for sampling."""
    rng = np.random.default_rng(seed)
    inner = np.sort(rng.random(n - 1)) if n > 1 else np.empty(0)
    bp = np.concatenate(([0.0], inner, [1.0]))
    # Regenerate on (vanishingly unlikely) degenerate gaps.
    while np.any(np.diff(bp) <= 0):
        inner = np.sort(rng.random(n - 1))
        bp = np.concatenate(([0.0], inner, [1.0]))
    tags = bp[:-1] + rng.random(n) * np.diff(bp)
    return TaggedPartition(bp, tags)


def halve_with_tags(breakpoints, tag_rule: str = "random", seed=None):
    """Split every interval in two and tag both halves.

    Returns (fine, t_a, t_b): ``fine`` is the halved partition; ``t_a`` and
    ``t_b`` tag the *original* intervals with the tag of the first and second
    half respectively.  By construction S(F, fine) is the Minkowski average
    of S(F, t_a) and S(F, t_b).
    """
    bp = np.asarray(getattr(breakpoints, "breakpoints", breakpoints), dtype=float)
    lo, hi = bp[:-1], bp[1:]
    mid = lo / 2.0 + hi / 2.0
    tags_a = _pick_tags(lo, mid, tag_rule, seed)
    tags_b = _pick_tags(mid, hi, tag_rule, None if seed is None else seed + 1)
    fine_bp = np.empty(2 * lo.shape[0] + 1)
    fine_bp[0::2] = bp
    fine_bp[1::2] = mid
    fine_tags = np.empty(2 * lo.shape[0])
    fine_tags[0::2] = tags_a
    fine_tags[1::2] = tags_b
    return (
        TaggedPartition(fine_bp, fine_tags),
        TaggedPartition(bp, tags_a),
        TaggedPartition(bp, tags_b),
    )


# ---------------------------------------------------------------------------
# Multifunction DSL


@dataclass(frozen=True)
class Constant:
    points: PointSet


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-open intervals [x_{i-1}, x_i); the last interval is closed."""

    breaks: tuple[float, ...]
    sets: tuple[PointSet, ...]

    def __post_init__(self):
        bp = np.asarray(self.breaks, dtype=float)
        if bp.shape[0] != len(self.sets) + 1:
            raise InvalidArgumentError("need one more breakpoint than pieces")
        if abs(bp[0]) > _TEL_TOL or abs(bp[-1] - 1.0) > _TEL_TOL or not np.all(np.diff(bp) > 0):
            raise InvalidArgumentError("piece breakpoints must increase from 0 to 1")
        object.__setattr__(self, "breaks", tuple(float(x) for x in bp))
        object.__setattr__(self, "sets", tuple(self.sets))


@dataclass(frozen=True)
class MovingFinite:
    """k point curves, each a polynomial with coefficient rows (deg+1, dim):
    g(t) = sum_j coeffs[j] * t**j."""

    curves: tuple[np.ndarray, ...]

    def __post_init__(self):
        curves = tuple(np.asarray(c, dtype=float) for c in self.curves)
        if not curves:
            raise InvalidArgumentError("need at least one curve")
        for c in curves:
            if c.ndim != 2:
                raise InvalidArgumentError("each curve is a (deg+1, dim) coefficient array")
            c.setflags(write=False)
        object.__setattr__(self, "curves", curves)


@dataclass(frozen=True)
class ConvexHullOf:
    inner: "Multifunction"


@dataclass(frozen=True)
class CounterexampleL1:
    """Constant family of the first N l1 basis vectors (see counterexamples)."""

    n: int
    trunc_dim: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidArgumentError("partition exponent n must be >= 2")
        if self.trunc_dim < 2 ** self.n - 1:
            raise InvalidArgumentError(
                f"truncation dimension must be >= 2**n - 1 = {2 ** self.n - 1} "
                "so the witness fits"
            )


Body = Constant | PiecewiseConstant | MovingFinite | ConvexHullOf | CounterexampleL1


@dataclass(frozen=True)
class Multifunction:
    space: SpaceDescriptor
    body: Body
    bound_m: float
    diam_bound: float

    def __post_init__(self):
        if self.bound_m < 0 or self.diam_bound < 0:
            raise InvalidArgumentError("declared bounds must be nonnegative")


def is_hull_semantics(f: Multifunction) -> bool:
    return isinstance(f.body, ConvexHullOf)


def inner_of(f: Multifunction) -> Multifunction:
    """Strip one ConvexHullOf layer (identity otherwise)."""
    if isinstance(f.body, ConvexHullOf):
        return f.body.inner
    return f


def eval_mf(f: Multifunction, t: float) -> PointSet:
    """Value generators at t.  For ConvexHullOf the inner generators are
    returned; hull semantics are applied downstream through hull distances."""
    if not 0.0 <= t <= 1.0:
        raise InvalidArgumentError(f"t must lie in [0, 1], got {t}")
    body = f.body
    if isinstance(body, Constant):
        return body.points
    if isinstance(body, PiecewiseConstant):
        idx = int(np.searchsorted(np.asarray(body.breaks), t, side="right")) - 1
        idx = min(max(idx, 0), len(body.sets) - 1)
        return body.sets[idx]
    if isinstance(body, MovingFinite):
        pts = np.array([_poly_eval(c, t) for c in body.curves])
        return PointSet(f.space, pts)
    if isinstance(body, ConvexHullOf):
        return eval_mf(body.inner, t)
    if isinstance(body, CounterexampleL1):
        return PointSet(f.space, np.eye(body.trunc_dim))
    raise InvalidArgumentError(f"unknown multifunction body {type(body).__name__}")


def _poly_eval(coeffs: np.ndarray, t) -> np.ndarray:
    """The curve at t, or one row per entry when t is an array."""
    powers = np.power.outer(t, np.arange(coeffs.shape[0]))
    return powers @ coeffs


def validate_bounds(f: Multifunction, samples: int = 1000, seed: int = 0) -> None:
    """Check the declared norm and diameter bounds.

    A violation is a configuration error, embodying boundedness as a
    precondition rather than an inferred property.  Bodies with finitely many
    values (constant, piecewise constant, the l1 counterexample) are checked
    exactly, each value once, at the first t that takes it.  Moving bodies
    are checked on ``samples`` values of t (0, 1 and seeded uniforms), all
    evaluated in one pass; the first violating sample is reported.
    """
    body = f.body
    while isinstance(body, ConvexHullOf):
        body = body.inner.body
    if isinstance(body, MovingFinite):
        for c in body.curves:
            if c.shape[1] != f.space.dim:
                raise InvalidArgumentError(
                    f"curve of dimension {c.shape[1]} does not match space dimension {f.space.dim}"
                )
        rng = np.random.default_rng(seed)
        ts = np.concatenate(([0.0, 1.0], rng.random(max(samples - 2, 0))))
        values = [(ts, np.stack([_poly_eval(c, ts) for c in body.curves], axis=1))]
    elif isinstance(body, PiecewiseConstant):
        starts = np.clip(body.breaks[:-1], 0.0, 1.0)
        values = [(np.array([t]), s.points[None]) for t, s in zip(starts, body.sets)]
    else:
        values = [(np.array([0.0]), eval_mf(f, 0.0).points[None])]
    for ts, vals in values:
        _check_bounds(f, ts, vals)


def _check_bounds(f: Multifunction, ts: np.ndarray, vals: np.ndarray) -> None:
    """Raise for the first t whose value set (a row of vals, shape
    (len(ts), points, dim)) is not finite or breaks a declared bound."""
    tol = 1e-9
    n, k, dim = vals.shape
    finite = np.isfinite(vals).all(axis=(1, 2))
    vals = np.where(finite[:, None, None], vals, 0.0)
    # a norm or distance that overflows to inf is a violation, not a fault
    with np.errstate(over="ignore"):
        too_far = norms(f.space, vals.reshape(-1, dim)).reshape(n, k).max(axis=1) > f.bound_m + tol
        diam = np.zeros(n)
        for i in range(k - 1):
            gaps = norms(f.space, (vals[:, i + 1:] - vals[:, i:i + 1]).reshape(-1, dim))
            diam = np.maximum(diam, gaps.reshape(n, -1).max(axis=1))
    too_wide = diam > f.diam_bound + tol
    bad = ~finite | too_far | too_wide
    if not bad.any():
        return
    i = int(np.argmax(bad))
    t = ts[i]
    if not finite[i]:
        raise InvalidArgumentError("point coordinates must be finite")
    if too_far[i]:
        raise ConfigError(f"declared norm bound {f.bound_m} violated at t={t}")
    raise ConfigError(f"declared diameter bound {f.diam_bound} violated at t={t}")


# ---------------------------------------------------------------------------
# JSON schema ("kind" discriminator)


def mf_to_json(f: Multifunction) -> dict:
    return {
        "space": space_to_json(f.space),
        "boundM": f.bound_m,
        "diamBound": f.diam_bound,
        "body": _body_to_json(f.body),
    }


def _body_to_json(body: Body) -> dict:
    if isinstance(body, Constant):
        return {"kind": "constant", "points": body.points.points.tolist()}
    if isinstance(body, PiecewiseConstant):
        return {
            "kind": "piecewise_constant",
            "breaks": list(body.breaks),
            "sets": [s.points.tolist() for s in body.sets],
        }
    if isinstance(body, MovingFinite):
        return {"kind": "moving_finite", "curves": [c.tolist() for c in body.curves]}
    if isinstance(body, ConvexHullOf):
        return {"kind": "convex_hull_of", "inner": mf_to_json(body.inner)}
    if isinstance(body, CounterexampleL1):
        return {"kind": "counterexample_l1", "n": body.n, "N": body.trunc_dim}
    raise InvalidArgumentError(f"unknown body {type(body).__name__}")


def mf_from_json(obj) -> Multifunction:
    if not isinstance(obj, dict):
        raise InvalidArgumentError("multifunction JSON must be an object")
    with schema_faults("multifunction JSON"):
        space = space_from_json(obj["space"])
        body = _body_from_json(space, obj["body"])
        return Multifunction(space, body, float(obj["boundM"]), float(obj["diamBound"]))


def _body_from_json(space: SpaceDescriptor, obj) -> Body:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidArgumentError('multifunction body must be an object with a "kind"')
    kind = obj["kind"]
    if kind == "constant":
        return Constant(PointSet(space, np.asarray(obj["points"], dtype=float)))
    if kind == "piecewise_constant":
        sets = tuple(PointSet(space, np.asarray(p, dtype=float)) for p in obj["sets"])
        return PiecewiseConstant(tuple(obj["breaks"]), sets)
    if kind == "moving_finite":
        return MovingFinite(tuple(np.asarray(c, dtype=float) for c in obj["curves"]))
    if kind == "convex_hull_of":
        return ConvexHullOf(mf_from_json(obj["inner"]))
    if kind == "counterexample_l1":
        return CounterexampleL1(int(obj["n"]), int(obj["N"]))
    raise InvalidArgumentError(f"unknown multifunction kind {kind!r}")
