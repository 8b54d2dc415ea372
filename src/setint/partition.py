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

from .errors import ConfigError, InvalidArgumentError, ResourceLimitError, schema_faults
from .setops import PointSet, point_sets
from .spaces import SpaceDescriptor, norms, space_from_json, space_to_json

_TEL_TOL = 1e-12

TAG_RULES = ("left", "right", "mid", "random")


@dataclass(frozen=True, eq=False)
class TaggedPartition:
    breakpoints: np.ndarray = field(repr=False)
    tags: np.ndarray = field(repr=False)
    #: Interval lengths, computed once.  On the uniform grid each is the
    #: correctly rounded 1/n: differences of its rounded breakpoints are off
    #: by an ulp, and unequal widths would split equal points of a Riemann sum.
    widths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        tg = np.asarray(self.tags, dtype=float)
        if bp.ndim != 1 or bp.shape[0] < 2:
            raise InvalidArgumentError("need at least two breakpoints")
        if abs(bp[0]) > _TEL_TOL or abs(bp[-1] - 1.0) > _TEL_TOL:
            raise InvalidArgumentError("breakpoints must start at 0 and end at 1")
        lo, hi = bp[:-1], bp[1:]
        # ndarray methods: the np.all / np.any / np.array_equal wrappers cost
        # more than the checks on these short arrays
        if not (hi > lo).all():
            raise InvalidArgumentError("breakpoints must be strictly increasing")
        if tg.shape != lo.shape:
            raise InvalidArgumentError("need exactly one tag per interval")
        if (tg < lo - _TEL_TOL).any() or (tg > hi + _TEL_TOL).any():
            raise InvalidArgumentError("each tag must lie inside its interval")
        n = tg.shape[0]
        widths = np.full(n, 1.0 / n) if (bp == _uniform_breakpoints(n)).all() else hi - lo
        for name, arr in (("breakpoints", bp), ("tags", tg), ("widths", widths)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def mesh(self) -> float:
        return float(self.widths.max())

    def __len__(self):
        return self.tags.shape[0]

    def is_uniform(self) -> bool:
        return bool(np.ptp(self.widths) <= _TEL_TOL)


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


#: Most intervals of one partition, and of all the partitions of a schedule
#: together: 2^24 intervals' breakpoints and tags take 256 MB.  Counts are
#: checked against it before any array is built, because numpy's lazily
#: backed arrays can pass allocation and then exhaust memory.
MAX_INTERVALS = 2**24


def check_interval_count(n: int, what: str = "a partition") -> None:
    """Raise ResourceLimitError when n intervals are above MAX_INTERVALS."""
    if n > MAX_INTERVALS:
        # n itself may have too many digits to print
        raise ResourceLimitError(f"{what} has more than the cap of {MAX_INTERVALS} intervals")


def _uniform_breakpoints(n: int) -> np.ndarray:
    return np.arange(n + 1, dtype=float) / n


def uniform_partition(n: int, tag_rule: str = "mid", seed=None) -> TaggedPartition:
    if n < 1:
        raise InvalidArgumentError("need at least one interval")
    check_interval_count(n)
    bp = _uniform_breakpoints(n)
    return TaggedPartition(bp, _pick_tags(bp[:-1], bp[1:], tag_rule, seed))


def random_partition(n: int, seed=None) -> TaggedPartition:
    """Random breakpoints (sorted uniforms) with random tags; for sampling."""
    if n < 1:
        raise InvalidArgumentError("need at least one interval")
    check_interval_count(n)
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


@dataclass(frozen=True, eq=False)
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


#: Largest truncation dimension N of the l1 counterexample whose N x N
#: generator matrix is built (128 MB).
L1_DIM_CAP = 4096


@dataclass(frozen=True)
class CounterexampleL1:
    """Constant family of the first N l1 basis vectors (see counterexamples):
    partition exponent n (m = 2**(n-1) - 1 equal parts) and truncation
    dimension N >= 2**n - 1, so that the witness fits."""

    n: int
    trunc_dim: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidArgumentError("partition exponent n must be >= 2")
        if self.trunc_dim < self.witness_support:
            raise InvalidArgumentError(
                f"truncation dimension must be >= 2**n - 1 = {self.witness_support} "
                "so the witness fits"
            )

    @property
    def parts(self) -> int:
        return 2 ** (self.n - 1) - 1

    @property
    def witness_support(self) -> int:
        return 2 ** self.n - 1

    def check_dim_cap(self) -> None:
        """Raise ResourceLimitError when N is above L1_DIM_CAP."""
        if self.trunc_dim > L1_DIM_CAP:
            raise ResourceLimitError(
                f"truncation dimension {self.trunc_dim} is above the cap {L1_DIM_CAP} "
                "of the N x N basis matrix"
            )

    def generators(self, space: SpaceDescriptor) -> PointSet:
        """The value's points, the first N basis vectors, in ``space``."""
        self.check_dim_cap()
        return PointSet(space, np.eye(self.trunc_dim))


Body = Constant | PiecewiseConstant | MovingFinite | ConvexHullOf | CounterexampleL1


@dataclass(frozen=True)
class Multifunction:
    space: SpaceDescriptor
    body: Body
    bound_m: float
    diam_bound: float

    def __post_init__(self):
        for key, bound in (("boundM", self.bound_m), ("diamBound", self.diam_bound)):
            if not 0 <= bound < np.inf:  # NaN fails too
                raise InvalidArgumentError(
                    f'declared bound "{key}" must be finite and nonnegative, got {bound}'
                )
        _check_body_space(self.space, self.body)


def _space_name(space: SpaceDescriptor) -> str:
    return f"{space.norm}({space.dim})"


def _check_body_space(space: SpaceDescriptor, body: Body) -> None:
    """Raise InvalidArgumentError unless the body's sets, or its inner map,
    live in ``space``; the l1 counterexample lives in l1 of dimension N."""
    if isinstance(body, CounterexampleL1):
        if space.norm != "l1" or space.dim != body.trunc_dim:
            raise InvalidArgumentError(
                f"a counterexample_l1 body with N = {body.trunc_dim} lives in "
                f"l1({body.trunc_dim}), not in {_space_name(space)}"
            )
        return
    if isinstance(body, Constant):
        kind, spaces = "constant", (body.points.space,)
    elif isinstance(body, PiecewiseConstant):
        kind, spaces = "piecewise_constant", tuple(s.space for s in body.sets)
    elif isinstance(body, ConvexHullOf):
        kind, spaces = "convex_hull_of", (body.inner.space,)
    else:
        return
    for other in spaces:
        if other != space:
            raise InvalidArgumentError(
                f"a {kind} body in {_space_name(other)} does not live in "
                f"the multifunction's space {_space_name(space)}"
            )


def is_hull_semantics(f: Multifunction) -> bool:
    return isinstance(f.body, ConvexHullOf)


def inner_of(f: Multifunction) -> Multifunction:
    """Strip one ConvexHullOf layer (identity otherwise)."""
    if isinstance(f.body, ConvexHullOf):
        return f.body.inner
    return f


def eval_mf(f: Multifunction, t: float) -> PointSet:
    """Value generators at t: the one-tag case of eval_mf_many."""
    return eval_mf_many(f, [t])[0]


def eval_mf_many(f: Multifunction, tags) -> list[PointSet]:
    """Value generators at each tag, one PointSet per tag.  For ConvexHullOf
    the inner generators are returned; hull semantics are applied downstream
    through hull distances.

    A moving body evaluates each curve at every tag in one stacked product
    (see _poly_eval), and the value sets are put in canonical form together
    (setops.point_sets).  Bodies with finitely many values return their
    stored sets, which tags that share a value share."""
    ts = np.asarray(tags, dtype=float).reshape(-1)
    if len(ts) and not (ts.min() >= 0.0 and ts.max() <= 1.0):  # NaN fails both
        bad = ts[~((ts >= 0.0) & (ts <= 1.0))][0]
        raise InvalidArgumentError(f"t must lie in [0, 1], got {float(bad)}")
    while isinstance(f.body, ConvexHullOf):
        f = f.body.inner
    body = f.body
    if isinstance(body, Constant):
        return [body.points] * len(ts)
    if isinstance(body, PiecewiseConstant):
        idx = np.searchsorted(body.breaks, ts, side="right") - 1
        return [body.sets[i] for i in np.maximum(np.minimum(idx, len(body.sets) - 1), 0).tolist()]
    if isinstance(body, MovingFinite):
        vals = np.stack([_poly_eval(c, ts) for c in body.curves], axis=1)
        return point_sets(f.space, vals.reshape(-1, vals.shape[2]), [len(body.curves)] * len(ts))
    if isinstance(body, CounterexampleL1):
        return [body.generators(f.space)] * len(ts)
    raise InvalidArgumentError(f"unknown multifunction body {type(body).__name__}")


def _poly_eval(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The curve at each t of a 1-D array, one row per t.

    Each row is its own vector-matrix product (a stacked matmul of the (1,
    deg+1) power rows), so a value does not depend on which other tags share
    the call.  One (n, deg+1) @ (deg+1, dim) product would round differently
    from the one-tag product for some rows."""
    powers = np.power.outer(ts, np.arange(coeffs.shape[0]))
    return np.matmul(powers[:, None, :], coeffs)[:, 0]


#: Moving bodies are checked at this many values of t.
BOUND_SAMPLES = 100


def validate_bounds(f: Multifunction, seed: int = 0) -> None:
    """Check the declared norm and diameter bounds.

    A violation is a configuration error, embodying boundedness as a
    precondition rather than an inferred property.  Bodies with finitely many
    values (constant, piecewise constant, the l1 counterexample) are checked
    exactly, each value once, at the first t that takes it.  The l1
    counterexample's value, the first N basis vectors of l1(N), has norm 1
    and diameter 2, as any two of them have: two stand for all N.  A moving
    body whose curves are all linear (at most two coefficient rows) is
    checked exactly, at t = 0 and t = 1: the norm of a linear curve, and the
    distance between two of them, are convex in t, so their maxima over
    [0, 1] lie at the ends.  Other moving bodies are checked on
    BOUND_SAMPLES values of t (0, 1 and seeded uniforms).  Either way all
    values are evaluated in one pass, and the first violating t is reported.
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
        ts = np.array([0.0, 1.0])
        if any(len(c) > 2 for c in body.curves):
            ts = np.concatenate((ts, np.random.default_rng(seed).random(BOUND_SAMPLES - 2)))
        values = [(ts, np.stack([_poly_eval(c, ts) for c in body.curves], axis=1))]
    elif isinstance(body, PiecewiseConstant):
        starts = np.clip(body.breaks[:-1], 0.0, 1.0)
        values = [(np.array([t]), s.points[None]) for t, s in zip(starts, body.sets)]
    elif isinstance(body, CounterexampleL1):
        body.check_dim_cap()
        values = [(np.array([0.0]), np.eye(2, body.trunc_dim)[None])]
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
