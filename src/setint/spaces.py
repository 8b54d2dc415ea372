"""Finite-dimensional normed spaces and their declared balancing parameters.

A space is its dimension and a norm family (l1, l2 or linf).  A JSON space
object may also declare an infratype (p, C), trusted and not part of the
space, that the balance and select commands read with infratype_from_json:
the promise that for every finite family of vectors the minimum over sign
patterns of the norm of the signed sum is at most C * (sum ||x_i||**p)**(1/p).
The balance module estimates lower bounds for the best constant empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

NORM_FAMILIES = ("l1", "l2", "linf")


@dataclass(frozen=True)
class SpaceDescriptor:
    dim: int
    norm: str = "l2"

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise InvalidArgumentError(f"dim must be a positive integer, got {self.dim!r}")
        if self.norm not in NORM_FAMILIES:
            raise InvalidArgumentError(f"norm must be one of {NORM_FAMILIES}, got {self.norm!r}")
        object.__setattr__(self, "dim", int(self.dim))


def check_infratype_exponent(p: float) -> None:
    """Raise InvalidArgumentError unless 1 < p <= 2 (NaN fails too)."""
    if not 1.0 < p <= 2.0:
        raise InvalidArgumentError(f"infratype exponent must lie in (1, 2], got {p}")


def as_vector(space: SpaceDescriptor, coords) -> np.ndarray:
    """Validate and return a 1-d float array living in ``space``."""
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1 or v.shape[0] != space.dim:
        raise InvalidArgumentError(
            f"vector of length {v.shape} does not match space dimension {space.dim}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("vector entries must be finite")
    return v


def norm(space: SpaceDescriptor, v) -> float:
    """Norm of a single vector under the space's norm family."""
    v = as_vector(space, v)
    return float(_norms_nocheck(space, v[None, :])[0])


def norms(space: SpaceDescriptor, points: np.ndarray) -> np.ndarray:
    """Row-wise norms of an (n, dim) array."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != space.dim:
        raise InvalidArgumentError(
            f"array of shape {points.shape} does not match space dimension {space.dim}"
        )
    return _norms_nocheck(space, points)


def _norms_nocheck(space: SpaceDescriptor, points: np.ndarray) -> np.ndarray:
    if space.norm == "l1":
        return np.abs(points).sum(axis=1)
    if space.norm == "l2":
        return _l2_norms(points)
    return np.abs(points).max(axis=1)


#: No sum of squares of fewer than 2^23 coordinates of at most this size in
#: absolute value passes the float range.
SQUARE_SAFE = 2.0**500


def _l2_norms(points: np.ndarray) -> np.ndarray:
    """Row-wise l2 norms.  A row whose sum of squares passes the float range
    is computed again on its coordinates divided by one power of two, the
    largest not above its largest |coordinate| (exact, and it brings them
    into (-2, 2)), and scaled back; so it is inf only where the norm is, and
    other rows keep their bits."""
    if np.abs(points).max(initial=0.0) <= SQUARE_SAFE:
        return np.sqrt((points * points).sum(axis=1))
    with np.errstate(over="ignore"):
        squares = (points * points).sum(axis=1)
        out = np.sqrt(squares)
        far = np.flatnonzero(squares == np.inf)
        rows = points[far]
        unit = np.ldexp(1.0, np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1] - 1)
        rows = rows / unit[:, None]
        out[far] = unit * np.sqrt((rows * rows).sum(axis=1))
    return out


def cdist_metric(space: SpaceDescriptor) -> str:
    """scipy.spatial.distance metric name matching the space's norm."""
    return {"l1": "cityblock", "l2": "euclidean", "linf": "chebyshev"}[space.norm]


def c1_from(p: float, c: float) -> float:
    """Selection-error constant 2C / (2**(1 - 1/p) - 1)."""
    if p <= 1.0:
        raise InvalidArgumentError(f"the constant diverges for p <= 1, got p={p}")
    return 2.0 * c / (2.0 ** (1.0 - 1.0 / p) - 1.0)


def space_to_json(space: SpaceDescriptor) -> dict:
    return {"dim": space.dim, "norm": space.norm}


def infratype_from_json(obj: dict) -> tuple[float, float] | None:
    """The infratype (p, C) a JSON space object declares, or None; any other
    declaration than null or [p, C] with 1 < p <= 2 and C > 0 raises
    InvalidArgumentError."""
    infratype = obj.get("infratype")
    if infratype is None:
        return None
    if not (isinstance(infratype, (list, tuple)) and len(infratype) == 2):
        raise InvalidArgumentError(f"infratype must be [p, C] or null, got {infratype!r}")
    p, c = float(infratype[0]), float(infratype[1])
    check_infratype_exponent(p)
    if not c > 0:
        raise InvalidArgumentError(f"infratype constant must be positive, got {c}")
    return p, c


def space_from_json(obj) -> SpaceDescriptor:
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"space descriptor must be an object, got {type(obj).__name__}")
    try:
        dim = obj["dim"]
        nf = obj["norm"]
    except KeyError as exc:
        raise InvalidArgumentError(f"space descriptor missing field {exc}") from exc
    # a malformed declaration is a schema fault in every document
    infratype_from_json(obj)
    return SpaceDescriptor(dim=dim, norm=nf)


#: Convenience constructors for the three families.
def l1(dim: int) -> SpaceDescriptor:
    return SpaceDescriptor(dim, "l1")


def l2(dim: int) -> SpaceDescriptor:
    return SpaceDescriptor(dim, "l2")


def linf(dim: int) -> SpaceDescriptor:
    return SpaceDescriptor(dim, "linf")


def hilbert_c1() -> float:
    """The constant for (p, C) = (2, 1): 2 / (sqrt(2) - 1).  (2, 1) holds for
    every Euclidean norm: averaging the squared norm of the signed sum over
    all sign patterns gives exactly sum ||x_i||**2."""
    return 2.0 / (math.sqrt(2.0) - 1.0)
