"""The two explicit constructions.

1. The Hilbert-space map t -> e_t into an orthonormal continuum: its Riemann
   sums have closed-form norm (sum of squared interval lengths) ** 1/2, so the
   map integrates to zero without ever materializing infinite-dimensional
   vectors.

2. The l1 family F(t) = {first N basis vectors}: its convex hull (the
   probability simplex) integrates trivially to itself, while the sums of F
   over m = 2**(n-1) - 1 equal parts stay at distance >= 2(K - m)/K from the
   simplex witness supported on K = 2**n - 1 coordinates.  This exceeds the
   general lower bound 1/24 and tends to 1.  Sums are never materialized:
   distances to them go through an integer program over atom counts, solved in
   closed form and certified against a brute-force oracle that enumerates the
   count vectors through setops.minkowski_power.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .partition import CounterexampleL1, Multifunction, TaggedPartition
from .setops import PointSet, minkowski_power
from .spaces import SpaceDescriptor

#: The general-space lower bound from the divergence argument.
DIVERGENCE_BOUND = 1.0 / 24.0

_ORACLE_CAP = 1_000_000


def hilbert_example_sum_norm(t: TaggedPartition) -> float:
    """Norm of the Riemann sum of the orthonormal-continuum map.

    The sum is a combination of the orthonormal vectors e_tag, so its norm
    is (sum c**2) ** 1/2, where c adds the interval lengths of equal tags
    (two intervals may share an endpoint tag).  With pairwise distinct tags
    this is (sum |interval|**2) ** 1/2 exactly.
    """
    _, inverse = np.unique(t.tags, return_inverse=True)
    c = np.bincount(inverse, weights=t.widths)
    return float(math.sqrt(float((c * c).sum())))


def l1_counterexample_eval(cfg: CounterexampleL1) -> Multifunction:
    """The constant multifunction whose value is the first N l1 basis vectors
    (unit norm bound, diameter 2)."""
    return Multifunction(SpaceDescriptor(cfg.trunc_dim, "l1"), cfg, bound_m=1.0, diam_bound=2.0)


def simplex_generators(cfg: CounterexampleL1) -> PointSet:
    """Generators of the value's hull: the probability simplex."""
    return cfg.generators(SpaceDescriptor(cfg.trunc_dim, "l1"))


def witness_distance(n: int, trunc_dim: int, parts: int) -> float:
    """Exact l1 distance from the uniform witness on K = 2**n - 1 coordinates
    to the set of averages of ``parts`` basis vectors.

    The objective separates per coordinate and is convex in each atom count,
    so the even split of the atoms over the witness support is optimal (atoms
    off the support only add cost).  For parts <= K this is 2(K - parts)/K.
    """
    k = 2 ** n - 1
    if trunc_dim < k:
        raise InvalidArgumentError("truncation dimension too small for the witness")
    if parts < 1:
        raise InvalidArgumentError("need at least one part")
    q, r = divmod(parts, k)
    cost = r * abs(1.0 / k - (q + 1) / parts) + (k - r) * abs(1.0 / k - q / parts)
    return float(cost)


def l1_counterexample_lower_bound(cfg: CounterexampleL1) -> float:
    """Certified lower bound on the Hausdorff distance between the sum over
    the canonical partition and the simplex: the witness lies in the simplex,
    the sum inside it, so the point-to-sum distance bounds the set distance."""
    return witness_distance(cfg.n, cfg.trunc_dim, cfg.parts)


def l1_counterexample_bruteforce(cfg: CounterexampleL1, parts: int | None = None) -> float:
    """Independent oracle: the least l1 distance |y - c/m| from the witness y
    over every count vector c of m basis vectors.  The count vectors are the
    points of the m-fold Minkowski power of the basis vectors, enumerated by
    setops.minkowski_power; ResourceLimitError is raised where there are more
    than _ORACLE_CAP of them."""
    m = cfg.parts if parts is None else parts
    if m < 1:
        raise InvalidArgumentError("parts must be a positive integer")
    gens = simplex_generators(cfg)
    vectors = math.comb(cfg.trunc_dim + m - 1, m)
    if vectors > _ORACLE_CAP:
        raise ResourceLimitError(
            f"the brute-force oracle would enumerate {vectors} count vectors "
            f"(limit {_ORACLE_CAP}); lower N or n"
        )
    counts = minkowski_power(gens, m, limit=_ORACLE_CAP).points
    k = cfg.witness_support
    y = np.zeros(cfg.trunc_dim)
    y[:k] = 1.0 / k
    return float(np.abs(y - counts / m).sum(axis=1).min())
