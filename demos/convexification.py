"""Riemann sums of a set-valued map convexify as the mesh shrinks.

The value is a fixed three-point set (a triangle's corners).  Each sum is a
Minkowski combination of scaled copies; as the partition refines, the sum
fills the triangle even though no single value is convex.  The finite defect
of a sum A is its Hausdorff distance to the halved self-sum (A + A)/2: how
far A is from being closed under midpoints.
"""

import numpy as np

from setint.integrate import riemann_sum
from setint.partition import Constant, Multifunction, uniform_partition
from setint.setops import PointSet, hausdorff, minkowski, scale
from setint.spaces import l2

space = l2(2)
corners = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
f = Multifunction(space, Constant(corners), bound_m=1.5, diam_bound=1.5)

print(f"{'n':>4} {'cardinality':>12} {'finite defect':>14}")
for n in (2, 4, 8, 16, 32, 64):
    s = riemann_sum(f, uniform_partition(n)).base
    half = scale(0.5, s)
    print(f"{n:>4} {len(s):>12} {hausdorff(s, minkowski(half, half)):>14.6f}")

print()
print("the finite defect (distance to the averaged set) decays like 1/n")
