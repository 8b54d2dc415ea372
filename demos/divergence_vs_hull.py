"""A map whose convex hull integrates while the map itself does not.

In l1, take F constant equal to the first N basis vectors.  Sums of conv F
are always the probability simplex, so the hull side converges trivially.
The raw sums, however, stay at l1 distance >= 1 from the simplex: the uniform
witness point needs more distinct coordinates than a sum over few intervals
can produce.  The gap never closes, certified through an exact integer
program rather than by materializing the (huge) sums.
"""

from setint.counterexamples import (
    DIVERGENCE_BOUND,
    l1_counterexample_bruteforce,
    l1_counterexample_lower_bound,
)
from setint.partition import CounterexampleL1

print(f"{'n':>3} {'N':>4} {'parts':>6} {'lower bound':>12}")
for n in range(2, 10):
    cfg = CounterexampleL1(n, 2 ** n - 1)
    lb = l1_counterexample_lower_bound(cfg)
    print(f"{n:>3} {cfg.trunc_dim:>4} {cfg.parts:>6} {lb:>12.6f}")

print()
print(f"every bound exceeds the general threshold {DIVERGENCE_BOUND:.4f} (= 1/24)")
print("and stays above 1: the raw sums never approach the simplex")

cfg = CounterexampleL1(3, 7)
print()
print("small-case cross-check against brute-force enumeration:")
print("  closed form :", l1_counterexample_lower_bound(cfg))
print("  brute force :", l1_counterexample_bruteforce(cfg))
