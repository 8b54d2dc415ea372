import itertools
import math

import numpy as np
import pytest

from setint.counterexamples import (
    DIVERGENCE_BOUND,
    hilbert_example_sum_norm,
    l1_counterexample_bruteforce,
    l1_counterexample_eval,
    l1_counterexample_lower_bound,
    simplex_generators,
    witness_distance,
)
from setint.errors import InvalidArgumentError, ResourceLimitError
from setint.partition import (
    CounterexampleL1,
    TaggedPartition,
    random_partition,
    uniform_partition,
)
from setint.setops import PointSet
from setint.spaces import l1


def test_hilbert_sum_norm_uniform():
    # n equal intervals: (n * (1/n)**2) ** 0.5 = n**-0.5
    t = uniform_partition(100)
    assert hilbert_example_sum_norm(t) == pytest.approx(0.1, abs=1e-15)
    assert hilbert_example_sum_norm(uniform_partition(4)) == 0.5


def test_hilbert_sum_norm_below_sqrt_mesh():
    for seed in range(50):
        t = random_partition(20, seed=seed)
        s = hilbert_example_sum_norm(t)
        assert s <= math.sqrt(t.mesh) + 1e-12


def test_hilbert_sum_norm_coincident_tags():
    # both intervals tagged at the shared breakpoint: coefficients add first
    t = TaggedPartition(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5]))
    assert hilbert_example_sum_norm(t) == 1.0


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        CounterexampleL1(1, 10)
    with pytest.raises(InvalidArgumentError):
        CounterexampleL1(3, 6)  # witness needs 2**3 - 1 = 7 coordinates
    cfg = CounterexampleL1(3, 7)
    assert cfg.parts == 3
    assert cfg.witness_support == 7


def test_eval_and_generators():
    cfg = CounterexampleL1(2, 3)
    f = l1_counterexample_eval(cfg)
    assert isinstance(f.body, CounterexampleL1)
    assert f.space == l1(3)
    assert f.bound_m == 1.0
    assert simplex_generators(cfg).same_set(PointSet(l1(3), np.eye(3)))


def test_witness_distance_known_values():
    # n=2: 3 parts... no: parts = 2**1 - 1 = 1, support 3: 2*(3-1)/3 = 4/3
    assert witness_distance(2, 3, 1) == pytest.approx(4.0 / 3.0, abs=1e-15)
    # n=3: 3 parts, support 7: 2*(7-3)/7 = 8/7
    assert witness_distance(3, 7, 3) == pytest.approx(8.0 / 7.0, abs=1e-15)
    # parts = support: the uniform witness is attainable
    assert witness_distance(3, 7, 7) == 0.0


def test_witness_distance_closed_form():
    for n in range(2, 7):
        k = 2 ** n - 1
        parts = 2 ** (n - 1) - 1
        want = 2.0 * (k - parts) / k
        assert witness_distance(n, k, parts) == pytest.approx(want, abs=1e-15)


def test_lower_bound_exceeds_reference_constant_and_stays_above_one():
    # closed form 2**n / (2**n - 1): decreases toward 1, so the distance
    # between sum and simplex never drops below 1 along the whole sequence
    for n in range(2, 12):
        cfg = CounterexampleL1(n, 2 ** n - 1)
        lb = l1_counterexample_lower_bound(cfg)
        assert lb > DIVERGENCE_BOUND
        assert lb > 1.0
        assert lb == pytest.approx(2.0 ** n / (2.0 ** n - 1.0), abs=1e-12)


def test_bruteforce_oracle_agrees_with_closed_form():
    for n, trunc in ((2, 3), (3, 7)):
        cfg = CounterexampleL1(n, trunc)
        assert l1_counterexample_bruteforce(cfg) == pytest.approx(
            l1_counterexample_lower_bound(cfg), abs=1e-12
        )


def test_bruteforce_oracle_varied_parts():
    cfg = CounterexampleL1(2, 3)
    for parts in (1, 2, 3, 4, 6):
        got = l1_counterexample_bruteforce(cfg, parts=parts)
        assert got == pytest.approx(witness_distance(2, 3, parts), abs=1e-12)


@pytest.mark.parametrize("n, trunc, parts", [
    (2, 3, None), (3, 7, None), (3, 16, None), (4, 15, None),
    (2, 3, 1), (2, 3, 2), (2, 3, 4), (2, 3, 6),
])
def test_bruteforce_oracle_matches_a_loop_over_count_vectors(n, trunc, parts):
    # the count vectors one multiset of basis vectors at a time, bit for bit
    cfg = CounterexampleL1(n, trunc)
    m = cfg.parts if parts is None else parts
    y = np.zeros(trunc)
    y[:cfg.witness_support] = 1.0 / cfg.witness_support
    want = min(
        float(np.abs(y - np.bincount(combo, minlength=trunc) / m).sum())
        for combo in itertools.combinations_with_replacement(range(trunc), m)
    )
    assert l1_counterexample_bruteforce(cfg, parts=parts) == want


def test_bruteforce_oracle_cap():
    # C(21 + 7 - 1, 7) = 888,030 count vectors pass the cap of 10**6;
    # C(22 + 7 - 1, 7) = 1,184,040 do not
    assert math.comb(21 + 6, 7) <= 10 ** 6 < math.comb(22 + 6, 7)
    with pytest.raises(ResourceLimitError):
        l1_counterexample_bruteforce(CounterexampleL1(4, 22))


def test_generators_dimension_cap():
    big = CounterexampleL1(3, 10 ** 10)  # never allocated
    with pytest.raises(ResourceLimitError):
        big.generators(l1(big.trunc_dim))
    with pytest.raises(ResourceLimitError):
        simplex_generators(big)
    assert l1_counterexample_lower_bound(big) == witness_distance(3, 7, 3)
