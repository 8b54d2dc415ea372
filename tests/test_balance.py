import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setint.balance import (
    MAX_EXACT_VECTORS,
    SelectionProblem,
    estimate_infratype_constant,
    hull_sum_onesided_greedy,
    infratype_ratio,
    power_sum_check,
    select_points,
    sign_balance_exact,
    sign_balance_greedy,
)
from setint.errors import InvalidArgumentError, ResourceLimitError
from setint.partition import Constant, ConvexHullOf, Multifunction, uniform_partition
from setint.setops import PointSet
from setint.spaces import hilbert_c1, l1, l2, linf, norm


def brute_force_balance(m, space):
    best = math.inf
    for signs in itertools.product([1.0, -1.0], repeat=m.shape[0]):
        best = min(best, norm(space, np.asarray(signs) @ m))
    return best


def test_sign_balance_exact_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = rng.standard_normal((n, 3))
        for space in (l1(3), l2(3)):
            _, value = sign_balance_exact(m, space)
            assert value == pytest.approx(brute_force_balance(m, space), abs=1e-12)


def test_sign_balance_exact_returns_achieving_signs():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 2))
    signs, value = sign_balance_exact(m, l2(2))
    assert set(np.unique(signs)) <= {-1.0, 1.0}
    assert norm(l2(2), signs @ m) == pytest.approx(value, abs=1e-12)


def test_sign_balance_cancelling_pair():
    m = np.array([[1.0, 0.0], [1.0, 0.0]])
    _, value = sign_balance_exact(m, l2(2))
    assert value == 0.0


@pytest.mark.parametrize("make", [l1, l2, linf], ids=["l1", "l2", "linf"])
def test_infratype_estimate_checks_the_dimension_before_any_trial(monkeypatch, make):
    def no_trial(*args):
        raise AssertionError("a family was balanced")

    monkeypatch.setattr("setint.balance.infratype_ratio", no_trial)
    with pytest.raises(ResourceLimitError, match=f"dimension 25 exceeds the cap {MAX_EXACT_VECTORS}"):
        estimate_infratype_constant(make(MAX_EXACT_VECTORS + 1), 2.0, 5, 4, 0)


def test_sign_balance_size_cap():
    m = np.ones((MAX_EXACT_VECTORS + 1, 2))
    with pytest.raises(ResourceLimitError):
        sign_balance_exact(m, l2(2))


def test_greedy_upper_bounds_exact():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = rng.standard_normal((int(rng.integers(2, 10)), 3))
        signs, g = sign_balance_greedy(m, l2(3))
        _, e = sign_balance_exact(m, l2(3))
        assert g >= e - 1e-12
        assert norm(l2(3), signs @ m) == pytest.approx(g, abs=1e-12)


def test_infratype_ratio_orthonormal_pair():
    # |e1 - e2| = sqrt(2), (1 + 1)**(1/2) = sqrt(2): ratio 1
    assert infratype_ratio(np.eye(2), 2.0, l2(2)) == pytest.approx(1.0, abs=1e-12)


def test_infratype_ratio_rejects_zero_vector():
    with pytest.raises(InvalidArgumentError):
        infratype_ratio(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0, l2(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("check", [sign_balance_exact, sign_balance_greedy,
                                   lambda m, space: infratype_ratio(m, 2.0, space)],
                         ids=["exact", "greedy", "ratio"])
def test_non_finite_vectors_are_rejected(check, bad):
    with pytest.raises(InvalidArgumentError, match="^vector entries must be finite$"):
        check(np.array([[bad, 1.0], [1.0, 2.0]]), l2(2))


def test_estimate_infratype_l2_is_one():
    # Hilbert space has infratype 2 with constant 1; the canonical basis
    # family meets the bound exactly and random families never beat it
    assert estimate_infratype_constant(l2(3), 2.0, trials=40, n_max=6, seed=0) == 1.0


def test_estimate_infratype_l1_exceeds_one():
    got = estimate_infratype_constant(l1(2), 2.0, trials=10, n_max=4, seed=0)
    assert got >= math.sqrt(2.0) - 1e-9


def test_estimate_deterministic():
    a = estimate_infratype_constant(l1(3), 2.0, trials=20, n_max=5, seed=7)
    b = estimate_infratype_constant(l1(3), 2.0, trials=20, n_max=5, seed=7)
    assert a == b


def test_power_sum_values():
    lhs, rhs = power_sum_check(np.full(4, 0.25), 2.0)
    assert lhs == pytest.approx(0.25)
    assert rhs == pytest.approx(0.25)
    lhs, rhs = power_sum_check([0.5, 0.25, 0.25], 2.0)
    assert lhs == pytest.approx(0.375)
    assert rhs == pytest.approx(0.5)
    assert lhs <= rhs


def test_power_sum_validation():
    with pytest.raises(InvalidArgumentError):
        power_sum_check([0.5, 0.6], 2.0)
    with pytest.raises(InvalidArgumentError):
        power_sum_check([0.5, 0.5], 1.0)
    with pytest.raises(InvalidArgumentError):
        power_sum_check([1.5, -0.5], 2.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([1.25, 1.5, 2.0]))
def test_power_sum_inequality(seed, p):
    rng = np.random.default_rng(seed)
    ds = rng.dirichlet(np.ones(int(rng.integers(2, 12))))
    if np.any(ds <= 0):
        return
    lhs, rhs = power_sum_check(ds, p)
    assert lhs <= rhs + 1e-12


def _random_problem(rng, n, space):
    sets, targets = [], []
    for _ in range(n):
        pts = rng.standard_normal((int(rng.integers(2, 5)), space.dim))
        lam = rng.dirichlet(np.ones(pts.shape[0]))
        sets.append(PointSet(space, pts))
        targets.append(lam @ pts)
    return SelectionProblem(tuple(sets), np.array(targets))


def test_selection_problem_rejects_outside_target():
    space = l2(2)
    sets = (PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0]])),)
    with pytest.raises(InvalidArgumentError):
        SelectionProblem(sets, np.array([[0.0, 1.0]]))


def test_select_points_exhaustive_is_optimal():
    rng = np.random.default_rng(4)
    space = l2(2)
    for _ in range(10):
        prob = _random_problem(rng, 4, space)
        picks, value = select_points(prob, mode="exhaustive")
        best = math.inf
        for combo in itertools.product(*(s.points for s in prob.sets)):
            dev = np.sum(np.asarray(combo) - prob.targets, axis=0)
            best = min(best, norm(space, dev))
        assert value == pytest.approx(best, abs=1e-12)
        dev = np.sum(np.asarray(picks) - prob.targets, axis=0)
        assert norm(space, dev) == pytest.approx(value, abs=1e-12)


def test_select_points_greedy_l2_bound():
    # in l2 the greedy deviation never exceeds (sum of squared diameters)**0.5
    rng = np.random.default_rng(5)
    space = l2(3)
    for _ in range(30):
        prob = _random_problem(rng, int(rng.integers(1, 9)), space)
        _, value = select_points(prob, mode="greedy")
        budget = math.sqrt(float((prob.diameters() ** 2).sum()))
        assert value <= budget + 1e-9


def test_select_points_exhaustive_combo_cap():
    rng = np.random.default_rng(6)
    space = l2(2)
    sets = tuple(
        PointSet(space, rng.standard_normal((4, 2)) + 100 * i) for i in range(11)
    )
    targets = np.array([s.points[0] for s in sets])
    prob = SelectionProblem(sets, targets)
    with pytest.raises(ResourceLimitError):
        select_points(prob, mode="exhaustive")  # 4**11 > 10**6 combos


def test_hull_sum_greedy_quantitative_bound():
    space = l2(2)
    pts = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    inner = Multifunction(space, Constant(pts), bound_m=2.0, diam_bound=math.sqrt(2.0))
    f = Multifunction(space, ConvexHullOf(inner), bound_m=2.0, diam_bound=math.sqrt(2.0))
    for n in (4, 16, 64):
        t = uniform_partition(n)
        worst, measured_m = hull_sum_onesided_greedy(f, t, n_samples=40, seed=1)
        assert measured_m == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert worst <= hilbert_c1() * measured_m * math.sqrt(t.mesh)
