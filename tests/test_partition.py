import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setint import partition
from setint.errors import ConfigError, InvalidArgumentError
from setint.partition import (
    Constant,
    ConvexHullOf,
    CounterexampleL1,
    MovingFinite,
    Multifunction,
    PiecewiseConstant,
    TaggedPartition,
    eval_mf,
    halve_with_tags,
    inner_of,
    is_hull_semantics,
    mf_from_json,
    mf_to_json,
    random_partition,
    uniform_partition,
    validate_bounds,
)
from setint.setops import PointSet
from setint.spaces import l1, l2, linf, norms


def test_uniform_partition_basic():
    t = uniform_partition(4)
    assert np.allclose(t.breakpoints, [0, 0.25, 0.5, 0.75, 1])
    assert t.mesh == pytest.approx(0.25)
    assert t.is_uniform()
    assert np.allclose(t.tags, [0.125, 0.375, 0.625, 0.875])


def test_tag_rules():
    left = uniform_partition(2, tag_rule="left")
    right = uniform_partition(2, tag_rule="right")
    assert np.allclose(left.tags, [0.0, 0.5])
    assert np.allclose(right.tags, [0.5, 1.0])


def test_random_tags_inside_intervals():
    t = uniform_partition(8, tag_rule="random", seed=5)
    assert np.all(t.tags >= t.breakpoints[:-1])
    assert np.all(t.tags <= t.breakpoints[1:])


def test_random_partition_deterministic():
    a = random_partition(10, seed=3)
    b = random_partition(10, seed=3)
    assert np.array_equal(a.breakpoints, b.breakpoints)
    assert np.array_equal(a.tags, b.tags)
    assert not np.array_equal(a.breakpoints, random_partition(10, seed=4).breakpoints)


def test_partition_validation():
    with pytest.raises(InvalidArgumentError):
        TaggedPartition(np.array([0.0, 0.5, 0.4, 1.0]), np.array([0.1, 0.45, 0.7]))
    with pytest.raises(InvalidArgumentError):
        TaggedPartition(np.array([0.0, 1.0]), np.array([1.5]))
    with pytest.raises(InvalidArgumentError):
        TaggedPartition(np.array([0.1, 1.0]), np.array([0.5]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 64), st.integers(0, 1000))
def test_widths_telescope(n, seed):
    t = random_partition(n, seed=seed)
    assert t.widths.sum() == pytest.approx(1.0, abs=1e-12)
    assert t.mesh == t.widths.max()


@pytest.mark.parametrize("n", [1, 3, 10, 64])
def test_widths_are_computed_once_and_read_only(monkeypatch, n):
    calls = []
    grid = partition._uniform_breakpoints
    monkeypatch.setattr(partition, "_uniform_breakpoints", lambda k: calls.append(k) or grid(k))
    uniform = uniform_partition(n)
    other = random_partition(n, seed=n)
    calls.clear()
    for t in (uniform, other) * 3:
        assert t.mesh == t.widths.max()
        t.is_uniform()
        assert not t.widths.flags.writeable
    assert calls == []
    # the uniform grid's widths are the correctly rounded 1/n, others differ
    assert np.array_equal(uniform.widths, np.full(n, 1.0 / n))
    assert np.array_equal(other.widths, np.diff(other.breakpoints))
    assert uniform.is_uniform()


def test_halve_refines_and_keeps_tags():
    base = uniform_partition(4, tag_rule="random", seed=9)
    fine, t_a, t_b = halve_with_tags(base.breakpoints, tag_rule="random", seed=9)
    assert len(fine.widths) == 8
    assert np.allclose(fine.breakpoints[::2], base.breakpoints)
    # a and b tag the coarse intervals with the tags of the two halves
    assert np.array_equal(t_a.breakpoints, base.breakpoints)
    assert np.array_equal(t_b.breakpoints, base.breakpoints)
    assert np.array_equal(fine.tags[0::2], t_a.tags)
    assert np.array_equal(fine.tags[1::2], t_b.tags)


def test_eval_constant_and_piecewise():
    space = l2(2)
    a = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = PointSet(space, np.array([[5.0, 5.0]]))
    f = Multifunction(space, Constant(a), bound_m=1.0, diam_bound=1.0)
    assert eval_mf(f, 0.3).same_set(a)

    body = PiecewiseConstant((0.0, 0.5, 1.0), (a, b))
    g = Multifunction(space, body, bound_m=8.0, diam_bound=1.0)
    assert eval_mf(g, 0.49).same_set(a)
    assert eval_mf(g, 0.5).same_set(b)
    assert eval_mf(g, 1.0).same_set(b)


def test_eval_moving_finite():
    space = l2(2)
    # one curve: g(t) = (t, t**2)
    curve = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    f = Multifunction(space, MovingFinite((curve,)), bound_m=2.0, diam_bound=0.0)
    v = eval_mf(f, 0.5).points
    assert np.allclose(v, [[0.5, 0.25]])


def test_hull_semantics_and_inner():
    space = l2(2)
    pts = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0]]))
    inner = Multifunction(space, Constant(pts), bound_m=1.0, diam_bound=1.0)
    hull = Multifunction(space, ConvexHullOf(inner), bound_m=1.0, diam_bound=1.0)
    assert not is_hull_semantics(inner)
    assert is_hull_semantics(hull)
    assert eval_mf(inner_of(hull), 0.2).same_set(pts)
    assert eval_mf(hull, 0.2).same_set(pts)


def test_counterexample_body_eval():
    f = Multifunction(l1(7), CounterexampleL1(3, 7), bound_m=1.0, diam_bound=2.0)
    assert eval_mf(f, 0.5).same_set(PointSet(l1(7), np.eye(7)))


def test_validate_bounds_flags_bad_m():
    space = l2(2)
    pts = PointSet(space, np.array([[10.0, 0.0]]))
    f = Multifunction(space, Constant(pts), bound_m=1.0, diam_bound=0.0)
    with pytest.raises(ConfigError):
        validate_bounds(f)


def test_validate_bounds_accepts_good():
    space = l2(2)
    pts = PointSet(space, np.array([[0.5, 0.0], [0.0, 0.5]]))
    f = Multifunction(space, Constant(pts), bound_m=1.0, diam_bound=1.0)
    validate_bounds(f)


def _validate_bounds_per_t(f, samples, seed):
    """Reference: the loop over sampled t that validate_bounds replaced."""
    rng = np.random.default_rng(seed)
    for t in np.concatenate(([0.0, 1.0], rng.random(max(samples - 2, 0)))):
        val = eval_mf(f, float(t))
        if norms(f.space, val.points).max() > f.bound_m + 1e-9:
            raise ConfigError(f"declared norm bound {f.bound_m} violated at t={t}")
        if len(val) > 1 and val.diameter() > f.diam_bound + 1e-9:
            raise ConfigError(f"declared diameter bound {f.diam_bound} violated at t={t}")


@pytest.mark.parametrize("space", [l1(3), l2(3), linf(3)])
def test_validate_bounds_moving_matches_per_t_loop(space):
    rng = np.random.default_rng(17)
    outcomes = []
    for seed in range(60):
        curves = tuple(rng.standard_normal((int(rng.integers(1, 4)), 3))
                       for _ in range(int(rng.integers(1, 5))))
        bound_m, diam = rng.uniform(0.8, 4.0, 2)
        f = Multifunction(space, MovingFinite(curves), bound_m, diam)
        results = []
        for check in (validate_bounds, _validate_bounds_per_t):
            try:
                check(f, samples=100, seed=seed)
                results.append(None)
            except ConfigError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        outcomes.append(results[0] is None)
    assert 0 < sum(outcomes) < len(outcomes)


def test_validate_bounds_checks_every_piece_and_moving_curve_dims():
    space = l2(2)
    ok = PointSet(space, np.array([[0.0, 0.0], [0.5, 0.0]]))
    far = PointSet(space, np.array([[0.0, 0.0], [0.0, 0.9]]))
    f = Multifunction(space, PiecewiseConstant((0.0, 0.5, 0.5001, 1.0), (ok, far, ok)), 1.0, 0.6)
    with pytest.raises(ConfigError, match="diameter bound 0.6 violated at t=0.5"):
        validate_bounds(f, samples=100)
    g = Multifunction(space, MovingFinite((np.zeros((2, 3)),)), 1.0, 1.0)
    with pytest.raises(InvalidArgumentError, match="dimension"):
        validate_bounds(g)


def _roundtrip_bodies():
    space = l2(2)
    a = PointSet(space, np.array([[1.0, 2.0]]))
    b = PointSet(space, np.array([[0.0, 0.0], [1.0, 1.0]]))
    inner = Multifunction(space, Constant(b), bound_m=4.0, diam_bound=4.0)
    return [
        Constant(a),
        PiecewiseConstant((0.0, 0.5, 1.0), (a, b)),
        MovingFinite((np.array([[0.0, 0.0], [1.0, -1.0]]),)),
        ConvexHullOf(inner),
    ]


@pytest.mark.parametrize("body", _roundtrip_bodies())
def test_mf_json_roundtrip(body):
    f = Multifunction(l2(2), body, bound_m=4.0, diam_bound=4.0)
    back = mf_from_json(mf_to_json(f))
    assert back.space == f.space
    assert back.bound_m == f.bound_m
    for t in (0.0, 0.3, 0.75, 1.0):
        assert eval_mf(back, t).same_set(eval_mf(f, t))


def test_mf_json_counterexample_roundtrip():
    f = Multifunction(l1(7), CounterexampleL1(3, 7), bound_m=1.0, diam_bound=2.0)
    back = mf_from_json(mf_to_json(f))
    assert isinstance(back.body, CounterexampleL1)
    assert back.body.n == 3 and back.body.trunc_dim == 7
