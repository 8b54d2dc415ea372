"""End-to-end acceptance checks.

Each criterion is a pure function of fixed seeds returning a JSON-serializable
summary; the final check reruns every criterion and demands byte-identical
serialized output.  Run with ``pytest -s`` to see one pass/fail line per
criterion.
"""

import json
import math

import numpy as np
import pytest

from setint.balance import (
    SelectionProblem,
    estimate_infratype_constant,
    hull_sum_onesided_greedy,
    power_sum_check,
    select_points,
)
from setint.counterexamples import (
    DIVERGENCE_BOUND,
    hilbert_example_sum_norm,
    l1_counterexample_bruteforce,
    l1_counterexample_eval,
    l1_counterexample_lower_bound,
    simplex_generators,
)
from setint.integrate import integrate, riemann_sum
from setint.partition import (
    Constant,
    ConvexHullOf,
    CounterexampleL1,
    MovingFinite,
    Multifunction,
    PiecewiseConstant,
    halve_with_tags,
    inner_of,
    random_partition,
    uniform_partition,
)
from setint.setops import (
    PointSet,
    hausdorff,
    hausdorff_hulls,
    minkowski,
    scale,
)
from setint.spaces import hilbert_c1, l1, l2, linf

_RESULTS: dict[int, str] = {}


def _record(k: int, summary: dict) -> dict:
    _RESULTS[k] = json.dumps(summary, sort_keys=True)
    return summary


def _report(k: int, detail: str) -> None:
    print(f"criterion {k}: PASS - {detail}")


def _hullwrap(f: Multifunction) -> Multifunction:
    return Multifunction(f.space, ConvexHullOf(f), f.bound_m, f.diam_bound)


def _random_set(space, rng, max_pts=6):
    return PointSet(space, rng.standard_normal((int(rng.integers(1, max_pts + 1)), space.dim)))


# --- criterion 1: metric axioms --------------------------------------------


def criterion_1() -> dict:
    rng = np.random.default_rng(101)
    checked = 0
    for space in (l1(3), l2(3), linf(3)):
        for _ in range(1000):
            a, b, c = (_random_set(space, rng) for _ in range(3))
            dab, dbc, dac = hausdorff(a, b), hausdorff(b, c), hausdorff(a, c)
            assert hausdorff(a, a) == 0.0
            assert hausdorff(b, a) == dab
            assert dac <= dab + dbc + 1e-12
            if dab <= 1e-12:
                assert a.same_set(b)
            checked += 1
    return _record(1, {"triples": checked})


def test_criterion_1_metric_axioms():
    out = criterion_1()
    assert out["triples"] == 3000
    _report(1, f"{out['triples']} random triples satisfy the metric axioms at 1e-12")


# --- criterion 2: hulls commute with sums -----------------------------------


def criterion_2() -> dict:
    """The grouped sum of conv F, one term (sum w_i) * A per value A, against
    the raw sum of F, one term w_i * A per interval.  Every value has at
    least two points and repeats over unequal random widths (a constant, or
    two pieces over at least three intervals), so the two point sets differ."""
    rng = np.random.default_rng(202)
    worst, identical = 0.0, 0
    for i in range(50):
        space = (l1(2), l2(3), linf(2))[i % 3]
        sets = tuple(PointSet(space, rng.standard_normal((int(rng.integers(2, 5)), space.dim)))
                     for _ in range(1 + i % 2))
        if i % 2 == 0:
            body = Constant(sets[0])
        else:
            body = PiecewiseConstant((0.0, float(rng.uniform(0.2, 0.8)), 1.0), sets)
        f = Multifunction(space, body, 64.0, 64.0)
        t = random_partition(int(rng.integers(3, 7)), seed=1000 + i)
        s_raw = riemann_sum(f, t).base
        s_grouped = riemann_sum(_hullwrap(f), t).base
        identical += np.array_equal(s_raw.points, s_grouped.points)
        worst = max(worst, hausdorff_hulls(s_grouped, s_raw))
    return _record(2, {"pairs": 50, "worst": worst, "identical": identical})


def test_criterion_2_conv_sum_commutation():
    out = criterion_2()
    assert out["identical"] == 0
    assert out["worst"] <= 1e-6
    _report(2, f"50 (F, T) pairs, grouped hull sum against raw sum: worst hull distance "
               f"{out['worst']:.2e} <= 1e-06")


# --- criterion 3: hulls never increase the distance -------------------------


def criterion_3() -> dict:
    rng = np.random.default_rng(303)
    worst_excess = -math.inf
    for i in range(1000):
        space = (l1(2), l2(2), linf(2))[i % 3]
        a = _random_set(space, rng, max_pts=5)
        b = _random_set(space, rng, max_pts=5)
        excess = hausdorff_hulls(a, b) - hausdorff(a, b)
        worst_excess = max(worst_excess, excess)
    return _record(3, {"pairs": 1000, "worstExcess": worst_excess})


def test_criterion_3_hull_inequality():
    out = criterion_3()
    assert out["worstExcess"] <= 2e-8
    _report(3, f"1000 pairs: hull distance exceeds finite distance by at most {out['worstExcess']:.2e}")


# --- criterion 4: constant convex integrates exactly ------------------------


def criterion_4() -> dict:
    space = l1(2)
    tri = PointSet(space, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    f = _hullwrap(Multifunction(space, Constant(tri), 1.0, 2.0))
    schedule = [uniform_partition(n) for n in (2, 4, 8, 16, 32, 64, 128, 256)]
    report = integrate(f, schedule, candidate=tri)
    return _record(4, {
        "distances": [r.distance for r in report.rows],
        "verdict": report.verdict.status,
    })


def test_criterion_4_constant_convex_exact():
    out = criterion_4()
    assert out["verdict"] == "converged"
    assert out["distances"] == [0.0] * 8
    _report(4, "constant convex value: distance exactly 0.0 at all meshes 1/2 .. 1/256")


# --- criterion 5: convexity of the limit, exact halving identity ------------


def _criterion_5_cases():
    s1, s2 = l1(2), l2(2)
    seg = PointSet(s1, np.array([[0.0, 0.0], [2.0, 0.0]]))
    tri = PointSet(s2, np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    curves = (
        np.array([[0.0, 0.0], [2.0, 1.0]]),
        np.array([[1.0, -1.0], [-1.0, 2.0]]),
    )
    return (
        ("segment", _hullwrap(Multifunction(s1, Constant(seg), 2.0, 2.0)), 32, "random"),
        ("triangle", _hullwrap(Multifunction(s2, Constant(tri), 4.0, 4.0)), 16, "random"),
        ("moving", _hullwrap(Multifunction(s2, MovingFinite(curves), 4.0, 4.0)), 8, "left"),
    )


def criterion_5() -> dict:
    out = {}
    for name, f, n, rule in _criterion_5_cases():
        # raw sums of the inner map: the halving identity holds for them
        # exactly, while a hull body's grouped sums weigh each value once
        f = inner_of(f)
        limit = riemann_sum(f, uniform_partition(n)).base
        half = minkowski(scale(0.5, limit), scale(0.5, limit))
        hull_dev = hausdorff_hulls(limit, half)

        base = uniform_partition(n)
        fine, t_a, t_b = halve_with_tags(base.breakpoints, tag_rule=rule, seed=13)
        lhs = riemann_sum(f, fine).base
        rhs = minkowski(
            scale(0.5, riemann_sum(f, t_a).base), scale(0.5, riemann_sum(f, t_b).base)
        )
        out[name] = {"hullDeviation": hull_dev, "halvedIdentity": hausdorff(lhs, rhs)}
    return _record(5, out)


def test_criterion_5_convexity_and_halving():
    out = criterion_5()
    for name, row in out.items():
        assert row["hullDeviation"] <= 1e-6, name
        assert row["halvedIdentity"] == 0.0, name
    _report(5, "3 integrable cases: hull deviation <= 1e-06, halved-partition identity exactly 0.0")


# --- criterion 6: quantitative one-sided convergence bound ------------------


def criterion_6() -> dict:
    rng = np.random.default_rng(42)
    curves = tuple(rng.standard_normal((3, 4)) * 0.3 for _ in range(3))
    f = _hullwrap(Multifunction(l2(4), MovingFinite(curves), 3.0, 3.0))
    c1 = hilbert_c1()
    meshes, worsts, ok = [], [], True
    for k in range(1, 9):
        t = uniform_partition(2 ** k)
        worst, m_meas = hull_sum_onesided_greedy(f, t, n_samples=200, seed=1000 + k)
        meshes.append(t.mesh)
        worsts.append(worst)
        if worst > c1 * m_meas * math.sqrt(t.mesh):
            ok = False
    slope = float(np.polyfit(np.log(meshes), np.log(worsts), 1)[0])
    return _record(6, {"boundHolds": ok, "slope": slope, "worsts": worsts})


def test_criterion_6_quantitative_bound():
    out = criterion_6()
    assert out["boundHolds"]
    assert out["slope"] >= 0.4
    _report(6, f"bound C1*M*sqrt(mesh) holds at meshes 2^-1..2^-8; log-log slope {out['slope']:.2f} >= 0.4")


# --- criterion 7: point-selection deviation bounds --------------------------


def criterion_7() -> dict:
    rng = np.random.default_rng(7)
    c1 = hilbert_c1()
    violations = 0
    for _ in range(200):
        sets, targets = [], []
        for _ in range(int(rng.integers(1, 9))):
            pts = rng.standard_normal((int(rng.integers(2, 5)), 2))
            lam = rng.dirichlet(np.ones(pts.shape[0]))
            sets.append(PointSet(l2(2), pts))
            targets.append(lam @ pts)
        prob = SelectionProblem(tuple(sets), np.array(targets))
        budget = math.sqrt(float((prob.diameters() ** 2).sum()))
        _, v_ex = select_points(prob, "exhaustive")
        _, v_gr = select_points(prob, "greedy")
        if v_ex > c1 * budget + 1e-9 or v_gr > budget + 1e-9:
            violations += 1
    return _record(7, {"problems": 200, "violations": violations})


def test_criterion_7_selection_bounds():
    out = criterion_7()
    assert out["violations"] == 0
    _report(7, "200 selection problems: exhaustive <= C1*(sum d^2)^0.5 and greedy <= (sum d^2)^0.5, zero violations")


# --- criterion 8: power-sum inequality on the simplex -----------------------


def criterion_8() -> dict:
    rng = np.random.default_rng(8)
    violations = 0
    for p in (1.5, 2.0):
        for _ in range(10_000):
            ds = rng.dirichlet(np.ones(int(rng.integers(2, 12))))
            if np.any(ds <= 0):
                continue
            lhs, rhs = power_sum_check(ds, p)
            if lhs > rhs + 1e-12:
                violations += 1
    return _record(8, {"samples": 20_000, "violations": violations})


def test_criterion_8_power_sum_inequality():
    out = criterion_8()
    assert out["violations"] == 0
    _report(8, "2x10^4 simplex samples, p in {1.5, 2}: sum d^p <= (max d)^(p-1), zero violations")


# --- criterion 9: orthonormal-continuum sums --------------------------------


def criterion_9() -> dict:
    violations = 0
    for seed in range(1000):
        t = random_partition(20, seed=seed)
        if hilbert_example_sum_norm(t) > math.sqrt(t.mesh) + 1e-12:
            violations += 1
    uniform100 = hilbert_example_sum_norm(uniform_partition(100))
    return _record(9, {"violations": violations, "uniform100": uniform100})


def test_criterion_9_hilbert_sums():
    out = criterion_9()
    assert out["violations"] == 0
    assert abs(out["uniform100"] - 0.1) <= 1e-12
    _report(9, f"1000 random partitions below sqrt(mesh); uniform n=100 gives {out['uniform100']!r}")


# --- criterion 10: the l1 divergence construction ---------------------------

# conv-side meshes per n: the hull LP costs grow cubically with the
# truncation dimension, so the verified interval counts shrink with N
_CONV_SCHEDULES = {3: (2, 4), 4: (1, 2), 5: (1,), 6: (1,), 7: (1,), 8: (1,)}


def criterion_10() -> dict:
    rows = {}
    for n in range(3, 9):
        cfg = CounterexampleL1(n, 2 ** (n + 1))
        lb = l1_counterexample_lower_bound(cfg)
        inner = l1_counterexample_eval(cfg)
        f = _hullwrap(inner)
        schedule = [uniform_partition(m) for m in _CONV_SCHEDULES[n]]
        report = integrate(f, schedule, candidate=simplex_generators(cfg))
        rows[str(n)] = {
            "lowerBound": lb,
            "convDistances": [r.distance for r in report.rows],
            "convVerdict": report.verdict.status,
        }
    oracle = {}
    for n, trunc in ((2, 3), (3, 7)):
        cfg = CounterexampleL1(n, trunc)
        oracle[str(n)] = {
            "closedForm": l1_counterexample_lower_bound(cfg),
            "bruteforce": l1_counterexample_bruteforce(cfg),
        }
    return _record(10, {"rows": rows, "oracle": oracle})


def test_criterion_10_l1_counterexample():
    out = criterion_10()
    for n, row in out["rows"].items():
        assert row["lowerBound"] >= 1.0 > DIVERGENCE_BOUND, n
        assert row["convVerdict"] == "converged", n
        assert all(d == 0.0 for d in row["convDistances"]), n
    for n, row in out["oracle"].items():
        assert abs(row["closedForm"] - row["bruteforce"]) <= 1e-12, n
    _report(10, "n=3..8: divergence bound >= 1 while conv side integrates to 0; oracle matches closed form")


# --- criterion 11: infratype constant estimates -----------------------------


def criterion_11() -> dict:
    est_l2 = estimate_infratype_constant(l2(3), 2.0, trials=200, n_max=8, seed=0)
    est_l1 = estimate_infratype_constant(l1(2), 2.0, trials=200, n_max=8, seed=0)
    return _record(11, {"l2": est_l2, "l1sq": est_l1})


def test_criterion_11_infratype_estimates():
    out = criterion_11()
    assert out["l2"] <= 1.0
    assert out["l1sq"] >= math.sqrt(2.0) - 1e-9
    _report(11, f"l2 estimate {out['l2']!r} <= 1; l1^2 estimate {out['l1sq']!r} >= sqrt(2) - 1e-9")


# --- criterion 12: determinism ----------------------------------------------


def test_criterion_12_determinism():
    first = dict(_RESULTS)
    assert set(first) == set(range(1, 12)), "criteria 1-11 must run first"
    for fn in (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
               criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
               criterion_11):
        fn()
    assert _RESULTS == first
    _report(12, "criteria 1-11 rerun with fixed seeds: serialized outputs byte-identical")
