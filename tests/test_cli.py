import contextlib
import copy
import functools
import io
import json
import math
import operator
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setint
from setint.cli import CONFIG_VERSION, EXIT_RESOURCE, EXIT_SCHEMA, build_parser, parse_schedule, run
from setint.counterexamples import witness_distance
from setint.errors import InvalidArgumentError, ResourceLimitError, SolverFailureError
from setint.partition import MAX_INTERVALS, check_interval_count


def triangle_cfg(**overrides) -> dict:
    cfg = {
        "version": CONFIG_VERSION,
        "multifunction": {
            "space": {"dim": 2, "norm": "l1", "infratype": None},
            "boundM": 1.0,
            "diamBound": 2.0,
            "body": {
                "kind": "convex_hull_of",
                "inner": {
                    "space": {"dim": 2, "norm": "l1", "infratype": None},
                    "boundM": 1.0,
                    "diamBound": 2.0,
                    "body": {
                        "kind": "constant",
                        "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                    },
                },
            },
        },
        "schedule": [2, 4, 8],
        "candidate": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    }
    cfg.update(overrides)
    return cfg


def write_json(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def triangle_config(tmp_path, **overrides):
    return write_json(tmp_path, "cfg.json", triangle_cfg(**overrides))


def balance_doc(vectors, **space) -> dict:
    return {"space": {"dim": 2, "norm": "l2", **space}, "vectors": vectors}


def select_doc(**space) -> dict:
    return {"space": {"dim": 2, "norm": "l2", **space},
            "sets": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
            "targets": [[0.5, 0.0], [0.0, 0.5]]}


def triangle_with_inner_body(body) -> dict:
    cfg = triangle_cfg()
    cfg["multifunction"]["body"]["inner"]["body"] = body
    return cfg


def test_parse_schedule_list():
    assert parse_schedule("2,4,8") == [2, 4, 8]


def test_parse_schedule_powers():
    assert parse_schedule("uniform:2^1..2^4") == [2, 4, 8, 16]


def test_parse_schedule_rejects_garbage():
    with pytest.raises(InvalidArgumentError):
        parse_schedule("nope")


def test_parse_schedule_rejects_a_range_with_two_bases(tmp_path, capsys):
    with pytest.raises(InvalidArgumentError, match=r"2\^1\.\.3\^4"):
        parse_schedule("uniform:2^1..3^4")
    cfg = triangle_config(tmp_path, schedule="uniform:2^1..3^4")
    assert run(["integrate", "--config", cfg]) == EXIT_SCHEMA
    assert "uniform:2^1..3^4" in capsys.readouterr().err


@pytest.mark.parametrize("schedule", [[2.7, "4"], [2, "4"], [2, True], [2, 1e400], {"n": 2}])
def test_config_schedule_that_is_not_whole_counts_exit_schema(tmp_path, capsys, schedule):
    cfg = triangle_config(tmp_path, schedule=schedule)
    assert run(["integrate", "--config", cfg]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "schedule" in err
    if isinstance(schedule, list):
        assert repr(schedule) in err


def test_config_schedule_of_whole_floats_runs(tmp_path):
    cfg = triangle_config(tmp_path, schedule=[2.0, 4])
    assert run(["integrate", "--config", cfg]) == run(["integrate", "--config", triangle_config(tmp_path)])


def test_integrate_converged_exit_zero(tmp_path, capsys):
    cfg = triangle_config(tmp_path)
    assert run(["integrate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "converged" in out


def test_integrate_json_and_csv_outputs(tmp_path):
    cfg = triangle_config(tmp_path)
    jpath = tmp_path / "out.json"
    cpath = tmp_path / "out.csv"
    assert run(["integrate", "--config", cfg, "--json", str(jpath), "--csv", str(cpath)]) == 0
    obj = json.loads(jpath.read_text())
    assert obj["verdict"] == "converged"
    assert [r["distance"] for r in obj["rows"]] == [0.0, 0.0, 0.0]
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "mesh,distance,prune_error,cardinality,ms"
    assert len(lines) == 4


def test_rerun_byte_identical(tmp_path):
    cfg = triangle_config(tmp_path)
    outs = []
    for tag in ("a", "b"):
        jpath = tmp_path / f"{tag}.json"
        cpath = tmp_path / f"{tag}.csv"
        run(["integrate", "--config", cfg, "--json", str(jpath), "--csv", str(cpath)])
        outs.append(jpath.read_bytes() + cpath.read_bytes())
    assert outs[0] == outs[1]


#: integrate configs and the JSON each printed when recorded: a pruned 5-curve
#: moving body in l1(2), a raw 6-point constant body in l2(2) on
#: uniform:2^1..2^4, a pruned 5-curve moving body in linf(3) with one
#: quadratic curve among linear ones, at random tags, and two hull bodies of
#: two pieces each: in l1(2) with its break at 1/2 and a candidate off the
#: integral (every row repeats the first one's terms), and in l2(2) with its
#: break at 1/3 and no candidate (no row repeats).  A change that only makes
#: setint faster must reproduce them byte for byte.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["moving_l1", "constant_l2", "moving_linf",
                                  "piecewise_hull_l1", "piecewise_hull_l2"])
def test_integrate_json_matches_recorded_output(tmp_path, monkeypatch, name):
    # as configured, then with every nearest-distance query and prune down
    # the k-d tree, and (below 8 coordinates) down scipy's distance matrices
    # and numpy's dense kernel
    for caps in (None, (0, 0, 0), (0, 10**18, 10**18), (10**18, 10**18, 10**18)):
        if caps is not None:
            monkeypatch.setattr("setint.setops._DENSE_CELLS", dict.fromkeys(("l1", "l2", "linf"), caps[0]))
            monkeypatch.setattr("setint.setops._DENSE_PAIRS", caps[1])
            monkeypatch.setattr("setint.setops._PDIST_ROWS", caps[2])
        jpath = tmp_path / "out.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(["integrate", "--config", str(GOLDEN / f"{name}.config.json"), "--json", str(jpath)])
        assert code == 3  # inconclusive: the recorded schedules stop short of tol
        assert jpath.read_text() == (GOLDEN / f"{name}.out.json").read_text()


def _far_candidate_cfg(norm: str, far: list, hull: bool) -> dict:
    """A constant 2-point body in ``norm``(2), raw or under convex_hull_of,
    against a candidate with one point at ``far``."""
    inner = {"space": {"dim": 2, "norm": norm}, "boundM": 2.0, "diamBound": 2.0,
             "body": {"kind": "constant", "points": [[0, 0], [1, 0]]}}
    mf = {**inner, "body": {"kind": "convex_hull_of", "inner": inner}} if hull else inner
    return {"version": CONFIG_VERSION, "multifunction": mf, "schedule": [1, 2],
            "candidate": [far, [0, 1], [2, 2]]}


@pytest.mark.parametrize("norm, far", [("l2", [1e160, 1e160]), ("l1", [1.7e308, 1.7e308])])
def test_a_candidate_past_the_float_range_ends_as_the_hull_path_does(tmp_path, norm, far):
    # l2: the squares overflow, the distance does not; l1: the distance
    # itself lies past the float range
    rows = []
    for hull in (False, True):
        jpath = tmp_path / f"{hull}.json"
        cfg = write_json(tmp_path, f"{hull}.cfg.json", _far_candidate_cfg(norm, far, hull))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["integrate", "--config", cfg, "--json", str(jpath)]) == 3
        rows.append([r["distance"] for r in json.loads(jpath.read_text())["rows"]])
    raw, hull = rows
    if norm == "l2":
        assert raw == pytest.approx(hull, rel=1e-15) and max(raw) < math.inf
    else:
        assert raw == hull == [math.inf, math.inf]


@pytest.mark.parametrize("delta_step", [1e158, 3e158])
def test_a_pruned_l2_body_whose_squares_pass_the_float_range_runs(tmp_path, delta_step):
    # five linear curves at 1e160 in l2(2): the squares of their norms and
    # of their sums' extents pass the float range, not the distances.  The
    # square of delta_step does too, so every sum is pruned by a k-d tree of
    # its rows divided by a power of two, where cKDTree raised ValueError.
    rng = np.random.default_rng(1)
    curves = [(np.stack([rng.standard_normal(2), 0.3 * rng.standard_normal(2)]) * 1e160).tolist()
              for _ in range(5)]
    body = {"kind": "moving_finite", "curves": curves}
    mf = {"space": {"dim": 2, "norm": "l2"}, "boundM": 1e300, "diamBound": 1e300, "body": body}
    cfg = write_json(tmp_path, "far.json", {"version": CONFIG_VERSION, "multifunction": mf,
                                            "schedule": [2, 4, 8, 16], "deltaStep": delta_step})
    jpath = tmp_path / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["integrate", "--config", cfg, "--json", str(jpath)]) == 3
    rows = json.loads(jpath.read_text())["rows"]
    assert all(0 < r["distance"] < math.inf for r in rows[1:])


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules loaded after ``code`` runs in a fresh interpreter
    that imports setint from this checkout."""
    src = str(Path(setint.__file__).parents[1])
    script = (f"import json, sys\nsys.path.insert(0, {src!r})\n{code}\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_after("import setint.cli") == []


@pytest.mark.parametrize("command", ["integrate", "balance", "infratype"])
def test_small_runs_never_load_scipy_spatial(tmp_path, command):
    argv = {
        "integrate": ["integrate", "--config", triangle_config(tmp_path)],
        "balance": ["balance", "--vectors",
                    write_json(tmp_path, "v.json", balance_doc([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))],
        "infratype": ["infratype", "--norm", "l1", "--dim", "2", "--trials", "20"],
    }[command]
    loaded = _scipy_modules_after(f"from setint.cli import run\nrun({argv!r})")
    assert "scipy.spatial" not in loaded


def _nnls_hits_its_cap(*args, **kwargs):
    raise RuntimeError("Maximum number of iterations reached.")


def _nnls_returns_zeros(a, b, **kwargs):
    return np.zeros(a.shape[1]), float(np.linalg.norm(b))


@pytest.mark.parametrize("nnls", [_nnls_hits_its_cap, _nnls_returns_zeros])
def test_l2_hull_solver_failure_exits_1_with_one_line(monkeypatch, capsys, nnls):
    monkeypatch.setattr("scipy.optimize.nnls", nnls)
    argv = ["integrate", "--config", str(GOLDEN / "piecewise_hull_l2.config.json")]
    assert run(argv) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert _one_line(cap.err, "solver failure: l2 hull NNLS ")
    assert "nan" not in cap.err and "None" not in cap.err


@pytest.mark.parametrize("key, want", [
    pytest.param({}, 0, id="default"),
    pytest.param({"seed": 5}, 5, id="config"),
    pytest.param({"seed": 5.0}, 5, id="config-whole-float"),
])
def test_the_seed_reaches_the_bound_check(tmp_path, monkeypatch, key, want):
    seeds = []
    monkeypatch.setattr("setint.cli.validate_bounds", lambda f, seed: seeds.append(seed))
    assert run(["integrate", "--config", triangle_config(tmp_path, **key)]) == 0
    assert seeds == [want] and type(seeds[0]) is int


@pytest.mark.parametrize("seed", [-1, 3.7, "3", True, float("inf"), None],
                         ids=["negative", "fraction", "string", "bool", "inf", "null"])
def test_a_seed_that_is_not_a_whole_nonnegative_number_exits_schema(tmp_path, capsys, seed):
    # moving_linf uses random tags, so a truncated seed would change its rows
    cfg = json.loads((GOLDEN / "moving_linf.config.json").read_text())
    cfg["seed"] = seed
    assert run(["integrate", "--config", write_json(tmp_path, "cfg.json", cfg)]) == EXIT_SCHEMA
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == (
        f'error: config key "seed" must be a whole number of at least 0, got {seed!r}\n')


def test_config_schedule_range(tmp_path):
    cfg = triangle_config(tmp_path, schedule="uniform:2^1..2^3")
    jpath = tmp_path / "out.json"
    assert run(["integrate", "--config", cfg, "--json", str(jpath)]) == 0
    obj = json.loads(jpath.read_text())
    assert [r["mesh"] for r in obj["rows"]] == [0.5, 0.25, 0.125]


def test_integrate_options_are_the_config_and_the_outputs():
    sub = build_parser()._subparsers._group_actions[0].choices["integrate"]
    options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
    assert options == {"--config", "--json", "--csv", "--timings"}


@pytest.mark.parametrize("flag, value", [
    ("--candidate", "cand.json"), ("--schedule", "2,4"), ("--tag-rule", "mid"), ("--tol", "0"),
    ("--prune-delta", "0"), ("--seed", "-1"), ("--hull-tol", "0"),
])
def test_deleted_integrate_flags_are_rejected(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(["integrate", "--config", triangle_config(tmp_path), f"{flag}={value}"])
    assert exc.value.code == 2  # argparse's usage error
    assert f"unrecognized arguments: {flag}=" in capsys.readouterr().err


def test_bad_config_version_exit_schema(tmp_path):
    cfg = triangle_config(tmp_path, version="v0")
    assert run(["integrate", "--config", cfg]) == EXIT_SCHEMA


def test_missing_multifunction_exit_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": CONFIG_VERSION}))
    assert run(["integrate", "--config", str(path)]) == EXIT_SCHEMA


def test_bound_violation_exit_schema(tmp_path, capsys):
    cfg = triangle_cfg()
    cfg["multifunction"]["boundM"] = 0.1
    cfg["multifunction"]["body"]["inner"]["boundM"] = 0.1
    assert run(["integrate", "--config", write_json(tmp_path, "cfg.json", cfg)]) == EXIT_SCHEMA
    assert "declared norm bound" in capsys.readouterr().err


def test_bound_violation_on_a_narrow_piece_exit_schema(tmp_path, capsys):
    # 100 sampled t would almost surely miss [0.5, 0.5001); each piece is
    # checked once instead
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    cfg = triangle_with_inner_body({
        "kind": "piecewise_constant",
        "breaks": [0.0, 0.5, 0.5001, 1.0],
        "sets": [tri, [[5.0, 0.0], [0.0, 0.0]], tri],
    })
    assert run(["integrate", "--config", write_json(tmp_path, "cfg.json", cfg)]) == EXIT_SCHEMA
    assert "declared norm bound 1.0 violated at t=0.5" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    pytest.param([], id="bare"),
    pytest.param(["--config"], id="config"),
    pytest.param(["--config", "--hull-tol", "0"], id="config-hull-tol"),
])
def test_removed_convexity_command_is_rejected(tmp_path, args):
    argv = ["convexity", *args]
    if "--config" in argv:
        argv.insert(argv.index("--config") + 1, triangle_config(tmp_path))
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2  # argparse's usage error


def _hull_with_inner_space(norm: str) -> dict:
    cfg = triangle_cfg()
    del cfg["candidate"]
    cfg["multifunction"]["space"]["norm"] = "l2"
    cfg["multifunction"]["body"]["inner"]["space"]["norm"] = norm
    return cfg


def _counterexample_in(space: dict) -> dict:
    return {"version": CONFIG_VERSION, "schedule": [2, 4],
            "multifunction": {"space": space, "boundM": 1.0, "diamBound": 2.0,
                              "body": {"kind": "counterexample_l1", "n": 2, "N": 3}}}


@pytest.mark.parametrize("cfg, message", [
    pytest.param(_hull_with_inner_space("l1"), "a convex_hull_of body in l1(2) does not live in "
                 "the multifunction's space l2(2)", id="l1-hull-body-of-an-l2-map"),
    pytest.param(_counterexample_in({"dim": 3, "norm": "l2"}), "a counterexample_l1 body with "
                 "N = 3 lives in l1(3), not in l2(3)", id="counterexample-in-l2"),
    pytest.param(_counterexample_in({"dim": 4, "norm": "l1"}), "a counterexample_l1 body with "
                 "N = 3 lives in l1(3), not in l1(4)", id="counterexample-in-l1-of-another-dim"),
])
def test_body_outside_the_multifunction_space_exits_schema(tmp_path, capsys, cfg, message):
    assert run(["integrate", "--config", write_json(tmp_path, "cfg.json", cfg)]) == EXIT_SCHEMA
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == f"error: {message}\n"


@pytest.mark.parametrize("command, flag, document", [
    pytest.param("integrate", "--config",
                 triangle_with_inner_body({"kind": "constant", "points": "abc"}),
                 id="points-not-numbers"),
    pytest.param("integrate", "--config",
                 triangle_with_inner_body({"kind": "piecewise_constant", "breaks": [0.0, 1.0]}),
                 id="piecewise-without-sets"),
    pytest.param("integrate", "--config", triangle_cfg(tol="abc"), id="tol-not-a-number"),
    pytest.param("integrate", "--config", triangle_cfg(seed="abc"), id="seed-not-a-number"),
    pytest.param("integrate", "--config", triangle_cfg(schedule=["a"]), id="schedule-not-numbers"),
    pytest.param("integrate", "--config", triangle_cfg(candidate="abc"), id="candidate-not-numbers"),
    pytest.param("integrate", "--config", triangle_cfg(multifunction={
        **triangle_cfg()["multifunction"], "boundM": float("inf")}), id="boundM-infinite"),
    pytest.param("integrate", "--config", triangle_cfg(multifunction={
        **triangle_cfg()["multifunction"], "diamBound": float("nan")}), id="diamBound-nan"),
    pytest.param("balance", "--vectors", {"space": {"dim": 2, "norm": "l2"}, "vectors": "abc"},
                 id="vectors-not-numbers"),
    pytest.param("balance", "--vectors", balance_doc([1.0, 2.0]), id="vectors-one-dimensional"),
    pytest.param("balance", "--vectors", [[1.0, 0.0], [0.0, 1.0]], id="vectors-bare-array"),
    pytest.param("select", "--problem",
                 {"sets": [[[0.0, 0.0], [1.0, 0.0]]], "targets": [[0.5, 0.0]]},
                 id="select-without-space"),
])
def test_schema_fault_exit_schema(tmp_path, capsys, command, flag, document):
    path = write_json(tmp_path, "input.json", document)
    assert run([command, flag, path]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: ")


def test_hull_tol_zero_exit_schema(tmp_path):
    assert run(["integrate", "--config", triangle_config(tmp_path, hullTol=0.0)]) == EXIT_SCHEMA


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["tol", "hullTol", "deltaStep"])
def test_non_finite_setting_exit_schema(tmp_path, capsys, key, value):
    cfg = triangle_config(tmp_path, **{key: float(value)})
    assert run(["integrate", "--config", cfg]) == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        f'error: config key "{key}" must be finite and nonnegative, got {float(value)}\n')


@pytest.mark.parametrize("key", ["tol", "hullTol", "deltaStep"])
def test_negative_setting_exit_schema(tmp_path, capsys, key):
    assert run(["integrate", "--config", triangle_config(tmp_path, **{key: -1.0})]) == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        f'error: config key "{key}" must be finite and nonnegative, got -1.0\n')


@pytest.mark.parametrize("value", [True, False, "1e-3", None],
                         ids=["true", "false", "string", "null"])
@pytest.mark.parametrize("key", ["tol", "hullTol", "deltaStep"])
def test_a_setting_that_is_not_a_json_number_exits_schema(tmp_path, capsys, key, value):
    # on moving_l1, "tol": true ran as tol 1.0 and converged, "tol": "1e-3"
    # as 0.001, and "deltaStep": false unpruned until the cardinality cap
    cfg = json.loads((GOLDEN / "moving_l1.config.json").read_text())
    cfg[key] = value
    assert run(["integrate", "--config", write_json(tmp_path, "cfg.json", cfg)]) == EXIT_SCHEMA
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == f'error: config key "{key}" must be a number, got {value!r}\n'


def test_an_integer_past_the_digit_limit_exits_schema(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(triangle_cfg(tol=1)).replace('"tol": 1', '"tol": 1' + "0" * 5000))
    assert run(["integrate", "--config", str(path)]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: Exceeds the limit")


def test_whole_settings_are_taken_as_floats(tmp_path, monkeypatch, capsys):
    settings = []

    def record(f, schedule, candidate, **kwargs):
        settings.append(kwargs)
        raise SolverFailureError("recorded")

    monkeypatch.setattr("setint.cli.run_integrate", record)
    cfg = write_json(tmp_path, "cfg.json", triangle_cfg(tol=1, deltaStep=0, hullTol=2))
    assert run(["integrate", "--config", cfg]) == 1
    assert settings == [{"tol": 1.0, "delta_step": 0.0, "hull_tol": 2.0}]
    assert all(type(v) is float for v in settings[0].values())
    capsys.readouterr()
    # a whole number past the largest float is not finite
    assert run(["integrate", "--config", triangle_config(tmp_path, tol=10 ** 400)]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith('error: config key "tol" must be finite and nonnegative')


@pytest.mark.parametrize("where", ["candidate", "candidate-document", "body"])
def test_an_empty_point_list_exits_schema(tmp_path, capsys, where):
    cfg = triangle_cfg()
    if where == "candidate":
        cfg["candidate"] = []
    elif where == "candidate-document":
        cfg["candidate"] = {"space": {"dim": 2, "norm": "l1"}, "points": []}
    else:
        cfg["multifunction"]["body"]["inner"]["body"]["points"] = []
    assert run(["integrate", "--config", write_json(tmp_path, "cfg.json", cfg)]) == EXIT_SCHEMA
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == "error: a point set must be nonempty\n"


def test_omitted_settings_take_integrates_defaults(tmp_path, monkeypatch):
    settings = []

    def record(f, schedule, candidate, **kwargs):
        settings.append(kwargs)
        raise SolverFailureError("recorded")

    monkeypatch.setattr("setint.cli.run_integrate", record)
    for cfg in (triangle_cfg(), triangle_cfg(tol=1e-3, deltaStep=0.5, hullTol=1e-9)):
        assert run(["integrate", "--config", write_json(tmp_path, "cfg.json", cfg)]) == 1
    assert settings == [{}, {"tol": 1e-3, "delta_step": 0.5, "hull_tol": 1e-9}]


def test_zero_tol_stays_inconclusive(tmp_path):
    assert run(["integrate", "--config", triangle_config(tmp_path, tol=0.0)]) == 3


def test_cached_parser_runs_like_a_fresh_one(tmp_path, capsys):
    cfg = triangle_config(tmp_path)
    calls = [
        ["integrate", "--config", write_json(tmp_path, "tol0.json", triangle_cfg(tol=0.0))],
        ["integrate", "--config", cfg],
        ["infratype", "--norm", "l2", "--dim", "3", "--trials", "5", "--nmax", "4"],
    ]

    def outputs(fresh):
        out = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            out.append((run(argv), capsys.readouterr().out))
        return out

    in_one_process = outputs(fresh=False)
    assert build_parser() is build_parser()
    assert in_one_process == outputs(fresh=True)
    assert [code for code, _ in in_one_process] == [3, 0, 0]


def test_balance_command(tmp_path, capsys):
    doc = balance_doc([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], infratype=[2, 1])
    code = run(["balance", "--vectors", write_json(tmp_path, "v.json", doc)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["satisfied"] is True
    assert len(out["signs"]) == 3


@pytest.mark.parametrize("command, flag, document", [
    pytest.param("balance", "--vectors", balance_doc([[1.0, 0.0], [0.0, 1.0]]), id="balance"),
    pytest.param("select", "--problem", select_doc(), id="select"),
])
def test_a_document_without_an_infratype_prints_no_bound(tmp_path, capsys, command, flag,
                                                         document):
    assert run([command, flag, write_json(tmp_path, "doc.json", document)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "bound" not in out and "satisfied" not in out


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_balance_of_non_finite_vectors_exit_schema(tmp_path, capsys, mode, bad):
    vecs = write_json(tmp_path, "v.json", balance_doc([[bad, 1.0], [1.0, 2.0]]))
    assert run(["balance", "--vectors", vecs, "--mode", mode]) == EXIT_SCHEMA
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == "error: vector entries must be finite\n"


def test_balance_norm_flag_is_rejected(tmp_path):
    vecs = write_json(tmp_path, "v.json", balance_doc([[1.0, 0.0]]))
    with pytest.raises(SystemExit) as exc:
        run(["balance", "--vectors", vecs, "--norm", "l2"])
    assert exc.value.code == 2  # argparse's usage error


def _with_infratype(kind: str, infratype) -> dict:
    """The document of command ``kind``, its space declaring ``infratype``."""
    if kind == "integrate":
        cfg = triangle_cfg()
        cfg["multifunction"]["space"]["infratype"] = infratype
        return cfg
    if kind == "balance":
        return balance_doc([[1.0, 0.0], [0.0, 1.0]], infratype=infratype)
    return select_doc(infratype=infratype)


@pytest.mark.parametrize("infratype, message", [
    pytest.param([2.5, 1.0], "infratype exponent must lie in (1, 2], got 2.5", id="exponent"),
    pytest.param([2.0, 0.0], "infratype constant must be positive, got 0.0", id="constant"),
    pytest.param("abc", "infratype must be [p, C] or null, got 'abc'", id="string"),
    pytest.param([2], "infratype must be [p, C] or null, got [2]", id="one-entry"),
])
@pytest.mark.parametrize("command, flag", [
    ("integrate", "--config"), ("balance", "--vectors"), ("select", "--problem"),
])
def test_malformed_infratype_exit_schema(tmp_path, capsys, command, flag, infratype, message):
    doc = write_json(tmp_path, "doc.json", _with_infratype(command, infratype))
    assert run([command, flag, doc]) == EXIT_SCHEMA
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == f"error: {message}\n"


def _l2_triangle_cfg(where: str, declare: bool) -> dict:
    """The triangle hull config in l2(2), with a candidate document (where =
    "candidate") or without a candidate (where = "inner").  With ``declare``,
    the space that ``where`` names declares the infratype (2, 1); else it has
    no infratype key."""
    cfg = _hull_with_inner_space("l2")
    space = cfg["multifunction"]["body"]["inner"]["space"]
    space.pop("infratype")
    if where == "candidate":
        space = {"dim": 2, "norm": "l2"}
        cfg["candidate"] = {"space": space, "points": triangle_cfg()["candidate"]}
    if declare:
        space["infratype"] = [2, 1]
    return cfg


@pytest.mark.parametrize("where, code", [("candidate", 0), ("inner", 3)])
def test_a_declared_infratype_leaves_the_space_unchanged(tmp_path, capsys, where, code):
    outputs = []
    for declare in (True, False):
        cfg = write_json(tmp_path, "cfg.json", _l2_triangle_cfg(where, declare))
        outputs.append((run(["integrate", "--config", cfg]), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == code and outputs[0][1].err == ""


def test_balance_resource_cap_exit_70(tmp_path, capsys):
    vecs = write_json(tmp_path, "v.json", balance_doc([[1.0, 0.0]] * 25))
    assert run(["balance", "--vectors", vecs, "--mode", "exact"]) == EXIT_RESOURCE
    cap = capsys.readouterr()
    assert cap.out == "" and _one_line(
        cap.err, "resource limit: 25 vectors exceed the exact enumeration cap 24")
    assert "--mode greedy" in cap.err
    assert run(["balance", "--vectors", vecs, "--mode", "greedy"]) == 0


def test_infratype_command(tmp_path, capsys):
    code = run(["infratype", "--norm", "l2", "--dim", "3", "--trials", "5",
                "--nmax", "4", "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["estimate"] == 1.0


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_infratype_dimension_past_the_exact_cap_exits_resource(monkeypatch, capsys, norm):
    def no_trial(*args):
        raise AssertionError("a family was balanced")

    monkeypatch.setattr("setint.balance.infratype_ratio", no_trial)
    assert run(["infratype", "--norm", norm, "--dim", "25"]) == EXIT_RESOURCE
    cap = capsys.readouterr()
    assert cap.out == "" and _one_line(cap.err, "resource limit: dimension 25 exceeds the cap 24")


@pytest.mark.parametrize("p", ["0", "1", "nan", "-1", "5"])
def test_infratype_exponent_outside_the_range_exit_schema(capsys, p):
    assert run(["infratype", "--norm", "l2", "--trials", "5", "--p", p]) == EXIT_SCHEMA
    cap = capsys.readouterr()
    assert cap.out == ""
    assert _one_line(cap.err, "error: infratype exponent must lie in (1, 2]")


def test_negative_seed_exit_schema(capsys):
    assert run(["infratype", "--norm", "l2", "--trials", "5", "--seed", "-1"]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: ")


def test_select_command(tmp_path, capsys):
    prob = write_json(tmp_path, "prob.json", select_doc(infratype=[2.0, 1.0]))
    code = run(["select", "--problem", prob, "--mode", "exhaustive"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] <= out["bound"]


def counterexample_l1_cfg(n: int, n_dim: int, schedule) -> dict:
    return {"version": CONFIG_VERSION, "schedule": schedule,
            "multifunction": {"space": {"dim": n_dim, "norm": "l1"}, "boundM": 1.0,
                              "diamBound": 2.0,
                              "body": {"kind": "counterexample_l1", "n": n, "N": n_dim}}}


def test_integrate_counterexample_l1_reports_the_witness_rows(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", counterexample_l1_cfg(3, 16, [1, 2, 3]))
    assert run(["integrate", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert out.endswith("}\nverdict: diverged\n")
    rows = json.loads(out.rsplit("verdict: ", 1)[0])["rows"]
    assert [r["distance"] for r in rows] == [witness_distance(3, 16, m) for m in (1, 2, 3)]
    assert [r["cardinality"] for r in rows] == [math.comb(16 + m - 1, m) for m in (1, 2, 3)]


@pytest.mark.parametrize("args", [
    pytest.param(["hilbert", "--partition", "100"], id="hilbert"),
    pytest.param(["l1", "--n", "3", "--N", "16"], id="l1"),
])
def test_removed_counterexample_command_is_rejected(args):
    with pytest.raises(SystemExit) as exc:
        run(["counterexample", *args])
    assert exc.value.code == 2  # argparse's usage error


def _one_line(err: str, prefix: str) -> bool:
    return err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


def test_out_of_memory_exits_resource(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):  # nothing is allocated for real
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setattr("setint.cli.uniform_partition", no_memory)
    argv = ["integrate", "--config", triangle_config(tmp_path, schedule=[10000000])]
    assert run(argv) == EXIT_RESOURCE
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "resource limit: Unable to allocate 7.45 GiB\n"


def test_integrate_counterexample_l1_past_the_dimension_cap_exits_resource(tmp_path, capsys):
    n_dim = 10 ** 10  # never allocated
    cfg = {"version": CONFIG_VERSION, "schedule": [3, 6],
           "multifunction": {"space": {"dim": n_dim, "norm": "l1"}, "boundM": 1.0,
                             "diamBound": 2.0,
                             "body": {"kind": "counterexample_l1", "n": 3, "N": n_dim}}}
    assert run(["integrate", "--config", write_json(tmp_path, "cfg.json", cfg)]) == EXIT_RESOURCE
    assert _one_line(capsys.readouterr().err, "resource limit: ")


def test_witness_cardinality_past_the_digit_limit_exits_resource(tmp_path, capsys):
    # C(1024 + 8191, 8192) has 1,394 digits: past a limit of 640, as the
    # schedule [8388608] is past the default of 4,300, without its 8 M tags
    assert len(str(math.comb(1024 + 8191, 8192))) == 1394
    cfg = write_json(tmp_path, "cfg.json", counterexample_l1_cfg(3, 1024, [1, 8192]))
    paths = [str(tmp_path / "out.json"), str(tmp_path / "rows.csv")]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run(["integrate", "--config", cfg, "--json", paths[0], "--csv", paths[1]])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == EXIT_RESOURCE
    cap = capsys.readouterr()
    assert cap.out == "" and _one_line(cap.err, "resource limit: the witness row of 8192 ")
    assert not any(Path(p).exists() for p in paths)


@pytest.mark.parametrize("schedule", [
    pytest.param("uniform:2^1..2^99", id="integrate-range"),
    # a total of more than 4,300 digits, which int-to-str conversion refuses
    pytest.param("uniform:2^1..2^15000", id="integrate-huge-range"),
    pytest.param(f"1,{MAX_INTERVALS}", id="integrate-total"),
])
def test_interval_count_past_the_cap_exits_resource(tmp_path, monkeypatch, capsys, schedule):
    def no_arrays(*args):
        raise AssertionError("a breakpoint array was built")

    monkeypatch.setattr("setint.partition._uniform_breakpoints", no_arrays)
    argv = ["integrate", "--config", triangle_config(tmp_path, schedule=schedule)]
    assert run(argv) == EXIT_RESOURCE
    cap = capsys.readouterr()
    assert cap.out == ""
    assert _one_line(cap.err, "resource limit: ") and str(MAX_INTERVALS) in cap.err


def test_a_range_far_past_the_cap_exits_resource_at_once(tmp_path, capsys):
    # the powers stop at the first one past the cap: 2^40000 is never built
    cfg = triangle_config(tmp_path, schedule="uniform:2^1..2^40000")
    start = time.perf_counter()
    code = run(["integrate", "--config", cfg])
    elapsed = time.perf_counter() - start
    assert code == EXIT_RESOURCE
    assert _one_line(capsys.readouterr().err, "resource limit: ")
    assert elapsed < 0.1


def _listed_range(base, lo, hi):
    """A range's counts listed in full, then checked as a schedule is: whole
    counts that strictly increase from 1, then their total."""
    counts = [base ** k for k in range(lo, hi + 1)]  # a negative k gives a float
    if not all(type(n) is int and prev < n for prev, n in zip([0, *counts], counts)):
        raise InvalidArgumentError("not whole counts that strictly increase from 1")
    check_interval_count(sum(counts), "a schedule")
    return counts


_RANGES = [(lo, hi) for lo in range(-3, 9) for hi in range(-3, 9)] + [(1, 150), (-150, 1), (0, 129)]


@pytest.mark.parametrize("base", [-65, -64, -8, -3, -2, -1, 0, 1, 2, 3, 8, 64, 65])
def test_power_ranges_list_the_counts_or_fail_as_the_listed_counts_would(monkeypatch, base):
    # with a cap of 2^6, ranges reach and pass the cap cheaply: each parses
    # to its listed counts, or raises the error of the first rule they break
    monkeypatch.setattr("setint.partition.MAX_INTERVALS", 64)
    monkeypatch.setattr("setint.cli.MAX_INTERVALS", 64)
    for lo, hi in _RANGES:
        spec = f"uniform:{base}^{lo}..{base}^{hi}"
        try:
            want = _listed_range(base, lo, hi)
        except (InvalidArgumentError, ResourceLimitError, ZeroDivisionError) as exc:
            error = ResourceLimitError if isinstance(exc, ResourceLimitError) else InvalidArgumentError
            with pytest.raises(error):
                parse_schedule(spec)
            continue
        got = parse_schedule(spec)
        assert got == want and [type(n) for n in got] == [type(n) for n in want], spec


@pytest.mark.parametrize("schedule, code", [
    ("uniform:0^-1..0^1", EXIT_SCHEMA),  # 0 ** -1 has no value
    ("uniform:3^-2000..3^-1", EXIT_SCHEMA),  # fractions, the first ones 0.0
    ("uniform:-2^4097", EXIT_SCHEMA),  # one negative count past the cap
    ("uniform:-2^4096", EXIT_RESOURCE),
])
def test_a_range_with_no_valid_count_exits_with_one_line(tmp_path, capsys, schedule, code):
    cfg = triangle_config(tmp_path, schedule=schedule)
    start = time.perf_counter()
    assert run(["integrate", "--config", cfg]) == code
    assert time.perf_counter() - start < 0.1
    prefix = "error: " if code == EXIT_SCHEMA else "resource limit: "
    assert _one_line(capsys.readouterr().err, prefix)


@pytest.mark.parametrize("schedule", [
    "uniform:1^1..1^16777216",  # 2^24 one-interval partitions
    "4,2",
    "2,2",
    f"{MAX_INTERVALS},1",  # past the cap too, but not increasing first
    "uniform:1^1..1^16777217",
    "uniform:1^-1",  # a negative exponent, which would be a float count
])
def test_a_schedule_that_does_not_increase_exits_before_any_partition(
        tmp_path, monkeypatch, capsys, schedule):
    def no_partition(*args, **kwargs):
        raise AssertionError("a partition was built")

    monkeypatch.setattr("setint.cli.uniform_partition", no_partition)
    cfg = triangle_config(tmp_path, schedule=schedule)
    start = time.perf_counter()
    assert run(["integrate", "--config", cfg]) == EXIT_SCHEMA
    assert time.perf_counter() - start < 0.1
    cap = capsys.readouterr()
    assert cap.out == "" and _one_line(cap.err, "error: ")


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_unwritable_output_path_exits_schema(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "out"
    assert run(["integrate", "--config", triangle_config(tmp_path), flag, str(path)]) == EXIT_SCHEMA
    assert _one_line(capsys.readouterr().err, f"error: cannot write {path}: ")


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        run(["frobnicate"])


# ---------------------------------------------------------------------------
# Config fuzzing: any mutation of a valid config exits with a documented code.

#: A small valid config with every optional key present, so each can be fuzzed.
FUZZ_BASE = triangle_cfg(schedule=[2, 4], tol=1e-6, hullTol=1e-8, deltaStep=0.0, seed=0,
                         tagRule="mid")

#: Replacement values: wrong types and out-of-range numbers.
FUZZ_VALUES = ["abc", "", [], [1, 2], {}, None, True, -1, 0, 1.5, -1e300, 1e300]

FUZZ_EXIT_CODES = {0, 2, 3, EXIT_SCHEMA, EXIT_RESOURCE}


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*prefix, key))


FUZZ_PATHS = [p for p in _paths(FUZZ_BASE) if p]


def _mutate(cfg, path, action):
    """Drop the key at ``path`` or replace its value."""
    try:
        node = functools.reduce(operator.getitem, path[:-1], cfg)
        if action == "drop":
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(FUZZ_VALUES[action])
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation removed or retyped the path


@settings(max_examples=150, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(FUZZ_PATHS),
                  st.sampled_from(["drop", *range(len(FUZZ_VALUES))])),
        min_size=1, max_size=2),
)
def test_fuzzed_config_exits_with_documented_code(tmp_path_factory, mutations):
    cfg = copy.deepcopy(FUZZ_BASE)
    for path, action in mutations:
        _mutate(cfg, path, action)
    work = tmp_path_factory.mktemp("fuzz")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["integrate", "--config", write_json(work, "cfg.json", cfg)])
    assert code in FUZZ_EXIT_CODES, err.getvalue()
    assert "Traceback" not in err.getvalue()
