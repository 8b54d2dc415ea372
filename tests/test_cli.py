import contextlib
import copy
import functools
import io
import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setint.cli import CONFIG_VERSION, EXIT_RESOURCE, EXIT_SCHEMA, build_parser, parse_schedule, run
from setint.errors import InvalidArgumentError


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


def test_schedule_override(tmp_path):
    cfg = triangle_config(tmp_path)
    jpath = tmp_path / "out.json"
    run(["integrate", "--config", cfg, "--schedule", "uniform:2^1..2^3", "--json", str(jpath)])
    obj = json.loads(jpath.read_text())
    assert len(obj["rows"]) == 3


def test_bad_config_version_exit_schema(tmp_path):
    cfg = triangle_config(tmp_path, version="v0")
    assert run(["integrate", "--config", cfg]) == EXIT_SCHEMA


def test_missing_multifunction_exit_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": CONFIG_VERSION}))
    assert run(["integrate", "--config", str(path)]) == EXIT_SCHEMA


@pytest.mark.parametrize("command", ["integrate", "convexity", "pushforward"])
def test_bound_violation_exit_schema(tmp_path, capsys, command):
    cfg = triangle_cfg()
    cfg["multifunction"]["boundM"] = 0.1
    cfg["multifunction"]["body"]["inner"]["boundM"] = 0.1
    argv = [command, "--config", write_json(tmp_path, "cfg.json", cfg)]
    if command == "pushforward":
        argv += ["--matrix", write_json(tmp_path, "p.json", [[1.0, 1.0]])]
    assert run(argv) == EXIT_SCHEMA
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


@pytest.mark.parametrize("command, flag", [
    ("convexity", ["--csv", "rows.csv"]),
    ("convexity", ["--timings"]),
    ("pushforward", ["--hull-tol", "1e-8"]),
])
def test_removed_flags_are_rejected(tmp_path, command, flag):
    argv = [command, "--config", triangle_config(tmp_path), *flag]
    if command == "pushforward":
        argv += ["--matrix", write_json(tmp_path, "p.json", [[1.0, 1.0]])]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2  # argparse's usage error


def test_convexity_command(tmp_path, capsys):
    cfg = triangle_config(tmp_path)
    code = run(["convexity", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hullDistance"] <= 2e-6


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
    pytest.param("balance", "--vectors", {"space": {"dim": 2, "norm": "l2"}, "vectors": "abc"},
                 id="vectors-not-numbers"),
    pytest.param("select", "--problem",
                 {"sets": [[[0.0, 0.0], [1.0, 0.0]]], "targets": [[0.5, 0.0]]},
                 id="select-without-space"),
])
def test_schema_fault_exit_schema(tmp_path, capsys, command, flag, document):
    path = write_json(tmp_path, "input.json", document)
    assert run([command, flag, path]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["integrate", "convexity"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_hull_tol_zero_exit_schema_in_integrate_and_convexity(tmp_path, command, source):
    if source == "flag":
        argv = ["--config", triangle_config(tmp_path), "--hull-tol", "0"]
    else:
        argv = ["--config", triangle_config(tmp_path, hullTol=0.0)]
    assert run([command, *argv]) == EXIT_SCHEMA


@pytest.mark.parametrize("flags, overrides, code", [
    pytest.param([], {}, 0, id="default"),
    pytest.param(["--tol", "0"], {}, 3, id="flag-zero"),
    pytest.param([], {"tol": 1e-9}, 3, id="config"),
    pytest.param(["--tol", "1e-6"], {"tol": 1e-9}, 0, id="flag-over-config"),
])
def test_convexity_resolves_tol_like_integrate(tmp_path, monkeypatch, flags, overrides, code):
    # a hull defect of 1e-7 passes iff it is within 2 * tol
    monkeypatch.setattr("setint.cli.convexity_defect", lambda limit, hull_tol: (0.0, 1e-7))
    cfg = triangle_config(tmp_path, **overrides)
    assert run(["convexity", "--config", cfg, *flags]) == code


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag, key", [
    ("--tol", "tol"), ("--hull-tol", "hullTol"), ("--prune-delta", "deltaStep"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_setting_exit_schema(tmp_path, capsys, source, flag, key, value):
    if source == "flag":
        argv = ["--config", triangle_config(tmp_path), f"{flag}={value}"]  # "-inf" reads as a flag
    else:
        argv = ["--config", triangle_config(tmp_path, **{key: float(value)})]
    assert run(["integrate", *argv]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (flag if source == "flag" else f'"{key}"') in err


@pytest.mark.parametrize("flag, key", [
    ("--tol", "tol"), ("--hull-tol", "hullTol"), ("--prune-delta", "deltaStep"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["integrate", "convexity"])
def test_negative_setting_exit_schema(tmp_path, capsys, command, source, flag, key):
    if source == "flag":
        argv = ["--config", triangle_config(tmp_path), f"{flag}=-1"]  # "-1" reads as a flag
    else:
        argv = ["--config", triangle_config(tmp_path, **{key: -1.0})]
    assert run([command, *argv]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (flag if source == "flag" else f'"{key}"') in err


def test_zero_tol_stays_inconclusive(tmp_path):
    assert run(["integrate", "--config", triangle_config(tmp_path), "--tol", "0"]) == 3


def test_cached_parser_runs_like_a_fresh_one(tmp_path, capsys):
    cfg = triangle_config(tmp_path)
    calls = [
        ["integrate", "--config", cfg, "--tol", "0"],
        ["convexity", "--config", cfg],
        ["integrate", "--config", cfg],
        ["counterexample", "hilbert", "--partition", "8"],
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
    assert [code for code, _ in in_one_process] == [3, 0, 0, 0]


def test_pushforward_command(tmp_path, capsys):
    cfg = triangle_config(tmp_path)
    mat = tmp_path / "p.json"
    mat.write_text(json.dumps([[1.0, 1.0]]))
    assert run(["pushforward", "--config", cfg, "--matrix", str(mat)]) == 0


def test_pushforward_dimension_mismatch_exit_schema(tmp_path):
    cfg = triangle_config(tmp_path)
    mat = tmp_path / "p.json"
    mat.write_text(json.dumps([[1.0, 1.0, 1.0]]))
    assert run(["pushforward", "--config", cfg, "--matrix", str(mat)]) == EXIT_SCHEMA


def test_pushforward_malformed_matrix_exit_schema(tmp_path, capsys):
    mat = write_json(tmp_path, "p.json", [["a", "b"]])
    assert run(["pushforward", "--config", triangle_config(tmp_path), "--matrix", mat]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: ")


def test_balance_command(tmp_path, capsys):
    vecs = tmp_path / "v.json"
    vecs.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    code = run(["balance", "--vectors", str(vecs), "--norm", "l2",
                "--infratype", "2,1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["satisfied"] is True
    assert len(out["signs"]) == 3


def test_balance_resource_cap_exit_70(tmp_path):
    vecs = tmp_path / "v.json"
    vecs.write_text(json.dumps([[1.0, 0.0]] * 30))
    assert run(["balance", "--vectors", str(vecs), "--mode", "exact"]) == EXIT_RESOURCE


def test_infratype_command(tmp_path, capsys):
    code = run(["infratype", "--norm", "l2", "--dim", "3", "--trials", "5",
                "--nmax", "4", "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["estimate"] == 1.0


@pytest.mark.parametrize("argv", [
    ["infratype", "--norm", "l2", "--trials", "5"],
    ["counterexample", "hilbert", "--random", "--partition", "10"],
])
def test_negative_seed_exit_schema(capsys, argv):
    assert run([*argv, "--seed", "-1"]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: ")


def test_select_command(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "space": {"dim": 2, "norm": "l2", "infratype": [2.0, 1.0]},
        "sets": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        "targets": [[0.5, 0.0], [0.0, 0.5]],
    }))
    code = run(["select", "--problem", str(prob), "--mode", "exhaustive"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] <= out["bound"]


def test_counterexample_hilbert(tmp_path, capsys):
    code = run(["counterexample", "hilbert", "--partition", "100"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["sumNorm"] == pytest.approx(0.1, abs=1e-12)
    assert out["verdict"] == "converged"


def test_counterexample_l1_diverges_exit_2(tmp_path, capsys):
    code = run(["counterexample", "l1", "--n", "3", "--N", "16", "--bruteforce"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["verdict"] == "diverged"
    assert out["oracleAgrees"] is True
    assert out["bound"] > out["referenceBound"]
    assert out["convDistance"] <= 1e-8  # the value's hull is the simplex


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
    command=st.sampled_from(["integrate", "convexity", "pushforward"]),
    mutations=st.lists(
        st.tuples(st.sampled_from(FUZZ_PATHS),
                  st.sampled_from(["drop", *range(len(FUZZ_VALUES))])),
        min_size=1, max_size=2),
)
def test_fuzzed_config_exits_with_documented_code(tmp_path_factory, command, mutations):
    cfg = copy.deepcopy(FUZZ_BASE)
    for path, action in mutations:
        _mutate(cfg, path, action)
    work = tmp_path_factory.mktemp("fuzz")
    argv = [command, "--config", write_json(work, "cfg.json", cfg)]
    if command == "pushforward":
        argv += ["--matrix", write_json(work, "p.json", [[1.0, 1.0]])]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in FUZZ_EXIT_CODES, err.getvalue()
    assert "Traceback" not in err.getvalue()
