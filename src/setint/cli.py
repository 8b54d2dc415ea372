"""Command-line front end.

Subcommands: integrate, convexity, pushforward, balance, infratype, select,
counterexample.  JSON is the machine interface, CSV the plotting interface;
re-running with the same config and seed yields byte-identical files (the CSV
ms column is zero unless --timings is given, which is documented to break
byte-identity).

Exit codes: 0 converged / 2 diverged / 3 inconclusive for report commands;
1 when a solver fails to certify; 64 on schema or argument violations (a
non-finite or negative tol, hull tolerance or pruning radius among them); 70
on resource limits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import balance as bal
from . import counterexamples as cex
from .integrate import (
    convexity_defect,
    integrate as run_integrate,
    pushforward_check,
)
from .errors import (
    ConfigError,
    InvalidArgumentError,
    ResourceLimitError,
    SolverFailureError,
    UnsupportedOperationError,
    schema_faults,
)
from .partition import eval_mf, mf_from_json, random_partition, uniform_partition, validate_bounds
from .setops import PointSet, hausdorff_hulls, pointset_from_json
from .spaces import SpaceDescriptor, c1_constant, space_from_json

EXIT_SCHEMA = 64
EXIT_RESOURCE = 70

CONFIG_VERSION = "v1"


def _dump(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse_schedule(spec: str) -> list[int]:
    """'2,4,8' or 'uniform:2^1..2^8' (all powers of two in the range)."""
    spec = spec.strip()
    if spec.startswith("uniform:"):
        spec = spec[len("uniform:"):]
    try:
        if ".." in spec and "^" in spec:
            lo, hi = spec.split("..")
            a = int(lo.split("^")[1])
            b = int(hi.split("^")[1])
            base = int(lo.split("^")[0])
            return [base ** k for k in range(a, b + 1)]
        if "^" in spec:
            base, k = spec.split("^")
            return [int(base) ** int(k)]
        return [int(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse schedule {spec!r}") from exc


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc}") from exc


def _load_config(path: str) -> dict:
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise InvalidArgumentError("config must be a JSON object")
    if cfg.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise InvalidArgumentError(f'unsupported config version {cfg.get("version")!r}')
    if "multifunction" not in cfg:
        raise InvalidArgumentError('config missing "multifunction"')
    with schema_faults('config key "seed"'):
        cfg["seed"] = int(cfg.get("seed", 0))
    if cfg["seed"] < 0:
        raise InvalidArgumentError('config key "seed" must be nonnegative')
    return cfg


def _build_schedule(cfg, args):
    raw = getattr(args, "schedule", None) or cfg.get("schedule")
    if raw is None:
        raise InvalidArgumentError("no schedule given (config or --schedule)")
    tag_rule = getattr(args, "tag_rule", None) or cfg.get("tagRule", "mid")
    seed = cfg["seed"] if getattr(args, "seed", None) is None else args.seed
    with schema_faults("schedule"):
        counts = parse_schedule(raw) if isinstance(raw, str) else [int(x) for x in raw]
        # an interval count too large for an array is malformed, too
        return [uniform_partition(n, tag_rule, seed=None if tag_rule != "random" else seed + i)
                for i, n in enumerate(counts)]


#: Numeric settings: command-line attribute -> (config key, default).
_SETTINGS = {"tol": ("tol", 1e-6), "prune_delta": ("deltaStep", 0.0), "hull_tol": ("hullTol", 1e-8)}


def _setting(args, cfg: dict, attr: str) -> float:
    """The command-line value if given, else the config key, else the default;
    it must be finite and nonnegative."""
    key, default = _SETTINGS[attr]
    if getattr(args, attr) is not None:
        value, name = getattr(args, attr), "--" + attr.replace("_", "-")
    else:
        with schema_faults(f'config key "{key}"'):
            value, name = float(cfg.get(key, default)), f'config key "{key}"'
    if not 0 <= value < math.inf:
        raise InvalidArgumentError(f"{name} must be finite and nonnegative, got {value}")
    return value


def _load_problem(args):
    """Config, multifunction (declared bounds checked) and schedule of a
    report command."""
    cfg = _load_config(args.config)
    f = mf_from_json(cfg["multifunction"])
    validate_bounds(f, samples=100, seed=cfg["seed"])
    return cfg, f, _build_schedule(cfg, args)


def _report_outputs(report, args):
    payload = report.to_json(timings=args.timings)
    text = _dump(payload, args.json)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv(timings=args.timings))
    return text


def _cmd_integrate(args) -> int:
    cfg, f, schedule = _load_problem(args)
    candidate = None
    cand_obj = cfg.get("candidate")
    if args.candidate:
        cand_obj = _read_json(args.candidate)
    if cand_obj is not None:
        with schema_faults("candidate"):
            candidate = (pointset_from_json(cand_obj) if isinstance(cand_obj, dict)
                         else PointSet(f.space, np.asarray(cand_obj, dtype=float)))
    report = run_integrate(
        f,
        schedule,
        candidate=candidate,
        tol=_setting(args, cfg, "tol"),
        delta_step=_setting(args, cfg, "prune_delta"),
        hull_tol=_setting(args, cfg, "hull_tol"),
    )
    sys.stdout.write(_report_outputs(report, args))
    sys.stdout.write(f"verdict: {report.verdict.status}\n")
    return report.exit_code


def _cmd_convexity(args) -> int:
    cfg, f, schedule = _load_problem(args)
    tol = _setting(args, cfg, "tol")
    hull_tol = _setting(args, cfg, "hull_tol")
    report = run_integrate(f, schedule, tol=tol, delta_step=_setting(args, cfg, "prune_delta"),
                           hull_tol=hull_tol)
    limit = report.verdict.limit
    finite, hull = convexity_defect(limit, hull_tol)
    out = {
        "finiteDistance": finite,
        "hullDistance": hull,
        "pruneError": limit.err_bound,
        "cardinality": len(limit.base),
    }
    sys.stdout.write(_dump(out, args.json))
    return 0 if hull <= 2 * tol else 3


def _cmd_pushforward(args) -> int:
    cfg, f, schedule = _load_problem(args)
    with schema_faults("matrix"):
        p = np.asarray(_read_json(args.matrix), dtype=float)
    report = pushforward_check(
        f, p, schedule,
        tol=_setting(args, cfg, "tol"),
        delta_step=_setting(args, cfg, "prune_delta"),
    )
    sys.stdout.write(_report_outputs(report, args))
    return report.exit_code


def _load_vectors(path: str):
    obj = _read_json(path)
    with schema_faults("vectors"):
        if isinstance(obj, dict):
            return space_from_json(obj["space"]), np.asarray(obj["vectors"], dtype=float)
        return None, np.asarray(obj, dtype=float)


def _cmd_balance(args) -> int:
    space, xs = _load_vectors(args.vectors)
    if space is None:
        infratype = tuple(float(x) for x in args.infratype.split(",")) if args.infratype else None
        space = SpaceDescriptor(xs.shape[1], args.norm, infratype)
    if args.mode == "exact":
        signs, value = bal.sign_balance_exact(xs, space)
    else:
        signs, value = bal.sign_balance_greedy(xs, space)
    out = {"value": value, "signs": signs.tolist()}
    if space.infratype is not None:
        p, c = space.infratype
        from .spaces import norms
        bound = c * float((norms(space, xs) ** p).sum() ** (1.0 / p))
        out["bound"] = bound
        out["satisfied"] = bool(value <= bound + 1e-12)
    sys.stdout.write(_dump(out, args.json))
    return 0


def _seed(args) -> int:
    """The --seed of a command that draws random numbers with it."""
    if args.seed < 0:
        raise InvalidArgumentError("--seed must be nonnegative")
    return args.seed


def _cmd_infratype(args) -> int:
    space = SpaceDescriptor(args.dim, args.norm)
    est = bal.estimate_infratype_constant(space, args.p, args.trials, args.nmax, _seed(args))
    out = {
        "estimate": est,
        "p": args.p,
        "norm": args.norm,
        "dim": args.dim,
        "trials": args.trials,
        "seed": args.seed,
        "interpretation": "certified lower bound on the best constant",
    }
    sys.stdout.write(_dump(out, args.json))
    return 0


def _cmd_select(args) -> int:
    obj = _read_json(args.problem)
    with schema_faults("selection problem"):
        space = space_from_json(obj["space"])
        sets = tuple(PointSet(space, np.asarray(p, dtype=float)) for p in obj["sets"])
        prob = bal.SelectionProblem(sets, np.asarray(obj["targets"], dtype=float))
    points, value = bal.select_points(prob, args.mode)
    out = {"points": points.tolist(), "value": value}
    ds = prob.diameters()
    if space.infratype is not None:
        p, _ = space.infratype
        bound = c1_constant(space) * float((ds ** p).sum() ** (1.0 / p))
        out["bound"] = bound
        out["satisfied"] = bool(value <= bound + 1e-12)
    sys.stdout.write(_dump(out, args.json))
    return 0


def _cmd_counterexample(args) -> int:
    if args.family == "hilbert":
        if args.random:
            t = random_partition(args.partition, seed=_seed(args))
        else:
            t = uniform_partition(args.partition, "mid")
        value = cex.hilbert_example_sum_norm(t, distinct_tags=not args.shared_tags)
        out = {
            "sumNorm": value,
            "mesh": t.mesh,
            "meshBound": float(np.sqrt(t.mesh)),
            "verdict": "converged" if value <= np.sqrt(t.mesh) + 1e-12 else "inconclusive",
        }
        sys.stdout.write(_dump(out, args.json))
        return 0 if out["verdict"] == "converged" else 3
    cfg = cex.L1CounterexampleConfig(args.n, args.N)
    bound = cex.l1_counterexample_lower_bound(cfg)
    out = {
        "bound": bound,
        "referenceBound": cex.DIVERGENCE_BOUND,
        "parts": cfg.parts,
        "witnessSupport": cfg.witness_support,
    }
    if args.bruteforce:
        out["bruteforce"] = cex.l1_counterexample_bruteforce(cfg)
        out["oracleAgrees"] = bool(abs(out["bruteforce"] - bound) <= 1e-12)
    f = cex.l1_counterexample_eval(cfg)
    out["convDistance"] = hausdorff_hulls(eval_mf(f, 0.0), cex.simplex_generators(cfg))
    out["verdict"] = "diverged" if bound >= cex.DIVERGENCE_BOUND else "inconclusive"
    sys.stdout.write(_dump(out, args.json))
    return 2 if out["verdict"] == "diverged" else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="setint", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--schedule", help="interval counts: '2,4,8' or 'uniform:2^1..2^8'")
        p.add_argument("--tag-rule", choices=("left", "right", "mid", "random"))
        p.add_argument("--json", help="write JSON output to this path")
        p.add_argument("--tol", type=float, default=None, help="convergence tolerance (default 1e-6)")
        p.add_argument("--prune-delta", type=float, default=None,
                       help="per-step pruning radius (default from config, else 0)")
        p.add_argument("--seed", type=int, default=None)

    def hull_tol(p):
        p.add_argument("--hull-tol", type=float, default=None,
                       help="hull-distance certificate tolerance (default 1e-8)")

    def table(p):
        p.add_argument("--csv", help="write the per-mesh CSV table to this path")
        p.add_argument("--timings", action="store_true",
                       help="emit wall-clock times (breaks byte-identical reruns)")

    p = sub.add_parser("integrate", help="run a convergence schedule")
    p.add_argument("--candidate", help="JSON file with candidate limit points")
    common(p)
    hull_tol(p)
    table(p)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("convexity", help="convexity defect of a computed limit")
    common(p)
    hull_tol(p)
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser("pushforward", help="compare P(S(F,T)) with S(P o F, T)")
    p.add_argument("--matrix", required=True, help="JSON file with the matrix rows")
    common(p)
    table(p)
    p.set_defaults(func=_cmd_pushforward)

    p = sub.add_parser("balance", help="sign balancing of a vector family")
    p.add_argument("--vectors", required=True, help="JSON array of vectors, or {space, vectors}")
    p.add_argument("--norm", choices=("l1", "l2", "linf"), default="l2")
    p.add_argument("--infratype", help="declared 'p,C' pair for the bound check")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("infratype", help="estimate an infratype constant lower bound")
    p.add_argument("--norm", choices=("l1", "l2", "linf"), required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_infratype)

    p = sub.add_parser("select", help="pick representatives close in sum to hull targets")
    p.add_argument("--problem", required=True, help="JSON {space, sets, targets}")
    p.add_argument("--mode", choices=("greedy", "exhaustive"), default="greedy")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("counterexample", help="the two explicit constructions")
    p.add_argument("family", choices=("hilbert", "l1"))
    p.add_argument("--partition", type=int, default=100, help="hilbert: interval count")
    p.add_argument("--random", action="store_true", help="hilbert: random partition")
    p.add_argument("--shared-tags", action="store_true",
                   help="hilbert: allow coinciding tags")
    p.add_argument("--n", type=int, default=3, help="l1: partition exponent")
    p.add_argument("--N", type=int, default=16, help="l1: truncation dimension")
    p.add_argument("--bruteforce", action="store_true", help="l1: run the oracle too")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_counterexample)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, ConfigError, UnsupportedOperationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except SolverFailureError as exc:
        sys.stderr.write(f"solver failure: {exc} (value={exc.value}, gap={exc.gap})\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
