"""Command-line front end.

Subcommands: integrate, balance, infratype, select.  The l1
counterexample family runs through integrate, as a counterexample_l1 body.
JSON is the machine interface, CSV the plotting interface.  An integrate
run is reproducible from its config alone: the config holds every setting
(multifunction, schedule, tag rule, candidate, seed and tolerances), and the
flags only name the output files and ask for --timings.  Re-running a config
yields byte-identical files (the CSV ms column is zero unless --timings is
given, which is documented to break byte-identity).
balance and select read documents whose space may declare an infratype
[p, C]; a declaration adds its bound and whether it holds to the output.

Exit codes: 0 converged / 2 diverged / 3 inconclusive for report commands;
1 when a solver fails to certify; 64 on schema or argument violations (a
non-finite or negative tol, hull tolerance, pruning radius or declared bound
among them, an infratype exponent outside (1, 2], a zero hull tolerance for
a hull body, and an output path that cannot be written); 70 on resource
limits (a schedule or partition of more than partition.MAX_INTERVALS
intervals, a counterexample_l1 dimension above partition.L1_DIM_CAP, a
witness cardinality with more digits than Python converts to a string, and
an allocation that runs out of memory, among them).

A schedule's interval counts are checked before any partition is built:
they must be whole numbers that strictly increase from 1 (else 64), and
then add up to at most partition.MAX_INTERVALS (else 70).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import balance as bal
from .integrate import integrate as run_integrate
from .errors import (
    ConfigError,
    InvalidArgumentError,
    ResourceLimitError,
    SolverFailureError,
    schema_faults,
)
from .partition import (
    MAX_INTERVALS,
    check_interval_count,
    mf_from_json,
    uniform_partition,
    validate_bounds,
)
from .setops import PointSet, pointset_from_json
from .spaces import SpaceDescriptor, c1_from, infratype_from_json, norms, space_from_json

EXIT_SCHEMA = 64
EXIT_RESOURCE = 70

CONFIG_VERSION = "v1"


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc}") from exc


def _dump(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        _write(path, text)
    return text


def parse_schedule(spec: str) -> list[int]:
    """'2,4,8' or 'uniform:2^1..2^8' (all powers of two in the range); both
    ends of a range must name the same base.  The counts are checked as
    _check_counts checks them."""
    body = spec.strip()
    if body.startswith("uniform:"):
        body = body[len("uniform:"):]
    listed = ".." not in body and "^" not in body
    try:
        if listed:
            counts = [int(tok) for tok in body.split(",") if tok]
        else:
            ends = [_power(tok) for tok in body.split("..")]
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse schedule {spec!r}") from exc
    if not listed:
        if len(ends) > 2 or ends[0][0] != ends[-1][0]:
            raise InvalidArgumentError(f"schedule {spec!r} is not one range of powers of one base")
        (base, lo), (_, hi) = ends[0], ends[-1]
        counts = _power_range(spec, base, lo, hi)
    return _check_counts(counts)


def _power_range(spec: str, base: int, lo: int, hi: int) -> list[int]:
    """base^k for k = lo..hi: the counts of a range.

    Exponents must be nonnegative, and a range of more than one count needs a
    base of at least 2.  The powers stop at the first one whose running total
    passes MAX_INTERVALS (ResourceLimitError).  A single power past the cap
    is sized by its exponent and sign, and never computed.
    """
    if lo > hi:
        return []
    if lo < 0:
        raise InvalidArgumentError(f"schedule {spec!r} has a negative exponent")
    if lo < hi and base < 2:
        raise InvalidArgumentError(f"schedule {spec!r} is a range of powers of a base below 2")
    if abs(base) >= 2 and lo >= MAX_INTERVALS.bit_length():
        # |base^lo| >= 2^lo > MAX_INTERVALS
        if base < 0 and lo % 2:
            raise InvalidArgumentError(f"schedule {spec!r} has a count below 1")
        check_interval_count(MAX_INTERVALS + 1, "a schedule")
    counts = []
    for k in range(lo, hi + 1):
        counts.append(base ** k)
        check_interval_count(sum(counts), "a schedule")
    return counts


def _power(token: str) -> tuple[int, int]:
    """'b^k' as (b, k)."""
    base, k = token.split("^")
    return int(base), int(k)


def _check_counts(counts: list[int]) -> list[int]:
    """A schedule's interval counts, checked before any partition is built:
    they must strictly increase from 1 (InvalidArgumentError), and then add
    up to at most MAX_INTERVALS (ResourceLimitError)."""
    for i, n in enumerate(counts):
        if n <= (counts[i - 1] if i else 0):
            raise InvalidArgumentError(
                f"schedule counts must strictly increase from 1, and count {i + 1} "
                f"of {len(counts)} does not"
            )
    check_interval_count(sum(counts), "a schedule")
    return counts


def _is_whole(x) -> bool:
    """An int (not a bool) or a float with an integer value: a JSON number
    that is a whole count or seed."""
    return type(x) is int or (type(x) is float and x.is_integer())


def _schedule_counts(raw) -> list[int]:
    """The checked interval counts of a schedule: a string for
    parse_schedule, or a list of whole numbers."""
    if isinstance(raw, str):
        return parse_schedule(raw)
    if not isinstance(raw, list) or not all(_is_whole(x) for x in raw):
        raise InvalidArgumentError(f"schedule {raw!r} is not a list of whole interval counts")
    return _check_counts([int(x) for x in raw])


def _read_json(path: str):
    """The JSON document at path.  Malformed JSON and an integer of more
    digits than Python converts (4,300 by default) raise ValueError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc}") from exc


def _load_config(path: str) -> dict:
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise InvalidArgumentError("config must be a JSON object")
    if cfg.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise InvalidArgumentError(f'unsupported config version {cfg.get("version")!r}')
    if "multifunction" not in cfg:
        raise InvalidArgumentError('config missing "multifunction"')
    seed = cfg.get("seed", 0)
    if not _is_whole(seed) or seed < 0:
        raise InvalidArgumentError(f'config key "seed" must be a whole number of at least 0, '
                                   f'got {seed!r}')
    cfg["seed"] = int(seed)
    return cfg


def _build_schedule(cfg: dict):
    raw = cfg.get("schedule")
    if raw is None:
        raise InvalidArgumentError('config missing "schedule"')
    tag_rule, seed = cfg.get("tagRule", "mid"), cfg["seed"]
    with schema_faults("schedule"):
        return [uniform_partition(n, tag_rule, seed=None if tag_rule != "random" else seed + i)
                for i, n in enumerate(_schedule_counts(raw))]


#: Numeric settings: integrate's keyword -> config key.  A key the config
#: omits is not passed, so it keeps integrate's default.
_SETTINGS = {"tol": "tol", "delta_step": "deltaStep", "hull_tol": "hullTol"}


def _setting(cfg: dict, key: str) -> float:
    """The config's value of a numeric setting: a JSON number (an int, not a
    bool, or a float), finite and nonnegative."""
    value = cfg[key]
    if type(value) not in (int, float):
        raise InvalidArgumentError(f'config key "{key}" must be a number, got {value!r}')
    if not 0 <= value <= sys.float_info.max:  # so that float() cannot overflow
        raise InvalidArgumentError(
            f'config key "{key}" must be finite and nonnegative, got {value}')
    return float(value)


def _cmd_integrate(args) -> int:
    cfg = _load_config(args.config)
    f = mf_from_json(cfg["multifunction"])
    validate_bounds(f, seed=cfg["seed"])
    schedule = _build_schedule(cfg)
    candidate = None
    cand_obj = cfg.get("candidate")
    if cand_obj is not None:
        with schema_faults("candidate"):
            candidate = (pointset_from_json(cand_obj) if isinstance(cand_obj, dict)
                         else PointSet(f.space, np.asarray(cand_obj, dtype=float)))
    settings = {kw: _setting(cfg, key) for kw, key in _SETTINGS.items() if key in cfg}
    report = run_integrate(f, schedule, candidate=candidate, **settings)
    text = _dump(report.to_json(timings=args.timings), args.json)
    if args.csv:
        _write(args.csv, report.to_csv(timings=args.timings))
    sys.stdout.write(text)
    sys.stdout.write(f"verdict: {report.verdict.status}\n")
    return report.exit_code


def _cmd_balance(args) -> int:
    obj = _read_json(args.vectors)
    with schema_faults("vectors"):
        space, infratype = space_from_json(obj["space"]), infratype_from_json(obj["space"])
        xs = np.asarray(obj["vectors"], dtype=float)
    if xs.ndim != 2:
        raise InvalidArgumentError(f"vectors must be a 2-D array, got shape {xs.shape}")
    if args.mode == "exact":
        signs, value = bal.sign_balance_exact(xs, space)
    else:
        signs, value = bal.sign_balance_greedy(xs, space)
    out = {"value": value, "signs": signs.tolist()}
    if infratype is not None:
        p, c = infratype
        bound = c * float((norms(space, xs) ** p).sum() ** (1.0 / p))
        out["bound"] = bound
        out["satisfied"] = bool(value <= bound + 1e-12)
    sys.stdout.write(_dump(out, args.json))
    return 0


def _cmd_infratype(args) -> int:
    if args.seed < 0:
        raise InvalidArgumentError("--seed must be nonnegative")
    space = SpaceDescriptor(args.dim, args.norm)
    est = bal.estimate_infratype_constant(space, args.p, args.trials, args.nmax, args.seed)
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
        space, infratype = space_from_json(obj["space"]), infratype_from_json(obj["space"])
        sets = tuple(PointSet(space, np.asarray(p, dtype=float)) for p in obj["sets"])
        prob = bal.SelectionProblem(sets, np.asarray(obj["targets"], dtype=float))
    points, value = bal.select_points(prob, args.mode)
    out = {"points": points.tolist(), "value": value}
    ds = prob.diameters()
    if infratype is not None:
        p, c = infratype
        bound = c1_from(p, c) * float((ds ** p).sum() ** (1.0 / p))
        out["bound"] = bound
        out["satisfied"] = bool(value <= bound + 1e-12)
    sys.stdout.write(_dump(out, args.json))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="setint", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="run a convergence schedule")
    p.add_argument("--config", required=True, help="JSON config: every setting of the run")
    p.add_argument("--json", help="write JSON output to this path")
    p.add_argument("--csv", help="write the per-mesh CSV table to this path")
    p.add_argument("--timings", action="store_true",
                   help="emit wall-clock times (breaks byte-identical reruns)")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("balance", help="sign balancing of a vector family")
    p.add_argument("--vectors", required=True, help="JSON {space, vectors}")
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

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, ConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    except (ResourceLimitError, MemoryError) as exc:
        sys.stderr.write(f"resource limit: {str(exc) or 'out of memory'}\n")
        return EXIT_RESOURCE
    except SolverFailureError as exc:
        sys.stderr.write(f"solver failure: {exc} (value={exc.value}, gap={exc.gap})\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
