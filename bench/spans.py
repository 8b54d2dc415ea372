"""In-memory spans around setint's public functions, recorded from outside.

`Tracer.installed()` replaces each traced function by a wrapper in every
loaded `setint` module that holds it (`setint.cli` imports `integrate` as
`run_integrate`, `setint.integrate` imports the set operations, and the
package re-exports most of them), and restores the originals on exit.  The
package attribute `setint.integrate` is the function, so the module is reached
through `sys.modules`.  A target that no longer exists is reported as absent.

Each span is (name, start, end, parent span index, job id, counters, error).
Spans assume one thread: the benchmark pins SETINT_THREADS=1.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


def _pairs(args, kwargs, result):
    return {"pairs": len(args[0]) * len(args[1])}


def _minkowski(args, kwargs, result):
    return {"pairs": len(args[0]) * len(args[1]), "points_out": len(result)}


def _prune(args, kwargs, result):
    return {"points_in": len(args[0]), "kept": len(result.base)}


def _generators(args, kwargs, result):
    return {"generators": len(args[0]) + len(args[1])}


def _lp_cells(args, kwargs, result):
    bound = dict(zip(("c", "a_ub", "b_ub", "a_eq"), args)) | kwargs
    rows = sum(len(bound[k]) for k in ("a_ub", "a_eq") if bound.get(k) is not None)
    return {"cells": rows * len(bound["c"])}


def _hull_query_name(args, kwargs):
    space = args[0] if args else kwargs["space"]
    return f"setops.hull_query.{space.norm}"


#: (module, function, span name or name(args, kwargs), counters(args, kwargs, result)).
TARGETS = (
    ("setint.cli", "run", "cli.run", None),
    ("setint.partition", "validate_bounds", "partition.validate_bounds", None),
    ("setint.integrate", "integrate", "integrate.integrate", None),
    ("setint.integrate", "riemann_sum", "integrate.riemann_sum", None),
    ("setint.setops", "minkowski", "setops.minkowski", _minkowski),
    ("setint.setops", "scale", "setops.scale", None),
    ("setint.setops", "prune", "setops.prune", _prune),
    ("setint.setops", "hausdorff", "setops.hausdorff", _pairs),
    ("setint.setops", "hausdorff_hulls", "setops.hausdorff_hulls", _generators),
    ("setint.setops", "dist_point_to_hull", _hull_query_name, None),
    ("setint.simplex", "solve_lp", "simplex.solve_lp", _lp_cells),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self.absent = [
            f"{mod}.{fn}" for mod, fn, _, _ in TARGETS
            if not callable(getattr(sys.modules.get(mod), fn, None))
        ]

    def _wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.job, None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span[5] = counters(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "setint" or key.startswith("setint."))]
        swaps = []
        for mod, fn, name, counters in TARGETS:
            original = getattr(sys.modules.get(mod), fn, None)
            if not callable(original):
                continue
            wrapper = self._wrap(original, name, counters)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        swaps.append((m, attr, original))
                        setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            for m, attr, original in reversed(swaps):
                setattr(m, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job, counters, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "counters": counters,
                                     "error": error}) + "\n")


class _Layer:
    __slots__ = ("calls", "s", "child_s", "counters", "errors")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.child_s = 0.0
        self.counters: dict[str, float] = {}
        self.errors = 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit): the mean per traced job of each
    total (`.s`, `.self_s`, call and point counts), so that a run which fits
    more jobs into its time does not report larger figures; ratios are taken
    of the totals.  `.self_s` is a span's time minus its direct children's."""
    layers: dict[str, _Layer] = {}
    child_s = [0.0] * len(spans)
    queries_under_hulls = 0
    for name, start, end, parent, _, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
            if name.startswith("setops.hull_query.") and spans[parent][0] == "setops.hausdorff_hulls":
                queries_under_hulls += 1
    for i, (name, start, end, _, _, counters, error) in enumerate(spans):
        layer = layers.setdefault(name, _Layer())
        layer.calls += 1
        layer.s += end - start
        layer.child_s += child_s[i]
        layer.errors += error is not None
        for key, value in (counters or {}).items():
            layer.counters[key] = layer.counters.get(key, 0) + value

    def get(name: str) -> _Layer:
        return layers.get(name) or _Layer()

    cli, integ, rsum = get("cli.run"), get("integrate.integrate"), get("integrate.riemann_sum")
    mink, prune, haus, hulls = (get("setops." + n) for n in ("minkowski", "prune", "hausdorff", "hausdorff_hulls"))
    lp = get("simplex.solve_lp")
    out = {
        "cli.run.s": cli.s,
        "cli.run.self_s": cli.s - cli.child_s,
        "partition.validate_bounds.s": get("partition.validate_bounds").s,
        "integrate.integrate.s": integ.s,
        "integrate.integrate.self_s": integ.s - integ.child_s,
        "integrate.riemann_sum.calls": rsum.calls,
        "integrate.riemann_sum.s": rsum.s,
        "integrate.distance_phase.s": integ.s - rsum.s,
        "setops.minkowski.calls": mink.calls,
        "setops.minkowski.s": mink.s,
        "setops.minkowski.pairs": mink.counters.get("pairs", 0),
        "setops.minkowski.points_out": mink.counters.get("points_out", 0),
        "setops.minkowski.dedup_ratio": _ratio(mink.counters.get("points_out", 0), mink.counters.get("pairs", 0)),
        "setops.scale.s": get("setops.scale").s,
        "setops.prune.calls": prune.calls,
        "setops.prune.s": prune.s,
        "setops.prune.points_in": prune.counters.get("points_in", 0),
        "setops.prune.kept_ratio": _ratio(prune.counters.get("kept", 0), prune.counters.get("points_in", 0)),
        "setops.hausdorff.calls": haus.calls,
        "setops.hausdorff.s": haus.s,
        "setops.hausdorff.pairs": haus.counters.get("pairs", 0),
        "setops.hausdorff_hulls.calls": hulls.calls,
        "setops.hausdorff_hulls.s": hulls.s,
        "setops.hausdorff_hulls.self_s": hulls.s - hulls.child_s,
        "setops.hausdorff_hulls.generators": hulls.counters.get("generators", 0),
        "setops.hausdorff_hulls.query_ratio": _ratio(queries_under_hulls, hulls.counters.get("generators", 0)),
    }
    failed = 0
    for norm in ("l1", "l2", "linf"):
        q = get(f"setops.hull_query.{norm}")
        out[f"setops.hull_query.{norm}.calls"] = q.calls
        out[f"setops.hull_query.{norm}.s"] = q.s
        if norm != "l2":
            out[f"setops.hull_query.{norm}.self_s"] = q.s - q.child_s
        failed += q.errors
    out["setops.hull_query.failed"] = failed
    out["simplex.solve_lp.calls"] = lp.calls
    out["simplex.solve_lp.s"] = lp.s
    out["simplex.solve_lp.cells"] = lp.counters.get("cells", 0)
    return {name: (value if name.endswith("_ratio") else value / jobs, _unit(name))
            for name, value in out.items()}


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    return "count"
