"""Layer tracing from outside the program.

`Tracer.install()` replaces each traced hardylab function, at every module
(or class) that binds it, with a wrapper that records a span: id, name,
parent id, start, end and a work count (rows, points, samples, panels).
Spans stay in memory; `uninstall()` puts every original binding back.
`layer_metrics()` reduces the spans to the benchmark's per-layer metrics.

Self time of a span is its duration minus the part of its interval that its
child spans cover.  Monte Carlo `draw` callbacks run by `chunked_mean` are
recorded as spans of the estimator that called `chunked_mean` (name suffix
`.draw`), on whichever thread runs them, so an estimator's self time holds
its sampling work and `chunked_mean`'s self time holds only the reduction.
Spans on worker threads sum thread time, not wall time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

_MARK = "__perfbench_span__"


def _rows(x) -> int:
    """Number of points in an array of coordinates (last axis) or an HPoint."""
    shape = np.shape(getattr(x, "coords", x))
    return int(math.prod(shape[:-1])) if len(shape) > 1 else 1


def _rows2(args, kwargs) -> int:
    return max(_rows(args[0]), _rows(args[1]))


def _ball_rows(args, kwargs) -> int:
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


# (span name, metric group, module, attribute, work count).  The metric group
# prefixes the per-layer metric names; a class attribute is given as
# "Class.attr".
TARGETS = (
    ("cli.emit_report", "cli.emit", "hardylab.cli", "emit_report", None),
    *(("lab." + f, "lab.self", "hardylab.lab", f, None)
      for f in ("sharpness_sweep", "bound_fuzz", "radialization_check", "duality_check",
                "weighted_sharpness", "geometry_selftest", "volume_check")),
    ("operators.norm_quotient", "operators.norm_quotient", "hardylab.operators",
     "norm_quotient", None),
    ("operators._nested_power_norm", "operators.nested_power_norm", "hardylab.operators",
     "_nested_power_norm", None),
    ("operators._hardy_norm_compact", "operators.hardy_norm_compact", "hardylab.operators",
     "_hardy_norm_compact", None),
    *(("operators." + f, "operators.radial_norm", "hardylab.operators", f, None)
      for f in ("_radial_hardy_norm", "_weighted_radial_norm")),
    *(("operators." + f, "operators.pairing", "hardylab.operators", f, None)
      for f in ("pairing_weighted_hardy", "pairing_weighted_cesaro")),
    ("operators.weight_bound_integral", "operators.weight_bound_integral",
     "hardylab.operators", "weight_bound_integral", None),
    ("measure.chunked_mean", "measure.chunked_mean", "hardylab.measure", "chunked_mean", None),
    ("measure.integrate_1d", "measure.integrate_1d", "hardylab.measure", "integrate_1d", None),
    ("measure.lp_norm", "measure.lp_norm", "hardylab.measure", "lp_norm", None),
    ("hgroup.koranyi_norm", "hgroup.koranyi_norm", "hardylab.hgroup", "koranyi_norm",
     lambda a, k: _rows(a[0])),
    ("hgroup.distance", "hgroup.distance", "hardylab.hgroup", "distance", _rows2),
    ("hgroup.group_law", "hgroup.group_law", "hardylab.hgroup", "group_law", _rows2),
    ("hgroup.sample_unit_ball", "hgroup.sample_unit_ball", "hardylab.hgroup",
     "sample_unit_ball", _ball_rows),
    ("funcs.bump_mixture", "funcs.bump_mixture", "hardylab.funcs", "BumpMixture.__call__",
     lambda a, k: int(a[1][0].shape[0])),
    *(("closedform." + f, "closedform", "hardylab.closedform", f, None)
      for f in ("sharp_constant", "ball_average_power", "outside_ball_average_power",
                "general_power_quotient", "power_family_quotient", "extremal_lower_bound",
                "indicator_quotient", "monomial_weight_characteristic",
                "truncated_weight_integral", "weighted_extremal_bound",
                "weighted_power_quotient", "weighted_family_quotient",
                "cesaro_power_quotient", "cesaro_family_quotient")),
)

# (metric name, unit, better); `layer_metrics` returns exactly these keys,
# with `trace.overhead_ratio` added by the caller.
LAYER_METRICS = (
    ("operators.nested_power_norm.s", "s", "lower"),
    ("measure.chunked_mean.calls", "count", "lower"),
    ("measure.chunked_mean.chunks", "count", "lower"),
    ("measure.chunked_mean.samples", "count", "lower"),
    ("measure.chunked_mean.s", "s", "lower"),
    ("measure.chunked_mean.samples_per_s", "1/s", "higher"),
    ("operators.hardy_norm_compact.calls", "count", "lower"),
    ("operators.hardy_norm_compact.s", "s", "lower"),
    ("hgroup.koranyi_norm.calls", "count", "lower"),
    ("hgroup.koranyi_norm.rows", "count", "lower"),
    ("hgroup.koranyi_norm.s", "s", "lower"),
    ("hgroup.koranyi_norm.rows_per_s", "1/s", "higher"),
    ("hgroup.distance.rows", "count", "lower"),
    ("hgroup.distance.s", "s", "lower"),
    ("hgroup.group_law.rows", "count", "lower"),
    ("hgroup.group_law.s", "s", "lower"),
    ("hgroup.sample_unit_ball.rows", "count", "lower"),
    ("hgroup.sample_unit_ball.s", "s", "lower"),
    ("hgroup.sample_unit_ball.rows_per_s", "1/s", "higher"),
    ("funcs.bump_mixture.points", "count", "lower"),
    ("funcs.bump_mixture.s", "s", "lower"),
    ("funcs.bump_mixture.points_per_s", "1/s", "higher"),
    ("operators.pairing.calls", "count", "lower"),
    ("operators.pairing.s", "s", "lower"),
    ("measure.integrate_1d.calls", "count", "lower"),
    ("measure.integrate_1d.panels", "count", "lower"),
    ("measure.integrate_1d.s", "s", "lower"),
    ("measure.integrate_1d.panels_per_s", "1/s", "higher"),
    ("operators.radial_norm.calls", "count", "lower"),
    ("operators.radial_norm.s", "s", "lower"),
    ("operators.norm_quotient.calls", "count", "lower"),
    ("operators.norm_quotient.s", "s", "lower"),
    ("operators.weight_bound_integral.s", "s", "lower"),
    ("measure.lp_norm.s", "s", "lower"),
    ("closedform.calls", "count", "lower"),
    ("closedform.s", "s", "lower"),
    ("lab.self.s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
)

def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Wraps the TARGETS of an imported hardylab and records spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, parent id, start, end, work, chunks]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.group = {name: group for name, group, *_ in TARGETS}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, parent, work, fn, args, kwargs, chunks=0, span_id=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1][0] if stack else 0
        rec = [span_id or next(self._ids), name, parent, 0.0, 0.0, work, chunks]
        stack.append(rec)
        rec[3] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = perf_counter()
            stack.pop()
            self.spans.append(rec)

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = count(args, kwargs) if count else 0
            return tracer._call(name, None, work, fn, args, kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _wrap_chunked_mean(self, name: str, fn):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            stack = tracer._stack()
            owner = (stack[-1][1] if stack else name) + ".draw"
            tracer.group.setdefault(owner, tracer.group[owner[: -len(".draw")]])
            span_id = next(tracer._ids)
            draw = a["draw"]

            def traced_draw(rng, k):  # may run on a pool thread: parent given explicitly
                return tracer._call(owner, span_id, k, draw, (rng, k), {})

            a["draw"] = traced_draw
            chunks = -(-int(a["samples"]) // int(a["chunk_size"]))
            return tracer._call(name, None, int(a["samples"]), fn, bound.args, bound.kwargs,
                                chunks, span_id)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _wrap_panel(self, fn):
        """Counts evaluated quadrature panels (not power close-outs) on the
        innermost open span, which is the integrate_1d call that owns them."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                stack[-1][5] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- installation ------------------------------------------------------

    def _bind_everywhere(self, original, wrapper) -> None:
        for mod in _hardylab_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for name, _group, module, attr, count in TARGETS:
            owner, attr = _resolve(module, attr)
            original = getattr(owner, attr)
            if name == "measure.chunked_mean":
                wrapper = self._wrap_chunked_mean(name, original)
            else:
                wrapper = self._wrap(name, original, count)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._bind_everywhere(original, wrapper)
        original = sys.modules["hardylab.measure"]._panel
        self._bind_everywhere(original, self._wrap_panel(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        left = [f"{getattr(o, '__name__', o)}.{a}" for o in _bindable() for a, v in vars(o).items()
                if getattr(v, _MARK, False)]
        if left:
            raise RuntimeError(f"trace wrappers left behind: {left}")

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in spans:
            kids[s[2]].append((s[3], s[4]))
        calls = defaultdict(int)
        work = defaultdict(int)
        chunks = defaultdict(int)
        self_s = defaultdict(float)
        outer_s = defaultdict(float)  # inclusive time of outermost spans per group
        for s in spans:
            group = self.group[s[1]]
            self_s[group] += (s[4] - s[3]) - _covered(kids.get(s[0], ()), s[3], s[4])
            if s[1].endswith(".draw"):
                continue
            calls[group] += 1
            work[group] += s[5]
            chunks[group] += s[6]
            p = by_id.get(s[2])
            while p is not None and self.group[p[1]] != group:
                p = by_id.get(p[2])
            if p is None:
                outer_s[group] += s[4] - s[3]

        out: dict[str, float] = {}
        for metric, _unit, _better in LAYER_METRICS:
            group, kind = metric.rsplit(".", 1)
            if kind == "s":
                out[metric] = self_s[group]
            elif kind == "calls":
                out[metric] = calls[group]
            elif kind == "chunks":
                out[metric] = chunks[group]
            elif kind.endswith("_per_s"):
                t = outer_s[group]
                out[metric] = work[group] / t if t > 0 else 0.0
            else:  # the group's work count: rows, points, samples or panels
                out[metric] = work[group]
        return out

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line: id, name, parent, start, end, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:6]) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` inside [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _hardylab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hardylab" or n.startswith("hardylab."))]


def _bindable():
    mods = _hardylab_modules()
    classes = [v for m in mods for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("hardylab")]
    return mods + classes
