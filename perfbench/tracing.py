"""Per-layer tracing, installed from outside the library.

Every public function of the traced frenetkit modules is replaced, in each
module namespace that binds it (``cli.analyze`` and ``spline2d.fresnel``
are rebindings of ``frames.analyze`` and ``specfun.fresnel``), by a wrapper
attributed to the module that defines it.  Functions named in ``SPANS``
get a span: start, end and self time, the span duration minus the time its
child spans cover.  Every other public function only gets a call counter,
because several of them run once per row or per point and a span there
would distort the time of what it wraps.  ``uninstall`` restores the
original bindings; nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "io",
    "curve_core",
    "frames",
    "ngon_circle",
    "reconstruct",
    "discretize2d",
    "spline2d",
    "specfun",
    "svg",
)

SPANS = (
    "curve_core.refine",
    "curve_core.validate_refined",
    "frames.edge_frames",
    "frames.vertex_frames",
    "frames.turn_twist_angles",
    "frames.curvature_torsion",
    "frames.frenet_residual",
    "reconstruct.reconstruct",
    "reconstruct.congruent",
    "io.load_curve",
    "io.curve_to_json",
    "io.spline_to_json",
    "discretize2d.find_inflections",
    "discretize2d.discretize_inscribed",
    "discretize2d.discretize_circumscribed",
    "discretize2d.discretize_centered",
    "spline2d.elastica_bvp",
    "spline2d.clothoid_g1_fit",
    "spline2d.spline_inscribed",
    "spline2d.spline_circumscribed",
    "spline2d.spline_centered",
    "spline2d.g1_defects",
    "svg.render_svg",
)
# spans not bound to one public function: the op itself, whose self time is
# click parsing, report building and json.dumps; the benchmark's own speed
# samples, which interrupt the ops; and the built-in curve constructors
# reached through discretize2d.BUILTIN_CURVES
ROOT = "cli.self"
SAMPLING = "perfbench.speed_sample"
BUILTIN = "discretize2d.builtin_curve"
CURVE_EVAL = "discretize2d.curve_eval"

# per-layer metrics read from call counters: (metric name, counter name)
COUNTS = (
    ("frames.edge_frames_calls", "frames.edge_frames"),
    ("ngon_circle.kappa_from_angle_calls", "ngon_circle.kappa_from_angle"),
    ("ngon_circle.tau_from_angle_calls", "ngon_circle.tau_from_angle"),
    ("discretize2d.curve_eval_calls", CURVE_EVAL),
    ("spline2d.elastica_bvp_calls", "spline2d.elastica_bvp"),
    ("spline2d.clothoid_g1_fit_calls", "spline2d.clothoid_g1_fit"),
    ("specfun.fresnel_calls", "specfun.fresnel"),
)


class Tracer:
    """Spans and counters of the traced ops, kept in memory."""

    def __init__(self):
        self.spans = []  # (op id, name, start, end, self time)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.errors = Counter()
        self.warnings = 0
        self.op_id = 0
        self._child_time = []  # one accumulator per open span

    def reset(self):
        """Clear the per-pass totals; recorded spans are kept."""
        self.self_s.clear()
        self.calls.clear()
        self.errors.clear()
        self.warnings = 0

    def span(self, name, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            stack = self._child_time
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                dur = end - start
                own = dur - stack.pop()
                if stack:
                    stack[-1] += dur
                self.self_s[name] += own
                self.spans.append((self.op_id, name, start, end, own))

        return wrapper

    def counter(self, name, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise

        return wrapper

    def builtin_curve(self, ctor):
        """Span the constructor and count scalar calls on the curve it returns."""
        build = self.span(BUILTIN, ctor)

        @functools.wraps(ctor)
        def wrapper(*args, **kwargs):
            c = build(*args, **kwargs)
            return dataclasses.replace(
                c,
                point=self.counter(CURVE_EVAL, c.point),
                tangent=self.counter(CURVE_EVAL, c.tangent),
                curvature=self.counter(CURVE_EVAL, c.curvature),
            )

        return wrapper

    def layer_metrics(self):
        """This pass's per-layer metrics, all times as self time."""
        out = {f"{name}_s": self.self_s[name] for name in SPANS + (BUILTIN, ROOT)}
        out.update({metric: self.calls[name] for metric, name in COUNTS})
        out["spline2d.multiple_solutions_warnings"] = self.warnings
        out.update({f"{layer}.errors": self.errors[layer] for layer in LAYERS})
        return out

    def repeatable_counts(self):
        """Everything that must repeat exactly when the same ops run again."""
        return {k: n for k, n in self.calls.items() if k != SAMPLING}, self.warnings


def install(tracer: Tracer):
    """Wrap the public functions of every layer; return what ``uninstall`` needs."""
    modules = [importlib.import_module(f"frenetkit.{name}") for name in LAYERS]
    wrappers = {}
    patches = []
    for mod in modules:
        namespace = vars(mod)
        for attr, obj in list(namespace.items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("frenetkit.") or layer not in LAYERS:
                continue
            if obj not in wrappers:
                name = f"{layer}.{obj.__name__}"
                make = tracer.span if name in SPANS else tracer.counter
                wrappers[obj] = make(name, obj)
            patches.append((namespace, attr, obj))
            namespace[attr] = wrappers[obj]
    builtins = importlib.import_module("frenetkit.discretize2d").BUILTIN_CURVES
    for key, ctor in list(builtins.items()):
        patches.append((builtins, key, ctor))
        builtins[key] = tracer.builtin_curve(ctor)
    return patches


def uninstall(patches):
    for namespace, attr, obj in reversed(patches):
        namespace[attr] = obj
