"""Per-layer tracing of gjms6 from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` in every gjms6 module
namespace and class that binds it. A statement such as
``from .solver import ball_mode_solve`` copies the binding into another
module at import, so wrapping only the defining module would miss those
calls; modules that import inside a function body see the module attribute
and so the wrapper. Nothing under ``src/`` changes.

Each wrapped call is a span. A layer's self time is the time of its spans
minus the time their child spans cover, accumulated on a stack as the spans
close. Spans of the coarse layers are kept in memory as
(id, name, start, end, parent) and written out at the end; the ``Poly`` and
``Series`` arithmetic spans (millions per pass) are only aggregated. Counts
are taken at the same wrappers; for keyed targets the distinct argument keys
are kept as well, giving the distinct-to-calls ratio a memo layer acts on.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (layer, module, qualified name, counter or None, keep span records, keyed)
TARGETS = (
    ("polys", "gjms6.polys", "Poly.__mul__", "polys.mul_calls", False, False),
    ("polys", "gjms6.polys", "Poly.__add__", "polys.add_calls", False, False),
    ("series", "gjms6.series", "Series.__mul__", "series.mul_calls", False, False),
    ("series", "gjms6.series", "series_inverse", "series.inverse_calls", False, False),
    ("confcalc", "gjms6.confcalc", "HalfspaceConformalEngine.__init__", "confcalc.engine_builds", True, False),
    ("confcalc", "gjms6.confcalc", "HalfspaceConformalEngine.boundary_operator", None, True, False),
    ("confcalc", "gjms6.confcalc", "HalfspaceConformalEngine.t_scalar", None, True, False),
    ("conformal", "gjms6.conformal", "infinitesimal_covariance_residual", "conformal.residual_calls", True, False),
    ("conformal", "gjms6.conformal", "finite_covariance_residual", "conformal.residual_calls", True, False),
    ("conformal", "gjms6.conformal", "critical_T_shift", "conformal.residual_calls", True, False),
    ("boundary", "gjms6.boundary", "apply_B", "boundary.apply_B_calls", True, False),
    ("boundary", "gjms6.boundary", "apply_boundary_operator", None, True, False),
    ("boundary", "gjms6.boundary", "coefficient_scalars", "boundary.coefficient_scalars_calls", True, False),
    ("reps", "gjms6.reps", "collar_coefficients", "reps.collar_coefficients_calls", True, True),
    ("reps", "gjms6.reps", "radial_pair_integral", None, True, False),
    ("reps", "gjms6.reps", "radial_l2_integral", None, True, False),
    ("solver", "gjms6.solver", "ball_mode_solve", "solver.ball_mode_solve_calls", True, True),
    ("solver", "gjms6.solver", "ball_dirichlet_matrix", "solver.ball_dirichlet_matrix_calls", True, False),
    ("solver", "gjms6.solver", "hemisphere_mode_solve", "solver.hemisphere_mode_solve_calls", True, True),
    ("solver", "gjms6.solver", "hemisphere_factor_solve", "solver.hemisphere_factor_solve_calls", True, False),
    ("solver", "gjms6.solver", "geodesic_mode_solve", "solver.geodesic_mode_solve_calls", True, False),
    ("fractional", "gjms6.fractional", "dtn_verify", "fractional.dtn_calls", True, False),
    ("fractional", "gjms6.fractional", "dtn_selfadjointness", "fractional.dtn_calls", True, False),
    ("fractional", "gjms6.fractional", "DtNOperator.multiplier_from_solve", None, True, False),
    ("energy", "gjms6.energy", "q6_form", "energy.q6_form_calls", True, False),
    ("energy", "gjms6.energy", "symmetry_residual", None, True, False),
    ("energy", "gjms6.energy", "fi_fb_decompose", None, True, False),
    ("traces", "gjms6.traces", "ZonalGrid.__init__", "traces.grid_builds", True, False),
    ("traces", "gjms6.traces", "TraceChecker.__init__", "traces.checker_builds", True, False),
    ("traces", "gjms6.traces", "corollary_check", None, True, False),
    ("traces", "gjms6.traces", "critical_check", None, True, False),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))
COUNTERS = tuple(dict.fromkeys(t[3] for t in TARGETS if t[3]))
KEYED = tuple(t[3] for t in TARGETS if t[5])


def freeze(x):
    """A hashable key for an argument value."""
    if isinstance(x, (int, float, str, bool, Fraction, enum.Enum)) or x is None:
        return x
    if isinstance(x, (tuple, list)):
        return tuple(freeze(v) for v in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(freeze(getattr(x, f.name)) for f in dataclasses.fields(x))
    return (type(x).__name__, repr(x))


def resolve(module: str, qualname: str):
    """The function a target names, as the program defines it (a tracer's
    wrapper is seen through; any other wrapper, a memo cache say, is not)."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = vars(owner)[attr]
    return getattr(fn, "_perfbench_original", fn)


def gjms6_namespaces():
    """Every gjms6 module and every class defined in one."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gjms6" or name.startswith("gjms6."))]
    out = list(mods)
    for m in mods:
        for v in vars(m).values():
            if isinstance(v, type) and getattr(v, "__module__", "").startswith("gjms6") and v not in out:
                out.append(v)
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.spans: list = []
        self._stack = [[0.0, -1]]  # root frame: [child seconds, span id]
        self._patched: list = []

    def _wrap(self, fn, name: str, layer: str, counter, record: bool, keyed: bool):
        stack, self_s, counts, spans, clock = self._stack, self.self_s, self.counts, self.spans, self.clock
        keys = self.keys[counter] if keyed else None
        sig = inspect.signature(fn) if keyed else None

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if counter is not None:
                counts[counter] += 1
            if keys is not None:
                bound = sig.bind(*args, **kw)
                bound.apply_defaults()
                keys.add(freeze(tuple(bound.arguments.values())))
            parent = stack[-1]
            frame = [0.0, len(spans) if record else parent[1]]
            if record:
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                parent[0] += dur
                if record:
                    spans[frame[1]] = (frame[1], name, t0, t1, parent[1])

        wrapper._perfbench_original = fn
        return wrapper

    def install(self):
        """Wrap every target in every gjms6 namespace that binds it."""
        originals = {}
        for layer, module, qualname, counter, record, keyed in TARGETS:
            fn = resolve(module, qualname)
            originals[id(fn)] = (fn, self._wrap(fn, qualname, layer, counter, record, keyed))
        for ns in gjms6_namespaces():
            for attr, val in list(vars(ns).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, val))
        return self

    def reset(self):
        """Forget everything recorded so far (the wrappers hold these objects)."""
        self.self_s.clear()
        self.counts.clear()
        for keys in self.keys.values():
            keys.clear()
        self.spans.clear()
        self._stack[0][0] = 0.0

    def uninstall(self):
        for ns, attr, val in reversed(self._patched):
            setattr(ns, attr, val)
        self._patched.clear()

    def report(self) -> dict:
        return {
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "counts": {c: self.counts.get(c, 0) for c in COUNTERS},
            "distinct": {c: len(self.keys.get(c, ())) for c in KEYED},
        }


def unwrapped_bindings() -> list:
    """(namespace, attribute) pairs that still bind an original target; empty
    after ``Tracer.install``."""
    originals = {id(resolve(m, q)) for _, m, q, *_ in TARGETS}
    return [(getattr(ns, "__name__", repr(ns)), attr)
            for ns in gjms6_namespaces() for attr, val in vars(ns).items() if id(val) in originals]
