"""Outside-in tracing of zmclab's layers.

The tracer replaces each traced public function with a wrapper, in every
module of the package that binds it (``parse`` is bound in exprfield,
solver, catalog and the package itself), plus the ``scipy.sparse.linalg``
entry points the solver reaches through its ``spla`` alias.  Nothing under
``src/`` changes.  A wrapper records a span (name, start, end, parent) and
re-raises any exception unchanged after counting it.  Spans stay in memory
until the run ends and writes them out.

Per-layer metrics: ``<name>.calls``, ``<name>.s`` (time inside the
outermost call of that name), ``<name>.self_s`` (span time minus time in
wrapped children) and ``<name>.errors``, plus the counts that the measure
hooks below add.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# metric names that must repeat exactly between two traced repetitions
COUNT_SUFFIXES = (".calls", ".points", ".samples", ".errors", ".bytes",
                  ".nodes")
COUNT_NAMES = ("solver.newton_iterations", "solver.line_search_halvings",
               "duality.quad_nodes_per_lattice_node",
               "exprfield.lattice_jet.points_per_call")


def _points(x, y) -> int:
    return int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(y))))


def _xy_points(args, kwargs, result, counts, name):
    """Points of a call shaped f(obj, x, y, ...)."""
    counts[name + ".points"] += _points(args[1], args[2])


def _dualize_nodes(args, kwargs, result, counts, name):
    res = args[1] if len(args) > 1 else kwargs["res"]
    counts[name + ".nodes"] += int(res[0]) * int(res[1])


def _newton(args, kwargs, result, counts, name):
    counts["solver.newton_iterations"] += result.iterations
    counts["solver.line_search_halvings"] += sum(
        round(-math.log2(a)) for a in result.damping_history)


def _degenerate(args, kwargs, result, counts, name):
    samples = args[0] if args else kwargs["samples"]
    counts[name + ".samples"] += sum(
        s.cls.value == "light-like-degenerate" for s in samples)


def _bytes(args, kwargs, result, counts, name):
    if isinstance(result, str):
        counts["gridio.bytes"] += len(result.encode())


class Tracer:
    """Wraps zmclab's public functions; records spans only while active."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.reps: list = []  # spans of every repetition, kept until write
        self.counts: Counter = Counter()
        self._stack: list = []
        self._open = Counter()

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, name_of, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = name_of(args)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            outermost = tracer._open[name] == 0
            tracer.spans.append(None)
            tracer._stack.append(sid)
            tracer._open[name] += 1
            failed = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.spans[sid] = (name, t0, t1, parent, outermost, failed)
            if measure is not None:
                measure(args, kwargs, result, tracer.counts, name)
            return result

        return wrapper

    def _rebind(self, fn, wrapper, callers):
        """Point every binding of fn in a loaded zmclab module, and in the
        caller modules, at wrapper."""
        found = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "zmclab" or mod in callers
                                   or mod_name.startswith("zmclab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    found += 1
        if not found:
            raise RuntimeError(f"no module binds {fn!r}")

    def install(self, callers=()):
        """Wrap the traced functions; ``callers`` are modules outside the
        package that imported them by name."""
        from zmclab import (catalog, cli, duality, exprfield, geometry,
                            gridio, solver)

        def fixed(name):
            return lambda args: name

        functions = [
            (exprfield.parse, "exprfield.parse", None),
            (exprfield.evaluate, "exprfield.evaluate", None),
            (exprfield.expression_jet2, "exprfield.expression_jet2",
             _xy_points),
            (duality.dualize, "duality.dualize", _dualize_nodes),
            (duality.dual_one_form, "duality.dual_one_form", _xy_points),
            (duality.chaplygin_state, "duality.chaplygin_state", None),
            (solver.solve, "solver.solve", _newton),
            (solver.discrete_residual, "solver.discrete_residual", None),
            (geometry.detect_lightlike_set, "geometry.detect_lightlike_set",
             None),
            (geometry.classify, "geometry.classify", None),
            (geometry.classify_grid, "geometry.classify_grid", None),
            (geometry.verify_line_theorem, "geometry.verify_line_theorem",
             _degenerate),
            (geometry.mean_curvature, "geometry.pointwise", None),
            (geometry.gauss_curvature_euclid, "geometry.pointwise", None),
            (cli.run, "cli.run", None),
        ]
        functions += [(getattr(gridio, w), "gridio.write", _bytes)
                      for w in ("grid_csv", "causal_csv", "obj_text",
                                "dump_json")]
        for fn, name, measure in functions:
            self._rebind(fn, self._wrapper(fixed(name), fn, measure), callers)

        # point and lattice jets are GraphField methods; subclasses that
        # override them are wrapped as well
        def lattice_name(args):
            if isinstance(args[0], catalog.PotentialField):
                return "catalog.potential_lattice_jet"
            return "exprfield.lattice_jet"

        classes = [exprfield.GraphField]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if "jet2" in vars(cls):
                cls.jet2 = self._wrapper(fixed("exprfield.point_jet"),
                                         vars(cls)["jet2"])
            if "jet2_grid" in vars(cls):
                cls.jet2_grid = self._wrapper(lattice_name,
                                              vars(cls)["jet2_grid"],
                                              _xy_points)

        # every scipy.sparse.linalg function the solver reaches
        linear = fixed("solver.linear_solve")
        for attr, value in list(vars(solver).items()):
            if inspect.ismodule(value) and value.__name__.startswith(
                    "scipy.sparse.linalg"):
                setattr(solver, attr, _LinalgProxy(value, self, linear))
            elif (inspect.isfunction(value) or inspect.isbuiltin(value)) \
                    and getattr(value, "__module__", "").startswith(
                        "scipy.sparse.linalg"):
                setattr(solver, attr, self._wrapper(linear, value))

    # -- results --------------------------------------------------------

    def reset(self):
        """Start a new repetition's spans and counts."""
        self.spans = []
        self.reps.append(self.spans)
        self.counts = Counter()

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        out: dict = defaultdict(float)
        child = defaultdict(float)
        for name, t0, t1, parent, outermost, failed in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for sid, (name, t0, t1, parent, outermost, failed) in enumerate(
                self.spans):
            out[name + ".calls"] += 1
            out[name + ".errors"] += int(failed)
            out[name + ".self_s"] += (t1 - t0) - child[sid]
            if outermost:
                out[name + ".s"] += t1 - t0
        for key, value in self.counts.items():
            out[key] += value
        calls = out["exprfield.lattice_jet.calls"]
        out["exprfield.lattice_jet.points_per_call"] = (
            out["exprfield.lattice_jet.points"] / calls if calls else 0.0)
        nodes = out["duality.dualize.nodes"]
        out["duality.quad_nodes_per_lattice_node"] = (
            out["duality.dual_one_form.points"] / nodes if nodes else 0.0)
        return dict(out)

    def write(self, path):
        """Write the spans of every repetition as CSV rows to path."""
        with open(path, "w") as fh:
            fh.write("rep,id,parent,name,start,end,error\n")
            for rep, spans in enumerate(self.reps, 1):
                for sid, (name, t0, t1, parent, _, failed) in enumerate(
                        spans):
                    fh.write(f"{rep},{sid},{parent},{name},{t0!r},{t1!r},"
                             f"{int(failed)}\n")


def is_count(name: str) -> bool:
    return name in COUNT_NAMES or name.endswith(COUNT_SUFFIXES)


class _LinalgProxy:
    """Stands in for scipy.sparse.linalg inside the solver module: its
    functions come back wrapped, everything else unchanged."""

    def __init__(self, module, tracer: Tracer, name_of):
        self._module = module
        self._tracer = tracer
        self._name_of = name_of
        self._wrapped: dict = {}

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if not (inspect.isfunction(value) or inspect.isbuiltin(value)):
            return value
        if attr not in self._wrapped:
            self._wrapped[attr] = self._tracer._wrapper(self._name_of, value)
        return self._wrapped[attr]
