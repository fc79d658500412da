"""Command-line front end.

One verb per run; every command echoes its fully resolved configuration
into the JSON metadata (a ``<out>.meta.json`` sidecar when writing to a
file, stderr when streaming to stdout).  Exit codes: 0 success, 1 domain
errors (sonic points, causal-type violations, ...), 2 usage errors.
Outputs are deterministic: identical argv gives byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import catalog, duality, geometry, gridio, solver
from .duality import DualDirection
from .errors import ZmcError
from .exprfield import Rect, field_from_text
from .solver import DirichletProblem, EquationKind


def _param_item(text):
    """A NAME=VALUE item with a numeric value, returned unchanged: the
    sidecar echoes each item as given."""
    _, eq, value = text.partition("=")
    try:
        float(value if eq else "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--param needs name=value with a numeric value, got {text!r}"
        ) from None
    return text


def _parse_params(items):
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        out[name.strip()] = float(value)
    return out


def _numbers(text, kind, names):
    """The comma-separated numbers of ``text``, one for each of ``names``;
    a bad count or number is an ArgumentTypeError that says which."""
    parts = text.split(",")
    if len(parts) != len(names.split(",")):
        raise argparse.ArgumentTypeError(f"expected {names}, got {text!r}")
    try:
        return [kind(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected {names}: {exc}") from None


def _parse_domain(text):
    try:
        return Rect(*_numbers(text, float, "x0,x1,y0,y1"))
    except ValueError as exc:  # Rect's reason: bounds not finite or ordered
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_res(text):
    return tuple(_numbers(text, int, "nx,ny"))


def _parse_point(text):
    return tuple(_numbers(text, float, "x,y"))


def _parse_epsilon(text):
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError("--epsilon must be +1 or -1")


def _add_field_flags(p):
    p.add_argument("--field", required=True, help="expression in x and y")
    p.add_argument("--param", action="append", type=_param_item,
                   metavar="NAME=VALUE", help="bind a parameter (repeatable)")
    p.add_argument("--domain", required=True, type=_parse_domain,
                   metavar="X0,X1,Y0,Y1")
    p.add_argument("--res", type=_parse_res, default=(65, 65), metavar="NX,NY")


def _add_out_flags(p, formats=("csv", "json")):
    p.add_argument("--out", type=Path, help="output path (default: stdout)")
    p.add_argument("--format", choices=formats, default=formats[0])


@functools.cache  # built on the first run and reused: parsing keeps no state
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zmclab",
        description="Numerical laboratory for zero-mean-curvature graphs "
                    "in Lorentz-Minkowski 3-space.")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="causal classification on a lattice")
    _add_field_flags(p)
    p.add_argument("--tol-light", type=float, default=None)
    p.add_argument("--tol-grad", type=float, default=geometry.DEFAULT_TAU_GRAD)
    _add_out_flags(p)

    p = sub.add_parser("residual", help="PDE residual on a lattice")
    _add_field_flags(p)
    p.add_argument("--equation", choices=("zmc", "minimal", "timelike"),
                   default="zmc")
    _add_out_flags(p)

    p = sub.add_parser("curvature", help="mean or Gauss curvature on a lattice")
    _add_field_flags(p)
    p.add_argument("--kind", choices=("mean", "gauss"), default="mean")
    p.add_argument("--tol-light", type=float, default=None)
    _add_out_flags(p)

    p = sub.add_parser("fluid", help="Chaplygin flow state on a lattice")
    _add_field_flags(p)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--tol-light", type=float, default=None)
    _add_out_flags(p)

    p = sub.add_parser("detect", help="light-like points, refined along edges")
    _add_field_flags(p)
    p.add_argument("--tol-light", type=float, default=None)
    p.add_argument("--tol-grad", type=float, default=geometry.DEFAULT_TAU_GRAD)
    _add_out_flags(p)

    p = sub.add_parser("verify-lines",
                       help="fit and verify degenerate light-like lines")
    _add_field_flags(p)
    p.add_argument("--tol-light", type=float, default=None)
    p.add_argument("--tol-grad", type=float, default=geometry.DEFAULT_TAU_GRAD)
    _add_out_flags(p, formats=("json",))

    p = sub.add_parser("dualize", help="integrate the dual potential")
    _add_field_flags(p)
    p.add_argument("--direction", choices=("to-potential", "to-stream"),
                   default="to-potential")
    p.add_argument("--epsilon", type=_parse_epsilon, default=1)
    p.add_argument("--base", type=_parse_point, required=True, metavar="X,Y")
    p.add_argument("--base-value", type=float, default=0.0)
    _add_out_flags(p)

    p = sub.add_parser("solve", help="Dirichlet solve (minimal or maximal)")
    p.add_argument("--equation", choices=("minimal", "maximal"))
    p.add_argument("--boundary", help="boundary expression in x and y")
    p.add_argument("--param", action="append", type=_param_item,
                   metavar="NAME=VALUE")
    p.add_argument("--domain", type=_parse_domain, metavar="X0,X1,Y0,Y1")
    # no default: --problem refuses it, and a flag run takes 33,33
    p.add_argument("--res", type=_parse_res, metavar="NX,NY")
    p.add_argument("--problem", type=Path,
                   help="JSON problem file {equation, domain, resolution, "
                        "boundary, tolerances}")
    p.add_argument("--initial", choices=("harmonic", "flat"))  # likewise
    _add_out_flags(p, formats=("csv", "obj", "json"))

    p = sub.add_parser("examples", help="list or emit catalog surfaces")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out", type=Path)

    p = sub.add_parser("export", help="convert a grid CSV to an OBJ mesh")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=("obj",), default="obj")

    return ap


def _resolved_config(ns) -> dict:
    out = {}
    for key, val in sorted(vars(ns).items()):
        if key == "verb" or val is None:
            continue
        if isinstance(val, Rect):
            out[key] = [val.x0, val.x1, val.y0, val.y1]
        elif isinstance(val, Path):
            out[key] = str(val)
        elif isinstance(val, tuple):
            out[key] = list(val)
        else:
            out[key] = val
    return out


def _emit(ns, payload: str, meta: dict):
    """Write the primary payload and its metadata deterministically."""
    meta_doc = gridio.dump_json({"verb": ns.verb,
                                 "config": _resolved_config(ns), **meta})
    out = getattr(ns, "out", None)
    if out is not None:
        Path(out).write_text(payload)
        Path(str(out) + ".meta.json").write_text(meta_doc)
    else:
        sys.stdout.write(payload)
        sys.stderr.write(meta_doc)


def _field_of(ns):
    return field_from_text(ns.field, ns.domain, _parse_params(ns.param))


def _cmd_classify(ns):
    f, X, Y, tau = _lattice(ns)
    lattice = geometry.classify_grid(f, X, Y, tau, ns.tol_grad)
    light, node = geometry._lightlike_scan(f, *ns.res, lattice.columns[:5],
                                           tau, ns.tol_grad)
    samples = geometry.CausalSamples.concat(lattice, light[~node])
    _emit(ns, gridio.samples_text(ns.format, samples),
          {"nodes": X.size, "refined": len(light)})


def _cmd_residual(ns):
    f = _field_of(ns)
    nx, ny = ns.res
    X, Y = f.domain.meshgrid(nx, ny)
    j = f.jet2_grid(X, Y)
    if ns.equation == "minimal":
        vals = geometry.minimal_residual_of_jet(j)
    else:
        vals = geometry.zmc_residual_of_jet(j)
    _emit(ns, gridio.grid_text(ns.format, *f.domain.lattice(nx, ny), vals),
          {"equation": ns.equation, "max_abs": float(np.max(np.abs(vals)))})


def _lattice(ns):
    """The field, its lattice and its light-like tolerance."""
    f = _field_of(ns)
    X, Y = f.domain.meshgrid(*ns.res)
    tau = f.default_tau_light() if ns.tol_light is None else ns.tol_light
    return f, X, Y, tau


def _cmd_curvature(ns):
    f, X, Y, tau = _lattice(ns)
    j = f.jet2_grid(X, Y)
    if ns.kind == "mean":
        vals = geometry.mean_curvature_of_jet(j, tau, X, Y)
    else:
        vals = geometry.gauss_curvature_of_jet(j)
    _emit(ns, gridio.grid_text(ns.format, *f.domain.lattice(*ns.res), vals),
          {"kind": ns.kind})


def _cmd_fluid(ns):
    f, X, Y, tau = _lattice(ns)
    parts = duality.chaplygin_of_gradient(*f.grad_grid(X, Y), ns.p0, tau,
                                          X, Y)
    _emit(ns, gridio.fluid_text(ns.format, *f.domain.lattice(*ns.res), parts),
          {"p0": ns.p0})


def _cmd_detect(ns):
    samples = geometry.detect_lightlike_set(_field_of(ns), *ns.res,
                                            ns.tol_light, ns.tol_grad)
    _emit(ns, gridio.samples_text(ns.format, samples),
          {"count": len(samples)})


def _cmd_verify_lines(ns):
    f = _field_of(ns)
    samples = geometry.detect_lightlike_set(f, *ns.res, ns.tol_light,
                                            ns.tol_grad)
    lines = geometry.verify_line_theorem(samples, f)
    _emit(ns, gridio.lines_text(lines),
          {"degenerate_samples": int(np.count_nonzero(samples.in_class(
              geometry.CausalClass.LIGHT_DEGENERATE)))})


def _cmd_dualize(ns):
    f = _field_of(ns)
    direction = DualDirection(ns.direction)
    result = duality.dualize(f, ns.res, ns.base, ns.base_value,
                             direction, ns.epsilon)
    grid = result.field.grid
    _emit(ns, gridio.grid_text(ns.format, grid.xs, grid.ys, grid.values), {
        "direction": direction.value,
        "epsilon": result.epsilon,
        "base": list(result.base),
        "base_value": result.base_value,
        "path_scheme": result.path_scheme,
        "path_independence_defect": result.defect,
        "quad_tol": result.quad_tol,
    })


def _is_list_of(value, count: int, kinds) -> bool:
    return isinstance(value, list) and len(value) == count and all(
        isinstance(v, kinds) and not isinstance(v, bool) for v in value)


def _problem_from_file(path: Path) -> DirichletProblem:
    """Read a problem JSON file.  ``tolerances.linear`` is accepted and
    ignored: the Krylov tolerance of a Newton step is a fixed constant."""
    doc = json.loads(Path(path).read_text())
    tol, params = (doc.get(key, {}) if isinstance(doc, dict) else None
                   for key in ("tolerances", "params"))
    if not (isinstance(tol, dict)
            and doc.get("equation") in ("minimal", "maximal")
            and _is_list_of(doc.get("resolution"), 2, int)
            and _is_list_of(doc.get("domain"), 4, (int, float))
            and isinstance(doc.get("boundary"), str)
            and isinstance(params, dict)
            and _is_list_of([*params.values()], len(params), (int, float))
            and _is_list_of([tol.get("newton", solver.NEWTON_TOL)], 1,
                            (int, float))):
        raise ValueError("a problem file is a JSON object with 'equation' "
                         "'minimal' or 'maximal', 'resolution' two integers, "
                         "'domain' four numbers, 'boundary' a string, "
                         "'params' (if given) an object of numbers and "
                         "'tolerances' an object with a numeric 'newton'")
    nx, ny = doc["resolution"]
    return DirichletProblem(
        equation=EquationKind(doc["equation"]),
        domain=Rect(*doc["domain"]), nx=nx, ny=ny,
        boundary=doc["boundary"],
        params=params,
        initial_guess=doc.get("initial_guess", "harmonic"),
        newton_tol=tol.get("newton", solver.NEWTON_TOL),
    )


def _cmd_solve(ns):
    if ns.problem is not None:
        mixed = [f"--{k}" for k in ("equation", "boundary", "domain", "param",
                                    "res", "initial")
                 if getattr(ns, k) is not None]
        if mixed:
            raise UsageError(f"solve --problem FILE refuses {', '.join(mixed)}"
                             " beside it")
        problem = _problem_from_file(ns.problem)
        # the sidecar echoes the file's lattice and initial guess
        ns.res, ns.initial = (problem.nx, problem.ny), problem.initial_guess
    else:
        if not (ns.equation and ns.boundary and ns.domain):
            raise UsageError("solve needs --equation, --boundary and "
                             "--domain (or --problem FILE)")
        ns.res, ns.initial = ns.res or (33, 33), ns.initial or "harmonic"
        problem = DirichletProblem(
            equation=EquationKind(ns.equation), domain=ns.domain,
            nx=ns.res[0], ny=ns.res[1], boundary=ns.boundary,
            params=_parse_params(ns.param), initial_guess=ns.initial)
    sol = solver.solve(problem)
    report = solver.convergence_report(sol)
    _emit(ns, gridio.grid_text(ns.format, sol.xs, sol.ys, sol.values,
                               report=report), {"report": report})


def _cmd_examples(ns):
    if ns.action == "list":
        payload = "\n".join(sorted(catalog.CATALOG)) + "\n"
    else:
        if not ns.name:
            raise UsageError("examples emit needs a name")
        payload = gridio.dump_json(catalog.emit(ns.name))
    _emit(ns, payload, {})


def _cmd_export(ns):
    grid = gridio.read_grid_csv(Path(ns.infile).read_text())
    _emit(ns, gridio.grid_text(ns.format, grid.xs, grid.ys, grid.values),
          {"resolution": [grid.nx, grid.ny]})


class UsageError(Exception):
    pass


_COMMANDS = {
    "classify": _cmd_classify,
    "residual": _cmd_residual,
    "curvature": _cmd_curvature,
    "fluid": _cmd_fluid,
    "detect": _cmd_detect,
    "verify-lines": _cmd_verify_lines,
    "dualize": _cmd_dualize,
    "solve": _cmd_solve,
    "examples": _cmd_examples,
    "export": _cmd_export,
}


def run(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _COMMANDS[ns.verb](ns)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (ZmcError, ValueError, KeyError, OSError) as exc:
        code = exc.code if isinstance(exc, ZmcError) else "invalid-input"
        # str() of a KeyError quotes its argument; the message is its text
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write(gridio.dump_json({"error": code,
                                           "message": str(text)}))
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
