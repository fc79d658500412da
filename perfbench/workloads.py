"""Seeded workloads for the zmclab benchmark.

Each workload is a fixed list of operations.  The seed chooses the inputs
(base points, domain offsets) and the order in which the operations run,
never how much work there is: every seed runs the same operations at the
same lattice sizes.  Every operation has a check against a reference that
does not come from the code path being timed (closed forms, the acceptance
criteria's bounds, or the first repetition's bytes).

``build(name, seed, outdir, tiny=False)`` returns a :class:`Workload`;
``tiny=True`` swaps every lattice for a 9-point one, which the benchmark
runs once to warm code paths before it starts the clock.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from zmclab import (
    DirichletProblem,
    DualDirection,
    GridField,
    NonExactFormError,
    Rect,
    SampledGrid,
    catalog,
    cli,
    detect_lightlike_set,
    double_dual_check,
    dualize,
    field_from_text,
    geometry,
    solve,
    verify_line_theorem,
)

HELICOID = "atan2(y, x)"
CATENOID = "-asinh(sqrt(x^2 + y^2))"
BOX = Rect(1.0, 2.0, 1.0, 2.0)
TWO_PI = 2.0 * math.pi

#: criterion-4 bound on dual values from exact-jet sources
DUAL_TOL = 1e-7
#: criterion-5 bound on the path-independence defect of a solution
DEFECT_TOL = 1e-8
#: criterion-7 bound, 5e-4 at 33^2 (h = 1/32), scaled by h^2 on BOX
SOLVER_C = 5e-4 * 32.0 ** 2
#: criterion-6 bound on the Chaplygin invariants
FLUID_TOL = 1e-12
#: line positions against the zeros of g'
LINE_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    """One timed operation and the check of its result.

    ``run`` returns whatever ``check`` needs; ``outputs`` lists files the
    operation writes, whose bytes must repeat across repetitions.
    ``known_failure`` marks an operation that fails at the parent commit:
    it counts in ``failed`` but does not make the run incorrect.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    outputs: tuple = ()
    known_failure: str = ""


@dataclass
class Workload:
    """Operations in run order; ``large`` and ``small`` name the headline
    and the smallest operation.  The benchmark samples the small one
    ``small_per_gap`` extra times between every two operations, and the
    large one ``large_probes`` (0, 1 or 2) more times: at the end of the
    list farther from its own place, then at the other end; cheap
    operations get more samples."""

    name: str
    ops: list
    large: str
    small: str
    prepare: Callable[[], None] = lambda: None
    small_per_gap: int = 1
    large_probes: int = 1


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _cli(argv: list) -> None:
    code = cli.run([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"zmclab {argv[0]} exited with code {code}")


def _read_grid_csv(path) -> tuple:
    """(xs, ys, values) of a grid CSV, row-major in the x index."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    xs = np.unique(rows[:, 0])
    ys = np.unique(rows[:, 1])
    return xs, ys, rows[:, 2].reshape(xs.size, ys.size)


def _read_obj_heights(path, nx: int, ny: int) -> tuple:
    """Vertex heights of an OBJ height field, after checking its vertex and
    face counts."""
    verts, faces = [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(float(line.split()[3]))
            elif line.startswith("f "):
                faces += 1
    _require(len(verts) == nx * ny, f"OBJ has {len(verts)} vertices, "
             f"expected {nx * ny}")
    _require(faces == 2 * (nx - 1) * (ny - 1), f"OBJ has {faces} faces")
    return np.array(verts).reshape(nx, ny)


def _meta(path) -> dict:
    return json.loads(Path(str(path) + ".meta.json").read_text())


def _node(rng, lo: float, step: float) -> float:
    """A node shared by every lattice size used on [lo, lo + 8 step]."""
    return lo + step * int(rng.integers(0, 9))


def _dom_arg(d: Rect) -> str:
    return f"{d.x0!r},{d.x1!r},{d.y0!r},{d.y1!r}"


def _shuffled(rng, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


# --------------------------------------------------------------------------
# dualize-exact
# --------------------------------------------------------------------------

def _dualize_exact(rng, outdir: Path, size) -> Workload:
    # Why: the duality Simpson L-path on exact-jet sources sends many
    # small-batch exprfield lattice jets (at 129^2 about 33,650
    # dual_one_form calls of about 4 points each).  This is the hot path
    # that batched dualize (ROADMAP item 2) targets; no solver work runs.
    hel = field_from_text(HELICOID, BOX)
    shear_dom = Rect(0.0, 1.0, 0.0, 1.0)
    shear = field_from_text("y + exp(x)", shear_dom)
    slab_dom = Rect(0.2, 1.37, -1.0, 1.0)
    slab = field_from_text("y + log(tan(x))", slab_dom)
    bad_dom = Rect(0.5, 1.5, 0.5, 1.5)
    bad = field_from_text("y + x*y", bad_dom)

    def to_stream(n):
        bx, by = _node(rng, 1.0, 0.125), _node(rng, 1.0, 0.125)
        bv = -math.asinh(math.hypot(bx, by))
        res = (size(n), size(n))

        def run():
            return dualize(hel, res, (bx, by), bv, DualDirection.TO_STREAM, 1)

        def check(out):
            X, Y = BOX.meshgrid(*res)
            err = float(np.max(np.abs(out.field.grid.values
                                      + np.arcsinh(np.hypot(X, Y)))))
            _require(err < DUAL_TOL, f"catenoid error {err:.2e}")
            _require(out.defect <= DEFECT_TOL, f"defect {out.defect:.2e}")
        return Op(f"helicoid-to-stream-{n}", run, check)

    def cli_to_potential(n):
        bx, by = _node(rng, 1.0, 0.125), _node(rng, 1.0, 0.125)
        out = outdir / f"catenoid-to-potential-{n}.csv"
        res = size(n)
        argv = ["dualize", "--field", CATENOID, "--domain", _dom_arg(BOX),
                "--res", f"{res},{res}", "--direction", "to-potential",
                "--epsilon", "+1", "--base", f"{bx!r},{by!r}",
                "--base-value", repr(math.atan2(by, bx)), "--out", out]

        def check(_):
            xs, ys, vals = _read_grid_csv(out)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            err = float(np.max(np.abs(vals - np.arctan2(Y, X))))
            _require(err < DUAL_TOL, f"helicoid error {err:.2e}")
            defect = _meta(out)["path_independence_defect"]
            _require(defect <= DEFECT_TOL, f"defect {defect:.2e}")
        return Op(f"cli-catenoid-to-potential-{n}", lambda: _cli(argv), check,
                  outputs=(out, Path(str(out) + ".meta.json")))

    def shear_to_potential(n):
        # psi = y + e^x (eps = -1): grad phi = (e^-x, -1), phi = C - e^-x - y
        bx, by = _node(rng, 0.0, 0.125), _node(rng, 0.0, 0.125)
        res = (size(n), size(n))

        def run():
            return dualize(shear, res, (bx, by), 0.0,
                           DualDirection.TO_POTENTIAL, -1)

        def check(out):
            X, Y = shear_dom.meshgrid(*res)
            ref = math.exp(-bx) + by - np.exp(-X) - Y
            err = float(np.max(np.abs(out.field.grid.values - ref)))
            _require(err < DUAL_TOL, f"potential error {err:.2e}")
            _require(out.defect <= DEFECT_TOL, f"defect {out.defect:.2e}")
        return Op(f"shear-exp-to-potential-{n}", run, check)

    def slab_to_stream(n):
        # phi = y + log(tan x) (eps = -1): grad psi = (-sin(2x)/2, 1)
        bx = _node(rng, slab_dom.x0, (slab_dom.x1 - slab_dom.x0) / 8.0)
        by = _node(rng, slab_dom.y0, (slab_dom.y1 - slab_dom.y0) / 8.0)
        res = (size(n), size(n))

        def run():
            return dualize(slab, res, (bx, by), 0.0,
                           DualDirection.TO_STREAM, -1)

        def check(out):
            X, Y = slab_dom.meshgrid(*res)
            ref = (np.cos(2.0 * X) - math.cos(2.0 * bx)) / 4.0 + Y - by
            err = float(np.max(np.abs(out.field.grid.values - ref)))
            _require(err < DUAL_TOL, f"stream error {err:.2e}")
            _require(out.defect <= DEFECT_TOL, f"defect {out.defect:.2e}")
        return Op(f"slab-to-stream-{n}", run, check)

    def double_dual(n):
        res = (size(n), size(n))

        def check(rep):
            g = rep["gradient_defect"]
            _require(g < DUAL_TOL, f"gradient defect {g:.2e}")
            worst = max(rep["path_defects"])
            _require(worst <= DEFECT_TOL, f"path defect {worst:.2e}")
        return Op(f"double-dual-helicoid-{n}",
                  lambda: double_dual_check(hel, res, 1), check)

    def non_exact(n):
        bx, by = _node(rng, 0.5, 0.125), _node(rng, 0.5, 0.125)
        res = (size(n), size(n))

        def run():
            try:
                dualize(bad, res, (bx, by), 0.0,
                        DualDirection.TO_POTENTIAL, -1)
            except NonExactFormError as exc:
                return exc
            return None

        def check(exc):
            _require(isinstance(exc, NonExactFormError),
                     "y + x*y was not rejected as non-exact")
        return Op(f"non-exact-{n}", run, check)

    ops = [to_stream(129), to_stream(33), cli_to_potential(65),
           shear_to_potential(65), slab_to_stream(65), double_dual(33),
           non_exact(33)]
    # the 129^2 operation runs once per repetition: an extra sample would
    # add half a repetition, and one sample in reference seconds (see
    # speed.py) already repeats closely from run to run
    return Workload("dualize-exact", _shuffled(rng, ops),
                    large="helicoid-to-stream-129",
                    small="helicoid-to-stream-33", large_probes=0)


# --------------------------------------------------------------------------
# solve-dirichlet
# --------------------------------------------------------------------------

def _solve_dirichlet(rng, outdir: Path, size) -> Workload:
    # Why: the solver's damped Newton and its sparse linear solves
    # (scipy.sparse.linalg takes about 4.6 of 4.8 s at 257^2), which a
    # direct sparse solve (ROADMAP item 4) targets.  exprfield only touches
    # the boundary ring.  The lattice-backed dualize runs the duality layer
    # a second way: node-anchored corrected trapezoid instead of Simpson.
    hel_problem = DirichletProblem("minimal", BOX, size(129), size(129),
                                   HELICOID)
    lattice = {}

    def prepare():
        n = size(129)
        sol = solve(DirichletProblem("maximal", BOX, n, n, CATENOID))
        lattice["field"] = GridField(SampledGrid(sol.xs, sol.ys, sol.values))

    def bound(n):
        return SOLVER_C / (n - 1) ** 2

    def cli_solve(n):
        res = size(n)
        out = outdir / f"solve-maximal-{n}.obj"
        argv = ["solve", "--equation", "maximal", "--boundary", CATENOID,
                "--domain", _dom_arg(BOX), "--res", f"{res},{res}",
                "--format", "obj", "--out", out]

        def check(_):
            vals = _read_obj_heights(out, res, res)
            X, Y = BOX.meshgrid(res, res)
            err = float(np.max(np.abs(vals + np.arcsinh(np.hypot(X, Y)))))
            _require(err <= bound(res), f"catenoid error {err:.2e}")
            status = _meta(out)["report"]["status"]
            _require(status == "converged", f"status {status}")
        return Op(f"cli-solve-maximal-{n}", lambda: _cli(argv), check,
                  outputs=(out, Path(str(out) + ".meta.json")))

    def minimal_helicoid():
        def check(sol):
            X, Y = BOX.meshgrid(sol.xs.size, sol.ys.size)
            err = float(np.max(np.abs(sol.values - np.arctan2(Y, X))))
            _require(sol.converged, "minimal solve did not converge")
            _require(err <= bound(sol.xs.size), f"helicoid error {err:.2e}")
        return Op("solve-minimal-helicoid-129", lambda: solve(hel_problem),
                  check)

    def lattice_dualize():
        bx, by = _node(rng, 1.0, 0.125), _node(rng, 1.0, 0.125)
        n = size(129)

        def run():
            return dualize(lattice["field"], (n, n), (bx, by),
                           math.atan2(by, bx), DualDirection.TO_POTENTIAL, 1)

        def check(out):
            X, Y = BOX.meshgrid(n, n)
            err = float(np.max(np.abs(out.field.grid.values
                                      - np.arctan2(Y, X))))
            _require(err <= bound(n), f"helicoid error {err:.2e}")
            h2 = (1.0 / (n - 1)) ** 2
            _require(out.defect <= h2, f"defect {out.defect:.2e} > h^2")
        return Op("lattice-dualize-129", run, check)

    ops = [cli_solve(257), cli_solve(129), cli_solve(65), minimal_helicoid(),
           lattice_dualize()]
    return Workload("solve-dirichlet", _shuffled(rng, ops),
                    large="cli-solve-maximal-257",
                    small="cli-solve-maximal-65", prepare=prepare,
                    small_per_gap=3)


# --------------------------------------------------------------------------
# lightlike-scan
# --------------------------------------------------------------------------

def _shear_zeros(k: int) -> np.ndarray:
    """Zeros of d/dx sin(kx) = k cos(kx) on [0, 2 pi]."""
    return (2.0 * np.arange(2 * k) + 1.0) * math.pi / (2.0 * k)


def _lightlike_scan(rng, outdir: Path, size) -> Workload:
    # Why: geometry's edge bisection on scalar point jets, CausalSample
    # construction and line clustering (5,785 scalar jet2 calls at 257x65),
    # which scalable light-like detection (ROADMAP item 5) targets.  No
    # quadrature or solver work runs.  B = -g'(x)^2 does not depend on y,
    # so the seeded y-window moves the inputs without changing the work.
    c = 0.5 * int(rng.integers(-2, 3))
    dom = Rect(0.0, TWO_PI, c - 1.0, c + 1.0)

    def g_text(k):
        return "sin(x)" if k == 1 else f"sin({k}*x)"

    def field_args(k, nx, ny):
        return ["--field", f"y + {g_text(k)}", "--domain", _dom_arg(dom),
                "--res", f"{size(nx)},{size(ny, 5)}"]

    def cli_classify(k, nx, ny):
        out = outdir / f"classify-k{k}-{nx}x{ny}.csv"
        argv = ["classify", *field_args(k, nx, ny), "--out", out]

        def check(_):
            zeros = _shear_zeros(k)
            found = set()
            with open(out) as fh:
                next(fh)
                for line in fh:
                    x, _, _, _, _, cls = line.rstrip("\n").split(",")
                    _require(cls != "space-like", "space-like sample on a "
                             "shear graph")
                    if cls == "light-like-degenerate":
                        d = np.abs(zeros - float(x))
                        _require(d.min() <= LINE_TOL,
                                 f"degenerate sample off the zeros: x={x}")
                        found.add(int(d.argmin()))
            _require(len(found) == zeros.size,
                     f"degenerate samples on {len(found)} of {zeros.size} "
                     "zeros of g'")
        return Op(f"cli-classify-k{k}-{nx}x{ny}", lambda: _cli(argv), check,
                  outputs=(out, Path(str(out) + ".meta.json")))

    def cli_verify(k, nx, ny, known_failure=""):
        out = outdir / f"verify-k{k}-{nx}x{ny}.json"
        argv = ["verify-lines", *field_args(k, nx, ny), "--out", out]

        def check(_):
            lines = json.loads(out.read_text())["lines"]
            zeros = _shear_zeros(k)
            _require(len(lines) == zeros.size,
                     f"{len(lines)} lines, expected {zeros.size}")
            for ln, x0 in zip(lines, zeros):
                _require(abs(ln["base"][0] - x0) <= LINE_TOL,
                         f"line at x={ln['base'][0]!r}, expected {x0!r}")
                _require(abs(abs(ln["direction"][1]) - 1.0) <= LINE_TOL,
                         "line is not vertical")
                _require(ln["verified"], "line not verified")
        return Op(f"cli-verify-lines-k{k}-{nx}x{ny}", lambda: _cli(argv),
                  check, outputs=(out, Path(str(out) + ".meta.json")),
                  known_failure=known_failure)

    def plane():
        # t = x is light-like and degenerate everywhere: an answer that
        # depends on the lattice is wrong
        f = field_from_text("x", Rect(-1.0, 1.0, c - 1.0, c + 1.0))

        def run():
            return [verify_line_theorem(detect_lightlike_set(f, n, n), f)
                    for n in (size(31), size(41))]

        def check(results):
            counts = [len(lines) for lines in results]
            _require(counts[0] == counts[1],
                     f"line count depends on the lattice: {counts}")
            _require(all(ln.verified for lines in results for ln in lines),
                     "unverified lines on the plane")
        return Op("plane-31-41", run, check, known_failure=(
            "2 lines at 31^2 and 4 at 41^2, none verified"))

    ks = [int(k) for k in rng.permutation([2, 4, 8])]
    ops = [cli_classify(1, 257, 65), cli_verify(1, 257, 65),
           cli_classify(1, 129, 33), cli_verify(1, 129, 33)]
    for k in ks:
        ops.append(cli_verify(k, 257, 65, known_failure=(
            "11 of 16 lines; 325 samples come back non-degenerate"
            if k == 8 else "")))
    ops += [cli_verify(4, 257, 129), plane()]
    return Workload("lightlike-scan", _shuffled(rng, ops),
                    large="cli-verify-lines-k4-257x129",
                    small="cli-verify-lines-k1-129x33", small_per_gap=2)


# --------------------------------------------------------------------------
# lattice-verbs
# --------------------------------------------------------------------------

def _catenoid_jet(X, Y):
    """Closed-form (gx, gy, hxx, hxy, hyy) of -asinh(r)."""
    r2 = X * X + Y * Y
    r = np.sqrt(r2)
    s = np.sqrt(1.0 + r2)
    f1, f2 = -1.0 / s, r / s ** 3
    return (f1 * X / r, f1 * Y / r,
            f2 * X * X / r2 + f1 * Y * Y / r ** 3,
            (f2 - f1 / r) * X * Y / r2,
            f2 * Y * Y / r2 + f1 * X * X / r ** 3)


def _slab_jet(X, Y):
    """Closed-form (gx, gy, hxx, hxy, hyy) of y + log(tan x)."""
    s2 = np.sin(2.0 * X)
    z = np.zeros_like(X)
    return (2.0 / s2, 1.0 + z, -4.0 * np.cos(2.0 * X) / s2 ** 2, z, z)


def _lattice_verbs(rng, outdir: Path, size) -> Workload:
    # Why: the per-point Python loops in cli (curvature and fluid make one
    # scalar jet2 call per node: 16,641 at 129^2) beside one large
    # vectorized exprfield jet (residual, classify), plus large gridio CSV
    # writes.  One expression engine with vectorized verbs (ROADMAP item 3)
    # targets this path, which no other workload measures.
    ax, ay = _node(rng, 1.0, 0.0625), _node(rng, 1.0, 0.0625)
    cat_dom = Rect(ax, ax + 1.0, ay, ay + 1.0)
    slab = catalog.timelike_slab()
    c = 0.5 * int(rng.integers(-2, 3))
    slab_dom = Rect(slab.domain.x0, slab.domain.x1,
                    slab.domain.y0 + c, slab.domain.y1 + c)
    n = size(129)
    fields = {"catenoid": (CATENOID, cat_dom, _catenoid_jet, 1),
              "slab": ("y + log(tan(x))", slab_dom, _slab_jet, -1)}
    export_in = outdir / "export-in.csv"

    def prepare():
        xs, ys = cat_dom.lattice(n, n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        vals = -np.arcsinh(np.hypot(X, Y))
        with open(export_in, "w") as fh:
            fh.write("x,y,value\n")
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    v = float(vals[i, j])
                    fh.write(f"{float(x)!r},{float(y)!r},{v!r}\n")

    def verb(key, name, extra, check_values):
        text, dom, _, _ = fields[key]
        out = outdir / f"{name}-{key}.csv"
        argv = [name.split("-")[0], "--field", text, "--domain", _dom_arg(dom),
                "--res", f"{n},{n}", *extra, "--out", out]

        def check(_):
            check_values(out, fields[key])
        return Op(f"cli-{name}-{key}-129", lambda: _cli(argv), check,
                  outputs=(out, Path(str(out) + ".meta.json")))

    def residual_ok(out, spec):
        _, _, vals = _read_grid_csv(out)
        worst = float(np.max(np.abs(vals)))
        _require(worst <= 1e-10, f"ZMC residual {worst:.2e}")

    def mean_ok(out, spec):
        _, _, vals = _read_grid_csv(out)
        worst = float(np.max(np.abs(vals)))
        _require(worst <= 1e-9, f"mean curvature {worst:.2e} on a ZMC graph")

    def gauss_ok(out, spec):
        xs, ys, vals = _read_grid_csv(out)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        gx, gy, hxx, hxy, hyy = spec[2](X, Y)
        ref = (hxx * hyy - hxy * hxy) / (1.0 + gx * gx + gy * gy) ** 2
        err = float(np.max(np.abs(vals - ref)))
        _require(err <= 1e-10 * max(1.0, float(np.max(np.abs(ref)))),
                 f"Gauss curvature error {err:.2e}")

    def fluid_ok(out, spec):
        eps = spec[3]
        regime = "sub-sonic" if eps > 0 else "super-sonic"
        rows = 0
        with open(out) as fh:
            next(fh)
            for line in fh:
                _, _, e, rho, u, v, cs, _, reg = line.rstrip("\n").split(",")
                rho, u, v, cs = float(rho), float(u), float(v), float(cs)
                _require(int(e) == eps and reg == regime,
                         f"regime {reg} (epsilon {e}) on a causal-type "
                         f"{eps:+d} graph")
                worst = max(abs(rho * cs - 1.0),
                            abs(u * u + v * v + eps - cs * cs))
                _require(worst <= FLUID_TOL,
                         f"Chaplygin invariant {worst:.2e}")
                rows += 1
        _require(rows == n * n, f"{rows} fluid rows")

    def classify_ok(out, spec):
        cls = "space-like" if spec[3] > 0 else "time-like"
        with open(out) as fh:
            next(fh)
            rows = [line.rstrip("\n").rsplit(",", 1)[1] for line in fh]
        _require(len(rows) == n * n and set(rows) == {cls},
                 f"classes {sorted(set(rows))}, expected only {cls}")

    def export():
        out = outdir / "export.obj"
        argv = ["export", "--in", export_in, "--out", out]

        def check(_):
            _, _, ref = _read_grid_csv(export_in)
            got = _read_obj_heights(out, n, n)
            _require(np.array_equal(got, ref), "OBJ heights differ from CSV")
        return Op("cli-export-129", lambda: _cli(argv), check, outputs=(out,))

    def potential_residual():
        # dual potential of y + e^x: phi = y + e^-x - 1, so phi_xx = e^-x
        # and the minimal-surface residual is 2 e^-x
        pdom = Rect(-1.0, 1.0, c - 1.0, c + 1.0)
        m = size(65)

        def run():
            _, phi = catalog.entire_graph_pair("exp(x)", phi_domain=pdom)
            X, Y = pdom.meshgrid(m, m)
            j = phi.jet2_grid(X, Y)
            return X, Y, j.value, geometry.minimal_residual_of_jet(j)

        def check(result):
            X, Y, value, res = result
            err = float(np.max(np.abs(res - 2.0 * np.exp(-X))))
            _require(err <= 1e-12 * 2.0 * math.e, f"residual error {err:.2e}")
            err = float(np.max(np.abs(value - (Y + np.exp(-X) - 1.0))))
            _require(err <= 1e-9, f"potential value error {err:.2e}")
        return Op("potential-minimal-residual-65", run, check)

    ops = []
    for key in fields:
        ops += [verb(key, "residual", [], residual_ok),
                verb(key, "curvature-mean", ["--kind", "mean"], mean_ok),
                verb(key, "curvature-gauss", ["--kind", "gauss"], gauss_ok),
                verb(key, "fluid", [], fluid_ok),
                verb(key, "classify", [], classify_ok)]
    ops += [export(), potential_residual()]
    return Workload("lattice-verbs", _shuffled(rng, ops),
                    large="cli-curvature-mean-catenoid-129",
                    small="cli-residual-catenoid-129", prepare=prepare,
                    small_per_gap=2, large_probes=2)


BUILDERS = {
    "dualize-exact": _dualize_exact,
    "solve-dirichlet": _solve_dirichlet,
    "lightlike-scan": _lightlike_scan,
    "lattice-verbs": _lattice_verbs,
}


def build(name: str, seed: int, outdir: Path, tiny: bool = False) -> Workload:
    """The workload's operations for ``seed``, writing files under outdir."""
    def size(n, floor=9):
        return min(n, floor) if tiny else n
    return BUILDERS[name](np.random.default_rng(seed), Path(outdir), size)
