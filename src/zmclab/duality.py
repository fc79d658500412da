"""The fluid-mechanical duality between stream functions and potentials.

A graph psi with B = 1 - psi_x^2 - psi_y^2 of constant sign eps is the
stream function of a Chaplygin gas flow (rho c = 1).  Its dual potential
phi satisfies grad phi = (psi_y, -psi_x) / sqrt(eps B); conversely
grad psi = (-phi_y, phi_x) / sqrt(|grad phi|^2 + eps).  The duality pairs
minimal graphs in E^3 with space-like ZMC graphs in L^3 (eps = +1) and
acts on time-like ZMC graphs (eps = -1), where applying it twice negates
the gradient (a 90-degree rotation composed with a positive scalar,
squared).

``dualize`` reconstructs the dual potential on a lattice by integrating
the dual one-form along axis-aligned L-paths with adaptive composite
Simpson quadrature; a two-path defect doubles as an exactness test: the
form is closed iff the source solves its PDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    NonExactFormError,
    OutOfDomainError,
    QuadratureError,
    SonicPointError,
    ZmcError,
)
from .exprfield import GraphField, GridField, Jet2, Rect, SampledGrid
from .geometry import (
    _check_tolerances,
    b_of_gradient,
    refuse_lightlike,
)

__all__ = [
    "ChaplyginState",
    "DualDirection",
    "DualField",
    "DualResult",
    "FlowRegime",
    "chaplygin_state",
    "divergence_probe",
    "double_dual_check",
    "dual_one_form",
    "dualize",
    "one_form_curl",
]

#: per-segment quadrature tolerance of L-path integration
QUAD_TOL = 1e-10
#: path-independence defect beyond this multiple of the quadrature
#: tolerance means the one-form is not closed
NONEXACT_FACTOR = 100.0
#: column segments dualize integrates per batch, and points per jet call;
#: together they keep peak memory independent of the lattice size (a
#: block's first-pass node table is five floats per segment)
SEGMENT_BLOCK = 4096
JET_POINTS = 8192
#: lattice nodes whose x-first and y-first paths give the defect
DEFECT_NODES = 20


class FlowRegime(Enum):
    SUBSONIC = "sub-sonic"
    SUPERSONIC = "super-sonic"
    SONIC = "sonic"


class DualDirection(Enum):
    TO_POTENTIAL = "to-potential"  # stream function psi -> potential phi
    TO_STREAM = "to-stream"        # potential phi -> stream function psi


@dataclass
class ChaplyginState:
    """Pointwise state of the Chaplygin gas flow attached to a stream
    function: rho * sound_speed = 1 and |velocity|^2 + epsilon = c^2."""

    epsilon: int
    rho: float
    velocity: tuple
    sound_speed: float
    pressure: float
    p0: float
    regime: FlowRegime

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


def chaplygin_of_gradient(gx, gy, p0: float, tau_light: float, x, y):
    """(epsilon, rho, u, v, c, p) elementwise from the source gradient at
    the points (x, y): epsilon = sign(B), rho = sqrt(eps * B), (u, v) =
    (psi_y, -psi_x)/rho, c = 1/rho, p = p0 - 1/rho.  Raises
    SonicPointError at the first point where |B| is inside the light-like
    tolerance, and ValueError when p0 is not finite."""
    if not math.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    b = b_of_gradient(gx, gy)
    refuse_lightlike(b, tau_light, x, y, SonicPointError,
                     "flow state undefined at sonic point")
    eps = np.where(b > 0, 1, -1)
    rho = np.sqrt(eps * b)
    return eps, rho, gy / rho, -gx / rho, 1.0 / rho, p0 - 1.0 / rho


def chaplygin_state(f: GraphField, x: float, y: float, p0: float = 0.0,
                    tau_light: float | None = None) -> ChaplyginState:
    """Reconstruct density, velocity, sound speed and pressure at a point
    (see chaplygin_of_gradient)."""
    tau_light = f.default_tau_light() if tau_light is None else tau_light
    parts = chaplygin_of_gradient(*f.grad_grid(x, y), p0, tau_light, x, y)
    eps, rho, u, v, c, p = (np.asarray(a).item() for a in parts)
    return ChaplyginState(
        epsilon=eps, rho=rho, velocity=(u, v), sound_speed=c, pressure=p,
        p0=p0,
        regime=FlowRegime.SUBSONIC if eps > 0 else FlowRegime.SUPERSONIC,
    )


# --------------------------------------------------------------------------
# the dual one-form and its analytic jet transform
# --------------------------------------------------------------------------

def _check_epsilon(epsilon: int) -> int:
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    return int(epsilon)


def _dual_gradient_parts(gx, gy, direction: DualDirection, epsilon: int,
                         tau: float):
    """The dual one-form from the source gradient g alone, elementwise.

    Both directions are w = (g_y, -g_x) / r, with r = sqrt(eps B) toward
    the potential and r = -sqrt(|grad phi|^2 + eps) toward the stream
    function.  Returns (w1, w2, r, r^2).
    """
    _check_tolerances(tau)
    eps = float(epsilon)
    if direction == DualDirection.TO_POTENTIAL:
        b = b_of_gradient(gx, gy)
        r2 = eps * b
        if np.any(r2 <= tau):
            if np.any(np.abs(b) <= tau):
                raise SonicPointError("dual one-form hit a sonic point")
            raise DegenerateDenominatorError(
                "sign of B does not match requested epsilon")
        r = np.sqrt(r2)
    else:
        r2 = gx * gx + gy * gy + eps
        if np.any(r2 <= tau):
            raise DegenerateDenominatorError(
                "|grad phi|^2 + epsilon not positive: dual gradient undefined")
        r = -np.sqrt(r2)
    return gy / r, -gx / r, r, r2


def _dual_jet_parts(j: Jet2, direction: DualDirection, epsilon: int,
                    tau: float):
    """Gradient, unsymmetrized cross partials and pure second partials of
    the dual field, all from the source jet g.  Works elementwise on arrays.

    w and r come from _dual_gradient_parts; r' = k (g_x g_x' + g_y g_y') / r
    with k = -eps toward the potential and 1 toward the stream function,
    formed as (g_x g_x' + g_y g_y') / (k r): the same bits, as k = +-1.

    Returns (w1, w2, d_y w1, d_x w2, d_x w1, d_y w2).
    """
    w1, w2, r, r2 = _dual_gradient_parts(j.gx, j.gy, direction, epsilon, tau)
    kr = -float(epsilon) * r if direction == DualDirection.TO_POTENTIAL else r
    r_x = (j.gx * j.hxx + j.gy * j.hxy) / kr
    r_y = (j.gx * j.hxy + j.gy * j.hyy) / kr
    return (w1, w2,
            j.hyy / r - j.gy * r_y / r2, -j.hxx / r + j.gx * r_x / r2,
            j.hxy / r - j.gy * r_x / r2, -j.hxy / r + j.gx * r_y / r2)


def dual_one_form(f: GraphField, x, y, direction: DualDirection,
                  epsilon: int, tau: float | None = None):
    """Components (w1, w2) of the dual one-form at a point (or arrays),
    from one gradient query of ``f``.

    TO_POTENTIAL: (psi_y, -psi_x)/sqrt(eps B); TO_STREAM:
    (-phi_y, phi_x)/sqrt(|grad phi|^2 + eps).
    """
    epsilon = _check_epsilon(epsilon)
    tau = f.default_tau_light() if tau is None else tau
    w1, w2, _, _ = _dual_gradient_parts(*f.grad_grid(x, y), direction,
                                        epsilon, tau)
    return w1, w2


def dual_jet(j: Jet2, direction: DualDirection, epsilon: int,
             tau: float, value=np.nan) -> Jet2:
    """Two-jet of the dual field from a source jet (Hessian symmetrized)."""
    w1, w2, w1_y, w2_x, w1_x, w2_y = _dual_jet_parts(j, direction, epsilon, tau)
    return Jet2(value, w1, w2, w1_x, 0.5 * (w1_y + w2_x), w2_y)


def one_form_curl(f: GraphField, x, y, direction: DualDirection,
                  epsilon: int, tau: float | None = None):
    """d_y w1 - d_x w2: zero exactly when the source solves its PDE."""
    epsilon = _check_epsilon(epsilon)
    tau = f.default_tau_light() if tau is None else tau
    _, _, w1_y, w2_x, _, _ = _dual_jet_parts(f.jet2_grid(x, y), direction,
                                             epsilon, tau)
    return w1_y - w2_x


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------

def _check_tol(quad_tol: float) -> None:
    if not (math.isfinite(quad_tol) and quad_tol > 0.0):
        raise ValueError("quad_tol must be finite and above 0")


def _same_bits(u, v):
    return u.view(np.int64) == v.view(np.int64)


def nested_simpson(g, a, b, tol: float, where=lambda s: f"segment {s}",
                   runs=None):
    """Integrals of ``g`` over the segments [a[s], b[s]] by composite
    Simpson with doubling refinement, each segment until two successive
    refinements differ by less than tol (relative once the integral
    outgrows unit scale; float accumulation forbids more).

    ``g(ts, segs)`` returns the integrand at the abscissae ``ts`` of the
    segments ``segs`` (flat arrays of one length).  The first pass samples
    the five nodes of every segment's 2- and 4-panel sums at once and
    makes the first check; each doubling after it evaluates only the new
    midpoints of the segments still open.  No call of ``g`` passes more
    than JET_POINTS points.  ``runs``, if given, holds a key per segment
    that names the line it lies on (its fixed coordinate): a segment that
    starts where the one before it ends, on the same line, both bit for
    bit, takes that end's value instead of evaluating it again.  Nodes and
    sums are those of a per-segment np.linspace refinement, bit for bit.
    A segment still open past 2^18 panels raises QuadratureError, named
    by ``where(s)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(a.size)

    def sample(ts, segs):
        vals = np.empty(ts.size)
        for k in range(0, ts.size, JET_POINTS):
            part = slice(k, k + JET_POINTS)
            vals[part] = g(ts[part], segs[part])
        return vals

    def settle(segs, grown, prev, n):
        # check the n-panel sums against the previous ones; the segments
        # still open go on from these nodes
        h = (b[segs] - a[segs]) / n
        cur = h / 3.0 * (grown[:, 0] + grown[:, -1]
                         + 4.0 * np.sum(grown[:, 1:-1:2], axis=1)
                         + 2.0 * np.sum(grown[:, 2:-1:2], axis=1))
        delta = np.abs(cur - prev)
        done = delta < tol * np.maximum(1.0, np.abs(cur))
        out[segs[done]] = cur[done]
        if done.all():
            return []
        if n > 2 ** 18:
            s = segs[~done][0]
            raise QuadratureError(
                f"Simpson refinement stalled on {where(s)}, [{a[s]}, {b[s]}] "
                f"(last delta {delta[~done][0]:.3e} vs tol {tol:.1e})")
        return [(segs[~done], grown[~done], cur[~done], n)]

    segs = np.flatnonzero(a != b)
    ts = np.arange(5) * ((b[segs] - a[segs]) / 4)[:, None] + a[segs, None]
    ts[:, -1] = b[segs]
    chained = np.zeros(segs.size, dtype=bool)
    if runs is not None:
        runs = np.asarray(runs, dtype=float)
        chained[1:] = (_same_bits(a[segs[1:]], b[segs[:-1]])
                       & _same_bits(runs[segs[1:]], runs[segs[:-1]]))
    fresh = np.ones(ts.shape, dtype=bool)
    fresh[:, 0] = ~chained
    vals = np.empty(ts.shape)
    vals[fresh] = sample(ts[fresh],
                         np.broadcast_to(segs[:, None], ts.shape)[fresh])
    vals[chained, 0] = vals[np.flatnonzero(chained) - 1, -1]
    prev = (b[segs] - a[segs]) / 2 / 3.0 * (vals[:, 0] + 4.0 * vals[:, 2]
                                            + vals[:, 4])
    groups = settle(segs, vals, prev, 4)
    while groups:
        segs, vals, prev, n = groups.pop()
        if segs.size > 1 and segs.size * n > JET_POINTS:
            # refine in halves, so that the node table stays bounded
            half = segs.size // 2
            groups += [(segs[half:], vals[half:], prev[half:], n),
                       (segs[:half], vals[:half], prev[:half], n)]
            continue
        n *= 2
        h = (b[segs] - a[segs]) / n
        grown = np.empty((segs.size, n + 1))
        grown[:, ::2] = vals
        grown[:, 1::2] = sample(
            (np.arange(1, n, 2) * h[:, None] + a[segs, None]).ravel(),
            np.repeat(segs, n // 2)).reshape(segs.size, n // 2)
        groups += settle(segs, grown, prev, n)
    return out


# --------------------------------------------------------------------------
# dualize: potential recovery by L-path integration
# --------------------------------------------------------------------------

@dataclass
class DualResult:
    """Sampled dual field plus the path-independence diagnostics."""

    field: "DualField"
    base: tuple
    base_value: float
    direction: DualDirection
    epsilon: int
    path_scheme: str
    defect: float
    quad_tol: float


class DualField(GraphField):
    """Dual of a parent field: values from path integration on a lattice,
    gradient and Hessian transformed analytically from the parent's jets.

    Point values snap to the nearest lattice node; derivative components
    are evaluated at the exact query point whenever the parent has exact
    jets, so residual and round-trip checks are quadrature-independent.
    """

    def __init__(self, parent: GraphField, grid: SampledGrid,
                 direction: DualDirection, epsilon: int, tau: float,
                 name: str = ""):
        super().__init__(Rect(float(grid.xs[0]), float(grid.xs[-1]),
                              float(grid.ys[0]), float(grid.ys[-1])),
                         name or f"dual({parent.name})")
        self.parent = parent
        self.grid = grid
        self.direction = direction
        self.epsilon = epsilon
        self.tau = tau

    @property
    def jet_mode(self):  # inherits accuracy from the parent
        return self.parent.jet_mode

    def _jet2_grid(self, X, Y) -> Jet2:
        pj = self.parent.jet2_grid(X, Y)
        return dual_jet(pj, self.direction, self.epsilon, self.tau,
                        value=self.grid.values[self.grid.nearest_node(X, Y)])

    def _grad_grid(self, X, Y) -> tuple:
        w1, w2, _, _ = _dual_gradient_parts(
            *self.parent.grad_grid(X, Y), self.direction, self.epsilon,
            self.tau)
        return w1, w2

    def default_tau_light(self) -> float:
        return self.parent.default_tau_light()


def _segment_integrals(f, a, b, fixed, along_x: bool, *form):
    """Integral of the matching one-form component (w1 along x, w2 along y)
    over each axis segment from a to b at its fixed coordinate; a, b and
    fixed broadcast together and the result takes their shape.  ``form``
    is (direction, epsilon, tau, quad_tol)."""
    a, b, fixed = np.broadcast_arrays(a, b, fixed)
    shape = a.shape
    a, b, fixed = a.ravel(), b.ravel(), fixed.ravel()
    try:
        return _integrals(f, a, b, fixed, along_x, *form).reshape(shape)
    except ZmcError:
        # the first failing segment in path order decides the error, as
        # when the segments are integrated one at a time; every rule is
        # checked per point, so a range of segments fails exactly when it
        # holds a failing one, and halving the range that does finds it
        lo, hi = 0, a.size
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _integrals(f, a[lo:mid], b[lo:mid], fixed[lo:mid], along_x,
                           *form)
            except ZmcError:
                hi = mid
            else:
                lo = mid
        _integrals(f, a[lo:hi], b[lo:hi], fixed[lo:hi], along_x, *form)
        raise


def _integrals(f, a, b, fixed, along_x, direction, epsilon, tau, quad_tol):
    """_segment_integrals on flat arrays, all segments in one batch."""
    def points(ts, segs):
        return (ts, fixed[segs]) if along_x else (fixed[segs], ts)

    if f.jet_mode == "exact":
        def w(ts, segs):
            return dual_one_form(f, *points(ts, segs), direction, epsilon,
                                 tau)[0 if along_x else 1]
        axis, other = ("x", "y") if along_x else ("y", "x")
        return nested_simpson(
            w, a, b, quad_tol,
            lambda s: f"the {axis}-segment at {other} = {fixed[s]}", fixed)

    # lattice-backed source, jets at nodes only: endpoint-corrected
    # trapezoid (Euler-Maclaurin, O(h^4))
    out = np.zeros(a.size)
    todo = np.flatnonzero(a != b)
    for first in range(0, todo.size, JET_POINTS):
        segs = todo[first:first + JET_POINTS]
        ends = []
        for t in (a, b):  # the start nodes first, then the end nodes
            j = dual_jet(f.jet2_grid(*points(t[segs], segs)), direction,
                         epsilon, tau)
            ends.append((j.gx, j.hxx) if along_x else (j.gy, j.hyy))
        (ga, da), (gb, db) = ends
        h = b[segs] - a[segs]
        out[segs] = h * 0.5 * (ga + gb) - h * h / 12.0 * (db - da)
    return out


def _runs(f, start: float, stops: np.ndarray, fixed, along_x: bool, *form):
    """Values at the sorted ``stops`` of the runs from ``start``, one row
    per fixed coordinate: the segment integrals rightward, then leftward,
    summed outward from 0.0 (``form``: direction, epsilon, tau, quad_tol)."""
    k = int(np.searchsorted(stops, start))
    up = np.concatenate(([start], stops[k:]))
    down = np.concatenate(([start], stops[:k][::-1]))
    seg = _segment_integrals(f, np.concatenate((up[:-1], down[:-1])),
                             np.concatenate((up[1:], down[1:])),
                             np.reshape(fixed, (-1, 1)), along_x, *form)
    zero = np.zeros((seg.shape[0], 1))
    up = np.cumsum(np.hstack((zero, seg[:, :stops.size - k])), axis=1)
    down = np.cumsum(np.hstack((zero, seg[:, stops.size - k:])), axis=1)
    return np.hstack((down[:, :0:-1], up[:, 1:]))


def dualize(f: GraphField, res: tuple, base: tuple,
            base_value: float = 0.0,
            direction: DualDirection = DualDirection.TO_POTENTIAL,
            epsilon: int = 1) -> DualResult:
    """Recover the dual field on ``f``'s domain, a lattice of ``res``
    nodes, by integrating the dual one-form to QUAD_TOL per segment.

    Every node value comes from an x-first L-path from ``base``: one spine
    integration along the base row, then per-column vertical runs.  The
    path-independence defect is the maximum x-first vs y-first discrepancy
    over ``DEFECT_NODES`` pseudo-random nodes (fixed seed, deterministic).
    The segments of all paths are integrated together, a block at a time,
    by nested Simpson (lattice-backed sources: corrected trapezoid).  A
    defect above 100x the result's ``quad_tol`` (QUAD_TOL; on a lattice,
    max(hx, hy)**2) raises NonExactFormError: the source does not solve
    the matching PDE.  A base value that is not finite raises ValueError.
    """
    epsilon = _check_epsilon(epsilon)
    if not math.isfinite(base_value):
        raise ValueError(f"base value must be finite, got {base_value}")
    nx, ny = res
    if nx < 3 or ny < 3:
        raise ValueError("dualize needs res >= 3x3")
    bx, by = float(base[0]), float(base[1])
    if not f.domain.contains(bx, by):
        raise OutOfDomainError(f"base point ({bx}, {by}) outside the domain")
    tau = f.default_tau_light()
    xs, ys = f.domain.lattice(nx, ny)

    lattice = f.jet_mode == "lattice"
    if lattice:
        # node-anchored quadrature: the lattice must be the parent's, which
        # spans the same rectangle, so the same node counts suffice
        g = f.grid if isinstance(f, (GridField, DualField)) else None
        if g is None or (g.nx, g.ny) != (nx, ny):
            raise ValueError("lattice-backed sources dualize on their own grid")
        i0, j0 = g.nearest_node(bx, by)
        if abs(bx - xs[i0]) > 1e-9 * g.hx or abs(by - ys[j0]) > 1e-9 * g.hy:
            raise ValueError("lattice-backed sources need the base on a node")
        bx, by = float(xs[i0]), float(ys[j0])
        quad_eff = max(g.hx, g.hy) ** 2
    else:
        quad_eff = QUAD_TOL

    # the y-first paths of a deterministic pseudo-random node subset
    rng = np.random.default_rng(0)
    count = min(DEFECT_NODES, nx * ny)
    pi, pj = np.divmod(rng.choice(nx * ny, size=count, replace=False), ny)

    # the spine along the base row, then the column runs a block at a
    # time, so that no array but the values spans the lattice
    form = (direction, epsilon, tau, QUAD_TOL)
    spine = base_value + _runs(f, bx, xs, [by], True, *form)[0]
    values = np.empty((nx, ny))
    step = max(1, SEGMENT_BLOCK // ny)
    for i in range(0, nx, step):
        values[i:i + step] = spine[i:i + step, None] \
            + _runs(f, by, ys, xs[i:i + step], False, *form)
    base_col = _runs(f, by, ys, [bx], False, *form)[0]
    if lattice:
        # stay node-by-node; long hops lose the O(h^4) correction
        row_val = _runs(f, bx, xs, ys[pj], True, *form)[np.arange(count), pi]
    else:
        # one-segment runs
        row_val = 0.0 + _segment_integrals(f, bx, xs[pi], ys[pj], True, *form)
    yfirst = base_value + base_col[pj] + row_val
    defect = max([0.0, *np.abs(values[pi, pj] - yfirst).tolist()])

    if defect > NONEXACT_FACTOR * quad_eff:
        raise NonExactFormError(
            f"path-independence defect {defect:.3e} exceeds "
            f"{NONEXACT_FACTOR:g} x {quad_eff:.1e}: one-form is not closed "
            "(source does not solve the matching PDE)", defect)

    grid = SampledGrid(xs, ys, values)
    out_field = DualField(f, grid, direction, epsilon, tau)
    return DualResult(out_field, (bx, by), float(base_value), direction,
                      epsilon, "L-paths, x-first", float(defect), quad_eff)


# --------------------------------------------------------------------------
# involution checks and the divergence probe
# --------------------------------------------------------------------------

def double_dual_check(f: GraphField, res: tuple, epsilon: int) -> dict:
    """Apply the duality twice and compare gradients with the source.

    eps = +1 chain (to-stream then to-potential): the double dual must
    reproduce grad f.  eps = -1 chain (to-stream twice): the double dual
    negates the gradient.  Returns both the gradient defect and the two
    path-independence defects.
    """
    epsilon = _check_epsilon(epsilon)
    domain = f.domain
    base = (0.5 * (domain.x0 + domain.x1), 0.5 * (domain.y0 + domain.y1))
    first = dualize(f, res, base, 0.0, DualDirection.TO_STREAM, epsilon)
    second_dir = (DualDirection.TO_POTENTIAL if epsilon > 0
                  else DualDirection.TO_STREAM)
    second = dualize(first.field, res, base, 0.0, second_dir, epsilon)

    X, Y = domain.meshgrid(*res)
    g0x, g0y = f.grad_grid(X, Y)
    g2x, g2y = second.field.grad_grid(X, Y)
    sign = 1.0 if epsilon > 0 else -1.0
    defect = float(np.max(np.hypot(g2x - sign * g0x, g2y - sign * g0y)))
    return {
        "epsilon": epsilon,
        "relation": "identity" if epsilon > 0 else "gradient-negation",
        "gradient_defect": defect,
        "path_defects": [first.defect, second.defect],
    }


def divergence_probe(f: GraphField, xs, y: float,
                     anchor: float | None = None,
                     epsilon: int | None = None,
                     quad_tol: float = 1e-9,
                     tau: float | None = None) -> np.ndarray:
    """|phi| along a horizontal approach to a degenerate light-like line.

    ``xs`` must decrease strictly toward the line; the potential is
    integrated cumulatively from (anchor, y) through each x.  The caller
    inspects monotone growth; near a degenerate line at x0 the values
    diverge as x -> x0.  ``tau`` overrides the sonic guard, which a probe
    pushing close to the line must keep below min |B| on the path; the
    quadrature tolerance is softer than dualize's because cancellation in
    B caps the integrand accuracy near the line at about eps/|B|.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or np.any(np.diff(xs) >= 0.0):
        raise ValueError("xs must be strictly decreasing")
    _check_tol(quad_tol)
    anchor = float(xs[0]) if anchor is None else float(anchor)
    if epsilon is None:
        epsilon = 1 if b_of_gradient(*f.grad_grid(anchor, y)) > 0 else -1
    epsilon = _check_epsilon(epsilon)
    tau = f.default_tau_light() if tau is None else float(tau)

    path = np.concatenate(([anchor], xs))
    seg = _segment_integrals(f, path[:-1], path[1:], float(y), True,
                             DualDirection.TO_POTENTIAL, epsilon, tau,
                             quad_tol)
    return np.abs(np.cumsum(np.concatenate(([0.0], seg)))[1:])
