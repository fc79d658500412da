"""Pointwise Lorentzian and Euclidean geometry of graphs t = psi(x, y).

The causal indicator of a graph is B = 1 - psi_x^2 - psi_y^2: positive at
space-like points, negative at time-like points, zero at light-like points.
A light-like point is degenerate when grad B vanishes there as well; those
points organize into straight light-like lines, which this module detects
on lattices and verifies by total-least-squares fits.

All operations are pure and safe to call concurrently; lattice sweeps are
vectorized over nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InsufficientSamplesError, LightLikePointError
from .exprfield import GraphField, Jet2

__all__ = [
    "CausalClass",
    "CausalSample",
    "IdentityReport",
    "LightLine",
    "causal_b",
    "causal_b_grid",
    "classify",
    "classify_grid",
    "detect_lightlike_set",
    "gauss_curvature_euclid",
    "lightlike_identity_check",
    "mean_curvature",
    "minimal_residual",
    "timelike_residual",
    "verify_line_theorem",
    "zmc_residual",
]

DEFAULT_TAU_GRAD = 1e-7
#: position tolerance for bisection refinement along lattice edges
REFINE_TOL = 1e-10
#: a verified light-like line needs residual and defect at or below this
LINE_TOL = 1e-8


class CausalClass(Enum):
    SPACE_LIKE = "space-like"
    TIME_LIKE = "time-like"
    LIGHT_NONDEGENERATE = "light-like-nondegenerate"
    LIGHT_DEGENERATE = "light-like-degenerate"

    @property
    def is_lightlike(self) -> bool:
        return self in (CausalClass.LIGHT_NONDEGENERATE,
                        CausalClass.LIGHT_DEGENERATE)


@dataclass
class CausalSample:
    """One classified point: B value, grad B, and the causal class."""

    x: float
    y: float
    b: float
    bx: float
    by: float
    cls: CausalClass


@dataclass
class LightLine:
    """A fitted line of degenerate light-like points with its lift to L^3.

    ``lifted`` is (dx, dy, dt) with dt the directional derivative of the
    graph function along (dx, dy); the lightlikeness defect is
    |dx^2 + dy^2 - dt^2|.
    """

    base: tuple
    direction: tuple
    lifted: tuple
    samples: list = field(repr=False)
    perp_residual: float = 0.0
    lightlike_defect: float = 0.0

    @property
    def verified(self) -> bool:
        return (self.perp_residual <= LINE_TOL
                and self.lightlike_defect <= LINE_TOL)


@dataclass
class IdentityReport:
    """Lattice maxima certifying the light-like implication chain:
    eikonal |grad psi| = 1  =>  ZMC residual 0  and  flat Hessian."""

    max_eikonal_defect: float
    max_zmc_residual: float
    max_hessian_det: float

    def as_dict(self) -> dict:
        return {
            "max_eikonal_defect": self.max_eikonal_defect,
            "max_zmc_residual": self.max_zmc_residual,
            "max_hessian_det": self.max_hessian_det,
        }


# --------------------------------------------------------------------------
# jet-level formulas (work elementwise on scalars and arrays)
# --------------------------------------------------------------------------

def b_of_jet(j: Jet2):
    return 1.0 - j.gx * j.gx - j.gy * j.gy


def gradb_of_jet(j: Jet2):
    bx = -2.0 * (j.gx * j.hxx + j.gy * j.hxy)
    by = -2.0 * (j.gx * j.hxy + j.gy * j.hyy)
    return bx, by


def zmc_residual_of_jet(j: Jet2):
    return ((1.0 - j.gy * j.gy) * j.hxx
            + 2.0 * j.gx * j.gy * j.hxy
            + (1.0 - j.gx * j.gx) * j.hyy)


def minimal_residual_of_jet(j: Jet2):
    return ((1.0 + j.gy * j.gy) * j.hxx
            - 2.0 * j.gx * j.gy * j.hxy
            + (1.0 + j.gx * j.gx) * j.hyy)


def _pow(base, p):
    """base ** p by the C library's pow, as Python floats compute it: numpy's
    vectorized power differs in the last bit, and lattice curvatures are to
    match point ones exactly."""
    return np.asarray(np.frompyfunc(pow, 2, 1)(base, p), dtype=float)


def refuse_lightlike(b, tau_light: float, x, y, error, message: str):
    """Raise ``error`` naming the first point, in row-major order, where
    |B| is at or below tau_light."""
    bad = np.abs(b) <= tau_light
    if np.any(bad):
        k = np.unravel_index(np.argmax(bad), np.shape(bad))
        raise error(f"{message} ({np.asarray(x)[k]}, {np.asarray(y)[k]})")


def mean_curvature_of_jet(j: Jet2, tau_light: float, x, y):
    """H = zmc_residual / (2 |B|^(3/2)); raises LightLikePointError at the
    first of the points (x, y) where |B| <= tau_light."""
    b = b_of_jet(j)
    refuse_lightlike(b, tau_light, x, y, LightLikePointError,
                     "mean curvature undefined at light-like point")
    return zmc_residual_of_jet(j) / (2.0 * _pow(abs(b), 1.5))


def gauss_curvature_of_jet(j: Jet2):
    det = j.hxx * j.hyy - j.hxy * j.hxy
    return det / _pow(1.0 + j.gx * j.gx + j.gy * j.gy, 2)


# --------------------------------------------------------------------------
# pointwise operations
# --------------------------------------------------------------------------

def causal_b(f: GraphField, x: float, y: float):
    """B = 1 - psi_x^2 - psi_y^2 and its gradient at one point."""
    j = f.jet2(x, y)
    return b_of_jet(j), gradb_of_jet(j)


def causal_b_grid(f: GraphField, X, Y):
    """Vectorized (B, Bx, By) over arrays of points."""
    j = f.jet2_grid(X, Y)
    bx, by = gradb_of_jet(j)
    return b_of_jet(j), bx, by


def _class_of(b: float, bx: float, by: float,
              tau_light: float, tau_grad: float) -> CausalClass:
    if b > tau_light:
        return CausalClass.SPACE_LIKE
    if b < -tau_light:
        return CausalClass.TIME_LIKE
    if math.hypot(bx, by) <= tau_grad:
        return CausalClass.LIGHT_DEGENERATE
    return CausalClass.LIGHT_NONDEGENERATE


def classify(f: GraphField, x: float, y: float,
             tau_light: float | None = None,
             tau_grad: float = DEFAULT_TAU_GRAD) -> CausalSample:
    """Causal class of a point: space-like for B > tau_light, time-like for
    B < -tau_light, light-like otherwise, degenerate when |grad B| is below
    tau_grad as well."""
    tau_light = f.default_tau_light() if tau_light is None else tau_light
    if tau_light <= 0 or tau_grad <= 0:
        raise ValueError("tolerances must be positive")
    b, (bx, by) = causal_b(f, x, y)
    return CausalSample(float(x), float(y), b, bx, by,
                        _class_of(b, bx, by, tau_light, tau_grad))


def classify_grid(f: GraphField, X, Y,
                  tau_light: float | None = None,
                  tau_grad: float = DEFAULT_TAU_GRAD) -> list[CausalSample]:
    """Classify every lattice node, row-major in the x index."""
    tau_light = f.default_tau_light() if tau_light is None else tau_light
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    b, bx, by = causal_b_grid(f, X, Y)
    b, bx, by = np.broadcast_arrays(b, bx, by)
    out = []
    Xb = np.broadcast_to(X, b.shape)
    Yb = np.broadcast_to(Y, b.shape)
    for idx in np.ndindex(b.shape):
        out.append(CausalSample(
            float(Xb[idx]), float(Yb[idx]), float(b[idx]),
            float(bx[idx]), float(by[idx]),
            _class_of(float(b[idx]), float(bx[idx]), float(by[idx]),
                      tau_light, tau_grad)))
    return out


def zmc_residual(f: GraphField, x: float, y: float) -> float:
    """(1 - psi_y^2) psi_xx + 2 psi_x psi_y psi_xy + (1 - psi_x^2) psi_yy."""
    return zmc_residual_of_jet(f.jet2(x, y))


def minimal_residual(f: GraphField, x: float, y: float) -> float:
    """(1 + phi_y^2) phi_xx - 2 phi_x phi_y phi_xy + (1 + phi_x^2) phi_yy."""
    return minimal_residual_of_jet(f.jet2(x, y))


def timelike_residual(f: GraphField, x: float, y: float) -> float:
    """Time-like branch of the dual equation; same form as zmc_residual."""
    return zmc_residual_of_jet(f.jet2(x, y))


def mean_curvature(f: GraphField, x: float, y: float,
                   tau_light: float | None = None) -> float:
    """H = zmc_residual / (2 |B|^(3/2)), upward co-orientation.

    Defined only away from the light cone: raises LightLikePointError when
    |B| is at or below the light-like tolerance.
    """
    tau_light = f.default_tau_light() if tau_light is None else tau_light
    return float(mean_curvature_of_jet(f.jet2(x, y), tau_light, x, y))


def gauss_curvature_euclid(f: GraphField, x: float, y: float) -> float:
    """Gauss curvature of the graph w.r.t. the Euclidean metric of R^3."""
    return float(gauss_curvature_of_jet(f.jet2(x, y)))


def lightlike_identity_check(f: GraphField, nx: int = 101,
                             ny: int = 101) -> IdentityReport:
    """Lattice maxima of eikonal defect, ZMC residual and Hessian
    determinant; all three vanish together on light-like graphs."""
    X, Y = f.domain.meshgrid(nx, ny)
    j = f.jet2_grid(X, Y)
    eik = np.abs(j.gx * j.gx + j.gy * j.gy - 1.0)
    res = np.abs(zmc_residual_of_jet(j))
    det = np.abs(j.hxx * j.hyy - j.hxy * j.hxy)
    return IdentityReport(float(np.max(eik)), float(np.max(res)),
                          float(np.max(det)))


# --------------------------------------------------------------------------
# light-like set detection
# --------------------------------------------------------------------------

def _bisect_zero(eval_b, a: float, b: float, fa: float, fb: float,
                 tol: float, f_tol: float) -> float:
    """Root of B along a segment parametrized by t in [a, b].

    Runs to the position tolerance, then keeps halving (bounded) until the
    B value itself is inside f_tol, so steep crossings still classify as
    light-like at the refined point.
    """
    best_t, best_f = a, abs(fa)
    if abs(fb) < best_f:
        best_t, best_f = b, abs(fb)
    for _ in range(200):
        if b - a <= tol and best_f <= f_tol:
            break
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break  # float resolution exhausted
        fm = eval_b(mid)
        if abs(fm) < best_f:
            best_t, best_f = mid, abs(fm)
        if fm == 0.0:
            break
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    return best_t


def _bisect_extremum(eval_db, a: float, b: float, da: float, db_: float,
                     tol: float) -> float:
    """Zero of the directional derivative of B along a segment."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        dm = eval_db(mid)
        if dm == 0.0:
            return mid
        if (da < 0.0) != (dm < 0.0):
            b, db_ = mid, dm
        else:
            a, da = mid, dm
    return 0.5 * (a + b)


def detect_lightlike_set(f: GraphField, nx: int, ny: int,
                         tau_light: float | None = None,
                         tau_grad: float = DEFAULT_TAU_GRAD,
                         refine_tol: float = REFINE_TOL) -> list[CausalSample]:
    """All light-like points found on a lattice, refined along edges.

    Lattice nodes with |B| <= tau_light are collected directly.  Each
    lattice edge is additionally searched for a sign change of B (bisection
    on B) and for an interior extremum of B (bisection on the directional
    derivative of B; catches lines where B only touches zero).  Refined
    positions are accurate to ``refine_tol``.  Exact-jet fields only get
    sub-node refinement; lattice-backed fields carry no information between
    nodes, so only node hits are reported for them.
    """
    tau_light = f.default_tau_light() if tau_light is None else tau_light
    xs, ys = f.domain.lattice(nx, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    b, bx, by = causal_b_grid(f, X, Y)
    b = np.broadcast_to(b, X.shape)
    bx = np.broadcast_to(bx, X.shape)
    by = np.broadcast_to(by, X.shape)

    hits: list[tuple[float, float]] = []
    node_mask = np.abs(b) <= tau_light
    for i, j in np.argwhere(node_mask):
        hits.append((float(xs[i]), float(ys[j])))

    if f.jet_mode == "exact":
        def b_at(x, y):
            return b_of_jet(f.jet2(x, y))

        # horizontal edges: vary x at fixed y
        sign_h = b[:-1, :] * b[1:, :] < 0.0
        extr_h = bx[:-1, :] * bx[1:, :] < 0.0
        for i, j in np.argwhere(sign_h):
            y0 = float(ys[j])
            x_star = _bisect_zero(lambda t: b_at(t, y0),
                                  float(xs[i]), float(xs[i + 1]),
                                  float(b[i, j]), float(b[i + 1, j]),
                                  refine_tol, tau_light)
            hits.append((x_star, y0))
        for i, j in np.argwhere(extr_h & ~sign_h):
            y0 = float(ys[j])
            x_star = _bisect_extremum(
                lambda t: gradb_of_jet(f.jet2(t, y0))[0],
                float(xs[i]), float(xs[i + 1]),
                float(bx[i, j]), float(bx[i + 1, j]), refine_tol)
            if abs(b_at(x_star, y0)) <= tau_light:
                hits.append((x_star, y0))

        # vertical edges: vary y at fixed x
        sign_v = b[:, :-1] * b[:, 1:] < 0.0
        extr_v = by[:, :-1] * by[:, 1:] < 0.0
        for i, j in np.argwhere(sign_v):
            x0 = float(xs[i])
            y_star = _bisect_zero(lambda t: b_at(x0, t),
                                  float(ys[j]), float(ys[j + 1]),
                                  float(b[i, j]), float(b[i, j + 1]),
                                  refine_tol, tau_light)
            hits.append((x0, y_star))
        for i, j in np.argwhere(extr_v & ~sign_v):
            x0 = float(xs[i])
            y_star = _bisect_extremum(
                lambda t: gradb_of_jet(f.jet2(x0, t))[1],
                float(ys[j]), float(ys[j + 1]),
                float(by[i, j]), float(by[i, j + 1]), refine_tol)
            if abs(b_at(x0, y_star)) <= tau_light:
                hits.append((x0, y_star))

    # deduplicate coincident finds (node hits vs refined edge hits land
    # within refine_tol of each other); keep deterministic order
    hits.sort()
    kept: list[tuple[float, float]] = []
    for p in hits:
        dup = False
        for q in reversed(kept):
            if p[0] - q[0] > 1e-9:
                break  # kept is x-sorted: everything earlier is further away
            if abs(p[1] - q[1]) <= 1e-9:
                dup = True
                break
        if not dup:
            kept.append(p)

    out = []
    for x, y in kept:
        s = classify(f, x, y, tau_light=tau_light, tau_grad=tau_grad)
        if s.cls.is_lightlike:
            out.append(s)
    return out


# --------------------------------------------------------------------------
# line theorem verification
# --------------------------------------------------------------------------

def _tls_fit(pts: np.ndarray):
    """Total-least-squares line through points: centroid, unit direction,
    and the largest perpendicular distance."""
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    normal = np.array([-direction[1], direction[0]])
    perp = float(np.max(np.abs(centered @ normal))) if len(pts) else 0.0
    return centroid, direction, perp


def _orient(direction: np.ndarray) -> np.ndarray:
    if direction[0] < -1e-12 or (abs(direction[0]) <= 1e-12 and direction[1] < 0):
        return -direction
    return direction


def verify_line_theorem(samples: list[CausalSample], f: GraphField,
                        cluster_tol: float | None = None) -> list[LightLine]:
    """Cluster degenerate samples into collinear families and lift each
    fitted line to L^3.

    Clustering is a greedy region-growing pass: a cluster absorbs every
    remaining sample whose perpendicular distance to the current fit stays
    within ``cluster_tol`` (default: 10x the median nearest-neighbour
    spacing of the samples).  Since degenerate lines of a graph are
    parallel, clusters never merge across lines.
    """
    pts_all = [s for s in samples if s.cls == CausalClass.LIGHT_DEGENERATE]
    if len(pts_all) < 2:
        raise InsufficientSamplesError(
            f"need at least 2 degenerate samples, got {len(pts_all)}")
    pts = np.array([[s.x, s.y] for s in pts_all])

    if cluster_tol is None:
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        cluster_tol = 10.0 * float(np.median(dist.min(axis=1)))

    unassigned = list(range(len(pts)))
    lines: list[LightLine] = []
    while unassigned:
        seed = unassigned.pop(0)
        if not unassigned:
            break  # singleton leftover: no line to fit
        rest = np.array(unassigned)
        d = np.sqrt(((pts[rest] - pts[seed]) ** 2).sum(axis=1))
        mate = int(rest[np.argmin(d)])
        cluster = [seed, mate]
        unassigned.remove(mate)
        while True:
            _, direction, _ = _tls_fit(pts[cluster])
            normal = np.array([-direction[1], direction[0]])
            centroid = pts[cluster].mean(axis=0)
            added = []
            for k in unassigned:
                if abs(float((pts[k] - centroid) @ normal)) <= cluster_tol:
                    added.append(k)
            if not added:
                break
            cluster.extend(added)
            for k in added:
                unassigned.remove(k)

        centroid, direction, perp = _tls_fit(pts[cluster])
        direction = _orient(direction)
        j = f.jet2(float(centroid[0]), float(centroid[1]))
        dt = j.gx * float(direction[0]) + j.gy * float(direction[1])
        defect = abs(direction[0] ** 2 + direction[1] ** 2 - dt * dt)
        order = np.argsort(pts[cluster] @ direction)
        members = [pts_all[cluster[k]] for k in order]
        lines.append(LightLine(
            base=(float(centroid[0]), float(centroid[1])),
            direction=(float(direction[0]), float(direction[1])),
            lifted=(float(direction[0]), float(direction[1]), float(dt)),
            samples=members,
            perp_residual=perp,
            lightlike_defect=float(defect)))

    lines.sort(key=lambda ln: ln.base)
    return lines
