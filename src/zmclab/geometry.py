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
#: samples whose predicted lines differ by at most this in angle (and by at
#: most this times 1 + half the domain diagonal in offset) share one line
LINE_KEY_TOL = 1e-6


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
# jet-level formulas (work elementwise on scalars and arrays; powers go
# through np.float_power, the C library's pow on points and lattices alike)
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


def _check_tolerances(*taus) -> None:
    """Light-like and gradient tolerances must be finite and above 0."""
    if not all(math.isfinite(t) and t > 0 for t in taus):
        raise ValueError(f"tolerances must be finite and positive, got {taus}")


def refuse_lightlike(b, tau_light: float, x, y, error, message: str):
    """Raise ``error`` naming the first point, in row-major order, where
    |B| is at or below tau_light."""
    _check_tolerances(tau_light)
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
    return zmc_residual_of_jet(j) / (2.0 * np.float_power(abs(b), 1.5))


def gauss_curvature_of_jet(j: Jet2):
    det = j.hxx * j.hyy - j.hxy * j.hxy
    return det / np.float_power(1.0 + j.gx * j.gx + j.gy * j.gy, 2)


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
    _check_tolerances(tau_light, tau_grad)
    b, (bx, by) = causal_b(f, x, y)
    return CausalSample(float(x), float(y), b, bx, by,
                        _class_of(b, bx, by, tau_light, tau_grad))


def classify_grid(f: GraphField, X, Y,
                  tau_light: float | None = None,
                  tau_grad: float = DEFAULT_TAU_GRAD) -> list[CausalSample]:
    """Classify every lattice node, row-major in the x index."""
    tau_light = f.default_tau_light() if tau_light is None else tau_light
    _check_tolerances(tau_light, tau_grad)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    cols = np.broadcast_arrays(X, Y, *causal_b_grid(f, X, Y))
    return [CausalSample(x, y, b, bx, by,
                         _class_of(b, bx, by, tau_light, tau_grad))
            for x, y, b, bx, by in zip(*(a.ravel().tolist() for a in cols))]


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

def _bisect_edges(f: GraphField, coords, nodes, n0, n1, comp, g_tol,
                  tol: float):
    """One bisection over arrays of lattice edges, each halving one lattice
    jet at the midpoints of the edges still open.

    Edge k runs along one axis from node ``n0[k]`` to node ``n1[k]``, flat
    indices into the (x, y) rows of ``coords`` and the (B, Bx, By) rows of
    ``nodes``.  It searches for a zero of component ``comp[k]`` of
    (B, Bx, By), call it g: it bisects to ``tol``, then keeps halving until
    the smallest |g| seen is within ``g_tol[k]``, stopping at float
    resolution, an exact zero or 200 halvings.  Returns the points of the
    smallest |g| seen and B there.
    """
    lo, hi = coords[:, n0], coords[:, n1]
    g_lo, g_hi = nodes[comp, n0], nodes[comp, n1]
    top = np.abs(g_hi) < np.abs(g_lo)
    best, best_g = np.where(top, hi, lo), np.abs(np.where(top, g_hi, g_lo))
    best_b = nodes[0, np.where(top, n1, n0)]
    open_ = np.ones(len(comp), dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)  # the fixed coordinate stays exact
        open_ &= (~(((hi - lo).sum(axis=0) <= tol) & (best_g <= g_tol))
                  & (mid > lo).any(axis=0) & (mid < hi).any(axis=0))
        k = np.flatnonzero(open_)
        if not k.size:
            break
        t = mid[:, k]
        bm = np.stack(causal_b_grid(f, *t))
        g = bm[comp[k], np.arange(k.size)]
        better = np.abs(g) < best_g[k]
        best[:, k[better]], best_g[k[better]] = t[:, better], np.abs(g[better])
        best_b[k[better]] = bm[0, better]
        left = (g_lo[k] < 0.0) != (g < 0.0)
        hi[:, k[left]] = t[:, left]
        lo[:, k[~left]], g_lo[k[~left]] = t[:, ~left], g[~left]
        open_[k[g == 0.0]] = False
    return best, best_b


def detect_lightlike_set(f: GraphField, nx: int, ny: int,
                         tau_light: float | None = None,
                         tau_grad: float = DEFAULT_TAU_GRAD,
                         refine_tol: float = REFINE_TOL) -> list[CausalSample]:
    """All light-like points found on a lattice, refined along edges.

    Lattice nodes with |B| <= tau_light are collected directly.  Each
    lattice edge is additionally searched for a sign change of B (a zero
    of B) and for an interior extremum of B (a zero of the directional
    derivative of B; catches lines where B only touches zero), all edges
    in one bisection (``_bisect_edges``).  Refined positions are accurate
    to ``refine_tol``; an extremum counts only where |B| <= tau_light.
    Exact-jet fields only get sub-node refinement; lattice-backed fields
    carry no information between nodes, so only node hits are reported
    for them.
    """
    tau_light = f.default_tau_light() if tau_light is None else tau_light
    _check_tolerances(tau_light, tau_grad)
    X, Y = np.meshgrid(*f.domain.lattice(nx, ny), indexing="ij")
    nodes = np.stack(causal_b_grid(f, X, Y)).reshape(3, -1)
    coords = np.stack([X.ravel(), Y.ravel()])
    hits = [coords[:, np.abs(nodes[0]) <= tau_light]]

    if f.jet_mode == "exact":
        # every edge as the flat indices of its two ends, x-edges first;
        # g is B where B changes sign, else B's derivative along the edge
        idx = np.arange(nx * ny).reshape(nx, ny)
        n0 = np.concatenate([idx[:-1].ravel(), idx[:, :-1].ravel()])
        n1 = np.concatenate([idx[1:].ravel(), idx[:, 1:].ravel()])
        axis = np.repeat([0, 1], [(nx - 1) * ny, nx * (ny - 1)])
        comp = np.where(nodes[0, n0] * nodes[0, n1] < 0.0, 0, 1 + axis)
        edge = nodes[comp, n0] * nodes[comp, n1] < 0.0
        n0, n1, comp = n0[edge], n1[edge], comp[edge]
        pts, b_at = _bisect_edges(f, coords, nodes, n0, n1, comp,
                                  np.where(comp == 0, tau_light, tau_grad),
                                  refine_tol)
        hits.append(pts[:, (comp == 0) | (np.abs(b_at) <= tau_light)])

    # deduplicate coincident finds (node hits vs refined edge hits land
    # within refine_tol of each other); keep deterministic order
    hits = sorted(zip(*np.concatenate(hits, axis=1).tolist()))
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
    samples = classify_grid(f, *np.reshape(kept, (-1, 2)).T,
                            tau_light=tau_light, tau_grad=tau_grad)
    return [s for s in samples if s.cls.is_lightlike]


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


def verify_line_theorem(samples: list[CausalSample],
                        f: GraphField) -> list[LightLine]:
    """Group degenerate samples by the line each one's jet predicts, then
    fit each group and lift it to L^3.

    At a degenerate light-like point |grad psi| = 1, and the light-like
    line through it projects along grad psi.  A sample's key is theta, the
    angle of grad psi mod pi, and the offset n . (p - c), with
    n = (-sin theta, cos theta) and c the domain centre.  Sorted keys split
    where they differ by more than LINE_KEY_TOL (in offset: times 1 + half
    the domain diagonal); the angles are cut at their widest gap.  Groups
    of one are dropped; groups are fitted in (x, y) order, so the order of
    ``samples`` does not matter.
    """
    degenerate = sorted((s for s in samples
                         if s.cls == CausalClass.LIGHT_DEGENERATE),
                        key=lambda s: (s.x, s.y))
    pts = np.array([[s.x, s.y] for s in degenerate]).reshape(-1, 2)
    j = f.jet2_grid(pts[:, 0], pts[:, 1])
    theta = np.mod(np.arctan2(j.gy, j.gx), np.pi)
    if theta.size:
        # angles below the widest gap move up by pi: the seam lies there
        ts = np.sort(theta)
        seam = ts[(np.argmax(np.diff(ts, append=ts[0] + np.pi)) + 1) % ts.size]
        theta = np.where(theta < seam, theta + np.pi, theta)
    d = f.domain
    normal = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    offset = ((pts - [0.5 * (d.x0 + d.x1), 0.5 * (d.y0 + d.y1)])
              * normal).sum(axis=1)
    order = np.argsort(theta)
    band = np.zeros(theta.size, dtype=int)
    band[order[1:]] = np.cumsum(np.diff(theta[order]) > LINE_KEY_TOL)
    order = np.lexsort((offset, band))
    cut = (np.diff(band[order]) != 0) | (
        np.diff(offset[order])
        > LINE_KEY_TOL * (1.0 + 0.5 * math.hypot(d.x1 - d.x0, d.y1 - d.y0)))
    groups = [np.sort(g) for g in np.split(order, np.flatnonzero(cut) + 1)
              if g.size > 1]
    if not groups:
        raise InsufficientSamplesError(f"no 2 of the {len(degenerate)} "
                                       "degenerate samples share a line")

    centroids = np.array([pts[g].mean(axis=0) for g in groups])
    j = f.jet2_grid(centroids[:, 0], centroids[:, 1])  # one jet for all lines
    lines: list[LightLine] = []
    for n, g in enumerate(groups):
        centroid, direction, perp = _tls_fit(pts[g])
        direction = _orient(direction)
        dt = float(j.gx[n] * direction[0] + j.gy[n] * direction[1])
        defect = abs(direction[0] ** 2 + direction[1] ** 2 - dt * dt)
        members = [degenerate[k] for k in g[np.argsort(pts[g] @ direction)]]
        lines.append(LightLine(
            base=(float(centroid[0]), float(centroid[1])),
            direction=(float(direction[0]), float(direction[1])),
            lifted=(float(direction[0]), float(direction[1]), dt),
            samples=members,
            perp_residual=perp,
            lightlike_defect=float(defect)))

    lines.sort(key=lambda ln: ln.base)
    return lines
