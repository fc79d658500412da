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
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InsufficientSamplesError, LightLikePointError
from .exprfield import GraphField, Jet2

__all__ = [
    "CausalClass",
    "CausalSample",
    "CausalSamples",
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
#: bracket width at which the refinement along a lattice edge may close;
#: each refined point lies within it of a zero on its edge
REFINE_TOL = 1e-10
#: light-like points found closer than this in both x and y count as one
DUP_TOL = 1e-9
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


#: the classes in the order of their codes in ``CausalSamples.code``:
#: 0 space-like, 1 time-like, 2 and 3 light-like (non-degenerate, degenerate)
CLASSES = tuple(CausalClass)
_NAMES = np.array([c.value for c in CLASSES], dtype=object)
_COLUMNS = ("x", "y", "b", "bx", "by", "code")


@dataclass(frozen=True, eq=False)
class CausalSamples:
    """Classified points as columns: float64 ``x, y, b, bx, by`` and the
    int8 ``code`` of each point's class, an index into ``CLASSES``.

    It reads like a list of ``CausalSample``: ``len``, iteration and an
    integer index give ``CausalSample`` objects, and it equals any sequence
    of equal samples.  A slice, a boolean mask or an index array gives the
    ``CausalSamples`` of those points.  The columns are read-only, and the
    constructor copies its arguments, so later writes to them do not show.
    """

    x: np.ndarray
    y: np.ndarray
    b: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    code: np.ndarray

    def __post_init__(self):
        self._own(np.array(getattr(self, k), dtype=np.int8 if k == "code"
                           else float) for k in _COLUMNS)

    def _own(self, cols):
        """Set the columns to ``cols``, flattened and made read-only."""
        cols = [c.ravel() for c in cols]
        if any(c.size != cols[0].size for c in cols):
            raise ValueError("causal sample columns differ in length")
        for name, col in zip(_COLUMNS, cols, strict=True):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @classmethod
    def _adopt(cls, cols) -> CausalSamples:
        """The ``CausalSamples`` of float64 and int8 columns that no caller
        can write to (fresh arrays, or views of read-only columns), taken
        without the copy that the constructor makes."""
        out = object.__new__(cls)
        out._own(cols)
        return out

    @property
    def columns(self) -> tuple:
        """(x, y, b, bx, by, code)."""
        return self.x, self.y, self.b, self.bx, self.by, self.code

    @classmethod
    def of(cls, samples) -> CausalSamples:
        """The columns of a sequence of ``CausalSample`` (or the argument
        itself when it is a ``CausalSamples`` already)."""
        if isinstance(samples, CausalSamples):
            return samples
        rows = [(s.x, s.y, s.b, s.bx, s.by, CLASSES.index(s.cls))
                for s in samples]
        return cls(*np.array(rows, dtype=float).reshape(-1, 6).T)

    @classmethod
    def concat(cls, *parts: CausalSamples) -> CausalSamples:
        return cls._adopt(map(np.concatenate,
                              zip(*(p.columns for p in parts))))

    def __len__(self) -> int:
        return self.code.size

    def __getitem__(self, index):
        try:
            k = operator.index(index)
        except TypeError:  # a slice, a mask or an array of indices
            return CausalSamples._adopt(c[index] for c in self.columns)
        *values, code = (c[k].item() for c in self.columns)
        return CausalSample(*values, CLASSES[code])

    def __iter__(self):
        for *values, code in zip(*(c.tolist() for c in self.columns)):
            yield CausalSample(*values, CLASSES[code])

    def __eq__(self, other):
        try:
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        except TypeError:
            return NotImplemented

    def in_class(self, *classes: CausalClass) -> np.ndarray:
        """Boolean mask of the points in any of ``classes``."""
        table = np.zeros(len(CLASSES), dtype=bool)
        table[[CLASSES.index(c) for c in classes]] = True
        return table[self.code]

    @property
    def names(self) -> np.ndarray:
        """Each point's class name, as an object array."""
        return _NAMES[self.code]


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
    samples: CausalSamples = field(repr=False)
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


# --------------------------------------------------------------------------
# jet-level formulas (work elementwise on scalars and arrays; powers go
# through np.float_power, the C library's pow on points and lattices alike)
# --------------------------------------------------------------------------

def b_of_gradient(gx, gy):
    return 1.0 - gx * gx - gy * gy


def b_of_jet(j: Jet2):
    return b_of_gradient(j.gx, j.gy)


def gradb_of_jet(j: Jet2):
    bx = -2.0 * (j.gx * j.hxx + j.gy * j.hxy)
    by = -2.0 * (j.gx * j.hxy + j.gy * j.hyy)
    return bx, by


def quasilinear_residual_of_jet(j: Jet2, s: float):
    """(1 + s psi_y^2) psi_xx - 2 s psi_x psi_y psi_xy
    + (1 + s psi_x^2) psi_yy: the ZMC operator of L^3 at s = -1, the
    minimal operator of E^3 at s = +1 and the Laplacian at s = 0."""
    return ((1.0 + s * j.gy * j.gy) * j.hxx
            - 2.0 * s * j.gx * j.gy * j.hxy
            + (1.0 + s * j.gx * j.gx) * j.hyy)


def zmc_residual_of_jet(j: Jet2):
    return quasilinear_residual_of_jet(j, -1.0)


def minimal_residual_of_jet(j: Jet2):
    return quasilinear_residual_of_jet(j, 1.0)


def _check_tolerances(*taus) -> None:
    """Light-like and gradient tolerances must be finite and above 0."""
    if not all(math.isfinite(t) and t > 0 for t in taus):
        raise ValueError(f"tolerances must be finite and positive, got {taus}")


def refuse_lightlike(b, tau_light: float, x, y, error, message: str):
    """Raise ``error`` naming the first point, in row-major order, where
    |B| is at or below tau_light."""
    _check_tolerances(tau_light)
    x, y, bad = np.broadcast_arrays(x, y, np.abs(b) <= tau_light)
    if np.any(bad):
        k = np.argmax(bad)
        raise error(f"{message} ({x.flat[k]}, {y.flat[k]})")


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


def _class_codes(b, bx, by, tau_light: float, tau_grad: float):
    """Class codes (see ``CLASSES``) of points with these B, Bx, By:
    space-like for B > tau_light, time-like for B < -tau_light, otherwise
    light-like, degenerate when hypot(Bx, By) <= tau_grad (never for a NaN
    hypot).  np.hypot may differ from math.hypot in the last bit, so
    math.hypot settles the points within 4 ulps of tau_grad.  Only the
    light-like points (NaN B among them) take the gradient test."""
    code = np.select([b > tau_light, b < -tau_light], [0, 1], 2
                     ).astype(np.int8)
    light = np.flatnonzero(code == 2)
    p, q = bx[light], by[light]
    g = np.hypot(p, q)
    degenerate = g <= tau_grad
    near = np.flatnonzero(np.abs(g - tau_grad) <= 4.0 * np.spacing(tau_grad))
    degenerate[near] = [math.hypot(u, v) <= tau_grad for u, v in
                        zip(p[near].tolist(), q[near].tolist())]
    code[light[degenerate]] = 3
    return code


def classify(f: GraphField, x: float, y: float,
             tau_light: float | None = None,
             tau_grad: float = DEFAULT_TAU_GRAD) -> CausalSample:
    """Causal class of a point: space-like for B > tau_light, time-like for
    B < -tau_light, light-like otherwise, degenerate when |grad B| is below
    tau_grad as well."""
    return classify_grid(f, x, y, tau_light, tau_grad)[0]


def classify_grid(f: GraphField, X, Y,
                  tau_light: float | None = None,
                  tau_grad: float = DEFAULT_TAU_GRAD) -> CausalSamples:
    """Classify every lattice node, row-major in the x index."""
    tau_light = f.default_tau_light() if tau_light is None else tau_light
    _check_tolerances(tau_light, tau_grad)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    rows = np.stack(np.broadcast_arrays(X, Y, *causal_b_grid(f, X, Y)))
    code = _class_codes(*rows[2:].reshape(3, -1), tau_light, tau_grad)
    return CausalSamples._adopt([*rows, code])


def zmc_residual(f: GraphField, x: float, y: float) -> float:
    """(1 - psi_y^2) psi_xx + 2 psi_x psi_y psi_xy + (1 - psi_x^2) psi_yy."""
    return zmc_residual_of_jet(f.jet2(x, y))


def minimal_residual(f: GraphField, x: float, y: float) -> float:
    """(1 + phi_y^2) phi_xx - 2 phi_x phi_y phi_xy + (1 + phi_x^2) phi_yy."""
    return minimal_residual_of_jet(f.jet2(x, y))


#: the time-like branch of the dual equation has the ZMC operator's form
timelike_residual = zmc_residual


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

def _refine_edges(f: GraphField, rows, n0, n1, comp, g_tol, tol: float):
    """Refine a zero of g on each of an array of lattice edges, one lattice
    jet per pass at one new point on each edge still open.

    Edge k runs along one axis from node ``n0[k]`` to node ``n1[k]``, flat
    indices into the (x, y, B, Bx, By) rows of ``rows``; g is component
    ``comp[k]`` of (B, Bx, By), of opposite signs at the two ends.  Each
    pass keeps the sign bracket [lo, hi] and puts the new point at the
    weight w along it given by
      - false position, w = g_lo / (g_lo - g_hi), on stored ends whose g
        is halved when that end is kept twice running (Illinois);
      - moved to at least tol/2 inside each end, so that a zero on a node
        closes its bracket in one pass;
      - moved to within tol/2 * 2**(n_max - j) - span/2 of the midpoint on
        pass j, with n_max = ceil(log2(span0 / tol)) + 2 (the ITP bound: the
        bracket reaches tol at most 2 passes later than by halving);
      - the midpoint where w is not finite or both ends have |g| within
        ``g_tol[k]``: there g is rounding noise with no zero to refine.
    An edge closes when its bracket is within ``tol`` and the smallest |g|
    seen within ``g_tol[k]``, at float resolution, at an exact zero or
    after 200 passes.  Returns the (x, y, B, Bx, By) rows of the points of
    the smallest |g| seen: an end node's own row where no pass improved.
    """
    lo, hi = rows[:2, n0], rows[:2, n1]
    g_lo, g_hi = rows[2 + comp, n0], rows[2 + comp, n1]
    top = np.abs(g_hi) < np.abs(g_lo)
    best = rows[:, np.where(top, n1, n0)]
    best_g = np.abs(np.where(top, g_hi, g_lo))
    # ceil(log2(span0 / tol)) from the binary exponent, exact
    frac, exp = np.frexp((hi - lo).sum(axis=0) / tol)
    n_max = exp - (frac == 0.5) + 2
    kept = np.zeros(len(comp), dtype=np.int8)  # end kept last: lo -1, hi 1
    open_ = np.ones(len(comp), dtype=bool)
    for j in range(200):
        mid, step = 0.5 * (lo + hi), hi - lo  # step is 0 on the fixed axis
        span = step.sum(axis=0)
        open_ &= (~((span <= tol) & (best_g <= g_tol))
                  & (mid > lo).any(axis=0) & (mid < hi).any(axis=0))
        k = np.flatnonzero(open_)
        if not k.size:
            break
        a, b, s = g_lo[k], g_hi[k], span[k]
        with np.errstate(all="ignore"):
            w = a / (a - b)
        w = np.where(np.isfinite(w) & (np.maximum(np.abs(a), np.abs(b))
                                       > g_tol[k]), w, 0.5)
        reach = np.maximum(0.0, np.minimum(
            0.5 * (s - tol), np.ldexp(0.5 * tol, n_max[k] - j) - 0.5 * s)) / s
        t = mid[:, k] + np.clip(w - 0.5, -reach, reach) * step[:, k]
        bm = np.stack(causal_b_grid(f, *t))
        g = bm[comp[k], np.arange(k.size)]
        better = np.abs(g) < best_g[k]
        best[:, k[better]] = np.concatenate([t, bm])[:, better]
        best_g[k[better]] = np.abs(g[better])
        left = (a < 0.0) != (g < 0.0)
        g_lo[k[left & (kept[k] == -1)]] *= 0.5
        g_hi[k[~left & (kept[k] == 1)]] *= 0.5
        hi[:, k[left]], g_hi[k[left]] = t[:, left], g[left]
        lo[:, k[~left]], g_lo[k[~left]] = t[:, ~left], g[~left]
        kept[k] = np.where(left, -1, 1)
        open_[k[g == 0.0]] = False
    return best


def _distinct_points(x, y):
    """Indices of the points (x, y) in (x, y) order, less each one within
    DUP_TOL in both x and y of an earlier point kept (the greedy rule: the
    first of a chain is kept, the second dropped, the third kept when it is
    further than DUP_TOL from the first, and so on)."""
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    # a pair within DUP_TOL in x lies in one run of x gaps <= DUP_TOL; in
    # (run, y) order its y partners are near neighbours
    run = np.cumsum(np.diff(x, prepend=x[:1]) > DUP_TOL)
    by_y = np.lexsort((y, run))
    pairs = [np.empty((2, 0), dtype=np.intp)]
    for d in range(1, x.size):
        a, b = by_y[:-d], by_y[d:]
        close = (run[a] == run[b]) & (y[b] - y[a] <= DUP_TOL)
        if not close.any():
            break  # pairs further apart in (run, y) order are further apart
        pairs.append(np.sort([a[close], b[close]], axis=0))
    i, j = np.concatenate(pairs, axis=1)
    close = x[j] - x[i] <= DUP_TOL  # the y distance is within DUP_TOL
    i, j = i[close], j[close]
    keep = np.ones(x.size, dtype=bool)
    by_later = np.argsort(j, kind="stable")
    for p, q in zip(i[by_later].tolist(), j[by_later].tolist()):
        if keep[p]:  # settled: every pair ending at p came earlier
            keep[q] = False
    return order[keep]


def _lightlike_scan(f: GraphField, nx: int, ny: int, cols, tau_light: float,
                    tau_grad: float):
    """``detect_lightlike_set`` from the (x, y, B, Bx, By) columns of the
    nx x ny lattice, row-major in x, and a mask of its node members; each
    member is classified with the B, Bx, By it was found with."""
    rows = np.stack(cols).reshape(5, -1)
    hits = [rows[:, np.abs(rows[2]) <= tau_light]]

    if f.jet_mode == "exact":
        # every edge where B changes sign, else where B's derivative along
        # it does (g), as the flat indices of its ends, x-edges first
        b = rows[2:].reshape(3, nx, ny)
        edges = []
        for d, step, e0, e1 in ((1, ny, b[:, :-1], b[:, 1:]),
                                (2, 1, b[:, :, :-1], b[:, :, 1:])):
            zero = e0[0] * e1[0] < 0.0
            i, j = np.nonzero(zero | (e0[d] * e1[d] < 0.0))
            first = i * ny + j
            edges.append((first, first + step, np.where(zero[i, j], 0, d)))
        n0, n1, comp = map(np.concatenate, zip(*edges))
        best = _refine_edges(f, rows, n0, n1, comp,
                             np.where(comp == 0, tau_light, tau_grad),
                             REFINE_TOL)
        hits.append(best[:, (comp == 0) | (np.abs(best[2]) <= tau_light)])

    # node hits and refined edge hits of one point land within REFINE_TOL
    # of each other; a node hit comes first among equal points
    rows = np.concatenate(hits, axis=1)
    keep = _distinct_points(rows[0], rows[1])
    code = _class_codes(*rows[2:, keep], tau_light, tau_grad)
    keep, code = keep[code >= 2], code[code >= 2]  # the light-like classes
    return CausalSamples._adopt([*rows[:, keep], code]), keep < len(hits[0][0])


def detect_lightlike_set(f: GraphField, nx: int, ny: int,
                         tau_light: float | None = None,
                         tau_grad: float = DEFAULT_TAU_GRAD) -> CausalSamples:
    """All light-like points found on a lattice, refined along edges, in
    (x, y) order; points within DUP_TOL of one kept count once.

    Lattice nodes with |B| <= tau_light are collected directly.  Each
    lattice edge is additionally searched for a sign change of B (a zero
    of B) and for an interior extremum of B (a zero of the directional
    derivative of B; catches lines where B only touches zero), all edges
    in one bracketed refinement (``_refine_edges``): Illinois false
    position, whose bracket reaches ``REFINE_TOL`` at most 2 lattice-jet
    passes after halving would, and in one pass where the zero lies on a
    node.  Refined positions are accurate to ``REFINE_TOL``; an extremum
    counts only where |B| <= tau_light.
    Exact-jet fields only get sub-node refinement; lattice-backed fields
    carry no information between nodes, so only node hits are reported
    for them.
    """
    tau_light = f.default_tau_light() if tau_light is None else tau_light
    _check_tolerances(tau_light, tau_grad)
    X, Y = f.domain.meshgrid(nx, ny)
    return _lightlike_scan(f, nx, ny, (X, Y, *causal_b_grid(f, X, Y)),
                           tau_light, tau_grad)[0]


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
    perp = float(np.max(np.abs(centered @ normal)))
    return centroid, direction, perp


def _orient(direction: np.ndarray) -> np.ndarray:
    if direction[0] < -1e-12 or (abs(direction[0]) <= 1e-12 and direction[1] < 0):
        return -direction
    return direction


def verify_line_theorem(samples: CausalSamples | list[CausalSample],
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
    samples = CausalSamples.of(samples)
    k = np.flatnonzero(samples.in_class(CausalClass.LIGHT_DEGENERATE))
    degenerate = samples[k[np.lexsort((samples.y[k], samples.x[k]))]]
    pts = np.stack([degenerate.x, degenerate.y], axis=-1)
    gx, gy = f.grad_grid(pts[:, 0], pts[:, 1])
    theta = np.mod(np.arctan2(gy, gx), np.pi)
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
    gx, gy = f.grad_grid(centroids[:, 0], centroids[:, 1])  # all lines
    lines: list[LightLine] = []
    for n, g in enumerate(groups):
        centroid, direction, perp = _tls_fit(pts[g])
        direction = _orient(direction)
        dt = float(gx[n] * direction[0] + gy[n] * direction[1])
        defect = abs(direction[0] ** 2 + direction[1] ** 2 - dt * dt)
        members = degenerate[g[np.argsort(pts[g] @ direction)]]
        lines.append(LightLine(
            base=(float(centroid[0]), float(centroid[1])),
            direction=(float(direction[0]), float(direction[1])),
            lifted=(float(direction[0]), float(direction[1]), dt),
            samples=members,
            perp_residual=perp,
            lightlike_defect=float(defect)))

    lines.sort(key=lambda ln: ln.base)
    return lines
