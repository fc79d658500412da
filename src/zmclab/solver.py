"""Finite-difference damped-Newton solver for the elliptic Dirichlet problems.

Two equations share one quasilinear form,

    (1 + s*py^2) pxx - 2 s px py pxy + (1 + s*px^2) pyy = 0,

with s = +1 for the minimal-surface equation and s = -1 for the maximal
(space-like ZMC) equation.  The residual is geometry's
quasilinear_residual_of_jet applied to the second-order central-difference
jet of a uniform rectangle lattice, with the four-diagonal cross stencil
for the mixed derivative.  Newton iterations use the analytic Jacobian of
the stencil, never assembled: nine coefficients per node act on a lattice
by shifted products.  Each step is solved inexactly (S. C. Eisenstat and
H. F. Walker, SIAM J. Sci. Comput. 17, 1996) by restarted GMRES to a
relative residual eta: FORCING_FIRST at the first step, then
min(FORCING_MAX, max(KRYLOV_TOL, 0.9 (r_k / r_k-1)^2)) on the residual
sup-norms r, right-preconditioned by the constant-coefficient
operator A pxx + C pyy at the Jacobian's mean A and C.  An orthonormal
sine basis along each axis diagonalizes that operator on the rectangle, so
each preconditioner solve is four dense matrix products (fast
diagonalization), zero-padded to sides that are multiples of BLAS_BLOCK so
that the rounding does not depend on the BLAS thread count; the harmonic
initial guess is the same solve at A = C = 1.  A halving line search on the
residual sup-norm damps each step, and only numpy is used.  Iterations
stop once the residual is below ``newton_tol`` or below the round-off
floor of the stencil, whichever is larger.  The maximal equation is
elliptic only while the interior stays space-like; iterates that lose
B > 0 abort with CausalTypeViolationError.  The time-like equation is
hyperbolic where |grad| > 1, so Dirichlet problems for it are ill-posed
and not offered.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import (
    CausalTypeViolationError,
    LinearSolveError,
    MaxIterationsError,
    SolverError,
)
from .exprfield import GridField, Jet2, Rect, SampledGrid, evaluate, parse
from .geometry import b_of_jet, quasilinear_residual_of_jet

__all__ = [
    "DirichletProblem",
    "EquationKind",
    "GridSolution",
    "convergence_report",
    "discrete_residual",
    "solve",
]

NEWTON_TOL = 1e-10
MAX_NEWTON = 50
MAX_HALVINGS = 30
MIN_INTERIOR_B = 1e-8
KRYLOV_RESTART = 30
KRYLOV_TOL = 1e-10  # relative 2-norm of the true residual of a Newton step
FORCING_FIRST = 1e-3  # the first Newton step's GMRES tolerance
FORCING_MAX = 1e-2  # the largest tolerance of a later Newton step
KRYLOV_MAX_ITER = 300
BLAS_BLOCK = 16  # the model solve's matrix sides are multiples of this


class EquationKind(Enum):
    MINIMAL = "minimal"
    MAXIMAL = "maximal"

    @property
    def sigma(self) -> float:
        return 1.0 if self is EquationKind.MINIMAL else -1.0


BoundaryData = Union[str, Callable[[float, float], float], np.ndarray]


@dataclass
class DirichletProblem:
    """Dirichlet problem on a rectangle lattice.

    ``boundary`` is an expression string, a callable f(x, y), or a full
    (nx, ny) array whose boundary ring supplies the data.  The initial
    guess policy is "harmonic" (discrete harmonic extension of the
    boundary) or "flat" (boundary mean).
    """

    equation: EquationKind
    domain: Rect
    nx: int
    ny: int
    boundary: BoundaryData
    params: dict = field(default_factory=dict)
    initial_guess: str = "harmonic"
    newton_tol: float = NEWTON_TOL

    def __post_init__(self):
        if isinstance(self.equation, str):
            self.equation = EquationKind(self.equation)
        if self.nx < 5 or self.ny < 5:
            raise ValueError("Dirichlet lattice needs nx, ny >= 5")
        # hx * hx overflows to inf and underflows to 0 without raising
        hx, hy = self.spacing()
        big = sys.float_info.max
        if not (0.0 < hx * hx <= big and 0.0 < hy * hy <= big
                and 2.0 / (hx * hx) + 2.0 / (hy * hy) <= big):
            raise ValueError(f"lattice spacing hx = {hx!r}, hy = {hy!r} is "
                             "out of the difference stencil's range")
        if self.initial_guess not in ("harmonic", "flat"):
            raise ValueError("initial_guess must be 'harmonic' or 'flat'")
        if not 0.0 < self.newton_tol <= sys.float_info.max:
            raise ValueError("newton_tol must be finite and greater than 0")

    def lattice(self):
        return self.domain.lattice(self.nx, self.ny)

    def spacing(self):
        xs, ys = self.lattice()
        return float(xs[1] - xs[0]), float(ys[1] - ys[0])


@dataclass
class GridSolution:
    """Converged lattice values with the convergence bookkeeping."""

    equation: EquationKind
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    iterations: int
    final_residual: float
    residual_history: list
    damping_history: list
    min_interior_b: float | None
    converged: bool = True
    residual_floor: float = 0.0
    converged_by: str = "newton_tol"
    krylov_iterations: list = field(default_factory=list)
    krylov_tolerances: list = field(default_factory=list)

    def field(self, name: str = "") -> GridField:
        return GridField(SampledGrid(self.xs, self.ys, self.values),
                         name or f"{self.equation.value} solution")

    def report(self) -> dict:
        out = {
            "status": "converged" if self.converged else "failed",
            "equation": self.equation.value,
            "resolution": [int(self.xs.size), int(self.ys.size)],
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "residual_history": list(map(float, self.residual_history)),
            "damping_history": list(map(float, self.damping_history)),
            "residual_floor": self.residual_floor,
            "converged_by": self.converged_by,
            "krylov_iterations": list(map(int, self.krylov_iterations)),
            "krylov_tolerances": list(map(float, self.krylov_tolerances)),
        }
        if self.min_interior_b is not None:
            out["min_interior_b"] = float(self.min_interior_b)
        return out


def _interior_jet(v: np.ndarray, hx: float, hy: float) -> Jet2:
    """Central-difference two-jet of lattice values at the interior nodes,
    shape (nx-2, ny-2), with the four-diagonal cross stencil for pxy."""
    return Jet2(v[1:-1, 1:-1],
                (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * hx),
                (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * hy),
                (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / hx ** 2,
                (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2])
                / (4.0 * hx * hy),
                (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hy ** 2)


def discrete_residual(values: np.ndarray, equation: EquationKind,
                      hx: float, hy: float) -> np.ndarray:
    """Per-node stencil residual on the interior, shape (nx-2, ny-2)."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 5 or values.shape[1] < 5:
        raise ValueError("discrete residual needs a lattice of at least 5x5")
    if isinstance(equation, str):
        equation = EquationKind(equation)
    return _residual(values, equation.sigma, hx, hy)


def _residual(values: np.ndarray, s: float, hx: float, hy: float):
    return quasilinear_residual_of_jet(_interior_jet(values, hx, hy), s)


def _jacobian(j: Jet2, s: float, hx: float, hy: float):
    """Analytic Jacobian of the stencil residual w.r.t. interior unknowns
    at the interior jet j, as stencil coefficients of shape (nx-2, ny-2):
    centre, x+1, x-1, y+1, y-1 and cross (+cross at the (1, 1) and (-1, -1)
    corners, -cross at the other two), with the means of A = 1 + s py^2 and
    C = 1 + s px^2."""
    A = 1.0 + s * j.gy * j.gy
    C = 1.0 + s * j.gx * j.gx
    gx = s * (j.gx * j.hyy - j.gy * j.hxy) / hx
    gy = s * (j.gy * j.hxx - j.gx * j.hxy) / hy
    coeffs = (-2.0 * A / hx ** 2 - 2.0 * C / hy ** 2,
              A / hx ** 2 + gx, A / hx ** 2 - gx,
              C / hy ** 2 + gy, C / hy ** 2 - gy,
              -2.0 * s * j.gx * j.gy / (4.0 * hx * hy))
    return coeffs, float(np.mean(A)), float(np.mean(C))


def _apply(coeffs, v: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
    """The stencil coeffs of _jacobian applied to interior values v, with
    zeros on the ring: the Jacobian times v.  p, if given, is a work array
    of v's shape plus a zero ring; v is written into its interior."""
    centre, xp, xm, yp, ym, cross = coeffs
    if p is None:
        p = np.zeros((v.shape[0] + 2, v.shape[1] + 2))
    p[1:-1, 1:-1] = v
    return (centre * v + xp * p[2:, 1:-1] + xm * p[:-2, 1:-1]
            + yp * p[1:-1, 2:] + ym * p[1:-1, :-2]
            + cross * (p[2:, 2:] + p[:-2, :-2] - p[2:, :-2] - p[:-2, 2:]))


@lru_cache(maxsize=4)
def _sine_basis(m: int) -> np.ndarray:
    """Orthonormal DST-I matrix S[k, n] = sqrt(2 / (m + 1)) sin(pi k n /
    (m + 1)) for k, n = 1..m, read-only and zero-padded to a side that is a
    multiple of BLAS_BLOCK.  S is symmetric, and S @ S is the identity on
    its leading m x m block.  k n is reduced mod 2 (m + 1) as an integer,
    where sin has its period, so the argument stays below 2 pi exactly."""
    side = -(-m // BLAS_BLOCK) * BLAS_BLOCK
    k = np.arange(1, m + 1)
    S = np.zeros((side, side))
    S[:m, :m] = np.sqrt(2.0 / (m + 1)) * np.sin(
        np.pi * (np.outer(k, k) % (2 * m + 2)) / (m + 1))
    S.flags.writeable = False
    return S


def _model_solve(r: np.ndarray, a: float, c: float,
                 hx: float, hy: float) -> np.ndarray:
    """Interior u, zero on the ring, with a uxx + c uyy = r in 5-point
    differences, by fast diagonalization (R. E. Lynch, J. R. Rice and
    D. H. Thomas, Numer. Math. 6, 1964).  The sine bases Sx, Sy diagonalize
    that operator, with eigenvalues lam = -a (4/hx^2) sin^2(pi k / 2(mx+1))
    - c (4/hy^2) sin^2(pi l / 2(my+1)), so u = Sx ((Sx r Sy) / lam) Sy: four
    matrix products.  They run on the padded bases and a padded r, because
    a BLAS (OpenBLAS, for one) may round a product whose sides are not
    multiples of its blocking differently at different thread counts."""
    mx, my = r.shape
    Sx, Sy = _sine_basis(mx), _sine_basis(my)
    ex = (2.0 / hx * np.sin(np.pi * np.arange(1, mx + 1) / (2 * mx + 2))) ** 2
    ey = (2.0 / hy * np.sin(np.pi * np.arange(1, my + 1) / (2 * my + 2))) ** 2
    lam = np.ones((len(Sx), len(Sy)))  # 1 on the padding, where Sx r Sy is 0
    lam[:mx, :my] = -(a * ex[:, None] + c * ey[None, :])
    rp = np.zeros(lam.shape)
    rp[:mx, :my] = r
    return (Sx @ ((Sx @ rp @ Sy) / lam) @ Sy)[:mx, :my]


def _gmres(matvec: Callable, b: np.ndarray, rtol: float = KRYLOV_TOL,
           precond: Callable | None = None) -> tuple[np.ndarray, int]:
    """Restarted GMRES(KRYLOV_RESTART) for matvec(x) = b, right-
    preconditioned by x = precond(y): x with |b - matvec(x)| <= rtol |b|
    (2-norm), checked on the true residual at each restart, and the
    number of iterations.  y and b are flat vectors; precond (the
    identity by default) maps y to what matvec takes, and matvec returns
    a flat vector.  Raises LinearSolveError at KRYLOV_MAX_ITER iterations
    or on non-finite values."""
    if precond is None:
        def precond(v):
            return v
    y, r, x = np.zeros(b.size), b, None
    bnorm = beta = float(np.linalg.norm(b))
    V = np.empty((KRYLOV_RESTART + 1, b.size))
    its = 0
    while not beta <= rtol * bnorm:
        if its >= KRYLOV_MAX_ITER or not np.isfinite(beta):
            raise LinearSolveError(
                f"GMRES stopped at iteration {its} with relative residual "
                f"{beta / bnorm:.3e}", report={"krylov_residual": beta / bnorm})
        H = np.zeros((KRYLOV_RESTART + 1, KRYLOV_RESTART))
        g = np.zeros(KRYLOV_RESTART + 1)
        g[0] = beta
        V[0] = r / beta
        for k in range(1, KRYLOV_RESTART + 1):
            its += 1
            w = matvec(precond(V[k - 1]))
            for _ in range(2):  # classical Gram-Schmidt, twice
                h = V[:k] @ w
                w -= h @ V[:k]
                H[:k, k - 1] += h
            H[k, k - 1] = np.linalg.norm(w)
            # a non-finite column ends the cycle, and the check above raises
            z = (np.linalg.lstsq(H[:k + 1, :k], g[:k + 1], rcond=None)[0]
                 if np.isfinite(H[k, k - 1]) else np.full(k, np.nan))
            est = np.linalg.norm(H[:k + 1, :k] @ z - g[:k + 1])
            if not est > rtol * bnorm or its >= KRYLOV_MAX_ITER:
                break
            V[k] = w / H[k, k - 1]
        y = y + z @ V[:k]
        x = precond(y)
        r = b - matvec(x)
        beta = float(np.linalg.norm(r))
    return (precond(y) if x is None else x), its


def _newton_step(jacobian, res: np.ndarray, hx: float, hy: float,
                 rtol: float = KRYLOV_TOL) -> tuple[np.ndarray, int]:
    """Newton step of the stencil residual res, shape (nx-2, ny-2), to
    relative residual rtol, and its GMRES iterations: GMRES on the
    Jacobian, given as _jacobian's (coeffs, a, c), right-preconditioned by
    the model solve at its mean A = a and C = c."""
    coeffs, a, c = jacobian
    work = np.zeros((res.shape[0] + 2, res.shape[1] + 2))

    def matvec(u):
        return _apply(coeffs, u, work).ravel()

    def precond(v):
        return _model_solve(v.reshape(res.shape), a, c, hx, hy)

    # a singular operator shows up as non-finite values, which _gmres
    # reports as LinearSolveError; numpy need not warn about them too
    with np.errstate(divide="ignore", invalid="ignore"):
        return _gmres(matvec, -res.ravel(), rtol, precond)


def _boundary_mask(nx: int, ny: int) -> np.ndarray:
    m = np.zeros((nx, ny), dtype=bool)
    m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
    return m


def _boundary_values(problem: DirichletProblem) -> np.ndarray:
    """Lattice array with the Dirichlet ring filled; the interior is zero
    until the initial-guess policy overwrites it.  Only ring nodes are ever
    evaluated, so data singular in the interior stays usable."""
    xs, ys = problem.lattice()
    vals = np.zeros((problem.nx, problem.ny))
    if isinstance(problem.boundary, np.ndarray):
        arr = np.asarray(problem.boundary, dtype=float)
        if arr.shape != (problem.nx, problem.ny):
            raise ValueError("boundary array must match the lattice shape")
        vals = arr.copy()
    else:
        if callable(problem.boundary):
            def ring(px, py):
                return np.vectorize(problem.boundary)(px, py).astype(float)
        else:
            expr = parse(problem.boundary, problem.params)

            def ring(px, py):
                return np.broadcast_to(
                    np.asarray(evaluate(expr, {"x": px, "y": py}),
                               dtype=float), np.shape(px))
        vals[0, :] = ring(np.full_like(ys, xs[0]), ys)
        vals[-1, :] = ring(np.full_like(ys, xs[-1]), ys)
        vals[:, 0] = ring(xs, np.full_like(xs, ys[0]))
        vals[:, -1] = ring(xs, np.full_like(xs, ys[-1]))
    if not np.all(np.isfinite(vals[_boundary_mask(problem.nx, problem.ny)])):
        raise ValueError("boundary data must be finite")
    return vals


def _initial_guess(problem: DirichletProblem, vals: np.ndarray) -> np.ndarray:
    out = vals.copy()
    if problem.initial_guess == "flat":
        ring = vals[_boundary_mask(problem.nx, problem.ny)]
        out[1:-1, 1:-1] = float(ring.mean())
        return out
    # harmonic extension of the ring alone: the model solve at A = C = 1
    ring = vals.copy()
    ring[1:-1, 1:-1] = 0.0
    hx, hy = problem.spacing()
    out[1:-1, 1:-1] = -_model_solve(_residual(ring, 0.0, hx, hy), 1.0, 1.0,
                                    hx, hy)
    return out


def _failure(problem: DirichletProblem, error: str, iterations: int,
             last_residual: float, **more) -> dict:
    """The report of a solve that failed with the error code ``error``."""
    return {"status": "failed", "error": error,
            "equation": problem.equation.value, "iterations": iterations,
            "last_residual": last_residual, **more}


def _check_causal(problem: DirichletProblem, j: Jet2, iteration: int,
                  last_residual: float):
    """min B over the interior jet j of a maximal iterate (None for the
    minimal equation); CausalTypeViolationError at or below MIN_INTERIOR_B."""
    if problem.equation is not EquationKind.MAXIMAL:
        return None
    bmin = float(np.min(b_of_jet(j)))
    if bmin <= MIN_INTERIOR_B:
        raise CausalTypeViolationError(
            f"interior discrete B reached {bmin:.3e} at iteration "
            f"{iteration}: maximal equation lost ellipticity",
            report=_failure(problem, CausalTypeViolationError.code,
                            iteration, last_residual, min_interior_b=bmin))
    return bmin


# values that overflow show up as non-finite residuals or steps, which
# the Newton loop reports as typed errors; numpy need not warn too
@np.errstate(all="ignore")
def solve(problem: DirichletProblem) -> GridSolution:
    """Damped Newton iteration on the interior unknowns.

    Terminates successfully when the residual sup-norm drops below
    ``newton_tol`` or the round-off floor, whichever is larger (always
    after at least one Newton step); raises MaxIterationsError on
    stagnation or after MAX_NEWTON steps.  The floor, eps * max|u| times
    the largest |centre| + 4 |cross| of the first Newton step's Jacobian
    stencil (at least 2/hx^2 + 2/hy^2), estimates the residual that
    rounding the lattice values alone produces; below it the line search
    stagnates.  Each evaluated iterate, the start and every line-search
    trial, has one interior jet, which gives its residual, its causal check
    and, once accepted, the Jacobian of the next step.
    """
    hx, hy = problem.spacing()
    xs, ys = problem.lattice()
    u = _initial_guess(problem, _boundary_values(problem))
    sigma = problem.equation.sigma
    j = _interior_jet(u, hx, hy)
    res = quasilinear_residual_of_jet(j, sigma)
    rnorm = float(np.max(np.abs(res)))
    bmin = _check_causal(problem, j, 0, rnorm)
    res_history: list[float] = [rnorm]
    damping: list[float] = []
    krylov: list[int] = []
    forcing: list[float] = []

    for it in range(1, MAX_NEWTON + 1):
        jacobian = _jacobian(j, sigma, hx, hy)
        del j  # GMRES and the line search need no jet of u
        if it == 1:  # the round-off floor, from |centre| + 4 |cross|
            floor = float(np.finfo(float).eps * np.max(np.abs(u)) * max(
                2.0 / hx ** 2 + 2.0 / hy ** 2, np.max(
                    np.abs(jacobian[0][0]) + 4.0 * np.abs(jacobian[0][-1]))))
            tol = max(problem.newton_tol, floor)
        eta = (FORCING_FIRST if it == 1 else min(FORCING_MAX, max(
            KRYLOV_TOL, 0.9 * (rnorm / res_history[-2]) ** 2)))
        try:
            step, its = _newton_step(jacobian, res, hx, hy, eta)
        except LinearSolveError as exc:
            exc.report = _failure(problem, exc.code, it, rnorm, **exc.report)
            raise
        del jacobian  # nor the Jacobian, once the step is solved

        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = u.copy()
            trial[1:-1, 1:-1] += alpha * step
            j = _interior_jet(trial, hx, hy)
            res_try = quasilinear_residual_of_jet(j, sigma)
            rn_try = float(np.max(np.abs(res_try)))
            if rn_try < rnorm or rn_try < tol:
                break
            del j  # free a rejected trial's jet before building the next
            alpha *= 0.5
        else:  # no trial accepted
            if rnorm < tol:
                break  # stagnating at machine level: already converged
            raise MaxIterationsError(
                f"line search stagnated after {MAX_HALVINGS} halvings "
                f"(residual {rnorm:.3e})",
                report=_failure(problem, MaxIterationsError.code, it, rnorm))

        u, res, rnorm = trial, res_try, rn_try
        res_history.append(rnorm)
        damping.append(alpha)
        krylov.append(its)
        forcing.append(eta)
        bmin = _check_causal(problem, j, it, rnorm)
        if rnorm < tol:
            break
    else:
        raise MaxIterationsError(
            f"no convergence in {MAX_NEWTON} Newton iterations "
            f"(residual {rnorm:.3e})",
            report=_failure(problem, MaxIterationsError.code, MAX_NEWTON,
                            rnorm))

    return GridSolution(
        equation=problem.equation,
        xs=xs, ys=ys, values=u,
        iterations=max(len(damping), 1),
        final_residual=rnorm,
        residual_history=res_history,
        damping_history=damping,
        min_interior_b=bmin,
        residual_floor=floor,
        krylov_iterations=krylov,
        krylov_tolerances=forcing,
        converged_by=("newton_tol" if rnorm < problem.newton_tol
                      else "residual_floor"),
    )


def convergence_report(result) -> dict:
    """Summary dict for a GridSolution or a failed-solve SolverError."""
    if isinstance(result, GridSolution):
        return result.report()
    if isinstance(result, SolverError):
        out = {"status": "failed", "error": result.code,
               "message": str(result)}
        out.update(result.report)
        return out
    raise TypeError("expected a GridSolution or a SolverError")
