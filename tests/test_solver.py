"""Discrete residual, Jacobian, Newton solve, convergence reporting."""

import tracemalloc

import numpy as np
import pytest

from zmclab import (
    CausalTypeViolationError,
    DirichletProblem,
    EquationKind,
    LinearSolveError,
    MaxIterationsError,
    Rect,
    convergence_report,
    discrete_residual,
    field_from_text,
    solve,
)
from zmclab.geometry import (
    minimal_residual_of_jet,
    quasilinear_residual_of_jet,
    zmc_residual_of_jet,
)
from zmclab import solver
from zmclab.solver import (
    _apply,
    _gmres,
    _interior_jet,
    _jacobian,
    _model_solve,
    _newton_step,
    _residual,
    _sine_basis,
    interior_b,
)

DOM = Rect(1.0, 2.0, 1.0, 2.0)
CATENOID = "-asinh(sqrt(x^2 + y^2))"


def _samples(text, dom, n):
    return field_from_text(text, dom).sample(n, n)


def _dense(coeffs, mx, my):
    """The Jacobian as a dense matrix: columns of _apply on unit vectors."""
    units = np.eye(mx * my).reshape(mx * my, mx, my)
    return np.stack([_apply(coeffs, e).ravel() for e in units], axis=1)


def _loop_residual(values, sigma, hx, hy):
    """Independent per-node reimplementation of the stencil residual."""
    nx, ny = values.shape
    out = np.zeros((nx - 2, ny - 2))
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            px = (values[i + 1, j] - values[i - 1, j]) / (2 * hx)
            py = (values[i, j + 1] - values[i, j - 1]) / (2 * hy)
            pxx = (values[i + 1, j] - 2 * values[i, j] + values[i - 1, j]) / hx**2
            pyy = (values[i, j + 1] - 2 * values[i, j] + values[i, j - 1]) / hy**2
            pxy = (values[i + 1, j + 1] - values[i + 1, j - 1]
                   - values[i - 1, j + 1] + values[i - 1, j - 1]) / (4 * hx * hy)
            out[i - 1, j - 1] = ((1 + sigma * py**2) * pxx
                                 - 2 * sigma * px * py * pxy
                                 + (1 + sigma * px**2) * pyy)
    return out


# --------------------------------------------------------------------------
# residual
# --------------------------------------------------------------------------

def test_residual_annihilates_planes_exactly():
    # affine data is in the stencil null space; only float roundoff remains
    g = _samples("0.3*x - 1.2*y + 0.7", DOM, 9)
    for eq in (EquationKind.MINIMAL, EquationKind.MAXIMAL):
        r = discrete_residual(g.values, eq, g.hx, g.hy)
        assert float(np.max(np.abs(r))) < 1e-13


def test_residual_matches_independent_loop():
    g = _samples(CATENOID, DOM, 9)
    for eq, sigma in ((EquationKind.MINIMAL, 1.0), (EquationKind.MAXIMAL, -1.0)):
        fast = discrete_residual(g.values, eq, g.hx, g.hy)
        slow = _loop_residual(g.values, sigma, g.hx, g.hy)
        assert np.allclose(fast, slow, rtol=0, atol=1e-14)


@pytest.mark.parametrize("s, of_jet", [
    (-1.0, zmc_residual_of_jet),
    (0.0, lambda j: quasilinear_residual_of_jet(j, 0.0)),
    (1.0, minimal_residual_of_jet),
])
def test_residual_is_the_geometry_operator_on_the_interior_jet(s, of_jet):
    # planes give exact zero derivatives, so signed zeros are compared too
    for text in (CATENOID, "0.3*x - 1.2*y + 0.7", "0*x"):
        g = _samples(text, DOM, 9)
        got = _residual(g.values, s, g.hx, g.hy)
        want = of_jet(_interior_jet(g.values, g.hx, g.hy))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_residual_second_order_on_catenoid():
    r = {}
    for n in (17, 33):
        g = _samples(CATENOID, DOM, n)
        r[n] = float(np.max(np.abs(
            discrete_residual(g.values, EquationKind.MAXIMAL, g.hx, g.hy))))
    assert 3.0 < r[17] / r[33] < 5.0


def test_residual_exact_stencil_on_quadratic():
    # x^2 + y^2, minimal equation: stencils are exact on quadratics, so the
    # residual is (1 + 4y^2)*2 + (1 + 4x^2)*2 at each interior node
    dom = Rect(-1.0, 1.0, -1.0, 1.0)
    g = _samples("x^2 + y^2", dom, 11)
    r = discrete_residual(g.values, EquationKind.MINIMAL, g.hx, g.hy)
    X, Y = np.meshgrid(g.xs[1:-1], g.ys[1:-1], indexing="ij")
    expected = (1 + 4 * Y**2) * 2.0 + (1 + 4 * X**2) * 2.0
    assert np.allclose(r, expected, rtol=0, atol=1e-12)


def test_residual_shape_guard():
    with pytest.raises(ValueError):
        discrete_residual(np.zeros((4, 8)), EquationKind.MINIMAL, 0.1, 0.1)


# --------------------------------------------------------------------------
# Jacobian
# --------------------------------------------------------------------------

def test_jacobian_matches_finite_differences():
    # sigma = 0 is the 5-point Laplacian behind the harmonic initial guess
    g = _samples(CATENOID, DOM, 7)
    for s in (EquationKind.MINIMAL.sigma, EquationKind.MAXIMAL.sigma, 0.0):
        J = _dense(_jacobian(g.values, s, g.hx, g.hy)[0], 5, 5)
        base = _residual(g.values, s, g.hx, g.hy).ravel()
        h = 1e-7
        for k in range(J.shape[1]):
            pert = g.values.copy()
            i, j = divmod(k, g.ny - 2)
            pert[i + 1, j + 1] += h
            col = (_residual(pert, s, g.hx, g.hy).ravel() - base) / h
            assert np.allclose(J[:, k], col, rtol=1e-5, atol=1e-5)


def test_harmonic_jacobian_is_five_point():
    # hx != hy, so a mixed-up axis shows; the stencil acts on unit vectors
    # with its coefficients unrounded, so the match is exact
    g = field_from_text(CATENOID, DOM).sample(9, 7)
    coeffs, a, c = _jacobian(g.values, 0.0, g.hx, g.hy)
    assert not np.any(coeffs[-1]) and a == c == 1.0

    def second(m, h):
        return (np.eye(m, k=1) + np.eye(m, k=-1) - 2.0 * np.eye(m)) / h ** 2

    five = (np.kron(second(7, g.hx), np.eye(5))
            + np.kron(np.eye(7), second(5, g.hy)))
    assert np.array_equal(_dense(coeffs, 7, 5), five)


def _padded_apply(coeffs, v):
    """_apply as written on np.pad, for the bit-for-bit comparison."""
    centre, xp, xm, yp, ym, cross = coeffs
    p = np.pad(v, 1)
    return (centre * v + xp * p[2:, 1:-1] + xm * p[:-2, 1:-1]
            + yp * p[1:-1, 2:] + ym * p[1:-1, :-2]
            + cross * (p[2:, 2:] + p[:-2, :-2] - p[2:, :-2] - p[:-2, 2:]))


@pytest.mark.parametrize("mx, my", [(1, 1), (3, 7), (31, 17), (255, 255)])
def test_apply_on_work_array_matches_padded_product(mx, my):
    # one work array reused across products, as within a Newton step: v is
    # written over the last one's interior, and the ring stays zero
    rng = np.random.default_rng(mx * my)
    coeffs = tuple(rng.standard_normal((mx, my)) for _ in range(6))
    work = np.zeros((mx + 2, my + 2))
    for _ in range(3):
        v = rng.standard_normal((mx, my))
        want = _padded_apply(coeffs, v)
        assert np.array_equal(_apply(coeffs, v, work), want)
        assert np.array_equal(_apply(coeffs, v), want)


@pytest.mark.parametrize("sigma", [-1.0, 1.0, 0.0])
def test_newton_step_matches_unpermuted_solve(sigma):
    # the GMRES step against a dense solve of the same stencil Jacobian
    for shape in ((17, 17), (33, 17)):
        g = field_from_text(CATENOID, DOM).sample(*shape)
        res = _residual(g.values, sigma, g.hx, g.hy)
        step, its = _newton_step(g.values, sigma, g.hx, g.hy, res)
        J = _dense(_jacobian(g.values, sigma, g.hx, g.hy)[0], *res.shape)
        ref = np.linalg.solve(J, -res.ravel())
        assert step.shape == res.shape
        assert 0 < its <= solver.KRYLOV_MAX_ITER
        err = np.max(np.abs(step.ravel() - ref)) / np.max(np.abs(ref))
        assert err <= 1e-9


# --------------------------------------------------------------------------
# model solve: fast diagonalization in padded sine bases
# --------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 15, 16, 17, 33, 255])
def test_sine_basis_is_orthonormal_symmetric_and_padded(m):
    S = _sine_basis(m)
    assert S.shape[0] == S.shape[1] >= m
    assert S.shape[0] % solver.BLAS_BLOCK == 0
    assert S.shape[0] - m < solver.BLAS_BLOCK
    assert not S.flags.writeable
    assert np.array_equal(S, S.T)
    assert not np.any(S[m:]) and not np.any(S[:, m:])
    k = np.arange(1, m + 1)
    ref = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    assert np.max(np.abs(S[:m, :m] - ref)) <= 1e-13
    assert np.max(np.abs((S @ S)[:m, :m] - np.eye(m))) <= 1e-14


def test_sine_basis_cache_is_bounded():
    # a 1023^2 interior has an 8 MB basis, so only a few may stay cached
    assert _sine_basis.cache_info().maxsize <= 4
    for m in range(40, 50):
        _sine_basis(m)
    assert _sine_basis.cache_info().currsize <= 4


@pytest.mark.parametrize("mx, my", [(15, 16), (16, 17), (17, 33), (33, 15)])
def test_model_solve_matches_dense_operator(mx, my):
    # sides on both sides of the padding block, hx != hy and a != c, so a
    # mixed-up axis or a padded row that leaks shows
    hx, hy, a, c = 0.07, 0.025, 1.7, 0.6

    def second(m, h):
        return (np.eye(m, k=1) + np.eye(m, k=-1) - 2.0 * np.eye(m)) / h ** 2

    L = (a * np.kron(second(mx, hx), np.eye(my))
         + c * np.kron(np.eye(mx), second(my, hy)))
    r = np.random.default_rng(mx * my).standard_normal((mx, my))
    u = _model_solve(r, a, c, hx, hy)
    ref = np.linalg.solve(L, r.ravel())
    assert u.shape == (mx, my)
    assert np.max(np.abs(u.ravel() - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, counts", [(33, [3, 4, 8]),
                                       (257, [4, 4, 7])])
def test_krylov_iterations_per_newton_step(n, counts):
    # the GMRES iterations of each inexact step; steps solved to
    # KRYLOV_TOL took [10, 9, 9] and [11, 11, 10]
    sol = solve(DirichletProblem("maximal", DOM, n, n, CATENOID))
    assert sol.krylov_iterations == counts
    assert len(sol.krylov_iterations) == sol.iterations
    rep = convergence_report(sol)
    assert rep["krylov_iterations"] == counts
    assert all(type(k) is int for k in rep["krylov_iterations"])


def _steep_step_operator(n):
    """The preconditioned Newton-step system of the minimal 3*x*y at its
    harmonic start: GMRES takes a few restarts on it at 1e-10."""
    prob = DirichletProblem("minimal", Rect(1.05, 2.0, 0.0, 1.0), n, n,
                            "3*x*y")
    hx, hy = prob.spacing()
    u = solver._initial_guess(prob, solver._boundary_values(prob))
    res = _residual(u, 1.0, hx, hy)
    coeffs, a, c = _jacobian(u, 1.0, hx, hy)

    def matvec(v):
        return _apply(coeffs, v).ravel()

    def precond(y):
        return _model_solve(y.reshape(res.shape), a, c, hx, hy)

    return matvec, precond, -res.ravel()


def test_gmres_meets_its_tolerance():
    matvec, precond, b = _steep_step_operator(33)
    counts = []
    for rtol in (1e-2, 1e-6, 1e-10):
        x, its = _gmres(matvec, b, rtol, precond)
        true = np.linalg.norm(b - matvec(x)) / np.linalg.norm(b)
        assert true <= rtol
        counts.append(its)
    assert counts == sorted(counts)
    assert counts[-1] > solver.KRYLOV_RESTART  # the restart path ran


def test_newton_step_reuses_the_last_model_solve(monkeypatch):
    # the step is the preconditioned vector of GMRES's last true-residual
    # check, bit for bit what a separate model solve of y gave, with one
    # model solve per iteration and one per restart check
    g = _samples(CATENOID, DOM, 33)
    res = _residual(g.values, -1.0, g.hx, g.hy)
    coeffs, a, c = _jacobian(g.values, -1.0, g.hx, g.hy)

    def op(v):
        return _apply(coeffs, _model_solve(v.reshape(res.shape), a, c,
                                           g.hx, g.hy)).ravel()

    y, ref_its = _gmres(op, -res.ravel())
    ref = _model_solve(y.reshape(res.shape), a, c, g.hx, g.hy)
    calls = []

    def counted(*args):
        calls.append(args)
        return _model_solve(*args)

    monkeypatch.setattr(solver, "_model_solve", counted)
    step, its = _newton_step(g.values, -1.0, g.hx, g.hy, res)
    assert its == ref_its < solver.KRYLOV_RESTART
    assert len(calls) == its + 1
    assert np.array_equal(step, ref)


def test_forcing_terms_follow_eisenstat_walker_rule():
    # eta_1 = 1e-3, then min(1e-2, max(1e-10, 0.9 (r_k / r_k-1)^2)) on the
    # residual sup-norms before the step and before the one before it
    for prob in (DirichletProblem("maximal", DOM, 33, 33, CATENOID),
                 DirichletProblem("minimal", Rect(1.05, 2.0, 0.0, 1.0),
                                  65, 65, "acosh(sqrt(x^2+y^2))")):
        sol = solve(prob)
        h = sol.residual_history
        want = [1e-3] + [min(1e-2, max(1e-10, 0.9 * (h[k] / h[k - 1]) ** 2))
                         for k in range(1, sol.iterations)]
        assert sol.krylov_tolerances == want
        assert convergence_report(sol)["krylov_tolerances"] == want
        assert len(sol.krylov_iterations) == sol.iterations >= 3


@pytest.mark.parametrize("n", [33, 129, 257])
def test_inexact_steps_match_exact_steps(n, monkeypatch):
    # values within 2 ulps of a solve whose steps all run to KRYLOV_TOL
    prob = DirichletProblem("maximal", DOM, n, n, CATENOID)
    inexact = solve(prob)
    monkeypatch.setattr(solver, "FORCING_FIRST", solver.KRYLOV_TOL)
    monkeypatch.setattr(solver, "FORCING_MAX", solver.KRYLOV_TOL)
    exact = solve(prob)
    assert exact.krylov_tolerances == [solver.KRYLOV_TOL] * 3
    assert inexact.iterations == exact.iterations == 3
    assert sum(inexact.krylov_iterations) < sum(exact.krylov_iterations)
    assert np.max(np.abs(inexact.values - exact.values)) <= 4.4e-16


def test_steep_minimal_krylov_budget_at_65():
    # 290 GMRES iterations when every step ran to KRYLOV_TOL
    sol = solve(DirichletProblem("minimal", Rect(1.05, 2.0, 0.0, 1.0),
                                 65, 65, "3*x*y"))
    assert sum(sol.krylov_iterations) < 150


def test_maximal_solve_memory_at_257():
    # no matrix is assembled: the Krylov basis (31 vectors of 255^2, about
    # 16 MB) dominates a traced peak near 28 MB
    tracemalloc.start()
    try:
        solve(DirichletProblem("maximal", DOM, 257, 257, CATENOID))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_direct_solve_refuses_singular_matrix():
    # the Newton step's linear solve on the zero 9x9 matrix: the Arnoldi
    # breakdown leaves non-finite values, which it reports, not returns
    singular = np.zeros((9, 9))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(LinearSolveError, match="GMRES stopped at "
                           "iteration 2 with relative residual nan"):
            _gmres(lambda v: singular @ v, np.ones(9))


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

def test_affine_boundary_recovers_plane_in_one_step():
    for eq in ("minimal", "maximal"):
        sol = solve(DirichletProblem(eq, DOM, 17, 17, "0.25*x - 0.5*y + 1"))
        assert sol.iterations == 1
        assert sol.final_residual < 1e-13
        X, Y = DOM.meshgrid(17, 17)
        assert float(np.max(np.abs(sol.values - (0.25 * X - 0.5 * Y + 1)))) < 1e-13


def test_catenoid_convergence_and_order():
    errs = {}
    for n in (17, 33):
        sol = solve(DirichletProblem("maximal", DOM, n, n, CATENOID))
        X, Y = DOM.meshgrid(n, n)
        exact = -np.arcsinh(np.sqrt(X**2 + Y**2))
        errs[n] = float(np.max(np.abs(sol.values - exact)))
        # reported residual equals an independent recomputation
        hx, hy = (1.0 / (n - 1), 1.0 / (n - 1))
        rec = float(np.max(np.abs(
            discrete_residual(sol.values, sol.equation, hx, hy))))
        assert rec < 1e-10
        assert rec == pytest.approx(sol.final_residual, rel=1e-6, abs=1e-14)
        assert sol.min_interior_b > 0.5
    assert errs[33] < 5e-4
    assert 3.2 <= errs[17] / errs[33] <= 4.8


def test_newton_tol_below_roundoff_stops_at_floor():
    # 1e-15 lies below what rounding u alone puts into the stencil residual
    # at 33^2 (about 1.6e-12); the solve stops at that floor and says so
    sol = solve(DirichletProblem("maximal", DOM, 33, 33, CATENOID,
                                 newton_tol=1e-15))
    rep = convergence_report(sol)
    assert rep["status"] == "converged"
    assert rep["converged_by"] == "residual_floor"
    assert 1e-15 < rep["final_residual"] < rep["residual_floor"] < 1e-11
    eps = np.finfo(float).eps
    assert rep["residual_floor"] == pytest.approx(
        eps * np.arcsinh(np.sqrt(8.0)) * 4 * 32 ** 2, rel=1e-12)
    default = convergence_report(
        solve(DirichletProblem("maximal", DOM, 33, 33, CATENOID)))
    assert default["converged_by"] == "newton_tol"
    assert default["residual_floor"] == rep["residual_floor"]


def test_timelike_forcing_boundary_raises():
    with pytest.raises(CausalTypeViolationError) as err:
        solve(DirichletProblem("maximal", Rect(-1, 1, -1, 1), 17, 17,
                               "y + x^2"))
    rep = convergence_report(err.value)
    assert rep["status"] == "failed"
    assert rep["error"] == "causal-type-violation"


def test_flat_initial_guess_also_converges():
    # flat start is only viable without the space-like constraint
    sol = solve(DirichletProblem("minimal", DOM, 17, 17, CATENOID,
                                 initial_guess="flat"))
    assert sol.final_residual < 1e-10


def test_flat_guess_for_maximal_violates_causal_type():
    # a constant interior against curved boundary data jumps across the
    # light cone right at the first iterate
    with pytest.raises(CausalTypeViolationError):
        solve(DirichletProblem("maximal", DOM, 17, 17, CATENOID,
                               initial_guess="flat"))


def test_callable_and_array_boundary():
    sol_expr = solve(DirichletProblem("minimal", DOM, 9, 9, "x*0.5 + y"))
    sol_call = solve(DirichletProblem("minimal", DOM, 9, 9,
                                      lambda x, y: 0.5 * x + y))
    assert np.allclose(sol_expr.values, sol_call.values, atol=1e-12)
    arr = sol_expr.values.copy()
    sol_arr = solve(DirichletProblem("minimal", DOM, 9, 9, arr))
    assert np.allclose(sol_arr.values, sol_expr.values, atol=1e-10)


def test_harmonic_start_ignores_array_interior():
    # an array boundary keeps its interior in the lattice; the harmonic
    # start must still depend on the ring alone
    ref = solve(DirichletProblem("maximal", DOM, 17, 17, CATENOID))
    arr = ref.values.copy()
    arr[1:-1, 1:-1] = np.random.default_rng(4).uniform(-1, 1, (15, 15))
    sol = solve(DirichletProblem("maximal", DOM, 17, 17, arr))
    assert sol.iterations == ref.iterations
    assert np.array_equal(sol.values, ref.values)


def test_sine_transform_start_matches_newton_step():
    # non-square lattice with hx = 4 hy, so a mixed-up axis shows
    prob = DirichletProblem("maximal", Rect(1.0, 3.0, 1.0, 2.0), 65, 129,
                            CATENOID)
    hx, hy = prob.spacing()
    vals = solver._boundary_values(prob)
    start = solver._initial_guess(prob, vals)
    ref, _ = _newton_step(vals, 0.0, hx, hy, _residual(vals, 0.0, hx, hy))
    ring = solver._boundary_mask(65, 129)
    assert np.array_equal(start[ring], vals[ring])
    err = np.max(np.abs(start[1:-1, 1:-1] - ref)) / np.max(np.abs(ref))
    assert err <= 1e-12


def test_solve_takes_one_newton_step_per_iteration(monkeypatch):
    # the harmonic start is a sine-transform solve, not a Newton step
    calls = []
    newton_step = solver._newton_step

    def counted(values, s, hx, hy, res, rtol):
        calls.append(s)
        return newton_step(values, s, hx, hy, res, rtol)

    monkeypatch.setattr(solver, "_newton_step", counted)
    sol = solve(DirichletProblem("maximal", DOM, 33, 33, CATENOID))
    assert sol.iterations >= 2
    assert calls == [-1.0] * sol.iterations


def test_singular_newton_jacobian_reports_linear_failure(monkeypatch):
    # all-zero linearization: the preconditioner divides by zero
    def zero(values, s, hx, hy):
        shape = (values.shape[0] - 2, values.shape[1] - 2)
        return (np.zeros(shape),) * 6, 0.0, 0.0

    with monkeypatch.context() as m:
        m.setattr(solver, "_jacobian", zero)
        with pytest.raises(LinearSolveError, match="GMRES stopped at "
                           "iteration 1 with relative residual nan"):
            solve(DirichletProblem("maximal", DOM, 9, 9, CATENOID))
    # a Krylov cap below the 3 iterations the catenoid's first step takes
    monkeypatch.setattr(solver, "KRYLOV_MAX_ITER", 2)
    with pytest.raises(LinearSolveError,
                       match="GMRES stopped at iteration 2") as err:
        solve(DirichletProblem("maximal", DOM, 33, 33, CATENOID))
    rep = convergence_report(err.value)
    assert rep["status"] == "failed"
    assert rep["error"] == "linear-solve-failure"
    assert rep["iterations"] == 1
    assert rep["last_residual"] > 0.0
    assert 1e-10 < rep["krylov_residual"] < 1.0


def test_steep_minimal_data_converges_at_65():
    # the round-off floor weighs the stencil coefficients 1 + p^2, which
    # grow past 1 where the minimal data is steep
    dom = Rect(1.05, 2.0, 0.0, 1.0)
    for text in ("3*x*y", "acosh(sqrt(x^2+y^2))"):
        rep = convergence_report(
            solve(DirichletProblem("minimal", dom, 65, 65, text)))
        assert rep["status"] == "converged"
        assert rep["final_residual"] < max(1e-10, rep["residual_floor"])


def test_problem_validation():
    with pytest.raises(ValueError):
        DirichletProblem("minimal", DOM, 4, 9, "x")
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="newton_tol"):
            DirichletProblem("minimal", DOM, 9, 9, "x", newton_tol=tol)
    with pytest.raises(ValueError):
        DirichletProblem("minimal", DOM, 9, 9, "x", initial_guess="zeros")
    bad = np.zeros((9, 9))
    bad[0, 3] = np.nan
    with pytest.raises(ValueError):
        solve(DirichletProblem("minimal", DOM, 9, 9, bad))


def test_iteration_budget_respected():
    with pytest.raises(MaxIterationsError):
        solve(DirichletProblem("minimal", DOM, 17, 17,
                               "sin(3*x)*cos(3*y)", max_newton=1))


def test_convergence_report_shape():
    sol = solve(DirichletProblem("minimal", DOM, 9, 9, "x + y"))
    rep = convergence_report(sol)
    assert rep["status"] == "converged"
    assert rep["iterations"] == 1
    assert rep["resolution"] == [9, 9]
    assert len(rep["residual_history"]) >= 1


def test_interior_b_positive_for_catenoid_data():
    g = _samples(CATENOID, DOM, 17)
    assert float(np.min(interior_b(g.values, g.hx, g.hy))) > 0.5


# --------------------------------------------------------------------------
# duality bridge: dual of a converged maximal solution is nearly minimal
# --------------------------------------------------------------------------

def test_duality_bridge_decreasing_with_resolution():
    from zmclab import DualDirection, dualize
    defects = {}
    for n in (17, 33):
        sol = solve(DirichletProblem("maximal", DOM, n, n, CATENOID))
        f = sol.field()
        out = dualize(f, (n, n), base=(1.5, 1.5),
                      direction=DualDirection.TO_POTENTIAL, epsilon=1)
        # re-differentiate the integrated values with FD jets: an
        # independent route that does not reuse the analytic transform.
        # The outermost two layers are skipped: the solver's one-sided ring
        # jets leave an O(h^2) kink in the integrated values right at the
        # ring, and second-differencing across it is an O(1) artifact of
        # stencil composition, not a property of the dual surface.
        from zmclab import GridField
        redone = GridField(out.field.grid)
        X, Y = DOM.meshgrid(n, n)
        res = minimal_residual_of_jet(redone.jet2_grid(X, Y))
        defects[n] = float(np.max(np.abs(res[2:-2, 2:-2])))
    assert defects[33] < 1e-3
    assert defects[33] < defects[17]
