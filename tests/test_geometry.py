"""Causal classification, residuals, curvatures, light-like lines."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmclab import (
    CausalClass,
    DualDirection,
    GridField,
    InsufficientSamplesError,
    LightLikePointError,
    OutOfDomainError,
    Rect,
    causal_b,
    classify,
    detect_lightlike_set,
    dualize,
    field_from_text,
    gauss_curvature_euclid,
    lightlike_identity_check,
    mean_curvature,
    minimal_residual,
    timelike_residual,
    verify_line_theorem,
    zmc_residual,
)
from zmclab.geometry import REFINE_TOL, classify_grid, zmc_residual_of_jet

SQ = Rect(-1.0, 1.0, -1.0, 1.0)


# --------------------------------------------------------------------------
# B and its gradient
# --------------------------------------------------------------------------

def test_b_of_plane_is_constant():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    for p in [(0.0, 0.0), (0.5, -0.7), (-1.0, 1.0)]:
        b, (bx, by) = causal_b(f, *p)
        assert b == pytest.approx(0.75, abs=1e-15)
        assert bx == 0.0 and by == 0.0


def test_b_of_parabola_shear():
    # psi = y + x^2: B = -4x^2, grad B = (-8x, 0); degenerate on the y-axis
    f = field_from_text("y + x^2", SQ)
    for x in (-0.7, 0.0, 0.4):
        b, (bx, by) = causal_b(f, x, 0.2)
        assert b == pytest.approx(-4.0 * x * x, abs=1e-14)
        assert bx == pytest.approx(-8.0 * x, abs=1e-14)
        assert by == 0.0
    s = classify(f, 0.0, 0.2)
    assert s.cls is CausalClass.LIGHT_DEGENERATE


def test_b_of_catenoid_hand_value():
    # |grad(-asinh r)|^2 = 1/(1 + r^2), so B = r^2/(1 + r^2) = 1/2 at r = 1
    f = field_from_text("-asinh(sqrt(x^2 + y^2))", Rect(0.2, 2, -2, 2))
    b, _ = causal_b(f, 1.0, 0.0)
    assert b == pytest.approx(0.5, abs=1e-14)


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def test_classify_shear_sine_degenerate_at_half_pi():
    # g' = cos vanishes at pi/2 and B_x = sin(2x) vanishes there too
    f = field_from_text("y + sin(x)", Rect(0, 2 * math.pi, -1, 1))
    s = classify(f, math.pi / 2, 0.0)
    assert s.cls is CausalClass.LIGHT_DEGENERATE
    assert abs(s.b) < 1e-15


def test_classify_linear_shear_timelike_everywhere():
    f = field_from_text("y + x", SQ)
    for p in [(-1, -1), (0, 0), (0.3, 0.9)]:
        s = classify(f, *p)
        assert s.b == -1.0
        assert s.cls is CausalClass.TIME_LIKE


def test_classify_cylinder_branch_degenerate_at_y0():
    # t = x - sqrt(a^2 - y^2), a = 1: b = -y^2/(1 - y^2), db/dy = 0 at y = 0
    f = field_from_text("x - sqrt(a^2 - y^2)", Rect(-1, 1, -0.9, 0.9),
                        {"a": 1.0})
    s = classify(f, 0.0, 0.0)
    assert s.b == pytest.approx(0.0, abs=1e-15)
    assert (s.bx, s.by) == (0.0, 0.0)
    assert s.cls is CausalClass.LIGHT_DEGENERATE


def test_classify_nondegenerate_lightlike():
    # helicoid-as-stream-function: B = 1 - 1/r^2 vanishes on r = 1 with
    # nonvanishing gradient
    f = field_from_text("atan2(y, x)", Rect(0.5, 2.0, 0.5, 2.0))
    x = y = math.sqrt(0.5)
    s = classify(f, x, y)
    assert s.cls is CausalClass.LIGHT_NONDEGENERATE


def test_classify_threshold_semantics_exact():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    s = classify(f, 0.0, 0.0, tau_light=0.75)
    assert s.cls.is_lightlike  # b == tau is not strictly greater
    s = classify(f, 0.0, 0.0, tau_light=0.7499999)
    assert s.cls is CausalClass.SPACE_LIKE


@pytest.mark.parametrize("make", [
    lambda: field_from_text("y + sin(x)", Rect(-4.0, 4.0, -1.0, 1.0)),
    lambda: GridField(field_from_text(
        "y + sin(x)", Rect(-4.0, 4.0, -1.0, 1.0)).sample(33, 9)),
    lambda: dualize(field_from_text("atan2(y, x)", Rect(1.0, 2.0, 1.0, 2.0)),
                    (9, 9), (1.0, 1.0), 0.0, DualDirection.TO_STREAM,
                    1).field,
], ids=["expression", "grid", "dual"])
def test_classify_is_the_point_case_of_classify_grid(make):
    f = make()
    d = f.domain
    for t in (0.0, 0.3, 0.5, 1.0):
        x, y = d.x0 + t * (d.x1 - d.x0), d.y1 - t * (d.y1 - d.y0)
        assert vars(classify(f, x, y)) == vars(classify_grid(f, x, y)[0])
    outside = (d.x1 + 1.0, d.y0)
    with pytest.raises(OutOfDomainError) as point:
        classify(f, *outside)
    with pytest.raises(OutOfDomainError) as grid:
        classify_grid(f, *outside)
    assert str(point.value) == str(grid.value)


def test_classify_rejects_bad_tolerances():
    f = field_from_text("x", SQ)
    with pytest.raises(ValueError):
        classify(f, 0.0, 0.0, tau_light=-1.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1e-9])
def test_tolerances_must_be_finite_and_positive(tau):
    # a NaN tolerance made the space-like plane light-like degenerate
    f = field_from_text("0.3*x + 0.4*y", SQ)
    X, Y = SQ.meshgrid(5, 5)
    for call in (lambda: classify(f, 0.0, 0.0, tau_light=tau),
                 lambda: classify(f, 0.0, 0.0, tau_grad=tau),
                 lambda: classify_grid(f, X, Y, tau_light=tau),
                 lambda: classify_grid(f, X, Y, tau_grad=tau),
                 lambda: detect_lightlike_set(f, 5, 5, tau_light=tau),
                 lambda: detect_lightlike_set(f, 5, 5, tau_grad=tau),
                 lambda: mean_curvature(f, 0.0, 0.0, tau_light=tau)):
        with pytest.raises(ValueError, match="finite and positive"):
            call()


# --------------------------------------------------------------------------
# residuals and curvature
# --------------------------------------------------------------------------

def test_planes_solve_everything():
    f = field_from_text("0.2*x - 0.7*y + 0.1", SQ)
    assert zmc_residual(f, 0.3, -0.5) == 0.0
    assert minimal_residual(f, 0.3, -0.5) == 0.0
    assert timelike_residual(f, 0.3, -0.5) == 0.0
    assert gauss_curvature_euclid(f, 0.3, -0.5) == 0.0


def test_shear_graphs_solve_zmc_identically():
    for g in ("x", "x^2", "sin(x)", "exp(x)", "tanh(x)"):
        f = field_from_text(f"y + {g}", SQ)
        X, Y = SQ.meshgrid(21, 21)
        res = np.broadcast_to(zmc_residual_of_jet(f.jet2_grid(X, Y)),
                              (21, 21))
        assert float(np.max(np.abs(res))) < 1e-10


def test_catenoid_is_zmc():
    f = field_from_text("-asinh(sqrt(x^2 + y^2))", Rect(0.2, 2, -2, 2))
    assert zmc_residual(f, 1.0, 0.0) == pytest.approx(0.0, abs=1e-13)
    assert zmc_residual(f, 1.3, -0.4) == pytest.approx(0.0, abs=1e-13)


def test_helicoid_is_minimal():
    f = field_from_text("atan2(y, x)", Rect(0.5, 2, 0.5, 2))
    assert minimal_residual(f, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_paraboloid_minimal_residual_at_critical_point():
    f = field_from_text("(x^2 + y^2)/2", SQ)
    assert minimal_residual(f, 0.0, 0.0) == pytest.approx(2.0, abs=1e-14)


def test_timelike_slab_solves_dual_equation():
    f = field_from_text("y + log(tan(x))", Rect(0.2, 1.37, -1, 1))
    assert timelike_residual(f, math.pi / 4, 0.0) == pytest.approx(0.0, abs=1e-13)


def test_dual_shear_potential_is_timelike_solution():
    # phi = y + exp(-x) is the potential dual to psi = y + exp(x)
    f = field_from_text("y + exp(-x)", SQ)
    X, Y = SQ.meshgrid(15, 15)
    res = zmc_residual_of_jet(f.jet2_grid(X, Y))
    assert float(np.max(np.abs(res))) < 1e-14


def test_mean_curvature_convention():
    f = field_from_text("(x^2 + y^2)/2", SQ)
    assert mean_curvature(f, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    plane = field_from_text("0.3*x + 0.4*y", SQ)
    assert mean_curvature(plane, 0.1, 0.2) == 0.0
    cat = field_from_text("-asinh(sqrt(x^2 + y^2))", Rect(0.2, 2, -2, 2))
    for p in [(0.5, 0.3), (1.0, 0.0), (1.5, -1.2)]:
        assert mean_curvature(cat, *p) == pytest.approx(0.0, abs=1e-12)


def test_mean_curvature_rejects_lightlike_points():
    f = field_from_text("y + x^2", SQ)
    with pytest.raises(LightLikePointError):
        mean_curvature(f, 0.0, 0.5)


def test_residual_curvature_identity():
    # wherever |B| > 1e-6, residual = 2 H |B|^(3/2) by construction
    for text, dom in [("-asinh(sqrt(x^2 + y^2))", Rect(0.5, 2, 0.5, 2)),
                      ("(x^2 + y^2)/8", SQ),
                      ("y + log(tan(x))", Rect(0.2, 1.37, -1, 1))]:
        f = field_from_text(text, dom)
        X, Y = dom.meshgrid(13, 13)
        for x, y in zip(X.ravel(), Y.ravel()):
            b, _ = causal_b(f, x, y)
            if abs(b) <= 1e-6:
                continue
            lhs = zmc_residual(f, x, y)
            rhs = 2.0 * mean_curvature(f, x, y) * abs(b) ** 1.5
            assert abs(lhs - rhs) < 1e-12


def test_gauss_curvature_values():
    cone = field_from_text("sqrt(x^2 + y^2)", Rect(0.5, 2, 0.5, 2))
    assert gauss_curvature_euclid(cone, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    bowl = field_from_text("(x^2 + y^2)/2", SQ)
    assert gauss_curvature_euclid(bowl, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


# --------------------------------------------------------------------------
# light-like identity chain
# --------------------------------------------------------------------------

LIGHTLIKE_FIELDS = [
    ("x", {}, SQ),
    ("x*cos(th) + y*sin(th) + 0.2", {"th": 0.7}, SQ),
    ("sqrt(x^2 + y^2)", {}, Rect(0.5, 1.4, 0.5, 1.4)),
]


@pytest.mark.parametrize("text,params,dom", LIGHTLIKE_FIELDS)
def test_lightlike_implies_zmc_and_flat(text, params, dom):
    f = field_from_text(text, dom, params)
    rep = lightlike_identity_check(f, 101, 101)
    assert rep.max_eikonal_defect < 1e-12
    assert rep.max_zmc_residual < 1e-9
    assert rep.max_hessian_det < 1e-9


def test_identity_check_reports_defects_without_raising():
    f = field_from_text("y + x^2", SQ)
    rep = lightlike_identity_check(f, 41, 41)
    assert rep.max_eikonal_defect == pytest.approx(4.0, abs=1e-12)  # 4x^2 at x=1
    assert rep.max_zmc_residual < 1e-12


# --------------------------------------------------------------------------
# detection and the line theorem
# --------------------------------------------------------------------------

def test_detect_nothing_on_spacelike_plane():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    assert detect_lightlike_set(f, 21, 21) == []


def test_detect_shear_sine_lines():
    f = field_from_text("y + sin(x)", Rect(0, 2 * math.pi, -1, 1))
    samples = detect_lightlike_set(f, 129, 33)
    assert samples and all(s.cls is CausalClass.LIGHT_DEGENERATE
                           for s in samples)
    xs = sorted({round(s.x, 6) for s in samples})
    assert xs == [round(math.pi / 2, 6), round(3 * math.pi / 2, 6)]
    for s in samples:
        assert min(abs(s.x - math.pi / 2), abs(s.x - 3 * math.pi / 2)) < 1e-9


def test_detect_cylinder_branch_line():
    f = field_from_text("x - sqrt(1 - y^2)", Rect(-1, 1, -0.9, 0.9))
    samples = detect_lightlike_set(f, 33, 33)
    assert samples
    assert all(abs(s.y) < 1e-9 for s in samples)
    assert all(s.cls is CausalClass.LIGHT_DEGENERATE for s in samples)


def test_detect_sign_change_refinement():
    # B = 1 - 1/r^2 changes sign across r = 1: refined nondegenerate points
    f = field_from_text("atan2(y, x)", Rect(0.5, 2.0, 0.5, 2.0))
    samples = detect_lightlike_set(f, 41, 41)
    assert samples
    for s in samples:
        r = math.hypot(s.x, s.y)
        assert abs(r - 1.0) < 1e-7
        assert s.cls is CausalClass.LIGHT_NONDEGENERATE


def _bisect_zero(eval_b, a, b, fa, fb, tol, f_tol):
    """The scalar per-edge bisection that batched detection replaced, kept
    as a reference for sign-change hits."""
    best_t, best_f = a, abs(fa)
    if abs(fb) < best_f:
        best_t, best_f = b, abs(fb)
    for _ in range(200):
        if b - a <= tol and best_f <= f_tol:
            break
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
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


def _sign_change_hits(f, n):
    """One scalar bisection of B, on point jets, per lattice edge where B
    changes sign."""
    xs, ys = (v.tolist() for v in f.domain.lattice(n, n))
    b = np.array([[causal_b(f, x, y)[0] for y in ys] for x in xs])
    tau = f.default_tau_light()
    hits = [(_bisect_zero(lambda t: causal_b(f, t, ys[j])[0], xs[i],
                          xs[i + 1], b[i, j], b[i + 1, j], REFINE_TOL, tau),
             ys[j]) for i, j in np.argwhere(b[:-1] * b[1:] < 0.0)]
    hits += [(xs[i], _bisect_zero(lambda t: causal_b(f, xs[i], t)[0], ys[j],
                                  ys[j + 1], b[i, j], b[i, j + 1],
                                  REFINE_TOL, tau))
             for i, j in np.argwhere(b[:, :-1] * b[:, 1:] < 0.0)]
    return hits, {(x, y) for x in xs for y in ys}


@pytest.mark.parametrize("text, dom", [
    ("atan2(y, x)", Rect(0.5, 2.0, 0.5, 2.0)),
    ("0.5*x^2 - 0.5*y^2", SQ),
])
def test_batched_sign_change_hits_equal_scalar_bisection(text, dom):
    f = field_from_text(text, dom)
    hits, nodes = _sign_change_hits(f, 41)
    got = {(s.x, s.y) for s in detect_lightlike_set(f, 41, 41)}
    assert len(hits) > 10
    assert set(hits) <= got  # bit for bit
    assert got <= set(hits) | nodes


def test_steep_shear_extrema_are_degenerate():
    # B = -64 cos^2(8x): extremum hits must reach |grad B| <= tau_grad
    f = field_from_text("y + sin(8*x)", Rect(0, 2 * math.pi, -1, 1))
    samples = detect_lightlike_set(f, 257, 65)
    assert len(samples) == 1040
    assert all(s.cls is CausalClass.LIGHT_DEGENERATE for s in samples)
    lines = verify_line_theorem(samples, f)
    zeros = (2 * np.arange(16) + 1) * math.pi / 16
    assert len(lines) == 16
    for ln, x0 in zip(lines, zeros):
        assert abs(ln.base[0] - x0) <= 1e-9
        assert ln.verified


def test_detection_makes_no_point_jets(monkeypatch):
    f = field_from_text("y + sin(4*x)", Rect(0, 2 * math.pi, -1, 1))
    calls = {"jet2": 0, "jet2_grid": 0}
    for name in calls:
        def counted(*args, _name=name, _method=getattr(f, name)):
            calls[_name] += 1
            return _method(*args)
        monkeypatch.setattr(f, name, counted)
    assert len(detect_lightlike_set(f, 257, 129)) == 1032
    assert calls["jet2"] == 0
    assert 0 < calls["jet2_grid"] <= 64


def test_verify_lines_memory_is_linear_in_samples():
    # the plane t = x is degenerate everywhere: 1,681 samples at 41^2,
    # whose n x n distance matrix took 113 MB
    f = field_from_text("x", SQ)
    samples = detect_lightlike_set(f, 41, 41)
    tracemalloc.start()
    try:
        verify_line_theorem(samples, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_verify_lines_shear_parabola():
    f = field_from_text("y + x^2", SQ)
    lines = verify_line_theorem(detect_lightlike_set(f, 41, 41), f)
    assert len(lines) == 1
    ln = lines[0]
    assert ln.direction == pytest.approx((0.0, 1.0), abs=1e-12)
    assert ln.lifted[2] == pytest.approx(1.0, abs=1e-12)
    assert ln.lightlike_defect < 1e-10
    assert ln.perp_residual <= 1e-10  # single straight cluster
    assert ln.verified


def test_verify_lines_two_parallel_clusters():
    f = field_from_text("y + sin(x)", Rect(0, 2 * math.pi, -1, 1))
    lines = verify_line_theorem(detect_lightlike_set(f, 129, 33), f)
    assert len(lines) == 2
    assert lines[0].base[0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert lines[1].base[0] == pytest.approx(3 * math.pi / 2, abs=1e-9)
    for ln in lines:
        assert ln.verified
        assert ln.direction == pytest.approx((0.0, 1.0), abs=1e-10)


def test_verify_lines_cylinder_branch_lift():
    f = field_from_text("x - sqrt(1 - y^2)", Rect(-1, 1, -0.9, 0.9))
    lines = verify_line_theorem(detect_lightlike_set(f, 33, 33), f)
    assert len(lines) == 1
    assert lines[0].direction == pytest.approx((1.0, 0.0), abs=1e-12)
    assert lines[0].lifted == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)
    assert lines[0].verified


def test_verify_lines_needs_two_samples():
    f = field_from_text("y + x^2", SQ)
    with pytest.raises(InsufficientSamplesError):
        verify_line_theorem([], f)


@pytest.mark.parametrize("k, dom, nx, ny", [
    (3, Rect(0, 2 * math.pi, -1.5, 0.5), 101, 17),
    (2, Rect(0, 2 * math.pi, -1, 1), 65, 9),
])
def test_shear_lines_on_coarse_lattices_stay_apart(k, dom, nx, ny):
    # lines pi/k apart, samples along them further apart than that
    f = field_from_text(f"y + sin({k}*x)", dom)
    lines = verify_line_theorem(detect_lightlike_set(f, nx, ny), f)
    zeros = (2 * np.arange(2 * k) + 1) * math.pi / (2 * k)  # zeros of g'
    assert len(lines) == zeros.size
    for ln, x0 in zip(lines, zeros):
        assert abs(ln.base[0] - x0) <= 1e-9
        assert len(ln.samples) == ny
        assert ln.verified


@pytest.mark.parametrize("n", [31, 41])
def test_plane_gives_one_line_per_lattice_row(n):
    f = field_from_text("x", SQ)
    lines = verify_line_theorem(detect_lightlike_set(f, n, n), f)
    ys = f.domain.lattice(n, n)[1]
    assert [ln.base[1] for ln in lines] == pytest.approx(ys, abs=1e-12)
    for ln in lines:
        assert ln.direction == (1.0, 0.0)
        assert len(ln.samples) == n
        assert ln.verified


def test_lines_do_not_depend_on_sample_order():
    f = field_from_text("x", SQ)
    samples = detect_lightlike_set(f, 31, 31)
    ref = verify_line_theorem(samples, f)
    rng = np.random.default_rng(7)
    for _ in range(3):
        shuffled = [samples[k] for k in rng.permutation(len(samples))]
        assert verify_line_theorem(shuffled, f) == ref  # bit for bit


def test_no_two_samples_on_one_line_is_insufficient():
    f = field_from_text("y + sin(8*x)", Rect(0, 2 * math.pi, -1, 1))
    lines = verify_line_theorem(detect_lightlike_set(f, 257, 65), f)
    one_per_line = [ln.samples[0] for ln in lines]
    assert len(one_per_line) == 16
    with pytest.raises(InsufficientSamplesError):
        verify_line_theorem(one_per_line, f)


# --------------------------------------------------------------------------
# shear family property: y + g(x) is a ZMC graph for any g
# --------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False),
                min_size=1, max_size=4),
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_shear_family_zmc_property(coeffs, amp_sin, amp_exp):
    terms = [f"({c})*x^{k + 1}" for k, c in enumerate(coeffs)]
    terms.append(f"({amp_sin})*sin(x)")
    terms.append(f"({amp_exp})*exp(x/2)")
    g = " + ".join(terms)
    f = field_from_text(f"y + {g}", SQ)
    X, Y = SQ.meshgrid(9, 9)
    res = np.broadcast_to(zmc_residual_of_jet(f.jet2_grid(X, Y)), X.shape)
    assert float(np.max(np.abs(res))) < 1e-10
