"""Causal classification, residuals, curvatures, light-like lines."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zmclab import (
    CausalClass,
    CausalSample,
    CausalSamples,
    DualDirection,
    GridField,
    InsufficientSamplesError,
    LightLikePointError,
    OutOfDomainError,
    Rect,
    SonicPointError,
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
from zmclab import geometry
from zmclab.duality import chaplygin_of_gradient
from zmclab.geometry import (CLASSES, DUP_TOL, REFINE_TOL, _class_codes,
                             _distinct_points, causal_b_grid, classify_grid,
                             mean_curvature_of_jet, zmc_residual_of_jet)

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


def _ref_class_of(b, bx, by, tau_light, tau_grad):
    """The per-point rule that the vectorized class codes replaced, kept as
    their reference."""
    if b > tau_light:
        return CausalClass.SPACE_LIKE
    if b < -tau_light:
        return CausalClass.TIME_LIKE
    if math.hypot(bx, by) <= tau_grad:
        return CausalClass.LIGHT_DEGENERATE
    return CausalClass.LIGHT_NONDEGENERATE


def _assert_codes_follow_reference(b, bx, by, tau_light, tau_grad):
    codes = _class_codes(b, bx, by, tau_light, tau_grad)
    assert codes.dtype == np.int8
    assert [CLASSES[c] for c in codes.tolist()] == [
        _ref_class_of(*p, tau_light, tau_grad)
        for p in zip(b.tolist(), bx.tolist(), by.tolist())]


def test_class_codes_follow_math_hypot_at_the_gradient_threshold():
    # pairs where np.hypot and math.hypot differ in the last bit, with
    # tau_grad at the smaller of the two: the rule of math.hypot decides
    bx, by = np.random.default_rng(5).random((2, 100_000)) * 1e-7
    g = np.hypot(bx, by)
    m = np.array([math.hypot(p, q) for p, q in zip(bx.tolist(), by.tolist())])
    split = np.flatnonzero(g != m)[:40]
    assert split.size
    for k in split.tolist():
        tau = float(min(g[k], m[k]))
        near = np.array([np.nextafter(tau, 0.0), tau, np.nextafter(tau, 1.0)])
        pair = (np.full(4, bx[k]), np.full(4, by[k]))
        for t in (tau, *near):  # 4 ulps around tau go to math.hypot too
            _assert_codes_follow_reference(np.zeros(4), *pair, 1e-9, t)
        scaled = (np.full(4, bx[k] * 2.0), np.full(4, by[k] * 2.0))
        _assert_codes_follow_reference(np.zeros(4), *scaled, 1e-9, 2.0 * tau)


def test_class_codes_follow_the_rule_on_special_values():
    special = [0.0, -0.0, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 1e-7, 5e-324, 1e300,
               math.nan, math.inf, -math.inf]
    b, bx, by = (np.array(v) for v in zip(*[
        (p, q, r) for p in special for q in special for r in special]))
    for tau_light, tau_grad in ((1e-9, 1e-7), (1e-9, 1e300), (1e300, 5e-324)):
        _assert_codes_follow_reference(b, bx, by, tau_light, tau_grad)


def _full_array_class_codes(b, bx, by, tau_light, tau_grad):
    """The rule that tested the gradient of every point, light-like or
    not, kept as the reference of the one that tests light-like points
    only."""
    g = np.hypot(bx, by)
    degenerate = g <= tau_grad
    near = np.flatnonzero(np.abs(g - tau_grad) <= 4.0 * np.spacing(tau_grad))
    degenerate[near] = [math.hypot(p, q) <= tau_grad for p, q in
                        zip(bx[near].tolist(), by[near].tolist())]
    return np.select([b > tau_light, b < -tau_light, degenerate], [0, 1, 3],
                     2).astype(np.int8)


_TAU_GRAD = 1e-7
# values within 4 ulps of tau_grad; with 0.0 beside them, or as the legs
# 0.6 and 0.8 of a hypotenuse, their hypot is too
_NEAR_TAU = [_TAU_GRAD + k * math.ulp(_TAU_GRAD) for k in range(-4, 5)]
_CODE_INPUTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-9, -1e-9,
                     0.6 * _TAU_GRAD, -0.8 * _TAU_GRAD, *_NEAR_TAU]),
    st.floats(-1e-6, 1e-6), st.floats(allow_nan=True, allow_infinity=True))


@given(st.lists(st.tuples(_CODE_INPUTS, _CODE_INPUTS, _CODE_INPUTS),
                max_size=40), st.sampled_from([_TAU_GRAD, *_NEAR_TAU]))
@settings(max_examples=300, deadline=None)
def test_class_codes_equal_the_full_array_rule(points, tau_grad):
    b, bx, by = np.array(points, dtype=float).reshape(-1, 3).T
    got = _class_codes(b, bx, by, 1e-9, tau_grad)
    assert got.dtype == np.int8
    assert np.array_equal(got, _full_array_class_codes(b, bx, by, 1e-9,
                                                       tau_grad))


def test_causal_samples_read_like_a_list():
    samples = classify_grid(field_from_text("y + sin(x)", SQ),
                            *SQ.meshgrid(5, 3))
    rows = list(samples)
    assert len(samples) == len(rows) == 15
    assert all(type(s) is CausalSample and type(s.x) is float for s in rows)
    assert samples == rows and samples[-1] == rows[-1]
    assert samples[3:5] == rows[3:5]
    assert samples[[4, 0]] == rows[4:5] + rows[:1]
    assert samples[samples.in_class(CausalClass.TIME_LIKE)] == [
        s for s in rows if s.cls is CausalClass.TIME_LIKE]
    assert CausalSamples.of(rows) == samples
    assert CausalSamples.concat(samples, samples[:2]) == rows + rows[:2]
    assert samples != rows[:-1] and samples != 3
    with pytest.raises(ValueError):
        samples.b[0] = 1.0  # the columns are read-only
    with pytest.raises(ValueError):
        CausalSamples([0.0], [0.0], [0.0], [0.0], [0.0], [0, 1])


def test_causal_samples_keep_no_caller_array():
    # the constructor copies a caller's writable arrays; an index, a mask
    # or a concat gives read-only columns that share no memory with them
    x, code = np.arange(6.0), np.array([0, 1, 2, 3, 0, 1], dtype=np.int8)
    samples = CausalSamples(x, x, x, x, x, code)
    rows = list(samples)
    x[:], code[:] = -1.0, 3
    assert samples == rows
    parts = (samples[1:5:2], samples[[5, 0]], samples[samples.code > 1],
             CausalSamples.concat(samples, samples[:1]))
    for part in parts:
        for col in part.columns:
            assert col.ndim == 1 and not col.flags.writeable
            assert not np.shares_memory(col, x) and not np.shares_memory(
                col, code)
    assert parts[0] == rows[1:5:2] and parts[1] == [rows[5], rows[0]]
    assert parts[2] == rows[2:4] and parts[3] == rows + rows[:1]
    assert samples.x.dtype == parts[1].x.dtype == np.float64
    assert samples.code.dtype == parts[3].code.dtype == np.int8


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


def test_lightlike_refusals_name_the_first_point_on_broadcast_axes():
    # B = 1 - x^2 - y^2 vanishes at the nodes (0, 1) and (1, 0); on axes
    # that broadcast to a lattice, the first in row-major order (x index
    # outermost) is named
    xs, ys = np.array([0.0, 0.5, 1.0])[:, None], np.array([0.0, 0.5, 1.0])
    f = field_from_text("x*y", Rect(0.0, 1.0, 0.0, 1.0))
    j = f.jet2_grid(xs, ys)
    with pytest.raises(LightLikePointError,
                       match=r"light-like point \(0\.0, 1\.0\)$"):
        mean_curvature_of_jet(j, 1e-12, xs, ys)
    with pytest.raises(SonicPointError,
                       match=r"sonic point \(0\.0, 1\.0\)$"):
        chaplygin_of_gradient(j.gx, j.gy, 0.0, 1e-12, xs, ys)


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
    # B = 1 - 1/r^2 and B = 1 - r^2 change sign across r = 1: refined
    # nondegenerate points, each within REFINE_TOL of the circle along its
    # edge
    for text, dom in [("atan2(y, x)", Rect(0.5, 2.0, 0.5, 2.0)),
                      ("0.5*x^2 - 0.5*y^2", SQ)]:
        samples = detect_lightlike_set(field_from_text(text, dom), 41, 41)
        assert samples
        for s in samples:
            assert abs(math.hypot(s.x, s.y) - 1.0) <= 2 * REFINE_TOL
            assert s.cls is CausalClass.LIGHT_NONDEGENERATE


@pytest.mark.parametrize("text, dom", [
    ("x", SQ),  # light-like at every node
    ("y + sin(x)", Rect(0, 2 * math.pi, -1, 1)),
    ("sqrt(x^2 + y^2)", Rect(0.5, 2.0, 0.5, 2.0)),
    ("0.5*x^2 - 0.5*y^2", SQ),
    ("y + x^2", SQ),
])
def test_lattice_field_detection_is_its_light_like_nodes(text, dom):
    # a lattice-backed field has no values between nodes: its light-like
    # set is the nodes with |B| <= 10 h^2, as classify_grid gives them
    f = GridField(field_from_text(text, dom).sample(33, 17))
    got = detect_lightlike_set(f, 33, 17)
    nodes = classify_grid(f, *f.domain.meshgrid(33, 17))
    want = nodes[np.abs(nodes.b) <= f.default_tau_light()]
    assert len(want)
    assert [c.tobytes() for c in got.columns] == [
        c.tobytes() for c in want.columns]


def _ref_distinct_points(x, y):
    """The greedy de-duplication that _distinct_points replaced, kept as
    its reference: sorted points, each dropped when a point kept before it
    lies within DUP_TOL in both x and y."""
    kept = []
    for p in sorted(zip(x.tolist(), y.tolist())):
        dup = False
        for q in reversed(kept):
            if p[0] - q[0] > DUP_TOL:
                break  # kept is x-sorted: everything earlier is further away
            if abs(p[1] - q[1]) <= DUP_TOL:
                dup = True
                break
        if not dup:
            kept.append(p)
    return np.array(kept, dtype=float).reshape(-1, 2).T


# a coordinate near an anchor: clusters, exact repeats, and chains of steps
# just below, at and just above DUP_TOL
_NEAR = st.builds(lambda a, k, h: a + k * h,
                  st.sampled_from([-0.0, 0.0, 0.25, 1.0, 1e3]),
                  st.integers(0, 5),
                  st.sampled_from([0.0, 4e-10, 5e-10, 9.9e-10, 1e-9,
                                   1.01e-9, 2e-9]))


@given(st.lists(st.tuples(_NEAR, _NEAR), max_size=60))
@example([(0.0, 0.0), (9e-10, 5.0), (1.8e-9, 0.0)])  # one x run, far ends
@example([(0.0, 0.0), (0.0, 9e-10), (0.0, 1.8e-9)])  # a chain in y
@settings(max_examples=300, deadline=None)
def test_distinct_points_is_the_greedy_rule(points):
    x, y = np.array(points, dtype=float).reshape(-1, 2).T
    idx = _distinct_points(x, y)
    got, ref = (x[idx], y[idx]), _ref_distinct_points(x, y)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


def _refine_zero(eval_g, a, b, fa, fb, tol, f_tol):
    """The per-edge rule of ``_refine_edges`` on one edge [a, b], kept as
    the scalar reference for sign-change hits: Illinois false position,
    moved tol/2 inside the ends and within the ITP bound of the midpoint,
    the midpoint where g is noise."""
    best_t, best_f = a, abs(fa)
    if abs(fb) < best_f:
        best_t, best_f = b, abs(fb)
    frac, exp = math.frexp((b - a) / tol)
    n_max = exp - (frac == 0.5) + 2
    kept = 0
    for j in range(200):
        mid = 0.5 * (a + b)
        if (b - a <= tol and best_f <= f_tol) or not a < mid < b:
            break
        w = fa / (fa - fb)
        if not (math.isfinite(w) and max(abs(fa), abs(fb)) > f_tol):
            w = 0.5
        s = b - a
        reach = max(0.0, min(0.5 * (s - tol),
                             math.ldexp(0.5 * tol, n_max - j) - 0.5 * s)) / s
        t = mid + min(max(w - 0.5, -reach), reach) * s
        ft = eval_g(t)
        if abs(ft) < best_f:
            best_t, best_f = t, abs(ft)
        if (fa < 0.0) != (ft < 0.0):
            if kept == -1:
                fa *= 0.5
            b, fb, kept = t, ft, -1
        else:
            if kept == 1:
                fb *= 0.5
            a, fa, kept = t, ft, 1
        if ft == 0.0:
            break
    return best_t


def _sign_change_hits(f, n):
    """One scalar refinement of B, on point jets, per lattice edge where B
    changes sign."""
    xs, ys = (v.tolist() for v in f.domain.lattice(n, n))
    b = np.array([[causal_b(f, x, y)[0] for y in ys] for x in xs])
    tau = f.default_tau_light()
    hits = [(_refine_zero(lambda t: causal_b(f, t, ys[j])[0], xs[i],
                          xs[i + 1], b[i, j], b[i + 1, j], REFINE_TOL, tau),
             ys[j]) for i, j in np.argwhere(b[:-1] * b[1:] < 0.0)]
    hits += [(xs[i], _refine_zero(lambda t: causal_b(f, xs[i], t)[0], ys[j],
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


@given(st.floats(0.5, 3.0), st.floats(0.0, 3.0), st.integers(16, 90))
@settings(max_examples=40, deadline=None)
def test_extremum_hits_lie_on_the_zeros_of_g_prime(a, b, nx):
    # psi = y + sin(a x + b): B = -a^2 cos^2(a x + b), degenerate exactly
    # where g' = a cos(a x + b) vanishes, here off the lattice nodes
    dom = Rect(0.0, 2 * math.pi, -1.0, 1.0)
    k = np.arange(math.ceil(b / math.pi - 0.5),
                  math.floor((2 * math.pi * a + b) / math.pi - 0.5) + 1)
    zeros = ((k + 0.5) * math.pi - b) / a
    xs = dom.lattice(nx, 3)[0]
    assume(zeros.size and np.abs(zeros[:, None] - xs).min() > 1e-6)
    f = field_from_text(f"y + sin({a!r}*x + {b!r})", dom)
    samples = detect_lightlike_set(f, nx, 3)
    x = samples.x[samples.in_class(CausalClass.LIGHT_DEGENERATE)]
    assert x.size
    assert np.abs(x[:, None] - zeros).min(axis=1).max() <= REFINE_TOL


def _halving_passes(f, rows, n0, n1, comp, g_tol, tol):
    """Lattice-jet passes of the plain bisection that ``_refine_edges``
    replaced, on the same edges: the reference for its pass bound."""
    lo, hi = rows[:2, n0], rows[:2, n1]
    g_lo, g_hi = rows[2 + comp, n0], rows[2 + comp, n1]
    best_g = np.abs(np.where(np.abs(g_hi) < np.abs(g_lo), g_hi, g_lo))
    open_ = np.ones(len(comp), dtype=bool)
    for passes in range(200):
        mid = 0.5 * (lo + hi)
        open_ &= (~(((hi - lo).sum(axis=0) <= tol) & (best_g <= g_tol))
                  & (mid > lo).any(axis=0) & (mid < hi).any(axis=0))
        k = np.flatnonzero(open_)
        if not k.size:
            return passes
        t = mid[:, k]
        g = np.stack(causal_b_grid(f, *t))[comp[k], np.arange(k.size)]
        better = np.abs(g) < best_g[k]
        best_g[k[better]] = np.abs(g[better])
        left = (g_lo[k] < 0.0) != (g < 0.0)
        hi[:, k[left]] = t[:, left]
        lo[:, k[~left]], g_lo[k[~left]] = t[:, ~left], g[~left]
        open_[k[g == 0.0]] = False
    return 200


@pytest.mark.parametrize("text, dom, nx, ny", [
    ("y + sin(4*x)", Rect(0, 2 * math.pi, -1, 1), 257, 257),  # zeros on nodes
    ("y + sin(3*x)", Rect(0.1, 6.0, -1, 1), 200, 20),  # zeros off nodes
    ("atan2(y, x)", Rect(0.5, 2.0, 0.5, 2.0), 41, 41),
    ("0.5*x^2 - 0.5*y^2", SQ, 41, 41),
    ("y + tanh(50*(x-0.31))", SQ, 40, 40),
    ("y + x^3", Rect(-1, 1.3, -1, 1), 40, 40),  # a cubic zero of B'
    ("sqrt(x^2 + y^2)", Rect(0.5, 2.0, 0.5, 2.0), 21, 21),  # noise edges
    ("x", SQ, 31, 31),  # no edges
])
def test_refinement_takes_at_most_two_passes_more_than_halving(
        monkeypatch, text, dom, nx, ny):
    f = field_from_text(text, dom)
    jets, edges = [0], []

    def counted(*args, _method=f.jet2_grid):
        jets[0] += 1
        return _method(*args)

    def refine(*args, _refine=geometry._refine_edges):
        edges.append(args)
        return _refine(*args)
    monkeypatch.setattr(f, "jet2_grid", counted)
    monkeypatch.setattr(geometry, "_refine_edges", refine)
    detect_lightlike_set(f, nx, ny)
    passes = jets[0] - 1  # less the lattice
    assert passes <= _halving_passes(*edges[0]) + 2


@pytest.mark.parametrize("n, count, n_lines", [(21, 871, 26), (41, 3346, 96)])
def test_cone_noise_edges_keep_their_samples_and_lines(n, count, n_lines):
    # B vanishes on the whole cone: every edge carries rounding noise only,
    # and halves as plain bisection did
    f = field_from_text("sqrt(x^2 + y^2)", Rect(0.5, 2.0, 0.5, 2.0))
    samples = detect_lightlike_set(f, n, n)
    assert len(samples) == count
    lines = verify_line_theorem(samples, f)
    assert len(lines) == n_lines
    assert all(ln.verified for ln in lines)


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
    assert calls["jet2_grid"] == 2  # lattice and one pass


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
