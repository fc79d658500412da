"""Chaplygin states, dual one-forms, dualize, involution, divergence probe."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmclab import (
    CausalClass,
    DegenerateDenominatorError,
    DualDirection,
    FlowRegime,
    GridField,
    NonExactFormError,
    Rect,
    SonicPointError,
    chaplygin_state,
    classify,
    divergence_probe,
    double_dual_check,
    dual_one_form,
    dualize,
    field_from_text,
    one_form_curl,
)
from zmclab import duality
from zmclab.duality import dual_jet
from zmclab.errors import QuadratureError, ZmcError
from zmclab.exprfield import Jet2
from zmclab.geometry import minimal_residual_of_jet, zmc_residual_of_jet

SQ = Rect(-1.0, 1.0, -1.0, 1.0)
ANNULUS_BOX = Rect(1.0, 2.0, 1.0, 2.0)

CATENOID = "-asinh(sqrt(x^2 + y^2))"
HELICOID = "atan2(y, x)"


# --------------------------------------------------------------------------
# Chaplygin state
# --------------------------------------------------------------------------

def test_state_on_catenoid_at_r1():
    f = field_from_text(CATENOID, Rect(0.2, 2, -2, 2))
    st = chaplygin_state(f, 1.0, 0.0)
    assert st.epsilon == 1
    assert st.rho == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
    assert st.sound_speed == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert st.speed ** 2 == pytest.approx(st.sound_speed ** 2 - 1.0, abs=1e-13)
    assert st.regime is FlowRegime.SUBSONIC


def test_state_on_plane():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    st = chaplygin_state(f, 0.2, -0.6)
    assert st.rho == pytest.approx(math.sqrt(0.75), abs=1e-15)
    assert st.velocity[0] == pytest.approx(0.4 / st.rho)
    assert st.velocity[1] == pytest.approx(-0.3 / st.rho)
    assert st.rho * st.sound_speed == pytest.approx(1.0, abs=1e-15)


def test_state_on_linear_shear_supersonic():
    f = field_from_text("y + x", SQ)
    st = chaplygin_state(f, 0.1, 0.1)
    assert st.epsilon == -1
    assert st.rho == 1.0
    assert st.sound_speed == 1.0
    assert st.speed ** 2 == pytest.approx(st.sound_speed ** 2 + 1.0, abs=1e-14)
    assert st.regime is FlowRegime.SUPERSONIC


def test_state_rejects_sonic_point():
    f = field_from_text("y + x^2", SQ)
    with pytest.raises(SonicPointError):
        chaplygin_state(f, 0.0, 0.0)


def test_pressure_reference_shift():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    s0 = chaplygin_state(f, 0.0, 0.0, p0=0.0)
    s5 = chaplygin_state(f, 0.0, 0.0, p0=5.0)
    assert s5.pressure - s0.pressure == pytest.approx(5.0)
    assert s0.pressure == pytest.approx(-1.0 / s0.rho)


def test_state_invariants_random_points():
    rng = np.random.default_rng(7)
    fields = [
        field_from_text(CATENOID, ANNULUS_BOX),
        field_from_text("0.3*x + 0.4*y", SQ),
        field_from_text("y + x", SQ),
        field_from_text("y + exp(x)", SQ),
        field_from_text("y + log(tan(x))", Rect(0.2, 1.37, -1, 1)),
    ]
    for f in fields:
        d = f.domain
        xs = rng.uniform(d.x0, d.x1, 40)
        ys = rng.uniform(d.y0, d.y1, 40)
        for x, y in zip(xs, ys):
            st = chaplygin_state(f, x, y)
            assert abs(st.rho * st.sound_speed - 1.0) <= 1e-12
            assert abs(st.speed ** 2 + st.epsilon - st.sound_speed ** 2) <= 1e-12
            # sub-sonic iff space-like, same tolerance on both sides
            cls = classify(f, x, y).cls
            assert (st.regime is FlowRegime.SUBSONIC) == \
                (cls is CausalClass.SPACE_LIKE)


# --------------------------------------------------------------------------
# dual one-form
# --------------------------------------------------------------------------

def test_one_form_helicoid_gives_catenoid_gradient():
    phi = field_from_text(HELICOID, ANNULUS_BOX)
    psi = field_from_text(CATENOID, ANNULUS_BOX)
    X, Y = ANNULUS_BOX.meshgrid(11, 11)
    w1, w2 = dual_one_form(phi, X, Y, DualDirection.TO_STREAM, 1)
    j = psi.jet2_grid(X, Y)
    assert float(np.max(np.abs(w1 - j.gx))) < 1e-10
    assert float(np.max(np.abs(w2 - j.gy))) < 1e-10


def test_one_form_plane_constant():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    w1, w2 = dual_one_form(f, 0.3, -0.2, DualDirection.TO_POTENTIAL, 1)
    r = math.sqrt(0.75)
    assert w1 == pytest.approx(0.4 / r, abs=1e-15)
    assert w2 == pytest.approx(-0.3 / r, abs=1e-15)


def test_one_form_timelike_double_dual_sign():
    # phi0 = y + exp(-x), to-stream with eps = -1: the one-form equals
    # -grad(y + exp(x))
    f = field_from_text("y + exp(-x)", SQ)
    for x, y in [(-0.5, 0.1), (0.0, 0.0), (0.8, -0.9)]:
        w1, w2 = dual_one_form(f, x, y, DualDirection.TO_STREAM, -1)
        assert w1 == pytest.approx(-math.exp(x), rel=1e-13)
        assert w2 == pytest.approx(-1.0, rel=1e-13)


def test_one_form_guards():
    f = field_from_text("y + x", SQ)  # B = -1 everywhere
    with pytest.raises(DegenerateDenominatorError):
        dual_one_form(f, 0.0, 0.0, DualDirection.TO_POTENTIAL, +1)
    g = field_from_text("y + x^2", SQ)  # sonic on the y-axis
    with pytest.raises(SonicPointError):
        dual_one_form(g, 0.0, 0.0, DualDirection.TO_POTENTIAL, -1)
    h = field_from_text("0.1*x", SQ)  # |grad|^2 - 1 < 0
    with pytest.raises(DegenerateDenominatorError):
        dual_one_form(h, 0.0, 0.0, DualDirection.TO_STREAM, -1)


def test_curl_tracks_pde_residual():
    # solutions close the form, non-solutions do not (>= 4 vs >= 2 fields)
    solutions = [
        (HELICOID, ANNULUS_BOX, DualDirection.TO_STREAM, 1),
        (CATENOID, ANNULUS_BOX, DualDirection.TO_POTENTIAL, 1),
        ("y + exp(x)", SQ, DualDirection.TO_POTENTIAL, -1),
        ("y + log(tan(x))", Rect(0.2, 1.37, -1, 1),
         DualDirection.TO_STREAM, -1),
        ("0.3*x + 0.4*y", SQ, DualDirection.TO_POTENTIAL, 1),
    ]
    non_solutions = [
        ("y + x*y", Rect(0.5, 1.5, 0.5, 1.5), DualDirection.TO_POTENTIAL, -1),
        ("(x^2 + y^2)/8", SQ, DualDirection.TO_POTENTIAL, 1),
    ]
    for text, dom, direction, eps in solutions:
        f = field_from_text(text, dom)
        X, Y = dom.meshgrid(15, 15)
        curl = np.abs(one_form_curl(f, X, Y, direction, eps))
        assert float(np.max(curl)) < 1e-8, text
    for text, dom, direction, eps in non_solutions:
        f = field_from_text(text, dom)
        X, Y = dom.meshgrid(15, 15)
        curl = np.abs(one_form_curl(f, X, Y, direction, eps))
        j = f.jet2_grid(X, Y)
        res = zmc_residual_of_jet(j) if direction is DualDirection.TO_POTENTIAL \
            else minimal_residual_of_jet(j)
        assert float(np.max(curl)) > 1e-8, text
        assert float(np.max(np.abs(res))) > 1e-8, text


# --------------------------------------------------------------------------
# dualize
# --------------------------------------------------------------------------

def test_dualize_helicoid_to_catenoid_values():
    phi = field_from_text(HELICOID, ANNULUS_BOX)
    base_value = -math.asinh(math.sqrt(2.0))
    out = dualize(phi, (65, 65), base=(1.0, 1.0), base_value=base_value,
                  direction=DualDirection.TO_STREAM, epsilon=1)
    X, Y = ANNULUS_BOX.meshgrid(65, 65)
    exact = -np.arcsinh(np.sqrt(X ** 2 + Y ** 2))
    assert float(np.max(np.abs(out.field.grid.values - exact))) < 1e-8
    assert out.defect < 1e-8


def test_dualize_plane_closed_form():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    out = dualize(f, (21, 21), base=(0.0, 0.0), base_value=0.0,
                  direction=DualDirection.TO_POTENTIAL, epsilon=1)
    X, Y = SQ.meshgrid(21, 21)
    exact = (0.4 * X - 0.3 * Y) / math.sqrt(0.75)
    assert float(np.max(np.abs(out.field.grid.values - exact))) < 1e-10


def test_dualize_base_value_additivity():
    f = field_from_text(HELICOID, ANNULUS_BOX)
    a = dualize(f, (9, 9), base=(1.5, 1.5), base_value=0.0,
                direction=DualDirection.TO_STREAM, epsilon=1)
    b = dualize(f, (9, 9), base=(1.5, 1.5), base_value=2.5,
                direction=DualDirection.TO_STREAM, epsilon=1)
    assert np.allclose(b.field.grid.values - a.field.grid.values, 2.5,
                       rtol=0, atol=1e-12)


def test_dualize_base_anchoring():
    f = field_from_text(HELICOID, ANNULUS_BOX)
    out = dualize(f, (9, 9), base=(1.5, 1.5), base_value=-3.25,
                  direction=DualDirection.TO_STREAM, epsilon=1)
    assert out.field.value(1.5, 1.5) == -3.25


def test_dualize_nonsolution_raises():
    f = field_from_text("y + x*y", Rect(0.5, 1.5, 0.5, 1.5))
    with pytest.raises(NonExactFormError):
        dualize(f, (17, 17), base=(1.0, 1.0),
                direction=DualDirection.TO_POTENTIAL, epsilon=-1)


def test_dualize_propagates_sonic():
    f = field_from_text("y + x^2", SQ)  # sonic line x = 0 inside
    with pytest.raises(SonicPointError):
        dualize(f, (9, 9), base=(-1.0, 0.0),
                direction=DualDirection.TO_POTENTIAL, epsilon=-1)


def test_rho_hat_consistency():
    # 1/sqrt(phi_x^2 + phi_y^2 + eps) == sqrt(eps(1 - psi_x^2 - psi_y^2))
    # for the dual pair produced by dualize
    phi = field_from_text(HELICOID, ANNULUS_BOX)
    out = dualize(phi, (33, 33), base=(1.0, 1.0),
                  direction=DualDirection.TO_STREAM, epsilon=1)
    X, Y = ANNULUS_BOX.meshgrid(33, 33)
    jp = phi.jet2_grid(X, Y)
    js = out.field.jet2_grid(X, Y)
    lhs = 1.0 / np.sqrt(jp.gx ** 2 + jp.gy ** 2 + 1.0)
    rhs = np.sqrt(1.0 - js.gx ** 2 - js.gy ** 2)
    assert float(np.max(np.abs(lhs - rhs))) < 1e-8


# --------------------------------------------------------------------------
# double dual
# --------------------------------------------------------------------------

def test_double_dual_identity_spacelike():
    f = field_from_text(HELICOID, ANNULUS_BOX)
    rep = double_dual_check(f, (33, 33), epsilon=1)
    assert rep["relation"] == "identity"
    assert rep["gradient_defect"] < 1e-7


def test_double_dual_plane_both_signs():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    assert double_dual_check(f, (9, 9), epsilon=1)["gradient_defect"] < 1e-12
    g = field_from_text("y + 2*x", SQ)  # |grad|^2 = 5 > 1: time-like side
    assert double_dual_check(g, (9, 9), epsilon=-1)["gradient_defect"] < 1e-12


def test_double_dual_negation_timelike():
    f = field_from_text("y + exp(x)", Rect(0.0, 1.0, 0.0, 1.0))
    rep = double_dual_check(f, (33, 33), epsilon=-1)
    assert rep["relation"] == "gradient-negation"
    assert rep["gradient_defect"] < 1e-7


# --------------------------------------------------------------------------
# divergence probe
# --------------------------------------------------------------------------

def test_probe_parabola_log_rate():
    # psi = y + x^2: phi grows like |log x| / 2 toward the line x = 0
    f = field_from_text("y + x^2", Rect(5e-4, 1.0, -1.0, 1.0))
    xs = [0.1, 0.01, 0.001]
    vals = divergence_probe(f, xs, y=0.0, anchor=0.5)
    assert np.all(np.diff(vals) > 0)  # monotone growth
    resid = vals - 0.5 * np.abs(np.log(xs))
    c = float(np.mean(resid))
    scale = float(np.mean(0.5 * np.abs(np.log(xs))))
    assert float(np.max(np.abs(resid - c))) <= 0.05 * scale


def test_probe_cubic_rate():
    # psi = y + x^3: phi = y + 1/(3x) + const, one decade per factor ~10
    f = field_from_text("y + x^3", Rect(5e-4, 1.0, -1.0, 1.0))
    xs = np.array([0.1, 0.01, 0.001])
    vals = divergence_probe(f, xs, y=0.0, anchor=0.5, tau=1e-14,
                            quad_tol=1e-6)
    expected = np.abs(1.0 / (3.0 * xs) - 1.0 / 1.5)
    assert float(np.max(np.abs(vals - expected) / expected)) < 1e-4
    assert 8.0 < vals[2] / vals[1] < 13.0


def test_probe_plane_bounded():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    vals = divergence_probe(f, [0.5, 0.25, 0.1, 0.01], y=0.0, anchor=0.9,
                            epsilon=1)
    assert float(np.max(vals)) < 2.0  # no blow-up without a degenerate line


def test_probe_requires_decreasing_xs():
    f = field_from_text("0.3*x + 0.4*y", SQ)
    with pytest.raises(ValueError):
        divergence_probe(f, [0.1, 0.2], y=0.0)


# --------------------------------------------------------------------------
# batched L-path quadrature against the per-segment scheme
# --------------------------------------------------------------------------

def _ref_simpson(g, a, b, tol):
    """Per-segment composite Simpson, refined on fresh np.linspace nodes."""
    if a == b:
        return 0.0
    n = 2
    vals = g(np.linspace(a, b, n + 1))
    prev = (b - a) / n / 3.0 * (vals[0] + 4.0 * vals[1] + vals[2])
    while n <= 2 ** 18:
        n *= 2
        vals = g(np.linspace(a, b, n + 1))
        cur = (b - a) / n / 3.0 * (vals[0] + vals[-1]
                                   + 4.0 * np.sum(vals[1:-1:2])
                                   + 2.0 * np.sum(vals[2:-1:2]))
        if abs(cur - prev) < tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise AssertionError("reference Simpson stalled")


def _ref_segment(f, fixed, a, b, along_x, direction, eps, tau, tol):
    if a == b:
        return 0.0

    def at(ts):
        fix = np.full_like(ts, fixed)
        return (ts, fix) if along_x else (fix, ts)

    if f.jet_mode == "exact":
        return _ref_simpson(lambda ts: np.broadcast_to(dual_one_form(
            f, *at(ts), direction, eps, tau)[0 if along_x else 1], ts.shape),
            a, b, tol)
    j0, j1 = (dual_jet(f.jet2(*(float(v) for v in at(np.array(t)))),
                       direction, eps, tau) for t in (a, b))
    g0, g1, d0, d1 = ((j0.gx, j1.gx, j0.hxx, j1.hxx) if along_x
                      else (j0.gy, j1.gy, j0.hyy, j1.hyy))
    h = b - a
    return h * 0.5 * (g0 + g1) - h * h / 12.0 * (d1 - d0)


def _ref_cumulative(f, fixed, start, stops, along_x, *args):
    out = np.empty(stops.size)
    right = int(np.searchsorted(stops, start))
    for ks in (range(right, stops.size), range(right - 1, -1, -1)):
        acc, prev = 0.0, start
        for k in ks:
            acc += _ref_segment(f, fixed, prev, float(stops[k]), along_x,
                                *args)
            out[k] = acc
            prev = float(stops[k])
    return out


def _ref_dualize(f, n, base, bv, direction, eps, tol=1e-10):
    """Node values and defect of dualize, one segment at a time."""
    bx, by = base
    xs, ys = f.domain.lattice(n, n)
    args = (direction, eps, f.default_tau_light(), tol)
    spine = _ref_cumulative(f, by, bx, xs, True, *args)
    values = np.array([bv + spine[i] + _ref_cumulative(f, float(x), by, ys,
                                                       False, *args)
                       for i, x in enumerate(xs)])
    base_col = _ref_cumulative(f, bx, by, ys, False, *args)
    defect = 0.0
    for p in np.random.default_rng(0).choice(n * n, size=20, replace=False):
        i, j = divmod(int(p), n)
        stops = xs if f.jet_mode == "lattice" else xs[i:i + 1]
        row = _ref_cumulative(f, float(ys[j]), bx, stops, True, *args)
        row_val = row[i] if f.jet_mode == "lattice" else row[0]
        defect = max(defect, abs(values[i, j] - (bv + base_col[j] + row_val)))
    return values, defect


@pytest.mark.parametrize("n, base", [
    (65, (1.25, 1.5)),                     # more segments than one block
    (17, (1.2345, 1.6789)),                # base off the nodes
    (17, (2.0 + 1e-12, 1.0 - 1e-12)),      # search index n along x, 0 along y
])
def test_batched_matches_per_segment_exact(n, base):
    phi = field_from_text(HELICOID, ANNULUS_BOX)
    out = dualize(phi, (n, n), base, 0.25, DualDirection.TO_STREAM, 1)
    values, defect = _ref_dualize(phi, n, out.base, 0.25,
                                  DualDirection.TO_STREAM, 1)
    assert np.array_equal(out.field.grid.values, values)
    assert out.defect == defect


@pytest.mark.parametrize("n, base", [
    (65, (1.25, 1.5)),                     # more segments than one jet call
    (17, (1.0, 2.0)),                      # base in a corner
])
def test_batched_matches_per_segment_lattice(n, base):
    f = GridField(field_from_text(CATENOID, ANNULUS_BOX).sample(n, n))
    out = dualize(f, (n, n), base, 0.0, DualDirection.TO_POTENTIAL, 1)
    values, defect = _ref_dualize(f, n, base, 0.0, DualDirection.TO_POTENTIAL,
                                  1)
    assert np.array_equal(out.field.grid.values, values)
    assert out.defect == defect
    # a dual field over lattice data is itself lattice-backed
    back = dualize(out.field, (n, n), base, 0.0, DualDirection.TO_STREAM, 1)
    values, defect = _ref_dualize(out.field, n, base, 0.0,
                                  DualDirection.TO_STREAM, 1)
    assert np.array_equal(back.field.grid.values, values)
    assert back.defect == defect


@pytest.mark.parametrize("text, base, eps, lattice", [
    # B = -4x^2: the paths meet wrong-sign points before the sonic line
    ("y + x^2", (-1.0, 0.0), 1, False),
    ("y + x^2", (0.5, 0.5), 1, False),
    ("0.5*x^2", (0.0, 0.0), -1, False),  # sonic at the base, first
    ("x*y", (1.0, 1.0), -1, False),
    ("0.6*x^2", (0.0, 0.0), -1, True),
    ("0.6*x^2", (0.0, 0.0), 1, True),
])
def test_error_kind_follows_path_order(text, base, eps, lattice):
    # the first failing segment in path order names the error, as when the
    # segments are integrated one at a time
    f = field_from_text(text, SQ)
    if lattice:
        f = GridField(f.sample(9, 9))
    with pytest.raises(ZmcError) as ref:
        _ref_dualize(f, 9, base, 0.0, DualDirection.TO_POTENTIAL, eps)
    with pytest.raises(type(ref.value), match=str(ref.value)):
        dualize(f, (9, 9), base, 0.0, DualDirection.TO_POTENTIAL, eps)


def test_nested_simpson_deep_segments_bounded_memory():
    # 1,024 segments that refine to 256 panels: one node table for all of
    # them would hold 2 MB, and their jets 8 MB more per level
    a = np.linspace(0.0, 3.0, 1025)[:-1]
    b = a + 0.01
    seen = []

    def g(ts, segs):
        seen.append(ts.size)
        return np.sin(200.0 * ts + segs)

    tracemalloc.start()
    try:
        got = duality.nested_simpson(g, a, b, 1e-13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 22
    assert max(seen) <= duality.JET_POINTS
    for s in range(0, a.size, 7):
        ref = _ref_simpson(lambda ts: np.sin(200.0 * ts + s), a[s], b[s],
                           1e-13)
        assert got[s] == ref


def test_nested_simpson_stall_names_segment():
    def g(ts, segs):  # integrable singularity off every node: never settles
        return 1.0 / np.sqrt(np.abs(ts - 1.0 / 3.0))

    with pytest.raises(QuadratureError,
                       match=r"stalled on the probe, \[0\.0, 1\.0\] "
                             r"\(last delta .* vs tol 1\.0e-10\)"):
        duality.nested_simpson(g, [0.0, 0.0], [0.0, 1.0], 1e-10,
                               where=lambda s: "the probe")


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_bad_quad_tol_rejected(tol):
    f = field_from_text(HELICOID, ANNULUS_BOX)
    with pytest.raises(ValueError, match="quad_tol"):
        dualize(f, (9, 9), (1.5, 1.5), 0.0, DualDirection.TO_STREAM, 1,
                quad_tol=tol)
    with pytest.raises(ValueError, match="quad_tol"):
        double_dual_check(f, (9, 9), 1, quad_tol=tol)
    g = field_from_text("y + x^2", Rect(5e-4, 1.0, -1.0, 1.0))
    with pytest.raises(ValueError, match="quad_tol"):
        divergence_probe(g, [0.1, 0.01], y=0.0, anchor=0.5, quad_tol=tol)


@pytest.mark.parametrize("tau", [math.nan, -1.0])
@pytest.mark.parametrize("query", [
    lambda f, tau: dual_one_form(f, 0.0, 0.0, DualDirection.TO_POTENTIAL,
                                 -1, tau=tau),
    lambda f, tau: one_form_curl(f, 0.0, 0.0, DualDirection.TO_POTENTIAL,
                                 -1, tau=tau),
    lambda f, tau: divergence_probe(f, [0.0], 0.0, anchor=0.5, epsilon=-1,
                                    tau=tau),
], ids=["dual_one_form", "one_form_curl", "divergence_probe"])
def test_bad_tau_rejected(query, tau):
    # at the sonic point of y + x^2 an unchecked tau divided by zero
    f = field_from_text("y + x^2", SQ)
    with pytest.raises(ValueError, match="tolerances"):
        query(f, tau)


def test_dualize_batches_one_form_calls(monkeypatch):
    calls = []
    real = duality.dual_one_form

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(duality, "dual_one_form", counted)
    phi = field_from_text(HELICOID, ANNULUS_BOX)
    dualize(phi, (65, 65), (1.0, 1.0), 0.0, DualDirection.TO_STREAM, 1)
    assert 0 < len(calls) < 100


# --------------------------------------------------------------------------
# one set of dual one-form formulas against the two written out directly
# --------------------------------------------------------------------------

def _reference_dual_jet_parts(j, direction, epsilon, tau):
    """The dual one-form and its partials, one branch per direction."""
    eps = float(epsilon)
    if direction == DualDirection.TO_POTENTIAL:
        r2 = eps * (1.0 - j.gx * j.gx - j.gy * j.gy)
        if np.any(r2 <= tau):
            b = 1.0 - j.gx * j.gx - j.gy * j.gy
            if np.any(np.abs(b) <= tau):
                raise SonicPointError("dual one-form hit a sonic point")
            raise DegenerateDenominatorError(
                "sign of B does not match requested epsilon")
        rho = np.sqrt(r2)
        rho_x = -eps * (j.gx * j.hxx + j.gy * j.hxy) / rho
        rho_y = -eps * (j.gx * j.hxy + j.gy * j.hyy) / rho
        return (j.gy / rho, -j.gx / rho,
                j.hyy / rho - j.gy * rho_y / r2,
                -j.hxx / rho + j.gx * rho_x / r2,
                j.hxy / rho - j.gy * rho_x / r2,
                -j.hxy / rho + j.gx * rho_y / r2)
    s2 = j.gx * j.gx + j.gy * j.gy + eps
    if np.any(s2 <= tau):
        raise DegenerateDenominatorError(
            "|grad phi|^2 + epsilon not positive: dual gradient undefined")
    s = np.sqrt(s2)
    s_x = (j.gx * j.hxx + j.gy * j.hxy) / s
    s_y = (j.gx * j.hxy + j.gy * j.hyy) / s
    return (-j.gy / s, j.gx / s,
            -j.hyy / s + j.gy * s_y / s2,
            j.hxx / s - j.gx * s_x / s2,
            -j.hxy / s + j.gy * s_x / s2,
            j.hxy / s - j.gx * s_y / s2)


def _outcome(parts, *args):
    try:
        return parts(*args)
    except ZmcError as exc:
        return type(exc), str(exc)


_component = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.6, -0.8]),
    st.floats(min_value=-3.0, max_value=3.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[_component] * 5), min_size=1, max_size=6),
       st.sampled_from(list(DualDirection)), st.sampled_from([1, -1]))
def test_dual_jet_parts_match_direct_formulas_bitwise(rows, direction,
                                                      epsilon):
    gx, gy, hxx, hxy, hyy = (np.array(c) for c in zip(*rows))
    j = Jet2(np.nan, gx, gy, hxx, hxy, hyy)
    got = _outcome(duality._dual_jet_parts, j, direction, epsilon, 1e-9)
    want = _outcome(_reference_dual_jet_parts, j, direction, epsilon, 1e-9)
    if isinstance(want[0], type):
        assert got == want
        return
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))
