"""Explicit surfaces: shear family with dual potentials, null cylinder,
mixed-type circle-foliated surface, time-like slab, helicoid pair."""

import math

import numpy as np
import pytest

from zmclab import (
    CausalClass,
    DomainViolationError,
    Rect,
    UnboundParameterError,
    ZeroDerivativeError,
    causal_b,
    classify,
    detect_lightlike_set,
    field_from_text,
    minimal_residual,
    timelike_residual,
    verify_line_theorem,
    zmc_residual,
)
from zmclab.catalog import (
    entire_graph_pair,
    helicoid_catenoid_pair,
    mixed_type_surface,
    null_cylinder,
    timelike_slab,
    CATALOG,
    emit,
)
from zmclab.duality import DualDirection, dual_one_form
from zmclab.exprfield import expression_jet2, parse, to_text
from zmclab.geometry import zmc_residual_of_jet


# --------------------------------------------------------------------------
# shear family
# --------------------------------------------------------------------------

def test_pair_exponential_closed_form():
    # g = exp: phi = y + exp(-x) - 1 (anchored at 0)
    psi, phi = entire_graph_pair("exp(x)", phi_domain=Rect(-1, 1, -1, 1))
    for x, y in [(-0.8, 0.2), (0.0, 0.0), (0.5, -0.5), (1.0, 1.0)]:
        assert psi.value(x, y) == pytest.approx(y + math.exp(x), abs=1e-15)
        assert phi.value(x, y) == pytest.approx(y + math.exp(-x) - 1.0,
                                                abs=1e-12)
        assert timelike_residual(phi, x, y) == pytest.approx(0.0, abs=1e-12)


def test_pair_linear():
    psi, phi = entire_graph_pair("x", phi_domain=Rect(-1, 1, -1, 1))
    assert psi.value(0.3, 0.4) == pytest.approx(0.7)
    assert phi.value(0.3, 0.4) == pytest.approx(0.4 - 0.3, abs=1e-13)
    b, _ = causal_b(psi, 0.3, 0.4)
    assert b == -1.0  # no light-like points anywhere


def test_pair_sine_quadrature_matches_antiderivative():
    # integral of sec on (0, pi/2): log(sec x + tan x) as the oracle
    dom = Rect(0.0, math.pi / 2 - 0.1, -1.0, 1.0)
    psi, phi = entire_graph_pair("sin(x)", domain=dom, phi_domain=dom)
    for x in (0.2, 0.7, 1.2, 1.4):
        want = 0.5 - math.log(1.0 / math.cos(x) + math.tan(x))
        assert phi.value(x, 0.5) == pytest.approx(want, abs=1e-10)


def test_pair_refuses_vanishing_derivative():
    with pytest.raises(ZeroDerivativeError):
        entire_graph_pair("x^2", phi_domain=Rect(-1, 1, -1, 1))
    with pytest.raises(ZeroDerivativeError):
        entire_graph_pair("sin(x)", phi_domain=Rect(0, 4, -1, 1))


def test_pair_without_potential_by_default():
    psi, phi = entire_graph_pair("x^2")
    assert phi is None
    assert zmc_residual(psi, 0.4, -0.2) == pytest.approx(0.0, abs=1e-14)


def test_pair_rejects_g_depending_on_y():
    # g parses with x its only variable: y anywhere, even before another
    # unbound name, is the y error
    for g in ("x + y", "-y", "sin(-y)", "x^y", "atan2(x, y)", "y*b"):
        with pytest.raises(ValueError,
                           match="g must be a function of x alone"):
            entire_graph_pair(g)


def test_pair_binds_y_as_a_parameter_and_refuses_other_names():
    psi, _ = entire_graph_pair("x + y", params={"y": 2.0})
    assert psi.value(0.5, 0.25) == 0.25 + 0.5 + 2.0
    with pytest.raises(UnboundParameterError, match="'b'"):
        entire_graph_pair("x + b*y")


def test_shear_b_is_minus_gprime_squared():
    for g in ("x", "x^2", "sin(x)", "exp(x)"):
        dom = Rect(-1, 1, -1, 1) if g != "sin(x)" else Rect(0, 2 * math.pi, -1, 1)
        psi, _ = entire_graph_pair(g, domain=dom)
        gexpr = field_from_text(g, dom).expr
        X, Y = dom.meshgrid(15, 15)
        j = psi.jet2_grid(X, Y)
        b = 1.0 - j.gx ** 2 - j.gy ** 2
        gp = np.broadcast_to(expression_jet2(gexpr, X, Y).gx, X.shape)
        assert float(np.max(np.abs(b + gp ** 2))) <= 1e-12
        # never space-like
        assert np.all(b <= 1e-15)


def test_potential_field_jets_are_closed_form():
    psi, phi = entire_graph_pair("exp(x)", phi_domain=Rect(-1, 1, -1, 1))
    j = phi.jet2(0.3, -0.2)
    assert j.gx == pytest.approx(-math.exp(-0.3), rel=1e-14)
    assert j.gy == 1.0
    assert j.hxx == pytest.approx(math.exp(0.3) / math.exp(0.3) ** 2, rel=1e-13)
    assert j.hxy == 0.0 and j.hyy == 0.0


def test_potential_lattice_jets_equal_point_jets():
    dom = Rect(-1, 1, -1, 1)
    X, Y = dom.meshgrid(9, 7)
    _, phi = entire_graph_pair("sin(x) + 2*x", phi_domain=dom)
    j = phi.jet2_grid(X, Y)
    _, fresh = entire_graph_pair("sin(x) + 2*x", phi_domain=dom)
    for idx in np.ndindex(X.shape):
        p = fresh.jet2(X[idx], Y[idx])
        assert (p.value, p.gx, p.gy, p.hxx, p.hxy, p.hyy) == tuple(
            float(c[idx]) for c in (j.value, j.gx, j.gy, j.hxx, j.hxy, j.hyy))
    # a point query integrates alone and gets the batch's bits
    assert phi.jet2(X[3, 2], Y[3, 2]).value == float(j.value[3, 2])


# --------------------------------------------------------------------------
# null cylinder
# --------------------------------------------------------------------------

def test_cylinder_parametrization_points():
    surface, validator, _ = null_cylinder(a=1.0)
    x, y, t = surface.point(0.0, 0.0)
    assert (x, y, t) == (1.0, 0.0, 0.0)
    assert validator.value(x, y, t) == pytest.approx(0.0, abs=1e-15)
    x, y, t = surface.point(0.7, math.pi / 2)
    assert (x, y, t) == pytest.approx((0.7, 1.0, 0.7), abs=1e-15)


def test_cylinder_tangent_lightlike_at_half_pi():
    surface, _, _ = null_cylinder(a=1.0)
    du = surface.tangent_u(0.3, math.pi / 2)
    assert du == pytest.approx((1.0, 0.0, 1.0), abs=1e-15)
    assert du[0] ** 2 + du[1] ** 2 - du[2] ** 2 == pytest.approx(0.0, abs=1e-15)


def test_cylinder_validator_on_lattice():
    surface, validator, _ = null_cylinder(a=1.3)
    assert validator.max_abs_on(surface, 50, 50) < 1e-10


def test_cylinder_branches_are_zmc():
    _, _, (lower, upper) = null_cylinder(a=1.0)
    X, Y = lower.domain.meshgrid(21, 21)
    for branch in (lower, upper):
        res = np.abs(zmc_residual_of_jet(branch.jet2_grid(X, Y)))
        assert float(np.max(res)) < 1e-10


def test_cylinder_branches_degenerate_on_y0():
    _, _, (lower, upper) = null_cylinder(a=1.0)
    for branch, sign in ((lower, 1.0), (upper, -1.0)):
        lines = verify_line_theorem(
            detect_lightlike_set(branch, 33, 33), branch)
        assert len(lines) == 1
        ln = lines[0]
        assert abs(ln.base[1]) < 1e-9
        assert ln.direction == pytest.approx((1.0, 0.0), abs=1e-12)
        # lifted direction (1, 0, psi_x) with psi_x = 1 on both branches
        assert ln.lifted == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)
        assert ln.verified


def test_cylinder_rejects_bad_radius():
    with pytest.raises(ValueError):
        null_cylinder(a=-2.0)


# --------------------------------------------------------------------------
# mixed-type circle-foliated surface
# --------------------------------------------------------------------------

def test_mixed_point_on_axis():
    surface, validator = mixed_type_surface(a=1.0)
    x, y, t = surface.point(2.0, 0.0)
    assert t == pytest.approx(0.5 * math.log(1.0 / 3.0), abs=1e-15)
    assert x == pytest.approx(2.0 + t + 2.0, abs=1e-15)
    assert y == 0.0
    assert abs(validator.value(x, y, t)) < 1e-12


def test_mixed_point_off_axis():
    surface, validator = mixed_type_surface(a=1.0)
    x, y, t = surface.point(2.0, math.pi / 2)
    assert y == pytest.approx(2.0, abs=1e-15)
    assert abs(validator.value(x, y, t)) < 1e-12


def test_mixed_validator_on_lattice():
    surface, validator = mixed_type_surface(a=1.0)
    assert validator.max_abs_on(surface, 50, 50) < 1e-10


def test_mixed_regularity_sweep():
    surface, validator = mixed_type_surface(a=1.0)
    assert validator.min_gradient_norm_on(surface, 100) > 0.1


def test_mixed_branch_guard():
    with pytest.raises(DomainViolationError):
        mixed_type_surface(a=1.0, r_range=(0.8, 3.0))
    with pytest.raises(DomainViolationError):
        mixed_type_surface(a=2.0, r_range=(0.4, 3.0))


# --------------------------------------------------------------------------
# time-like slab
# --------------------------------------------------------------------------

def test_slab_is_timelike_solution():
    slab = timelike_slab()
    X, Y = slab.domain.meshgrid(31, 31)
    res = np.abs(zmc_residual_of_jet(slab.jet2_grid(X, Y)))
    assert float(np.max(res)) < 1e-10
    b = 1.0 - slab.jet2_grid(X, Y).gx ** 2 - slab.jet2_grid(X, Y).gy ** 2
    assert np.all(b < 0.0)


def test_slab_hand_values_at_quarter_pi():
    slab = timelike_slab()
    assert timelike_residual(slab, math.pi / 4, 0.0) == pytest.approx(0.0, abs=1e-13)
    b, _ = causal_b(slab, math.pi / 4, 0.0)
    assert b == pytest.approx(-4.0, abs=1e-13)


def test_slab_blows_up_toward_the_wall():
    # |phi| grows without bound as x drops to 0 at fixed y
    slab = timelike_slab(delta=0.01)
    vals = [abs(slab.value(x, 0.0)) for x in (0.2, 0.1, 0.05, 0.02, 0.011)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 4.0


def test_slab_delta_guard():
    with pytest.raises(ValueError):
        timelike_slab(delta=1.0)


# --------------------------------------------------------------------------
# helicoid / Lorentzian catenoid
# --------------------------------------------------------------------------

def test_pair_solves_respective_equations():
    phi, psi = helicoid_catenoid_pair()
    X, Y = phi.domain.meshgrid(21, 21)
    for x, y in zip(X.ravel()[:40], Y.ravel()[:40]):
        assert minimal_residual(phi, x, y) == pytest.approx(0.0, abs=1e-10)
        assert zmc_residual(psi, x, y) == pytest.approx(0.0, abs=1e-10)


def test_pair_one_form_is_catenoid_gradient():
    phi, psi = helicoid_catenoid_pair()
    for x, y in [(1.0, 1.0), (1.5, 1.2), (2.0, 2.0)]:
        w1, w2 = dual_one_form(phi, x, y, DualDirection.TO_STREAM, 1)
        j = psi.jet2(x, y)
        assert w1 == pytest.approx(j.gx, abs=1e-10)
        assert w2 == pytest.approx(j.gy, abs=1e-10)


def test_pair_catenoid_spacelike_at_unit_radius():
    phi, psi = helicoid_catenoid_pair(Rect(0.5, 2.0, 0.0, 2.0))
    b, _ = causal_b(psi, 1.0, 0.0)
    assert b == pytest.approx(0.5, abs=1e-14)
    assert classify(psi, 1.0, 0.0).cls is CausalClass.SPACE_LIKE


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

def test_catalog_entries_emit():
    for name in CATALOG:
        doc = emit(name)
        assert doc["schema"] == 1
        assert doc["name"] == name
        assert doc["kind"] in ("field", "parametric")
    with pytest.raises(KeyError):
        emit("does-not-exist")


def _constructed_fields():
    """For each field and branch entry of the registry, the fields that
    the catalog's constructors build ("plane" has no constructor)."""
    helicoid, catenoid = helicoid_catenoid_pair()
    square = Rect(-1.0, 1.0, -1.0, 1.0)
    return {
        "helicoid": [helicoid],
        "lorentzian-catenoid": [catenoid],
        "timelike-slab": [timelike_slab()],
        "shear-linear": [entire_graph_pair("x", domain=square)[0]],
        "shear-parabola": [entire_graph_pair("x^2", domain=square)[0]],
        "shear-sine": [entire_graph_pair(
            "sin(x)", domain=Rect(0.0, 2.0 * math.pi, -1.0, 1.0))[0]],
        "shear-exp": [entire_graph_pair("exp(x)", domain=square)[0]],
        "null-cylinder": list(null_cylinder()[2]),
    }


def test_catalog_texts_give_the_constructors_jets():
    # a text restated in the registry cannot drift from the constructor
    fields = _constructed_fields()
    assert sorted(fields) == sorted(
        n for n, e in CATALOG.items() if n != "plane"
        and (e["kind"] == "field" or "branches" in e))
    for name, built in fields.items():
        entry = CATALOG[name]
        docs = entry["branches"] if "branches" in entry else [entry["field"]]
        assert len(docs) == len(built)
        for doc, f in zip(docs, built):
            parsed = field_from_text(doc["expr"], Rect(*doc["domain"]),
                                     doc["params"])
            assert parsed.domain == f.domain
            X, Y = f.domain.meshgrid(9, 7)
            for a, b in zip(vars(parsed.jet2_grid(X, Y)).values(),
                            vars(f.jet2_grid(X, Y)).values()):
                assert np.array_equal(a, b), (name, doc["expr"])


@pytest.mark.parametrize("name, build", [("null-cylinder", null_cylinder),
                                         ("mixed-type-surface",
                                          mixed_type_surface)])
def test_catalog_parametric_entries_are_the_constructors(name, build):
    surface, validator = build()[:2]
    entry = CATALOG[name]
    block = entry["parametric"]
    for k in "xyt":
        assert parse(block[k], block["params"],
                     variables=(block["u_name"], block["v_name"])) \
            == getattr(surface, k + "_expr")
    assert block["u_range"] == list(surface.u_range)
    assert block["v_range"] == list(surface.v_range)
    assert entry["implicit"] == to_text(validator.expr)


def test_catalog_field_entries_parse_and_classify():
    for name, entry in CATALOG.items():
        if entry["kind"] != "field":
            continue
        fdesc = entry["field"]
        f = field_from_text(fdesc["expr"], Rect(*fdesc["domain"]),
                            fdesc["params"])
        cx = 0.5 * (f.domain.x0 + f.domain.x1)
        cy = 0.5 * (f.domain.y0 + f.domain.y1)
        classify(f, cx, cy)  # no errors anywhere in the catalog
