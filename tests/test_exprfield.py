"""Parser, forward-mode jets, and grid fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmclab import (
    DualDirection,
    ExpressionSyntaxError,
    NonDifferentiablePointError,
    OutOfDomainError,
    Rect,
    UnboundParameterError,
    dualize,
    field_from_text,
    parse,
    to_text,
)
from zmclab.catalog import entire_graph_pair
from zmclab.exprfield import (
    BinOp,
    Call,
    GridField,
    Neg,
    Num,
    Param,
    SampledGrid,
    Var,
    evaluate,
    expression_jet2,
    gradient,
)

from conftest import (
    EXPRESSION_CORPUS,
    FIRST_ORDER_RTOL,
    SECOND_ORDER_RTOL,
    cross_check_field,
)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_parse_shape_of_sum_and_power():
    tree = parse("y + x^2")
    assert tree == BinOp("+", Var("y"), BinOp("^", Var("x"), Num(2.0)))


def test_unbound_parameter_reports_name():
    with pytest.raises(UnboundParameterError) as err:
        parse("y + g")
    assert err.value.name == "g"


def test_unary_minus_binds_looser_than_power():
    tree = parse("-x^2")
    assert tree == Neg(BinOp("^", Var("x"), Num(2.0)))
    assert evaluate(tree, {"x": 3.0, "y": 0.0}) == -9.0


def test_power_is_right_associative():
    assert parse("x^2^3") == BinOp("^", Var("x"),
                                   BinOp("^", Num(2.0), Num(3.0)))
    assert float(evaluate(parse("2^3^2"), {"x": 0, "y": 0})) == 512.0


def test_precedence_mul_before_add():
    assert float(evaluate(parse("2 + 3*4"), {"x": 0, "y": 0})) == 14.0
    assert float(evaluate(parse("2*-3"), {"x": 0, "y": 0})) == -6.0


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x + ")
    assert err.value.offset == 4
    with pytest.raises(ExpressionSyntaxError):
        parse("x + (y")
    with pytest.raises(ExpressionSyntaxError):
        parse("sin(x, y)")  # wrong arity
    with pytest.raises(ExpressionSyntaxError):
        parse("x $ y")


def test_parameters_bound_at_parse_time():
    tree = parse("a*x + b", {"a": 2.0, "b": -1.0})
    assert float(evaluate(tree, {"x": 3.0, "y": 0.0})) == 5.0


def test_constants_pi_e():
    assert float(evaluate(parse("pi"), {"x": 0, "y": 0})) == math.pi
    assert float(evaluate(parse("e"), {"x": 0, "y": 0})) == math.e


@pytest.mark.parametrize("text,params", [(t, p) for t, p, _ in EXPRESSION_CORPUS])
def test_round_trip_corpus(text, params):
    tree = parse(text, params)
    assert parse(to_text(tree), params) == tree


_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False, allow_infinity=False)),
    st.sampled_from([Var("x"), Var("y"), Param("a", 2.5), Param("b", -0.75)]),
)


def _node(children):
    unary = st.sampled_from(["sin", "cos", "exp", "sqrt", "tanh", "asinh"])
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda f, a: Call(f, (a,)), unary, children),
        st.builds(lambda a, b: Call("atan2", (a, b)), children, children),
    )


@given(st.recursive(_leaf, _node, max_leaves=25))
@settings(max_examples=300, deadline=None)
def test_round_trip_random_trees(tree):
    text = to_text(tree)
    assert parse(text, {"a": 2.5, "b": -0.75}) == tree


# --------------------------------------------------------------------------
# jets
# --------------------------------------------------------------------------

def test_polynomial_jet_exact():
    f = field_from_text("y + x^2", Rect(-5, 5, -5, 5))
    j = f.jet2(3.0, 5.0)
    assert j.value == 14.0
    assert j.gradient == (6.0, 1.0)
    assert (j.hxx, j.hxy, j.hyy) == (2.0, 0.0, 0.0)


def test_catenoid_gradient_hand_value():
    # d/dr of -asinh(r) is -1/sqrt(1 + r^2); at r = 1 this is -1/sqrt(2)
    f = field_from_text("-asinh(sqrt(x^2 + y^2))", Rect(0.5, 2, -2, 2))
    j = f.jet2(1.0, 0.0)
    assert j.gx == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)
    assert j.gy == pytest.approx(0.0, abs=1e-15)


def test_grid_second_derivative_exact_on_quadratic():
    dom = Rect(0.0, 1.0, 0.0, 1.0)
    grid = field_from_text("x^2", dom).sample(11, 11)
    f = GridField(grid)
    j = f.jet2(0.5, 0.5)
    assert j.hxx == pytest.approx(2.0, abs=1e-12)
    assert j.gx == pytest.approx(1.0, abs=1e-12)


def test_grid_off_node_query_returns_nearest_node_jet():
    src = field_from_text("sin(3*x)*y^2", Rect(0, 1, 0, 2))
    g = GridField(src.sample(11, 21))
    xs, ys, hx, hy = g.grid.xs, g.grid.ys, g.grid.hx, g.grid.hy
    x, y = xs[3] + 0.4 * hx, ys[14] - 0.45 * hy
    assert g.jet2(x, y) == g.jet2(xs[3], ys[14])
    assert g.jet2(x, y).value == g.grid.values[3, 14]
    X, Y = [x, xs[-1]], [y, ys[0] + 0.2 * hy]
    i, j = g.grid.nearest_node(X, Y)
    assert (i.tolist(), j.tolist()) == ([3, 10], [14, 0])
    assert g.jet2_grid(X, Y).value.tolist() == g.grid.values[i, j].tolist()


def test_nearest_node_clips_points_beyond_each_edge():
    grid = field_from_text("x*y", Rect(0, 1, 0, 2)).sample(11, 21)
    X = np.array([-5.0, -0.06, 0.5, 1.07, 7.0, 0.3])
    Y = np.array([-3.0, 1.0, -0.05, 2.07, 9.0, 1e300])
    expected = ([0, 0, 5, 10, 10, 3], [0, 10, 0, 20, 20, 20])
    # the snapping rule keeps np.clip's indices
    clipped = (np.clip(np.rint(X / grid.hx), 0, 10).astype(int),
               np.clip(np.rint(Y / grid.hy), 0, 20).astype(int))
    assert tuple(a.tolist() for a in clipped) == expected
    i, j = grid.nearest_node(X, Y)
    assert (i.dtype.kind, j.dtype.kind) == ("i", "i")
    assert (i.tolist(), j.tolist()) == expected
    for x, y, ei, ej in zip(X.tolist(), Y.tolist(), *expected):
        si, sj = grid.nearest_node(x, y)
        assert (np.ndim(si), np.ndim(sj)) == (0, 0)
        assert (int(si), int(sj)) == (ei, ej)


def test_grid_jets_match_ad_on_quadratics_everywhere():
    dom = Rect(-1.0, 2.0, 0.0, 1.0)
    src = field_from_text("x^2 + 0.5*x*y - y^2 + x - 3*y + 2", dom)
    g = GridField(src.sample(9, 9))
    eps = 1e2 * np.finfo(float).eps
    for x in np.linspace(-1, 2, 9):
        for y in np.linspace(0, 1, 9):
            ja, jg = src.jet2(x, y), g.jet2(x, y)
            for name in ("value", "gx", "gy", "hxx", "hxy", "hyy"):
                assert getattr(jg, name) == pytest.approx(
                    getattr(ja, name), abs=eps * 10, rel=eps)


def test_nan_policy_raises_instead_of_propagating():
    f = field_from_text("sqrt(x)", Rect(-1, 1, -1, 1))
    with pytest.raises(NonDifferentiablePointError):
        f.jet2(0.0, 0.0)  # derivative singular at 0
    with pytest.raises(NonDifferentiablePointError):
        f.jet2(-0.5, 0.0)
    g = field_from_text("1/x", Rect(-1, 1, -1, 1))
    with pytest.raises(NonDifferentiablePointError):
        g.jet2(0.0, 0.0)
    h = field_from_text("abs(x)", Rect(-1, 1, -1, 1))
    with pytest.raises(NonDifferentiablePointError):
        h.jet2(0.0, 0.3)
    e = field_from_text("exp(x^2)", Rect(-40, 40, -1, 1))
    with pytest.raises(NonDifferentiablePointError):
        e.jet2(40.0, 0.0)  # overflow -> inf is refused too


def test_out_of_domain_rejected():
    f = field_from_text("x + y", Rect(0, 1, 0, 1))
    with pytest.raises(OutOfDomainError,
                       match=r"^\(1\.5, 0\.5\) outside domain \[0, 1\] x"):
        f.jet2(1.5, 0.5)
    # the first node outside in row-major order is (i, j) = (3, 0)
    with pytest.raises(OutOfDomainError,
                       match=r"^\(1\.5, 0\.0\) outside domain \[0, 1\] x"):
        f.jet2_grid(*Rect(0, 2, 0, 1).meshgrid(5, 5))


def test_integer_power_allows_negative_base():
    f = field_from_text("x^3", Rect(-2, 2, -1, 1))
    assert f.jet2(-2.0, 0.0).value == -8.0
    g = field_from_text("x^-2", Rect(0.5, 2, -1, 1))
    j = g.jet2(2.0, 0.0)
    assert j.value == pytest.approx(0.25)
    assert j.gx == pytest.approx(-2.0 * 2.0 ** -3)
    # value, gradient and jet agree on negative bases and on x^0 at zero
    for text, x, value, slope in [("x^-2", -1.0, 1.0, 2.0),
                                  ("x^(-3)", -1.0, -1.0, -3.0),
                                  ("x^0", 0.0, 1.0, 0.0)]:
        expr, env = parse(text), {"x": x, "y": 0.5}
        j = field_from_text(text, Rect(-2, 2, -1, 1)).jet2(x, 0.5)
        v, g = gradient(expr, env)
        assert evaluate(expr, env) == v == j.value == value
        assert g["x"] == j.gx == slope


def test_integer_power_by_squaring(monkeypatch):
    from zmclab import exprfield
    calls = []

    def counted(*args):
        calls.append(1)
        return jmul(*args)

    jmul = exprfield._jmul
    monkeypatch.setattr(exprfield, "_jmul", counted)
    p = 2 ** 20 + 1
    v, g = gradient(parse(f"x^{p}"), {"x": 1.0, "y": 0.0})
    assert len(calls) <= 2 * 21 + 2
    assert v == 1.0 and g["x"] == p


def test_noninteger_power_needs_positive_base():
    f = field_from_text("x^2.5", Rect(-1, 1, -1, 1))
    with pytest.raises(NonDifferentiablePointError):
        f.jet2(-0.5, 0.0)


def test_sample_values():
    ones = field_from_text("1", Rect(0, 1, 0, 1)).sample(3, 3)
    assert np.all(ones.values == 1.0)
    lin = field_from_text("x", Rect(0, 1, 0, 1)).sample(3, 3)
    assert np.allclose(lin.values, [[0, 0, 0], [0.5, 0.5, 0.5], [1, 1, 1]])


def test_sampled_shear_graph_fd_residual_small():
    # psi = y + exp(x) solves the graph equation exactly; re-differentiating
    # its samples keeps the residual at the FD truncation level
    from zmclab.geometry import zmc_residual_of_jet
    dom = Rect(0.0, 1.0, 0.0, 1.0)
    g = GridField(field_from_text("y + exp(x)", dom).sample(101, 101))
    X, Y = dom.meshgrid(101, 101)
    res = zmc_residual_of_jet(g.jet2_grid(X, Y))
    assert float(np.max(np.abs(res))) < 1e-3


@pytest.mark.parametrize("bounds", [
    (0.0, math.inf, 0.0, 1.0), (-math.inf, 0.0, 0.0, 1.0),
    (0.0, 1.0, math.nan, 1.0), (0, 10 ** 400, 0, 1), (1.0, 0.0, 0.0, 1.0),
    (0.0, 1.0, 0.0, 0.0),
])
def test_rect_needs_finite_ordered_bounds(bounds):
    with pytest.raises(ValueError, match="rectangle"):
        Rect(*bounds)


def test_sampled_grid_validation():
    with pytest.raises(ValueError):
        SampledGrid(np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]),
                    np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SampledGrid(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.5, 1.0]),
                    np.zeros((3, 3)))


def test_undefined_points_are_named():
    from zmclab.geometry import classify_grid
    f = field_from_text("atan2(y, x)", Rect(-1, 1, -1, 1))
    with pytest.raises(NonDifferentiablePointError,
                       match=r"^atan2 undefined at the origin at "
                             r"\(x, y\) = \(0\.0, 0\.0\)$"):
        classify_grid(f, *f.domain.meshgrid(5, 5))
    # the first failing point in row-major order, for every entry point
    expr = parse("log(x)")
    xs = np.array([[1.0, -2.0], [0.0, 3.0]])
    for query in (evaluate, gradient):
        with pytest.raises(NonDifferentiablePointError,
                           match=r"^log needs a positive argument at "
                                 r"\(x, y\) = \(-2\.0, 0\.5\)$"):
            query(expr, {"x": xs, "y": 0.5})
    with pytest.raises(NonDifferentiablePointError,
                       match=r"^jet has non-finite components at "
                             r"\(x, y\) = \(40\.0, 0\.0\)$"):
        field_from_text("exp(x^2)", Rect(-40, 40, -1, 1)).jet2(40.0, 0.0)
    # sqrt and abs: defined values, undefined derivatives
    assert evaluate(parse("sqrt(x) + abs(y)"), {"x": 0.0, "y": 0.0}) == 0.0
    with pytest.raises(NonDifferentiablePointError, match="^sqrt"):
        gradient(parse("sqrt(x)"), {"x": 0.0})
    assert evaluate(parse("atan2(y, x)"), {"x": 0.0, "y": 0.0}) == 0.0


_POINT = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@given(st.recursive(_leaf, _node, max_leaves=12), _POINT, _POINT)
@settings(max_examples=150, deadline=None)
def test_value_gradient_and_jet_agree(tree, x, y):
    env = {"x": x, "y": y}
    outcomes = []
    for query in (lambda: evaluate(tree, env), lambda: gradient(tree, env),
                  lambda: expression_jet2(tree, x, y)):
        try:
            outcomes.append(query())
        except NonDifferentiablePointError:
            outcomes.append(None)
    value, grad, jet = outcomes
    if jet is not None:
        assert value is not None and grad is not None
    if value is None:
        assert grad is None and jet is None
    if grad is not None:
        assert grad[0] == value
        if jet is not None:
            assert (jet.value, jet.gx, jet.gy) == (value, grad[1]["x"],
                                                   grad[1]["y"])


@pytest.mark.parametrize("text, dom", [
    ("x^2.5", Rect(0.5, 1.3, 0.5, 2.0)),
    ("2^x", Rect(-1, 1, -1, 1)),
    ("x^y", Rect(0.5, 2.0, 0.5, 2.0)),
])
def test_point_jets_equal_lattice_jets_on_real_powers(text, dom):
    expr = parse(text)
    X, Y = dom.meshgrid(41, 41)
    lattice = expression_jet2(expr, X, Y)
    for i, j in np.ndindex(X.shape):
        point = expression_jet2(expr, float(X[i, j]), float(Y[i, j]))
        assert all(getattr(point, c) == getattr(lattice, c)[i, j]
                   for c in ("value", "gx", "gy", "hxx", "hxy", "hyy"))


def _one_field_of_each_class():
    """Every corpus expression, a grid, a potential and two duals (of an
    exact and of a lattice parent), built afresh so that no cache is
    shared between two calls."""
    helicoid = field_from_text("atan2(y, x)", Rect(1, 2, 1, 2))
    grid = GridField(helicoid.sample(9, 9))
    _, phi = entire_graph_pair("sin(x) + 2*x", phi_domain=Rect(-1, 1, -1, 1))
    fields = [field_from_text(t, d, p) for t, p, d in EXPRESSION_CORPUS]
    return fields + [grid, phi] + [
        dualize(parent, (9, 9), (1.5, 1.5), 0.0, DualDirection.TO_STREAM,
                1).field for parent in (helicoid, grid)]


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@given(st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=8))
@settings(max_examples=20, deadline=None)
def test_point_jets_equal_lattice_jets_on_every_field_class(units):
    u, v = np.array(units).T
    names = ("value", "gx", "gy", "hxx", "hxy", "hyy")
    for f, fresh in zip(_one_field_of_each_class(),
                        _one_field_of_each_class()):
        d = f.domain
        X, Y = d.x0 + u * (d.x1 - d.x0), d.y0 + v * (d.y1 - d.y0)
        lattice = f.jet2_grid(X, Y)
        for k in range(X.size):
            point = fresh.jet2(X[k], Y[k])
            assert all(type(getattr(point, c)) is float for c in names)
            assert tuple(getattr(point, c) for c in names) == tuple(
                getattr(lattice, c)[k] for c in names), (f, X[k], Y[k])


def test_gradient_multivar():
    expr = parse("x*y + t^2", variables=("x", "y", "t"))
    v, g = gradient(expr, {"x": 2.0, "y": 3.0, "t": -1.0})
    assert float(v) == 7.0
    assert g["x"] == 3.0 and g["y"] == 2.0 and g["t"] == -2.0


# --------------------------------------------------------------------------
# AD vs FD cross-check (the exprfield accuracy contract)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("text,params,domain", EXPRESSION_CORPUS)
def test_ad_matches_fd_on_corpus(text, params, domain):
    first, second = cross_check_field(text, params, domain)
    assert first < FIRST_ORDER_RTOL, f"first partials off by {first}"
    assert second < SECOND_ORDER_RTOL, f"second partials off by {second}"
