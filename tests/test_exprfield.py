"""Parser, forward-mode jets, and grid fields."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    _FUNCTIONS,
    _NON_FINITE,
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


@pytest.mark.parametrize("value", [10 ** 400, None, "two", [1.0, 2.0]])
def test_parameter_that_is_no_float_is_named(value):
    with pytest.raises(ValueError, match="parameter 'a' is not a number"):
        parse("a*x", {"a": value})


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


@pytest.mark.parametrize("text, error, message, offset", [
    ("(x + y", ExpressionSyntaxError, "expected ')'", 6),
    ("sin(x y)", ExpressionSyntaxError, "expected ')'", 6),
    ("x + ", ExpressionSyntaxError, "expected a value", 4),
    ("x +* y", ExpressionSyntaxError, "expected a value", 3),
    ("x y", ExpressionSyntaxError, "trailing input", 2),
    ("(x) (y)", ExpressionSyntaxError, "trailing input", 4),
    ("1.2.3", ExpressionSyntaxError, "bad numeric literal '1.2.3'", 0),
    ("x + 1..5", ExpressionSyntaxError, "bad numeric literal '1..5'", 4),
    ("x $ y", ExpressionSyntaxError, "unexpected character '$'", 2),
    ("#x", ExpressionSyntaxError, "unexpected character '#'", 0),
    ("y + g", UnboundParameterError, "unbound parameter 'g'", 4),
    ("k", UnboundParameterError, "unbound parameter 'k'", 0),
])
def test_parser_refusals_keep_message_and_offset(text, error, message,
                                                 offset):
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error and err.value.offset == offset
    assert str(err.value) == f"{message} (at offset {offset})"


@pytest.mark.parametrize("text, printed", [
    # left operands one level below, at and above their operator
    ("(x + y) * z", "(x + y) * z"),
    ("x / y * z", "x / y * z"),
    ("x^y * z", "x^y * z"),
    ("x - y - z", "x - y - z"),
    ("x * y - z", "x * y - z"),
    # right operands one level below, at and above their operator
    ("x * (y + z)", "x * (y + z)"),
    ("x * (y / z)", "x * (y / z)"),
    ("x * -y", "x * -y"),
    ("x - (y + z)", "x - (y + z)"),
    ("x - y * z", "x - y * z"),
    ("x - -y", "x - -y"),
    # both sides of ^
    ("(x * y)^z", "(x * y)^z"),
    ("(-x)^y", "(-x)^y"),
    ("sin(x)^y", "sin(x)^y"),
    ("x^(y * z)", "x^(y * z)"),
    ("x^-y", "x^-y"),
    ("x^y^z", "x^y^z"),
    ("(x^y)^z", "(x^y)^z"),
    # unary minus over each level
    ("-(x + y)", "-(x + y)"),
    ("-(x * y)", "-(x * y)"),
    ("-(-x)", "--x"),
    ("--x", "--x"),
    ("-x^2", "-x^2.0"),
    ("-sin(x)", "-sin(x)"),
    ("2^-x^2", "2.0^-x^2.0"),
    ("((x)) + atan2(y, -x)", "x + atan2(y, -x)"),
])
def test_to_text_parenthesizes_by_level(text, printed):
    assert to_text(parse(text, {"z": 1.0})) == printed


_UNARY = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh",
          "atan", "asinh", "acosh", "abs")


@pytest.mark.parametrize("text, message, offset", [
    ("y + foo(x)", "unknown function 'foo'", 4),
    ("y + Sin(x)", "unknown function 'Sin'", 4),
    ("x*atan2(x)", "atan2 takes 2 argument(s)", 2),
    ("x*atan2(x, y, 1)", "atan2 takes 2 argument(s)", 2),
    *((f"1 + {f}(x, y)", f"{f} takes 1 argument(s)", 4) for f in _UNARY),
])
def test_function_syntax_errors_keep_message_and_offset(text, message,
                                                        offset):
    assert sorted(_FUNCTIONS) == sorted((*_UNARY, "atan2"))
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (at offset {offset})"


def test_parameters_bound_at_parse_time():
    tree = parse("a*x + b", {"a": 2.0, "b": -1.0})
    assert float(evaluate(tree, {"x": 3.0, "y": 0.0})) == 5.0


def test_constants_pi_e():
    assert float(evaluate(parse("pi"), {"x": 0, "y": 0})) == math.pi
    assert float(evaluate(parse("e"), {"x": 0, "y": 0})) == math.e
    # a constant is a parameter node, and outranks a parameter of its name
    assert parse("pi", {"pi": 3.0}) == Param("pi", math.pi)
    assert parse("e*x") == BinOp("*", Param("e", math.e), Var("x"))


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
    unary = st.sampled_from(
        sorted(f for f, entry in _FUNCTIONS.items() if entry[3] == 1))
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


def _outcome(tree):
    """The bits of the tree's value at one point, or its refusal."""
    try:
        return float(evaluate(tree, {"x": 0.7, "y": -1.3})).hex()
    except NonDifferentiablePointError as exc:
        return str(exc)


# the parser makes no negative Num, so a tree that holds one prints as a
# negation; its text must still mean what the tree means
@given(st.recursive(st.one_of(
    _leaf, st.just(Num(-0.0)),
    st.builds(Num, st.floats(min_value=-100.0, max_value=-0.0,
                             allow_nan=False, allow_infinity=False))),
    _node, max_leaves=12))
@example(BinOp("^", Num(-2.0), Num(2.0)))
@example(BinOp("^", Num(-0.5), Neg(Num(-2.0))))
@settings(max_examples=300, deadline=None)
def test_negative_numbers_print_as_what_they_mean(tree):
    text = to_text(tree)
    again = parse(text, {"a": 2.5, "b": -0.75})
    assert to_text(again) == text
    assert _outcome(again) == _outcome(tree)


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


def _orders_agree(tree, x, y):
    """Run the order 0, 1 and 2 passes of ``tree`` at (x, y), a point or
    arrays, and check that they agree: where a higher order answers, every
    lower one answers with the same bits (and types) in the components it
    shares; where the order-1 pass breaks a rule, the order-2 pass breaks
    the same one.  (Only the order-2 pass may fail alone: its second
    partials can overflow where the gradient does not.)"""
    env = {"x": x, "y": y}
    outcomes = []
    for query in (lambda: [evaluate(tree, env)],
                  lambda: (lambda v, g: [v, g["x"], g["y"]])(
                      *gradient(tree, env)),
                  lambda: list(vars(expression_jet2(tree, x, y)).values())):
        try:
            outcomes.append(query())
        except NonDifferentiablePointError as err:
            outcomes.append(str(err))
    for k, low in enumerate(outcomes):
        for high in outcomes[k + 1:]:
            if not isinstance(high, str):
                assert not isinstance(low, str), (tree, x, y, low)
                assert all(_same_bits(p, q) for p, q in zip(low, high)), \
                    (tree, x, y)
    grad, jet = outcomes[1:]
    if isinstance(grad, str) and not grad.startswith(_NON_FINITE):
        assert jet == grad
    return outcomes


def _rooted(children):
    """One tree per head over random children: every function of the
    table, division, and powers with a literal non-integer exponent and
    with an expression for an exponent."""
    heads = [st.builds(lambda *args, f=f: Call(f, args),
                       *[children] * entry[3])
             for f, entry in _FUNCTIONS.items()]
    literal = st.floats(min_value=-4.0, max_value=4.0).filter(
        lambda p: not p.is_integer())
    return st.tuples(
        *heads, st.builds(BinOp, st.just("/"), children, children),
        st.builds(BinOp, st.just("^"), children, st.builds(Num, literal)),
        st.builds(BinOp, st.just("^"), children, children))


@given(_rooted(st.recursive(_leaf, _node, max_leaves=8)),
       st.lists(st.tuples(_POINT, _POINT), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_value_gradient_and_jet_agree(trees, points):
    x, y = (np.array(c) for c in zip(*points))
    for tree in trees:
        _orders_agree(tree, float(x[0]), float(y[0]))  # a point query
        _orders_agree(tree, x, y)                      # a lattice query


def _rule(message):
    return message.split(" at (")[0]


def _lattice_agrees(tree, X, Y):
    """_orders_agree on the lattice query (X, Y), and each order against
    the point queries at its nodes: every component an array of the
    lattice's shape with the bits of the point answers, or the error that
    the first node in row-major order breaking the same rule gives."""
    shape = np.broadcast_shapes(np.shape(X), np.shape(Y))
    nodes = [_orders_agree(tree, x, y) for x, y in zip(
        np.broadcast_to(X, shape).ravel().tolist(),
        np.broadcast_to(Y, shape).ravel().tolist())]
    for k, got in enumerate(_orders_agree(tree, X, Y)):
        answers = [node[k] for node in nodes]
        if isinstance(got, str):
            assert got == next(a for a in answers if isinstance(a, str)
                               and _rule(a) == _rule(got)), (tree, X, Y)
            continue
        assert not any(isinstance(a, str) for a in answers), (tree, X, Y)
        for c, comp in enumerate(got):
            assert type(comp) is np.ndarray and comp.dtype == float
            assert comp.shape == shape and comp.flags.writeable
            want = np.array([a[c] for a in answers]).reshape(shape)
            assert comp.tobytes() == want.tobytes(), (tree, X, Y, k, c)


@given(_rooted(st.recursive(_leaf, _node, max_leaves=8)),
       st.lists(st.tuples(_POINT, _POINT), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_lattice_queries_agree_with_their_nodes(trees, points):
    # lattice queries evaluate each subexpression on the shape its
    # variables broadcast to; the bits, types and errors stay those of the
    # nodes one by one
    x, y = (np.array(c) for c in zip(*points))
    lattices = [
        (x[:, None], y[None, :]),         # a lattice's axes
        # a meshgrid whose first row and column come twice, and again last
        np.meshgrid(np.r_[x[0], x, x[0]], np.r_[y[0], y, y[0]],
                    indexing="ij"),
        [np.repeat(x[:, None], 3, 1), np.repeat(y[:, None], 3, 1)],
        [np.full_like(y, x[0]), y],       # a ring's side, a 1-D batch
    ]
    for tree in trees:
        for X, Y in lattices:
            _lattice_agrees(tree, X, Y)


@pytest.mark.parametrize("text, rule, first, first_transposed", [
    ("log(x - 1.5)", "log needs a positive argument", "1.0, -1.0",
     "1.0, -1.0"),
    ("1/(x - y)", "division by zero", "2.0, 2.0", "1.0, 1.0"),
    ("sqrt(y - x) + log(y)", "sqrt differentiable only for positive "
     "argument", "2.0, -1.0", "2.0, -1.0"),
    # the inner sqrt fails first at x = 1, the outer log already at x = 2
    ("log(sqrt(x - 1.5) - 1)", "log needs a positive argument", "2.0, -1.0",
     "2.0, -1.0"),
])
def test_lattice_errors_name_the_first_failing_node(text, rule, first,
                                                    first_transposed):
    # the first node breaking the rule in row-major order, on a meshgrid
    # and on its transpose
    xs, ys = np.array([2.0, 1.0, 3.0]), np.array([-1.0, 1.0, 2.0])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    tree = parse(text)
    for lattice, node in (((X, Y), first), ((X.T, Y.T), first_transposed)):
        _lattice_agrees(tree, *lattice)
        with pytest.raises(NonDifferentiablePointError) as err:
            expression_jet2(tree, *lattice)
        assert str(err.value) == f"{rule} at (x, y) = ({node})"


@pytest.mark.parametrize("text, error", [
    # two rules break first at the same node: the walk meets the left first
    ("log(x - 1.5) + 1/(x - 1)",
     "log needs a positive argument at (x, y) = (1.0, -1.0)"),
    ("1/(x - 1) + log(x - 1.5)", "division by zero at (x, y) = (1.0, -1.0)"),
    # a rule at a later node outranks a non-finite component at an earlier
    # one (exp overflows at x = 1 and 2, log breaks at x = 3)
    ("exp(2000*(2.5 - x)) + log(2.5 - x)",
     "log needs a positive argument at (x, y) = (3.0, -1.0)"),
    # a variable with no value, whatever node breaks a rule first
    ("log(x - 2.5) + z", "no value for variable 'z'"),
    ("log(x - 1.5) + z", "no value for variable 'z'"),
])
def test_lattice_refusals_are_decided_by_one_walk(monkeypatch, text, error):
    from zmclab import exprfield
    xs, ys = np.array([2.0, 1.0, 3.0]), np.array([-1.0, 1.0, 2.0])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    tree = parse(text, variables=("x", "y", "z"))
    built = []

    class Counted(exprfield._Taylor):
        def __init__(self, env, order):
            built.append(order)
            super().__init__(env, order)

    for lattice in ((X, Y), (X.T, Y.T)):
        _lattice_agrees(tree, *lattice)
        env = dict(zip("xy", lattice))
        with monkeypatch.context() as m:
            m.setattr(exprfield, "_Taylor", Counted)
            for query in (lambda: evaluate(tree, env),
                          lambda: gradient(tree, env),
                          lambda: expression_jet2(tree, *lattice)):
                built.clear()
                with pytest.raises(NonDifferentiablePointError) as err:
                    query()
                assert str(err.value) == error
                assert len(built) == 1  # no second walk over a prefix


def test_missing_variable_outranks_every_rule():
    tree = parse("log(x) + z", variables=("x", "y", "z"))
    for x in (-1.0, [-1.0, 2.0], [2.0, -1.0]):
        with pytest.raises(NonDifferentiablePointError,
                           match="^no value for variable 'z'$"):
            evaluate(tree, {"x": np.array(x), "y": 0.0})


def test_lattice_jets_run_each_subexpression_on_its_axes(monkeypatch):
    from zmclab import exprfield
    sizes = {}

    def counted(name):
        partials, *rules = _FUNCTIONS[name]

        def at(k, *args):
            sizes.setdefault(name, []).append(np.size(args[0]))
            return partials(k, *args)
        monkeypatch.setitem(exprfield._FUNCTIONS, name, (at, *rules))

    counted("sin")
    counted("asinh")
    # on a lattice's axes sin(4*x) depends on x alone: 257 values, not the
    # 33,153 nodes
    xs, ys = Rect(0, 2 * math.pi, -1, 1).lattice(257, 129)
    shear = expression_jet2(parse("y + sin(4*x)"), xs[:, None], ys[None, :])
    assert sizes["sin"] == [257] and shear.value.shape == (257, 129)
    xs, ys = Rect(1, 2, 1, 2).lattice(129, 129)
    catenoid = expression_jet2(parse("-asinh(sqrt(x^2 + y^2))"),
                               xs[:, None], ys[None, :])
    assert sizes["asinh"] == [129 * 129] and catenoid.hxy.shape == (129, 129)


def test_a_negative_zero_coordinate_reads_as_positive_zero():
    # atan2(x, -1) is pi at x = +0.0 and -pi at x = -0.0: every query
    # reads the coordinate -0.0 as +0.0, so y*atan2(x, -1) has value and
    # y-partial pi at (-0.0, 1), at a point, in a batch and on axes
    f = field_from_text("y*atan2(x, -1)", Rect(-1, 1, 0, 2))
    queries = [(-0.0, 1.0),
               (np.array([-0.0, 0.5]), np.array([1.0, 1.0])),
               (np.array([-0.0, 0.5])[:, None], np.array([1.0, 2.0])[None, :])]
    for x, y in queries:  # the node (-0.0, 1) comes first
        j = f.jet2_grid(x, y)
        assert np.asarray(j.value).flat[0] == math.pi, (x, y)
        assert np.asarray(j.gy).flat[0] == math.pi, (x, y)
        assert np.asarray(f.grad_grid(x, y)[1]).flat[0] == math.pi, (x, y)
        value = evaluate(parse("atan2(x, -1)"), {"x": x})
        assert np.asarray(value).flat[0] == math.pi, x


def _sweep(tree, x, y):
    """_orders_agree on the arrays, halving every range where some pass
    raises, down to point queries, so that each point is checked alone."""
    if not any(isinstance(o, str) for o in _orders_agree(tree, x, y)):
        return
    if x.size <= 16:
        for p, q in zip(x.tolist(), y.tolist()):
            _orders_agree(tree, p, q)
        return
    half = x.size // 2
    _sweep(tree, x[:half], y[:half])
    _sweep(tree, x[half:], y[half:])


#: abscissae on and next to the boundary of every rule: zeros of both
#: signs and subnormals, 1 and its neighbours (acosh), the overflow of
#: exp, sinh and cosh, a pole of tan, and non-finite inputs
_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-200,
    1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
    709.78, 709.79, 710.0, -745.2, -746.0, math.pi / 2, 1e154, 1e155,
    1e308, -1e308, math.inf, -math.inf, math.nan])


@pytest.mark.slow
@pytest.mark.parametrize("text", [
    *(f"{f}(x)" for f in _FUNCTIONS if f != "atan2"), "atan2(y, x)",
    "y / x", "x^2.5", "x^-1.5", "x^y"])
def test_orders_agree_on_a_sweep(text):
    # opt in with ``-m slow``: 10^5 seeded points per function, a fifth of
    # them of tiny or huge magnitude, plus every pair of boundary values
    rng = np.random.default_rng(23)
    n = 10 ** 5
    big = 700.0 if text in ("exp(x)", "sinh(x)", "cosh(x)") else 1e300
    mag = np.where(rng.random(n) < 0.8, rng.uniform(0.0, 4.0, n),
                   10.0 ** rng.uniform(-300.0, math.log10(big), n))
    x = np.where(rng.random(n) < 0.95, 1.0, -1.0) * mag
    y = rng.uniform(-4.0, 4.0, n)
    ex, ey = (e.ravel() for e in np.meshgrid(_EDGES, _EDGES))
    tree = parse(text)
    for xs, ys in ((x, y), (ex, ey)):
        for k in range(0, xs.size, 4096):
            _sweep(tree, xs[k:k + 4096], ys[k:k + 4096])


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


def _gradient_fields():
    """One field of each class, plus ``x^y``, duals in both directions
    with eps = +-1 and a dual of a dual."""
    box, sq = Rect(1, 2, 1, 2), Rect(-1, 1, -1, 1)
    slab = Rect(0.2, 1.37, -1, 1)
    helicoid = field_from_text("atan2(y, x)", box)
    catenoid = field_from_text("-asinh(sqrt(x^2 + y^2))", box)

    def dual(parent, direction, epsilon):
        d = parent.domain
        return dualize(parent, (9, 9), (d.x0, d.y0), 0.0, direction,
                       epsilon).field

    to_stream = dual(helicoid, DualDirection.TO_STREAM, 1)
    return _one_field_of_each_class() + [
        field_from_text("x^y", Rect(0.5, 2.0, 0.5, 2.0)),
        to_stream,
        dual(to_stream, DualDirection.TO_POTENTIAL, 1),
        dual(catenoid, DualDirection.TO_POTENTIAL, 1),
        dual(field_from_text("y + exp(x)", sq), DualDirection.TO_POTENTIAL,
             -1),
        dual(field_from_text("y + log(tan(x))", slab),
             DualDirection.TO_STREAM, -1)]


def _same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@given(st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=8))
@settings(max_examples=10, deadline=None)
def test_grad_grid_is_the_gradient_of_jet2_grid_bitwise(units):
    # every function, integer and real powers, atan2, the grid, the
    # potential and the duals; lattice and 0-d point queries alike
    u, v = np.array(units).T
    for f in _gradient_fields():
        d = f.domain
        X, Y = d.x0 + u * (d.x1 - d.x0), d.y0 + v * (d.y1 - d.y0)
        queries = [(X, Y), (X[0], Y[0]), (float(X[-1]), float(Y[-1]))]
        for x, y in queries:
            got, j = f.grad_grid(x, y), f.jet2_grid(x, y)
            assert type(got) is tuple and len(got) == 2
            assert _same_bits(got[0], j.gx) and _same_bits(got[1], j.gy), \
                (f, x, y)


def test_grad_grid_refuses_only_undefined_gradients():
    # an order-1 pass checks the value and the gradient: where only the
    # second partials overflow it answers, where the gradient does it
    # names the gradient
    f = field_from_text("sqrt(x)", Rect(0.0, 1.0, 0.0, 1.0))
    gx, gy = f.grad_grid(1e-250, 0.5)
    assert (gx, gy) == (0.5 / math.sqrt(1e-250), 0.0) and gx == 5e124
    with pytest.raises(NonDifferentiablePointError,
                       match="^jet has non-finite components"):
        f.jet2_grid(1e-250, 0.5)
    g = field_from_text("exp(x^2)", Rect(-40, 40, -1, 1))
    with pytest.raises(NonDifferentiablePointError,
                       match=r"^gradient has non-finite components at "
                             r"\(x, y\) = \(40\.0, 0\.0\)$"):
        g.grad_grid(np.array([0.0, 40.0]), 0.0)
    with pytest.raises(NonDifferentiablePointError, match="^sqrt"):
        f.grad_grid(0.0, 0.5)
    with pytest.raises(OutOfDomainError):
        f.grad_grid(-0.5, 0.5)


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
