"""Scalar fields on rectangles, queryable for exact two-jets.

A field is either backed by a parsed expression, differentiated by one
forward pass that carries a truncated Taylor jet (value, first partials,
second partials) through every operator, or by a uniformly sampled grid
differentiated with second-order finite-difference stencils (central in
the interior, one-sided on the boundary).  Everything downstream (causal
classification, PDE residuals, duality) consumes the same ``Jet2`` record;
readers of the gradient alone (the dual one-form) take the ``(gx, gy)`` of
``grad_grid``, an order-1 pass for expressions.

Expression grammar (EBNF)::

    expr    = term , { ("+" | "-") , term } ;
    term    = factor , { ("*" | "/") , factor } ;
    factor  = "-" , factor | power ;
    power   = atom , [ "^" , factor ] ;          (* right-associative *)
    atom    = NUMBER | NAME | NAME , "(" , expr , { "," , expr } , ")"
            | "(" , expr , ")" ;

``NAME`` resolves, in order, to a declared variable (default ``x``, ``y``),
a function (sin cos tan exp log sqrt sinh cosh tanh atan atan2 asinh acosh
abs), a constant (``pi``, ``e``), or a bound parameter.  Precedence is
``^`` > unary minus > ``*`` ``/`` > ``+`` ``-``, so ``-x^2`` is ``-(x^2)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    ExpressionSyntaxError,
    NonDifferentiablePointError,
    OutOfDomainError,
    UnboundParameterError,
)

__all__ = [
    "Expression",
    "GraphField",
    "ExpressionField",
    "GridField",
    "Jet2",
    "Rect",
    "SampledGrid",
    "evaluate",
    "field_from_text",
    "gradient",
    "parse",
    "sample",
    "to_text",
]


# --------------------------------------------------------------------------
# abstract syntax tree
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Param:
    name: str
    value: float


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expression = Union[Num, Const, Var, Param, Neg, BinOp, Call]

_FUNCTION_ARITY = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1,
    "sinh": 1, "cosh": 1, "tanh": 1, "atan": 1, "atan2": 2,
    "asinh": 1, "acosh": 1, "abs": 1,
}
_CONSTANTS = {"pi": math.pi, "e": math.e}


# --------------------------------------------------------------------------
# tokenizer / parser
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | lparen | rparen | comma | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ExpressionSyntaxError(f"bad numeric literal {lit!r}", i)
            tokens.append(_Token("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
        elif c == ",":
            tokens.append(_Token("comma", c, i))
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, params, variables):
        self.tokens = tokens
        self.k = 0
        self.params = params
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def next(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExpressionSyntaxError(f"expected {what}", tok.pos)
        return tok

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expression:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            # exponent re-enters factor: right-associative, may carry a sign
            return BinOp("^", base, self.parse_factor())
        return base

    def parse_atom(self) -> Expression:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "lparen":
            node = self.parse_expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "name":
            name = tok.text
            if self.peek().kind == "lparen":
                if name not in _FUNCTION_ARITY:
                    raise ExpressionSyntaxError(f"unknown function {name!r}", tok.pos)
                self.next()
                args = [self.parse_expr()]
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.parse_expr())
                self.expect("rparen", "')'")
                if len(args) != _FUNCTION_ARITY[name]:
                    raise ExpressionSyntaxError(
                        f"{name} takes {_FUNCTION_ARITY[name]} argument(s)", tok.pos)
                return Call(name, tuple(args))
            if name in self.variables:
                return Var(name)
            if name in _CONSTANTS:
                return Const(name, _CONSTANTS[name])
            if name in self.params:
                return Param(name, float(self.params[name]))
            raise UnboundParameterError(name, tok.pos)
        raise ExpressionSyntaxError("expected a value", tok.pos)


def parse(text: str,
          params: Mapping[str, float] | None = None,
          variables: Sequence[str] = ("x", "y")) -> Expression:
    """Parse expression text into an AST; every free name must be a declared
    variable, a known function/constant, or a key of ``params``."""
    parser = _Parser(_tokenize(text), dict(params or {}), tuple(variables))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionSyntaxError("trailing input", tail.pos)
    return node


# precedence levels for printing: add=1, mul=2, unary=3, pow=4, atom=5
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _level(expr: Expression) -> int:
    if isinstance(expr, BinOp):
        return _LEVEL[expr.op]
    if isinstance(expr, Neg):
        return 3
    return 5


def to_text(expr: Expression) -> str:
    """Render an AST back to parseable text with minimal parentheses.

    ``parse(to_text(parse(s)))`` is structurally identical to ``parse(s)``.
    """
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_text(expr.arg)
        if _level(expr.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(to_text(a) for a in expr.args)})"
    if isinstance(expr, BinOp):
        lv = _LEVEL[expr.op]
        lhs, rhs = to_text(expr.lhs), to_text(expr.rhs)
        if expr.op == "^":
            # left operand binds tighter than ^ only at atom level
            if _level(expr.lhs) <= 4:
                lhs = f"({lhs})"
            if _level(expr.rhs) < 3:
                rhs = f"({rhs})"
            return f"{lhs}^{rhs}"
        if _level(expr.lhs) < lv:
            lhs = f"({lhs})"
        # all four are parsed left-associatively, so a same-level right
        # child only arises from a right-nested tree and needs parentheses
        if _level(expr.rhs) <= lv:
            rhs = f"({rhs})"
        return f"{lhs} {expr.op} {rhs}"
    raise TypeError(f"not an expression node: {expr!r}")


# --------------------------------------------------------------------------
# forward-mode jets: one pass of order 0, 1 or 2 serves value, gradient
# and two-jet alike
# --------------------------------------------------------------------------

@dataclass
class Jet2:
    """Value, gradient and (symmetric) Hessian of a field at a point.

    Components are floats for point queries and ndarrays for lattice
    queries; all formulas downstream work elementwise on either.
    """

    value: float
    gx: float
    gy: float
    hxx: float
    hxy: float
    hyy: float

    @property
    def gradient(self):
        return (self.gx, self.gy)


def _jadd(a, b):
    return [p + q for p, q in zip(a, b)]


def _jsub(a, b):
    return [p - q for p, q in zip(a, b)]


def _jneg(a):
    return [-p for p in a]


def _jmul(a, b, first, second):
    av, bv = a[0], b[0]
    return [av * bv, *[a[i] * bv + av * b[i] for i in first],
            *[(a[k] * bv + 2.0 * a[i] * b[i] if i == j
               else a[k] * bv + a[i] * b[j] + a[j] * b[i]) + av * b[k]
              for k, i, j in second]]


def _chain(u, f0, f1, f2, first, second):
    """Unary composition f(u) given f, f', f'' at the value of u."""
    return [f0, *[f1 * u[i] for i in first],
            *[f2 * u[i] * u[j] + f1 * u[k] for k, i, j in second]]


def _chain2(a, b, f0, fa, fb, faa, fab, fbb, first, second):
    """Binary composition f(a, b) given all partials of f through order two."""
    return [f0, *[fa * a[i] + fb * b[i] for i in first],
            *[faa * a[i] * a[j]
              + (2.0 * fab * a[i] * b[i] if i == j
                 else fab * (a[i] * b[j] + a[j] * b[i]))
              + fbb * b[i] * b[j] + fa * a[k] + fb * b[k]
              for k, i, j in second]]


@functools.cache
def _layout(n: int, order: int):
    """Where a jet over n variables keeps its partials: the indices of the
    first partials (the value sits at 0), and (k, i, j) for the second
    partial at k along the variables whose first partials sit at i <= j."""
    first = range(1, n + 1) if order else range(0)
    pairs = [(i, j) for i in first for j in first if i <= j]
    return first, [(n + 1 + k, i, j) for k, (i, j) in enumerate(pairs)
                   if order == 2]


def _atan2(k, a, b):
    r2 = k and a * a + b * b
    r4 = k > 1 and r2 * r2
    return (np.arctan2(a, b), k and b / r2, k and -a / r2,
            k > 1 and -2.0 * a * b / r4, k > 1 and (a * a - b * b) / r4,
            k > 1 and 2.0 * a * b / r4)


_POSITIVE = (lambda u: u <= 0.0, "log needs a positive argument")

# name: (f and its partials through the pass order k at the arguments, the
# rule for the value, the rule for derivatives); partials above order k
# short-circuit to False and are never read, so an order-1 pass computes
# no second partial.  A rule is (where undefined, message), None where
# every argument is fine.
_FUNCTIONS = {
    "sin": (lambda k, u: ((s := np.sin(u)), k and np.cos(u), k > 1 and -s),
            None, None),
    "cos": (lambda k, u: ((c := np.cos(u)), k and -np.sin(u), k > 1 and -c),
            None, None),
    "tan": (lambda k, u: ((t := np.tan(u)), k and (d := 1.0 + t * t),
                          k > 1 and 2.0 * t * d), None, None),
    "exp": (lambda k, u: ((f := np.exp(u)), f, f), None, None),
    "log": (lambda k, u: (np.log(u), k and (d := 1.0 / u), k > 1 and -d * d),
            _POSITIVE, _POSITIVE),
    "sqrt": (lambda k, u: ((r := np.sqrt(u)), k and 0.5 / r,
                           k > 1 and -0.25 / (r * u)),
             (lambda u: u < 0.0, "sqrt needs a nonnegative argument"),
             (lambda u: u <= 0.0,
              "sqrt differentiable only for positive argument")),
    "sinh": (lambda k, u: ((s := np.sinh(u)), k and np.cosh(u), s),
             None, None),
    "cosh": (lambda k, u: ((c := np.cosh(u)), k and np.sinh(u), c),
             None, None),
    "tanh": (lambda k, u: ((t := np.tanh(u)), k and (d := 1.0 - t * t),
                           k > 1 and -2.0 * t * d), None, None),
    "atan": (lambda k, u: (np.arctan(u), k and (d := 1.0 / (1.0 + u * u)),
                           k > 1 and -2.0 * u * d * d), None, None),
    "atan2": (_atan2, None, (lambda a, b: a * a + b * b == 0.0,
                             "atan2 undefined at the origin")),
    "asinh": (lambda k, u: (np.arcsinh(u),
                            k and 1.0 / (r := np.sqrt(q := 1.0 + u * u)),
                            k > 1 and -u / (q * r)), None, None),
    "acosh": (lambda k, u: (np.arccosh(u),
                            k and 1.0 / (r := np.sqrt(q := u * u - 1.0)),
                            k > 1 and -u / (q * r)),
              (lambda u: u < 1.0, "acosh needs argument >= 1"),
              (lambda u: u <= 1.0,
               "acosh differentiable only for argument > 1")),
    "abs": (lambda k, u: (np.abs(u), k and np.sign(u), 0.0), None,
            (lambda u: u == 0.0, "abs not differentiable at zero")),
}

_NON_FINITE = ("expression value is non-finite",
               "gradient has non-finite components",
               "jet has non-finite components")


def _literal(node):
    """Value of a number, parameter or constant node, possibly negated;
    None for any other node."""
    sign = 1.0
    if isinstance(node, Neg):
        node, sign = node.arg, -1.0
    return sign * node.value if isinstance(node, (Num, Param, Const)) else None


def _on_its_axes(p: np.ndarray) -> np.ndarray:
    """A lattice p (two axes or more) cut to one contiguous slice of
    length 1 on every axis it is constant along; broadcasting restores it.
    A batch of points (one axis or none) stays as it is: its points seldom
    share a coordinate, and the many small batches of the quadrature would
    pay for the check alone.  (After ``+ 0.0`` no zero carries a sign, so
    ``==`` compares bits; a NaN never matches and keeps its axis.)"""
    if p.ndim < 2 or p.size == 0:
        return p
    for axis, n in enumerate(p.shape):
        # the second entry along the axis before the whole array: on a
        # lattice an axis that varies differs there
        k = math.prod(p.shape[axis + 1:])
        if n > 1 and p.item(0) == p.item(k):
            first = p[(slice(None),) * axis + (slice(0, 1),)]
            if (p == first).all():
                p = first.copy()
    return p


class _Taylor:
    """The truncated Taylor jet of order 0, 1 or 2 of an expression at the
    point ``env`` (variable name -> number or array), in one pass: the
    value, one first partial per variable, then the upper-triangle second
    partials.  Components are floats at a single point and arrays of the
    broadcast shape otherwise.  On a lattice each subexpression is
    evaluated on the axes it depends on: a variable's array is cut to the
    axes it varies along, so ``sin(4*x)`` on an nx-by-ny meshgrid runs on
    nx values and only subexpressions that mix x and y run at full size,
    with the bits of the node-by-node evaluation.  An undefined or
    non-finite component raises NonDifferentiablePointError naming the rule
    and the first failing point in row-major order.  (A class, not
    closures: a self-referencing closure would keep the point's arrays
    alive until the cyclic collector runs.)"""

    def __init__(self, env: Mapping, order: int):
        self.order = order
        self.names = tuple(env)
        point = [np.asarray(env[name], dtype=float) + 0.0
                 for name in self.names]
        self.shape = np.broadcast_shapes(*(p.shape for p in point))
        self.point = [_on_its_axes(p) for p in point]
        self.first, self.second = _layout(len(self.names), order)
        self.zeros = [0.0] * (len(self.first) + len(self.second))
        self.variables = {
            name: [p, *[float(i == k) for i in self.first],
                   *self.zeros[len(self.first):]]
            for k, (name, p) in enumerate(zip(self.names, self.point), 1)}

    def __call__(self, expr: Expression) -> list:
        with np.errstate(all="ignore"):
            comps = self.walk(expr)
        out = np.empty((len(comps),) + self.shape)
        for k, comp in enumerate(comps):
            out[k] = comp
        finite = np.isfinite(out)
        if not finite.all():
            self.refuse(~finite.all(axis=0), _NON_FINITE[self.order])
        return list(out) if self.shape else out.tolist()

    def refuse(self, bad, message):
        if np.any(bad):
            k = int(np.argmax(np.broadcast_to(bad, self.shape)))
            coords = [repr(float(np.broadcast_to(p, self.shape).flat[k]))
                      for p in self.point]
            raise NonDifferentiablePointError(
                f"{message} at ({', '.join(self.names)}) = "
                f"({', '.join(coords)})")

    def call(self, func, *args):
        partials, value_rule, rule = _FUNCTIONS[func]
        rule = rule if self.order else value_rule
        at = [u[0] for u in args]
        if rule is not None:
            self.refuse(rule[0](*at), rule[1])
        chain = _chain if len(args) == 1 else _chain2
        return chain(*args, *partials(self.order, *at), self.first,
                     self.second)

    def recip(self, u, message):
        self.refuse(u[0] == 0.0, message)
        inv, k = 1.0 / u[0], self.order
        return _chain(u, inv, k and -inv * inv,
                      k > 1 and 2.0 * inv * inv * inv, self.first, self.second)

    def power(self, a, b, expo):
        # integer exponents multiply out (left-to-right square-and-multiply
        # over the bits of |p|) and take any base; every other exponent
        # needs a positive one
        p = _literal(expo)
        if p is not None and p.is_integer():
            acc = [np.float64(1.0), *self.zeros]
            for k, bit in enumerate(bin(abs(int(p)))[2:]):
                if k:
                    acc = _jmul(acc, acc, self.first, self.second)
                if bit == "1":
                    acc = _jmul(acc, a, self.first, self.second)
            return acc if p >= 0 else self.recip(acc, "negative power of zero")
        self.refuse(a[0] <= 0.0,
                    "power with non-integer exponent needs positive base")
        # np.float_power is the C library's pow at a point and on a lattice
        # alike; np.power's loops round differently by memory layout
        if p is None:
            # derivatives through exp(b log a), the value from pow itself
            jet = self.call("exp", _jmul(b, self.call("log", a), self.first,
                                         self.second))
            return [np.float_power(a[0], b[0]), *jet[1:]]
        p, k = b[0], self.order
        return _chain(a, np.float_power(a[0], p),
                      k and p * np.float_power(a[0], p - 1.0),
                      k > 1 and p * (p - 1.0) * np.float_power(a[0], p - 2.0),
                      self.first, self.second)

    def walk(self, e):
        if isinstance(e, Var):
            if e.name not in self.variables:
                raise NonDifferentiablePointError(
                    f"no value for variable {e.name!r}")
            return self.variables[e.name]
        if isinstance(e, (Num, Const, Param)):
            return [np.float64(e.value), *self.zeros]  # no float exceptions
        if isinstance(e, Neg):
            return _jneg(self.walk(e.arg))
        if isinstance(e, Call):
            return self.call(e.func, *map(self.walk, e.args))
        if isinstance(e, BinOp):
            a, b = self.walk(e.lhs), self.walk(e.rhs)
            if e.op == "+":
                return _jadd(a, b)
            if e.op == "-":
                return _jsub(a, b)
            if e.op == "*":
                return _jmul(a, b, self.first, self.second)
            if e.op == "/":
                return _jmul(a, self.recip(b, "division by zero"),
                             self.first, self.second)
            return self.power(a, b, e.rhs)
        raise TypeError(f"not an expression node: {e!r}")


def expression_jet2(expr: Expression, x, y) -> Jet2:
    """The exact two-jet of an expression at a point or on arrays.

    Any NaN or infinity in any component raises NonDifferentiablePointError
    instead of propagating into downstream classification.
    """
    return Jet2(*_Taylor({"x": x, "y": y}, 2)(expr))


def evaluate(expr: Expression, env: Mapping[str, float]):
    """Plain value of an expression; env maps variable names to numbers or
    arrays.  Raises NonDifferentiablePointError on undefined points."""
    return _Taylor(env, 0)(expr)[0]


def gradient(expr: Expression, env: Mapping[str, float]):
    """Value and first partials of an expression w.r.t. every env variable."""
    value, *partials = _Taylor(env, 1)(expr)
    return value, dict(zip(env, partials))


# --------------------------------------------------------------------------
# domains and sampled grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        try:
            finite = all(map(math.isfinite,
                             (self.x0, self.x1, self.y0, self.y1)))
        except OverflowError:  # an integer too large for a float
            finite = False
        if not finite:
            raise ValueError("rectangle bounds must be finite")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("rectangle needs x0 < x1 and y0 < y1")

    def contains(self, x, y) -> bool:
        return bool(np.all(self.inside(x, y)))

    def inside(self, x, y):
        """Elementwise membership, with a relative pad of 1e-12."""
        padx = 1e-12 * (1.0 + abs(self.x0) + abs(self.x1))
        pady = 1e-12 * (1.0 + abs(self.y0) + abs(self.y1))
        return ((x >= self.x0 - padx) & (x <= self.x1 + padx)
                & (y >= self.y0 - pady) & (y <= self.y1 + pady))

    def lattice(self, nx: int, ny: int):
        if nx < 2 or ny < 2:
            raise ValueError("lattice needs nx, ny >= 2")
        return (np.linspace(self.x0, self.x1, nx),
                np.linspace(self.y0, self.y1, ny))

    def meshgrid(self, nx: int, ny: int):
        xs, ys = self.lattice(nx, ny)
        return np.meshgrid(xs, ys, indexing="ij")


def _d1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along an axis: central inside,
    one-sided three-point stencils on the boundary rows."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _d2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative along an axis; one-sided four-point stencils on the
    boundary keep second order when at least 4 nodes are available."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    h2 = h * h
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    if v.shape[0] >= 4:
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    else:
        out[0] = (v[0] - 2.0 * v[1] + v[2]) / h2
        out[-1] = out[0]
    return np.moveaxis(out, 0, axis)


class SampledGrid:
    """Uniform lattice of field values, row-major with the x index outermost.

    Jets at nodes come from second-order stencils; they are computed once
    and cached.  Construction is single-writer; a built grid is read-only.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, values: np.ndarray):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.size < 3 or ys.size < 3:
            raise ValueError("sampled grids need nx, ny >= 3")
        if values.shape != (xs.size, ys.size):
            raise ValueError(f"values shape {values.shape} does not match "
                             f"lattice {(xs.size, ys.size)}")
        for arr in (xs, ys):
            steps = np.diff(arr)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise ValueError("lattice spacing must be uniform")
        self.xs = xs
        self.ys = ys
        self.values = values
        self.hx = float(xs[1] - xs[0])
        self.hy = float(ys[1] - ys[0])
        self._jets = None

    @property
    def nx(self) -> int:
        return self.xs.size

    @property
    def ny(self) -> int:
        return self.ys.size

    def _jet_tables(self):
        if self._jets is None:
            v = self.values
            gx = _d1(v, self.hx, 0)
            gy = _d1(v, self.hy, 1)
            self._jets = Jet2(v, gx, gy,
                              _d2(v, self.hx, 0),
                              _d1(gy, self.hx, 0),
                              _d2(v, self.hy, 1))
        return self._jets

    def nearest_node(self, x, y):
        """Index arrays (i, j) of the nodes nearest to (x, y), clipped."""
        i = np.rint((np.asarray(x) - self.xs[0]) / self.hx)
        j = np.rint((np.asarray(y) - self.ys[0]) / self.hy)
        return (np.minimum(np.maximum(i, 0), self.nx - 1).astype(int),
                np.minimum(np.maximum(j, 0), self.ny - 1).astype(int))


# --------------------------------------------------------------------------
# graph fields
# --------------------------------------------------------------------------

class GraphField:
    """A scalar field on a rectangle, queryable for two-jets.

    Immutable after construction; all queries are pure, so instances are
    safe to share across threads.  ``jet_mode`` is "exact" when derivatives
    come from AD (or analytic transforms of AD) and "lattice" when they are
    finite-difference tables.
    """

    jet_mode = "exact"

    def __init__(self, domain: Rect, name: str = ""):
        self.domain = domain
        self.name = name

    def _in_domain(self, X, Y):
        """X and Y as float arrays; OutOfDomainError names the first point
        outside the domain in row-major order."""
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        outside = ~self.domain.inside(X, Y)
        if outside.any():
            x, y = (np.broadcast_to(p, outside.shape).flat[np.argmax(outside)]
                    for p in (X, Y))
            d = self.domain
            raise OutOfDomainError(f"({x}, {y}) outside domain "
                                   f"[{d.x0}, {d.x1}] x [{d.y0}, {d.y1}]")
        return X, Y

    def jet2(self, x: float, y: float) -> Jet2:
        """Two-jet at a point: the 0-d lattice jet, with float components."""
        j = self._jet2_grid(*self._in_domain(x, y))
        return Jet2(*map(float, vars(j).values()))

    def jet2_grid(self, X: np.ndarray, Y: np.ndarray) -> Jet2:
        """Vectorized two-jets; components come back as arrays."""
        return self._jet2_grid(*self._in_domain(X, Y))

    def grad_grid(self, X: np.ndarray, Y: np.ndarray) -> tuple:
        """Vectorized gradients (gx, gy): those of ``jet2_grid``, bit for
        bit and of the same types, without the second partials.  Refuses
        only points where the value or the gradient is undefined."""
        return self._grad_grid(*self._in_domain(X, Y))

    # subclasses implement the unchecked jets on arrays of any shape
    def _jet2_grid(self, X, Y) -> Jet2:
        raise NotImplementedError

    def _grad_grid(self, X, Y) -> tuple:
        return self._jet2_grid(X, Y).gradient

    def value(self, x: float, y: float) -> float:
        return self.jet2(x, y).value

    def sample(self, nx: int, ny: int) -> SampledGrid:
        """Field values on the uniform nx-by-ny lattice of the domain."""
        if nx < 3 or ny < 3:
            raise ValueError("sample needs nx, ny >= 3")
        xs, ys = self.domain.lattice(nx, ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return SampledGrid(xs, ys, np.asarray(self.jet2_grid(X, Y).value))

    def default_tau_light(self) -> float:
        """Light-like tolerance matched to the jet accuracy of the source."""
        return 1e-9


class ExpressionField(GraphField):
    """Field backed by a parsed expression; jets are exact forward-mode AD."""

    def __init__(self, expr: Expression, domain: Rect, name: str = ""):
        super().__init__(domain, name or to_text(expr))
        self.expr = expr

    def _jet2_grid(self, X, Y) -> Jet2:
        return expression_jet2(self.expr, X, Y)

    def _grad_grid(self, X, Y) -> tuple:
        # first partials never read second ones, so an order-1 pass gives
        # the gradient bits of the order-2 pass in expression_jet2
        _, gx, gy = _Taylor({"x": X, "y": Y}, 1)(self.expr)
        return gx, gy

    def __repr__(self):
        return f"ExpressionField({self.name!r})"


class GridField(GraphField):
    """Field backed by a sampled grid; jets are O(h^2) finite differences.

    Point queries snap to the nearest lattice node (the grid carries no
    information between nodes); out-of-domain queries are still rejected.
    """

    jet_mode = "lattice"

    def __init__(self, grid: SampledGrid, name: str = ""):
        domain = Rect(float(grid.xs[0]), float(grid.xs[-1]),
                      float(grid.ys[0]), float(grid.ys[-1]))
        super().__init__(domain, name or "sampled grid")
        self.grid = grid

    def _jet2_grid(self, X, Y) -> Jet2:
        t = self.grid._jet_tables()
        at = self.grid.nearest_node(X, Y)
        return Jet2(*(c[at] for c in vars(t).values()))

    def default_tau_light(self) -> float:
        return 10.0 * max(self.grid.hx, self.grid.hy) ** 2

    def __repr__(self):
        return f"GridField({self.grid.nx}x{self.grid.ny}, {self.name!r})"


def field_from_text(text: str, domain: Rect,
                    params: Mapping[str, float] | None = None,
                    name: str = "") -> ExpressionField:
    """Parse expression text and wrap it as a field on ``domain``."""
    return ExpressionField(parse(text, params), domain, name or text)


def sample(field: GraphField, nx: int, ny: int) -> SampledGrid:
    return field.sample(nx, ny)
