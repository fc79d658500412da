"""Shared fixtures: the expression corpus used by round-trip and AD-vs-FD
cross-check tests, and the cross-check helper itself."""

from __future__ import annotations

import numpy as np

from zmclab import Rect, field_from_text
from zmclab.exprfield import evaluate

# (text, params, domain): every entry is smooth on the closed domain and
# keeps values O(1) so relative finite-difference comparisons are stable.
EXPRESSION_CORPUS = [
    ("1.5", {}, Rect(-1, 1, -1, 1)),
    ("x", {}, Rect(-1, 1, -1, 1)),
    ("y", {}, Rect(-1, 1, -1, 1)),
    ("y - 2*x + 0.25", {}, Rect(-1, 1, -1, 1)),
    ("x*y", {}, Rect(-1, 1, -1, 1)),
    ("x^2 - y^2", {}, Rect(-1, 1, -1, 1)),
    ("x^3 + x*y^2", {}, Rect(-1, 1, -1, 1)),
    ("(x + y)^4", {}, Rect(-1, 1, -1, 1)),
    ("x^2*y^3 - 3*x*y + 0.5", {}, Rect(-1, 1, -1, 1)),
    ("-x^2", {}, Rect(-1, 1, -1, 1)),
    ("sin(x)", {}, Rect(-1, 1, -1, 1)),
    ("cos(x*y)", {}, Rect(-1, 1, -1, 1)),
    ("sin(x)*cos(y)", {}, Rect(-2, 2, -2, 2)),
    ("tan(x/2)", {}, Rect(-1, 1, -1, 1)),
    ("exp(x - y^2)", {}, Rect(-1, 1, -1, 1)),
    ("log(2 + x)", {}, Rect(-1, 1, -1, 1)),
    ("sqrt(x^2 + y^2 + 0.5)", {}, Rect(-1, 1, -1, 1)),
    ("sinh(x)*cosh(y)", {}, Rect(-1, 1, -1, 1)),
    ("tanh(x + y)", {}, Rect(-1, 1, -1, 1)),
    ("atan(x*y)", {}, Rect(-1, 1, -1, 1)),
    ("atan2(y, x)", {}, Rect(0.5, 2.0, 0.5, 2.0)),
    ("asinh(x - y)", {}, Rect(-1, 1, -1, 1)),
    ("acosh(2 + x^2)", {}, Rect(-1, 1, -1, 1)),
    ("abs(x + 2)", {}, Rect(-1, 1, -1, 1)),
    ("x^2.5", {}, Rect(0.5, 2.0, -1, 1)),
    ("2^x", {}, Rect(-1, 1, -1, 1)),
    ("a*x^2 + b*y", {"a": 1.5, "b": -0.5}, Rect(-1, 1, -1, 1)),
    ("exp(-(x^2 + y^2)/2)", {}, Rect(-1, 1, -1, 1)),
    ("1/(1 + x^2 + y^2)", {}, Rect(-1, 1, -1, 1)),
    ("(1 - y^2)*x + y^3/3", {}, Rect(-1, 1, -1, 1)),
    ("pi*x + e*y", {}, Rect(-1, 1, -1, 1)),
    ("y + exp(x)", {}, Rect(-1, 1, -1, 1)),
    ("y + sin(x)", {}, Rect(0.0, 6.4, -1, 1)),
    ("y + x^2", {}, Rect(-1, 1, -1, 1)),
    ("y + log(tan(x))", {}, Rect(0.2, 1.37, -1, 1)),
    ("-asinh(sqrt(x^2 + y^2))", {}, Rect(0.5, 2.0, 0.5, 2.0)),
]

FD_STEP = 1e-5
FIRST_ORDER_RTOL = 1e-6
SECOND_ORDER_RTOL = 1e-4


def cross_check_field(text, params, domain, n=41):
    """AD jets vs central finite differences of plain field values on the
    interior of an n-by-n lattice.  Returns the worst scaled mismatch per
    derivative order.  Values and derivatives come from one Taylor pass, so
    this tests each operator's derivative formulas against its values."""
    f = field_from_text(text, domain, params)
    xs, ys = domain.lattice(n, n)
    X, Y = np.meshgrid(xs[1:-1], ys[1:-1], indexing="ij")
    j = f.jet2_grid(X, Y)

    def val(px, py):
        out = np.asarray(evaluate(f.expr, {"x": px, "y": py}), dtype=float)
        return np.broadcast_to(out, np.shape(px))

    h = FD_STEP
    gx_fd = (val(X + h, Y) - val(X - h, Y)) / (2 * h)
    gy_fd = (val(X, Y + h) - val(X, Y - h)) / (2 * h)
    v0 = val(X, Y)
    hxx_fd = (val(X + h, Y) - 2 * v0 + val(X - h, Y)) / h**2
    hyy_fd = (val(X, Y + h) - 2 * v0 + val(X, Y - h)) / h**2
    hxy_fd = (val(X + h, Y + h) - val(X + h, Y - h)
              - val(X - h, Y + h) + val(X - h, Y - h)) / (4 * h**2)

    def worst(ad, fd):
        ad = np.broadcast_to(ad, fd.shape)
        return float(np.max(np.abs(ad - fd) / (1.0 + np.abs(ad))))

    first = max(worst(j.gx, gx_fd), worst(j.gy, gy_fd))
    second = max(worst(j.hxx, hxx_fd), worst(j.hxy, hxy_fd),
                 worst(j.hyy, hyy_fd))
    return first, second
