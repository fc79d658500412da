"""Catalog of explicit ZMC surfaces: generators and validators.

Covers the shear family psi = y + g(x) with its dual potential, the null
cylinder (a circular cylinder along a light-like axis, carrying two
parallel degenerate light-like lines), a properly embedded mixed-type
surface foliated by circles, the time-like graph confined to a vertical
slab, and the helicoid / Lorentzian-catenoid dual pair.  Every parametric
surface ships with an implicit validator so other modules can cross-check
its image without trusting the parametrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainViolationError,
    UnboundParameterError,
    ZeroDerivativeError,
)
from .exprfield import (
    BinOp,
    Expression,
    ExpressionField,
    GraphField,
    Jet2,
    Rect,
    Var,
    evaluate,
    expression_jet2,
    gradient,
    parse,
    to_text,
)
from .duality import nested_simpson

__all__ = [
    "CATALOG",
    "ImplicitValidator",
    "ParametricSurface",
    "PotentialField",
    "emit",
    "entire_graph_pair",
    "helicoid_catenoid_pair",
    "mixed_type_surface",
    "null_cylinder",
    "timelike_slab",
]


# --------------------------------------------------------------------------
# parametric surfaces and implicit validators
# --------------------------------------------------------------------------

@dataclass
class ParametricSurface:
    """Map (u, v) -> (x, y, t) given by component expressions."""

    x_expr: Expression
    y_expr: Expression
    t_expr: Expression
    u_range: tuple
    v_range: tuple
    u_name: str = "u"
    v_name: str = "v"
    params: dict = field(default_factory=dict)

    def point(self, u, v):
        env = {self.u_name: u, self.v_name: v}
        return (evaluate(self.x_expr, env), evaluate(self.y_expr, env),
                evaluate(self.t_expr, env))

    def tangent_u(self, u: float, v: float):
        """First partials of (x, y, t) along the u parameter."""
        env = {self.u_name: u, self.v_name: v}
        out = []
        for comp in (self.x_expr, self.y_expr, self.t_expr):
            _, g = gradient(comp, env)
            out.append(g[self.u_name])
        return tuple(out)

    def grid(self, nu: int, nv: int):
        us = np.linspace(self.u_range[0], self.u_range[1], nu)
        vs = np.linspace(self.v_range[0], self.v_range[1], nv)
        U, V = np.meshgrid(us, vs, indexing="ij")
        return self.point(U, V)


@dataclass
class ImplicitValidator:
    """Scalar G(x, y, t) whose zero set should contain a surface image."""

    expr: Expression

    def value(self, x, y, t):
        return evaluate(self.expr, {"x": x, "y": y, "t": t})

    def gradient_norm(self, x, y, t):
        _, g = gradient(self.expr, {"x": x, "y": y, "t": t})
        return np.sqrt(g["x"] ** 2 + g["y"] ** 2 + g["t"] ** 2)

    def max_abs_on(self, surface: ParametricSurface, nu: int = 50,
                   nv: int = 50) -> float:
        x, y, t = surface.grid(nu, nv)
        return float(np.max(np.abs(self.value(x, y, t))))

    def min_gradient_norm_on(self, surface: ParametricSurface,
                             n: int = 100) -> float:
        k = max(2, int(math.ceil(math.sqrt(n))))
        x, y, t = surface.grid(k, k)
        norms = self.gradient_norm(x.ravel(), y.ravel(), t.ravel())
        return float(np.min(norms[:n]))


# --------------------------------------------------------------------------
# the shear family psi0 = y + g(x) and its dual potential
# --------------------------------------------------------------------------

class PotentialField(GraphField):
    """Dual potential of y + g(x): phi = y - integral of 1/g'.

    Values integrate 1/g' by adaptive Simpson, to QUAD_TOL per segment,
    from the reference abscissa (0 when the domain allows it, else the
    nearest domain edge); derivatives are closed forms of the jets of g,
    so phi_x = -1/g'(x), phi_y = 1, phi_xx = g''/g'^2.
    """

    QUAD_TOL = 1e-12

    def __init__(self, g_expr: Expression, domain: Rect, name: str = ""):
        super().__init__(domain, name or f"dual of y + {to_text(g_expr)}")
        self.g_expr = g_expr
        self.x_ref = min(max(0.0, domain.x0), domain.x1)

    def _gprime(self, x):
        """g'(x) by an order-1 pass: the gx of g's two-jet, bit for bit."""
        return gradient(self.g_expr, {"x": x, "y": 0.0})[1]["x"]

    def _jet2_grid(self, X, Y) -> Jet2:
        X, Y = np.broadcast_arrays(X, Y)
        # the integrals of 1/g' from x_ref to each distinct abscissa, in
        # one nested Simpson batch
        xs, inverse = np.unique(X, return_inverse=True)
        integral = nested_simpson(
            lambda ts, _segs: 1.0 / self._gprime(ts),
            np.full(xs.size, self.x_ref), xs, self.QUAD_TOL,
            lambda s: f"the integral to x = {xs[s]}")[inverse]
        j = expression_jet2(self.g_expr, X, 0.0)
        gp = j.gx
        return Jet2(Y - integral.reshape(X.shape), -1.0 / gp,
                    np.ones_like(gp), j.hxx / (gp * gp), np.zeros_like(gp),
                    np.zeros_like(gp))

    def _grad_grid(self, X, Y) -> tuple:
        # the gradient needs no value integrals
        gp = self._gprime(np.broadcast_arrays(X, Y)[0])
        return -1.0 / gp, np.ones_like(gp)


def entire_graph_pair(g_text: str, params: dict | None = None,
                      domain: Rect = Rect(-1.0, 1.0, -1.0, 1.0),
                      phi_domain: Rect | None = None):
    """Entire ZMC graph psi = y + g(x) and, on request, its dual potential.

    psi has B = -g'(x)^2, hence no space-like points, and is light-like
    (degenerately) exactly on the vertical lines where g' vanishes.  The
    potential is built only when ``phi_domain`` is given; it raises
    ZeroDerivativeError if g' vanishes anywhere on that domain.
    """
    try:
        g_expr = parse(g_text, params, variables=("x",))
    except UnboundParameterError as exc:
        if exc.name != "y":
            raise
        raise ValueError("g must be a function of x alone") from None

    psi = ExpressionField(BinOp("+", Var("y"), g_expr), domain,
                          name=f"y + {to_text(g_expr)}")
    phi = None
    if phi_domain is not None:
        phi = PotentialField(g_expr, phi_domain)
        gp = phi._gprime(np.linspace(phi_domain.x0, phi_domain.x1, 513))
        if np.any(gp == 0.0) or np.any(gp[1:] * gp[:-1] < 0.0):
            raise ZeroDerivativeError(
                "g' vanishes inside the requested potential domain")
    return psi, phi


# --------------------------------------------------------------------------
# explicit surfaces
# --------------------------------------------------------------------------

#: the null cylinder's graph branches t = x -/+ sqrt(a^2 - y^2)
_CYLINDER_BRANCHES = ("x - sqrt(a^2 - y^2)", "x + sqrt(a^2 - y^2)")


def null_cylinder(a: float = 1.0, x_extent: float = 1.0,
                  u_range: tuple = (-1.5, 1.5), y_frac: float = 0.9):
    """Circular cylinder of radius ``a`` along the light-like axis (1,0,1).

    Image: (x - t)^2 + y^2 = a^2.  Carries two parallel degenerate
    light-like lines (parameter v = +/- pi/2, i.e. y = 0 on each graph
    branch t = x -/+ sqrt(a^2 - y^2)).
    """
    if a <= 0:
        raise ValueError("radius must be positive")
    p = {"a": float(a)}
    surface = ParametricSurface(
        x_expr=parse("u + a*cos(v)", p, variables=("u", "v")),
        y_expr=parse("a*sin(v)", p, variables=("u", "v")),
        t_expr=parse("u", p, variables=("u", "v")),
        u_range=u_range, v_range=(0.0, 2.0 * math.pi), params=p)
    validator = ImplicitValidator(
        parse("(x - t)^2 + y^2 - a^2", p, variables=("x", "y", "t")))
    ylim = y_frac * a
    dom = Rect(-x_extent, x_extent, -ylim, ylim)
    return surface, validator, tuple(
        ExpressionField(parse(text, p), dom,
                        name=f"null cylinder, {side} branch")
        for text, side in zip(_CYLINDER_BRANCHES, ("lower", "upper")))


def mixed_type_surface(a: float = 1.0, r_range: tuple = (1.2, 3.0)):
    """Properly embedded mixed-type ZMC surface foliated by circles.

    Parametrized for r > 1/a (outer branch) by
    (r + L(r) + r cos(theta), r sin(theta), L(r)) with
    L(r) = log((a r - 1)/(a r + 1)) / (2 a); the closure satisfies
    a sinh(a t) ((x - t)^2 + y^2) + 2 (x - t) cosh(a t) = 0 with a nowhere
    vanishing gradient along it (see ImplicitValidator.min_gradient_norm_on).
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if r_range[0] <= 1.0 / a:
        raise DomainViolationError(
            f"outer branch needs r > 1/a = {1.0 / a}; got r_min = {r_range[0]}")
    p = {"a": float(a)}
    log_part = "(1/(2*a)) * log((a*r - 1)/(a*r + 1))"
    surface = ParametricSurface(
        x_expr=parse(f"r + {log_part} + r*cos(theta)", p,
                     variables=("r", "theta")),
        y_expr=parse("r*sin(theta)", p, variables=("r", "theta")),
        t_expr=parse(log_part, p, variables=("r", "theta")),
        u_range=r_range, v_range=(0.0, 2.0 * math.pi),
        u_name="r", v_name="theta", params=p)
    validator = ImplicitValidator(
        parse("a*sinh(a*t)*((x - t)^2 + y^2) + 2*(x - t)*cosh(a*t)", p,
              variables=("x", "y", "t")))
    return surface, validator


def timelike_slab(delta: float = 0.15, y_extent: float = 4.0) -> ExpressionField:
    """Properly embedded time-like ZMC graph phi = y + log(tan x) confined
    between the vertical planes x = 0 and x = pi/2 (a window of the slab;
    |phi| blows up toward both walls at fixed y)."""
    if not 0.0 < delta < math.pi / 4:
        raise ValueError("delta must lie in (0, pi/4)")
    dom = Rect(delta, math.pi / 2 - delta, -y_extent, y_extent)
    return ExpressionField(parse("y + log(tan(x))"), dom, name="time-like slab")


def helicoid_catenoid_pair(domain: Rect = Rect(1.0, 2.0, 1.0, 2.0)):
    """The dual pair: helicoid graph atan2(y, x) (minimal in E^3) and the
    Lorentzian catenoid graph -asinh(r) (space-like ZMC in L^3)."""
    phi = ExpressionField(parse("atan2(y, x)"), domain, name="helicoid")
    psi = ExpressionField(parse("-asinh(sqrt(x^2 + y^2))"), domain,
                          name="Lorentzian catenoid")
    return phi, psi


# --------------------------------------------------------------------------
# CLI-facing registry
# --------------------------------------------------------------------------

def _corners(r: Rect) -> list:
    return [r.x0, r.x1, r.y0, r.y1]


def _field_entry(expr_text, domain, note):
    return {"kind": "field",
            "field": {"expr": expr_text, "params": {},
                      "domain": _corners(domain)},
            "note": note}


def _parametric_entry(surface, validator, note, **extra):
    """The entry of a parametric surface and its implicit validator."""
    parametric = {k: to_text(getattr(surface, k + "_expr"))
                  for k in "xyt"}
    return {"kind": "parametric",
            "parametric": {**parametric, "u_name": surface.u_name,
                           "v_name": surface.v_name,
                           "u_range": list(surface.u_range),
                           "v_range": list(surface.v_range),
                           "params": surface.params},
            "implicit": to_text(validator.expr), "note": note, **extra}


def _catalog():
    helicoid_dom = Rect(1.0, 2.0, 1.0, 2.0)
    slab = timelike_slab()
    shear_dom = Rect(-1.0, 1.0, -1.0, 1.0)
    sin_dom = Rect(0.0, 2.0 * math.pi, -1.0, 1.0)
    cylinder, cylinder_validator, branches = null_cylinder()
    return {
        "plane": _field_entry("0.3*x + 0.4*y", Rect(-1, 1, -1, 1),
                              note="space-like plane, B = 0.75"),
        "helicoid": _field_entry("atan2(y, x)", helicoid_dom,
                                 note="minimal graph; dual of the Lorentzian catenoid"),
        "lorentzian-catenoid": _field_entry(
            "-asinh(sqrt(x^2 + y^2))", helicoid_dom,
            note="space-like ZMC graph; dual of the helicoid"),
        "timelike-slab": _field_entry(
            "y + log(tan(x))", slab.domain,
            note="time-like ZMC graph between two vertical planes"),
        "shear-linear": _field_entry("y + x", shear_dom,
                                     note="shear graph, B = -1 everywhere"),
        "shear-parabola": _field_entry(
            "y + x^2", shear_dom,
            note="shear graph; degenerate light-like line x = 0"),
        "shear-sine": _field_entry(
            "y + sin(x)", sin_dom,
            note="shear graph; degenerate lines at the zeros of cos"),
        "shear-exp": _field_entry("y + exp(x)", shear_dom,
                                  note="shear graph, no light-like points"),
        "null-cylinder": _parametric_entry(
            cylinder, cylinder_validator,
            "cylinder along a light-like axis; degenerate lines y = 0",
            branches=[{"expr": text, "params": cylinder.params,
                       "domain": _corners(branch.domain)}
                      for text, branch in zip(_CYLINDER_BRANCHES,
                                              branches)]),
        "mixed-type-surface": _parametric_entry(
            *mixed_type_surface(),
            "properly embedded mixed-type surface foliated by circles"),
    }


CATALOG = _catalog()


def emit(name: str) -> dict:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"known: {', '.join(sorted(CATALOG))}")
    out = {"schema": 1, "name": name}
    out.update(CATALOG[name])
    return out
