"""zmclab: numerical laboratory for zero-mean-curvature graphs in L^3.

Causal classification of graphs t = psi(x, y) by the sign of
B = 1 - psi_x^2 - psi_y^2, PDE residuals and curvatures, the
fluid-mechanical duality with Chaplygin gas flows, a Dirichlet solver for
the elliptic cases, and generators/validators for the classic explicit
surfaces.
"""

from .errors import (
    CausalTypeViolationError,
    DegenerateDenominatorError,
    DomainViolationError,
    ExpressionSyntaxError,
    InsufficientSamplesError,
    LightLikePointError,
    LinearSolveError,
    MaxIterationsError,
    NonDifferentiablePointError,
    NonExactFormError,
    NonFiniteValueError,
    OutOfDomainError,
    SonicPointError,
    UnboundParameterError,
    ZeroDerivativeError,
    ZmcError,
)
from .exprfield import (
    ExpressionField,
    GraphField,
    GridField,
    Jet2,
    Rect,
    SampledGrid,
    evaluate,
    field_from_text,
    gradient,
    parse,
    sample,
    to_text,
)
from .geometry import (
    CausalClass,
    CausalSample,
    CausalSamples,
    LightLine,
    causal_b,
    classify,
    classify_grid,
    detect_lightlike_set,
    gauss_curvature_euclid,
    lightlike_identity_check,
    mean_curvature,
    minimal_residual,
    timelike_residual,
    verify_line_theorem,
    zmc_residual,
)
from .duality import (
    ChaplyginState,
    DualDirection,
    DualResult,
    FlowRegime,
    chaplygin_state,
    divergence_probe,
    double_dual_check,
    dual_one_form,
    dualize,
    one_form_curl,
)
from .solver import (
    DirichletProblem,
    EquationKind,
    GridSolution,
    convergence_report,
    discrete_residual,
    solve,
)
from . import catalog

__version__ = "0.1.0"
