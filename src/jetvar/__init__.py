"""jetvar: symbolic variational calculus on jet spaces.

Exact (rational) symbolic kernel for Lagrangians and source forms on jet
prolongations of fibered manifolds over R^n: Euler-Lagrange forms,
variationality tests, Lagrangian reconstruction, Poincare-Cartan
equivalents, behavior under fibered changes of variables, and a numeric
cross-check layer.

The top level exports the documented surface; every other name imports
from its own module (`jetvar.expr`, `jetvar.forms`, ...).  Importing the
package loads every library module, `jetvar.cli` aside.
"""

from .coords import JetContext
from .dsl import parse_expr, parse_form, render_expr, render_form
from .errors import (
    ContextMismatch,
    DegreeMismatch,
    DimensionMismatch,
    DivisionByZero,
    DslError,
    DslSyntaxError,
    ExpansionBudget,
    JetvarError,
    NonPolynomialDivision,
    NonPolynomialParameter,
    NotODEContext,
    NumericOverflow,
    OrderExceeded,
    OrderOverflow,
    OrderZeroWarning,
    ProbeBoundaryError,
    ProblemFileError,
    SingularBaseMap,
    SingularFiberMap,
    UnboundCoordinate,
    UnknownCoordinate,
    UnknownIdentifier,
)
from .expr import add, is_zero
from .forms import FiberedIso, cartan_form, cartan_form_contact, pullback
from .jets import SectionSpec, total_derivative
from .numeric import (
    QuadratureSpec,
    VariationProbe,
    first_variation_check,
    residual_on_section,
)
from .problem import load_problem
from .variational import (
    Lagrangian,
    SourceForm,
    classical_helmholtz_ode,
    decide_zero,
    euler_lagrange,
    helmholtz_residuals,
    naturality_report,
    null_lagrangian_from_eta,
    pullback_lagrangian,
    tonti_lagrangian,
)
