"""Exception types shared across the package."""


class JetvarError(Exception):
    """Base class for all errors raised by jetvar."""


class UnknownCoordinate(JetvarError):
    """A coordinate is not declared in the ambient jet context."""


class UnboundCoordinate(JetvarError):
    """Numeric evaluation hit a coordinate with no binding."""


class OrderOverflow(JetvarError):
    """An operation would generate a jet coordinate beyond the context's
    ceiling, twice its declared order and at least 12."""


class NonPolynomialParameter(JetvarError):
    """A source term has no Tonti weight 1/(d+1): a jet sits inside a
    function, or the term's fiber degree d is -1 (its Lagrangian needs a
    logarithm)."""


class NonPolynomialDivision(JetvarError):
    """Division by a non-invertible expression (a sum of terms)."""


class DivisionByZero(JetvarError):
    """Division by the zero constant, or evaluation at a pole: then `pole`
    is the atom, as a kernel value, and the exponent whose power has it."""

    def __init__(self, message: str, pole: tuple | None = None):
        super().__init__(message)
        self.pole = pole


class NumericOverflow(JetvarError):
    """A floating-point evaluation exceeds the range of a double."""


class ExpansionBudget(JetvarError):
    """A result outgrows a fixed budget, such as a coefficient with more
    digits than the interpreter converts to text."""


class ContextMismatch(JetvarError):
    """Two objects live over incompatible jet contexts."""


class SingularBaseMap(JetvarError):
    """The base matrix of a fibered isomorphism is not invertible."""


class SingularFiberMap(JetvarError):
    """The fiber map of a fibered isomorphism is not invertible: its
    Jacobian determinant in the fiber coordinates vanishes identically."""


class DegreeMismatch(JetvarError):
    """A differential form does not have the degree an operation requires."""


class DimensionMismatch(JetvarError):
    """Matrix or vector dimensions do not match the context."""


class NotODEContext(JetvarError):
    """An operation restricted to single-base-variable, order <= 2 data."""


class ProbeBoundaryError(JetvarError):
    """A variation direction fails to vanish at the domain endpoints."""


class ProblemFileError(JetvarError):
    """A problem file is malformed or inconsistent."""


class DslError(JetvarError):
    """Base class for expression-language errors; carries a source span."""

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message)
        self.message = message
        self.span = span


class DslSyntaxError(DslError):
    """The input string does not match the expression grammar."""


class UnknownIdentifier(DslError):
    """An identifier does not name a declared coordinate or function."""


class OrderExceeded(DslError):
    """A jet index is longer than the declared order of the context."""


class OrderZeroWarning(UserWarning):
    """A Lagrangian of order zero is its own Poincare-Cartan form."""
