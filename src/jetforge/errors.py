"""Exception hierarchy for jetforge."""


class JetforgeError(Exception):
    """Base class for all jetforge errors."""


class FieldMismatch(JetforgeError):
    """Operands live over different coefficient fields."""


class NonUnitLeadingCoefficient(JetforgeError):
    """Series inversion attempted on a series whose leading term is not a unit."""


class UnboundVariable(JetforgeError):
    """Evaluation point does not cover every variable of the polynomial."""


class DivisionByZero(JetforgeError):
    """Division by zero: the inverse of 0 in a field (``Rationals.inv``,
    ``Fp.inverse``), or zero assigned to the distinguished unit variable of
    a localized ring (``LocalPoly.eval``)."""


class NotABaseElement(JetforgeError):
    """Jet components requested for a polynomial containing jet variables."""


class MissingGrading(JetforgeError):
    """Induced degree requested without a source grading."""


class BadLevels(JetforgeError):
    """A jet level is negative, or a co-truncation comparison has m <= n."""


class UnsupportedTwist(JetforgeError):
    """Global sections are only implemented for the twist d = 1."""


class UnknownSuite(JetforgeError):
    """Check suite name not recognized."""


class ParseError(JetforgeError):
    """DSL input rejected; carries a line/column location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, col %d: %s" % (line, column, message)
        super().__init__(message)


class UndeclaredVariable(ParseError):
    """DSL expression references a variable not declared in the ring."""


class InhomogeneousRelation(ParseError):
    """A relation is not homogeneous for the declared grading; located when
    it comes from DSL input."""
