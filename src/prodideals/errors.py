"""Exception types shared across the toolkit."""


class ShapeMismatch(ValueError):
    """Operands live over different product shapes."""


class UnsupportedRing(TypeError):
    """The operation is not defined for this ring kind."""


class UnsupportedDescriptor(TypeError):
    """The ideal descriptor violates a precondition of the operation."""


class FactorizationBudgetExceeded(RuntimeError):
    """Factoring the input would exceed the configured work budget; ``divisors``
    are the prime divisors found before the limit, first in the listed order."""

    def __init__(self, message, divisors=()):
        self.divisors = tuple(divisors)
        super().__init__(message)


class NotUnitIdeal(ValueError):
    """The given elements do not generate the unit ideal.

    ``witness`` is a maximal ideal containing every element.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"elements share the maximal ideal {witness}")


class InconsistentInput(ValueError):
    """The input data contradicts itself (e.g. repeated moduli)."""


class ZeroElement(ValueError):
    """A nonzero element was required."""


class NoWitness(ValueError):
    """No separating element exists; ``obstruction`` is the offending input."""

    def __init__(self, obstruction, message=""):
        self.obstruction = obstruction
        super().__init__(message or f"no witness exists for {obstruction!r}")


class NotMember(ValueError):
    """The element does not belong to the required ideal."""


class NonPositiveValueVector(ValueError):
    """The value vector must be positive in every position."""


class InvalidSample(ValueError):
    """The sample violates the bracketing preconditions of the construction."""


class BudgetExceeded(RuntimeError):
    """The enumeration would exceed the configured size budget."""


class FiniteIntersectionViolation(ValueError):
    """The generators have an empty finite meet and cannot span a filter."""


class ParseError(ValueError):
    """The scenario file is not syntactically valid."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(ValueError):
    """The scenario parsed, but the value at the JSON path ``field`` is invalid."""

    def __init__(self, field, message):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")

    def below(self, where, step):
        """This refusal, located at or below ``where``, moved below ``where + step``."""
        return ValidationError(where + step + self.field[len(where):], self.message)


#: The error types a run reports as an input error: a message and exit code
#: 1.  Every error type above that is not listed is a ValueError.
INPUT_ERRORS = (BudgetExceeded, FactorizationBudgetExceeded, UnsupportedDescriptor,
                UnsupportedRing, ValueError, OSError)
