"""Exception hierarchy for fhsforge."""


class FhsForgeError(Exception):
    """Base class for all errors raised by this package."""


# -- finite fields / polynomials -------------------------------------------

class NonPrimeCharacteristic(FhsForgeError):
    pass


class FieldTooLarge(FhsForgeError):
    pass


class ZeroElement(FhsForgeError):
    pass


class FieldMismatch(FhsForgeError):
    pass


class DivisionByZeroPolynomial(FhsForgeError):
    pass


# -- cyclic codes -----------------------------------------------------------

class NonPositiveLength(FhsForgeError):
    pass


class NotCoprime(FhsForgeError):
    pass


class NotCosetClosed(FhsForgeError):
    pass


class ZeroCode(FhsForgeError):
    pass


class EnumerationTooLarge(FhsForgeError):
    pass


class FactorTableTooLarge(FhsForgeError):
    """x^n - 1's factor table is past the size caps; refused before any work."""


class GcdConditionViolated(FhsForgeError):
    pass


# -- FHS sets ---------------------------------------------------------------

class LengthMismatch(FhsForgeError):
    pass


class EmptySet(FhsForgeError):
    pass


class PredicateFailed(FhsForgeError):
    pass


class ClassSizeNotFull(FhsForgeError):
    pass


class LengthAlphabetViolation(FhsForgeError):
    pass


class BudgetExceeded(FhsForgeError):
    pass


# -- bounds -----------------------------------------------------------------

class DegenerateParameters(FhsForgeError):
    pass


class PreconditionViolated(FhsForgeError):
    pass


class InconsistentParameters(FhsForgeError):
    pass


class BoundTooLarge(FhsForgeError):
    """A bound report value past the printable digits; refused before any work."""


# -- constructions ----------------------------------------------------------

class KOutOfRange(FhsForgeError):
    pass


class NotOddPrimePower(FhsForgeError):
    pass


class NotOddDivisor(FhsForgeError):
    pass


# -- CLI / file formats -----------------------------------------------------

class ParseError(FhsForgeError):
    pass
