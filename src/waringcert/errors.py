"""Exception hierarchy for waringcert.

Everything raised on purpose derives from WaringError so callers (in
particular the certification driver and the CLI) can convert failures
into degenerate verdicts or exit codes without catching blindly.
"""


class WaringError(Exception):
    """Base class for all library errors."""


class NotPrime(WaringError):
    """Modulus failed the primality check."""


class ZeroPoint(WaringError):
    """A projective point must have a nonzero coordinate tuple."""


class DuplicatePoint(WaringError):
    """Two points of a point set are projectively equal."""


class DegreeMismatch(WaringError):
    """Polynomial degrees incompatible with the requested operation."""


class InhomogeneousDeterminant(WaringError):
    """Entry degrees do not make the determinant homogeneous."""


class BadSplit(WaringError):
    """Degree split must satisfy d1 >= d2 >= d3 >= 1 and sum to d >= 3."""


class RedundancyDetected(WaringError):
    """The decomposition is redundant for the form (zero coefficient or
    dependent Veronese images)."""


class NotConcise(WaringError):
    """The points span a proper linear subspace, so the ambient bound is
    meaningless for the form."""


class PreconditionFailed(WaringError):
    """One of the admissibility tests failed.

    Attributes: test (1, 2 or 3) and value (what was computed).
    """

    def __init__(self, test, value, message=None):
        self.test = test
        self.value = value
        super().__init__(message or f"precondition test {test} failed (got {value})")


class QuarticNotUnique(WaringError):
    """The degree-4 ideal piece is not one-dimensional."""


class SyzygyDimension(WaringError):
    """The degree-6 syzygy kernel does not have dimension 4."""


class MinorDegenerate(WaringError):
    """A structural minor vanished identically."""


class DegenerateCofactors(WaringError):
    """All cubic cofactors of the residual matrix vanish."""


class SelectionFailed(WaringError):
    """Reduced-system column selection failed after the retry budget."""


class WitnessRejected(WaringError):
    """A candidate witness failed one of the verification checks.

    Attribute check names the failed check.
    """

    def __init__(self, check, message=None):
        self.check = check
        super().__init__(message or f"witness rejected: {check}")


class GenerationExhausted(WaringError):
    """An instance generator ran out of its attempt budget."""


class ScanBudgetExceeded(WaringError):
    """The projective-plane scan was refused because the field is too large."""


class InstanceFormatError(WaringError):
    """An instance file is malformed; message carries field diagnostics."""
