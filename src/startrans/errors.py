"""Exception hierarchy shared by all subsystems.  ``cli.main`` maps each
class to an exit code wherever it is raised, inside a verification check
too; one it does not name is an engine fault, exit 4."""


class StarTransError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleField(StarTransError):
    """Operands live over different coefficient fields or variable sets."""


class DimensionMismatch(StarTransError):
    """Matrix or vector dimensions do not line up."""


class NotInModule(StarTransError):
    """Membership test failed: the element is not in the submodule."""


class NotASop(StarTransError):
    """The given elements do not generate a finite-colength ideal.

    Carries the offending Hilbert series in ``series`` when available.
    """

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


class PreconditionFailed(StarTransError):
    """A documented precondition of an operation was violated."""


class IterationLimit(StarTransError):
    """Saturation did not stabilize within the allowed number of rounds."""


class MonomialOverflow(StarTransError):
    """An exponent or weighted degree does not fit a packed monomial field
    (see ``poly.FIELD_BITS``)."""


class ParseError(StarTransError):
    """Malformed textual input (polynomial syntax or problem file)."""


class ValidationError(StarTransError):
    """Well-formed input that violates a structural invariant."""


class InternalError(StarTransError):
    """An invariant the engine guarantees failed to hold: a bug, not bad
    input (a descent lift of ``transform.build_chain_map`` that the
    certified preconditions guarantee, for one)."""
