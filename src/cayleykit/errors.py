"""Shared exception types, and the package's one integer rule.

Everything raised on purpose by this package derives from CayleykitError,
so callers can catch one base class at CLI boundaries.
"""

import numbers


class CayleykitError(Exception):
    """Base class for all structured errors raised by cayleykit."""


class BackendMismatch(CayleykitError):
    """Operands live on different numeric backends, or a value is not
    representable on the requested backend (e.g. a float fed to the exact
    rational backend)."""


class DimensionMismatch(CayleykitError):
    """Operands live in different ambient dimensions, or an index is out of
    range for the ambient space."""


class GradeError(CayleykitError):
    """An operation needed homogeneous inputs of compatible grades and did
    not get them."""


class TypeMismatch(CayleykitError):
    """A vector or form is not of the complex type an operation needs
    (e.g. a (0,1) input with J v != -i v)."""


class PlaneError(CayleykitError):
    """A plane input is unusable: rows not orthonormal within tolerance,
    rank-deficient, or of the wrong shape."""


class ValidationError(CayleykitError):
    """An input value violates a documented precondition (radius bounds,
    non-unit phase pairs, bad coefficient shapes, ...)."""


class NonIntegralError(CayleykitError):
    """A quantity that must come out an integer (an index, a half-sum of
    topological terms) did not."""


class InputFormatError(CayleykitError):
    """A file or serialized payload could not be parsed into the expected
    structure."""


def check_integer(value, what, least=0):
    """int(value), or ValidationError naming it what unless value is an
    integer (numpy ones too, booleans not) >= least: 0, 1, or None for an
    integer of either sign."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError("%s must be an integer, not %r" % (what, value))
    if least is not None and value < least:
        raise ValidationError("%s must be %s"
                              % (what, "positive" if least else "nonnegative"))
    return int(value)
