"""Exception taxonomy shared by all epolylog modules.

Each numerical or combinatorial failure mode gets its own class so callers
can react without string matching.  Everything derives from EpolylogError.
"""


class EpolylogError(Exception):
    """Base class for all errors raised by this package."""


class PoleOverflow(EpolylogError):
    """A Laurent coefficient would fall below the declared pole bound."""


class TruncationTooSmall(EpolylogError):
    """Requested operation needs more orders than the series carries."""


class QuadratureDiverged(EpolylogError):
    """Adaptive bisection hit its depth limit without the orders agreeing."""


class PathTooClose(EpolylogError):
    """An integration arc violates the declared clearance from singularities."""


class BadModulus(EpolylogError):
    """tau not in the upper half plane, or |q| outside the supported range."""


class OnSingularLocus(EpolylogError):
    """Arguments sit on a singular divisor (t_i = t_j, t_i = 1, ...)."""


class OutOfRegion(EpolylogError):
    """Series evaluation requested outside its convergence region."""


class MissingConstants(EpolylogError):
    """No corner-constant model is available at the requested depth."""


class SizeBudgetExceeded(EpolylogError):
    """A symbolic expansion grew past the configured term budget."""


class UnsupportedPrecision(EpolylogError):
    """More digits were requested than a double-precision routine delivers."""


class Inadmissible(EpolylogError):
    """The spiral family through a base point meets a real q-power."""
