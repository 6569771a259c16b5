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
    """A panel's orders still disagree at the bisection limit, or a panel
    value is not finite."""


class PathTooClose(EpolylogError):
    """An integration arc violates the declared clearance from singularities."""


class BadModulus(EpolylogError):
    """tau not in the upper half plane, or |q| outside the supported range."""


class OnSingularLocus(EpolylogError):
    """A kernel, Eisenstein or one-form argument sits on a lattice pole."""


class OutOfRegion(EpolylogError):
    """Outside a series' convergence region, a non-finite input, a zero
    coordinate with no log branch, or a value past the double range."""


class MissingConstants(EpolylogError):
    """The constants series has too few regular orders for the assembly."""


class SizeBudgetExceeded(EpolylogError):
    """A symbolic expansion grew past the configured term budget."""


class UnsupportedPrecision(EpolylogError):
    """More digits were requested than a double-precision routine delivers."""


class Inadmissible(EpolylogError):
    """The spiral family through a base point meets a real q-power."""
