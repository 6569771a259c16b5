"""Working-precision context, made for an explicit digit count: every
count up to 16 is double precision (Python complex), a larger one extended
(mpmath).  Only the scalar entry points of the special function evaluators
consult it; series coefficients stay in its scalar type, since Python's
operators dispatch between complex and mpmath.mpc.  The Debye series and
their transport (polylog) compute in doubles.

get_context returns one shared context per digit count, so the mpmath
context behind an extended one is cloned once.  Its mode is decided when it
is made: its scalar ops (complex, real, exp) are bound to the builtins or
to the mpmath context's, and the constants pi, 2*pi*i, 1 and i are built in
its own scalar type.  The double-precision context never imports mpmath.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache


class PrecisionContext:
    """Bundle of scalar ops and constants at a chosen precision.

    complex(x, y=0) and real(x) build the context's complex and real
    scalars (real rounds an exact int, float or Fraction once); exp is the
    complex exponential at the context's precision."""

    def __init__(self, digits):
        self.digits = digits
        if digits > 16:
            import mpmath

            mp = mpmath.mp.clone()
            mp.dps = digits
            self.complex, self.real, self.exp = mp.mpc, mp.convert, mp.exp
            self.pi = +mp.pi
        else:
            self.complex, self.real, self.exp = complex, float, cmath.exp
            self.pi = math.pi
        self.two_pi_i = self.complex(0.0, 2.0) * self.pi
        self.one = self.complex(1.0)
        self.i = self.complex(0.0, 1.0)

    def e(self, z):
        """e(z) = exp(2*pi*i*z), the unit-period exponential."""
        return self.exp(self.two_pi_i * z)

    def cot_pi(self, w):
        """cot(pi*w), computed from the side with the decaying exponential."""
        # cot(pi w) = i (e(w) + 1) / (e(w) - 1); for Im(w) < 0 use 1/e(w).
        one = self.one
        if w.imag >= 0:
            t = self.e(w)  # |t| <= 1
            return self.i * (t + one) / (t - one)
        t = self.e(-w)
        return -self.i * (t + one) / (t - one)

    def to_complex(self, z):
        """Collapse to a machine complex (for reporting / JSON output)."""
        return complex(float(z.real), float(z.imag))


@lru_cache(maxsize=None)
def _shared(digits):
    return PrecisionContext(digits)


def _integer(n, name, least):
    """n through operator.index; ValueError when it is not an integer
    (2.0, 17.9, nan, "30") or is below least."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} = {n!r} must be an integer") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}, not {n}")
    return n


def get_context(digits) -> PrecisionContext:
    """The one shared context of a digit count >= 1, an int or what
    operator.index accepts (every count up to 16 is double precision)."""
    digits = _integer(digits, "digit count", 1)
    return _shared(digits if digits > 16 else 15)
