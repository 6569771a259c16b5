"""Working-precision context.

Default arithmetic is double precision (Python complex).  An extended mode
(>= 30 significant digits, backed by mpmath) can be requested explicitly or
through the ELLIP_PRECISION environment variable ("double" | "extended" |
an integer digit count).  Only the scalar entry points of the special
function evaluators consult the context; series coefficients stay in
whatever scalar type the context produces, since Python's arithmetic
operators dispatch transparently between complex and mpmath.mpc.  The Debye
series and their transport (polylog) compute in doubles and refuse a
context above double precision.

There is one context per digit count: get_context returns the same shared
object for every request of that precision, so the mpmath context behind
the extended mode is cloned once.  The mode is decided once, when the
context is made: its scalar ops (complex, real, exp) are bound there to the
builtins or to the mpmath context's, and the constants pi, 2*pi*i, 1 and i
are built there in the context's own scalar type.  The double-precision
context never imports mpmath.
"""

from __future__ import annotations

import cmath
import math
import os
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


def get_context(spec=None) -> PrecisionContext:
    """Resolve a precision context: the one shared context of the requested
    digit count (every count up to 16 is double precision).

    spec: None (consult ELLIP_PRECISION, default double), "double",
    "extended" (30 digits), an int digit count, or an existing context.
    """
    if isinstance(spec, PrecisionContext):
        return spec
    if spec is None:
        spec = os.environ.get("ELLIP_PRECISION", "double")
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s in ("", "double"):
            spec = 15
        elif s == "extended":
            spec = 30
        else:
            spec = int(s)
    return _shared(int(spec) if int(spec) > 16 else 15)
