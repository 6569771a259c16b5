"""Working-precision context.

Default arithmetic is double precision (Python complex).  An extended mode
(>= 30 significant digits, backed by mpmath) can be requested explicitly or
through the ELLIP_PRECISION environment variable ("double" | "extended" |
an integer digit count).  Only the scalar entry points of the special
function evaluators consult the context; series coefficients stay in
whatever scalar type the context produces, since Python's arithmetic
operators dispatch transparently between complex and mpmath.mpc.

There is one context per digit count: get_context returns the same shared
object for every request of that precision, so the mpmath context behind
the extended mode is cloned once.  The constants pi, 2*pi*i, 0, 1 and i are
built once, in the context's own scalar type, when the context is made, and
`cache` holds the constants that evaluators derive from them (kronecker
keeps its cotangent-polynomial rows there), so those too are built once per
precision.  The double-precision context never imports mpmath.
"""

from __future__ import annotations

import cmath
import math
import os
from functools import lru_cache


class PrecisionContext:
    """Bundle of scalar ops and constants at a chosen precision."""

    def __init__(self, digits):
        self.digits = digits
        self.extended = digits > 16
        if self.extended:
            import mpmath

            self._mp = mpmath.mp.clone()
            self._mp.dps = digits
            self.pi = +self._mp.pi
            self.exp = self._mp.exp
        else:
            self.pi = math.pi
            self.exp = cmath.exp
        self.two_pi_i = self.complex(0.0, 2.0) * self.pi
        self.zero = self.complex(0.0)
        self.one = self.complex(1.0)
        self.i = self.complex(0.0, 1.0)
        self.cache = {}

    # -- scalar constructors ------------------------------------------------
    def complex(self, x, y=0.0):
        if self.extended:
            return self._mp.mpc(x, y)
        return complex(x, y)

    def real(self, x):
        """An exact rational (int, float or Fraction) as this context's real
        scalar, rounded once."""
        if self.extended:
            return self._mp.convert(x)
        return float(x)

    # -- elementary functions (and exp, bound per mode above) ---------------
    def e(self, z):
        """e(z) = exp(2*pi*i*z), the unit-period exponential."""
        return self.exp(self.two_pi_i * z)

    def cot_pi(self, w):
        """cot(pi*w), computed from the side with the decaying exponential."""
        # cot(pi w) = i (e(w) + 1) / (e(w) - 1); for Im(w) < 0 use 1/e(w).
        one = self.one
        if self.im(w) >= 0:
            t = self.e(w)  # |t| <= 1
            return self.i * (t + one) / (t - one)
        t = self.e(-w)
        return -self.i * (t + one) / (t - one)

    # -- helpers -------------------------------------------------------------
    def im(self, z):
        if self.extended:
            return float(z.imag)
        return z.imag if isinstance(z, complex) else float(z) * 0.0

    def to_complex(self, z):
        """Collapse to a machine complex (for reporting / JSON output)."""
        if self.extended:
            return complex(float(z.real), float(z.imag))
        return complex(z)


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
