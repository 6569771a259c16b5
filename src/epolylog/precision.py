"""Working-precision context.

Default arithmetic is double precision (Python complex).  An extended mode
(>= 30 significant digits, backed by mpmath) can be requested explicitly or
through the ELLIP_PRECISION environment variable ("double" | "extended" |
an integer digit count).  Only the scalar entry points of the special
function evaluators consult the context; series coefficients stay in
whatever scalar type the context produces, since Python's arithmetic
operators dispatch transparently between complex and mpmath.mpc.
"""

from __future__ import annotations

import cmath
import math
import os


class PrecisionContext:
    """Bundle of scalar ops at a chosen precision."""

    def __init__(self, digits=15):
        self.digits = digits
        self.extended = digits > 16
        if self.extended:
            import mpmath

            self._mp = mpmath.mp.clone()
            self._mp.dps = digits
            self._mpmath = mpmath

    # -- scalar constructors ------------------------------------------------
    def complex(self, x, y=0.0):
        if self.extended:
            return self._mp.mpc(x, y)
        return complex(x, y)

    @property
    def pi(self):
        if self.extended:
            return self._mp.pi
        return math.pi

    @property
    def two_pi_i(self):
        return self.complex(0.0, 2.0) * self.pi

    # -- elementary functions ----------------------------------------------
    def exp(self, z):
        if self.extended:
            return self._mp.exp(z)
        return cmath.exp(z)

    def e(self, z):
        """e(z) = exp(2*pi*i*z), the unit-period exponential."""
        return self.exp(self.two_pi_i * z)

    def cot_pi(self, w):
        """cot(pi*w), computed from the side with the decaying exponential."""
        # cot(pi w) = i (e(w) + 1) / (e(w) - 1); for Im(w) < 0 use 1/e(w).
        im = self.im(w)
        one = self.complex(1.0)
        i_ = self.complex(0.0, 1.0)
        if im >= 0:
            t = self.e(w)  # |t| <= 1
            return i_ * (t + one) / (t - one)
        t = self.e(-w)
        return -i_ * (t + one) / (t - one)

    # -- helpers -------------------------------------------------------------
    def im(self, z):
        if self.extended:
            return float(self._mpmath.im(z))
        return z.imag if isinstance(z, complex) else float(z) * 0.0

    def to_complex(self, z):
        """Collapse to a machine complex (for reporting / JSON output)."""
        if self.extended:
            return complex(float(self._mpmath.re(z)), float(self._mpmath.im(z)))
        return complex(z)


_DOUBLE = PrecisionContext(15)


def get_context(spec=None) -> PrecisionContext:
    """Resolve a precision context.

    spec: None (consult ELLIP_PRECISION, default double), "double",
    "extended", an int digit count, or an existing context.
    """
    if isinstance(spec, PrecisionContext):
        return spec
    if spec is None:
        spec = os.environ.get("ELLIP_PRECISION", "double")
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s in ("", "double", "15"):
            return _DOUBLE
        if s == "extended":
            return PrecisionContext(30)
        spec = int(s)
    if int(spec) <= 16:
        return _DOUBLE
    return PrecisionContext(int(spec))
