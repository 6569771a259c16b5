"""Numerical pieces of multiple elliptic polylogarithms: theta/Eisenstein
building blocks, the two-variable elliptic kernel and its one-form
coefficients, truncated Laurent series, path quadrature, depth-1/2 Debye
generating series with spiral and ray transport, the string coproduct with
divisor asymptotics, and exact partial-fraction identities."""

__version__ = "0.1.0"
