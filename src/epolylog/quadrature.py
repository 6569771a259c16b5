"""Complex path quadrature and iterated integrals.

Paths are chains of smooth arcs: straight segments and q-power spirals
u -> q^(s(u)*m) * t (the continuation paths used by the lattice-shift
transports; their logarithm is linear in the parameter, which is what makes
branch tracking trivial).  Every arc exposes point / velocity / log_point,
and a PathSpec bundles arcs with the singular set it promised to avoid.

Integration is composite Gauss-Legendre.  Iterated integrals

    int_gamma w_1 w_2 ... w_n   (w_1 attached to the path endpoint)

are computed panel by panel with the "innermost first" recursion: on each
panel all forms are sampled once at the nodes, prefix integrals at the nodes
come from a spectral integration matrix (Legendre expansion, exact on
polynomials through the node count), and the running inner values carry over
to the next panel.  Each panel is evaluated at orders n and n+4; on
disagreement it is bisected, and QuadratureDiverged is raised when the depth
limit is hit.

Plain form callables receive (z, v), the point and v = dz/du, one node at a
time and return f(z)*v: a scalar or a numpy array (coefficient stacks
integrate componentwise).  A BranchedForm gets (arc, us) once per panel pass,
us the whole node vector, and returns a node-first block.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import PathTooClose, QuadratureDiverged


@lru_cache(maxsize=32)
def _panel_rule(order):
    """Nodes on [-1,1], weights, and the prefix-integration matrix M with
    (M g)_i = int_{-1}^{x_i} g for the degree-(order-1) interpolant."""
    x, w = leggauss(order)
    V = legvander(x, order)  # P_0..P_order at the nodes
    A = np.empty((order, order))
    for k in range(order):
        A[k, :] = (2 * k + 1) / 2.0 * w * V[:, k]
    B = np.empty((order, order))
    B[:, 0] = V[:, 1] + 1.0
    for k in range(1, order):
        B[:, k] = (V[:, k + 1] - V[:, k - 1]) / (2 * k + 1)
    M = B @ A
    return x, w, M


class LineArc:
    """Straight segment z0 -> z1.  Optional start_log fixes the branch of
    log along the arc; the segment must subtend less than pi around the
    origin for that to be well defined (split the path otherwise)."""

    def __init__(self, z0, z1, start_log=None):
        self.z0 = complex(z0)
        self.z1 = complex(z1)
        self.start_log = start_log

    def point(self, u):
        return self.z0 + (self.z1 - self.z0) * u

    def velocity(self, u):
        return self.z1 - self.z0

    def log_point(self, u):
        if self.start_log is None:
            raise ValueError("arc carries no branch data")
        return self.start_log + np.log(self.point(u) / self.z0)

    def end_log(self):
        return self.log_point(1.0)

    def suggested_panels(self):
        return 1


class SpiralArc:
    """u -> exp(log_t + (s0 + (s1-s0) u) * m * log_q), the q-power spiral
    through t with integer (or real) exponent slope m."""

    def __init__(self, t, m, tau, s0=0.0, s1=1.0, log_t=None):
        self.log_q = 2j * np.pi * complex(tau)
        self.log_t = complex(log_t) if log_t is not None else complex(np.log(complex(t)))
        self.m = m
        self.s0 = s0
        self.s1 = s1

    def log_point(self, u):
        s = self.s0 + (self.s1 - self.s0) * u
        return self.log_t + s * self.m * self.log_q

    def point(self, u):
        return np.exp(self.log_point(u))

    def velocity(self, u):
        return self.point(u) * ((self.s1 - self.s0) * self.m * self.log_q)

    def end_log(self):
        return self.log_point(1.0)

    def suggested_panels(self):
        span = abs((self.s1 - self.s0) * self.m) * abs(self.log_q) / (2 * np.pi)
        return max(1, int(np.ceil(span)))


class PathSpec:
    """A chain of arcs plus the singular set the path must stay clear of."""

    def __init__(self, arcs, singular=(), clearance=1e-3):
        self.arcs = list(arcs)
        self.singular = [complex(s) for s in singular]
        self.clearance = float(clearance)

    def validate(self, samples=33):
        if not self.singular:
            return self
        us = np.linspace(0.0, 1.0, samples)
        for arc in self.arcs:
            pts = arc.point(us)
            for s in self.singular:
                d = np.abs(pts - s).min()
                if d < self.clearance:
                    raise PathTooClose(
                        f"arc passes within {d:.2e} of singular point {s} "
                        f"(clearance {self.clearance:.2e})"
                    )
        return self

    def reversed(self):
        rev = []
        for arc in reversed(self.arcs):
            rev.append(_ReversedArc(arc))
        return PathSpec(rev, self.singular, self.clearance)


class _ReversedArc:
    def __init__(self, arc):
        self.arc = arc

    def point(self, u):
        return self.arc.point(1.0 - u)

    def velocity(self, u):
        return -self.arc.velocity(1.0 - u)

    def log_point(self, u):
        return self.arc.log_point(1.0 - u)

    def end_log(self):
        return self.arc.log_point(0.0)

    def suggested_panels(self):
        return self.arc.suggested_panels()


class BranchedForm:
    """A form evaluated as f(arc, us) instead of f(z, v), for integrands that
    need the arc's branch data (log_point) rather than just the location.
    us is the node vector of one panel pass; f returns a node-first block
    (f(arc, us)[n] is the value at us[n])."""

    def __init__(self, f):
        self.f = f

    def __call__(self, arc, us):
        return self.f(arc, us)


def _eval_nodes(w, arc, us):
    """Node-first block of one form at the parameters us."""
    if isinstance(w, BranchedForm):
        return np.asarray(w(arc, us), dtype=complex)
    return np.asarray([w(arc.point(u), arc.velocity(u)) for u in us], dtype=complex)


def _default_product(f, g):
    """Pointwise product of two node blocks (node index first).  Series
    transports override this with a coefficient convolution."""
    return f * g


def _panel_pass(forms, arc, u0, u1, inner_start, order, product):
    """One panel at one order.  inner_start[k] is the value of the k-fold
    inner integral at the panel start (k = 0 is the constant 1).  Returns
    the list of end values."""
    n = len(forms)
    x, w, M = _panel_rule(order)
    h = (u1 - u0) / 2.0
    us = u0 + (u1 - u0) * (x + 1.0) / 2.0
    samples = [_eval_nodes(w, arc, us) for w in forms]
    prev_nodes = None
    ends = [inner_start[0]]
    for k in range(1, n + 1):
        f = samples[n - k]  # innermost form first
        g = f * inner_start[0] if k == 1 else product(f, prev_nodes)
        node_vals = np.tensordot(M, g, axes=1) * h + np.asarray(inner_start[k])
        end_val = inner_start[k] + np.tensordot(w, g, axes=1) * h
        prev_nodes = node_vals
        ends.append(end_val)
    return ends


def _diff(a, b):
    d = np.asarray(a) - np.asarray(b)
    return float(np.max(np.abs(d)))


def iterated_integral(
    path, forms, order=16, tol=1e-11, max_depth=12, product=_default_product
):
    """Iterated integral of `forms` along `path` (w_1 outermost).

    With a single form this is the ordinary contour integral; an empty form
    list integrates to 1.
    """
    if not forms:
        return 1.0
    inner = [1.0 + 0.0j] + [0.0j] * len(forms)  # zeros broadcast to the first panel's shapes
    for arc in path.arcs:
        p = arc.suggested_panels()
        stack = [(k / p, (k + 1) / p, 0) for k in reversed(range(p))]
        while stack:
            u0, u1, depth = stack.pop()
            lo = _panel_pass(forms, arc, u0, u1, inner, order, product)
            hi = _panel_pass(forms, arc, u0, u1, inner, order + 4, product)
            err = max(_diff(a, b) for a, b in zip(lo[1:], hi[1:]))
            scale = max(1.0, max(float(np.max(np.abs(np.asarray(v)))) for v in hi[1:]))
            if err > tol * scale:
                if depth >= max_depth:
                    raise QuadratureDiverged(
                        f"panel [{u0:.4g},{u1:.4g}] error {err:.2e} at depth {depth}"
                    )
                um = (u0 + u1) / 2.0
                stack.append((um, u1, depth + 1))
                stack.append((u0, um, depth + 1))
            else:
                inner = hi
    return inner[-1]


def path_integral(path, form, order=16, tol=1e-11, max_depth=12):
    """Ordinary contour integral of a single form."""
    return iterated_integral(path, [form], order=order, tol=tol, max_depth=max_depth)


def convolve_product(f, g):
    """Node-block product that convolves trailing coefficient axes: use for
    forms whose values are truncated power-series coefficient arrays (the
    result keeps the shapes' elementwise maximum extent, truncating away
    overflow orders)."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.ndim == 1 and g.ndim == 1:
        return f * g
    nf, ng = f.shape[1:], g.shape[1:]
    nd = max(len(nf), len(ng))
    f = f.reshape(f.shape[:1] + (1,) * (nd - len(nf)) + nf)
    g = g.reshape(g.shape[:1] + (1,) * (nd - len(ng)) + ng)
    out_shape = tuple(max(a, b) for a, b in zip(f.shape[1:], g.shape[1:]))
    gp = np.zeros(g.shape[:1] + out_shape, dtype=complex)
    gp[tuple(slice(0, s) for s in g.shape)] = g
    out = np.zeros(f.shape[:1] + out_shape, dtype=complex)
    for idx in zip(*np.nonzero(np.any(f, axis=0))):
        col = f[(slice(None),) + idx]
        dest = tuple(slice(i, s) for i, s in zip(idx, out_shape))
        src = tuple(slice(0, s - i) for i, s in zip(idx, out_shape))
        out[(slice(None),) + dest] += col.reshape((-1,) + (1,) * nd) * gp[(slice(None),) + src]
    return out
