"""Complex path quadrature and iterated integrals.

Paths are chains of smooth arcs: straight segments and q-power spirals
u -> q^(u*m) * t (the continuation paths used by the lattice-shift
transports; their logarithm is linear in the parameter, which is what makes
branch tracking trivial).  Every arc exposes point / velocity / log_point,
and a PathSpec bundles arcs with the singular set it promised to avoid.

Integration is composite Gauss-Legendre over levels.  Each level has a
start value and an integrand computed from the panel's form samples and
the node values of the levels before it.  The chain of forms

    int_gamma w_1 w_2 ... w_n   (w_1 attached to the path endpoint)

is the special case that multiplies w_(n-k) into level k-1 ("innermost
first").  On each panel every form is sampled once at the nodes, and each
level takes one real matmul of a stacked rule against its node block: the
spectral prefix-integration matrix (Legendre expansion, exact on
polynomials through the node count) gives the prefix integrals at the
nodes, and the Gauss weight row under it the panel integral.  A panel is
evaluated at orders PANEL_ORDER and PANEL_ORDER + 4, accepted by one test
over the whole state or bisected, and QuadratureDiverged is raised beyond
MAX_DEPTH bisections or on non-finite values.

Plain form callables receive (z, v), the point and v = dz/du, one node at a
time and return f(z)*v: a scalar or a numpy array of truncated power-series
coefficients.  A BranchedForm gets (arc, us) once per panel pass, us the
whole node vector, and returns a node-first block.  convolve_product, the
product of a chain, takes a form whose coefficients lie along one trailing
axis and convolves it into the level below (pointwise for scalar forms) by
one batched matmul against lower-triangular Toeplitz blocks of the form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import PathTooClose, QuadratureDiverged

PANEL_ORDER = 16
MAX_DEPTH = 12  # bisections of one starting panel before QuadratureDiverged
CLEARANCE_SAMPLES = 33  # points per panel and refinement round of PathSpec.validate
CLEARANCE_ROUNDS = 9  # refinement rounds: a 16-fold narrower bracket each


@lru_cache(maxsize=32)
def _panel_rule(order):
    """Nodes on [-1,1] and the stacked rule: the prefix-integration matrix M,
    (M g)_i = int_{-1}^{x_i} g for the degree-(order-1) interpolant, with the
    weight row w under it, shape (order+1) x order."""
    x, w = leggauss(order)
    V = legvander(x, order)  # P_0..P_order at the nodes
    A = np.empty((order, order))
    for k in range(order):
        A[k, :] = (2 * k + 1) / 2.0 * w * V[:, k]
    B = np.empty((order, order))
    B[:, 0] = V[:, 1] + 1.0
    for k in range(1, order):
        B[:, k] = (V[:, k + 1] - V[:, k - 1]) / (2 * k + 1)
    return x, np.vstack([B @ A, w])


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

    def suggested_panels(self):
        return 1


class SpiralArc:
    """u -> exp(log_t + u * m * log_q), the q-power spiral from t to q^m t
    with integer (or real) exponent slope m."""

    def __init__(self, t, m, tau, log_t=None):
        self.log_q = 2j * np.pi * complex(tau)
        self.log_t = complex(log_t) if log_t is not None else complex(np.log(complex(t)))
        self.m = m

    def log_point(self, u):
        return self.log_t + u * self.m * self.log_q

    def point(self, u):
        return np.exp(self.log_point(u))

    def velocity(self, u):
        return self.point(u) * (self.m * self.log_q)

    def suggested_panels(self):
        span = abs(self.m) * abs(self.log_q) / (2 * np.pi)
        return max(1, int(np.ceil(span)))


class PathSpec:
    """A chain of arcs plus the singular set the path must stay clear of."""

    def __init__(self, arcs, singular=(), clearance=1e-3):
        self.arcs = list(arcs)
        self.singular = [complex(s) for s in singular]
        self.clearance = float(clearance)

    def validate(self):
        """PathTooClose if an arc's closest approach to a singular point is
        within the clearance."""
        for arc in self.arcs:
            for s in self.singular:
                d = _closest_approach(arc, s, self.clearance)
                if d < self.clearance:
                    raise PathTooClose(
                        f"arc passes within {d:.2e} of singular point {s} "
                        f"(clearance {self.clearance:.2e})"
                    )
        return self


def _closest_approach(arc, s, clearance, us=None, rounds=CLEARANCE_ROUNDS):
    """Smallest |arc(u) - s| over us (CLEARANCE_SAMPLES per suggested panel
    on [0, 1] by default), or a value above clearance: each local minimum of
    the sampled distance is refined over its two neighbouring intervals while
    their arc (at most twice its chords) could come within clearance."""
    if us is None:
        us = np.linspace(0.0, 1.0, CLEARANCE_SAMPLES * arc.suggested_panels())
    p = arc.point(us)
    d = np.abs(p - s)
    pad = np.concatenate([[np.inf], d, [np.inf]])
    best = float(d.min())
    for k in np.flatnonzero((d < pad[:-2]) & (d <= pad[2:])) if rounds else ():
        lo, hi = max(k - 1, 0), min(k + 1, len(us) - 1)
        if d[k] - 2 * (abs(p[k] - p[lo]) + abs(p[hi] - p[k])) < clearance:
            inner = np.linspace(us[lo], us[hi], CLEARANCE_SAMPLES)
            best = min(best, _closest_approach(arc, s, clearance, inner, rounds - 1))
    return best


class BranchedForm:
    """A form evaluated as f(arc, us) instead of f(z, v), for integrands that
    need the arc's branch data (log_point) rather than just the location.
    us is the node vector of one panel pass; f returns a node-first block
    (f(arc, us)[n] is the value at us[n])."""

    def __init__(self, f):
        self.f = f

    def __call__(self, arc, us):
        return self.f(arc, us)


class Levels:
    """Forms sampled once per panel pass, and levels in order, each a
    (start, integrand) pair: the level's value is start plus the integral of
    integrand(samples, lower), samples holding one node-first block per form
    and lower the node values of the levels before it."""

    def __init__(self, forms, levels):
        self.forms = list(forms)
        self.levels = list(levels)


def _link(s, lower):
    """Level k = len(lower) of the chain w_1 ... w_n: w_(n-k) times level k-1."""
    w = s[len(s) - 1 - len(lower)]
    return convolve_product(w, lower[-1]) if lower else w


def _eval_nodes(w, arc, us):
    """Node-first block of one form at the parameters us."""
    if isinstance(w, BranchedForm):
        return np.asarray(w(arc, us), dtype=complex)
    return np.asarray([w(arc.point(u), arc.velocity(u)) for u in us], dtype=complex)


def _panel_pass(system, arc, u0, u1, state, order):
    """One panel at one order.  state[k] is level k's value at the panel
    start; returns the levels' values at the panel end."""
    x, rule = _panel_rule(order)
    h = (u1 - u0) / 2.0
    us = u0 + (u1 - u0) * (x + 1.0) / 2.0
    samples = [_eval_nodes(w, arc, us) for w in system.forms]
    nodes, ends = [], []
    for start, (_, integrand) in zip(state, system.levels):
        g = integrand(samples, nodes)
        # real rule on the (re, im) pairs of g: rows 0..order-1 are the prefix
        # integrals at the nodes, row order the integral over the panel
        flat = np.ascontiguousarray(g, dtype=complex).view(float).reshape(order, -1)
        vals = (rule @ flat).view(complex).reshape((order + 1,) + g.shape[1:]) * h
        nodes.append(vals[:order] + start)
        ends.append(start + vals[order])
    return ends


def _diff(a, b):
    d = np.asarray(a) - np.asarray(b)
    return float(np.max(np.abs(d)))


def iterated_integral(path, forms, tol=1e-11):
    """Iterated integral along `path` of the chain `forms` (w_1 outermost;
    one form is the contour integral, none integrates to 1), or the list of
    end values of a Levels system, one per level.  Every form of a chain
    but the innermost w_n is a convolve_product factor: a scalar, or
    coefficients along one axis.

    tol is a panel-wise test over the whole state, not a bound on the
    returned value's error: a panel is accepted when the largest
    |order-16 - order-20| difference over all levels and coefficients is at
    most tol * max(1, largest |order-20 value - start| over all levels), and
    bisected otherwise.  QuadratureDiverged is raised when a panel would be
    bisected beyond MAX_DEPTH, or has a non-finite value or difference.
    """
    system = forms if isinstance(forms, Levels) else Levels(forms, [(0.0j, _link)] * len(forms))
    if not system.levels:
        return 1.0
    state = [start for start, _ in system.levels]
    for arc in path.arcs:
        p = arc.suggested_panels()
        stack = [(k / p, (k + 1) / p, 0) for k in reversed(range(p))]
        while stack:
            u0, u1, depth = stack.pop()
            lo = _panel_pass(system, arc, u0, u1, state, PANEL_ORDER)
            hi = _panel_pass(system, arc, u0, u1, state, PANEL_ORDER + 4)
            errs = [_diff(a, b) for a, b in zip(lo, hi)]
            sizes = [_diff(v, s0) for v, (s0, _) in zip(hi, system.levels)]
            if not np.all(np.isfinite(errs + sizes)):
                raise QuadratureDiverged(f"panel [{u0:.4g},{u1:.4g}] has non-finite values")
            err, scale = max(errs), max(1.0, max(sizes))
            if err > tol * scale:
                if depth >= MAX_DEPTH:
                    raise QuadratureDiverged(
                        f"panel [{u0:.4g},{u1:.4g}] error {err:.2e} at depth {depth}"
                    )
                um = (u0 + u1) / 2.0
                stack.append((um, u1, depth + 1))
                stack.append((u0, um, depth + 1))
            else:
                state = hi
    return state if system is forms else state[-1]


def convolve_product(f, g):
    """Node-block product that convolves trailing coefficient axes, as for
    truncated power-series coefficient arrays (the result keeps the shapes'
    elementwise maximum extent, truncating away overflow orders); scalar
    blocks (1-D) multiply pointwise.

    f's coefficients lie along at most one trailing axis: every other
    trailing extent of f is 1 (ValueError otherwise), so the product is g,
    padded to the result's shape, times lower-triangular Toeplitz blocks of
    f along that axis, in one batched matmul."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.ndim == 1 and g.ndim == 1:
        return f * g
    nd = max(f.ndim, g.ndim) - 1
    f = f.reshape(f.shape[:1] + (1,) * (nd + 1 - f.ndim) + f.shape[1:])
    g = g.reshape(g.shape[:1] + (1,) * (nd + 1 - g.ndim) + g.shape[1:])
    axes = [a for a, s in enumerate(f.shape[1:]) if s > 1]
    if len(axes) > 1:
        raise ValueError(f"f of shape {f.shape} spans more than one coefficient axis")
    a = axes[0] if axes else nd - 1  # the Toeplitz axis, swapped last below
    out_shape = tuple(max(x, y) for x, y in zip(f.shape[1:], g.shape[1:]))
    m = out_shape[a]
    gp = np.zeros(g.shape[:1] + out_shape, dtype=complex)
    gp[tuple(slice(0, s) for s in g.shape)] = g
    ga = gp.swapaxes(a + 1, -1)
    # fpad[:, m + d] = f at lag d (zero outside 0 <= d < f's extent), so
    # fpad[:, lag][:, j, i] multiplies g_j into out_i
    fpad = np.zeros((f.shape[0], 2 * m), dtype=complex)
    fpad[:, m : m + f.shape[a + 1]] = f.reshape(f.shape[0], -1)
    lag = m + np.arange(m)[None, :] - np.arange(m)[:, None]
    prod = ga.reshape(ga.shape[0], -1, m) @ fpad[:, lag]
    return prod.reshape(ga.shape).swapaxes(a + 1, -1)
