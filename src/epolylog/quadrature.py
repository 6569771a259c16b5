"""Complex path arcs, and adaptive quadrature over their parameter.

An arc exposes point / velocity / log_point / suggested_panels on the
parameter u in [0, 1]: straight segments, and log-linear arcs u ->
exp(log_t + u*dlog), the q-power spirals of the lattice-shift transports
(dlog = m*2*pi*i*tau; their logarithm is linear in the parameter, which
makes branch tracking trivial, and a fixed point is the arc with dlog = 0).
check_clearance refuses arcs that come too close to a singular point.

iterated_integral is composite Gauss-Legendre over u in [0, 1], for levels
that each have a start value and an integrand computed from the form's
block and the node values of the levels before it.  One form samples all
the arcs: on each panel it is called once with the node vector.  Each level
takes one real matmul of a stacked rule against its node block: the
spectral prefix-integration matrix (Legendre expansion, exact on
polynomials through the node count) gives the prefix integrals at the
nodes, and the Gauss weight row under it the panel integral.  A panel is
evaluated at orders PANEL_ORDER and PANEL_ORDER + 4, accepted by one test
over the whole state or bisected, and QuadratureDiverged is raised beyond
MAX_DEPTH bisections or on non-finite values.

convolve_product multiplies node blocks of truncated power-series
coefficients: it convolves a form whose coefficients lie along one
trailing axis into a level (pointwise for scalar blocks) by one batched
matmul against lower-triangular Toeplitz blocks of the form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import PathTooClose, QuadratureDiverged

PANEL_ORDER = 16
MAX_DEPTH = 12  # bisections of one starting panel before QuadratureDiverged
CLEARANCE_SAMPLES = 33  # points per panel and refinement round of check_clearance
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
    log along the arc, which is then continuous: z/z0 runs on a straight
    line from 1 and meets the negative real axis only through 0.  A segment
    through 0 has no branch there."""

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
    """The log-linear arc u -> exp(log_t + u * dlog), on the branch log_t
    at u = 0: the q-power spiral from t to q^m t is SpiralArc(log t,
    m * 2*pi*i*tau), and a coordinate held fixed is SpiralArc(log t, 0)."""

    def __init__(self, log_t, dlog):
        self.log_t = complex(log_t)
        self.dlog = complex(dlog)

    def log_point(self, u):
        return self.log_t + u * self.dlog

    def point(self, u):
        return np.exp(self.log_point(u))

    def velocity(self, u):
        return self.point(u) * self.dlog

    def suggested_panels(self):
        return max(1, int(np.ceil(abs(self.dlog) / (2 * np.pi))))


def check_clearance(arcs, s, clearance):
    """PathTooClose if an arc's closest approach to the point s is within
    clearance."""
    for arc in arcs:
        d = _closest_approach(arc, s, clearance)
        if d < clearance:
            raise PathTooClose(
                f"arc passes within {d:.2e} of singular point {s} (clearance {clearance:.2e})"
            )


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
    """A form that samples its own arcs: f(us) is one node-first block at
    the parameters us (f(us)[n] is the value at us[n]), read from the arcs'
    points, velocities and branches (log_point) at us."""

    def __init__(self, f):
        self.f = f

    def __call__(self, us):
        return self.f(us)


def _panel_pass(form, levels, u0, u1, state, order):
    """One panel at one order, one form call.  state[k] is level k's value
    at the panel start; returns the levels' values at the panel end."""
    x, rule = _panel_rule(order)
    h = (u1 - u0) / 2.0
    us = u0 + (u1 - u0) * (x + 1.0) / 2.0
    block = form(us)
    nodes, ends = [], []
    for start, (_, integrand) in zip(state, levels):
        g = integrand(block, nodes)
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


def iterated_integral(panels, form, levels, tol):
    """End values of the levels over the parameter u in [0, 1], one per
    level, starting from `panels` equal panels.

    form is one callable sampled once per panel pass at the node vector us,
    returning a node-first block.  levels is a list of (start, integrand)
    pairs, in order: level k's value is start plus the integral over u of
    integrand(block, lower), block the form's value as it is returned and
    lower the node values of levels 0..k-1.

    tol is a panel-wise test over the whole state, not a bound on the
    returned values' error: a panel is accepted when the largest
    |order-16 - order-20| difference over all levels and coefficients is at
    most tol * max(1, largest |order-20 value - start| over all levels), and
    bisected otherwise.  QuadratureDiverged is raised when a panel would be
    bisected beyond MAX_DEPTH, or has a non-finite value or difference.
    """
    state = [start for start, _ in levels]
    stack = [(k / panels, (k + 1) / panels, 0) for k in reversed(range(panels))]
    while stack:
        u0, u1, depth = stack.pop()
        lo = _panel_pass(form, levels, u0, u1, state, PANEL_ORDER)
        hi = _panel_pass(form, levels, u0, u1, state, PANEL_ORDER + 4)
        errs = [_diff(a, b) for a, b in zip(lo, hi)]
        sizes = [_diff(v, s0) for v, (s0, _) in zip(hi, levels)]
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
    return state


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
