"""Debye generating series of multiple polylogarithms.

The series at a point of the convergence polydisk (depth 1 and 2), its
transport along spiral or line paths with explicit log-branch bookkeeping,
and divisor asymptotics assembled through the string coproduct.

A DebyeSeries' coefficient array is its state: each transport leg returns a
new series built from new arrays, in one adaptive quadrature pass that
carries the channels at padded order and the depth-2 table on its K x K
window.  Its MultiSeries value wraps that same array, without a copy, for
callers that evaluate or compare the series.  The asymptotic assembly
builds its factors as MultiSeries arrays too, filled directly.
"""

import cmath
import math
from functools import lru_cache

import numpy as np

from . import hopf
from .errors import (
    Inadmissible,
    MissingConstants,
    OutOfRegion,
)
from .quadrature import (
    BranchedForm,
    Levels,
    LineArc,
    PathSpec,
    SpiralArc,
    convolve_product,
    iterated_integral,
)
from .series import INF, MultiSeries, exp_column

DEFAULT_MARGIN = 0.05
DEFAULT_TOL = 1e-10  # transport legs
SERIES_TOL = 1e-15  # tail of the Debye series sums
Q_POWER_TOL = 1e-9  # how close to a real q-power SpiralShift.validate refuses
CLEARANCE = 1e-3  # distance every transport arc keeps from 1


class SimplicialPoint:
    """Arguments (t_1..t_r) with the conventions t_{r+1} = 1, t_0 = 0.

    Zero coordinates are allowed at construction; operations that need
    logs or coordinate ratios check lazily.  Non-finite coordinates are
    refused with OutOfRegion.
    """

    __slots__ = ("ts",)

    def __init__(self, ts):
        self.ts = tuple(complex(t) for t in ts)
        if not self.ts:
            raise ValueError("need at least one coordinate")
        if not all(cmath.isfinite(t) for t in self.ts):
            raise OutOfRegion(f"non-finite coordinate in {self.ts}")

    @property
    def depth(self):
        return len(self.ts)

    def __repr__(self):
        return f"SimplicialPoint{self.ts}"


class DebyeSeries:
    """Generating series value at a point, with branch provenance.

    coeffs is the state: the complex coefficients in b, shape (K,) (depth
    1), or in b1, b2, shape (K, K) (depth 2), prefactors expanded.  logs
    are the current log branches of the coordinates.  channels (depth 2)
    is the pair (c1, c2) of depth-1 columns at t_1 and t_2, at padded order
    >= 2K-1, that the transport system carries along.  value is the
    MultiSeries of coeffs (window [0, K-1] per variable); it shares the
    array, so building it copies nothing.
    """

    __slots__ = ("point", "coeffs", "logs", "channels", "branch_tag", "value")

    def __init__(self, point, coeffs, logs, channels=None, branch_tag="origin-canonical"):
        self.point = point
        self.coeffs = coeffs
        self.logs = tuple(logs)
        self.channels = channels
        self.branch_tag = branch_tag
        vars = ("b",) if coeffs.ndim == 1 else ("b1", "b2")
        zero = (0,) * coeffs.ndim
        self.value = MultiSeries._of(vars, coeffs, zero, (coeffs.shape[0] - 1,) * coeffs.ndim, zero)

    @property
    def depth(self):
        return self.point.depth

    def order(self):
        return self.coeffs.shape[0]


class SpiralShift:
    """Integer spiral exponents m against a base point and lattice context."""

    __slots__ = ("m", "base", "context")

    def __init__(self, m, base, context):
        self.m = tuple(int(x) for x in m)
        self.base = base
        self.context = context
        if len(self.m) != base.depth:
            raise ValueError("one exponent per coordinate")

    def validate(self):
        """The spiral family through the base must avoid 1: no coordinate
        and no coordinate ratio may lie on a real q-power."""
        tau = complex(self.context.tau)
        ts = self.base.ts
        if 0 in ts:
            raise OutOfRegion("zero coordinate has no spiral")
        ratios = [ti / tj for i, ti in enumerate(ts) for j, tj in enumerate(ts) if i != j]
        for w in list(ts) + ratios:
            v = cmath.log(w) / (2j * math.pi)
            c = v.imag / tau.imag
            k = v.real - c * tau.real
            if abs(k - round(k)) < Q_POWER_TOL:
                raise Inadmissible(
                    f"{w} lies on a real q-power (offset {k - round(k):.2e})"
                )
        return self


def _tail_length(mod, tol, lo=24, hi=20000):
    """Terms of a power series in |x| = mod whose geometric tail is below
    tol; OutOfRegion when that takes more than hi terms."""
    if mod <= 0:
        return lo
    n = max(lo, int(math.ceil(math.log(tol * (1.0 - mod)) / math.log(mod))) + 4)
    if n > hi:
        raise OutOfRegion(f"|x| = {mod} needs {n} terms for tolerance {tol:.1e} (limit {hi})")
    return n


def _li_column(t, K, tol):
    """[Li_1(t), ..., Li_K(t)]: the powers t^k against the table 1/k^m, one
    product."""
    if t == 0:
        return np.zeros(K, dtype=complex)
    N = _tail_length(abs(t), tol)
    k = np.arange(1, N + 1, dtype=float)
    return t ** k @ (1.0 / k[:, None] ** np.arange(1, K + 1))


def _nested_table(t1, t2, K, tol):
    """I_{m1,m2}(t1,t2) for 1 <= m1, m2 <= K, summed over n = a1 + a2
    (Vollinga-Weinzierl): the partial sums P_{m1}(n) = sum_{a1<n} t1^a1
    t2^(n-a1) / a1^m1 obey P(n+1) = t2 (P(n) + t1^n / n^m1), and the table
    is sum_n P_{m1}(n) / n^m2, one matmul; O(N K) memory."""
    N = _tail_length(max(abs(t1), abs(t2)), tol)
    n = np.arange(1, N + 1, dtype=float)[:, None]
    inv = 1.0 / n ** np.arange(1, K + 1)  # row n-1: 1/n^m for m = 1..K
    step = (t1 ** n) * inv
    P = np.zeros((N, K), dtype=complex)  # row n-1: P_{m1}(n), P(1) = 0
    for i in range(1, N):
        P[i] = t2 * (P[i - 1] + step[i - 1])
    return P.T @ inv


def _conv(a, b):
    return convolve_product(np.asarray(a)[None], np.asarray(b)[None])[0]


def _debye_column(t, K, tol):
    """Depth-1 coefficients of t^{-b} sum_m Li_m(t) b^{m-1} (principal log)."""
    if t == 0:
        return np.zeros(K, dtype=complex)
    return _conv(exp_column(-cmath.log(t), K), _li_column(t, K, tol))


@lru_cache(maxsize=8)
def _binomials(K):
    """Index x + y and weight C(x + y, x) of each cell (x, y) of a K x K table."""
    x, y = np.indices((K, K))
    return x + y, np.vectorize(math.comb)(x + y, x).astype(float)


def _spread_col(col, K):
    """Re-expand columns in s = b1 + b2 alone (trailing axis, length at
    least 2K-1) against (b1, b2) on the K x K window: cell (x, y) is
    C(x+y, x) col[x+y]."""
    idx, binom = _binomials(K)
    return col[..., idx] * binom


def _spread(tab, K):
    """Re-expand a table in (b1, s = b1 + b2), with at least K rows and 2K-1
    columns, against (b1, b2) on the K x K window: row i is the b1^i multiple
    of a column in s."""
    rows = _spread_col(tab[:K], K)
    out = np.zeros((K, K), dtype=complex)
    for i in range(K):
        out[i:] += rows[i, : K - i]
    return out


def debye_lambda(r, pt, K):
    """Generating series at a point of the convergence polydisk.

    Depth 1: sum_m Li_m(t) b^{m-1} times t^{-b}.  Depth 2: the nested-sum
    table is resummed against (b1, b1+b2) -- the denominators attached to
    the partial sums a1 and a1+a2 carry the matching partial sums of the
    deformation variables -- then re-expanded against (b1, b2) and dressed
    with both prefactors, each a product along its own variable's axis.
    Prefactor exponentials are expanded into the coefficients (principal
    logs).  Coordinates must keep DEFAULT_MARGIN from the unit circle, and
    K >= 1 coefficients are kept per variable.  A series at a zero
    coordinate is zero and has no log branch, so it cannot be continued.
    """
    if r != pt.depth:
        raise ValueError("depth mismatch")
    if K < 1:
        raise ValueError(f"order K = {K} must be at least 1")
    if any(abs(t) > 1.0 - DEFAULT_MARGIN for t in pt.ts):
        raise OutOfRegion(f"|t| too close to 1 (margin {DEFAULT_MARGIN})")
    if r == 1:
        (t,) = pt.ts
        lt = cmath.log(t) if t != 0 else 0.0
        return DebyeSeries(pt, _debye_column(t, K, SERIES_TOL), (lt,))
    if r == 2:
        t1, t2 = pt.ts
        if t1 == 0 or t2 == 0:
            return DebyeSeries(pt, np.zeros((K, K), dtype=complex), (0.0, 0.0))
        l1, l2 = cmath.log(t1), cmath.log(t2)
        # re-expanding (b1, b1+b2) -> (b1, b2) pulls in totals up to 2K-2,
        # so the table in (b1, b1+b2) is built at padded order
        Kp = 2 * K - 1
        body = _spread(_nested_table(t1, t2, Kp, SERIES_TOL), K)
        coeffs = _conv(exp_column(-l1, K)[:, None], _conv(exp_column(-l2, K)[None, :], body))
        channels = (_debye_column(t1, Kp, SERIES_TOL), _debye_column(t2, Kp, SERIES_TOL))
        return DebyeSeries(pt, coeffs, (l1, l2), channels)
    raise ValueError("depth 1 or 2 only")


# ----------------------------------------------------------------- transport


def _form(arc, K):
    """Coefficients of w^{-b} dw/(1-w) along an arc at a node vector, (N, K)."""

    def f(_arc, us):
        dlog = arc.velocity(us) / (1.0 - arc.point(us))
        return exp_column(-arc.log_point(us), K) * dlog[:, None]

    return BranchedForm(f)


class _RatioArc:
    """u -> (arc(u) / t)**s, s = +1 or -1: a coordinate ratio while one
    coordinate moves along arc and the other stays at t (log log_t)."""

    def __init__(self, arc, s, t, log_t):
        self.arc = arc
        self.s = s
        self.t = t
        self.log_t = log_t

    def point(self, u):
        return (self.arc.point(u) / self.t) ** self.s

    def velocity(self, u):
        return self.s * self.point(u) * self.arc.velocity(u) / self.arc.point(u)

    def log_point(self, u):
        return self.s * (self.arc.log_point(u) - self.log_t)

    def suggested_panels(self):
        return self.arc.suggested_panels()


def _check_clear(arcs):
    PathSpec(arcs, singular=(1.0,), clearance=CLEARANCE).validate()


def _spine(arcs):
    return PathSpec([max(arcs, key=lambda a: a.suggested_panels())])


def _rebase(arc, t, l):
    """Attach the current branch to an arc starting at t."""
    if isinstance(arc, LineArc):
        if abs(arc.z0 - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("arc does not start at the current point")
        return LineArc(arc.z0, arc.z1, start_log=l)
    if isinstance(arc, SpiralArc):
        if abs(arc.point(0.0) - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("arc does not start at the current point")
        return SpiralArc(t, arc.m, arc.log_q / (2j * math.pi), log_t=l)
    raise TypeError(f"unsupported arc type {type(arc).__name__}")


def _advance(series, arcs, ratios, tag):
    """The series after one adaptive pass along a leg: arcs[i] moves
    coordinate i (None keeps it fixed), ratios is () at depth 1 and the
    ratio arcs at depth 2 (see _leg2).  The channels c_i(u) = c_i + int w_i,
    w_i the form of arc_i and 0 for a fixed coordinate, are the state; at
    depth 1 the one channel is the coefficient column."""
    chans = [series.coeffs] if series.depth == 1 else series.channels
    K = series.order()
    moving = [i for i, arc in enumerate(arcs) if arc is not None]
    spine = [arcs[i] for i in moving] + list(ratios)
    _check_clear(spine)
    forms = [_form(arcs[i], len(chans[i])) for i in moving] + [_form(arc, K) for arc in ratios]

    def channel(i):
        if i in moving:
            return lambda s, lower: s[moving.index(i)]
        return lambda s, lower: np.zeros((len(s[0]), len(chans[i])), dtype=complex)

    def table(s, lower):
        # a column as a (K, 1) block lies along b1, as a (1, K) block along b2;
        # convolve_product pads it to the K x K window
        c1, c2 = lower
        d = convolve_product(s[-2][:, :, None], _spread_col(c2, K))
        d -= convolve_product(s[-1][:, None, :], _spread_col(c1, K))
        if 1 in moving:
            w2 = s[moving.index(1)][:, :K]
            d += convolve_product(w2[:, None, :], c1[:, :K, None])
        return d

    levels = [(c, channel(i)) for i, c in enumerate(chans)]
    if ratios:
        levels.append((series.coeffs, table))
    ends = iterated_integral(_spine(spine), Levels(forms, levels), tol=DEFAULT_TOL)
    logs, ts = list(series.logs), list(series.point.ts)
    for i in moving:
        logs[i], ts[i] = arcs[i].log_point(1.0), arcs[i].point(1.0)
    chans = tuple(ends[:2]) if ratios else None  # at depth 1, ends[-1] is the column
    return DebyeSeries(SimplicialPoint(ts), ends[-1], logs, chans, tag)


def _leg_depth1(series, arc, tag):
    return _advance(series, [_rebase(arc, series.point.ts[0], series.logs[0])], (), tag)


def _leg2(series, arcs, ratios, tag):
    """A depth-2 leg along arcs (arc1, arc2) of t1 and t2, None where fixed,
    with ratios (arc_a, arc_c) the matching paths of t1/t2 and t2/t1.  One
    adaptive pass, accepted over the whole state, carries the channels
    c_i(u) at padded order Kp >= 2K-1 (the next leg needs them) and the
    table on its K x K window, whose increment moves by

        d' = rows(a) * spread(c2(u)) + cols(w2) * rows(c1(u)) - cols(c) * spread(c1(u))

    with a, c the forms of arc_a, arc_c, * the truncated-series product,
    rows / cols a column laid along b1 / b2, and spread its re-expansion
    from b1 + b2 (exact on the window from the first 2K-1 entries)."""
    if series.channels is None:
        raise ValueError("depth-2 series without transport channels")
    if min(len(c) for c in series.channels) < 2 * series.order() - 1:
        raise ValueError("channels shorter than 2K-1: rectangle would go stale")
    return _advance(series, arcs, ratios, tag)


def _leg_axis(series, j, arc, tag):
    """Move coordinate j of a depth-2 series along an arc; the ratio t1/t2
    is (arc/t)^s, with t the other coordinate and s = +1 for j = 1, -1 for
    j = 2, and t2/t1 its inverse."""
    if j not in (1, 2):
        raise ValueError("coordinate index must be 1 or 2")
    ts, logs = series.point.ts, series.logs
    s, t, l = 3 - 2 * j, ts[2 - j], logs[2 - j]
    arc = _rebase(arc, ts[j - 1], logs[j - 1])
    arcs = (arc, None) if j == 1 else (None, arc)
    return _leg2(series, arcs, (_RatioArc(arc, s, t, l), _RatioArc(arc, -s, t, l)), tag)


def _leg_diag(series, m, tau, tag):
    """Move both coordinates simultaneously along their spirals."""
    (l1, l2), (t1, t2) = series.logs, series.point.ts
    arcs = SpiralArc(t1, m[0], tau, log_t=l1), SpiralArc(t2, m[1], tau, log_t=l2)
    ratios = (
        SpiralArc(t1 / t2, m[0] - m[1], tau, log_t=l1 - l2),
        SpiralArc(t2 / t1, m[1] - m[0], tau, log_t=l2 - l1),
    )
    return _leg2(series, arcs, ratios, tag)


def _legs(series, legs, tag):
    """The leg loop: arcs (depth 1) or (j, arc) pairs (depth 2), taken in
    order.  Every leg's result carries tag, so the last one is the answer;
    without legs it is a fresh series at the same state."""
    if not legs:
        return DebyeSeries(series.point, series.coeffs, series.logs, series.channels, tag)
    if 0 in series.point.ts:
        raise OutOfRegion("zero coordinate has no log branch to continue from")
    for leg in legs:
        if series.depth == 1:
            series = _leg_depth1(series, leg, tag)
        else:
            series = _leg_axis(series, *leg, tag)
    return series


def continue_debye(series, legs):
    """Continue a Debye series along coordinate legs.

    legs: for depth 1 a list of arcs; for depth 2 a list of (j, arc) with
    j in {1, 2} naming the moving coordinate.  Branch data is taken from
    the series; each arc must start at the current coordinate value.  The
    input series is left as it was.  Every leg is one adaptive pass to
    DEFAULT_TOL, the depth-2 table on its K x K window, and every arc must
    keep CLEARANCE from 1 at its closest approach.
    """
    tag = series.branch_tag + f" -> continued[{len(legs)} legs]"
    return _legs(series, legs, tag)


def transport_debye(shift, K, route="diagonal"):
    """Transport the Debye series along the spiral t_i -> q^{m_i} t_i, to
    DEFAULT_TOL, with every arc CLEARANCE away from 1; each leg is one
    adaptive pass, the depth-2 table on its K x K window.

    route (depth 2 only, checked at any depth): "diagonal" moves both
    coordinates at once, "axes" moves t_1 first and then t_2.  Both must
    agree for admissible shifts (path homotopy invariance).
    """
    if route not in ("diagonal", "axes"):
        raise ValueError(f"unknown route {route!r}")
    shift.validate()
    base = debye_lambda(shift.base.depth, shift.base, K)
    tau = complex(shift.context.tau)
    tag = f"transported[spiral m={shift.m} route={route}] <- origin-canonical"
    if base.depth == 1:
        legs = [SpiralArc(base.point.ts[0], shift.m[0], tau)]
    elif route == "diagonal":
        return _leg_diag(base, shift.m, tau, tag)
    else:
        legs = [(j, SpiralArc(t, m, tau)) for j, t, m in zip((1, 2), base.point.ts, shift.m)]
    return _legs(base, legs, tag)


# ------------------------------------------------------------- asymptotics


def constants_order(K):
    """Regular orders the boundary-constants series must carry so that the
    asymptotic assembly keeps a trustworthy window up to coefficient K-1."""
    return 3 * K + 8


def _inv_linear(coeffs, vars, K):
    """Series for 1/(sum_i coeffs[i] * vars[i]), expanded in the later
    variables over the first one carrying a nonzero coefficient."""
    nz = [i for i, c in enumerate(coeffs) if c != 0]
    if not nz:
        raise ZeroDivisionError("zero linear form")
    p = nz[0]
    rest = nz[1:]
    lead = complex(coeffs[p])
    n = len(vars)
    if not rest:
        e = tuple(-1 if i == p else 0 for i in range(n))
        return MultiSeries._of(vars, np.full((1,) * n, 1.0 / lead), e, (INF,) * n, e)
    if len(rest) > 1:
        raise NotImplementedError("more than two active variables")
    q = rest[0]
    ratio = complex(coeffs[q]) / lead
    # the term (-ratio)^k / lead at exponent -1-k of p and k of q, k <= K+1
    k = np.arange(K + 2)
    a = np.zeros([K + 2 if i in (p, q) else 1 for i in range(n)], dtype=complex)
    a[tuple(K + 1 - k if i == p else (k if i == q else 0) for i in range(n))] = (
        (1.0 / lead) * (-ratio) ** k
    )
    max_o = tuple(K + 1 if i == q else INF for i in range(n))
    min_o = tuple((-2 - K) if i == p else 0 for i in range(n))
    return MultiSeries._of(vars, a, min_o, max_o, min_o)


def _compose_linear(coeffs_1d, lab, vars, M):
    """sum_n c_n (lab . beta)^n as a regular series, truncated at order M:
    the coefficient of beta^k is c_{|k|} |k|! prod_i lab_i^{k_i} / k_i!."""
    active = [i for i, c in enumerate(lab) if c != 0]
    if not 1 <= len(active) <= 2:
        raise NotImplementedError("one or two active variables only")
    N = min(len(coeffs_1d) - 1, M)
    k = np.arange(N + 1)
    fact = np.array([math.factorial(j) for j in range(N + 1)], dtype=float)
    cn = np.asarray(coeffs_1d[: N + 1], dtype=complex) * fact  # c_n n!
    w = [complex(lab[i]) ** k / fact for i in active]  # lab_i^k / k!
    if len(active) == 1:
        a = cn * w[0]
    else:  # cell (k1, k2) takes c_n n! at n = k1 + k2, and 0 beyond N
        a = np.concatenate([cn, np.zeros(N, dtype=complex)])[np.add.outer(k, k)]
        a *= np.outer(w[0], w[1])
    zero = (0,) * len(vars)
    shape = [N + 1 if i in active else 1 for i in range(len(vars))]
    return MultiSeries._of(vars, a.reshape(shape), zero, (M,) * len(vars), zero)


def _linear_series(lab, logs, vars, M):
    """sum over slots of (lab_k . beta) * log(t_{slot k}) as a linear series."""
    n = len(vars)
    a = np.zeros((2,) * n, dtype=complex)
    for labvec, l in zip(lab, logs):
        for i, c in enumerate(labvec):
            if c != 0 and l != 0:
                a[tuple(int(j == i) for j in range(n))] += complex(c) * l
    return MultiSeries._of(vars, a, (0,) * n, (M,) * n, (0,) * n)


@lru_cache(maxsize=32)
def _asymptotic_terms(r, J):
    """Classified string-coproduct term list of depth r for the set J."""
    return tuple(hopf.assemble_asymptotic(hopf.canonical_symbol(r + 1), J))


def asymptotic_eval(r, J, pt, K, constants):
    """Prediction for the generating series when the coordinates in J grow.

    Realizes (depth <= 2) hopf's classified string-coproduct term list as a
    MultiSeries in the label variables: leading monomials with their
    partial-sum denominators, regular series at the surviving ratio
    arguments, and boundary constants C evaluated on the essential tails.
    pt supplies the actual coordinate values (large along J) and has depth
    r; ratios of J-coordinates stay finite.  constants: the 1-variable
    MultiSeries for C, with at least constants_order(K) regular orders
    (MissingConstants otherwise) and at most a simple pole (ValueError
    otherwise): only its regular orders and its (-1,) coefficient are read.

    Ratio arguments within DEFAULT_MARGIN of the unit circle are refused;
    those beyond the unit disk are inverted with the upper-crossing
    constant.  A fixed ratio in the lower half-plane sits one sheet below
    that choice: the prediction is offset by 2*pi*i times the tail
    constant at the merged label.
    """
    if r != pt.depth:
        raise ValueError("depth mismatch")
    if not J:
        raise ValueError("J must be non-empty")
    J = frozenset(J)
    if not J <= set(range(1, r + 1)):
        raise ValueError("J must index the first r coordinates")
    if r > 2:
        raise ValueError("numeric asymptotics implemented for depth <= 2")
    if len(constants.vars) != 1:
        raise ValueError("constants must be a series in one variable")
    if any(e < -1 for (e,) in constants.terms):
        raise ValueError("constants may have at most a simple pole")
    M = constants_order(K)
    if constants.max_order[0] < M:
        raise MissingConstants(
            f"constants series needs {M} regular orders for K={K}"
        )
    vars = ("b",) if r == 1 else ("b1", "b2")
    ts = pt.ts + (1.0 + 0.0j,)
    logs = [cmath.log(t) if t != 0 else 0.0 for t in ts]

    (lo,) = constants.lo  # C's regular orders 0..M from its array, zero-padded
    n = np.arange(max(lo, 0), min(lo + len(constants.a), M + 1))
    c_reg = np.zeros(M + 1, dtype=complex)
    c_reg[n] = constants.a[n - lo]
    c_pole = constants.coeff((-1,))

    def phi_realize(s):
        tsl, exps, partials = hopf.phi_parts(s)
        num = _linear_series(exps, [logs[i - 1] for i in tsl], vars, M)
        out = num.exp()
        for p in partials:
            out = out * _inv_linear([complex(c) for c in p], vars, K)
        return out

    def c_linear(lab):
        reg = _compose_linear(c_reg, lab, vars, M)
        return reg + c_pole * _inv_linear([complex(c) for c in lab], vars, K)

    def lam_series(ratio, lab):
        return _compose_linear(_debye_column(ratio, M + 1, SERIES_TOL), lab, vars, M)

    def lam_realize(s):
        """Depth-1 value at the surviving ratio argument; outside the unit
        disk it is continued through the inversion identity on the
        principal branch."""
        (pair,), (lab,) = hopf.lambda_args(s)
        num_i, den_i = pair
        ratio = ts[num_i - 1] / ts[den_i - 1]
        lab = [complex(c) for c in lab]
        if abs(ratio) <= 1.0 - DEFAULT_MARGIN:
            return lam_series(ratio, lab)
        if abs(ratio) >= 1.0 / (1.0 - DEFAULT_MARGIN):
            flipped = lam_series(1.0 / ratio, [-c for c in lab])
            pole = _inv_linear(lab, vars, K)
            pref = _linear_series([lab], [-cmath.log(ratio)], vars, M).exp()
            return flipped + pole * pref + c_linear(lab)
        raise OutOfRegion(f"ratio argument {ratio} too close to the unit circle")

    def c_realize(s):
        """C on an essential tail: at depth <= 2 its symbol has length 2 or 3."""
        body = s.labels[:-1]
        if len(body) == 1:
            return c_linear([complex(c) for c in body[0]])
        b2 = [complex(c) for c in body[1]]
        b12 = [complex(x + y) for x, y in zip(body[0], body[1])]
        return c_linear(b2) * c_linear(b12)

    total = None
    for coeff, phi_slot, lam_slot, c_slot in _asymptotic_terms(r, J):
        val = MultiSeries.const(vars, complex(coeff), (M,) * len(vars))
        for s in phi_slot:
            val = val * phi_realize(s)
        for s in lam_slot:
            val = val * lam_realize(s)
        for s in c_slot:
            val = val * c_realize(s)
        total = val if total is None else total + val
    return total
