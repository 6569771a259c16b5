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

This pipeline computes in doubles: debye_lambda refuses an ELLIP_PRECISION
above double, and transport_debye a lattice context above double, with
UnsupportedPrecision.
"""

import cmath
import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import hopf
from .errors import (
    Inadmissible,
    MissingConstants,
    OutOfRegion,
    UnsupportedPrecision,
)
from .precision import get_context
from .quadrature import (
    BranchedForm,
    LineArc,
    SpiralArc,
    check_clearance,
    convolve_product,
    iterated_integral,
)
from .series import INF, MultiSeries, exp_column

DEFAULT_MARGIN = 0.05
DEFAULT_TOL = 1e-10  # transport legs
SERIES_TOL = 1e-15  # tail of the Debye series sums
Q_POWER_TOL = 1e-9  # how close to a real q-power SpiralShift.validate refuses
CLEARANCE = 1e-3  # distance every transport arc keeps from 1, a line arc from 0 too


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
    >= 2K-1, that the transport system carries along, or None.  value is the
    MultiSeries of coeffs (window [0, K-1] per variable); it shares the
    array, so building it copies nothing.
    """

    __slots__ = ("point", "coeffs", "logs", "channels", "branch_tag", "value")

    def __init__(self, point, coeffs, logs, channels, branch_tag):
        self.point = point
        self.coeffs = coeffs
        self.logs = tuple(logs)
        self.channels = channels
        self.branch_tag = branch_tag
        vars = ("b",) if coeffs.ndim == 1 else ("b1", "b2")
        self.value = MultiSeries._of(vars, coeffs, (0,) * coeffs.ndim, (coeffs.shape[0] - 1,) * coeffs.ndim)

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
    The series is computed in doubles, so an ELLIP_PRECISION above double
    is refused with UnsupportedPrecision.
    """
    if r != pt.depth:
        raise ValueError("depth mismatch")
    digits = get_context().digits
    if digits > 16:
        raise UnsupportedPrecision(f"debye_lambda computes in doubles, not {digits} digits")
    if K < 1:
        raise ValueError(f"order K = {K} must be at least 1")
    if any(abs(t) > 1.0 - DEFAULT_MARGIN for t in pt.ts):
        raise OutOfRegion(f"|t| too close to 1 (margin {DEFAULT_MARGIN})")
    if r == 1:
        (t,) = pt.ts
        lt = cmath.log(t) if t != 0 else 0.0
        return DebyeSeries(pt, _debye_column(t, K, SERIES_TOL), (lt,), None, "origin-canonical")
    if r == 2:
        t1, t2 = pt.ts
        if t1 == 0 or t2 == 0:
            return DebyeSeries(pt, np.zeros((K, K), complex), (0.0, 0.0), None, "origin-canonical")
        l1, l2 = cmath.log(t1), cmath.log(t2)
        # re-expanding (b1, b1+b2) -> (b1, b2) pulls in totals up to 2K-2,
        # so the table in (b1, b1+b2) is built at padded order
        Kp = 2 * K - 1
        body = _spread(_nested_table(t1, t2, Kp, SERIES_TOL), K)
        coeffs = _conv(exp_column(-l1, K)[:, None], _conv(exp_column(-l2, K)[None, :], body))
        channels = (_debye_column(t1, Kp, SERIES_TOL), _debye_column(t2, Kp, SERIES_TOL))
        return DebyeSeries(pt, coeffs, (l1, l2), channels, "origin-canonical")
    raise ValueError("depth 1 or 2 only")


# ----------------------------------------------------------------- transport


def _form(arcs, n, inverse):
    """The forms w^{-b} dw/(1-w) along the arcs at parameters us, one
    node-first block (N, rows, n): row k is arcs[k]'s form.  With inverse,
    one more row reads the last arc's form at 1/w, w^b dw/(w(1-w))."""

    def f(us):
        ws = [arc.point(us) for arc in arcs]
        logs = [-arc.log_point(us) for arc in arcs]
        dlogs = [arc.velocity(us) / (1.0 - w) for arc, w in zip(arcs, ws)]
        if inverse:
            logs.append(-logs[-1])
            dlogs.append(dlogs[-1] / ws[-1])
        return exp_column(np.stack(logs, axis=1), n) * np.stack(dlogs, axis=1)[:, :, None]

    return BranchedForm(f)


def _rebase(arc, t, l):
    """Attach the current branch l to an arc starting at t."""
    if not isinstance(arc, (LineArc, SpiralArc)):
        raise TypeError(f"unsupported arc type {type(arc).__name__}")
    if abs(arc.point(0.0) - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError("arc does not start at the current point")
    if isinstance(arc, LineArc):
        return LineArc(arc.z0, arc.z1, start_log=l)
    return SpiralArc(l, arc.dlog)


def _advance(series, arcs, tag):
    """The series after one adaptive pass along a leg: arcs[i] moves
    coordinate i from its current value and branch, None keeps it fixed.

    The channels c_i(u) = c_i + int w_i, w_i the form of arc_i and 0 for a
    fixed coordinate, are the state; at depth 1 the one channel is the
    coefficient column.  At depth 2 they are carried at padded order
    Kp >= 2K-1 (the next leg needs them), next to the table on its K x K
    window, whose increment moves by

        d' = rows(a) * spread(c2(u)) + cols(w2) * rows(c1(u)) - cols(c) * spread(c1(u))

    with a, c the forms of t1/t2 and t2/t1, * the truncated-series product,
    rows / cols a column laid along b1 / b2, and spread its re-expansion
    from b1 + b2 (exact on the window from the first 2K-1 entries).  With a
    fixed coordinate read as the spiral SpiralArc(l, 0), two spirals give
    rho = t1/t2, the spiral (l_a - l_b, d_a - d_b); a line leg moving t_i
    over the fixed t gives the line rho = t_i/t, so moving t2 swaps a and c.
    The leg's spine is its moving coordinate arcs, then rho at depth 2, all
    on the parameter u.  One form samples the spine once per panel pass, as
    one block: a row per arc, then at depth 2 rho's form read at 1/rho.  One
    pass, accepted over the whole state, carries it all over u, starting
    from the largest suggested panel count of the spine.  The coordinate
    arcs and rho keep CLEARANCE from 1 (1/rho up to a factor |rho|); a
    coordinate line arc keeps it from 0 too, where its log and the form are
    singular, but rho, whose distance from 0 scales with |t|, is not tested
    there.
    """
    ts, logs, K = series.point.ts, series.logs, series.order()
    arcs = [a if a is None else _rebase(a, t, l) for a, t, l in zip(arcs, ts, logs)]
    moving = [i for i, arc in enumerate(arcs) if arc is not None]
    spine = [arcs[i] for i in moving]
    if series.depth == 1:
        chans = [series.coeffs]
    else:
        if series.channels is None:
            raise ValueError("depth-2 series without transport channels")
        chans = series.channels
        if min(len(c) for c in chans) < 2 * K - 1:
            raise ValueError("channels shorter than 2K-1: rectangle would go stale")
        a, b = (SpiralArc(l, 0.0) if arc is None else arc for arc, l in zip(arcs, logs))
        if isinstance(a, SpiralArc) and isinstance(b, SpiralArc):
            rho, order = SpiralArc(a.log_t - b.log_t, a.dlog - b.dlog), (0, 1)
        else:  # one line leg against the other coordinate, held fixed
            (i,) = moving
            line, t = arcs[i], ts[1 - i]
            rho, order = LineArc(line.z0 / t, line.z1 / t, start_log=line.start_log - logs[1 - i]), (i, 1 - i)
        spine.append(rho)
    check_clearance(spine, 1.0, CLEARANCE)
    check_clearance([a for a in arcs if isinstance(a, LineArc)], 0.0, CLEARANCE)

    def channel(i):
        if i in moving:
            return lambda s, lower: s[:, moving.index(i), : len(chans[i])]
        return lambda s, lower: np.zeros((len(s), len(chans[i])), dtype=complex)

    def table(s, lower):
        # rows -2, -1 are rho's forms; a column as a (K, 1) block lies along
        # b1, as a (1, K) block along b2; convolve_product pads it to K x K
        c1, c2 = lower
        if isinstance(rho, SpiralArc) and rho.dlog == 0:  # still: both forms are zero
            d = np.zeros((len(s), K, K), dtype=complex)
        else:
            a, c = (s[:, k - 2, :K] for k in order)
            d = convolve_product(a[:, :, None], _spread_col(c2, K))
            d -= convolve_product(c[:, None, :], _spread_col(c1, K))
        if 1 in moving:
            w2 = s[:, moving.index(1), :K]
            d += convolve_product(w2[:, None, :], c1[:, :K, None])
        return d

    levels = [(c, channel(i)) for i, c in enumerate(chans)]
    if series.depth == 2:
        levels.append((series.coeffs, table))
    form = _form(spine, max(len(c) for c in chans), series.depth == 2)
    panels = max(a.suggested_panels() for a in spine)
    ends = iterated_integral(panels, form, levels, DEFAULT_TOL)
    logs, ts = list(logs), list(ts)
    for i in moving:
        logs[i], ts[i] = arcs[i].log_point(1.0), arcs[i].point(1.0)
    chans = tuple(ends[:2]) if series.depth == 2 else None  # at depth 1, ends[-1] is the column
    return DebyeSeries(SimplicialPoint(ts), ends[-1], logs, chans, tag)


def _legs(series, legs, tag):
    """The leg loop: legs are tuples of one arc or None per coordinate,
    taken in order.  Every leg's result carries tag, so the last one is the
    answer; without legs it is a fresh series at the same state."""
    if not legs:
        return DebyeSeries(series.point, series.coeffs, series.logs, series.channels, tag)
    if 0 in series.point.ts:
        raise OutOfRegion("zero coordinate has no log branch to continue from")
    for arcs in legs:
        series = _advance(series, arcs, tag)
    return series


def continue_debye(series, legs):
    """Continue a Debye series along coordinate legs.

    legs: for depth 1 a list of arcs; for depth 2 a list of (j, arc) with
    j in {1, 2} naming the moving coordinate.  An arc is a LineArc or a
    SpiralArc; only its start point and shape are read, and it must start
    at the current coordinate value, whose branch it continues.  The input
    series is left as it was.  Every leg is one adaptive pass to
    DEFAULT_TOL, the depth-2 table on its K x K window, and every arc must
    keep CLEARANCE from 1 at its closest approach (a line arc from 0 too).
    At depth 2 that tolerance is checked only up to K = 8: from K = 10 on
    the cell (K-1, K-1) loses digits, and no error is raised.
    """
    tag = series.branch_tag + f" -> continued[{len(legs)} legs]"
    if series.depth == 1:
        return _legs(series, [(arc,) for arc in legs], tag)
    if any(j not in (1, 2) for j, _ in legs):
        raise ValueError("coordinate index must be 1 or 2")
    return _legs(series, [(arc, None) if j == 1 else (None, arc) for j, arc in legs], tag)


def transport_debye(shift, K, route="diagonal"):
    """Transport the Debye series along the spiral t_i -> q^{m_i} t_i, to
    DEFAULT_TOL, with every arc CLEARANCE away from 1; each leg is one
    adaptive pass, the depth-2 table on its K x K window.  At depth 2 that
    tolerance is checked only up to K = 8: from K = 10 on the cell
    (K-1, K-1) loses digits, and no error is raised.

    route (depth 2 only, checked at any depth): "diagonal" moves both
    coordinates at once, "axes" moves t_1 first and then t_2.  Both must
    agree for admissible shifts (path homotopy invariance).  Transport
    computes in doubles: a shift whose lattice context carries more digits
    is refused with UnsupportedPrecision.
    """
    if route not in ("diagonal", "axes"):
        raise ValueError(f"unknown route {route!r}")
    if shift.context.prec.digits > 16:
        raise UnsupportedPrecision(f"transport computes in doubles, not {shift.context.prec.digits} digits")
    shift.validate()
    base = debye_lambda(shift.base.depth, shift.base, K)
    log_q = 2j * np.pi * complex(shift.context.tau)
    arcs = [SpiralArc(l, m * log_q) for l, m in zip(base.logs, shift.m)]
    tag = f"transported[spiral m={shift.m} route={route}] <- origin-canonical"
    legs = [tuple(arcs)]
    if route == "axes":  # one leg per coordinate, the others held fixed
        legs = [tuple(a if i == j else None for i, a in enumerate(arcs)) for j in range(len(arcs))]
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
        return MultiSeries._of(vars, np.full((1,) * n, 1.0 / lead), e, (INF,) * n)
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
    return MultiSeries._of(vars, a, min_o, max_o)


def _compose_linear(coeffs_1d, lab, vars, M):
    """sum_n c_n (lab . beta)^n as a regular series, truncated at order M:
    the coefficient of beta^k is c_{|k|} |k|! prod_i lab_i^{k_i} / k_i!.
    A zero lab leaves c_0 alone."""
    active = [i for i, c in enumerate(lab) if c != 0]
    if len(active) > 2:
        raise NotImplementedError("at most two active variables")
    N = min(len(coeffs_1d) - 1, M) if active else 0
    k = np.arange(N + 1)
    fact = np.array([math.factorial(j) for j in range(N + 1)], dtype=float)
    cn = np.asarray(coeffs_1d[: N + 1], dtype=complex) * fact  # c_n n!
    w = [complex(lab[i]) ** k / fact for i in active]  # lab_i^k / k!
    if len(active) < 2:
        a = cn * w[0] if active else cn
    else:  # cell (k1, k2) takes c_n n! at n = k1 + k2, and 0 beyond N
        a = np.concatenate([cn, np.zeros(N, dtype=complex)])[np.add.outer(k, k)]
        a *= np.outer(w[0], w[1])
    shape = [N + 1 if i in active else 1 for i in range(len(vars))]
    return MultiSeries._of(vars, a.reshape(shape), (0,) * len(vars), (M,) * len(vars))


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
    r; ratios of J-coordinates stay finite.  K: the coefficients [0, K) are
    predicted, K >= 1 (ValueError otherwise).  constants: the 1-variable
    MultiSeries for C, with at least constants_order(K) regular orders
    (MissingConstants otherwise) and at most a simple pole (ValueError
    otherwise): only its regular orders and its (-1,) coefficient are read.

    A zero coordinate in J, whose log the leading monomials read, is refused
    with OutOfRegion; one outside J keeps its prediction.  Ratio arguments
    within DEFAULT_MARGIN of the unit circle are refused; those beyond the
    unit disk are inverted with the upper-crossing constant.  A fixed ratio
    in the lower half-plane sits one sheet below that choice: the prediction
    is offset by 2*pi*i times the tail constant at the merged label.
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
    if any(pt.ts[j - 1] == 0 for j in J):
        raise OutOfRegion("a coordinate in J is 0, where its log is singular")
    if K < 1:
        raise ValueError(f"order K = {K} must be at least 1")
    if len(constants.vars) != 1:
        raise ValueError("constants must be a series in one variable")
    (lo,) = constants.min_order
    if np.any(constants.a[: max(0, -1 - lo)]):
        raise ValueError("constants may have at most a simple pole")
    M = constants_order(K)
    if constants.max_order[0] < M:
        raise MissingConstants(
            f"constants series needs {M} regular orders for K={K}"
        )
    vars = ("b",) if r == 1 else ("b1", "b2")
    ts = pt.ts + (1.0 + 0.0j,)
    logs = [cmath.log(t) if t != 0 else 0.0 for t in ts]

    n = np.arange(max(lo, 0), min(lo + len(constants.a), M + 1))
    c_reg = np.zeros(M + 1, dtype=complex)  # C's regular orders 0..M, zero-padded
    c_reg[n] = constants.a[n - lo]
    c_pole = constants.coeff((-1,))

    def phi_realize(s):
        """Leading monomial of an essential symbol: exp(-sum_k (lab_k . beta)
        log t_k) over the product of the partial sums of its labels."""
        slots = list(zip(s.ts, s.labels))
        v = [sum((complex(-lab[j]) * logs[i - 1] for i, lab in slots), 0j) for j in range(len(vars))]
        out = _compose_linear([0, 1], v, vars, M).exp()
        for p in accumulate(s.labels[:-1], lambda x, y: [a + b for a, b in zip(x, y)]):
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
        (num_i, den_i), (lab, _) = s.ts, s.labels
        ratio = ts[num_i - 1] / ts[den_i - 1]
        lab = [complex(c) for c in lab]
        if abs(ratio) <= 1.0 - DEFAULT_MARGIN:
            return lam_series(ratio, lab)
        if abs(ratio) >= 1.0 / (1.0 - DEFAULT_MARGIN):
            flipped = lam_series(1.0 / ratio, [-c for c in lab])
            pole = _inv_linear(lab, vars, K)
            pref = _compose_linear([0, 1], [-cmath.log(ratio) * c for c in lab], vars, M).exp()
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
