"""Multiple polylogarithms and their Debye generating series.

Convergent series evaluation (direct and nested-sum forms), the iterated
integral route, transport of the generating series along spiral or line
paths with explicit log-branch bookkeeping, and divisor asymptotics
assembled through the string coproduct.
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
    LineArc,
    PathSpec,
    SpiralArc,
    convolve_product,
    iterated_integral,
    path_integral,
)
from .series import INF, MultiSeries

DEFAULT_MARGIN = 0.05
DEFAULT_TOL = 1e-10
QUAD_TOL = 1e-11


class MultiIndex:
    """Exponent tuple (n_1..n_r), all entries >= 1."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(int(n) for n in entries)
        if not self.entries:
            raise ValueError("empty index")
        if any(n < 1 for n in self.entries):
            raise ValueError("index entries must be >= 1")

    @property
    def depth(self):
        return len(self.entries)

    @property
    def weight(self):
        return sum(self.entries)

    def __repr__(self):
        return f"MultiIndex{self.entries}"


class SimplicialPoint:
    """Arguments (t_1..t_r) with the conventions t_{r+1} = 1, t_0 = 0.

    Zero coordinates are allowed at construction; operations that need
    ratios or logs check lazily.
    """

    __slots__ = ("ts",)

    def __init__(self, ts):
        self.ts = tuple(complex(t) for t in ts)
        if not self.ts:
            raise ValueError("need at least one coordinate")

    @property
    def depth(self):
        return len(self.ts)

    def ratios(self):
        """x_i = t_i / t_{i+1} with t_{r+1} = 1."""
        ext = self.ts + (1.0 + 0.0j,)
        out = []
        for a, b in zip(ext, ext[1:]):
            if b == 0:
                raise OutOfRegion("ratio hits a zero coordinate")
            out.append(a / b)
        return tuple(out)

    def __repr__(self):
        return f"SimplicialPoint{self.ts}"


class DebyeSeries:
    """Generating series value at a point, with branch provenance.

    value: MultiSeries in b (depth 1) or b1, b2 (depth 2), window
    [0, K-1] per variable, prefactors expanded.  logs are the current
    log branches of the coordinates; channels hold the depth-1 series
    (own single variable) at t_1 and t_2 used by the transport system.
    """

    __slots__ = ("point", "value", "branch_tag", "logs", "channels")

    def __init__(self, point, value, branch_tag, logs, channels=None):
        self.point = point
        self.value = value
        self.branch_tag = branch_tag
        self.logs = tuple(logs)
        self.channels = channels

    @property
    def depth(self):
        return self.point.depth

    def order(self):
        return self.value.max_order[0] + 1


class SpiralShift:
    """Integer spiral exponents m against a base point and lattice context."""

    __slots__ = ("m", "base", "context")

    def __init__(self, m, base, context):
        self.m = tuple(int(x) for x in m)
        self.base = base
        self.context = context
        if len(self.m) != base.depth:
            raise ValueError("one exponent per coordinate")

    def validate(self, tol=1e-9):
        """The spiral family through the base must avoid 1: no coordinate
        and no coordinate ratio may lie on a real q-power."""
        tau = complex(self.context.tau)
        ts = self.base.ts
        probes = list(ts)
        for i in range(len(ts)):
            for j in range(len(ts)):
                if i != j:
                    if ts[j] == 0:
                        raise OutOfRegion("zero coordinate has no spiral")
                    probes.append(ts[i] / ts[j])
        for w in probes:
            if w == 0:
                raise OutOfRegion("zero coordinate has no spiral")
            v = cmath.log(w) / (2j * math.pi)
            c = v.imag / tau.imag
            k = v.real - c * tau.real
            if abs(k - round(k)) < tol:
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


def _li_nested(xs, orders, tol):
    """sum over 0 < k_1 < ... < k_r of prod x_i^{k_i} / k_i^{n_i}."""
    mods = [abs(x) for x in xs]
    if min(mods) == 0.0:
        return 0.0 + 0.0j
    N = _tail_length(max(mods), tol)
    k = np.arange(1, N + 1, dtype=float)
    prev = None
    for x, n in zip(xs, orders):
        a = x ** k / k ** n
        if prev is not None:
            shifted = np.concatenate(([0.0 + 0.0j], np.cumsum(prev)[:-1]))
            a = a * shifted
        prev = a
    return complex(prev.sum())


def _simplicial_nested(ts, orders, tol):
    """sum over a_i >= 1 of prod t_i^{a_i} / (a_1)^{n_1} (a_1+a_2)^{n_2} ..."""
    mods = [abs(t) for t in ts]
    if min(mods) == 0.0:
        return 0.0 + 0.0j
    N = _tail_length(max(mods), tol)
    A = np.arange(1, N + 1, dtype=float)
    f = ts[0] ** A / A ** orders[0]
    for t, n in zip(ts[1:], orders[1:]):
        g = np.zeros(N, dtype=complex)
        for B in range(1, N):
            g[B] = t * (g[B - 1] + f[B - 1])
        f = g / A ** n
    return complex(f.sum())


def eval_classical(idx, pt, mode="li_series", path=None, delta=DEFAULT_MARGIN, tol=1e-14):
    """Evaluate Li_{n_1..n_r} / I_{n_1..n_r} at a simplicial point.

    li_series sums over the ratio arguments x_i = t_i/t_{i+1};
    simplicial_series uses the nested form in the t_i directly;
    iterated_integral integrates dsigma/(sigma - rho_k) along a path from
    0 to 1 (default: the straight segment).
    """
    if idx.depth != pt.depth:
        raise ValueError("index and point depth differ")
    if mode == "li_series":
        xs = pt.ratios()
        if any(abs(x) > 1.0 - delta for x in xs):
            raise OutOfRegion(f"|x| too close to 1 (margin {delta})")
        return _li_nested(xs, idx.entries, tol)
    if mode == "simplicial_series":
        if any(abs(t) > 1.0 - delta for t in pt.ts):
            raise OutOfRegion(f"|t| too close to 1 (margin {delta})")
        return _simplicial_nested(pt.ts, idx.entries, tol)
    if mode == "iterated_integral":
        rho = []
        for t, n in zip(pt.ts, idx.entries):
            if t == 0:
                raise OutOfRegion("iterated integral needs nonzero t_i")
            rho.extend([1.0 / t] + [0.0] * (n - 1))
        arcs = path if path is not None else [LineArc(0.0, 1.0)]
        spec = PathSpec(arcs, singular=[r for r in rho if r != 0], clearance=delta / 2)
        spec.validate()
        forms = []
        for r in reversed(rho):
            forms.append(lambda z, v, r=r: v / (z - r))
        val = iterated_integral(spec, forms, tol=QUAD_TOL)
        return (-1) ** idx.depth * complex(val)
    raise ValueError(f"unknown mode {mode!r}")


def _li_column(t, K, tol):
    """[Li_1(t), ..., Li_K(t)]."""
    if t == 0:
        return np.zeros(K, dtype=complex)
    N = _tail_length(abs(t), tol)
    k = np.arange(1, N + 1, dtype=float)
    tk = t ** k
    return np.array([np.sum(tk / k ** m) for m in range(1, K + 1)])


_NESTED_BLOCK = 256  # a1-rows per block of _nested_table: O(block * N) memory


def _nested_table(t1, t2, K, tol):
    """I_{m1,m2}(t1,t2) for 1 <= m1, m2 <= K, summed over blocks of a1."""
    if t1 == 0 or t2 == 0:
        return np.zeros((K, K), dtype=complex)
    N = _tail_length(max(abs(t1), abs(t2)), tol)
    a = np.arange(1, N + 1, dtype=float)
    t1a = t1 ** a
    t2b = t2 ** a
    out = np.zeros((K, K), dtype=complex)
    for lo in range(0, N, _NESTED_BLOCK):
        rows = slice(lo, lo + _NESTED_BLOCK)
        ABinv = 1.0 / (a[rows, None] + a[None, :])
        cur = np.ones_like(ABinv)
        for m2 in range(1, K + 1):
            cur = cur * ABinv
            Q = cur @ t2b
            acol = t1a[rows].copy()
            for m1 in range(1, K + 1):
                acol = acol / a[rows]
                out[m1 - 1, m2 - 1] += np.sum(acol * Q)
    return out


def _exp_coeffs(l, K):
    """Coefficients of exp(-b*l) up to b^{K-1}, on a trailing axis after the
    shape of l (one log or an array of them)."""
    l = np.asarray(l, dtype=complex)[..., None]
    steps = np.concatenate([np.ones_like(l), -l / np.arange(1, K)], axis=-1)
    return np.cumprod(steps, axis=-1)


def _conv(a, b):
    return convolve_product(np.asarray(a)[None], np.asarray(b)[None])[0]


def _debye_column(t, K, tol):
    """Depth-1 coefficients of t^{-b} sum_m Li_m(t) b^{m-1} (principal log)."""
    if t == 0:
        return np.zeros(K, dtype=complex)
    return _conv(_exp_coeffs(cmath.log(t), K), _li_column(t, K, tol))


def _series_from_array(arr, vars):
    arr = np.asarray(arr)
    terms = {}
    for e in np.ndindex(arr.shape):
        c = arr[e]
        if c != 0:
            terms[e] = complex(c)
    return MultiSeries(vars, terms, tuple(s - 1 for s in arr.shape))


def _array_from_series(value, K):
    r = len(value.vars)
    arr = np.zeros((K,) * r, dtype=complex)
    for e, c in value.terms.items():
        if all(0 <= x < K for x in e):
            arr[e] = c
    return arr


def _embed_rows(c, K):
    """Columns (trailing axis) laid along b1 into K x K blocks."""
    out = np.zeros(c.shape[:-1] + (K, K), dtype=complex)
    out[..., : c.shape[-1], 0] = c
    return out


def _embed_cols(c, K):
    """Columns (trailing axis) laid along b2 into K x K blocks."""
    out = np.zeros(c.shape[:-1] + (K, K), dtype=complex)
    out[..., 0, : c.shape[-1]] = c
    return out


@lru_cache(maxsize=8)
def _binomials(K):
    """T[i, j, i+k, j-k] = C(j, k): b1^i s^j re-expanded with s = b1 + b2."""
    i, j, k = np.indices((K, K, K))
    keep = (k <= j) & (i + k < K)
    i, j, k = i[keep], j[keep], k[keep]
    T = np.zeros((K,) * 4)
    T[i, j, i + k, j - k] = [math.comb(a, b) for a, b in zip(j, k)]
    return T


def _spread(tab, K):
    """Re-expand a K x K table in (b1, s = b1 + b2) against (b1, b2)."""
    return np.tensordot(tab, _binomials(K), axes=2)


def _spread_col(col, K):
    """Re-expand columns in s alone (trailing axis, the b1^0 row of a table)
    against (b1, b2): K x K blocks."""
    return np.tensordot(col[..., :K], _binomials(K)[0], axes=1)


def debye_lambda(r, pt, K, delta=DEFAULT_MARGIN, tol=1e-15):
    """Generating series at a point of the convergence polydisk.

    Depth 1: sum_m Li_m(t) b^{m-1} times t^{-b}.  Depth 2: the nested-sum
    table is resummed against (b1, b1+b2) -- the denominators attached to
    the partial sums a1 and a1+a2 carry the matching partial sums of the
    deformation variables -- then re-expanded against (b1, b2) and dressed
    with both prefactors.  Prefactor exponentials are expanded into the
    coefficients (principal logs).
    """
    if r != pt.depth:
        raise ValueError("depth mismatch")
    if any(abs(t) > 1.0 - delta for t in pt.ts):
        raise OutOfRegion(f"|t| too close to 1 (margin {delta})")
    if r == 1:
        (t,) = pt.ts
        value = _series_from_array(_debye_column(t, K, tol), ("b",))
        lt = cmath.log(t) if t != 0 else 0.0
        return DebyeSeries(pt, value, "origin-canonical", (lt,), None)
    if r == 2:
        t1, t2 = pt.ts
        if t1 == 0 or t2 == 0:
            value = MultiSeries.zero(("b1", "b2"), K - 1)
            return DebyeSeries(pt, value, "origin-canonical", (0.0, 0.0), None)
        l1, l2 = cmath.log(t1), cmath.log(t2)
        # re-expanding (b1, b1+b2) -> (b1, b2) pulls in totals up to 2K-2,
        # so the rectangle is only exact when built at padded order
        Kp = 2 * K - 1
        body = _spread(_nested_table(t1, t2, Kp, tol), Kp)
        pref = np.outer(_exp_coeffs(l1, Kp), _exp_coeffs(l2, Kp))
        arr = _conv(pref, body)[:K, :K]
        value = _series_from_array(arr, ("b1", "b2"))
        channels = {"c1": _debye_column(t1, Kp, tol), "c2": _debye_column(t2, Kp, tol)}
        return DebyeSeries(pt, value, "origin-canonical", (l1, l2), channels)
    raise ValueError("depth 1 or 2 only")


# ----------------------------------------------------------------- transport


def _form(arc, K, place=None):
    """Coefficients of w^{-b} dw/(1-w) along an arc at a node vector: (N, K)
    columns, or those columns laid into K x K blocks by place (_embed_rows,
    _embed_cols or _spread_col)."""

    def f(_arc, us):
        dlog = arc.velocity(us) / (1.0 - arc.point(us))
        col = _exp_coeffs(arc.log_point(us), K) * dlog[:, None]
        return col if place is None else place(col, K)

    return BranchedForm(f)


class _RatioArc:
    """numerator arc divided by a constant."""

    def __init__(self, arc, den, den_log):
        self.arc = arc
        self.den = den
        self.den_log = den_log

    def point(self, u):
        return self.arc.point(u) / self.den

    def velocity(self, u):
        return self.arc.velocity(u) / self.den

    def log_point(self, u):
        return self.arc.log_point(u) - self.den_log

    def end_log(self):
        return self.log_point(1.0)

    def suggested_panels(self):
        return self.arc.suggested_panels()


class _InvRatioArc:
    """constant divided by the denominator arc."""

    def __init__(self, num, num_log, arc):
        self.num = num
        self.num_log = num_log
        self.arc = arc

    def point(self, u):
        return self.num / self.arc.point(u)

    def velocity(self, u):
        p = self.arc.point(u)
        return -self.num * self.arc.velocity(u) / (p * p)

    def log_point(self, u):
        return self.num_log - self.arc.log_point(u)

    def end_log(self):
        return self.log_point(1.0)

    def suggested_panels(self):
        return self.arc.suggested_panels()


def _check_clear(arcs, clearance):
    for arc in arcs:
        PathSpec([arc], singular=(1.0,), clearance=clearance).validate()


def _spine(arcs):
    best = max(arcs, key=lambda a: a.suggested_panels())
    return PathSpec([best])


def _single(path, form, tol):
    return np.asarray(path_integral(path, form, tol=tol))


def _double(path, outer, inner, tol):
    return np.asarray(
        iterated_integral(path, [outer, inner], tol=tol, product=convolve_product)
    )


def _state_from(series):
    """Transport state: per-coordinate logs and points, and per coordinate
    the depth-1 column lam (for depth 1 that is the value itself; depth 2
    keeps its value in table and the channels at padded order in lam)."""
    K = series.order()
    state = {
        "K": K,
        "vars": series.value.vars,
        "logs": list(series.logs),
        "ts": list(series.point.ts),
    }
    value = _array_from_series(series.value, K)
    if series.depth == 1:
        state["lam"] = [value]
        return state
    if series.channels is None:
        raise ValueError("depth-2 series without transport channels")
    lam = [np.array(series.channels[c], dtype=complex) for c in ("c1", "c2")]
    Kp = min(len(c) for c in lam)
    if Kp < 2 * K - 1:
        raise ValueError("channels shorter than 2K-1: rectangle would go stale")
    state.update(Kp=Kp, table=value, lam=lam)
    return state


def _rebase(arc, t, l):
    """Attach the current branch to an arc starting at t."""
    if isinstance(arc, LineArc):
        if abs(arc.z0 - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("arc does not start at the current point")
        return LineArc(arc.z0, arc.z1, start_log=l)
    if isinstance(arc, SpiralArc):
        if abs(arc.point(0.0) - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("arc does not start at the current point")
        return SpiralArc(t, arc.m, arc.log_q / (2j * math.pi), s0=arc.s0, s1=arc.s1, log_t=l)
    raise TypeError(f"unsupported arc type {type(arc).__name__}")


def _advance(state, path, arcs, tol):
    """Integrate the channel of every moving coordinate (arc not None) and
    move its log and point to the arc end."""
    lam = state["lam"]
    for i, arc in enumerate(arcs):
        if arc is not None:
            lam[i] = lam[i] + _single(path, _form(arc, len(lam[i])), tol)
            state["logs"][i] = arc.end_log()
            state["ts"][i] = arc.point(1.0)


def _leg_depth1(state, arc, tol, clearance):
    arc = _rebase(arc, state["ts"][0], state["logs"][0])
    _check_clear([arc], clearance)
    _advance(state, _spine([arc]), [arc], tol)


def _leg2(state, arc1, arc2, arc_a, arc_c, tol, clearance):
    """Advance a depth-2 state along arc1 (t1) and arc2 (t2), with arc_a and
    arc_c the matching paths of t1/t2 and t2/t1.  None marks a coordinate
    that stays fixed: the terms whose form sits on it integrate to 0 and
    are skipped."""
    K, Kp = state["K"], state["Kp"]
    c1, c2 = state["lam"]
    arcs = [a for a in (arc1, arc2, arc_a, arc_c) if a is not None]
    _check_clear(arcs, clearance)
    path = _spine(arcs)
    ga = _form(arc_a, Kp, _embed_rows)
    gc = _form(arc_c, Kp, _embed_cols)
    d = _conv(_single(path, ga, tol), _spread_col(c2, Kp))
    if arc2 is not None:
        gb = _form(arc2, Kp, _embed_cols)
        d = d + _double(path, ga, _form(arc2, Kp, _spread_col), tol)
        d = d + _conv(_single(path, gb, tol), _embed_rows(c1, Kp))
        if arc1 is not None:
            d = d + _double(path, gb, _form(arc1, Kp, _embed_rows), tol)
    d = d - _conv(_single(path, gc, tol), _spread_col(c1, Kp))
    if arc1 is not None:
        d = d - _double(path, gc, _form(arc1, Kp, _spread_col), tol)
    state["table"] = state["table"] + d[:K, :K]
    _advance(state, path, [arc1, arc2], tol)


def _leg_axis(state, j, arc, tol, clearance):
    """Move one coordinate of a depth-2 state along an arc."""
    (l1, l2), (t1, t2) = state["logs"], state["ts"]
    if j == 1:
        arc1 = _rebase(arc, t1, l1)
        arcs = (arc1, None, _RatioArc(arc1, t2, l2), _InvRatioArc(t2, l2, arc1))
    elif j == 2:
        arc2 = _rebase(arc, t2, l2)
        arcs = (None, arc2, _InvRatioArc(t1, l1, arc2), _RatioArc(arc2, t1, l1))
    else:
        raise ValueError("coordinate index must be 1 or 2")
    _leg2(state, *arcs, tol, clearance)


def _leg_diag(state, m, tau, tol, clearance):
    """Move both coordinates simultaneously along their spirals."""
    (l1, l2), (t1, t2) = state["logs"], state["ts"]
    _leg2(
        state,
        SpiralArc(t1, m[0], tau, log_t=l1),
        SpiralArc(t2, m[1], tau, log_t=l2),
        SpiralArc(t1 / t2, m[0] - m[1], tau, log_t=l1 - l2),
        SpiralArc(t2 / t1, m[1] - m[0], tau, log_t=l2 - l1),
        tol,
        clearance,
    )


def _wrap_state(state, tag):
    lam = state["lam"]
    if "table" in state:
        value, channels = state["table"], {"c1": lam[0], "c2": lam[1]}
    else:
        value, channels = lam[0], None
    pt = SimplicialPoint(tuple(state["ts"]))
    value = _series_from_array(value, state["vars"])
    return DebyeSeries(pt, value, tag, tuple(state["logs"]), channels)


def continue_debye(series, legs, tol=DEFAULT_TOL, clearance=1e-3):
    """Continue a Debye series along coordinate legs.

    legs: for depth 1 a list of arcs; for depth 2 a list of (j, arc) with
    j in {1, 2} naming the moving coordinate.  Branch data is taken from
    the series state; each arc must start at the current coordinate value.
    """
    state = _state_from(series)
    if series.depth == 1:
        for arc in legs:
            _leg_depth1(state, arc, tol, clearance)
    else:
        for j, arc in legs:
            _leg_axis(state, j, arc, tol, clearance)
    tag = series.branch_tag + f" -> continued[{len(legs)} legs]"
    return _wrap_state(state, tag)


def transport_debye(shift, K, route="diagonal", tol=DEFAULT_TOL, clearance=1e-3):
    """Transport the Debye series along the spiral t_i -> q^{m_i} t_i.

    route (depth 2 only): "diagonal" moves both coordinates at once,
    "axes" moves t_1 first and then t_2.  Both must agree for admissible
    shifts (path homotopy invariance).
    """
    shift.validate()
    base = debye_lambda(shift.base.depth, shift.base, K)
    tau = complex(shift.context.tau)
    state = _state_from(base)
    if base.depth == 1:
        arc = SpiralArc(state["ts"][0], shift.m[0], tau, log_t=state["logs"][0])
        _leg_depth1(state, arc, tol, clearance)
    elif route == "diagonal":
        _leg_diag(state, shift.m, tau, tol, clearance)
    elif route == "axes":
        for j, m in enumerate(shift.m, 1):
            arc = SpiralArc(state["ts"][j - 1], m, tau, log_t=state["logs"][j - 1])
            _leg_axis(state, j, arc, tol, clearance)
    else:
        raise ValueError(f"unknown route {route!r}")
    tag = f"transported[spiral m={shift.m} route={route}] <- origin-canonical"
    return _wrap_state(state, tag)


def transport_ray(pt, j, factor, K, tol=DEFAULT_TOL, clearance=1e-3, delta=DEFAULT_MARGIN):
    """Continue the depth-2 series radially: t_j -> factor * t_j."""
    base = debye_lambda(2, pt, K, delta=delta)
    t = pt.ts[j - 1]
    arc = LineArc(t, factor * t)
    return continue_debye(base, [(j, arc)], tol=tol, clearance=clearance)


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
    if not rest:
        e = tuple(-1 if i == p else 0 for i in range(len(vars)))
        return MultiSeries(vars, {e: 1.0 / lead}, (INF,) * len(vars), e)
    if len(rest) > 1:
        raise NotImplementedError("more than two active variables")
    q = rest[0]
    ratio = complex(coeffs[q]) / lead
    terms = {}
    for k in range(K + 2):
        e = tuple(
            (-1 - k) if i == p else (k if i == q else 0) for i in range(len(vars))
        )
        terms[e] = (1.0 / lead) * (-ratio) ** k
    max_o = tuple(K + 1 if i == q else INF for i in range(len(vars)))
    min_o = tuple((-2 - K) if i == p else 0 for i in range(len(vars)))
    return MultiSeries(vars, terms, max_o, min_o)


def _compose_linear(coeffs_1d, lab, vars, M):
    """sum_n c_n (lab . beta)^n as a regular series, truncated at order M:
    the coefficient of beta^k is c_{|k|} |k|! prod_i lab_i^{k_i} / k_i!."""
    active = [i for i, c in enumerate(lab) if c != 0]
    if not 1 <= len(active) <= 2:
        raise NotImplementedError("one or two active variables only")
    N = min(len(coeffs_1d) - 1, M)
    fact = [math.factorial(k) for k in range(N + 1)]
    pw = [[complex(lab[i]) ** k for k in range(N + 1)] for i in active]
    terms = {}
    for n, cn in enumerate(coeffs_1d[: N + 1]):
        if cn == 0:
            continue
        for k in range(n + 1) if len(active) == 2 else (n,):
            coef = cn * fact[n]
            e = [0] * len(vars)
            for i, ki, p in zip(active, (k, n - k), pw):
                coef = coef * p[ki] / fact[ki]
                e[i] = ki
            terms[tuple(e)] = coef
    return MultiSeries(vars, terms, (M,) * len(vars))


def _linear_series(lab, logs, vars, M):
    """sum over slots of (lab_k . beta) * log(t_{slot k}) as a linear series."""
    terms = {}
    for labvec, l in zip(lab, logs):
        for i, c in enumerate(labvec):
            if c != 0 and l != 0:
                e = tuple(1 if j == i else 0 for j in range(len(vars)))
                terms[e] = terms.get(e, 0) + complex(c) * l
    return MultiSeries(vars, terms, (M,) * len(vars))


@lru_cache(maxsize=32)
def _asymptotic_terms(r, J):
    """Classified string-coproduct term list of depth r for the set J."""
    return tuple(hopf.assemble_asymptotic(hopf.canonical_symbol(r + 1), J))


def asymptotic_eval(r, J, pt, K, constants=None, symbolic=False, delta=DEFAULT_MARGIN):
    """Prediction for the generating series when the coordinates in J grow.

    Symbolic mode returns the exact classified term list from the string
    coproduct (any depth).  Numeric mode (depth <= 2) assembles a
    MultiSeries in the label variables: leading monomials with their
    partial-sum denominators, regular series at the surviving ratio
    arguments, and boundary constants C evaluated on the essential tails.
    pt supplies the actual coordinate values (large along J); ratios of
    J-coordinates stay finite.  constants: 1-variable MultiSeries for C.

    Ratio arguments beyond the unit disk are inverted with the
    upper-crossing constant.  A fixed ratio in the lower half-plane sits
    one sheet below that choice: the prediction is offset by 2*pi*i
    times the tail constant at the merged label.
    """
    if not J:
        raise ValueError("J must be non-empty")
    J = frozenset(J)
    if not J <= set(range(1, r + 1)):
        raise ValueError("J must index the first r coordinates")
    terms = _asymptotic_terms(r, J)
    if symbolic:
        return list(terms)
    if r > 2:
        raise ValueError("numeric asymptotics implemented for depth <= 2")
    if constants is None:
        raise MissingConstants("supply the C(beta) series")
    M = constants_order(K)
    if constants.max_order[0] < M:
        raise MissingConstants(
            f"constants series needs {M} regular orders for K={K}"
        )
    vars = ("b",) if r == 1 else ("b1", "b2")
    ts = pt.ts + (1.0 + 0.0j,)
    logs = [cmath.log(t) if t != 0 else 0.0 for t in ts]

    c_reg = [constants.coeff((n,)) for n in range(M + 1)]
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
        return _compose_linear(_debye_column(ratio, M + 1, 1e-15), lab, vars, M)

    def lam_realize(s):
        """Depth-1 value at the surviving ratio argument; outside the unit
        disk it is continued through the inversion identity on the
        principal branch."""
        (pair,), (lab,) = hopf.lambda_args(s)
        num_i, den_i = pair
        ratio = ts[num_i - 1] / ts[den_i - 1]
        lab = [complex(c) for c in lab]
        if abs(ratio) <= 1.0 - delta:
            return lam_series(ratio, lab)
        if abs(ratio) >= 1.0 / (1.0 - delta):
            flipped = lam_series(1.0 / ratio, [-c for c in lab])
            pole = _inv_linear(lab, vars, K)
            pref = _compose_linear(_exp_coeffs(cmath.log(ratio), M + 1), lab, vars, M)
            return flipped + pole * pref + c_linear(lab)
        raise OutOfRegion(f"ratio argument {ratio} too close to the unit circle")

    def c_realize(s):
        body = s.labels[:-1]
        if len(body) == 1:
            return c_linear([complex(c) for c in body[0]])
        if len(body) == 2:
            b2 = [complex(c) for c in body[1]]
            b12 = [complex(x + y) for x, y in zip(body[0], body[1])]
            return c_linear(b2) * c_linear(b12)
        raise MissingConstants(
            f"no boundary constants for essential symbols of length {len(body) + 1}"
        )

    total = None
    for coeff, phi_slot, lam_slot, c_slot in terms:
        val = MultiSeries.const(vars, complex(coeff), (M,) * len(vars))
        for s in phi_slot:
            val = val * phi_realize(s)
        for s in lam_slot:
            val = val * lam_realize(s)
        for s in c_slot:
            val = val * c_realize(s)
        total = val if total is None else total + val
    return total
