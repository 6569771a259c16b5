"""The three benchmark workloads.

Each workload turns a seed into inputs (``setup``), runs one op on one input
(``run``, the only timed call), reduces the op's output to the few arrays the
checks need (``digest``, so the bench holds no large results while it
measures memory) and judges a digest against an independent oracle
(``reference`` and ``check``, untimed).  Inputs are drawn with the standard
library's ``random.Random(seed)``; the program only ever receives the
generated inputs.  Numpy and ``epolylog`` are imported inside ``setup`` so
that their import time is part of the measured set-up.

Mixes are drawn in fixed-composition blocks (each block a seeded permutation)
so that every seed runs the same share of each op kind and the medians do not
move with the seed.  The shares put p50 and p90 in the upper part of one op
kind's times, not near the boundary between two kinds: on a host whose speed
swings between a fast and a slow state every few seconds, a quantile low in a
kind's times jumps between the two states from run to run.
"""

import cmath
import math
import random
from collections import Counter
from fractions import Fraction


def _import_epolylog(src):
    import epolylog

    where = epolylog.__file__
    if not where.startswith(src):
        raise ImportError(f"epolylog imported from {where}, expected the checkout's {src}")


def _max_err(got, ref):
    """(max |got - ref|, max |ref|) over two coefficient arrays."""
    import numpy as np

    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    return float(np.max(np.abs(got - ref))), float(np.max(np.abs(ref)))


# ----------------------------------------------------------- debye_transport


class DebyeTransport:
    """Base-point series -> spiral transport -> ray continuation -> asymptotic
    prediction (ROADMAP pipeline 1)."""

    name = "debye_transport"
    why = (
        "spiral/ray transport and asymptotics: time goes to quadrature, polylog "
        "coefficient forms and series products; K in {4,6,8} puts the K^2 cost in the tail"
    )
    tau = 0.1 + 0.8j
    # (depth, K) per block: p50 lands 3/4 into the K=6 ops, p90 3/4 into K=8
    block = [(1, 12)] * 5 + [(2, 4)] * 1 + [(2, 6)] * 6 + [(2, 8)] * 8
    max_rate = 40  # inputs pre-generated per second of run time
    tolerance = 1e-6  # error (relative to max(1, |coefficients|)) that fails an op
    margin = 0.05  # distance from 1 that every path keeps (program needs 1e-3)

    def setup(self, seed, seconds, src, stored):
        _import_epolylog(src)
        from epolylog import polylog
        from epolylog.kronecker import LatticeContext, zeta_even
        from epolylog.quadrature import LineArc
        from epolylog.series import MultiSeries

        self.pl = polylog
        self.LineArc = LineArc
        self.ctx = LatticeContext(self.tau, precision=15)
        self.log_q = 2j * math.pi * self.tau
        self.constants = {}
        for K in sorted({k for _, k in self.block}):
            M = polylog.constants_order(K)
            terms = {(-1,): -1.0 + 0j, (0,): 1j * math.pi}
            for k in range(1, (M + 2) // 2 + 1):
                terms[(2 * k - 1,)] = 2 * zeta_even(2 * k)
            self.constants[K] = MultiSeries(("b",), terms, (M,), (-1,))
        rng = random.Random(seed)
        count = max(2, math.ceil(seconds * self.max_rate / len(self.block)))
        routes = Counter()  # depth-2 ops of each K alternate diagonal / axes
        self.rejected = 0
        self.inputs = []
        for _ in range(count):
            kinds = list(self.block)
            rng.shuffle(kinds)
            for depth, K in kinds:
                route = None
                if depth == 2:
                    route = ("diagonal", "axes")[routes[K] % 2]
                    routes[K] += 1
                self.inputs.append(self._draw(rng, depth, K, route))
        self.run(self._draw(random.Random(f"warm-{seed}"), 2, 6, "diagonal"))

    def _draw(self, rng, depth, K, route):
        """One admissible op input; inadmissible draws are redrawn, never run."""
        while True:
            ts = tuple(
                rng.uniform(0.3, 0.85) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                for _ in range(depth)
            )
            inp = {
                "depth": depth,
                "K": K,
                "route": route,
                "ts": ts,
                "m": (1,) * depth,
                "j": rng.randint(1, depth),
                "factor": rng.uniform(8.0, 64.0),
            }
            if self._admissible(inp):
                return inp
            self.rejected += 1

    def _paths(self, inp):
        """Sampled coordinate and ratio paths the op integrates along."""
        import numpy as np

        # dense enough that a ratio spiral growing by 1/|q| ~ 150 moves < 1 % per step
        s = np.linspace(0.0, 1.0, 1025)
        logs0 = np.array([cmath.log(t) for t in inp["ts"]])
        dl = np.array([m * self.log_q for m in inp["m"]])
        paths = []
        if inp["depth"] == 1 or inp["route"] == "diagonal":
            legs = [np.outer(s, dl)]
        else:
            legs = [np.outer(s, dl * [1, 0]), dl * [1, 0] + np.outer(s, dl * [0, 1])]
        for leg in legs:
            paths.append(np.exp(logs0 + leg))
        end = np.exp(logs0 + dl)
        ray = np.tile(end, (len(s), 1)).astype(complex)
        ray[:, inp["j"] - 1] *= 1.0 + (inp["factor"] - 1.0) * s
        paths.append(ray)
        pts = []
        for p in paths:
            pts.append(p)
            if inp["depth"] == 2:
                pts.append((p[:, 0] / p[:, 1])[:, None])
                pts.append((p[:, 1] / p[:, 0])[:, None])
        return pts, ray[-1]

    def _admissible(self, inp):
        from epolylog.errors import EpolylogError

        pt = self.pl.SimplicialPoint(inp["ts"])
        try:
            self.pl.SpiralShift(inp["m"], pt, self.ctx).validate()
        except EpolylogError:
            return False
        pts, final = self._paths(inp)
        for p in pts:
            if abs(p - 1.0).min() < self.margin:
                return False
        if max(abs(final)) > 0.8:
            return False
        if inp["depth"] == 2:
            ratio = abs(final[0] / final[1])
            if 1.0 - 2 * self.margin < ratio < 1.0 / (1.0 - 2 * self.margin):
                return False
        return True

    def run(self, inp):
        pl = self.pl
        shift = pl.SpiralShift(inp["m"], pl.SimplicialPoint(inp["ts"]), self.ctx)
        tr = pl.transport_debye(shift, inp["K"], route=inp["route"] or "diagonal")
        j = inp["j"]
        t = tr.point.ts[j - 1]
        arc = self.LineArc(t, inp["factor"] * t)
        cont = pl.continue_debye(tr, [arc] if inp["depth"] == 1 else [(j, arc)])
        pred = pl.asymptotic_eval(
            inp["depth"], {j}, cont.point, inp["K"], constants=self.constants[inp["K"]]
        )
        return tr, cont, pred

    @staticmethod
    def _coeffs(series, K, depth):
        import numpy as np

        if depth == 1:
            return np.array([series.value.coeff((k,)) for k in range(K)])
        return np.array([[series.value.coeff((i, j)) for j in range(K)] for i in range(K)])

    def requested_digits(self, inp):
        return 10  # polylog.DEFAULT_TOL = 1e-10

    def reference(self, inp):
        """Endpoint, branch logs and direct-sum coefficients after the spiral
        and after the ray, from the path data alone: the spiral adds
        m * 2*pi*i*tau to each log, the ray adds log(factor) to coordinate j."""
        from oracles import debye_coefficients

        logs = [cmath.log(t) + m * self.log_q for t, m in zip(inp["ts"], inp["m"])]
        stages = []
        for stage in ("spiral", "ray"):
            if stage == "ray":
                logs = list(logs)
                logs[inp["j"] - 1] += math.log(inp["factor"])
            ts = [cmath.exp(l) for l in logs]
            stages.append((stage, ts, logs, debye_coefficients(ts, logs, inp["K"])))
        return stages

    def digest(self, out):
        """Branch logs, endpoint and coefficient array after the spiral and
        after the ray; the prediction's regular K x K window."""
        tr, cont, pred = out
        K, depth = cont.order(), cont.depth
        stages = [(list(s.logs), list(s.point.ts), self._coeffs(s, K, depth)) for s in (tr, cont)]
        finite = all(cmath.isfinite(complex(c)) for c in pred.terms.values())
        window = {e: complex(c) for e, c in pred.terms.items() if 0 <= min(e) and max(e) < K}
        return {"stages": stages, "pred": window, "pred_finite": finite}

    def check(self, inp, out, ref):
        """(ok, achieved digits, detail): the transported and the continued
        series against their direct sums; the prediction must be finite."""
        worst = 99.0
        for (got_logs, got_ts, coeffs), (stage, ts, logs, want) in zip(out["stages"], ref):
            if max(abs(a - b) for a, b in zip(got_logs, logs)) > 1e-9:
                return False, None, f"{stage}: branch logs {got_logs} != {logs}"
            if max(abs(a - b) / abs(b) for a, b in zip(got_ts, ts)) > 1e-9:
                return False, None, f"{stage}: endpoint {got_ts} != {ts}"
            err, scale = _max_err(coeffs, want)
            scale = max(1.0, scale)  # the library's tolerances are absolute below 1
            worst = min(worst, _digits(err, scale))
            if err > self.tolerance * scale:
                return False, worst, f"{stage}: error {err / scale:.2e}"
        if not out["pred_finite"]:
            return False, worst, "prediction has non-finite coefficients"
        return True, worst, ""

    def checksum(self, out):
        """Output arrays recorded for the default seed: continued-series
        coefficients and the prediction's regular window, {exponent: [re, im]}."""
        import numpy as np

        coeffs = out["stages"][1][2]
        rows = {f"cont{list(e)}": complex(coeffs[e]) for e in np.ndindex(coeffs.shape)}
        rows.update({f"pred{list(e)}": c for e, c in out["pred"].items()})
        return {k: [c.real, c.imag] for k, c in rows.items()}

    def kind(self, inp):
        return f"depth{inp['depth']}/K{inp['K']}" + (f"/{inp['route']}" if inp["route"] else "")


# ----------------------------------------------------- coproduct_identities


class CoproductIdentities:
    """Delta^(3) assembly and exact partial-fraction verdicts (ROADMAP
    pipeline 2): pure hopf plus Fraction arithmetic, no numpy."""

    name = "coproduct_identities"
    why = (
        "exact hopf coproducts and rational identity verdicts; only the kid ops reach "
        "rational, so an identity-check change moves them and leaves Delta^(3) alone"
    )
    # per block: 8 Delta^(3) assemblies and 4 verdicts; p50 lands 5/6 into the
    # n=5 assemblies, p90 2/3 into the n=6 ones; kid1 at n=6 sits just below them
    block = (
        [("delta", 4)] * 1 + [("delta", 5)] * 3 + [("delta", 6)] * 4
        + [("kid", 4), ("kid", 5), ("kid1", 6), ("kid2", 6)]
    )
    max_rate = 60

    def setup(self, seed, seconds, src, stored):
        _import_epolylog(src)
        from epolylog import hopf

        self.hopf = hopf
        self.stored = stored
        rng = random.Random(seed)
        count = max(2, math.ceil(seconds * self.max_rate / len(self.block)))
        self.inputs = []
        for _ in range(count):
            kinds = list(self.block)
            rng.shuffle(kinds)
            for kind, n in kinds:
                if kind == "delta":
                    J = ()
                    while not J:
                        J = tuple(i for i in range(1, n) if rng.random() < 0.5)
                    self.inputs.append({"kind": "delta", "n": n, "J": J})
                else:
                    which = kind if kind != "kid" else rng.choice(("kid1", "kid2"))
                    self.inputs.append({"kind": which, "n": n})
        self.rejected = 0
        self.run({"kind": "delta", "n": 5, "J": (1, 2)})

    def run(self, inp):
        hopf = self.hopf
        if inp["kind"] == "delta":
            return hopf.assemble_asymptotic(hopf.canonical_symbol(inp["n"]), set(inp["J"]))
        return hopf.verify_identities(inp["n"], inp["kind"])

    def requested_digits(self, inp):
        return None  # exact verdicts

    def reference(self, inp):
        """Every identity holds, so its verdict is True; an assembled term
        list must match the stored term count and exact coefficient sum."""
        if inp["kind"] != "delta":
            return {"ok": True, "residual": 0}
        return self.stored["assembled"][assembled_key(inp["n"], inp["J"])]

    def digest(self, out):
        if isinstance(out, dict):
            return {"ok": out.get("ok"), "residual": out.get("residual")}
        return assembled_summary(out)

    def check(self, inp, out, ref):
        ok = out == ref
        return ok, None, "" if ok else f"{self.kind(inp)}: {out} != {ref}"

    def checksum(self, out):
        if "ok" in out:
            return {"ok": [float(out["ok"] is True), 0.0]}
        return {
            "terms": [float(out["terms"]), 0.0],
            "coeff_sum": [float(Fraction(out["coeff_sum"])), 0.0],
        }

    def kind(self, inp):
        return f"{inp['kind']}/n{inp['n']}"


# ------------------------------------------------------------- kernel_ladder


class KernelLadder:
    """Kronecker kernel by two evaluators plus the one-form ladder, in double
    and in explicit 30-digit contexts."""

    name = "kernel_ladder"
    why = (
        "the only workload on kronecker and precision: theta, Eisenstein and one-form "
        "ladders over |q| from 0.15 to 5e-4; one op in four at 30 digits"
    )
    taus = (0.1 + 0.3j, -0.2 + 0.45j, 0.35 + 0.6j, 0.0 + 0.8j, -0.15 + 1.0j, 0.25 + 1.2j)
    precisions = (15, 15, 15, 30)  # one op in four extended
    repeats = 2  # pool = repeats * len(taus) * len(precisions) distinct inputs
    omega_order = 8
    tolerance = 1e-6  # relative error that fails an op; shortfalls above it are digits_short
    clearance = 0.08  # distance of xi, eta, xi + eta from the lattice

    def setup(self, seed, seconds, src, stored):
        _import_epolylog(src)
        from epolylog import kronecker

        self.kr = kronecker
        self.contexts = {}
        for ti, tau in enumerate(self.taus):
            for digits in sorted(set(self.precisions)):
                ctx = kronecker.LatticeContext(tau, precision=digits)
                for j in range(2, self.omega_order + 2, 2):
                    kronecker.lattice_constant(j, ctx)
                self.contexts[ti, digits] = ctx
        rng = random.Random(seed)
        self.rejected = 0
        pool = []
        for _ in range(self.repeats):
            for ti in range(len(self.taus)):
                for digits in self.precisions:
                    xi, eta = self._draw(rng, self.taus[ti])
                    pool.append({"tau": ti, "digits": digits, "xi": xi, "eta": eta})
        rng.shuffle(pool)
        self.inputs = pool
        xi, eta = self._draw(random.Random(f"warm-{seed}"), self.taus[3])
        self.run({"tau": 3, "digits": 15, "xi": xi, "eta": eta})

    def _lattice_distance(self, s, r, tau):
        return min(
            abs((s - m) + (r - n) * tau)
            for m in range(math.floor(s) - 1, math.floor(s) + 3)
            for n in range(math.floor(r) - 1, math.floor(r) + 3)
        )

    def _draw(self, rng, tau):
        """Seeded (s, r) pairs for xi and eta; points near the lattice are redrawn."""
        while True:
            xi = (rng.uniform(0.0, 1.0), rng.uniform(-0.5, 1.5))
            eta = (rng.uniform(0.0, 1.0), rng.uniform(-0.5, 1.5))
            total = (xi[0] + eta[0], xi[1] + eta[1])
            if min(self._lattice_distance(*p, tau) for p in (xi, eta, total)) >= self.clearance:
                return xi, eta
            self.rejected += 1

    def requested_digits(self, inp):
        return inp["digits"]

    def run(self, inp):
        kr = self.kr
        ctx = self.contexts[inp["tau"], inp["digits"]]
        xi = kr.EllipticPoint(*inp["xi"])
        eta = kr.EllipticPoint(*inp["eta"])
        f_theta = kr.kronecker_F(xi, eta, ctx, "theta_ratio")
        f_q = kr.kronecker_F(xi, eta, ctx, "double_q_series")
        omega = kr.omega_coefficients(xi, self.omega_order, ctx)
        return f_theta, f_q, omega

    def reference(self, inp):
        from oracles import kronecker_reference, omega_reference

        tau = self.taus[inp["tau"]]
        return (
            kronecker_reference(inp["xi"], inp["eta"], tau),
            omega_reference(inp["xi"], tau, self.omega_order),
        )

    def digest(self, out):
        return out

    def check(self, inp, out, ref):
        import mpmath

        f_theta, f_q, omega = out
        f_ref, omega_ref = ref
        worst = 99.0
        detail = ""
        with mpmath.workdps(45):
            for label, got in (("theta_ratio", f_theta), ("double_q_series", f_q)):
                d = _digits(abs(mpmath.mpmathify(got) - f_ref), abs(f_ref))
                if d < worst:
                    worst, detail = d, label
            scale = max(abs(c) for c in omega_ref)
            err = max(abs(mpmath.mpmathify(g) - c) for g, c in zip(omega, omega_ref))
            d = _digits(err, scale)
            if d < worst:
                worst, detail = d, "omega"
        ok = worst >= -math.log10(self.tolerance)
        return ok, worst, "" if ok else f"{detail}: {worst:.1f} digits"

    def checksum(self, out):
        f_theta, f_q, omega = out
        rows = {}
        for tag, val in (("theta_ratio", f_theta), ("double_q_series", f_q)):
            c = complex(val)
            rows[tag] = [c.real, c.imag]
        for k, val in enumerate(omega):
            c = complex(val)
            rows[f"omega{k}"] = [c.real, c.imag]
        return rows

    def kind(self, inp):
        return f"digits{inp['digits']}/tau{inp['tau']}"


def _digits(err, scale):
    from oracles import digits

    return digits(err, scale)


def assembled_key(n, J):
    return f"{n}:{','.join(map(str, J))}"


def assembled_summary(terms):
    """Term count and exact coefficient sum of an assembled Delta^(3) list."""
    return {"terms": len(terms), "coeff_sum": str(sum(t[0] for t in terms))}


WORKLOADS = {w.name: w for w in (DebyeTransport, CoproductIdentities, KernelLadder)}


def mix(workload, inputs):
    """Realised share of each op kind among the inputs actually run."""
    counts = Counter(workload.kind(inp) for inp in inputs)
    return dict(sorted(counts.items()))
