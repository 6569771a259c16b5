"""Outside-in span tracer for the epolylog benchmark.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces each
wrapped public name at every binding in the loaded ``epolylog`` modules that
still refers to the original object (a name imported with ``from .x import
f`` is a second binding that patching only the defining module would miss),
and replaces methods on their class.  ``Tracer.uninstall`` restores every
binding, so untraced runs execute the original code with no overhead.

A span is ``[name, start, end, parent, op_id, work]``: ``parent`` is the index
of the enclosing span (-1 for none) and ``work`` an optional count computed
from the call's arguments or result.  Spans stay in memory and are written
out once, when the run ends.
"""

import functools
import importlib
import sys
import time


def _convolve_work(args, _out):
    """Complex multiply-adds of ``convolve_product(f, g)``, computed from the
    argument shapes (zero columns that the loop skips are still counted)."""
    f, g = args[0], args[1]
    fs, gs = tuple(getattr(f, "shape", ())), tuple(getattr(g, "shape", ()))
    if len(fs) <= 1 and len(gs) <= 1:
        return fs[0] if fs else 1
    nf, ng = fs[1:], gs[1:]
    nd = max(len(nf), len(ng))
    nf = (1,) * (nd - len(nf)) + nf
    ng = (1,) * (nd - len(ng)) + ng
    work = fs[0]
    for a, b in zip(nf, ng):
        out = max(a, b)
        work *= sum(out - i for i in range(a))
    return work


def _term_pairs(args, _out):
    other = args[1]
    terms = getattr(other, "terms", None)
    return len(args[0].terms) * len(terms) if terms is not None else 0


def _result_size(_args, out):
    terms = getattr(out, "terms", None)
    return len(terms) if terms is not None else len(out)


def _product_terms(_args, out):
    return len(out.terms)


# (span name, module, attribute, work counter).  "Class.method" attributes
# are patched on the class; plain names at every module binding.
LAYERS = (
    ("polylog.debye_lambda", "epolylog.polylog", "debye_lambda", None),
    ("polylog.transport", "epolylog.polylog", "transport_debye", None),
    ("polylog.transport", "epolylog.polylog", "continue_debye", None),
    ("polylog.transport", "epolylog.polylog", "transport_ray", None),
    ("polylog.asymptotic", "epolylog.polylog", "asymptotic_eval", None),
    ("polylog.form", "epolylog.quadrature", "BranchedForm.__call__", None),
    ("quadrature.integral", "epolylog.quadrature", "path_integral", None),
    ("quadrature.integral", "epolylog.quadrature", "iterated_integral", None),
    ("quadrature.convolve", "epolylog.quadrature", "convolve_product", _convolve_work),
    ("series.mul", "epolylog.series", "MultiSeries.__mul__", _term_pairs),
    ("series.exp", "epolylog.series", "MultiSeries.exp", None),
    ("series.exp", "epolylog.series", "MultiSeries.log", None),
    ("series.exp", "epolylog.series", "MultiSeries.invert", None),
    ("hopf.delta", "epolylog.hopf", "delta_components", _result_size),
    ("hopf.delta", "epolylog.hopf", "assemble_asymptotic", _result_size),
    ("hopf.kid", "epolylog.hopf", "kid_identity", None),
    ("rational.sum", "epolylog.rational", "rational_sum", None),
    ("rational.poly_mul", "epolylog.rational", "Poly.__mul__", _product_terms),
    ("kronecker.theta", "epolylog.kronecker", "theta", None),
    ("kronecker.theta", "epolylog.kronecker", "theta_prime0", None),
    ("kronecker.F", "epolylog.kronecker", "kronecker_F", None),
    ("kronecker.F", "epolylog.kronecker", "kronecker_F_value", None),
    ("kronecker.omega", "epolylog.kronecker", "omega_coefficients", None),
    ("kronecker.eisenstein", "epolylog.kronecker", "eisenstein_E", None),
    ("kronecker.eisenstein", "epolylog.kronecker", "lattice_constant", None),
)

OP = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = -1
        self.absent = []
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ recording
    def _wrap(self, fn, name, work):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if work is not None:
                span[5] = work(args, out)
            return out

        return traced

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as the root span of one op."""
        self.op_id = op_id
        return self._wrap(fn, OP, None)(*args)

    # -------------------------------------------------------------- patching
    def install(self):
        """Patch every layer binding; names missing from the program are
        recorded in ``absent`` instead of failing."""
        if self._patches:
            return
        self.absent = []
        for modname in {entry[1] for entry in LAYERS}:
            try:
                importlib.import_module(modname)
            except ImportError:
                pass
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("epolylog") and m]
        for name, modname, attr, work in LAYERS:
            mod = sys.modules.get(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, meth, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, name, work)
            if owner_name:
                for key, val in list(vars(owner).items()):
                    if val is original:
                        self._patches.append((owner, key, val))
                        setattr(owner, key, wrapper)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patches.append((m, key, val))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, val in reversed(self._patches):
            setattr(owner, key, val)
        self._patches = []

    # ----------------------------------------------------------- aggregation
    def layer_totals(self):
        """Per span name: outermost calls, inclusive ms of outermost calls,
        self ms of all calls, and summed work.  A call is outermost when no
        enclosing span has the same name (path_integral -> iterated_integral
        counts once)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        totals = {}
        for i, s in enumerate(spans):
            name = s[0]
            t = totals.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0})
            dur = s[2] - s[1]
            t["self_ms"] += (dur - child[i]) * 1e3
            if s[5] is not None:
                t["work"] += s[5]
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                t["calls"] += 1
                t["ms"] += dur * 1e3
        return totals

    def write(self, path):
        """Write spans as tab-separated lines: op_id, name, start_us, end_us,
        parent, work (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("op_id\tname\tstart_us\tend_us\tparent\twork\n")
            for name, a, b, parent, op_id, work in self.spans:
                fh.write(
                    f"{op_id}\t{name}\t{(a - t0) * 1e6:.1f}\t{(b - t0) * 1e6:.1f}\t{parent}\t"
                    f"{'' if work is None else work}\n"
                )
