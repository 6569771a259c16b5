#!/usr/bin/env python3
"""Benchmark for epolylog: one closed-loop client, one process per workload.

    python3 bench/run.py --workload debye_transport --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 5        # every workload in turn

Set-up (imports, input generation, contexts and constants, one untimed warm-up
op) is timed in this process and in fresh child processes; ``setup_s`` is the
median.  Then ops run back to back for ``--seconds``, each starting when the
previous one returns.  After the timed loop every op's output is checked
against an independent oracle (``oracles.py``); for the default seed the
first ops are also compared with the stored arrays in ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and traced (alternating which goes first), and reports the
per-layer metrics from spans recorded around the program's public functions
(``tracer.py``), plus the tracing overhead.  A human-readable summary, the
host record and the realised input mix precede the result, which is the last
line of output: one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record (and, when traced, the spans) is written to
``bench/out/``.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_RUNS = 5  # set-ups per run: this process plus fresh children
DEFAULT_SEED = 0  # the seed whose first outputs reference.json stores
CHECKSUM_TOL = 1e-9  # relative deviation from reference.json that fails an op


def pin_environment():
    """Single-threaded BLAS/OpenMP and no precision override from the
    environment: every context passes its precision explicitly."""
    os.environ.update(PINNED)
    os.environ.pop("ELLIP_PRECISION", None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


pin_environment()

from tracer import Tracer, LAYERS  # noqa: E402
from workloads import WORKLOADS, mix  # noqa: E402

# Per-layer metrics: (name, unit, span names, field).  Every value is per
# traced op; "ms" is inclusive time of outermost calls, "self_ms" excludes
# child spans, "calls" counts outermost calls, "work" sums the span counter.
PER_LAYER = (
    ("polylog.debye_lambda_ms", "ms", ("polylog.debye_lambda",), "ms"),
    ("polylog.transport_ms", "ms", ("polylog.transport",), "self_ms"),
    ("polylog.form_evals", "count", ("polylog.form",), "calls"),
    ("polylog.form_ms", "ms", ("polylog.form",), "ms"),
    ("polylog.asymptotic_ms", "ms", ("polylog.asymptotic",), "self_ms"),
    ("quadrature.integral_calls", "count", ("quadrature.integral",), "calls"),
    ("quadrature.self_ms", "ms", ("quadrature.integral",), "self_ms"),
    ("quadrature.convolve_calls", "count", ("quadrature.convolve",), "calls"),
    ("quadrature.convolve_ms", "ms", ("quadrature.convolve",), "ms"),
    ("quadrature.convolve_flop", "computed-cmadd", ("quadrature.convolve",), "work"),
    ("series.mul_calls", "count", ("series.mul",), "calls"),
    ("series.mul_ms", "ms", ("series.mul",), "ms"),
    ("series.mul_term_pairs", "count", ("series.mul",), "work"),
    ("series.exp_ms", "ms", ("series.exp",), "ms"),
    ("series.self_ms", "ms", ("series.mul", "series.exp"), "self_ms"),
    ("hopf.delta_ms", "ms", ("hopf.delta",), "ms"),
    ("hopf.delta_terms", "count", ("hopf.delta",), "work"),
    ("hopf.kid_ms", "ms", ("hopf.kid",), "self_ms"),
    ("rational.sum_calls", "count", ("rational.sum",), "calls"),
    ("rational.sum_ms", "ms", ("rational.sum",), "ms"),
    ("rational.num_terms", "count", ("rational.poly_mul",), "work"),
    ("rational.poly_mul_calls", "count", ("rational.poly_mul",), "calls"),
    ("kronecker.theta_calls", "count", ("kronecker.theta",), "calls"),
    ("kronecker.theta_ms", "ms", ("kronecker.theta",), "ms"),
    ("kronecker.F_ms", "ms", ("kronecker.F",), "ms"),
    ("kronecker.omega_ms", "ms", ("kronecker.omega",), "ms"),
    ("kronecker.eisenstein_calls", "count", ("kronecker.eisenstein",), "calls"),
    ("kronecker.eisenstein_ms", "ms", ("kronecker.eisenstein",), "ms"),
)
# Run-level per-layer metrics computed from op records, not spans.
PER_LAYER_RUN = (
    ("precision.double_op_ms", "ms"),
    ("precision.extended_op_ms", "ms"),
    ("precision.digits_short", "digits"),
    ("trace.overhead_ratio", "ratio"),
)
# Layers that must record spans on the workload where they do most work.
HEAVY = {
    "debye_transport": (
        "polylog.debye_lambda", "polylog.transport", "polylog.form", "polylog.asymptotic",
        "quadrature.integral", "quadrature.convolve", "series.mul", "series.exp",
    ),
    "coproduct_identities": ("hopf.delta", "hopf.kid", "rational.sum", "rational.poly_mul"),
    "kernel_ladder": ("kronecker.theta", "kronecker.F", "kronecker.omega", "kronecker.eisenstein"),
}
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class Record:
    __slots__ = (
        "index", "inp", "out", "seconds", "traced_out", "traced_seconds", "ok", "digits", "detail",
    )

    def __init__(self, index, inp):
        self.index = index
        self.inp = inp
        self.traced_out = None
        self.traced_seconds = None


def _call(wl, fn, *args):
    """Run one op and digest its output.  An exception is the op's result,
    recorded as a failure.  Returns (digest, op seconds, digest seconds)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # the loop must go on; the failure is reported
        return _failure(exc), time.perf_counter() - t0, 0.0
    t1 = time.perf_counter()
    try:
        out = wl.digest(out)
    except Exception as exc:
        out = _failure(exc)
    return out, t1 - t0, time.perf_counter() - t1


def _failure(exc):
    exc.trace = traceback.format_exc()
    return exc


def timed_loop(wl, seconds, tracer=None):
    """Closed loop over the generated inputs for ``seconds`` of wall time.
    Returns the op records and the loop's wall time without the bench's own
    digesting between ops."""
    inputs = wl.inputs
    records = []
    bookkeeping = 0.0
    gc.collect()
    gc.freeze()  # the bench's inputs and contexts are not rescanned by every collection
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(records)
        rec = Record(i, inputs[i % len(inputs)])
        if tracer is None:
            rec.out, rec.seconds, extra = _call(wl, wl.run, rec.inp)
            bookkeeping += extra
        else:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    rec.traced_out, rec.traced_seconds, _ = _call(
                        wl, tracer.run_op, i, wl.run, rec.inp
                    )
                    tracer.uninstall()
                else:
                    rec.out, rec.seconds, _ = _call(wl, wl.run, rec.inp)
        records.append(rec)
    wall = time.perf_counter() - start - bookkeeping
    gc.unfreeze()
    return records, wall


def child_setup_seconds(args):
    """Set-up time measured in a fresh interpreter (cold imports)."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def checksum_deviation(got, want):
    """Largest |got - want| over all entries, relative to the largest
    reference entry; missing entries count as zero."""
    scale = max((math.hypot(*v) for v in want.values()), default=0.0) or 1.0
    worst = 0.0
    for key in set(got) | set(want):
        a = got.get(key, [0.0, 0.0])
        b = want.get(key, [0.0, 0.0])
        worst = max(worst, math.hypot(a[0] - b[0], a[1] - b[1]) / scale)
    return worst


def verify(wl, records, stored, seed):
    """Judge every op outside the timed region, setting ``ok``, ``digits``
    and ``detail`` on each record.  Returns the largest deviation from the
    stored default-seed outputs (None when none were compared)."""
    refs = {}
    checksums = stored.get("checksums", []) if seed == DEFAULT_SEED else []
    worst_dev = None
    for rec in records:
        rec_ok, rec.digits, rec.detail = False, None, ""
        if isinstance(rec.out, Exception):
            rec.detail = rec.out.trace.strip().splitlines()[-1]
        elif isinstance(rec.traced_out, Exception):
            rec.detail = "traced: " + rec.traced_out.trace.strip().splitlines()[-1]
        else:
            key = id(rec.inp)
            if key not in refs:
                refs[key] = wl.reference(rec.inp)
            rec_ok, rec.digits, rec.detail = wl.check(rec.inp, rec.out, refs[key])
            if rec_ok and rec.traced_out is not None:
                if wl.checksum(rec.traced_out) != wl.checksum(rec.out):
                    rec_ok, rec.detail = False, "traced output differs from untraced output"
            if rec_ok and rec.index < len(checksums):
                dev = checksum_deviation(wl.checksum(rec.out), checksums[rec.index])
                worst_dev = dev if worst_dev is None else max(worst_dev, dev)
                if dev > CHECKSUM_TOL:
                    rec_ok, rec.detail = False, f"deviates {dev:.2e} from reference.json"
        rec.ok = rec_ok
    return worst_dev


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digits_short(wl, records):
    """Worst op's requested digits minus achieved digits, floored at 0."""
    shorts = [
        wl.requested_digits(r.inp) - r.digits
        for r in records
        if r.digits is not None and wl.requested_digits(r.inp) is not None
    ]
    return max([0.0] + shorts) if shorts else None


def per_layer_metrics(wl, records, tracer):
    totals = tracer.layer_totals()
    n = len(records)
    metrics = {}
    for name, unit, spans, field in PER_LAYER:
        value = sum(totals.get(s, {}).get(field, 0) for s in spans) / n
        metrics[name] = {"value": value, "unit": unit}
    by_precision = {15: [], 30: []}
    for r in records:
        if "digits" in r.inp:
            by_precision[r.inp["digits"]].append(r.seconds * 1e3)
    values = {
        "precision.double_op_ms": by_precision[15],
        "precision.extended_op_ms": by_precision[30],
        "precision.digits_short": digits_short(wl, records) or 0.0,
        "trace.overhead_ratio": statistics.median(r.traced_seconds for r in records)
        / statistics.median(r.seconds for r in records),
    }
    for name, unit in PER_LAYER_RUN:
        value = values[name]
        if isinstance(value, list):
            value = statistics.median(value) if value else 0.0
        metrics[name] = {"value": value, "unit": unit}
    present = {
        name for name, modname, attr, _ in LAYERS if f"{modname}.{attr}" not in tracer.absent
    }
    silent = [s for s in HEAVY[wl.name] if s in present and s not in totals]
    return metrics, silent


def host_record():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned": PINNED,
    }


def run_workload(args):
    wl = WORKLOADS[args.workload]()
    stored = load_reference().get(wl.name, {})
    t0 = time.perf_counter()
    wl.setup(args.seed, args.seconds, SRC, stored)
    setups = [time.perf_counter() - t0]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    for _ in range(SETUP_RUNS - 1):
        setups.append(child_setup_seconds(args))

    tracer = Tracer() if args.trace else None
    records, wall = timed_loop(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checksum_dev = verify(wl, records, stored, args.seed)
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    times = [r.seconds * 1e3 for r in records]
    short = digits_short(wl, records)
    summary = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(times),
        "op_ms_p90": percentile(times, 90) if len(times) > 1 else times[0],
        "ops_per_s": attempted / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    correct = failed == 0
    silent = []
    if args.trace:
        metrics, silent = per_layer_metrics(wl, records, tracer)
        correct = correct and not silent
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}

    worst_digits, kind_ms = by_kind(wl, records)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "result": result,
        "summary": summary, "failed_frac": failed / attempted, "digits_short": short,
        "worst_digits": worst_digits, "median_op_ms_by_kind": kind_ms,
        "op_ms": [round(t, 3) for t in times], "setup_samples": setups,
        "checksum_deviation": checksum_dev, "mix": mix(wl, [r.inp for r in records]),
        "rejected_draws": wl.rejected, "host": host_record(),
        "absent": tracer.absent if tracer else [], "silent_layers": silent,
        "failures": [(r.index, wl.kind(r.inp), r.detail) for r in records if not r.ok],
    }
    print_report(wl, record)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(stem + "-spans.tsv")
    print(json.dumps(result))
    return 0


def by_kind(wl, records):
    """Worst achieved digits and median op time (ms) per op kind."""
    worst, times = {}, {}
    for r in records:
        k = wl.kind(r.inp)
        times.setdefault(k, []).append(r.seconds * 1e3)
        if r.digits is not None:
            worst[k] = round(min(worst.get(k, 99.0), r.digits), 2)
    medians = {k: round(statistics.median(v), 3) for k, v in times.items()}
    return dict(sorted(worst.items())), dict(sorted(medians.items()))


def print_report(wl, rec):
    units = dict(END_TO_END)
    result = rec["result"]
    print(f"workload {wl.name}  seed {rec['seed']}  seconds {rec['seconds']}  "
          f"trace {rec['trace']}")
    print(f"  why: {wl.why}")
    for name, value in rec["summary"].items():
        print(f"  {name:<14} {value:12.4f} {units[name]}")
    print(f"  {'failed_frac':<14} {rec['failed_frac']:12.4f} 1  "
          f"({result['failed']} of {result['attempted']} ops)")
    if rec["digits_short"] is None:
        print(f"  {'digits_short':<14} {'n/a':>12} digits  (exact verdicts)")
    else:
        print(f"  {'digits_short':<14} {rec['digits_short']:12.4f} digits")
    print(f"  samples: {result['attempted']} ops; "
          f"setup_s is the median of {len(rec['setup_samples'])} set-ups")
    if rec["checksum_deviation"] is not None:
        print(f"  reference.json: max relative deviation {rec['checksum_deviation']:.3e}")
    for index, kind, detail in rec["failures"]:
        print(f"  FAILED op {index} ({kind}): {detail}")
    if rec["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:<28} {m['value']:14.4f} {m['unit']}")
        if rec["absent"]:
            print(f"  absent from the program (reported as 0): {', '.join(rec['absent'])}")
        if rec["silent_layers"]:
            print(f"  ERROR: no spans on {wl.name} for {', '.join(rec['silent_layers'])}")
    if rec["worst_digits"]:
        print(f"  worst achieved digits by kind: {json.dumps(rec['worst_digits'])}")
    print(f"  median op ms by kind: {json.dumps(rec['median_op_ms_by_kind'])}")
    print(f"  mix: {json.dumps(rec['mix'])}")
    print(f"  rejected draws: {rec['rejected_draws']}")
    print(f"  host: {json.dumps(rec['host'])}")


def run_all(args):
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
