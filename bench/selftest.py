#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of epolylog).

    python3 bench/selftest.py

1. Tracing changes no result: for the first ops of every workload the traced
   output equals the untraced output exactly, and uninstalling the tracer
   restores every patched binding.
2. A short smoke run of every workload, untraced and traced, emits exactly
   the metric names and units that BENCHMARK.json declares, with no failed
   op; each layer records spans on the workload where it is heavy and none
   where it cannot run.
3. Without the program's sources (only BENCHMARK.json and bench/) the
   benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import HEAVY, PER_LAYER, REFERENCE, ROOT, SRC, load_reference
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

RUN = os.path.join(ROOT, "bench", "run.py")
OPS = 4
# (workload, metric prefixes that must read 0 there)
ZERO = {
    "kernel_ladder": ("quadrature.", "rational.", "polylog.", "hopf."),
    "coproduct_identities": ("kronecker.", "quadrature.", "series.", "polylog."),
    "debye_transport": ("rational.", "hopf.kid", "kronecker."),
}


def check_tracing_is_transparent():
    stored = load_reference()
    for name, cls in WORKLOADS.items():
        wl = cls()
        wl.setup(0, 1.0, SRC, stored.get(name, {}))
        tracer = Tracer()
        tracer.install()  # imports every layer module, so the snapshot covers them
        tracer.uninstall()
        originals = _bindings()
        for i, inp in enumerate(wl.inputs[:OPS]):
            plain = wl.checksum(wl.digest(wl.run(inp)))
            tracer.install()
            try:
                traced = wl.checksum(wl.digest(tracer.run_op(i, wl.run, inp)))
            finally:
                tracer.uninstall()
            assert traced == plain, f"{name}: traced op {i} differs from the untraced op"
        assert _bindings() == originals, f"{name}: uninstall left a patched binding"
        assert tracer.spans, f"{name}: no spans recorded"
        print(f"ok  tracing transparent on {name} ({len(tracer.spans)} spans)")


def _bindings():
    """id of every object bound to a wrapped name, per owner and key."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.startswith("epolylog") and mod is not None:
            for key, val in vars(mod).items():
                out[mod_name, key] = id(val)
                if isinstance(val, type):
                    for k2, v2 in vars(val).items():
                        out[mod_name, key, k2] = id(v2)
    return out


def _result(cmd, cwd=ROOT):
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return done, done.stdout.strip().splitlines()


def check_smoke_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert whys == {n: c.why for n, c in WORKLOADS.items()}, "why differs from BENCHMARK.json"
    assert {name for name, *_ in PER_LAYER} <= set(declared[1])
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, RUN, "--workload", name, "--seed", "0", "--seconds", "2",
                   "--trace", str(trace)]
            done, lines = _result(cmd)
            assert done.returncode == 0, (
                f"{name} trace {trace}: exit {done.returncode}\n{done.stderr}"
            )
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared[trace], f"{name} trace {trace}: metrics {sorted(got)}"
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
                if trace == 0:
                    assert v["value"] > 0, f"{name}: end-to-end {k} is {v['value']}"
            if trace:
                _check_layers(name, result["metrics"])
            print(f"ok  smoke {name} trace {trace}: {result['attempted']} ops")


def _check_layers(name, metrics):
    heavy_metrics = {
        m for m, _, spans, _ in PER_LAYER if any(s in HEAVY[name] for s in spans)
    }
    for m in heavy_metrics:
        assert metrics[m]["value"] > 0, f"{name}: heavy-layer metric {m} is zero"
    for m, v in metrics.items():
        if m.startswith(ZERO[name]):
            assert v["value"] == 0, f"{name}: {m} should be zero, is {v['value']}"
    assert metrics["trace.overhead_ratio"]["value"] > 0


def check_bare_directory():
    """Only BENCHMARK.json and bench/: the run must fail without a result."""
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "bench", "out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        cmd = [sys.executable, "bench/run.py", "--workload", "debye_transport", "--seed", "1",
               "--seconds", "2", "--trace", "0"]
        done, lines = _result(cmd, cwd=bare)
        assert done.returncode != 0, "bare directory run exited 0"
        assert not (lines and lines[-1].startswith("{")), "bare directory run printed a result"
    print(f"ok  bare directory exits {done.returncode} without a result")


def main():
    assert os.path.exists(REFERENCE)
    assert {entry[0] for entry in LAYERS} >= {s for v in HEAVY.values() for s in v}
    os.makedirs(os.path.join(ROOT, "bench", "out"), exist_ok=True)
    check_tracing_is_transparent()
    check_bare_directory()
    check_smoke_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()
