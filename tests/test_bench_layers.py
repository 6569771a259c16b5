"""The benchmark's heavy layers stay on the program's hot paths.

bench/run.py marks a run incorrect when a layer in its HEAVY table records
no spans, and only the half-minute bench/selftest.py runs that check.  Here
one small op of each op family runs under bench/tracer.py's Tracer, and every
heavy layer of the workload must record spans, so a refactor that moves a
traced name off the hot path fails in tier-1.  HEAVY is read from run.py with
ast: importing run.py pins the process environment.
"""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _heavy():
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HEAVY" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no HEAVY table")


HEAVY = _heavy()

# small ops that together reach every op family of a workload
SMALL_OPS = {
    "debye_transport": lambda wl: [next(i for i in wl.inputs if i["depth"] == 2 and i["K"] == 4)],
    "coproduct_identities": lambda wl: [{"kind": "delta", "n": 4, "J": (1,)}, {"kind": "kid1", "n": 4}],
    "kernel_ladder": lambda wl: [next(i for i in wl.inputs if i["digits"] == 15)],
}


def test_every_workload_has_small_ops():
    assert set(SMALL_OPS) == set(HEAVY)


@pytest.mark.parametrize("name", sorted(HEAVY))
def test_heavy_layers_record_spans(name):
    tracer_mod, workloads = _load("tracer"), _load("workloads")
    wl = workloads.WORKLOADS[name]()
    wl.setup(0, 0.01, str(ROOT / "src"), {})
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for op_id, inp in enumerate(SMALL_OPS[name](wl)):
            tracer.run_op(op_id, wl.run, inp)
    finally:
        tracer.uninstall()
    silent = [layer for layer in HEAVY[name] if layer not in tracer.layer_totals()]
    assert not silent, f"{name}: heavy layers record no spans: {silent}"
