"""Package surface guards, read from the source with ast.

Deleting a feature should not leave its private helpers or its error class
behind: every module-level private function or class in the package must be
referenced outside its own definition, and every EpolylogError subclass must
be raised somewhere.  The package is what the pipelines run: every public
module-level function or class, and every public method or property of a
public class, must be referenced in the package outside its own definition or
be named in the benchmark's workloads, so an entry point that only tests
reach belongs in tests/oracles.py instead.  Options only grow
on purpose: the count of defaulted parameters on the public surface may not
rise above DEFAULTED_PARAMETERS.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "epolylog"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
# the files that call the package as a user would; bench/tracer.py is left out,
# since it lists names as strings whether or not they exist
BENCH_WORDS = set(
    re.findall(r"\w+", "\n".join((ROOT / "bench" / f).read_text() for f in ("workloads.py", "make_reference.py")))
)
DEFAULTED_PARAMETERS = 6


def _names(node):
    """Identifiers a subtree refers to: loaded names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _module_defs(private):
    for mod, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                if node.name.startswith("_") == private:
                    yield mod, node


def _referenced_elsewhere(node):
    total = sum(name == node.name for tree in MODULES.values() for name in _names(tree))
    own = sum(name == node.name for name in _names(node))
    return total > own


def _def_id(x):
    return getattr(x, "name", x)


@pytest.mark.parametrize("mod, node", list(_module_defs(private=True)), ids=_def_id)
def test_private_definition_is_used(mod, node):
    assert _referenced_elsewhere(node), f"{mod}.{node.name} is defined but never referenced"


def _public_defs():
    """(module, definition) of every public module-level function or class,
    then (module.Class, definition) of each public method or property of a
    public class."""
    for mod, node in _module_defs(private=False):
        yield mod, node
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{mod}.{node.name}", fn


@pytest.mark.parametrize("mod, node", list(_public_defs()), ids=_def_id)
def test_public_name_is_reached(mod, node):
    assert _referenced_elsewhere(node) or node.name in BENCH_WORDS, (
        f"{mod}.{node.name} is reached neither from the package nor from the benchmark"
    )


def _error_classes():
    tree = MODULES["errors"]
    known = {"EpolylogError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in known for b in node.bases
        ):
            known.add(node.name)
            yield node.name


def _raised():
    out = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                out.update(_names(exc))
    return out


def test_error_classes_found():
    assert len(list(_error_classes())) >= 10


@pytest.mark.parametrize("name", list(_error_classes()))
def test_error_class_is_raised(name):
    assert name in _raised(), f"{name} is never raised in src/epolylog"


def _defaulted(fn):
    """Names of the parameters of a function definition that carry a default."""
    a = fn.args
    pos = a.posonlyargs + a.args
    out = [p.arg for p in pos[len(pos) - len(a.defaults):]] if a.defaults else []
    return out + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _public_functions():
    """(qualified name, definition) of every public function and of every
    public or dunder method of a public class."""
    for mod, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{mod}.{node.name}", node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (
                        not fn.name.startswith("_") or fn.name.endswith("__")
                    ):
                        yield f"{mod}.{node.name}.{fn.name}", fn


def test_defaulted_parameter_ratchet():
    found = [f"{name}({p})" for name, fn in _public_functions() for p in _defaulted(fn)]
    assert len(found) <= DEFAULTED_PARAMETERS, (
        f"{len(found)} defaulted public parameters, at most {DEFAULTED_PARAMETERS}: "
        + ", ".join(found)
    )
