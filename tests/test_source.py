"""Static checks on the package source."""

import ast
import inspect
import os

from qortho.scalars import Scalar

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qortho")


def _trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                yield name, ast.parse(fh.read(), filename=path)


def _scopes(tree):
    """node -> name of the innermost enclosing function."""
    scopes = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                scopes[node] = func.name  # inner functions come later
    return scopes


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no check may rely on one
    found = []
    for name, tree in _trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_gc_freeze_only_in_console():
    # freezing the heap is for the exiting process alone: main() is also
    # called in-process, where a freeze would pin the caller's objects
    found = []
    for name, tree in _trees():
        scopes = _scopes(tree)
        found += [(name, scopes.get(node, "<module>"))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "freeze"
                  and isinstance(node.value, ast.Name) and node.value.id == "gc"]
    assert found == [("cli.py", "console")]


def test_no_unused_module_imports():
    # a name imported at module level and never read is dead weight, and
    # hides which helpers a module still depends on; `__init__` imports
    # are the package's public names
    found = []
    for name, tree in _trees():
        if name == "__init__.py":
            continue
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{name}:{line} {bound}" for bound, line in imported.items()
                  if bound not in used]
    assert found == []


def test_realforms_keeps_no_sqmat_witness_path():
    # every realforms verdict and witness comes from the monomial form, so
    # it needs neither the tensor embedding nor the SqMat first difference
    tree = dict(_trees())["realforms.py"]
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"kron_embed", "first_diff"}


def test_scalar_takes_n0_alone():
    # `Scalar(n0)`, with no denominator: perfbench/tracer.py reads the
    # constructor's positional arguments, so no call may pass more than n0,
    # or unpack its arguments
    assert list(inspect.signature(Scalar).parameters) == ["n0"]
    assert Scalar.__slots__ == ("n0",)
    assert not hasattr(Scalar, "__truediv__")
    found = []
    for name, tree in _trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "Scalar"
                  and (len(node.args) + len(node.keywords) > 1
                       or any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))]
    assert found == []


def test_rewrite_systems_are_built_by_one_helper():
    # every plane's rewriting system, the x3 = +-x2 quotient's too, comes
    # from qplane._quadratic_rules, which checks the pivots first
    found = []
    for name, tree in _trees():
        scopes = _scopes(tree)
        found += [(name, scopes.get(node, "<module>"))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "RewriteSystem" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
    assert found == [("qplane.py", "_quadratic_rules")]
